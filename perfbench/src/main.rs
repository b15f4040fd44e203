//! Seeded benchmark of the Fig. 1 pipeline over loopback.
//!
//! ```text
//! cargo run --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml \
//!     --bin perfbench -- --workload update-heavy --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line,
//! one JSON object: the end-to-end metrics `BENCHMARK.json` lists with
//! `--trace 0`, its per-layer metrics with `--trace 1`. A failed output
//! check exits with status 1 and prints no metrics. See `README.md`.

mod gen;
mod load;
mod run;
mod stats;
mod trace;

use run::{Args, Metric};
use std::path::Path;

/// Where runs keep WAL directories and span files, relative to the
/// checkout root the benchmark runs from.
const WORK_DIR: &str = ".perfbench";

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        gen::SPECS.map(|s| s.name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 30.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if gen::spec(&args.workload).is_none() || args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        if m.note.is_empty() {
            println!("  {:<32} {:>14.4} {}", m.name, m.value, m.unit);
        } else {
            println!(
                "  {:<32} {:>14.4} {:<6} ({})",
                m.name, m.value, m.unit, m.note
            );
        }
    }
}

fn json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// (busy, stolen) CPU ticks of the whole host so far, from /proc/stat.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let v: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let busy = v.iter().take(8).sum::<u64>() - v.get(3)? - v.get(4)?;
    Some((busy, *v.get(7)?))
}

fn main() {
    let args = parse_args();
    let ticks0 = cpu_ticks();
    println!(
        "perfbench {} seed {} seconds {} trace {} (host parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = match run::run(&args, Path::new(WORK_DIR)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            std::process::exit(1);
        }
    };
    if let (Some(a), Some(b)) = (ticks0, cpu_ticks()) {
        // Stolen time is CPU the hypervisor gave to other guests: when it
        // is high, every timing of the run is slower.
        println!(
            "host: {} busy and {} stolen CPU ticks during the run",
            b.0 - a.0,
            b.1 - a.1
        );
    }
    print_table("end-to-end", &report.end_to_end);
    print_table("end-to-end (not in BENCHMARK.json)", &report.extra);
    if args.trace {
        print_table("per-layer", &report.per_layer);
    }
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        json(metrics)
    );
}
