//! One benchmark run: set-up, paced phase, closed-loop phase, output
//! checks, and the metrics derived from timings, spans and `STATS`
//! deltas.

use crate::gen::{self, Inputs, Op, Spec, Topology, LATENCY_LIMIT};
use crate::load::{self, Clock as _, Outcome, Timing, WallClock};
use crate::stats::{self, Delta};
use crate::trace::{Span, Tracer};
use lbsp_anonymizer::{CloakRequirement, PrivacyProfile};
use lbsp_bench::world;
use lbsp_cluster::{PartitionMap, Router, RouterConfig};
use lbsp_core::obs::Stage;
use lbsp_core::{wire, Durability, EngineConfig, RegistrySnapshot, ShardedEngine};
use lbsp_geom::{Point, SimTime};
use lbsp_net::{NetClient, NetConfig, NetServer, Reply};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Paced-then-closed rounds per run.
const ROUNDS: usize = 4;
/// Idle pause before each paced burst: right after a closed burst,
/// latencies run high for about a second while the host hands back the
/// CPU the burst used.
const SETTLE: Duration = Duration::from_secs(1);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Closed-loop goodput is the median over chunks of this many good
/// completions.
const GOODPUT_CHUNK: usize = 500;
/// Paced median latencies are medians over slices of this length.
const LATENCY_SLICE: Duration = Duration::from_secs(1);
/// Requests generated per closed-loop second: more than any workload
/// completes on two connections, so the phase never runs dry.
const CLOSED_CAP_RPS: f64 = 40_000.0;
/// Pipelining window used while populating the server.
const WINDOW: usize = 32;
/// Idle-ping probes, and the gap between them.
const PINGS: usize = 100;
const PING_GAP: Duration = Duration::from_millis(10);
/// Gap between router-hop probe pairs.
const HOP_GAP: Duration = Duration::from_millis(5);
/// Engine threads of every engine (the `serve_engine` set-up).
const ENGINE_THREADS: usize = 2;
/// Socket timeouts: a wedged server fails the run instead of hanging it.
const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds (paced and closed phases share them).
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind a timing, with the quantile actually reported.
    pub note: String,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

fn m_n(name: &'static str, value: f64, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value,
        unit,
        note,
    }
}

/// What a run reports.
pub struct Report {
    /// End-to-end metrics listed in `BENCHMARK.json`.
    pub end_to_end: Vec<Metric>,
    /// End-to-end metrics printed but not listed there: the paced
    /// latencies, whose run-to-run spread on a shared host is wider than
    /// any bound that could gate them; the error rate, 0 on a healthy
    /// run; and the durable-only metrics, absent on the cluster.
    pub extra: Vec<Metric>,
    /// Per-layer metrics.
    pub per_layer: Vec<Metric>,
    /// Requests attempted in the measured phases.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
}

/// The engine configuration every server uses: grid+multilevel
/// cloaking with refinement over the unit world.
fn engine_config() -> EngineConfig {
    let mut cfg = EngineConfig::new(world());
    cfg.refine = true;
    cfg
}

fn in_memory_engine(inputs: &Inputs) -> ShardedEngine {
    let mut engine = ShardedEngine::new(engine_config(), ENGINE_THREADS);
    engine.load_public(inputs.pois.clone());
    engine
}

/// The running system under test.
enum Deployment {
    Single {
        server: NetServer,
        dir: PathBuf,
    },
    Cluster {
        router: Router,
        nodes: Vec<NetServer>,
    },
}

impl Deployment {
    fn addr(&self) -> std::net::SocketAddr {
        match self {
            Deployment::Single { server, .. } => server.local_addr(),
            Deployment::Cluster { router, .. } => router.local_addr(),
        }
    }

    /// Registries holding engines that a client cannot scrape through
    /// the front door: the cluster nodes, read in-process.
    fn node_snapshots(&self) -> Vec<RegistrySnapshot> {
        match self {
            Deployment::Single { .. } => Vec::new(),
            Deployment::Cluster { nodes, .. } => nodes
                .iter()
                .map(|n| n.metrics_registry().snapshot())
                .collect(),
        }
    }

    fn handoffs(&self) -> u64 {
        match self {
            Deployment::Single { .. } => 0,
            Deployment::Cluster { router, .. } => router.handoffs(),
        }
    }

    fn teardown(self) {
        match self {
            Deployment::Single { server, .. } => drop(server.shutdown()),
            Deployment::Cluster { router, nodes } => {
                router.shutdown();
                for n in nodes {
                    drop(n.shutdown());
                }
            }
        }
    }
}

fn connect(addr: std::net::SocketAddr) -> Result<NetClient, String> {
    let c = NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    c.set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok(c)
}

/// Sends `frames` in windows, checking every reply's kind.
fn pipelined(client: &mut NetClient, frames: &[(u8, Vec<u8>)], want: &str) -> Result<(), String> {
    for chunk in frames.chunks(WINDOW) {
        for (tag, payload) in chunk {
            client
                .send_only(*tag, payload)
                .map_err(|e| format!("send: {e}"))?;
        }
        for _ in chunk {
            load::expect_reply(client.read_reply(), want)?;
        }
    }
    Ok(())
}

/// Registers and places every user, then registers the standing
/// queries, all on connection 0.
fn populate(c0: &mut NetClient, inputs: &Inputs) -> Result<(), String> {
    let register: Vec<(u8, Vec<u8>)> = inputs
        .ks
        .iter()
        .enumerate()
        .map(|(u, &k)| {
            let msg = wire::RegisterMsg {
                user: u as u64,
                k,
                a_min: 0.0,
                a_max: f64::INFINITY,
            };
            (wire::tag::REGISTER, wire::encode_register(&msg).to_vec())
        })
        .collect();
    pipelined(c0, &register, "ok")?;
    let place: Vec<(u8, Vec<u8>)> = inputs
        .placement
        .iter()
        .enumerate()
        .map(|(u, &position)| {
            let msg = wire::ExactUpdateMsg {
                user: u as u64,
                position,
                time: SimTime::from_secs(0.0),
            };
            (
                wire::tag::EXACT_UPDATE,
                wire::encode_exact_update(&msg).to_vec(),
            )
        })
        .collect();
    pipelined(c0, &place, "cloaked")?;
    for area in &inputs.standing_counts {
        load::expect_reply(c0.register_standing_count(*area), "standing")?;
    }
    for &user in &inputs.standing_ranges {
        load::expect_reply(
            c0.register_standing_range(user, inputs.spec.radius),
            "standing",
        )?;
    }
    c0.take_standing_deltas();
    Ok(())
}

/// Binds the system and loads it: the part of a run `setup_s` times.
fn setup(inputs: &Inputs, dir: &Path) -> Result<(Deployment, NetClient, NetClient), String> {
    let dep = match inputs.spec.topology {
        Topology::Durable => {
            let opened = lbsp_store::open_engine(
                dir,
                engine_config(),
                ENGINE_THREADS,
                Durability::default(),
            )
            .map_err(|e| format!("open WAL dir: {e}"))?;
            let mut engine = opened.engine;
            engine.load_public(inputs.pois.clone());
            let server = NetServer::bind("127.0.0.1:0", engine, NetConfig::default())
                .map_err(|e| format!("bind: {e}"))?;
            Deployment::Single {
                server,
                dir: dir.to_path_buf(),
            }
        }
        Topology::Cluster(k) => {
            let nodes = (0..k)
                .map(|_| {
                    NetServer::bind(
                        "127.0.0.1:0",
                        in_memory_engine(inputs),
                        NetConfig::default(),
                    )
                })
                .collect::<std::io::Result<Vec<_>>>()
                .map_err(|e| format!("bind node: {e}"))?;
            let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
            let refs: Vec<&str> = addrs.iter().map(String::as_str).collect();
            let router = Router::bind("127.0.0.1:0", &refs, world(), RouterConfig::default())
                .map_err(|e| format!("bind router: {e}"))?;
            Deployment::Cluster { router, nodes }
        }
    };
    let mut c0 = connect(dep.addr())?;
    let c1 = connect(dep.addr())?;
    populate(&mut c0, inputs)?;
    Ok((dep, c0, c1))
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(Result::ok)
        .map(|e| {
            let p = e.path();
            if p.is_dir() {
                dir_bytes(&p)
            } else {
                e.metadata().map_or(0, |m| m.len())
            }
        })
        .sum()
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A connection's share of a request list: users split by parity, so
/// one user's requests always travel in order on one connection.
fn share(ops: &[Op], conn: u64) -> Vec<(usize, Op)> {
    ops.iter()
        .copied()
        .enumerate()
        .filter(|(_, op)| op.user() % 2 == conn)
        .collect()
}

/// Per-kind timings of a paced burst.
#[derive(Default)]
struct Paced {
    update: Vec<Timing>,
    query: Vec<Timing>,
    deltas: u64,
    spans: Vec<Span>,
    /// The first due time.
    start: Duration,
    /// From the first due time to the last send.
    secs: f64,
}

fn paced_phase(
    clients: [&mut NetClient; 2],
    ops: &[Op],
    spec: &Spec,
    epoch: Instant,
    tracing: bool,
) -> Result<Paced, String> {
    let clock = WallClock(epoch);
    let start = clock.now() + Duration::from_millis(20);
    let gap = 1.0 / spec.paced_rps;
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 * gap);
    let results: Vec<Result<Paced, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let mine = share(ops, c as u64);
                s.spawn(move || -> Result<Paced, String> {
                    let dues: Vec<Duration> = mine.iter().map(|(i, _)| due(*i)).collect();
                    let mut deltas = 0u64;
                    let mut wrong = None;
                    let timings = load::paced(&WallClock(epoch), &dues, |i| {
                        match load::issue(client, &mine[i].1, spec.radius, &mut deltas) {
                            Ok(o) => o == Outcome::Ok,
                            Err(e) => {
                                wrong.get_or_insert(e.0);
                                false
                            }
                        }
                    });
                    if let Some(e) = wrong {
                        return Err(e);
                    }
                    let mut out = Paced {
                        deltas,
                        ..Paced::default()
                    };
                    for ((_, op), t) in mine.iter().zip(timings) {
                        if tracing {
                            out.spans.push(Span::request(op, "paced", t.sent, t.done));
                        }
                        match op {
                            Op::Update { .. } => out.update.push(t),
                            Op::Query { .. } => out.query.push(t),
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("paced load thread panicked".into()))
            })
            .collect()
    });
    let mut all = Paced::default();
    for r in results {
        let p = r?;
        all.update.extend(p.update);
        all.query.extend(p.query);
        all.deltas += p.deltas;
        all.spans.extend(p.spans);
    }
    let last_sent = all.update.iter().chain(&all.query).map(|t| t.sent).max();
    all.start = start;
    all.secs = last_sent.map_or(0.0, |t| (t - start).as_secs_f64());
    Ok(all)
}

/// Closed-loop tallies of both connections over one window of time.
#[derive(Default)]
struct ClosedWindow {
    tally: load::Closed,
    begin: Duration,
    end: Duration,
}

impl ClosedWindow {
    fn secs(&self) -> f64 {
        (self.end - self.begin).as_secs_f64()
    }

    /// Goodput over each run of `GOODPUT_CHUNK` consecutive good
    /// completions: a stall or a burst of stolen CPU moves a few
    /// chunks, not their median.
    fn chunk_goodputs(&self) -> Vec<f64> {
        let mut ends = self.tally.good.clone();
        ends.sort();
        ends.chunks_exact(GOODPUT_CHUNK)
            .map(|c| (c.len() - 1) as f64 / (c[c.len() - 1] - c[0]).as_secs_f64())
            .filter(|r| r.is_finite())
            .collect()
    }
}

/// Runs the closed loop on both connections from each one's `next`
/// request until `deadline`; returns the window's tallies and advances
/// `next` past the requests issued.
#[allow(clippy::too_many_arguments)]
fn closed_window(
    clients: [&mut NetClient; 2],
    lists: &[Vec<(usize, Op)>; 2],
    next: &mut [usize; 2],
    spec: &Spec,
    epoch: Instant,
    deadline: Duration,
    spans: Option<&mut Vec<Span>>,
) -> Result<ClosedWindow, String> {
    let tracing = spans.is_some();
    let begin = epoch.elapsed();
    let results: Vec<Result<(load::Closed, Vec<Span>), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let ops: Vec<Op> = lists[c][next[c]..].iter().map(|(_, op)| *op).collect();
                s.spawn(move || {
                    let mut deltas = 0u64;
                    let mut spans = Vec::new();
                    let t = load::closed(
                        client,
                        &ops,
                        spec.radius,
                        epoch,
                        deadline,
                        LATENCY_LIMIT,
                        &mut deltas,
                        tracing.then_some(&mut spans),
                    )
                    .map_err(|e| e.0)?;
                    Ok((t, spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("closed load thread panicked".into()))
            })
            .collect()
    });
    let mut w = ClosedWindow {
        begin,
        end: deadline,
        ..ClosedWindow::default()
    };
    let mut all_spans = Vec::new();
    for (c, r) in results.into_iter().enumerate() {
        let (t, spans) = r?;
        let issued = t.attempted as usize;
        if next[c] + issued == lists[c].len() {
            return Err("closed phase ran out of generated requests".into());
        }
        next[c] += issued;
        w.tally.attempted += t.attempted;
        w.tally.failed += t.failed;
        w.tally.updates_ok += t.updates_ok;
        w.tally.good.extend(t.good);
        all_spans.extend(spans);
    }
    if let Some(s) = spans {
        s.extend(all_spans);
    }
    Ok(w)
}

/// The server-side view of one phase, summed over its bursts: the
/// front door's registry and the engines behind it (the same registry
/// on a single server).
#[derive(Default)]
struct PhaseDelta {
    front: Delta,
    /// Cluster nodes' registries, summed; empty on a single server.
    nodes: Delta,
}

impl PhaseDelta {
    /// Adds one burst, scraped before (`.0`) and after (`.1`).
    fn add(
        &mut self,
        front: (&RegistrySnapshot, &RegistrySnapshot),
        nodes: (&[RegistrySnapshot], &[RegistrySnapshot]),
    ) {
        self.front.absorb(&Delta::between(front.1, front.0));
        for (a, b) in nodes.1.iter().zip(nodes.0) {
            self.nodes.absorb(&Delta::between(a, b));
        }
    }

    /// The registries holding engines.
    fn engines(&self) -> &Delta {
        if self.nodes.stages.is_empty() {
            &self.front
        } else {
            &self.nodes
        }
    }

    /// Server-side stage time per front-door request, µs.
    fn attributed_us(&self) -> f64 {
        (self.front.stage_sum_us() + self.nodes.stage_sum_us())
            / self.front.net.requests_served.max(1) as f64
    }
}

/// Replays the paced requests against an in-process engine (no
/// transport, no WAL) and times every call.
fn engine_replay(inputs: &Inputs) -> Result<(Vec<f64>, Vec<f64>, f64), String> {
    let mut engine = in_memory_engine(inputs);
    for (u, &k) in inputs.ks.iter().enumerate() {
        let req = CloakRequirement {
            k,
            a_min: 0.0,
            a_max: f64::INFINITY,
        };
        let profile = PrivacyProfile::uniform(req).map_err(|e| e.to_string())?;
        engine.register(u as u64, profile);
    }
    let rows: Vec<(u64, Point, SimTime)> = inputs
        .placement
        .iter()
        .enumerate()
        .map(|(u, p)| (u as u64, *p, SimTime::from_secs(0.0)))
        .collect();
    engine.process_updates(&rows);
    for area in &inputs.standing_counts {
        engine.add_standing_count(*area);
    }
    for &user in &inputs.standing_ranges {
        engine.add_standing_range(user, inputs.spec.radius);
    }
    let (mut upd, mut qry) = (Vec::new(), Vec::new());
    let start = Instant::now();
    for op in &inputs.ops[..inputs.paced] {
        let t = Instant::now();
        match *op {
            Op::Update { user, pos, time } => {
                let out = std::hint::black_box(engine.process_updates(&[(user, pos, time)]));
                upd.push(t.elapsed().as_secs_f64() * 1e6);
                if out.iter().any(Result::is_err) {
                    return Err(format!("engine replay: update of user {user} failed"));
                }
                engine.take_standing_changes();
            }
            Op::Query { user, time } => {
                let out = std::hint::black_box(engine.range_query(user, time, inputs.spec.radius));
                qry.push(t.elapsed().as_secs_f64() * 1e6);
                out.map_err(|e| format!("engine replay: query of user {user}: {e}"))?;
            }
        }
    }
    let rps = inputs.paced as f64 / start.elapsed().as_secs_f64();
    Ok((upd, qry, rps))
}

fn sorted_us(ts: &[Timing], f: impl Fn(&Timing) -> f64) -> Vec<f64> {
    let mut v: Vec<f64> = ts.iter().map(f).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median over one-second slices (by due time, counted from the start
/// of each paced burst so that no slice straddles two bursts) of each
/// slice's median latency.
fn windowed_p50(ts: &[Timing], burst_starts: &[Duration]) -> (f64, String) {
    // Bursts sit this many seconds apart on the slicing axis.
    const APART: f64 = 1e6;
    let timed: Vec<(f64, f64)> = ts
        .iter()
        .map(|t| {
            let b = burst_starts.iter().rposition(|s| *s <= t.due).unwrap_or(0);
            let offset = (t.due - burst_starts.get(b).copied().unwrap_or_default()).as_secs_f64();
            (b as f64 * APART + offset, t.latency_us())
        })
        .collect();
    let (v, slices) = stats::windowed_median(&timed, LATENCY_SLICE.as_secs_f64());
    (
        v,
        format!(
            "median of {slices} slices of {} s, n={}",
            LATENCY_SLICE.as_secs(),
            ts.len()
        ),
    )
}

/// Median over windows of `TAIL_WINDOW` requests (by due time) of each
/// window's p99 latency.
fn windowed_p99(ts: &[Timing]) -> (f64, String) {
    let mut by_due = ts.to_vec();
    by_due.sort_by_key(|t| t.due);
    let lat: Vec<f64> = by_due.iter().map(Timing::latency_us).collect();
    let (q, v, windows) = stats::windowed_tail(&lat);
    (
        v,
        format!(
            "median of {windows} windows' p{:.0}, n={}",
            q * 100.0,
            ts.len()
        ),
    )
}

fn tail_note(v: &[f64]) -> (f64, String) {
    let (q, val) = stats::tail(v);
    (val, format!("p{:.0} of n={}", q * 100.0, v.len()))
}

/// Recovery measurements of a durable run.
struct Recovery {
    secs: f64,
    disk_bytes: u64,
}

/// Records the probe replies, stops the server, reopens its WAL
/// directory with `bind_durable`, and checks the recovered state.
fn recover(
    dep: Deployment,
    mut c0: NetClient,
    c1: NetClient,
    inputs: &Inputs,
    tracer: &mut Tracer,
) -> Result<Recovery, String> {
    let Deployment::Single { server, dir } = dep else {
        unreachable!("recovery runs on durable workloads only")
    };
    let time = match inputs.ops.last() {
        Some(Op::Update { time, .. } | Op::Query { time, .. }) => *time,
        None => SimTime::from_secs(0.0),
    };
    let probe = |c: &mut NetClient, user: u64| -> Result<Vec<u8>, String> {
        match load::expect_reply(c.range_query(user, inputs.spec.radius, time), "candidates")? {
            Reply::Candidates(b) => Ok(b),
            _ => unreachable!("expect_reply checked the kind"),
        }
    };
    let before = inputs
        .probes
        .iter()
        .map(|&u| probe(&mut c0, u))
        .collect::<Result<Vec<_>, _>>()?;
    drop((c0, c1));
    drop(server.shutdown());
    let disk_bytes = dir_bytes(&dir);
    let (secs, server, report, after) = tracer.child("wal_reopen", "recovery", || {
        let start = Instant::now();
        let (server, report) = NetServer::bind_durable(
            "127.0.0.1:0",
            &dir,
            engine_config(),
            ENGINE_THREADS,
            Durability::default(),
            NetConfig::default(),
        )
        .map_err(|e| format!("reopen WAL dir: {e}"))?;
        let mut c = connect(server.local_addr())?;
        let first = probe(&mut c, inputs.probes[0])?;
        let secs = start.elapsed().as_secs_f64();
        let mut after = vec![first];
        for &u in &inputs.probes[1..] {
            after.push(probe(&mut c, u)?);
        }
        Ok::<_, String>((secs, server, report, after))
    })?;
    drop(server.shutdown());
    if !report.recovered || report.users != inputs.spec.users {
        return Err(format!(
            "recovery check: recovered={} users={} (want {})",
            report.recovered, report.users, inputs.spec.users
        ));
    }
    if before != after {
        return Err("recovery check: probe replies differ across the restart".into());
    }
    Ok(Recovery { secs, disk_bytes })
}

/// Sends PINGs at a fixed gap to an otherwise idle server.
fn idle_pings(c: &mut NetClient) -> Result<Vec<f64>, String> {
    let mut v = Vec::with_capacity(PINGS);
    for i in 0..PINGS {
        std::thread::sleep(PING_GAP);
        let t = Instant::now();
        load::expect_reply(c.ping(&(i as u64).to_le_bytes()), "pong")?;
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(sorted(v))
}

/// Router hop: each probe query sent through the router, then the same
/// query straight to the node owning the user.
fn hop_probes(
    dep: &Deployment,
    c0: &mut NetClient,
    inputs: &Inputs,
    last: &[Point],
) -> Result<Vec<f64>, String> {
    let Deployment::Cluster { nodes, .. } = dep else {
        return Ok(Vec::new());
    };
    let stripes = PartitionMap::new(world(), nodes.len());
    let mut direct: Vec<NetClient> = nodes
        .iter()
        .map(|n| connect(n.local_addr()))
        .collect::<Result<_, _>>()?;
    let time = SimTime::from_secs(0.0);
    let mut v = Vec::new();
    for &u in &inputs.probes {
        let owner = stripes.node_of(last[u as usize]);
        std::thread::sleep(HOP_GAP);
        let t = Instant::now();
        let via = load::expect_reply(c0.range_query(u, inputs.spec.radius, time), "candidates")?;
        let routed = t.elapsed().as_secs_f64() * 1e6;
        std::thread::sleep(HOP_GAP);
        let t = Instant::now();
        let straight = load::expect_reply(
            direct[owner].range_query(u, inputs.spec.radius, time),
            "candidates",
        )?;
        let owned = t.elapsed().as_secs_f64() * 1e6;
        if via != straight {
            return Err(format!(
                "hop probe: user {u} answered differently via the router"
            ));
        }
        v.push(routed - owned);
    }
    Ok(sorted(v))
}

/// Runs one workload end to end. `work` holds the run's WAL
/// directories and span file.
pub fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let spec =
        gen::spec(&args.workload).ok_or_else(|| format!("unknown workload {}", args.workload))?;
    // Two thirds paced: enough requests of the minority kind (one in
    // ten) for a supported p99; one third closed loop.
    let paced_secs = args.seconds * 2.0 / 3.0;
    let closed_secs = args.seconds - paced_secs;
    let paced_n = (spec.paced_rps * paced_secs).round() as usize;
    let closed_n = (CLOSED_CAP_RPS * closed_secs).round() as usize;
    let inputs = gen::generate(spec, args.seed, paced_n, closed_n);
    println!(
        "inputs {} seed {} digest {:016x} (users {}, pois {}, paced {} + closed {} requests, \
         stripe crossings {:.3} of updates)",
        spec.name,
        args.seed,
        gen::digest(&inputs),
        spec.users,
        spec.pois,
        paced_n,
        closed_n,
        inputs.crossing_share
    );
    let epoch = Instant::now();
    let mut tracer = Tracer::new(args.trace, epoch);
    let run_dir = work.join(format!("run-{}-{}", spec.name, std::process::id()));
    let result = measure(&inputs, &run_dir, epoch, closed_secs, &mut tracer);
    let _ = std::fs::remove_dir_all(&run_dir);
    let report = result?;
    if tracer.on() {
        let path = work.join(format!("spans-{}-seed{}.jsonl", spec.name, args.seed));
        tracer
            .write(&path)
            .map_err(|e| format!("write spans to {}: {e}", path.display()))?;
        println!(
            "spans {} written to {}",
            tracer.spans().len() + 1,
            path.display()
        );
    }
    Ok(report)
}

fn measure(
    inputs: &Inputs,
    run_dir: &Path,
    epoch: Instant,
    closed_secs: f64,
    tracer: &mut Tracer,
) -> Result<Report, String> {
    let spec = inputs.spec;
    // Set-up, several times; the last one stays up for the measurement.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let dir = run_dir.join(format!("wal-{rep}"));
        let start = Instant::now();
        let up = setup(inputs, &dir)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            let (dep, c0, c1) = up;
            drop((c0, c1));
            dep.teardown();
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            live = Some(up);
        }
    }
    let (dep, mut c0, mut c1) = live.expect("at least one set-up");

    // Rounds of a paced burst then a closed burst, so that each phase
    // samples the whole run rather than one stretch of it. A traced run
    // measures the first half of each closed burst untraced and the
    // second half traced.
    let paced_ops = &inputs.ops[..inputs.paced];
    let rest = &inputs.ops[inputs.paced..];
    let lists = [share(rest, 0), share(rest, 1)];
    let mut next = [0usize; 2];
    let burst = Duration::from_secs_f64(closed_secs / ROUNDS as f64);
    let handoffs0 = dep.handoffs();
    let mut paced = Paced::default();
    let mut paced_secs = 0.0;
    let (mut dp, mut dc) = (PhaseDelta::default(), PhaseDelta::default());
    let (mut untraced, mut traced): (Vec<ClosedWindow>, Vec<ClosedWindow>) =
        (Vec::new(), Vec::new());
    let mut last_front = None;
    let mut burst_starts = Vec::with_capacity(ROUNDS);
    for r in 0..ROUNDS {
        let ops = &paced_ops[r * paced_ops.len() / ROUNDS..(r + 1) * paced_ops.len() / ROUNDS];
        let front0 = tracer.child("stats", "paced", || load::scrape(&mut c0))?;
        let nodes0 = dep.node_snapshots();
        // Let the previous closed burst's aftermath pass first.
        std::thread::sleep(SETTLE);
        let p = paced_phase([&mut c0, &mut c1], ops, &spec, epoch, tracer.on())?;
        burst_starts.push(p.start);
        let front1 = tracer.child("stats", "closed", || load::scrape(&mut c0))?;
        let nodes1 = dep.node_snapshots();
        let start = epoch.elapsed();
        let end = start + burst;
        let mut windows = Vec::new();
        if tracer.on() {
            let mid = start + burst / 2;
            let a = closed_window(
                [&mut c0, &mut c1],
                &lists,
                &mut next,
                &spec,
                epoch,
                mid,
                None,
            )?;
            let mut spans = Vec::new();
            let b = closed_window(
                [&mut c0, &mut c1],
                &lists,
                &mut next,
                &spec,
                epoch,
                end,
                Some(&mut spans),
            )?;
            tracer.extend(spans);
            windows.push(a);
            windows.push(b);
        } else {
            windows.push(closed_window(
                [&mut c0, &mut c1],
                &lists,
                &mut next,
                &spec,
                epoch,
                end,
                None,
            )?);
        }
        let front2 = tracer.child("stats", "closed", || load::scrape(&mut c0))?;
        let nodes2 = dep.node_snapshots();

        // Output check: the front door served exactly what was sent in
        // each burst, plus the burst's opening scrape.
        let sent_paced = (p.update.len() + p.query.len()) as u64;
        let sent_closed: u64 = windows.iter().map(|w| w.tally.attempted).sum();
        let served_paced = stats::net_delta(&front1.net, &front0.net).requests_served;
        let served_closed = stats::net_delta(&front2.net, &front1.net).requests_served;
        if served_paced != sent_paced + 1 || served_closed != sent_closed + 1 {
            return Err(format!(
                "requests_served check, round {r}: server counted {served_paced} + \
                 {served_closed}, client sent {sent_paced} + {sent_closed} (each plus one scrape)"
            ));
        }
        dp.add((&front0, &front1), (&nodes0, &nodes1));
        dc.add((&front1, &front2), (&nodes1, &nodes2));
        paced_secs += p.secs;
        paced.update.extend(p.update);
        paced.query.extend(p.query);
        paced.deltas += p.deltas;
        tracer.extend(p.spans);
        if tracer.on() {
            let mut w = windows.into_iter();
            untraced.extend(w.next());
            traced.extend(w.next());
        } else {
            untraced.extend(windows);
        }
        last_front = Some(front2);
    }
    let front2 = last_front.expect("at least one round");
    let handoffs = dep.handoffs() - handoffs0;
    if let Deployment::Cluster { .. } = dep {
        if front2.net.route_failures != 0 || front2.net.mirror_drops != 0 {
            return Err(format!(
                "cluster check: route_failures {} mirror_drops {}",
                front2.net.route_failures, front2.net.mirror_drops
            ));
        }
    }
    let pooled = |ws: &[ClosedWindow]| -> (f64, f64) {
        let good: usize = ws.iter().map(|w| w.tally.good.len()).sum();
        let secs: f64 = ws.iter().map(ClosedWindow::secs).sum();
        (good as f64, secs)
    };
    let traced_half = if tracer.on() {
        let (ug, us) = pooled(&untraced);
        let (tg, ts) = pooled(&traced);
        Some((ug / us - tg / ts) / (ug / us) * 100.0)
    } else {
        None
    };
    let windows: Vec<&ClosedWindow> = untraced.iter().chain(&traced).collect();
    let closed = load::Closed {
        attempted: windows.iter().map(|w| w.tally.attempted).sum(),
        failed: windows.iter().map(|w| w.tally.failed).sum(),
        updates_ok: windows.iter().map(|w| w.tally.updates_ok).sum(),
        good: windows
            .iter()
            .flat_map(|w| w.tally.good.iter().copied())
            .collect(),
    };
    let chunks: Vec<f64> = windows.iter().flat_map(|w| w.chunk_goodputs()).collect();
    let closed_secs_run: f64 = windows.iter().map(|w| w.secs()).sum();
    let paced_attempted = (paced.update.len() + paced.query.len()) as u64;
    let paced_failed = paced
        .update
        .iter()
        .chain(&paced.query)
        .filter(|t| !t.ok)
        .count() as u64;

    // Where every user ended up, for routing probes.
    let mut last = inputs.placement.clone();
    let executed = paced_ops
        .iter()
        .chain(lists[0][..next[0]].iter().map(|(_, op)| op))
        .chain(lists[1][..next[1]].iter().map(|(_, op)| op));
    for op in executed {
        if let Op::Update { user, pos, .. } = op {
            last[*user as usize] = *pos;
        }
    }

    // Probes and the in-process replay (traced run only).
    let (pings, hops, replay) = if tracer.on() {
        let pings = tracer.child("ping", "probe", || idle_pings(&mut c0))?;
        let hops = tracer.child("hop_probe", "probe", || {
            hop_probes(&dep, &mut c0, inputs, &last)
        })?;
        let replay = tracer.child("engine_replay", "replay", || engine_replay(inputs))?;
        (pings, hops, Some(replay))
    } else {
        (Vec::new(), Vec::new(), None)
    };

    let recovery = match spec.topology {
        Topology::Durable => Some(recover(dep, c0, c1, inputs, tracer)?),
        Topology::Cluster(_) => {
            drop((c0, c1));
            dep.teardown();
            None
        }
    };

    // End-to-end metrics.
    let (upd_p50, upd_slices) = windowed_p50(&paced.update, &burst_starts);
    let (qry_p50, qry_slices) = windowed_p50(&paced.query, &burst_starts);
    let goodput = stats::median(&chunks);
    let attempted = paced_attempted + closed.attempted;
    let failed = paced_failed + closed.failed;
    let (u99, u99n) = windowed_p99(&paced.update);
    let (q99, q99n) = windowed_p99(&paced.query);
    let updates_acked = paced.update.iter().filter(|t| t.ok).count() as u64 + closed.updates_ok;
    // Paced latencies: printed with the end-to-end metrics and carried
    // in the traced run's result line, but not gated (see the README).
    let latencies = [
        ("update_p50_us", "paced.update_p50_us", upd_p50, upd_slices),
        ("query_p50_us", "paced.query_p50_us", qry_p50, qry_slices),
        ("update_p99_us", "paced.update_p99_us", u99, u99n),
        ("query_p99_us", "paced.query_p99_us", q99, q99n),
    ];
    let end_to_end = vec![
        m_n(
            "goodput_rps",
            goodput,
            "req/s",
            format!(
                "median of {} chunks of {GOODPUT_CHUNK}; {} of {} within {} ms in {:.2} s",
                chunks.len(),
                closed.good.len(),
                closed.attempted,
                LATENCY_LIMIT.as_millis(),
                closed_secs_run
            ),
        ),
        m_n(
            "setup_s",
            stats::median(&setup_s),
            "s",
            format!("median of n={}", setup_s.len()),
        ),
        m("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    let mut extra: Vec<Metric> = latencies
        .iter()
        .map(|(name, _, v, note)| m_n(name, *v, "us", note.clone()))
        .collect();
    extra.push(m_n(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        format!("{failed} of {attempted}"),
    ));
    if let Some(r) = &recovery {
        extra.push(m("recovery_s", r.secs, "s"));
        extra.push(m(
            "disk_bytes_per_update",
            r.disk_bytes as f64 / updates_acked.max(1) as f64,
            "B",
        ));
    }

    // Per-layer metrics.
    let all_paced: Vec<Timing> = paced.update.iter().chain(&paced.query).copied().collect();
    let late = sorted_us(&all_paced, Timing::late_us);
    let rtt_mean = stats::mean(
        &tracer
            .spans()
            .iter()
            .filter(|s| s.phase == "paced" && s.parent == 0)
            .map(Span::us)
            .collect::<Vec<_>>(),
    );
    let (engine_upd, engine_qry, engine_rps) = match replay {
        Some((u, q, r)) => (sorted(u), sorted(q), r),
        None => (Vec::new(), Vec::new(), 0.0),
    };
    let (late99, late_n) = tail_note(&late);
    let (queued99, queued_n) = tail_note(&sorted_us(&all_paced, Timing::queued_us));
    let (eu99, eu_n) = tail_note(&engine_upd);
    let (eq99, eq_n) = tail_note(&engine_qry);
    let pe = dp.engines();
    let ce = dc.engines();
    let paced_updates_ok = paced.update.iter().filter(|t| t.ok).count() as f64;
    let closed_updates = closed.updates_ok.max(1) as f64;
    let node_frames = match spec.topology {
        Topology::Durable => 0.0,
        Topology::Cluster(_) => {
            dc.nodes.net.requests_served as f64 / dc.front.net.requests_served.max(1) as f64
        }
    };
    let front_net = &dp.front.net;
    let paced_latencies = latencies
        .into_iter()
        .map(|(_, name, v, note)| m_n(name, v, "us", note));
    let per_layer: Vec<Metric> = paced_latencies
        .chain([
            m(
                "loadgen.offered_rps",
                all_paced.len() as f64 / paced_secs,
                "req/s",
            ),
            m_n("loadgen.late_p99_us", late99, "us", late_n),
            m_n("loadgen.queued_p99_us", queued99, "us", queued_n),
            m_n(
                "net.ping_idle_p50_us",
                stats::percentile(&pings, 0.5),
                "us",
                format!("n={} at {} ms gaps", pings.len(), PING_GAP.as_millis()),
            ),
            m(
                "net.frame_decode_us.mean",
                stats::hist_mean(dp.front.stage(Stage::FrameDecode)),
                "us",
            ),
            m(
                "net.outbound_wait_us.p99",
                stats::hist_pct(dp.front.stage(Stage::OutboundWait), 0.99),
                "us",
            ),
            m(
                "net.bytes_per_request",
                (front_net.bytes_in + front_net.bytes_out) as f64
                    / front_net.requests_served.max(1) as f64,
                "B",
            ),
            m("net.residual_us", rtt_mean - dp.attributed_us(), "us"),
            m(
                "net.batch_size.mean",
                stats::hist_mean(&ce.batch_size),
                "frames",
            ),
            m("net.engine_batches", ce.net.engine_batches as f64, "count"),
            m(
                "engine.update_us.p50",
                stats::percentile(&engine_upd, 0.5),
                "us",
            ),
            m_n("engine.update_us.p99", eu99, "us", eu_n),
            m(
                "engine.query_us.p50",
                stats::percentile(&engine_qry, 0.5),
                "us",
            ),
            m_n("engine.query_us.p99", eq99, "us", eq_n),
            m("engine.replay_rps", engine_rps, "req/s"),
            m(
                "anonymizer.cloak_us.mean",
                stats::hist_mean(pe.stage(Stage::Cloak)),
                "us",
            ),
            m(
                "anonymizer.cloak_us.p99",
                stats::hist_pct(pe.stage(Stage::Cloak), 0.99),
                "us",
            ),
            m(
                "anonymizer.cloak_area.mean",
                stats::hist_mean(&pe.cloak_area),
                "area",
            ),
            m(
                "anonymizer.achieved_k.mean",
                stats::hist_mean(&pe.achieved_k),
                "users",
            ),
            m(
                "server.private_query_us.mean",
                stats::hist_mean(pe.stage(Stage::PrivateQuery)),
                "us",
            ),
            m(
                "server.private_query_us.p99",
                stats::hist_pct(pe.stage(Stage::PrivateQuery), 0.99),
                "us",
            ),
            m(
                "server.candidates.mean",
                stats::hist_mean(&pe.candidates),
                "objects",
            ),
            m(
                "standing.update_us.mean",
                stats::hist_mean(pe.stage(Stage::StandingUpdate)),
                "us",
            ),
            m(
                "standing.fanout.mean",
                stats::hist_mean(&pe.standing_fanout),
                "queries",
            ),
            m(
                "standing.deltas_per_update",
                paced.deltas as f64 / paced_updates_ok.max(1.0),
                "ratio",
            ),
            m(
                "store.wal_append_us.mean",
                stats::hist_mean(ce.stage(Stage::WalAppend)),
                "us",
            ),
            m(
                "store.wal_fsync_us.p50",
                stats::hist_pct(ce.stage(Stage::WalFsync), 0.5),
                "us",
            ),
            m(
                "store.wal_fsync_us.p99",
                stats::hist_pct(ce.stage(Stage::WalFsync), 0.99),
                "us",
            ),
            m(
                "store.fsyncs_per_update",
                ce.stage(Stage::WalFsync).count as f64 / closed_updates,
                "ratio",
            ),
            m(
                "store.snapshots",
                ce.stage(Stage::Snapshot).count as f64,
                "count",
            ),
            m(
                "store.snapshot_us.max",
                stats::hist_pct(ce.stage(Stage::Snapshot), 1.0),
                "us",
            ),
            m(
                "store.recovery_s",
                recovery.as_ref().map_or(0.0, |r| r.secs),
                "s",
            ),
            m(
                "store.disk_bytes_per_update",
                recovery
                    .as_ref()
                    .map_or(0.0, |r| r.disk_bytes as f64 / updates_acked.max(1) as f64),
                "B",
            ),
            m(
                "cluster.handoffs_per_update",
                handoffs as f64 / updates_acked.max(1) as f64,
                "ratio",
            ),
            m("cluster.node_frames_per_request", node_frames, "ratio"),
            m_n(
                "cluster.hop_us.p50",
                stats::percentile(&hops, 0.5),
                "us",
                format!("n={}", hops.len()),
            ),
            m(
                "cluster.route_failures",
                front2.net.route_failures as f64,
                "count",
            ),
            m(
                "cluster.retryable_failures",
                front2.net.retryable_failures as f64,
                "count",
            ),
            m(
                "cluster.mirror_drops",
                front2.net.mirror_drops as f64,
                "count",
            ),
            m(
                "trace.attributed_share",
                dp.attributed_us() / rtt_mean.max(f64::MIN_POSITIVE),
                "ratio",
            ),
            m("trace.overhead_pct", traced_half.unwrap_or(0.0), "%"),
        ])
        .collect();
    Ok(Report {
        end_to_end,
        extra,
        per_layer,
        attempted,
        failed,
    })
}
