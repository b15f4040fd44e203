//! Integration tests for the semantic layer: the taint-dataflow,
//! lock-order-graph, and wire-conformance passes. Known-bad fixtures
//! must be caught at the exact file:line, and the workspace itself must
//! not only scan clean but yield non-vacuous proofs (real lock edges,
//! the full tag registry).

use lbsp_lint::{analyze_sources, analyze_workspace, parse_registry, Analysis};
use std::path::Path;

fn registry() -> Vec<String> {
    let locks = concat!(env!("CARGO_MANIFEST_DIR"), "/../core/src/locks.rs");
    let src = std::fs::read_to_string(locks).expect("lock registry readable");
    parse_registry(&src)
}

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

fn analyze(sources: &[(&str, &str)]) -> Analysis {
    let owned: Vec<(String, String)> = sources
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    analyze_sources(&owned, &registry(), None)
}

#[test]
fn taint_flow_catches_helper_function_leak() {
    // The acceptance scenario: a helper strips a Point to plain floats
    // before the caller builds the server-bound frame, so the
    // field-marker rule has nothing to object to — only the dataflow
    // pass sees the source→sink chain.
    let src = fixture("bad_taint_flow.rs");
    let rel = "crates/core/src/telemetry.rs";
    let a = analyze(&[(rel, &src)]);

    let tf: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == "taint-flow")
        .collect();
    assert!(
        tf.iter()
            .any(|f| f.file == rel && f.line == 24 && f.message.contains("TelemetryFrame")),
        "struct-literal sink pinned at telemetry.rs:24: {tf:?}"
    );
    assert!(
        tf.iter()
            .any(|f| f.file == rel && f.line == 29 && f.message.contains("encode_telemetry")),
        "encode-call sink pinned at telemetry.rs:29: {tf:?}"
    );
    // Every flow finding carries a multi-hop source→sink path.
    assert!(
        tf.iter()
            .all(|f| f.message.contains(" -> ") && f.message.contains("telemetry.rs:18")),
        "findings carry the hop through the helper call at line 18: {tf:?}"
    );
    // The per-file marker rule is demonstrably blind to this leak.
    assert!(
        a.findings.iter().all(|f| f.rule != "taint"),
        "no marker-rule finding expected: {:?}",
        a.findings
    );
    // The unpinned server-bound struct is itself a conformance finding.
    assert!(
        a.findings
            .iter()
            .any(|f| f.rule == "wire" && f.message.contains("REQUIRED_SERVER_BOUND")),
        "unpinned server-bound struct caught: {:?}",
        a.findings
    );
}

#[test]
fn lock_graph_catches_rank_cycle() {
    let src = fixture("bad_lock_cycle.rs");
    let rel = "crates/core/src/pool.rs";
    let a = analyze(&[(rel, &src)]);

    let lo: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == "lock-order")
        .collect();
    assert!(
        lo.iter().any(|f| f.file == rel
            && f.line == 20
            && f.message.contains("`Engine`")
            && f.message.contains("`ResultSink`")),
        "descending edge pinned at the drain→refill call (pool.rs:20): {lo:?}"
    );
    assert!(
        lo.iter().any(|f| f.message.contains("lock-rank cycle")
            && f.message.contains("Engine")
            && f.message.contains("ResultSink")),
        "cycle reported with both ranks: {lo:?}"
    );
    // Both directions appear in the derived graph.
    assert!(
        a.lock_edges
            .iter()
            .any(|e| e.from == "ResultSink" && e.to == "Engine"),
        "ResultSink→Engine edge derived: {:?}",
        a.lock_edges
    );
    assert!(
        a.lock_edges
            .iter()
            .any(|e| e.from == "Engine" && e.to == "ResultSink"),
        "Engine→ResultSink edge derived: {:?}",
        a.lock_edges
    );
}

#[test]
fn lock_graph_catches_engine_taken_under_the_commit_lock() {
    let src = fixture("bad_commit_cycle.rs");
    let rel = "crates/core/src/group_commit.rs";
    let a = analyze(&[(rel, &src)]);

    let lo: Vec<_> = a
        .findings
        .iter()
        .filter(|f| f.rule == "lock-order")
        .collect();
    assert!(
        lo.iter().any(|f| f.file == rel
            && f.line == 29
            && f.message.contains("acquires `Engine`")
            && f.message.contains("holding `WalCommit`")),
        "engine acquisition under the commit lock pinned at group_commit.rs:29: {lo:?}"
    );
    assert!(
        lo.iter().any(|f| f.message.contains("lock-rank cycle")
            && f.message.contains("Engine")
            && f.message.contains("WalCommit")),
        "cycle reported with both ranks: {lo:?}"
    );
    // The rotation edge alone is in declared order.
    assert!(
        a.lock_edges
            .iter()
            .any(|e| e.from == "Engine" && e.to == "WalCommit"),
        "Engine→WalCommit edge derived: {:?}",
        a.lock_edges
    );
}

#[test]
fn wire_conformance_catches_registry_and_dispatch_drift() {
    // A mini server whose handle_request only dispatches REGISTER, so
    // the two 0x02 tags are both undispatched *and* one duplicates the
    // other's value; encode_exact_update has no decoder.
    let wire = fixture("bad_wire_tag.rs");
    let server = "pub struct NetServer;\n\
                  \n\
                  impl NetServer {\n\
                      fn handle_request(&self, kind: u8) -> u8 {\n\
                          match kind {\n\
                              tag::REGISTER => 0,\n\
                              _ => 1,\n\
                          }\n\
                      }\n\
                  }\n";
    let wire_rel = "crates/core/src/wire.rs";
    let a = analyze(&[(wire_rel, &wire), ("crates/net/src/server.rs", server)]);

    let w: Vec<_> = a.findings.iter().filter(|f| f.rule == "wire").collect();
    assert!(
        w.iter().any(|f| f.file == wire_rel
            && f.line == 8
            && f.message.contains("duplicate wire tag value 0x02")),
        "duplicate value pinned at the second declaration (wire.rs:8): {w:?}"
    );
    assert!(
        w.iter().any(|f| f.file == wire_rel
            && f.line == 26
            && f.message.contains("no matching `decode_exact_update`")),
        "one-sided codec pinned at its declaration (wire.rs:26): {w:?}"
    );
    assert!(
        w.iter().any(|f| f.line == 7
            && f.message.contains("`EXACT_UPDATE`")
            && f.message.contains("no dispatch arm")),
        "missing dispatch arm for EXACT_UPDATE caught: {w:?}"
    );
    // The parsed registry is surfaced for tooling, duplicates included.
    assert_eq!(a.wire_tags.len(), 3, "{:?}", a.wire_tags);
    assert!(a.wire_tags.contains(&("USER_QUERY".to_string(), 0x02)));
}

#[test]
fn workspace_proofs_are_not_vacuous() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let a = analyze_workspace(&root).expect("workspace analysis succeeds");
    assert!(
        a.findings.is_empty(),
        "workspace must scan clean:\n{}",
        a.findings
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );

    // The acyclicity proof must be about a real graph: the engine and
    // its neighbors hold locks across calls, so edges must exist, and
    // every one must be non-descending in declared rank order.
    let reg = registry();
    let idx = |r: &str| {
        reg.iter()
            .position(|x| x == r)
            .unwrap_or_else(|| panic!("edge rank `{r}` not in registry"))
    };
    assert!(
        a.lock_edges.len() >= 5,
        "expected a non-trivial lock graph, got {:?}",
        a.lock_edges
    );
    for e in &a.lock_edges {
        assert!(
            idx(&e.to) >= idx(&e.from),
            "descending edge in a clean workspace: {e:?}"
        );
    }
    assert!(
        a.lock_edges
            .iter()
            .any(|e| e.from == "Engine" || e.to == "Engine"),
        "the engine participates in the graph: {:?}",
        a.lock_edges
    );
    // A segment rotation under the engine swaps the group-commit file.
    assert!(
        a.lock_edges
            .iter()
            .any(|e| e.from == "Engine" && e.to == "WalCommit"),
        "the commit lock is ordered after the engine: {:?}",
        a.lock_edges
    );

    // The conformance pass parsed the full registry.
    assert_eq!(a.wire_tags.len(), 28, "{:?}", a.wire_tags);
    assert!(a.wire_tags.contains(&("HANDOFF_PUSH".to_string(), 0x23)));
    assert!(a.wire_tags.contains(&("RESYNC_PUSH".to_string(), 0x25)));
    assert!(a
        .wire_tags
        .contains(&("STANDING_INSTALL".to_string(), 0x26)));
    assert!(a.wire_tags.contains(&("ROUTE_FAIL".to_string(), 0xEF)));
}

#[test]
fn findings_are_deterministically_sorted() {
    // All three bad fixtures in one run: output must be sorted by
    // (file, line, rule) and byte-identical across runs.
    let taint = fixture("bad_taint_flow.rs");
    let cycle = fixture("bad_lock_cycle.rs");
    let wire = fixture("bad_wire_tag.rs");
    let sources = [
        ("crates/core/src/wire.rs", wire.as_str()),
        ("crates/core/src/telemetry.rs", taint.as_str()),
        ("crates/core/src/pool.rs", cycle.as_str()),
    ];
    let a = analyze(&sources);
    let b = analyze(&sources);
    assert!(!a.findings.is_empty());
    let render = |x: &Analysis| {
        x.findings
            .iter()
            .map(|f| format!("{f}"))
            .collect::<Vec<_>>()
    };
    assert_eq!(render(&a), render(&b), "two runs agree byte-for-byte");
    for w in a.findings.windows(2) {
        let ka = (&w[0].file, w[0].line, w[0].rule);
        let kb = (&w[1].file, w[1].line, w[1].rule);
        assert!(ka <= kb, "unsorted adjacent findings: {ka:?} > {kb:?}");
    }
}
