#!/usr/bin/env bash
# Full local CI gate: release build, test suite, lints, formatting.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release, offline) =="
cargo build --release --offline --workspace

echo "== tests =="
cargo test -q --workspace --offline

echo "== benchmark self-tests (perfbench maths, compare.py verdicts) =="
# perfbench is its own cargo workspace, so the workspace test run above
# does not reach it.
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
python3 perfbench/test_compare.py

echo "== lbsp-lint (per-file rules + taint-flow / lock-order / wire conformance) =="
# One run drives every pass (each file is lexed once, shared across
# passes); --json archives the findings artifact for CI diffing and the
# non-zero exit on any finding is the gate itself.
mkdir -p target
if ! cargo run -q -p lbsp-lint --offline -- --json >target/lint-findings.json; then
  cat target/lint-findings.json
  exit 1
fi

echo "== concurrency + loopback under debug_assertions (lock-order checker armed) =="
cargo test -q --offline --test concurrency
cargo test -q --offline --test net_loopback

echo "== loopback byte-identity (network vs in-process) =="
cargo test -q --offline --release --test net_loopback

echo "== standing queries over the network (release smoke) =="
cargo test -q --offline --release --test standing_network

echo "== STATS scrape smoke (repro --serve / --stats) =="
cargo build -q --release --offline -p lbsp-bench --bin repro
./target/release/repro --serve 127.0.0.1:7641 &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  if ./target/release/repro --stats 127.0.0.1:7641 >/tmp/lbsp_stats.txt 2>/dev/null; then
    break
  fi
  sleep 0.1
done
grep -q "lbsp_net_requests_served" /tmp/lbsp_stats.txt
grep -q 'stage="cloak"' /tmp/lbsp_stats.txt
kill "$SERVE_PID" 2>/dev/null || true
trap - EXIT

echo "== crash-recovery smoke (repro --wal-dir, kill -9 mid-run, restart) =="
WAL_DIR=$(mktemp -d)
./target/release/repro --serve 127.0.0.1:7643 --wal-dir "$WAL_DIR" >/tmp/lbsp_wal_boot1.txt &
SERVE_PID=$!
trap 'kill -9 "$SERVE_PID" 2>/dev/null || true; rm -rf "$WAL_DIR"' EXIT
for _ in $(seq 1 50); do
  if ./target/release/repro --stats 127.0.0.1:7643 >/dev/null 2>&1; then break; fi
  sleep 0.1
done
grep -q "wal: initialized fresh log" /tmp/lbsp_wal_boot1.txt
# Drive the closed-loop workload from two clients at once, so commits
# from two poller shards overlap (one shard's fsync runs while the
# other holds the engine lock), and pull the plug mid-run: SIGKILL, no
# drain, no flush beyond what the WAL already fsynced.
./target/release/repro --connect 127.0.0.1:7643 >/dev/null 2>&1 &
LOAD_PID=$!
./target/release/repro --connect 127.0.0.1:7643 >/dev/null 2>&1 &
LOAD2_PID=$!
sleep 1
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
wait "$LOAD_PID" "$LOAD2_PID" 2>/dev/null || true
# Restart on the same directory: recovery must report the journaled
# users and the server must come back alive.
./target/release/repro --serve 127.0.0.1:7643 --wal-dir "$WAL_DIR" >/tmp/lbsp_wal_boot2.txt &
SERVE_PID=$!
for _ in $(seq 1 50); do
  if ./target/release/repro --stats 127.0.0.1:7643 >/tmp/lbsp_wal_stats.txt 2>/dev/null; then break; fi
  sleep 0.1
done
grep -Eq "wal: recovered users=[1-9][0-9]* ops=[1-9][0-9]*" /tmp/lbsp_wal_boot2.txt
grep -q "lbsp_net_requests_served" /tmp/lbsp_wal_stats.txt
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
rm -rf "$WAL_DIR"
trap - EXIT

echo "== cluster chaos drill (in-process sever/crash/rejoin, byte-identity) =="
./target/release/repro --cluster-chaos | tee /tmp/lbsp_cluster_chaos.txt
grep -q "byte-identical across sever/crash/rejoin, 0 fatal route failures" /tmp/lbsp_cluster_chaos.txt
# Archive the proxy's fault-event log as a CI artifact alongside the
# lint findings.
sed -n '/chaos proxy event log:/,$p' /tmp/lbsp_cluster_chaos.txt >target/cluster-chaos-events.txt

echo "== cluster self-healing smoke (kill -9 a node mid-load, WAL restart, rejoin) =="
HEAL_DIR=$(mktemp -d)
mkfifo "$HEAL_DIR/router_stdin"
./target/release/repro --serve 127.0.0.1:7655 --wal-dir "$HEAL_DIR/n0" >/tmp/lbsp_heal_n0.txt 2>&1 &
NODE0_PID=$!
./target/release/repro --serve 127.0.0.1:7656 --wal-dir "$HEAL_DIR/n1" >/tmp/lbsp_heal_n1.txt 2>&1 &
NODE1_PID=$!
trap 'kill -9 "$NODE0_PID" "$NODE1_PID" 2>/dev/null || true; rm -rf "$HEAL_DIR"' EXIT
for _ in $(seq 1 50); do
  if ./target/release/repro --stats 127.0.0.1:7655 >/dev/null 2>&1 &&
     ./target/release/repro --stats 127.0.0.1:7656 >/dev/null 2>&1; then break; fi
  sleep 0.1
done
./target/release/repro --route 127.0.0.1:7657 \
  --nodes 127.0.0.1:7655,127.0.0.1:7656 \
  <"$HEAL_DIR/router_stdin" >/tmp/lbsp_heal_router.txt 2>&1 &
ROUTER_PID=$!
exec 9>"$HEAL_DIR/router_stdin"
for _ in $(seq 1 50); do
  if grep -q "routing for 2 node(s)" /tmp/lbsp_heal_router.txt; then break; fi
  sleep 0.1
done
# Closed-loop load through the router; the client retries RETRYABLE
# route failures, so a healing outage must not surface to it at all.
# (Children forked past this point must not inherit fd 9 — a held
# write end of the FIFO would mask the router's stdin EOF forever.)
./target/release/repro --connect 127.0.0.1:7657 >/tmp/lbsp_heal_load.txt 2>&1 9>&- &
LOAD_PID=$!
sleep 1
# Pull the plug on node 1 mid-load: SIGKILL, no drain, no flush beyond
# what its WAL already fsynced. The router supervisor keeps dialing.
kill -9 "$NODE1_PID" 2>/dev/null || true
wait "$NODE1_PID" 2>/dev/null || true
sleep 0.5
# Restart on the same WAL dir: the node recovers its journaled state
# and the supervisor resyncs it (catch-up replay or bulk resync).
./target/release/repro --serve 127.0.0.1:7656 --wal-dir "$HEAL_DIR/n1" >/tmp/lbsp_heal_n1b.txt 2>&1 9>&- &
NODE1_PID=$!
wait "$LOAD_PID"
grep -q "(0 error replies)" /tmp/lbsp_heal_load.txt
exec 9>&-
wait "$ROUTER_PID"
grep -q "wal: recovered" /tmp/lbsp_heal_n1b.txt
grep -q "router: node 1 rejoined" /tmp/lbsp_heal_router.txt
grep -Eq "router: drained \([1-9][0-9]* requests, [0-9]+ handoffs, 0 route failures\)" /tmp/lbsp_heal_router.txt
kill "$NODE0_PID" "$NODE1_PID" 2>/dev/null || true
wait "$NODE0_PID" "$NODE1_PID" 2>/dev/null || true
rm -rf "$HEAL_DIR"
trap - EXIT

echo "== cluster smoke (router + 2 nodes, byte-identity, clean drain) =="
# Runs after the chaos stages on purpose: --cluster-verify passing here
# is the post-chaos byte-identity gate the self-healing smoke defers to.
CLUSTER_DIR=$(mktemp -d)
mkfifo "$CLUSTER_DIR/router_stdin"
./target/release/repro --serve 127.0.0.1:7645 --wal-dir "$CLUSTER_DIR/n0" >/tmp/lbsp_cluster_n0.txt 2>&1 &
NODE0_PID=$!
./target/release/repro --serve 127.0.0.1:7646 --wal-dir "$CLUSTER_DIR/n1" >/tmp/lbsp_cluster_n1.txt 2>&1 &
NODE1_PID=$!
trap 'kill -9 "$NODE0_PID" "$NODE1_PID" 2>/dev/null || true; rm -rf "$CLUSTER_DIR"' EXIT
for _ in $(seq 1 50); do
  if ./target/release/repro --stats 127.0.0.1:7645 >/dev/null 2>&1 &&
     ./target/release/repro --stats 127.0.0.1:7646 >/dev/null 2>&1; then break; fi
  sleep 0.1
done
./target/release/repro --route 127.0.0.1:7647 \
  --nodes 127.0.0.1:7645,127.0.0.1:7646 \
  <"$CLUSTER_DIR/router_stdin" >/tmp/lbsp_cluster_router.txt 2>&1 &
ROUTER_PID=$!
# Hold the router's stdin open for its lifetime; closing fd 9 is the
# shutdown signal.
exec 9>"$CLUSTER_DIR/router_stdin"
for _ in $(seq 1 50); do
  if grep -q "routing for 2 node(s)" /tmp/lbsp_cluster_router.txt; then break; fi
  sleep 0.1
done
# Boundary-crossing workload through the router, byte-compared against
# an in-process sequential engine; exits non-zero on any divergence.
./target/release/repro --cluster-verify 127.0.0.1:7647 | tee /tmp/lbsp_cluster_verify.txt
grep -q "byte-identical to the sequential engine" /tmp/lbsp_cluster_verify.txt
# EOF on stdin must drain the router cleanly — with handoffs performed
# and zero route failures.
exec 9>&-
wait "$ROUTER_PID"
grep -Eq "router: drained \([1-9][0-9]* requests, [1-9][0-9]* handoffs, 0 route failures\)" /tmp/lbsp_cluster_router.txt
kill "$NODE0_PID" "$NODE1_PID" 2>/dev/null || true
wait "$NODE0_PID" "$NODE1_PID" 2>/dev/null || true
rm -rf "$CLUSTER_DIR"
trap - EXIT

echo "== high-connection smoke (1k+ concurrent loopback connections) =="
# Each connection costs the server one fd (plus one on the client side
# inside the same process); skip rather than fail on boxes with a tiny
# nofile limit.
CONN_SMOKE_TARGET=1024
NOFILE=$(ulimit -n)
if [ "$NOFILE" != "unlimited" ] && [ "$NOFILE" -lt $((CONN_SMOKE_TARGET * 2 + 64)) ]; then
  echo "skipping: ulimit -n is $NOFILE, need $((CONN_SMOKE_TARGET * 2 + 64)) for $CONN_SMOKE_TARGET connections"
else
  ./target/release/repro --conn-smoke "$CONN_SMOKE_TARGET" | tee /tmp/lbsp_conn_smoke.txt
  grep -q "conn-smoke: $CONN_SMOKE_TARGET connections, .* 0 errors, drained cleanly" /tmp/lbsp_conn_smoke.txt
fi

echo "== benches compile =="
cargo bench --workspace --offline --no-run

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustfmt check =="
cargo fmt --all --check

echo "CI gate passed."
