//! The network server: acceptor → poller shards → `ShardedEngine`.
//!
//! Threading model (std-only, no async runtime):
//!
//! * **Acceptor** — one thread accepts TCP connections and places each
//!   on a shard's bounded hand-off queue, round-robin. When the chosen
//!   shard's queue is full the other shards are tried once around;
//!   only when *every* queue is full is the connection refused
//!   (counted, never silently dropped into an unbounded buffer).
//! * **Poller shards** — `workers` threads each own a *set* of
//!   nonblocking connections and run the readiness loop in
//!   [`crate::poller`]: sweep for readable bytes, batch the ready
//!   frames into the shared [`ShardedEngine`] (contiguous
//!   `EXACT_UPDATE` runs become one `stage_updates_and_drain`
//!   crossing), and write replies as the sockets accept them. The
//!   engine is the same deterministic sharded engine the in-process
//!   pipeline uses, behind one mutex — requests from one connection are
//!   processed in arrival order, which is what makes the network path
//!   byte-identical to the in-process path for a closed-loop client.
//!   Idle connections cost a nonblocking read per shard sweep, not a
//!   blocked thread plus a 25 ms wakeup each. On a durable engine a
//!   shard stages its crossing under the mutex and waits for the WAL
//!   fsync after releasing it; no reply or delta leaves before every
//!   record behind the state it reflects is durable.
//! * **Outbound queues** — each connection's replies queue on its
//!   shard, bounded by `outbound_bound`. A consumer that stops reading
//!   stalls its socket write (bounded by `write_timeout`) and then its
//!   queue (bounded by `backpressure_timeout`); either way the
//!   connection is disconnected instead of buffering without limit,
//!   and a connection at its bound is not even read (read-gating).
//!
//! Shutdown is graceful: the acceptor stops, each live connection
//! finishes the requests already buffered on its socket (bounded by
//! `drain_grace`), outbound queues flush, and [`NetServer::shutdown`]
//! returns the engine so callers can inspect the final state the
//! network workload produced.

use crate::frame::{Frame, MAX_FRAME_LEN};
use lbsp_anonymizer::{CloakRequirement, PrivacyProfile};
use lbsp_core::metrics::NetCounters;
use lbsp_core::{
    wire, CommitTicket, Durability, EngineConfig, LockRank, MetricsRegistry, ShardedEngine,
    TrackedMutex,
};
use lbsp_geom::SimTime;
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One queued outbound frame: (tag, payload bytes).
pub(crate) type Outbound = (u8, Vec<u8>);

/// Who hears about which standing query.
///
/// A connection that registers a standing query is subscribed to it:
/// whenever an update changes that query's answer, the new state is
/// pushed as an unsolicited [`wire::tag::STANDING_DELTA`] frame. For a
/// connection on *another* shard (or elsewhere on the same shard) the
/// push is best-effort through its bounded delta channel (`try_send`,
/// dropped when full — a slow subscriber must never stall the
/// updater); the updating connection's own deltas ride in front of its
/// reply on its ordinary outbound queue and get the normal
/// backpressure treatment.
#[derive(Default)]
pub(crate) struct StandingSubs {
    /// (kind code, query id) → subscribed connection ids.
    pub(crate) by_query: HashMap<(u8, u64), Vec<u64>>,
    /// Live connections' delta-push channels, by connection id.
    pub(crate) senders: HashMap<u64, mpsc::SyncSender<Outbound>>,
}

/// The subscription registry handle shared by all server threads.
pub(crate) type SharedSubs = Arc<TrackedMutex<StandingSubs>>;

/// Tuning knobs of a [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct NetConfig {
    /// Poller shards serving connections (at least 1). Each shard is
    /// one thread owning a set of nonblocking connections; a
    /// connection is pinned to its shard for life.
    pub workers: usize,
    /// Accepted connections that may wait *per shard* for adoption
    /// before the acceptor starts refusing new ones (it tries every
    /// shard once around before giving up).
    pub accept_backlog: usize,
    /// Upper bound on a shard's sleep between readiness sweeps when
    /// every connection is quiet. Bounds idle-timeout detection and
    /// shutdown latency; an idle *shard* pays one wakeup per interval,
    /// regardless of how many connections it holds.
    pub read_poll: Duration,
    /// Disconnect a connection with no complete frame for this long.
    pub idle_timeout: Duration,
    /// Maximum time one socket write may stall before the consumer is
    /// declared slow and disconnected.
    pub write_timeout: Duration,
    /// Responses that may queue per connection before backpressure.
    pub outbound_bound: usize,
    /// Maximum time a request may wait for space in the outbound queue
    /// before the consumer is declared slow and disconnected.
    pub backpressure_timeout: Duration,
    /// After shutdown begins, how long a connection may keep draining
    /// already-buffered requests before being closed regardless.
    pub drain_grace: Duration,
    /// Frame body size cap (see [`MAX_FRAME_LEN`]).
    pub max_frame: usize,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            workers: 4,
            accept_backlog: 64,
            read_poll: Duration::from_millis(25),
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(2),
            outbound_bound: 64,
            backpressure_timeout: Duration::from_secs(2),
            drain_grace: Duration::from_secs(1),
            max_frame: MAX_FRAME_LEN,
        }
    }
}

impl NetConfig {
    /// A config with `workers` poller shards and defaults elsewhere.
    pub fn with_workers(workers: usize) -> NetConfig {
        NetConfig {
            workers,
            ..NetConfig::default()
        }
    }
}

/// Why a connection ended (drives which counter is bumped).
pub(crate) enum CloseReason {
    /// Peer closed cleanly, or the handler is shutting down.
    Normal,
    /// Protocol violation (oversized/zero/truncated frame).
    BadFrame,
    /// Outbound queue or socket write stalled past its bound.
    Slow,
    /// No traffic within the idle timeout.
    Idle,
}

/// What [`NetServer::bind_durable`] found in the WAL directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `true` when state was recovered from an existing log, `false`
    /// for a freshly initialized directory.
    pub recovered: bool,
    /// Registered users after recovery (0 for a fresh directory).
    pub users: usize,
    /// Journal ops replayed during recovery.
    pub ops_replayed: u64,
}

/// The framed TCP front-end of the privacy-aware LBS service.
pub struct NetServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    engine: Option<Arc<TrackedMutex<ShardedEngine>>>,
    /// The engine's own metrics registry, shared (not copied) so the
    /// network counters, per-stage timings, and cloaking histograms all
    /// land in one place — and one STATS scrape reports all of them.
    obs: Arc<MetricsRegistry>,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts serving `engine` with the given configuration.
    pub fn bind<A: ToSocketAddrs>(
        addr: A,
        engine: ShardedEngine,
        cfg: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Share the engine's registry rather than keeping a separate
        // counter set: scrapes then see engine stages and net counters
        // in one consistent snapshot.
        let obs = Arc::clone(engine.metrics_registry());
        let engine = Arc::new(TrackedMutex::new(LockRank::Engine, engine));
        let shutdown = Arc::new(AtomicBool::new(false));
        let subs: SharedSubs = Arc::new(TrackedMutex::new(
            LockRank::NetStandingSubs,
            StandingSubs::default(),
        ));
        let conn_ids = Arc::new(AtomicU64::new(1));

        // One bounded hand-off queue per shard: acceptor -> shard. The
        // channel is single-producer single-consumer, so no lock sits
        // on the accept path.
        let shard_count = cfg.workers.max(1);
        let mut shard_txs = Vec::with_capacity(shard_count);
        let shards = (0..shard_count)
            .map(|_| {
                let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(cfg.accept_backlog.max(1));
                shard_txs.push(conn_tx);
                let engine = Arc::clone(&engine);
                let obs = Arc::clone(&obs);
                let shutdown = Arc::clone(&shutdown);
                let subs = Arc::clone(&subs);
                let conn_ids = Arc::clone(&conn_ids);
                std::thread::spawn(move || {
                    crate::poller::run_shard(engine, obs, cfg, shutdown, subs, conn_ids, conn_rx);
                })
            })
            .collect();

        let acceptor = {
            let obs = Arc::clone(&obs);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                let mut next = 0usize;
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(s) = stream else { continue };
                    NetCounters::add(&obs.net().connections_accepted, 1);
                    // Round-robin placement; a full shard queue falls
                    // through to the next shard once around. Only when
                    // every queue is full is the connection refused —
                    // never buffered without bound.
                    let mut pending = Some(s);
                    for k in 0..shard_txs.len() {
                        let idx = next.wrapping_add(k) % shard_txs.len().max(1);
                        let (Some(tx), Some(s)) = (shard_txs.get(idx), pending.take()) else {
                            break;
                        };
                        match tx.try_send(s) {
                            Ok(()) => {
                                next = idx.wrapping_add(1);
                                break;
                            }
                            Err(TrySendError::Full(s)) | Err(TrySendError::Disconnected(s)) => {
                                pending = Some(s);
                            }
                        }
                    }
                    if let Some(s) = pending {
                        NetCounters::add(&obs.net().connections_refused, 1);
                        let _ = s.shutdown(Shutdown::Both);
                    }
                }
                // Dropping the shard senders lets draining shards exit.
            })
        };

        Ok(NetServer {
            addr,
            shutdown,
            acceptor: Some(acceptor),
            shards,
            engine: Some(engine),
            obs,
        })
    }

    /// Binds `addr` serving an engine journaled durably under
    /// `wal_dir`: a fresh directory is initialized with `engine_cfg`
    /// and starts logging; an existing log is recovered first (the
    /// persisted configuration wins over `engine_cfg`, preserving the
    /// pseudonym secret) and logging resumes on a fresh segment. The
    /// returned [`RecoveryReport`] says which path was taken.
    pub fn bind_durable<A: ToSocketAddrs>(
        addr: A,
        wal_dir: &Path,
        engine_cfg: EngineConfig,
        engine_threads: usize,
        policy: Durability,
        cfg: NetConfig,
    ) -> io::Result<(NetServer, RecoveryReport)> {
        let opened = lbsp_store::open_engine(wal_dir, engine_cfg, engine_threads, policy)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let report = RecoveryReport {
            recovered: opened.recovered,
            users: opened.users,
            ops_replayed: opened.ops_replayed,
        };
        let server = NetServer::bind(addr, opened.engine, cfg)?;
        Ok((server, report))
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live counter set (shared with every server thread).
    pub fn counters(&self) -> &NetCounters {
        self.obs.net()
    }

    /// The full observability registry backing this server — the same
    /// one the engine records into, and the one a `STATS` scrape
    /// snapshots.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// Stops accepting, drains in-flight requests, joins every thread.
    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        // Wake the acceptor out of its blocking accept.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // The acceptor dropped the shard hand-off senders on exit, so
        // each shard finishes its drain and sees a closed queue.
        for h in self.shards.drain(..) {
            let _ = h.join();
        }
    }

    /// Graceful shutdown: connections finish the requests already on
    /// their sockets (bounded by `drain_grace`), outbound queues flush,
    /// and the engine — with every state change the network workload
    /// made — is returned to the caller.
    pub fn shutdown(mut self) -> ShardedEngine {
        self.stop();
        self.engine
            .take()
            .and_then(|arc| Arc::try_unwrap(arc).ok())
            // lint: allow(panic) -- invariant: stop() joined every shard
            // thread, so the engine Arc is present and uniquely owned here;
            // a miss is a server bug, not hostile input.
            .expect("engine uniquely owned after stop()")
            .into_inner()
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.acceptor.is_some() || !self.shards.is_empty() {
            self.stop();
        }
    }
}

/// Removes a closing connection from the subscription registry: its
/// delta-push sender and every per-query subscription entry.
pub(crate) fn unsubscribe_connection(subs: &SharedSubs, conn_id: u64) {
    let mut subs = subs.lock();
    subs.senders.remove(&conn_id);
    subs.by_query.retain(|_, conns| {
        conns.retain(|&c| c != conn_id);
        !conns.is_empty()
    });
}

/// Subscribes `conn_id` to a standing query key (idempotent).
fn subscribe(subs: &SharedSubs, conn_id: u64, key: (u8, u64)) {
    let mut subs = subs.lock();
    let conns = subs.by_query.entry(key).or_default();
    if !conns.contains(&conn_id) {
        conns.push(conn_id);
    }
}

/// Runs one batch of `EXACT_UPDATE` frames — a contiguous ready run
/// from one poller sweep, each tagged with the connection it arrived
/// on — through a *single* engine crossing, and routes the results.
///
/// Rows are fed to `stage_updates_and_drain` in arrival order, so for a
/// closed-loop client (at most one update in flight per connection)
/// the cloaked bytes are identical to processing each frame alone —
/// a batch of one *is* the old per-frame call. A client that pipelines
/// several updates for the same user into one sweep gets the engine's
/// documented batch semantics: every row settles against the user's
/// final position in the batch, exactly as the in-process pipeline's
/// batched reference does.
///
/// On a durable engine the crossing is staged under the engine lock —
/// two journal records, the `UpdateBatch` then its
/// `TakeStandingChanges` drain, appended and applied — and made durable
/// after the lock is released, by one group-commit sync that covers
/// them. Nothing below leaves, to the batch's connections or to other
/// subscribers, until that wait returns, so another connection's
/// crossing runs while this one's sync is on the disk.
///
/// Standing-query changes are captured once, after the whole batch,
/// while the engine is still locked. Deltas for connections *in* the
/// batch are returned ahead of the replies (they precede the reply on
/// the wire, per the standing-delta contract); deltas for other
/// connections go best-effort through their push channels, dropped
/// when full — the `seq` field lets those subscribers resynchronize.
///
/// Returns `(conn_id, frame)` pairs in emit order; the caller enqueues
/// each on the connection that owns it. Counters: one
/// `requests_served` per frame, one `engine_batches` per crossing,
/// `frames_rejected`/`errors_returned` per malformed or rejected row.
pub(crate) fn handle_update_batch(
    engine: &Arc<TrackedMutex<ShardedEngine>>,
    obs: &Arc<MetricsRegistry>,
    subs: &SharedSubs,
    batch: Vec<(u64, Frame)>,
) -> Vec<(u64, Outbound)> {
    let counters = obs.net();
    NetCounters::add(&counters.requests_served, batch.len() as u64);
    // Decode every frame first; malformed payloads keep their reply
    // slot (an ERROR in arrival order) without joining the engine rows.
    let mut rows: Vec<(u64, lbsp_geom::Point, SimTime)> = Vec::with_capacity(batch.len());
    let mut slots: Vec<(u64, bool)> = Vec::with_capacity(batch.len());
    for (cid, frame) in &batch {
        match wire::decode_exact_update(&frame.payload) {
            Some(msg) => {
                rows.push((msg.user, msg.position, msg.time));
                slots.push((*cid, true));
            }
            None => {
                NetCounters::add(&counters.frames_rejected, 1);
                slots.push((*cid, false));
            }
        }
    }
    // One lock and one engine crossing for the whole run: the update
    // batch and its standing-change drain are two journal records
    // staged under the lock and made durable after it is released, and
    // before any reply or delta below leaves. The wire state of every
    // standing query the batch changed is read while the engine is
    // still locked: a delta is exactly the state right after this
    // batch, before any later request.
    let (out, deltas, ticket) = if rows.is_empty() {
        (Vec::new(), Vec::new(), CommitTicket::default())
    } else {
        let mut eng = engine.lock();
        let ((out, changed), ticket) = eng.stage_updates_and_drain(&rows);
        let mut deltas: Vec<((u8, u64), Vec<u8>)> = Vec::with_capacity(changed.len());
        for (kind, id) in changed {
            if let Some(state) = eng.standing_state(kind, id) {
                deltas.push((
                    (kind.code(), id),
                    wire::encode_standing_state(&state).to_vec(),
                ));
            }
        }
        NetCounters::add(&counters.engine_batches, 1);
        obs.net_batch_size().record(rows.len() as f64);
        (out, deltas, ticket)
    };
    ticket.wait_durable(obs);
    let mut emitted: Vec<(u64, Outbound)> = Vec::with_capacity(slots.len() + deltas.len());
    if !deltas.is_empty() {
        let batch_conns: HashSet<u64> = slots.iter().map(|&(cid, _)| cid).collect();
        let subs = subs.lock();
        for (key, bytes) in deltas {
            let Some(conns) = subs.by_query.get(&key) else {
                continue;
            };
            for &cid in conns {
                if batch_conns.contains(&cid) {
                    emitted.push((cid, (wire::tag::STANDING_DELTA, bytes.clone())));
                } else if let Some(tx) = subs.senders.get(&cid) {
                    let _ = tx.try_send((wire::tag::STANDING_DELTA, bytes.clone()));
                }
            }
        }
    }
    let mut results = out.into_iter();
    let mut errors = 0u64;
    for (cid, decoded) in slots {
        let reply: Outbound = if decoded {
            match results.next() {
                Some(Ok(update)) => (
                    wire::tag::CLOAKED_UPDATE,
                    wire::encode_cloaked_update(&update).to_vec(),
                ),
                Some(Err(e)) => (wire::tag::ERROR, e.to_string().into_bytes()),
                None => (
                    wire::tag::ERROR,
                    "internal error: engine returned no result row"
                        .to_string()
                        .into_bytes(),
                ),
            }
        } else {
            (
                wire::tag::ERROR,
                "malformed update payload".to_string().into_bytes(),
            )
        };
        if reply.0 == wire::tag::ERROR {
            errors = errors.saturating_add(1);
        }
        emitted.push((cid, reply));
    }
    if errors > 0 {
        NetCounters::add(&counters.errors_returned, errors);
    }
    emitted
}

/// Decodes one request frame and runs it against the engine. Always
/// yields at least one response frame, the reply last — malformed
/// payloads and engine errors come back as [`wire::tag::ERROR`] with a
/// UTF-8 message, so the client can tell a rejected request from a dead
/// connection. An update whose row changed standing-query answers this
/// connection subscribed to yields those [`wire::tag::STANDING_DELTA`]
/// frames ahead of the reply.
pub(crate) fn handle_request(
    engine: &Arc<TrackedMutex<ShardedEngine>>,
    obs: &Arc<MetricsRegistry>,
    frame: Frame,
    conn_id: u64,
    subs: &SharedSubs,
) -> Vec<Outbound> {
    let counters = obs.net();
    let err = |msg: String| vec![(wire::tag::ERROR, msg.into_bytes())];
    match frame.tag {
        wire::tag::PING => vec![(wire::tag::PONG, frame.payload)],
        wire::tag::STATS => {
            // A scrape takes no arguments; a payload means the peer is
            // confused, and silently ignoring it would hide that.
            if !frame.payload.is_empty() {
                NetCounters::add(&counters.frames_rejected, 1);
                return err("stats request carries a payload".into());
            }
            let snap = obs.snapshot();
            vec![(
                wire::tag::STATS_SNAPSHOT,
                wire::encode_stats_snapshot(&snap).to_vec(),
            )]
        }
        wire::tag::REGISTER => {
            let Some(msg) = wire::decode_register(&frame.payload) else {
                NetCounters::add(&counters.frames_rejected, 1);
                return err("malformed register payload".into());
            };
            let req = CloakRequirement {
                k: msg.k,
                a_min: msg.a_min,
                a_max: msg.a_max,
            };
            match PrivacyProfile::uniform(req) {
                Ok(profile) => {
                    engine.lock().register(msg.user, profile);
                    vec![(wire::tag::OK, Vec::new())]
                }
                Err(e) => err(e.to_string()),
            }
        }
        wire::tag::EXACT_UPDATE => {
            // One frame = a batch of one, in arrival order — the same
            // call the in-process reference makes, so the cloaked bytes
            // are identical by construction. The poller short-circuits
            // contiguous update runs straight into
            // [`handle_update_batch`]; this arm serves the general
            // dispatch path with the identical single-row batch.
            // Counters (requests_served, errors, rejects) are all
            // accounted inside the batch handler for this tag.
            handle_update_batch(engine, obs, subs, vec![(conn_id, frame)])
                .into_iter()
                .map(|(_, out)| out)
                .collect()
        }
        wire::tag::USER_QUERY => {
            let Some(msg) = wire::decode_user_query(&frame.payload) else {
                NetCounters::add(&counters.frames_rejected, 1);
                return err("malformed query payload".into());
            };
            let (ans, ticket) = {
                let eng = engine.lock();
                let ans = eng.range_query(msg.user, msg.time, msg.radius);
                (ans, eng.commit_ticket())
            };
            // The answer may reflect another connection's staged update:
            // it leaves only once that update's records are durable.
            ticket.wait_durable(obs);
            match ans {
                Ok(a) => vec![(wire::tag::CANDIDATES, a.response.to_vec())],
                Err(e) => err(e.to_string()),
            }
        }
        wire::tag::REGISTER_STANDING_COUNT => {
            let Some(msg) = wire::decode_register_standing_count(&frame.payload) else {
                NetCounters::add(&counters.frames_rejected, 1);
                return err("malformed standing-count registration".into());
            };
            let id = engine.lock().add_standing_count(msg.area);
            let kind = wire::StandingKind::Count;
            subscribe(subs, conn_id, (kind.code(), id));
            vec![(
                wire::tag::STANDING_REGISTERED,
                wire::encode_standing_ref(&wire::StandingRefMsg { kind, id }).to_vec(),
            )]
        }
        wire::tag::REGISTER_STANDING_RANGE => {
            let Some(msg) = wire::decode_register_standing_range(&frame.payload) else {
                NetCounters::add(&counters.frames_rejected, 1);
                return err("malformed standing-range registration".into());
            };
            let id = engine.lock().add_standing_range(msg.user, msg.radius);
            let kind = wire::StandingKind::Range;
            subscribe(subs, conn_id, (kind.code(), id));
            vec![(
                wire::tag::STANDING_REGISTERED,
                wire::encode_standing_ref(&wire::StandingRefMsg { kind, id }).to_vec(),
            )]
        }
        wire::tag::DEREGISTER_STANDING => {
            let Some(msg) = wire::decode_standing_ref(&frame.payload) else {
                NetCounters::add(&counters.frames_rejected, 1);
                return err("malformed standing-query reference".into());
            };
            if engine.lock().deregister_standing(msg.kind, msg.id) {
                subs.lock().by_query.remove(&(msg.kind.code(), msg.id));
                vec![(wire::tag::OK, Vec::new())]
            } else {
                err("unknown standing query".into())
            }
        }
        wire::tag::STANDING_SNAPSHOT => {
            let Some(msg) = wire::decode_standing_ref(&frame.payload) else {
                NetCounters::add(&counters.frames_rejected, 1);
                return err("malformed standing-query reference".into());
            };
            let (state, ticket) = {
                let eng = engine.lock();
                (eng.standing_state(msg.kind, msg.id), eng.commit_ticket())
            };
            ticket.wait_durable(obs);
            match state {
                Some(state) => vec![(
                    wire::tag::STANDING_STATE,
                    wire::encode_standing_state(&state).to_vec(),
                )],
                None => err("unknown standing query".into()),
            }
        }
        // Cluster-internal frames (trusted anonymizer-tier hops from a
        // router peer). Shadow updates never touch the registries and a
        // cloak ingest drains its changed set internally, so neither
        // routes standing deltas. STANDING_INSTALL is the exception: a
        // mirror node owns some users and pushes deltas for the queries
        // it installs, so that arm subscribes like a registration does.
        wire::tag::SHADOW_UPDATE => {
            let Some(msg) = wire::decode_exact_update(&frame.payload) else {
                NetCounters::add(&counters.frames_rejected, 1);
                return err("malformed shadow-update payload".into());
            };
            engine
                .lock()
                .apply_shadow_update(&[(msg.user, msg.position, msg.time)]);
            vec![(wire::tag::OK, Vec::new())]
        }
        wire::tag::CLOAK_INGEST => {
            let Some(update) = wire::decode_cloaked_update(&frame.payload) else {
                NetCounters::add(&counters.frames_rejected, 1);
                return err("malformed cloak-ingest payload".into());
            };
            engine.lock().apply_cloak_ingest(&update);
            vec![(wire::tag::OK, Vec::new())]
        }
        wire::tag::HANDOFF_PULL => {
            let Some(subject) = wire::decode_handoff_pull(&frame.payload) else {
                NetCounters::add(&counters.frames_rejected, 1);
                return err("malformed handoff-pull payload".into());
            };
            match engine.lock().handoff_export(subject) {
                Some(msg) => vec![(wire::tag::USER_HANDOFF, wire::encode_handoff(&msg).to_vec())],
                None => err("handoff pull for a user not registered here".into()),
            }
        }
        wire::tag::HANDOFF_PUSH => {
            let Some(msg) = wire::decode_handoff(&frame.payload) else {
                NetCounters::add(&counters.frames_rejected, 1);
                return err("malformed handoff payload".into());
            };
            engine.lock().handoff_install(&msg);
            vec![(wire::tag::OK, Vec::new())]
        }
        wire::tag::STANDING_INSTALL => {
            let Some(msg) = wire::decode_standing_install(&frame.payload) else {
                NetCounters::add(&counters.frames_rejected, 1);
                return err("malformed standing-install payload".into());
            };
            // Install the id node 0 granted; a duplicate id means this
            // is an ack-lost replay and the install is a no-op. Either
            // way the connection is (re)subscribed — subscribe is
            // idempotent — so delta push survives the replayed path.
            let (kind, id) = match msg {
                wire::StandingInstallMsg::Count { id, area } => {
                    engine.lock().install_standing_count(id, area);
                    (wire::StandingKind::Count, id)
                }
                wire::StandingInstallMsg::Range { id, user, radius } => {
                    engine.lock().install_standing_range(id, user, radius);
                    (wire::StandingKind::Range, id)
                }
            };
            subscribe(subs, conn_id, (kind.code(), id));
            vec![(wire::tag::OK, Vec::new())]
        }
        wire::tag::RESYNC_PULL => {
            // Bulk rejoin donation: the router asks a healthy node for a
            // full image of its replicated planes (positions + cloaks).
            // Read-only and unjournaled — the donor's state is the
            // source of truth, not an event.
            if !frame.payload.is_empty() {
                NetCounters::add(&counters.frames_rejected, 1);
                return err("malformed resync-pull payload".into());
            }
            let (state, ticket) = {
                let eng = engine.lock();
                (eng.resync_export(), eng.commit_ticket())
            };
            ticket.wait_durable(obs);
            vec![(
                wire::tag::RESYNC_STATE,
                wire::encode_resync_state(&state).to_vec(),
            )]
        }
        wire::tag::RESYNC_PUSH => {
            let Some(state) = wire::decode_resync_state(&frame.payload) else {
                NetCounters::add(&counters.frames_rejected, 1);
                return err("malformed resync-state payload".into());
            };
            // Journals through the existing shadow/ingest ops, so the
            // installed image survives a second crash of the rejoiner.
            engine.lock().resync_install(&state);
            vec![(wire::tag::OK, Vec::new())]
        }
        other => {
            NetCounters::add(&counters.frames_rejected, 1);
            err(format!("unknown request tag 0x{other:02x}"))
        }
    }
}

/// Convenience: a [`SimTime`] that stamps "now" relative to a fixed
/// epoch, for load generators that need monotonically increasing times.
pub fn sim_time_since(epoch: Instant) -> SimTime {
    SimTime::from_secs(epoch.elapsed().as_secs_f64())
}
