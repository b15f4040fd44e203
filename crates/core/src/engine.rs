//! Sharded concurrent anonymizer/server engine.
//!
//! The paper's scalability story (Sec. 7, experiment 10) asks the
//! anonymizer and the server to "cope with the continuous movement of
//! mobile users" — an ingest-throughput problem. This module shards both
//! components by spatial region and batches work across a fixed worker
//! pool, while keeping every externally visible byte identical to the
//! single-threaded pipeline:
//!
//! * **Anonymizer side** — the user registry is split into `shards`
//!   vertical stripes of the world. Each shard owns a private
//!   [`UniformGrid`] over the *whole* world holding only the users whose
//!   exact position falls in its stripe. Cloaking reads a
//!   [`SummedGrids`] view across all shards, so the fixed-grid merge
//!   ([`cloak_with_counts`]) sees exactly the counts a single merged
//!   grid would report — integer sums are order-independent, which makes
//!   the cloaks *bit-identical* regardless of worker count or schedule.
//! * **Server side** — the private store (pseudonym → cloaked rectangle)
//!   and the public-object store are sharded by the same stripes.
//!   `private_range_candidates` applies a per-object predicate, so the
//!   union of per-shard candidate lists equals the unsharded answer;
//!   merging sorts by object id to give the canonical wire order.
//! * **Trust boundary** — everything leaving the engine flows through
//!   the typed [`crate::wire`] messages: cloaked updates and range-query
//!   requests carry pseudonyms and rectangles only, never an exact
//!   point or a true identity.
//!
//! Batches run in two barrier-separated phases mirroring
//! [`LocationAnonymizer::handle_updates_batch`][hub]: phase 1 applies
//! every position upsert (per-shard jobs on disjoint state), phase 2
//! cloaks every row against the settled population. The
//! [`ReplayScheduler`] execution mode replays any seeded permutation of
//! the per-phase jobs sequentially — every such permutation is a
//! possible concurrent schedule, so the concurrency tests assert that
//! all of them, and the real thread pool at any width, produce the same
//! bytes.
//!
//! [hub]: lbsp_anonymizer::LocationAnonymizer::handle_updates_batch

use crate::group_commit::CommitTicket;
use crate::journal::{
    self, Durability, DurabilitySink, DurableHook, EngineOp, EngineState, JournalRecord,
};
use crate::locks::{LockRank, TrackedMutex, TrackedRwLock};
use crate::obs::{MetricsRegistry, Stage};
use crate::standing::{StandingPrivateRanges, StandingQueryId};
use crate::wire::{self, RangeQueryMsg, StandingCountState, StandingKind, StandingRangeState};
use crate::UserId;
use bytes::Bytes;
use lbsp_anonymizer::{
    cloak_with_counts, CloakError, CloakRequirement, CloakedRegion, CloakedUpdate, PrivacyProfile,
    Pseudonym, DEFAULT_MAX_REFINE_DEPTH,
};
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_index::{CellCounts, SummedGrids, UniformGrid};
use lbsp_server::{
    private_range_candidates, ContinuousRangeCount, PrivateRecord, PrivateStore, PublicObject,
    PublicStore,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A unit of work dispatched to the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared result slots the cloak phase writes into, one per input row.
type RowResults = Arc<TrackedMutex<Vec<Option<Result<CloakedUpdate, CloakError>>>>>;

/// A fixed pool of OS worker threads consuming jobs from one shared
/// channel (`std::thread` + `std::sync::mpsc`; no external crates).
///
/// [`WorkerPool::run`] is a barrier: it returns only after every
/// submitted job has finished, which is what separates the engine's
/// upsert phase from its cloak phase.
pub struct WorkerPool {
    tx: Option<Sender<(Job, Sender<bool>)>>,
    handles: Vec<JoinHandle<()>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<(Job, Sender<bool>)>();
        let rx = Arc::new(TrackedMutex::new(LockRank::PoolQueue, rx));
        let handles = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    // Hold the receiver lock only while dequeuing.
                    let job = rx.lock().recv();
                    match job {
                        Ok((job, done)) => {
                            let ok = catch_unwind(AssertUnwindSafe(job)).is_ok();
                            let _ = done.send(ok);
                        }
                        Err(_) => break,
                    }
                })
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            handles,
            workers,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job to completion (a barrier).
    ///
    /// # Panics
    /// Panics when any job panicked; the pool itself stays usable.
    pub fn run(&self, jobs: Vec<Job>) {
        let n = jobs.len();
        let (done_tx, done_rx): (Sender<bool>, Receiver<bool>) = mpsc::channel();
        let tx = self.tx.as_ref().expect("pool is live");
        for job in jobs {
            tx.send((job, done_tx.clone())).expect("worker alive");
        }
        drop(done_tx);
        let mut ok = true;
        for _ in 0..n {
            ok &= done_rx.recv().expect("worker alive");
        }
        assert!(ok, "a worker job panicked");
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel makes every worker's recv fail and exit.
        self.tx.take();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Deterministic replay of concurrent schedules.
///
/// Within each engine phase, jobs touch pairwise-disjoint shard state,
/// so any execution order is a legal concurrent schedule. The scheduler
/// runs each phase's jobs *sequentially* in the order given by a seeded
/// Fisher–Yates permutation (a fresh permutation per phase, derived from
/// `seed` and a phase counter). Replaying many seeds and asserting
/// bit-identical outputs against the real pool demonstrates schedule
/// independence.
pub struct ReplayScheduler {
    seed: u64,
    phase: AtomicU64,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ReplayScheduler {
    /// Creates a scheduler replaying the interleavings of `seed`.
    pub fn new(seed: u64) -> ReplayScheduler {
        ReplayScheduler {
            seed,
            phase: AtomicU64::new(0),
        }
    }

    /// The seed being replayed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Runs the phase's jobs in this schedule's permuted order.
    pub fn run(&self, jobs: Vec<Job>) {
        let phase = self.phase.fetch_add(1, Ordering::Relaxed);
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        let mut state = splitmix64(self.seed ^ phase.wrapping_mul(0xA076_1D64_78BD_642F));
        for i in (1..order.len()).rev() {
            state = splitmix64(state);
            let j = (state % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        let mut jobs: Vec<Option<Job>> = jobs.into_iter().map(Some).collect();
        for i in order {
            (jobs[i].take().expect("each job runs once"))();
        }
    }
}

/// How the engine executes its per-phase job sets.
pub enum ExecutionMode {
    /// A real thread pool: jobs run concurrently.
    Pool(WorkerPool),
    /// Deterministic sequential replay of a seeded schedule.
    Replay(ReplayScheduler),
}

impl ExecutionMode {
    fn run(&self, jobs: Vec<Job>) {
        match self {
            ExecutionMode::Pool(pool) => pool.run(jobs),
            ExecutionMode::Replay(sched) => sched.run(jobs),
        }
    }

    fn slots(&self) -> usize {
        match self {
            ExecutionMode::Pool(pool) => pool.workers(),
            // One logical slot per replay step keeps chunk boundaries
            // aligned with the single-threaded reference.
            ExecutionMode::Replay(_) => 1,
        }
    }
}

/// Configuration of a [`ShardedEngine`].
#[derive(Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// World rectangle all positions live in.
    pub world: Rect,
    /// Cloaking grid resolution (`grid_side × grid_side` cells), as in
    /// [`lbsp_anonymizer::GridCloak::new`].
    pub grid_side: u32,
    /// Enable the multi-level refinement optimization.
    pub refine: bool,
    /// Number of spatial shards (vertical stripes). Fixed independently
    /// of the worker count so results never depend on parallelism.
    pub shards: usize,
    /// Secret keying the pseudonym bijection.
    pub secret: u64,
}

/// Redacting formatter: `secret` keys the pseudonym bijection, so a
/// derived impl would leak it into any log line that prints the config.
impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("world", &self.world)
            .field("grid_side", &self.grid_side)
            .field("refine", &self.refine)
            .field("shards", &self.shards)
            .field("secret", &"<redacted>")
            .finish()
    }
}

impl EngineConfig {
    /// A reasonable default: 16×16 cloak grid, 4 stripes, no refinement.
    pub fn new(world: Rect) -> EngineConfig {
        EngineConfig {
            world,
            grid_side: 16,
            refine: false,
            shards: 4,
            secret: 0x1BAD_B002_CAFE_F00D,
        }
    }
}

/// A mutation applied to one anonymizer shard during phase 1.
enum ShardOp {
    Insert(UserId, Point),
    Remove(UserId),
}

/// Per-row plan computed by the coordinator before the parallel phases.
enum RowPlan {
    Fail(CloakError),
    Cloak {
        id: UserId,
        /// Shard holding the user after all of phase 1 (its grid is the
        /// authority for the user's final position).
        shard: usize,
        req: CloakRequirement,
        time: SimTime,
    },
}

/// The result of a private range query, on both sides of the wire.
#[derive(Debug, Clone)]
pub struct RangeQueryAnswer {
    /// The cloaked region that stood in for the querier's position.
    pub region: CloakedRegion,
    /// The anonymizer→server request message bytes.
    pub request: Bytes,
    /// Candidate objects, sorted by id (the canonical merge order).
    pub candidates: Vec<PublicObject>,
    /// The server→user candidate-list bytes.
    pub response: Bytes,
}

/// The sharded concurrent engine: anonymizer registry + private grid +
/// public store, each split into spatial stripes behind per-shard locks.
pub struct ShardedEngine {
    cfg: EngineConfig,
    mode: ExecutionMode,
    /// Coordinator-owned profile registry (read-only during batches).
    profiles: HashMap<UserId, PrivacyProfile>,
    /// Which anonymizer shard currently tracks each user.
    owner: HashMap<UserId, usize>,
    /// Which private-store shard holds each pseudonym's record.
    record_owner: HashMap<u64, usize>,
    anon: Vec<Arc<TrackedRwLock<UniformGrid>>>,
    private: Vec<Arc<TrackedRwLock<PrivateStore>>>,
    public: Vec<Arc<TrackedRwLock<PublicStore>>>,
    /// Standing count queries over the private population, maintained
    /// incrementally from per-row `(old, new)` cloak deltas.
    standing_counts: ContinuousRangeCount,
    /// Standing private range queries, refreshed per updating user.
    standing_ranges: StandingPrivateRanges,
    /// Unsharded copy of the public dataset: standing-range recomputes
    /// need the whole object set, and keeping a merged store avoids a
    /// cross-shard collect on every cloak change.
    public_all: PublicStore,
    /// Unified observability registry (shared with the network
    /// front-end when one wraps this engine). All recording paths are
    /// `&self` and lock-free, so metrics never perturb batch semantics.
    obs: Arc<MetricsRegistry>,
    /// Optional durability hook: when present, every logical mutation is
    /// journaled to the sink *before* it is applied (write-ahead), each
    /// public call returns only once its records are durable (one sync
    /// at most, through the hook's group-commit point), and a compacted
    /// snapshot is installed every `snapshot_every` journal records.
    /// Durability failures are fail-stop: continuing past a lost journal
    /// write would let the engine silently diverge from its log.
    durable: Option<DurableHook>,
}

impl ShardedEngine {
    /// Builds the engine with a real pool of `threads` workers.
    pub fn new(cfg: EngineConfig, threads: usize) -> ShardedEngine {
        Self::with_mode(cfg, ExecutionMode::Pool(WorkerPool::new(threads)))
    }

    /// Builds the engine under a deterministic replay schedule.
    pub fn with_replay(cfg: EngineConfig, seed: u64) -> ShardedEngine {
        Self::with_mode(cfg, ExecutionMode::Replay(ReplayScheduler::new(seed)))
    }

    /// Builds the engine with an explicit execution mode.
    pub fn with_mode(cfg: EngineConfig, mode: ExecutionMode) -> ShardedEngine {
        assert!(cfg.shards > 0, "engine needs at least one shard");
        let shards = cfg.shards;
        ShardedEngine {
            cfg,
            mode,
            profiles: HashMap::new(),
            owner: HashMap::new(),
            record_owner: HashMap::new(),
            anon: (0..shards)
                .map(|_| {
                    Arc::new(TrackedRwLock::new(
                        LockRank::AnonShard,
                        UniformGrid::new(cfg.world, cfg.grid_side, cfg.grid_side),
                    ))
                })
                .collect(),
            private: (0..shards)
                .map(|_| {
                    Arc::new(TrackedRwLock::new(
                        LockRank::PrivateShard,
                        PrivateStore::new(),
                    ))
                })
                .collect(),
            public: (0..shards)
                .map(|_| {
                    Arc::new(TrackedRwLock::new(
                        LockRank::PublicShard,
                        PublicStore::new(),
                    ))
                })
                .collect(),
            standing_counts: ContinuousRangeCount::new(),
            standing_ranges: StandingPrivateRanges::new(),
            public_all: PublicStore::new(),
            obs: Arc::new(MetricsRegistry::new()),
            durable: None,
        }
    }

    /// Attaches a durability sink: from now on every logical mutation is
    /// appended to `sink` before being applied, each public call waits
    /// until its records are durable (see [`Durability::fsync`]), and a
    /// compacted snapshot is installed every `policy.snapshot_every`
    /// journal records. The caller (normally `lbsp-store`) is
    /// responsible for writing the leading [`JournalRecord::InitEngine`]
    /// record on a fresh log and for replaying an existing log via
    /// [`Self::apply_op`] *before* attaching, so recovery ops are not
    /// re-journaled.
    pub fn attach_durability(&mut self, policy: Durability, sink: Box<dyn DurabilitySink>) {
        self.durable = Some(DurableHook::new(policy, sink));
    }

    /// Whether a durability sink is attached.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Appends one logical mutation to the log (write-ahead: call
    /// before applying). Only appends: the record becomes durable when
    /// the crossing waits on its [`CommitTicket`]. The closure defers
    /// building the record so the non-durable path pays nothing.
    /// Failures are fail-stop by design.
    fn journal_op(&mut self, build: impl FnOnce() -> EngineOp) {
        let Some(hook) = self.durable.as_mut() else {
            return;
        };
        hook.append(&JournalRecord::Op(build()), &self.obs)
            .expect("durability: WAL append failed");
    }

    /// The last step of every public mutating call, once its records
    /// are applied: a snapshot when one is due, then a wait until every
    /// record appended so far is durable (no sync when `fsync` is off).
    /// An in-process caller therefore never sees a result whose records
    /// a crash could lose; [`Self::stage_updates_and_drain`] leaves the
    /// wait to a caller that first releases the engine lock.
    fn commit(&mut self) {
        self.maybe_snapshot();
        self.commit_ticket().wait_durable(&self.obs);
    }

    /// The ticket for every record appended so far. A reply built from
    /// the engine's current state waits on it, after the engine lock is
    /// released, so it never shows state a crash could take back.
    pub fn commit_ticket(&self) -> CommitTicket {
        CommitTicket::new(self.durable.as_ref().and_then(DurableHook::commit_point))
    }

    /// Installs a compacted snapshot when the policy's cadence is due.
    /// Called once per crossing, *after* every record it appended is
    /// applied: a snapshot covers every record appended so far.
    fn maybe_snapshot(&mut self) {
        if !self.durable.as_ref().is_some_and(DurableHook::snapshot_due) {
            return;
        }
        let start = Instant::now();
        let state = journal::encode_engine_state(&self.export_state());
        let hook = self.durable.as_mut().expect("durability checked above");
        hook.install_snapshot(&state)
            .expect("durability: snapshot install failed");
        self.obs
            .stage(Stage::Snapshot)
            .record_duration(start.elapsed());
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The engine's observability registry (cloak/query stage timings,
    /// privacy/QoS value histograms, cloak-failure counters). The
    /// network front-end shares this `Arc` and adds its transport
    /// counters and stages to the same registry.
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.obs
    }

    /// Shard owning positions at `p`: vertical stripes of equal width,
    /// with out-of-world points clamped to the border stripes.
    pub fn shard_of(&self, p: Point) -> usize {
        let f = (p.x - self.cfg.world.min_x()) / self.cfg.world.width();
        let s = (f * self.cfg.shards as f64).floor();
        (s.max(0.0) as usize).min(self.cfg.shards - 1)
    }

    /// Registers a user with a privacy profile.
    pub fn register(&mut self, id: UserId, profile: PrivacyProfile) {
        self.journal_op(|| EngineOp::RegisterUser {
            id,
            active: true,
            profile: profile.clone(),
        });
        self.profiles.insert(id, profile);
        self.commit();
    }

    /// Number of registered users.
    pub fn registered(&self) -> usize {
        self.profiles.len()
    }

    /// Number of users with a tracked location, across all shards.
    pub fn population(&self) -> usize {
        self.anon.iter().map(|s| s.read().len()).sum()
    }

    /// Number of private records, across all shards.
    pub fn private_len(&self) -> usize {
        self.private.iter().map(|s| s.read().len()).sum()
    }

    /// Loads the public-object dataset, partitioned into shards by
    /// object position.
    pub fn load_public(&mut self, objects: Vec<PublicObject>) {
        self.journal_op(|| EngineOp::LoadPublic {
            objects: objects.clone(),
        });
        self.public_all = PublicStore::bulk_load(objects.clone());
        let mut parts: Vec<Vec<PublicObject>> = vec![Vec::new(); self.cfg.shards];
        for o in objects {
            parts[self.shard_of(o.pos)].push(o);
        }
        for (shard, part) in self.public.iter().zip(parts) {
            *shard.write() = PublicStore::bulk_load(part);
        }
        self.commit();
    }

    /// Stable pseudonym for a user — the same keyed splitmix64 bijection
    /// as [`lbsp_anonymizer::LocationAnonymizer::pseudonym`], so the two
    /// engines agree byte-for-byte on the server hop.
    pub fn pseudonym(&self, id: UserId) -> Pseudonym {
        Pseudonym(splitmix64_raw(
            self.cfg.secret ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Processes one batch of exact location updates: phase 1 applies
    /// every upsert (per-shard jobs), phase 2 cloaks every row against
    /// the settled population, phase 3 ingests the cloaked regions into
    /// the sharded private store. Results are in input order; unknown
    /// users error in place, exactly like the sequential batch path.
    pub fn process_updates(
        &mut self,
        updates: &[(UserId, Point, SimTime)],
    ) -> Vec<Result<CloakedUpdate, CloakError>> {
        // Write-ahead: the whole batch is one journal record, preserving
        // batch boundaries (duplicate-row settlement and the shared
        // cloak cache are batch-scoped, so replay must re-batch alike).
        self.journal_op(|| EngineOp::UpdateBatch {
            rows: updates.to_vec(),
        });
        let results = self.apply_updates(updates);
        self.commit();
        results
    }

    /// [`Self::process_updates`] then [`Self::take_standing_changes`] as
    /// one engine crossing: the same two journal records in the same
    /// order, made durable by a single sync before this returns.
    pub fn process_updates_and_drain(
        &mut self,
        updates: &[(UserId, Point, SimTime)],
    ) -> CloaksAndChanges {
        let (out, ticket) = self.stage_updates_and_drain(updates);
        ticket.wait_durable(&self.obs);
        out
    }

    /// The stage step of [`Self::process_updates_and_drain`], for a
    /// caller that releases the engine lock before waiting: appends the
    /// `UpdateBatch` and `TakeStandingChanges` records, applies both,
    /// takes a snapshot when one is due (only after both, since it
    /// covers every record appended so far), and returns the results
    /// with the ticket their replies must wait on.
    pub fn stage_updates_and_drain(
        &mut self,
        updates: &[(UserId, Point, SimTime)],
    ) -> (CloaksAndChanges, CommitTicket) {
        self.journal_op(|| EngineOp::UpdateBatch {
            rows: updates.to_vec(),
        });
        self.journal_op(|| EngineOp::TakeStandingChanges);
        let results = self.apply_updates(updates);
        let changed = self.drain_standing_changes();
        self.maybe_snapshot();
        ((results, changed), self.commit_ticket())
    }

    /// The three phases of [`Self::process_updates`], unjournaled.
    fn apply_updates(
        &mut self,
        updates: &[(UserId, Point, SimTime)],
    ) -> Vec<Result<CloakedUpdate, CloakError>> {
        // Coordinator pass: resolve profiles, route rows to shards, and
        // turn cross-shard moves into remove+insert pairs. Scanning in
        // input order makes duplicate-user rows settle on the row that
        // appears last, matching the sequential upsert order.
        let mut ops: Vec<Vec<ShardOp>> = (0..self.cfg.shards).map(|_| Vec::new()).collect();
        let mut plans: Vec<RowPlan> = Vec::with_capacity(updates.len());
        for &(id, pos, time) in updates {
            match self.profiles.get(&id) {
                None => plans.push(RowPlan::Fail(CloakError::UnknownUser(id))),
                Some(profile) => {
                    let target = self.shard_of(pos);
                    if let Some(prev) = self.owner.insert(id, target) {
                        if prev != target {
                            ops[prev].push(ShardOp::Remove(id));
                        }
                    }
                    ops[target].push(ShardOp::Insert(id, pos));
                    plans.push(RowPlan::Cloak {
                        id,
                        shard: target,
                        req: profile.requirement_at(time.time_of_day()),
                        time,
                    });
                }
            }
        }
        // Duplicate rows: every row must cloak at the user's *final*
        // position, i.e. through its final owner shard.
        for plan in &mut plans {
            if let RowPlan::Cloak { id, shard, .. } = plan {
                *shard = self.owner[id];
            }
        }

        // Phase 1 (barrier): apply shard-local mutations in parallel.
        let phase1: Vec<Job> = ops
            .into_iter()
            .zip(&self.anon)
            .filter(|(ops, _)| !ops.is_empty())
            .map(|(ops, shard)| {
                let shard = Arc::clone(shard);
                Box::new(move || {
                    let mut grid = shard.write();
                    for op in ops {
                        match op {
                            ShardOp::Insert(id, p) => {
                                grid.insert(id, p);
                            }
                            ShardOp::Remove(id) => {
                                grid.remove(id);
                            }
                        }
                    }
                }) as Job
            })
            .collect();
        self.mode.run(phase1);

        // Phase 2 (barrier): cloak every row against the summed view.
        let plans = Arc::new(plans);
        let results: RowResults = Arc::new(TrackedMutex::new(
            LockRank::ResultSink,
            vec![None; updates.len()],
        ));
        let chunk = updates.len().div_ceil(self.mode.slots().max(1)).max(1);
        let mut phase2: Vec<Job> = Vec::new();
        let mut start = 0usize;
        while start < plans.len() {
            let end = (start + chunk).min(plans.len());
            let plans = Arc::clone(&plans);
            let results = Arc::clone(&results);
            let anon: Vec<_> = self.anon.iter().map(Arc::clone).collect();
            let cfg = self.cfg;
            let range = start..end;
            phase2.push(Box::new(move || {
                // The closure variable hides the receiver from the
                // static lock-order pass; name the rank explicitly.
                // lint: lock(AnonShard)
                let guards: Vec<_> = anon.iter().map(|s| s.read()).collect();
                let view = SummedGrids::new(guards.iter().map(|g| &**g).collect());
                // Shared execution (Sec. 5.3): one cloak per (cell,
                // requirement) group, as in the sequential batch path.
                // The cache changes which rows recompute, never the
                // value — cloaks are pure functions of the view.
                let mut cache: HashMap<(u64, u32, u64, u64), CloakedRegion> = HashMap::new();
                let mut out: Vec<(usize, Result<CloakedUpdate, CloakError>)> =
                    Vec::with_capacity(range.len());
                for i in range.clone() {
                    let res = match &plans[i] {
                        RowPlan::Fail(e) => Err(e.clone()),
                        RowPlan::Cloak {
                            id,
                            shard,
                            req,
                            time,
                        } => cloak_row(&view, &guards[*shard], *id, req, *time, &cfg, &mut cache),
                    };
                    out.push((i, res));
                }
                let mut results = results.lock();
                for (i, res) in out {
                    results[i] = Some(res);
                }
            }) as Job);
            start = end;
        }
        let cloak_start = Instant::now();
        self.mode.run(phase2);
        self.obs
            .stage(Stage::Cloak)
            .record_duration(cloak_start.elapsed());
        let results: Vec<Result<CloakedUpdate, CloakError>> = Arc::try_unwrap(results)
            .expect("phase jobs done")
            .into_inner()
            .into_iter()
            .map(|r| r.expect("every row planned"))
            .collect();
        // Privacy-side observability: one sample per row outcome.
        for res in &results {
            match res {
                Ok(u) => {
                    self.obs.cloak_area().record(u.region.area());
                    self.obs.achieved_k().record(f64::from(u.region.achieved_k));
                }
                Err(e) => self.obs.record_cloak_failure(e.kind_index()),
            }
        }

        // Phase 3 (barrier): ingest cloaked regions into the private
        // store, shard chosen by region center so placement never
        // depends on worker count. Each op is tagged with its input row
        // so the shards can report the rectangle it displaced — the
        // `old` half of the standing-query delta.
        let mut ingest: Vec<Vec<ShardOp2>> = (0..self.cfg.shards).map(|_| Vec::new()).collect();
        for (row, res) in results.iter().enumerate() {
            let Ok(res) = res else { continue };
            let target = self.shard_of(res.region.region.center());
            let key = res.pseudonym.0;
            if let Some(prev) = self.record_owner.insert(key, target) {
                if prev != target {
                    ingest[prev].push(ShardOp2::Forget(row, key));
                }
            }
            ingest[target].push(ShardOp2::Upsert(
                row,
                PrivateRecord::new(key, res.region.region),
            ));
        }
        // One slot per input row; a row's ops can span two shards (a
        // cross-shard move), but at most one of them displaces a
        // rectangle, so "any Some wins" merges without conflict.
        let olds: Arc<TrackedMutex<Vec<Option<Rect>>>> = Arc::new(TrackedMutex::new(
            LockRank::ResultSink,
            vec![None; updates.len()],
        ));
        let phase3: Vec<Job> = ingest
            .into_iter()
            .zip(&self.private)
            .filter(|(ops, _)| !ops.is_empty())
            .map(|(ops, shard)| {
                let shard = Arc::clone(shard);
                let olds = Arc::clone(&olds);
                Box::new(move || {
                    let mut displaced: Vec<(usize, Rect)> = Vec::new();
                    {
                        let mut store = shard.write();
                        for op in ops {
                            let (row, old) = match op {
                                ShardOp2::Upsert(row, rec) => (row, store.upsert(rec)),
                                ShardOp2::Forget(row, p) => (row, store.remove(p)),
                            };
                            if let Some(r) = old {
                                displaced.push((row, r));
                            }
                        }
                    }
                    let mut olds = olds.lock();
                    for (row, r) in displaced {
                        olds[row] = Some(r);
                    }
                }) as Job
            })
            .collect();
        self.mode.run(phase3);

        // Standing-query maintenance: replay the per-row deltas in input
        // order, exactly as the sequential system applies them (count
        // registry first, then the updating user's private ranges).
        if !(self.standing_counts.is_empty() && self.standing_ranges.is_empty()) {
            let olds = Arc::try_unwrap(olds).expect("phase jobs done").into_inner();
            let start = Instant::now();
            for (row, res) in results.iter().enumerate() {
                let Ok(u) = res else { continue };
                let old = olds.get(row).and_then(Option::as_ref);
                let fan_count =
                    self.standing_counts
                        .on_update(u.pseudonym.0, old, Some(&u.region.region));
                let fan_range = updates.get(row).map_or(0, |&(user, _, _)| {
                    self.standing_ranges
                        .on_cloak_update(user, &u.region.region, &self.public_all)
                });
                self.obs
                    .standing_fanout()
                    .record((fan_count + fan_range) as f64);
            }
            self.obs
                .stage(Stage::StandingUpdate)
                .record_duration(start.elapsed());
        }
        results
    }

    /// [`Self::process_updates`], emitting the anonymizer→server wire
    /// bytes for each successful row.
    pub fn process_updates_wire(
        &mut self,
        updates: &[(UserId, Point, SimTime)],
    ) -> Vec<Result<Bytes, CloakError>> {
        self.process_updates(updates)
            .into_iter()
            .map(|r| r.map(|u| wire::encode_cloaked_update(&u)))
            .collect()
    }

    /// Executes a private range query (Fig. 5a) for `user`: cloaks the
    /// querier, fans `private_range_candidates` out over the public
    /// shards, and merges the per-shard lists in canonical id order.
    /// Both hops are returned as wire bytes.
    pub fn range_query(
        &self,
        user: UserId,
        time: SimTime,
        radius: f64,
    ) -> Result<RangeQueryAnswer, CloakError> {
        let start = Instant::now();
        let out = self.range_query_inner(user, time, radius);
        self.obs
            .stage(Stage::PrivateQuery)
            .record_duration(start.elapsed());
        match &out {
            Ok(a) => self
                .obs
                .candidate_set_size()
                .record(a.candidates.len() as f64),
            Err(e) => self.obs.record_cloak_failure(e.kind_index()),
        }
        out
    }

    fn range_query_inner(
        &self,
        user: UserId,
        time: SimTime,
        radius: f64,
    ) -> Result<RangeQueryAnswer, CloakError> {
        let profile = self
            .profiles
            .get(&user)
            .ok_or(CloakError::UnknownUser(user))?;
        let req = profile.requirement_at(time.time_of_day());
        req.validate()?;
        let region = {
            // Closure variable hides the receiver from the static
            // lock-order pass; name the rank explicitly.
            // lint: lock(AnonShard)
            let guards: Vec<_> = self.anon.iter().map(|s| s.read()).collect();
            let view = SummedGrids::new(guards.iter().map(|g| &**g).collect());
            let pos = view.location(user).ok_or(CloakError::UnknownUser(user))?;
            cloak_with_counts(&view, pos, &req, self.cfg.refine, DEFAULT_MAX_REFINE_DEPTH)
        };
        let msg = RangeQueryMsg {
            pseudonym: self.pseudonym(user),
            region: region.region,
            radius,
            time,
        };
        let request = wire::encode_range_query(&msg);
        // Fan out: each shard computes its candidates independently.
        let per_shard: Arc<TrackedMutex<Vec<Vec<PublicObject>>>> = Arc::new(TrackedMutex::new(
            LockRank::ResultSink,
            vec![Vec::new(); self.cfg.shards],
        ));
        let jobs: Vec<Job> = self
            .public
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let shard = Arc::clone(shard);
                let per_shard = Arc::clone(&per_shard);
                let cloak = region.region;
                Box::new(move || {
                    let found = private_range_candidates(&shard.read(), &cloak, radius);
                    per_shard.lock()[i] = found;
                }) as Job
            })
            .collect();
        self.mode.run(jobs);
        let mut candidates: Vec<PublicObject> = Arc::try_unwrap(per_shard)
            .expect("query jobs done")
            .into_inner()
            .into_iter()
            .flatten()
            .collect();
        // Canonical merge order: ascending object id. Shards partition
        // the objects, so ids are unique and the order is total.
        candidates.sort_unstable_by_key(|o| o.id);
        let response =
            wire::encode_candidates(&candidates.iter().map(|o| (o.id, o.pos)).collect::<Vec<_>>());
        Ok(RangeQueryAnswer {
            region,
            request,
            candidates,
            response,
        })
    }

    /// Number of private records whose cloaked rectangle intersects `r`,
    /// summed across shards (each record lives in exactly one shard).
    pub fn private_intersecting(&self, r: &Rect) -> usize {
        let counts: Arc<TrackedMutex<Vec<usize>>> = Arc::new(TrackedMutex::new(
            LockRank::ResultSink,
            vec![0; self.cfg.shards],
        ));
        let jobs: Vec<Job> = self
            .private
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let shard = Arc::clone(shard);
                let counts = Arc::clone(&counts);
                let r = *r;
                Box::new(move || {
                    let n = shard.read().intersecting(&r).len();
                    counts.lock()[i] = n;
                }) as Job
            })
            .collect();
        self.mode.run(jobs);
        let counts = Arc::try_unwrap(counts).expect("jobs done").into_inner();
        counts.into_iter().sum()
    }

    /// Registers a standing count query over `area`, seeded from every
    /// private record across the shards. The registry sorts seeds by
    /// pseudonym before accumulating, so the engine and the sequential
    /// server agree bit-for-bit on the expected count no matter which
    /// order the shards (or the sequential store's hash map) iterate.
    pub fn add_standing_count(&mut self, area: Rect) -> u64 {
        self.journal_op(|| EngineOp::AddStandingCount { area });
        let mut seeds: Vec<(u64, Rect)> = Vec::new();
        for shard in &self.private {
            // Loop variable hides the receiver from the static
            // lock-order pass; name the rank explicitly.
            // lint: lock(PrivateShard)
            let store = shard.read();
            seeds.extend(store.iter().map(|r| (r.pseudonym, r.region)));
        }
        let id = self.standing_counts.register(area, seeds);
        self.commit();
        id
    }

    /// Registers a standing private range query for `user` ("keep me
    /// updated on objects within `radius` of me").
    pub fn add_standing_range(&mut self, user: UserId, radius: f64) -> StandingQueryId {
        self.journal_op(|| EngineOp::AddStandingRange { user, radius });
        let id = self.standing_ranges.register(user, radius);
        self.commit();
        id
    }

    /// Installs a standing count query under the id node 0 granted
    /// (cluster mirror path; local clients go through
    /// [`Self::add_standing_count`], which allocates). Seeds from the
    /// shards exactly like the allocating path. Idempotent: returns
    /// `false` and changes nothing if `id` is already registered, so an
    /// ack-lost mirror frame can be replayed safely.
    pub fn install_standing_count(&mut self, id: u64, area: Rect) -> bool {
        if self.standing_counts.contains(id) {
            return false;
        }
        self.journal_op(|| EngineOp::InstallStandingCount { id, area });
        let mut seeds: Vec<(u64, Rect)> = Vec::new();
        for shard in &self.private {
            // lint: lock(PrivateShard)
            let store = shard.read();
            seeds.extend(store.iter().map(|r| (r.pseudonym, r.region)));
        }
        let installed = self.standing_counts.register_at(id, area, seeds);
        self.commit();
        installed
    }

    /// Installs a standing private range query under the id node 0
    /// granted. Same mirror-path idempotence contract as
    /// [`Self::install_standing_count`].
    pub fn install_standing_range(
        &mut self,
        id: StandingQueryId,
        user: UserId,
        radius: f64,
    ) -> bool {
        if self.standing_ranges.contains(id) {
            return false;
        }
        self.journal_op(|| EngineOp::InstallStandingRange { id, user, radius });
        let installed = self.standing_ranges.register_at(id, user, radius);
        self.commit();
        installed
    }

    /// Drops a standing query from the registry `kind` addresses.
    pub fn deregister_standing(&mut self, kind: StandingKind, id: u64) -> bool {
        self.journal_op(|| EngineOp::DeregisterStanding { kind, id });
        let hit = match kind {
            StandingKind::Count => self.standing_counts.deregister(id),
            StandingKind::Range => self.standing_ranges.deregister(id),
        };
        self.commit();
        hit
    }

    /// The current wire-level state of a standing query, or `None` when
    /// no such query is registered. This is the exact payload pushed in
    /// [`wire::tag::STANDING_DELTA`] frames and returned by snapshot
    /// requests, so sequential and sharded paths can be compared
    /// byte-for-byte through [`wire::encode_standing_state`].
    pub fn standing_state(&self, kind: StandingKind, id: u64) -> Option<wire::StandingState> {
        match kind {
            StandingKind::Count => {
                let (certain, possible) = self.standing_counts.interval(id)?;
                Some(wire::StandingState::Count(StandingCountState {
                    id,
                    seq: self.standing_counts.seq(id)?,
                    expected: self.standing_counts.expected(id)?,
                    certain: certain as u64,
                    possible: possible as u64,
                }))
            }
            StandingKind::Range => Some(wire::StandingState::Range(StandingRangeState {
                id,
                seq: self.standing_ranges.seq(id)?,
                candidates: self
                    .standing_ranges
                    .candidates(id)?
                    .iter()
                    .map(|o| (o.id, o.pos))
                    .collect(),
            })),
        }
    }

    /// Drains the queries whose answer changed since the last call:
    /// count queries first, then range queries, each in ascending id
    /// order — the deterministic fan-out order for delta pushes.
    pub fn take_standing_changes(&mut self) -> Vec<(StandingKind, u64)> {
        // Draining mutates the registries' `changed` sets, so replay has
        // to drain at the same points — journal before applying.
        self.journal_op(|| EngineOp::TakeStandingChanges);
        let out = self.drain_standing_changes();
        self.commit();
        out
    }

    /// The drain of [`Self::take_standing_changes`], unjournaled.
    fn drain_standing_changes(&mut self) -> Vec<(StandingKind, u64)> {
        let mut out: Vec<(StandingKind, u64)> = self
            .standing_counts
            .take_changed()
            .into_iter()
            .map(|id| (StandingKind::Count, id))
            .collect();
        out.extend(
            self.standing_ranges
                .take_changed()
                .into_iter()
                .map(|id| (StandingKind::Range, id)),
        );
        out
    }

    /// Cluster mirror: applies another node's exact-update rows to the
    /// position plane only — phase 1 of [`Self::process_updates`] with
    /// no cloaking, no private-store ingest, no standing maintenance,
    /// and no replies. The router broadcasts these so every node's
    /// population (and therefore every cloak's k-count view) matches
    /// the sequential reference. Unconditional by design: the router
    /// only shadows updates for registered users, and the profile lives
    /// on the owning node, not here.
    pub fn apply_shadow_update(&mut self, rows: &[(UserId, Point, SimTime)]) {
        self.journal_op(|| EngineOp::ShadowBatch {
            rows: rows.to_vec(),
        });
        for &(id, pos, _time) in rows {
            let target = self.shard_of(pos);
            if let Some(prev) = self.owner.insert(id, target) {
                if prev != target {
                    self.anon[prev].write().remove(id);
                }
            }
            self.anon[target].write().insert(id, pos);
        }
        self.commit();
    }

    /// Cluster mirror: ingests the owning node's cloaked reply — phase
    /// 3 of [`Self::process_updates`] for a single record, plus the
    /// standing-count delta. The count registry's changed set is
    /// drained and discarded locally: every node's accumulators track
    /// the full fleet, but only the owning node pushes deltas, so a
    /// mirrored change must never queue a second push here. Standing
    /// *range* entries are untouched — they key on true user ids, which
    /// this pseudonymized record deliberately cannot name.
    pub fn apply_cloak_ingest(&mut self, update: &CloakedUpdate) {
        self.journal_op(|| EngineOp::IngestCloak { update: *update });
        let region = update.region.region;
        let target = self.shard_of(region.center());
        let key = update.pseudonym.0;
        let mut old = None;
        if let Some(prev) = self.record_owner.insert(key, target) {
            if prev != target {
                old = self.private[prev].write().remove(key);
            }
        }
        if let Some(displaced) = self.private[target]
            .write()
            .upsert(PrivateRecord::new(key, region))
        {
            old = Some(displaced);
        }
        // Same guard as the batch path, so the registry's bookkeeping
        // counters advance in lockstep with the owning node's.
        if !(self.standing_counts.is_empty() && self.standing_ranges.is_empty()) {
            let fan = self
                .standing_counts
                .on_update(key, old.as_ref(), Some(&region));
            self.obs.standing_fanout().record(fan as f64);
            let _ = self.standing_counts.take_changed();
        }
        self.commit();
    }

    /// Cluster handoff, outbound: extracts `user`'s single-copy state —
    /// privacy profile, current private cloak, standing-range ids — and
    /// removes the profile so this node stops answering for the user.
    /// The position and private-record planes are replicated fleet-wide
    /// and stay put. Returns `None` (after journaling, so replay drains
    /// the same no-op) when the user is not registered here. Profiles
    /// with time-of-day entries flatten to their default requirement:
    /// the handoff frame carries one `(k, a_min, a_max)` triple.
    pub fn handoff_export(&mut self, user: UserId) -> Option<wire::HandoffMsg> {
        self.journal_op(|| EngineOp::HandoffOut { subject: user });
        let profile = self.profiles.remove(&user);
        let msg = profile.map(|p| {
            let req = p.default_requirement();
            let key = self.pseudonym(user).0;
            let cloak = self
                .record_owner
                .get(&key)
                .and_then(|&shard| self.private.get(shard))
                .and_then(|s| s.read().get(key));
            wire::HandoffMsg {
                subject: user,
                k: req.k,
                a_min: req.a_min,
                a_max: req.a_max,
                cloak,
                ranges: self.standing_ranges.queries_of(user),
            }
        });
        self.commit();
        msg
    }

    /// Cluster handoff, inbound: installs a migrated user's single-copy
    /// state. The profile is rebuilt from the carried requirement;
    /// standing-range entries — already present here via the
    /// registration broadcast — get their cloak, sequence number, and a
    /// re-derived candidate set, without ever signalling a delta (the
    /// installed state is `seq`-for-`seq` what the old owner last
    /// pushed, not a change).
    pub fn handoff_install(&mut self, msg: &wire::HandoffMsg) {
        self.journal_op(|| EngineOp::HandoffIn { msg: msg.clone() });
        let req = CloakRequirement {
            k: msg.k,
            a_min: msg.a_min,
            a_max: msg.a_max,
        };
        if let Ok(profile) = PrivacyProfile::uniform(req) {
            self.profiles.insert(msg.subject, profile);
        }
        for &(id, seq) in &msg.ranges {
            self.standing_ranges
                .install(id, msg.cloak, seq, &self.public_all);
        }
        self.commit();
    }

    /// Cluster rejoin, donor side: dumps the two replicated planes —
    /// every tracked position and every private cloak record — in
    /// canonical (sorted) form for a [`wire::ResyncState`] transfer.
    /// Read-only: exporting is not a journaled mutation. Single-copy
    /// user state (profiles, standing ownership) deliberately stays
    /// out: it lives on exactly one node and never went stale.
    pub fn resync_export(&self) -> wire::ResyncState {
        let mut rows: Vec<(UserId, Point, SimTime)> = Vec::new();
        for shard in &self.anon {
            rows.extend(shard.read().iter().map(|(id, p)| (id, p, SimTime::ZERO)));
        }
        rows.sort_unstable_by_key(|&(id, _, _)| id);
        let mut cloaks: Vec<CloakedUpdate> = Vec::new();
        for shard in &self.private {
            cloaks.extend(shard.read().iter().map(|r| CloakedUpdate {
                pseudonym: Pseudonym(r.pseudonym),
                region: CloakedRegion {
                    region: r.region,
                    // The ingest path keys on pseudonym + region only;
                    // the quality fields are not stored, so synthetic
                    // values here are invisible downstream.
                    achieved_k: 0,
                    k_satisfied: true,
                    area_satisfied: true,
                },
                time: SimTime::ZERO,
            }));
        }
        cloaks.sort_unstable_by_key(|c| c.pseudonym.0);
        wire::ResyncState { rows, cloaks }
    }

    /// Cluster rejoin, receiver side: installs a donor's replicated
    /// planes through the ordinary shadow/ingest paths, so every row is
    /// journaled as an [`EngineOp::ShadowBatch`] / [`EngineOp::IngestCloak`]
    /// and the installed state survives a second crash. Idempotent for
    /// rows this node already holds: position overwrites and
    /// same-region cloak re-ingests net to zero change.
    pub fn resync_install(&mut self, state: &wire::ResyncState) {
        if !state.rows.is_empty() {
            self.apply_shadow_update(&state.rows);
        }
        for c in &state.cloaks {
            self.apply_cloak_ingest(c);
        }
    }

    /// The standing count registry (read-only).
    pub fn standing_counts(&self) -> &ContinuousRangeCount {
        &self.standing_counts
    }

    /// The standing private-range registry (read-only).
    pub fn standing_ranges(&self) -> &StandingPrivateRanges {
        &self.standing_ranges
    }

    /// Dumps the engine's full logical state in canonical (sorted) form.
    /// [`Self::from_state`] of this dump rebuilds an engine whose every
    /// externally visible byte — cloaks, query answers, standing-state
    /// frames — matches this one exactly: shard placement is a pure
    /// function of position, outputs never expose internal iteration
    /// order, and the standing registries dump their accumulators
    /// bit-for-bit (Neumaier compensation terms included).
    pub fn export_state(&self) -> EngineState {
        let mut profiles: Vec<(UserId, PrivacyProfile)> = self
            .profiles
            .iter()
            .map(|(&id, p)| (id, p.clone()))
            .collect();
        profiles.sort_unstable_by_key(|&(id, _)| id);
        let mut positions: Vec<(UserId, Point)> = Vec::new();
        for shard in &self.anon {
            positions.extend(shard.read().iter());
        }
        positions.sort_unstable_by_key(|&(id, _)| id);
        let mut records: Vec<(u64, Rect)> = Vec::new();
        for shard in &self.private {
            records.extend(shard.read().iter().map(|r| (r.pseudonym, r.region)));
        }
        records.sort_unstable_by_key(|&(p, _)| p);
        let mut public: Vec<PublicObject> = self.public_all.iter().cloned().collect();
        public.sort_unstable_by_key(|o| o.id);
        EngineState {
            config: self.cfg,
            profiles,
            positions,
            records,
            public,
            counts: self.standing_counts.export_state(),
            ranges: self.standing_ranges.export_state(),
        }
    }

    /// Rebuilds an engine from an exported state dump (the recovery
    /// path's snapshot base). The rebuilt engine is *not* durable; the
    /// recovery driver attaches a sink after any tail replay.
    pub fn from_state(state: &EngineState, threads: usize) -> ShardedEngine {
        let mut e = ShardedEngine::new(state.config, threads);
        for (id, profile) in &state.profiles {
            e.profiles.insert(*id, profile.clone());
        }
        for &(id, p) in &state.positions {
            let shard = e.shard_of(p);
            e.anon[shard].write().insert(id, p);
            e.owner.insert(id, shard);
        }
        for &(pseudonym, rect) in &state.records {
            let shard = e.shard_of(rect.center());
            e.private[shard]
                .write()
                .upsert(PrivateRecord::new(pseudonym, rect));
            e.record_owner.insert(pseudonym, shard);
        }
        e.load_public(state.public.clone());
        e.standing_counts = ContinuousRangeCount::restore_state(&state.counts);
        e.standing_ranges = StandingPrivateRanges::restore_state(&state.ranges);
        e
    }

    /// Re-applies one journaled mutation during recovery. Must run
    /// *before* [`Self::attach_durability`] so replayed ops are not
    /// re-journaled. `RegisterUser`/`UpdateProfile` both resolve to
    /// [`Self::register`] here — the engine keeps no activity flag (that
    /// distinction lives in [`crate::PrivacyAwareSystem`]).
    pub fn apply_op(&mut self, op: &EngineOp) {
        match op {
            EngineOp::RegisterUser { id, profile, .. }
            | EngineOp::UpdateProfile { id, profile } => self.register(*id, profile.clone()),
            EngineOp::UpdateBatch { rows } => {
                self.process_updates(rows);
            }
            EngineOp::LoadPublic { objects } => self.load_public(objects.clone()),
            EngineOp::AddStandingCount { area } => {
                self.add_standing_count(*area);
            }
            EngineOp::AddStandingRange { user, radius } => {
                self.add_standing_range(*user, *radius);
            }
            EngineOp::InstallStandingCount { id, area } => {
                self.install_standing_count(*id, *area);
            }
            EngineOp::InstallStandingRange { id, user, radius } => {
                self.install_standing_range(*id, *user, *radius);
            }
            EngineOp::DeregisterStanding { kind, id } => {
                self.deregister_standing(*kind, *id);
            }
            EngineOp::TakeStandingChanges => {
                self.take_standing_changes();
            }
            EngineOp::ShadowBatch { rows } => self.apply_shadow_update(rows),
            EngineOp::IngestCloak { update } => self.apply_cloak_ingest(update),
            EngineOp::HandoffOut { subject } => {
                self.handoff_export(*subject);
            }
            EngineOp::HandoffIn { msg } => self.handoff_install(msg),
        }
    }
}

/// Per-row cloak results and the drained standing changes of one
/// [`ShardedEngine::process_updates_and_drain`] crossing.
pub type CloaksAndChanges = (
    Vec<Result<CloakedUpdate, CloakError>>,
    Vec<(StandingKind, u64)>,
);

/// Second mutation kind, for the private-store ingest phase. The
/// leading `usize` is the input-row index the op belongs to, so the
/// displaced rectangle can be routed back to that row's standing-query
/// delta.
enum ShardOp2 {
    Upsert(usize, PrivateRecord),
    Forget(usize, u64),
}

/// Raw splitmix64 finalizer (shared with [`ShardedEngine::pseudonym`]).
fn splitmix64_raw(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cloaks one row against the summed view, mirroring the sequential
/// batch path: validate, look up the final position, consult the
/// shared-execution cache, run the grid merge.
#[allow(clippy::too_many_arguments)]
fn cloak_row(
    view: &SummedGrids<'_>,
    owner_grid: &UniformGrid,
    id: UserId,
    req: &CloakRequirement,
    time: SimTime,
    cfg: &EngineConfig,
    cache: &mut HashMap<(u64, u32, u64, u64), CloakedRegion>,
) -> Result<CloakedUpdate, CloakError> {
    req.validate()?;
    let pos = owner_grid.location(id).ok_or(CloakError::UnknownUser(id))?;
    // Sharing key: the occupied cell — sound only without refinement,
    // exactly as GridCloak::sharing_key declares.
    let region = if cfg.refine {
        cloak_with_counts(view, pos, req, true, DEFAULT_MAX_REFINE_DEPTH)
    } else {
        let c = view.cell_of(pos);
        let key = (
            u64::from(c.iy) * u64::from(view.nx()) + u64::from(c.ix),
            req.k,
            req.a_min.to_bits(),
            req.a_max.to_bits(),
        );
        *cache
            .entry(key)
            .or_insert_with(|| cloak_with_counts(view, pos, req, false, DEFAULT_MAX_REFINE_DEPTH))
    };
    let mut z = cfg.secret ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = splitmix64_raw(z);
    Ok(CloakedUpdate {
        pseudonym: Pseudonym(z),
        region,
        time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group_commit::LogSync;
    use lbsp_anonymizer::{GridCloak, LocationAnonymizer};
    use std::sync::Mutex;

    fn world() -> Rect {
        Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
    }

    fn lattice_updates(n: u64) -> Vec<(UserId, Point, SimTime)> {
        (0..n)
            .map(|i| {
                let x = ((i as f64 * 0.618_033_988_749) % 1.0).min(0.999);
                let y = ((i as f64 * 0.414_213_562_373) % 1.0).min(0.999);
                (i, Point::new(x, y), SimTime::ZERO)
            })
            .collect()
    }

    fn engine(threads: usize) -> ShardedEngine {
        let mut e = ShardedEngine::new(EngineConfig::new(world()), threads);
        for i in 0..64u64 {
            e.register(
                i,
                PrivacyProfile::uniform(CloakRequirement::k_only(5)).unwrap(),
            );
        }
        e
    }

    #[test]
    fn engine_matches_sequential_anonymizer() {
        let cfg = EngineConfig::new(world());
        let mut seq = LocationAnonymizer::new(GridCloak::new(world(), cfg.grid_side), cfg.secret);
        let mut eng = engine(4);
        for i in 0..64u64 {
            seq.register(
                i,
                PrivacyProfile::uniform(CloakRequirement::k_only(5)).unwrap(),
            );
        }
        let updates = lattice_updates(64);
        let a = seq.handle_updates_batch(&updates);
        let b = eng.process_updates(&updates);
        for (x, y) in a.iter().zip(&b) {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            assert_eq!(x.pseudonym, y.pseudonym);
            assert_eq!(x.region, y.region);
            assert_eq!(x.time, y.time);
        }
    }

    #[test]
    fn worker_counts_agree_bytewise() {
        let updates = lattice_updates(64);
        let mut one = engine(1);
        let wire1 = one.process_updates_wire(&updates);
        for threads in [2usize, 4, 8] {
            let mut many = engine(threads);
            let wire_n = many.process_updates_wire(&updates);
            for (a, b) in wire1.iter().zip(&wire_n) {
                assert_eq!(
                    a.as_ref().unwrap().to_vec(),
                    b.as_ref().unwrap().to_vec(),
                    "threads={threads}"
                );
            }
        }
    }

    #[test]
    fn replay_schedules_agree_with_pool() {
        let updates = lattice_updates(48);
        let mut pool = engine(4);
        let reference = pool.process_updates_wire(&updates);
        for seed in 0..8u64 {
            let mut replay = ShardedEngine::with_replay(EngineConfig::new(world()), seed);
            for i in 0..64u64 {
                replay.register(
                    i,
                    PrivacyProfile::uniform(CloakRequirement::k_only(5)).unwrap(),
                );
            }
            let got = replay.process_updates_wire(&updates);
            for (a, b) in reference.iter().zip(&got) {
                assert_eq!(
                    a.as_ref().unwrap().to_vec(),
                    b.as_ref().unwrap().to_vec(),
                    "seed={seed}"
                );
            }
        }
    }

    #[test]
    fn moves_across_stripes_keep_one_copy() {
        let mut e = engine(4);
        e.process_updates(&[(1, Point::new(0.1, 0.5), SimTime::ZERO)]);
        assert_eq!(e.population(), 1);
        // Move across every stripe boundary.
        e.process_updates(&[(1, Point::new(0.9, 0.5), SimTime::from_secs(1.0))]);
        assert_eq!(e.population(), 1, "old shard dropped the user");
        assert_eq!(e.private_len(), 1, "one private record survives");
    }

    #[test]
    fn duplicate_rows_cloak_at_final_position() {
        let mut e = engine(4);
        // Seed a population so cloaks are k-satisfiable.
        e.process_updates(&lattice_updates(64));
        let out = e.process_updates(&[
            (1, Point::new(0.05, 0.05), SimTime::ZERO),
            (1, Point::new(0.95, 0.95), SimTime::ZERO),
        ]);
        let first = out[0].as_ref().unwrap();
        let second = out[1].as_ref().unwrap();
        // Sequential semantics: both rows cloak after all upserts, so
        // both regions contain the final position.
        assert!(first.region.region.contains_point(Point::new(0.95, 0.95)));
        assert_eq!(first.region.region, second.region.region);
    }

    #[test]
    fn unknown_users_fail_in_place() {
        let mut e = engine(2);
        let out = e.process_updates(&[
            (1, Point::new(0.5, 0.5), SimTime::ZERO),
            (9999, Point::new(0.5, 0.5), SimTime::ZERO),
        ]);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(CloakError::UnknownUser(9999))));
        assert!(matches!(
            e.range_query(9999, SimTime::ZERO, 0.1),
            Err(CloakError::UnknownUser(9999))
        ));
    }

    #[test]
    fn range_query_merges_shards_in_id_order() {
        let mut e = engine(4);
        let objects: Vec<PublicObject> = (0..40)
            .map(|i| PublicObject::new(i, Point::new(((i as f64) * 0.025).min(0.999), 0.5), 0))
            .collect();
        e.load_public(objects.clone());
        e.process_updates(&lattice_updates(64));
        let ans = e.range_query(7, SimTime::ZERO, 0.2).unwrap();
        // Candidates are sorted by id and decodable from the wire.
        let ids: Vec<u64> = ans.candidates.iter().map(|o| o.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
        let decoded = wire::decode_candidates(&ans.response).unwrap();
        assert_eq!(decoded.len(), ans.candidates.len());
        // The request hop decodes to the same cloak.
        let req = wire::decode_range_query(&ans.request).unwrap();
        assert_eq!(req.region, ans.region.region);
        // Sanity: candidates match the unsharded predicate.
        let merged = PublicStore::bulk_load(objects);
        let mut expect = private_range_candidates(&merged, &ans.region.region, 0.2);
        expect.sort_unstable_by_key(|o| o.id);
        assert_eq!(ans.candidates, expect);
    }

    #[test]
    fn private_store_tracks_ingest() {
        let mut e = engine(4);
        e.process_updates(&lattice_updates(64));
        assert_eq!(e.private_len(), 64);
        let n = e.private_intersecting(&world());
        assert_eq!(n, 64, "every record intersects the world");
    }

    #[test]
    fn standing_queries_agree_bytewise_across_worker_counts() {
        // Same registration + update script on engines of different
        // widths (and a replayed schedule): every standing query's wire
        // state must be byte-identical, including the f64 bits of the
        // expected count.
        let objects: Vec<PublicObject> = (0..40)
            .map(|i| PublicObject::new(i, Point::new(((i as f64) * 0.025).min(0.999), 0.5), 0))
            .collect();
        let script = |e: &mut ShardedEngine| {
            e.load_public(objects.clone());
            e.process_updates(&lattice_updates(64));
            let qc = e.add_standing_count(Rect::new_unchecked(0.2, 0.2, 0.8, 0.8));
            let qr = e.add_standing_range(7, 0.2);
            // Two waves of movement, including user 7 (the range owner).
            for wave in 1..3u64 {
                let updates: Vec<(UserId, Point, SimTime)> = (0..64u64)
                    .map(|i| {
                        let x = (((i + wave) as f64 * 0.618_033_988_749) % 1.0).min(0.999);
                        let y = (((i + 2 * wave) as f64 * 0.414_213_562_373) % 1.0).min(0.999);
                        (i, Point::new(x, y), SimTime::from_secs(wave as f64))
                    })
                    .collect();
                e.process_updates(&updates);
            }
            let count =
                wire::encode_standing_state(&e.standing_state(StandingKind::Count, qc).unwrap());
            let range =
                wire::encode_standing_state(&e.standing_state(StandingKind::Range, qr).unwrap());
            (count.to_vec(), range.to_vec(), e.take_standing_changes())
        };
        let mut one = engine(1);
        let reference = script(&mut one);
        assert!(!reference.2.is_empty(), "movement changed some answer");
        for threads in [2usize, 4, 8] {
            let mut many = engine(threads);
            assert_eq!(script(&mut many), reference, "threads={threads}");
        }
        for seed in 0..4u64 {
            let mut replay = ShardedEngine::with_replay(EngineConfig::new(world()), seed);
            for i in 0..64u64 {
                replay.register(
                    i,
                    PrivacyProfile::uniform(CloakRequirement::k_only(5)).unwrap(),
                );
            }
            assert_eq!(script(&mut replay), reference, "seed={seed}");
        }
    }

    #[test]
    fn standing_count_interval_matches_full_recompute() {
        use lbsp_server::PublicCountQuery;
        let mut e = engine(4);
        e.process_updates(&lattice_updates(64));
        let area = Rect::new_unchecked(0.1, 0.1, 0.6, 0.6);
        let qc = e.add_standing_count(area);
        e.process_updates(&lattice_updates(64));
        // Rebuild the private population into one store and recompute.
        let mut merged = PrivateStore::new();
        for i in 0..64u64 {
            let p = e.pseudonym(i).0;
            let shard = e.record_owner[&p];
            let rect = e.private[shard].read().get(p).unwrap();
            merged.upsert(PrivateRecord::new(p, rect));
        }
        let full = PublicCountQuery::new(area).evaluate(&merged);
        assert_eq!(
            e.standing_counts().interval(qc).unwrap(),
            (full.certain, full.possible)
        );
        let inc = e.standing_counts().expected(qc).unwrap();
        assert!((inc - full.expected).abs() < 1e-9);
        // Deregistration works through the typed kind.
        assert!(e.deregister_standing(StandingKind::Count, qc));
        assert!(e.standing_state(StandingKind::Count, qc).is_none());
    }

    #[test]
    fn state_dump_rebuilds_byte_identical_engine() {
        // Drive a full workload (public data, movement, standing queries,
        // a partial drain), dump, rebuild, and require every externally
        // visible byte to match as both engines keep evolving.
        let objects: Vec<PublicObject> = (0..40)
            .map(|i| PublicObject::new(i, Point::new(((i as f64) * 0.025).min(0.999), 0.5), 0))
            .collect();
        let mut a = engine(4);
        a.load_public(objects);
        a.process_updates(&lattice_updates(64));
        let qc = a.add_standing_count(Rect::new_unchecked(0.2, 0.2, 0.8, 0.8));
        let qr = a.add_standing_range(7, 0.2);
        a.process_updates(&lattice_updates(64));
        a.take_standing_changes();

        let dump = a.export_state();
        let mut b = ShardedEngine::from_state(&dump, 2);
        // The dump itself must round-trip losslessly through the rebuild.
        assert_eq!(b.export_state(), dump);
        assert_eq!(
            journal::encode_engine_state(&b.export_state()),
            journal::encode_engine_state(&dump)
        );

        // Both engines keep producing identical wire bytes afterwards.
        let wave: Vec<(UserId, Point, SimTime)> = (0..64u64)
            .map(|i| {
                let x = (((i + 3) as f64 * 0.618_033_988_749) % 1.0).min(0.999);
                let y = (((i + 5) as f64 * 0.414_213_562_373) % 1.0).min(0.999);
                (i, Point::new(x, y), SimTime::from_secs(9.0))
            })
            .collect();
        let wa = a.process_updates_wire(&wave);
        let wb = b.process_updates_wire(&wave);
        for (x, y) in wa.iter().zip(&wb) {
            assert_eq!(x.as_ref().unwrap().to_vec(), y.as_ref().unwrap().to_vec());
        }
        for (kind, id) in [(StandingKind::Count, qc), (StandingKind::Range, qr)] {
            assert_eq!(
                wire::encode_standing_state(&a.standing_state(kind, id).unwrap()),
                wire::encode_standing_state(&b.standing_state(kind, id).unwrap())
            );
        }
        assert_eq!(a.take_standing_changes(), b.take_standing_changes());
        assert_eq!(
            a.range_query(7, SimTime::from_secs(9.0), 0.2)
                .unwrap()
                .response,
            b.range_query(7, SimTime::from_secs(9.0), 0.2)
                .unwrap()
                .response
        );
    }

    /// An in-memory sink capturing the journal stream for assertions.
    /// Cloning shares the captures, so a test keeps one handle while the
    /// engine owns the other.
    #[derive(Clone, Default)]
    struct VecSink {
        records: Arc<Mutex<Vec<JournalRecord>>>,
        /// Per sync, how many records had been appended when it ran.
        syncs: Arc<Mutex<Vec<usize>>>,
        snapshots: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl DurabilitySink for VecSink {
        fn append(&mut self, rec: &JournalRecord) -> std::io::Result<()> {
            self.records.lock().unwrap().push(rec.clone());
            Ok(())
        }
        fn syncer(&self) -> Box<dyn LogSync> {
            Box::new(self.clone())
        }
        fn snapshot(&mut self, state: &[u8]) -> std::io::Result<()> {
            self.snapshots.lock().unwrap().push(state.to_vec());
            Ok(())
        }
    }

    impl LogSync for VecSink {
        fn sync(&mut self) -> std::io::Result<()> {
            let appended = self.records.lock().unwrap().len();
            self.syncs.lock().unwrap().push(appended);
            Ok(())
        }
    }

    fn replay(log: &[JournalRecord]) -> ShardedEngine {
        let mut replayed = engine(4);
        for rec in log {
            if let JournalRecord::Op(op) = rec {
                replayed.apply_op(op);
            }
        }
        replayed
    }

    #[test]
    fn journaled_ops_replay_to_the_same_engine() {
        let sink = VecSink::default();
        let mut durable = engine(2);
        durable.attach_durability(
            Durability {
                snapshot_every: 3,
                fsync: true,
            },
            Box::new(sink.clone()),
        );
        durable.process_updates(&lattice_updates(64));
        let qc = durable.add_standing_count(Rect::new_unchecked(0.2, 0.2, 0.8, 0.8));
        durable.process_updates(&lattice_updates(48));
        durable.take_standing_changes();

        // Every mutation hit the log, in order, and was fsynced.
        let log = sink.records.lock().unwrap().clone();
        assert_eq!(log.len(), 4);
        assert!(
            matches!(log[0], JournalRecord::Op(EngineOp::UpdateBatch { ref rows }) if rows.len() == 64)
        );
        assert!(matches!(
            log[1],
            JournalRecord::Op(EngineOp::AddStandingCount { .. })
        ));
        assert_eq!(*sink.syncs.lock().unwrap(), [1, 2, 3, 4]);
        // Cadence of 3: the 3rd logged mutation triggered one snapshot.
        assert_eq!(sink.snapshots.lock().unwrap().len(), 1);

        // Replaying the log on a fresh engine reproduces the state.
        assert_eq!(
            journal::encode_engine_state(&replay(&log).export_state()),
            journal::encode_engine_state(&durable.export_state())
        );
        // ... and the snapshot taken mid-run decodes to a state that,
        // replayed forward with the remaining ops, also converges.
        let snap = sink.snapshots.lock().unwrap()[0].clone();
        let snap_state = journal::decode_engine_state(&snap).unwrap();
        let mut from_snap = ShardedEngine::from_state(&snap_state, 1);
        if let JournalRecord::Op(op) = &log[3] {
            from_snap.apply_op(op);
        }
        assert_eq!(
            journal::encode_engine_state(&from_snap.export_state()),
            journal::encode_engine_state(&durable.export_state())
        );
        let _ = qc;
    }

    #[test]
    fn fused_crossing_appends_both_records_then_syncs_once() {
        let area = Rect::new_unchecked(0.2, 0.2, 0.8, 0.8);
        let sink = VecSink::default();
        let mut durable = engine(2);
        durable.attach_durability(
            Durability {
                snapshot_every: 2,
                fsync: true,
            },
            Box::new(sink.clone()),
        );
        let mut plain = engine(2);
        durable.add_standing_count(area);
        plain.add_standing_count(area);

        // Same answers as the two standalone calls on an unjournaled twin.
        let (cloaks, changed) = durable.process_updates_and_drain(&lattice_updates(48));
        assert_eq!(cloaks, plain.process_updates(&lattice_updates(48)));
        assert_eq!(changed, plain.take_standing_changes());
        assert!(!changed.is_empty(), "the batch moved the standing count");

        // The crossing logged the batch then its drain, and synced once,
        // after both appends (the first sync is the registration's).
        let log = sink.records.lock().unwrap().clone();
        assert_eq!(log.len(), 3);
        assert!(
            matches!(log[1], JournalRecord::Op(EngineOp::UpdateBatch { ref rows }) if rows.len() == 48)
        );
        assert_eq!(log[2], JournalRecord::Op(EngineOp::TakeStandingChanges));
        assert_eq!(*sink.syncs.lock().unwrap(), [1, 3]);
        // The snapshot the crossing made due covers both of its records,
        // so it was taken after the drain was applied too.
        let snap = sink.snapshots.lock().unwrap()[0].clone();
        assert_eq!(
            snap,
            journal::encode_engine_state(&durable.export_state()).to_vec()
        );

        // The standalone calls still sync once each.
        durable.process_updates(&lattice_updates(16));
        durable.take_standing_changes();
        assert_eq!(*sink.syncs.lock().unwrap(), [1, 3, 4, 5]);

        // Replaying the captured log reproduces the state byte for byte.
        let log = sink.records.lock().unwrap().clone();
        assert_eq!(
            journal::encode_engine_state(&replay(&log).export_state()),
            journal::encode_engine_state(&durable.export_state())
        );

        // With fsync off the same records are appended and none synced.
        let quiet = VecSink::default();
        let mut unsynced = engine(2);
        unsynced.attach_durability(
            Durability {
                snapshot_every: 0,
                fsync: false,
            },
            Box::new(quiet.clone()),
        );
        unsynced.add_standing_count(area);
        unsynced.process_updates_and_drain(&lattice_updates(48));
        assert_eq!(*quiet.records.lock().unwrap(), log[..3]);
        assert!(quiet.syncs.lock().unwrap().is_empty());
    }

    #[test]
    fn concurrent_crossings_wait_through_one_group_commit() {
        const N: usize = 8;
        for fsync in [true, false] {
            let sink = VecSink::default();
            let mut durable = engine(2);
            durable.attach_durability(
                Durability {
                    snapshot_every: 0,
                    fsync,
                },
                Box::new(sink.clone()),
            );
            durable.process_updates(&lattice_updates(64));
            let before = sink.syncs.lock().unwrap().len();
            let shared = Arc::new(TrackedMutex::new(LockRank::Engine, durable));
            let start = Arc::new(std::sync::Barrier::new(N));
            let threads: Vec<_> = (0..N as u64)
                .map(|t| {
                    let (shared, start, sink) =
                        (Arc::clone(&shared), Arc::clone(&start), sink.clone());
                    std::thread::spawn(move || {
                        let row = [(t, Point::new(0.1 * t as f64, 0.5), SimTime::ZERO)];
                        start.wait();
                        // Stage under the lock, then wait without it.
                        let (ticket, pos, obs) = {
                            let mut eng = shared.lock();
                            let (_, ticket) = eng.stage_updates_and_drain(&row);
                            let pos = sink.records.lock().unwrap().len();
                            (ticket, pos, Arc::clone(eng.metrics_registry()))
                        };
                        ticket.wait_durable(&obs);
                        let covered = sink.syncs.lock().unwrap().iter().copied().max();
                        (pos, covered)
                    })
                })
                .collect();
            for t in threads {
                let (pos, covered) = t.join().unwrap();
                if fsync {
                    assert!(
                        covered >= Some(pos),
                        "wait returned at {covered:?} before its position {pos} was synced"
                    );
                }
            }
            let syncs = sink.syncs.lock().unwrap().len() - before;
            assert_eq!(sink.records.lock().unwrap().len(), 1 + 2 * N);
            if fsync {
                assert!((1..=N).contains(&syncs), "{syncs} syncs for {N} crossings");
            } else {
                assert_eq!(syncs, 0);
            }
        }
    }

    #[test]
    fn pool_survives_job_panics() {
        let pool = WorkerPool::new(2);
        let ran = Arc::new(AtomicU64::new(0));
        let r = ran.clone();
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                Box::new(|| panic!("boom")) as Job,
                Box::new(move || {
                    r.fetch_add(1, Ordering::Relaxed);
                }) as Job,
            ]);
        }));
        assert!(outcome.is_err(), "run reports the panic");
        // The pool still executes new jobs afterwards.
        let r = ran.clone();
        pool.run(vec![Box::new(move || {
            r.fetch_add(1, Ordering::Relaxed);
        }) as Job]);
        assert!(ran.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn replay_permutations_cover_orders() {
        // Different seeds produce different execution orders (with high
        // probability), yet section results stay identical — checked
        // here just for the permutation machinery.
        let order_for = |seed: u64| {
            let sched = ReplayScheduler::new(seed);
            let log = Arc::new(Mutex::new(Vec::new()));
            let jobs: Vec<Job> = (0..6usize)
                .map(|i| {
                    let log = Arc::clone(&log);
                    Box::new(move || log.lock().unwrap().push(i)) as Job
                })
                .collect();
            sched.run(jobs);
            Arc::try_unwrap(log).unwrap().into_inner().unwrap()
        };
        let a = order_for(1);
        let b = order_for(2);
        assert_eq!(a.len(), 6);
        assert_ne!(a, b, "seeds drive distinct interleavings");
        // Same seed replays the same order.
        assert_eq!(order_for(3), order_for(3));
    }
}
