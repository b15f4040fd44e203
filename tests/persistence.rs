//! Headline durability test: a server that is hard-stopped mid-batch
//! and recovered from its write-ahead log produces wire output
//! byte-identical to a server that never crashed — at worker counts
//! 1 and 4.
//!
//! The crash is simulated at the worst legal point: an update batch
//! that reached the log (journal-then-apply means the record is
//! durable) but whose effects never landed in memory. Recovery must
//! apply it; dropping it would silently lose acknowledged work.
//!
//! A durable network server is also pinned to one WAL fsync per update
//! request, and its log must bring back the same answers on restart.
//! Its syncs run after the engine lock is released, so it is also held
//! to the read rule: no reply leaves before every record behind the
//! state it reflects is durable.

use privacy_lbs::anonymizer::{CloakRequirement, PrivacyProfile, QuadCloak};
use privacy_lbs::geom::{Point, Rect, SimTime};
use privacy_lbs::net::{NetClient, NetConfig, NetServer, Reply};
use privacy_lbs::server::PublicObject;
use privacy_lbs::store::{open_engine, open_system, recover_engine, Wal};
use privacy_lbs::system::journal;
use privacy_lbs::system::wire::{self, StandingKind};
use privacy_lbs::system::{
    Durability, DurabilitySink, EngineConfig, EngineOp, JournalRecord, LogSync, MobileUser,
    PrivacyAwareSystem, ShardedEngine, Stage, UserId,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------------
// Test hygiene: every run gets its own scratch directory, cleaned up by
// a drop guard even when an assertion panics mid-test.
// ---------------------------------------------------------------------

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

struct TempDir {
    path: PathBuf,
}

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("lbsp-persistence-{tag}-{}-{n}", std::process::id()));
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

// ---------------------------------------------------------------------
// The mixed workload, split at the crash point.
// ---------------------------------------------------------------------

fn world() -> Rect {
    Rect::new_unchecked(0.0, 0.0, 1.0, 1.0)
}

fn profile(k: u32) -> PrivacyProfile {
    PrivacyProfile::uniform(CloakRequirement::k_only(k)).expect("valid profile")
}

fn wave(n: u64, salt: u64) -> Vec<(UserId, Point, SimTime)> {
    (0..n)
        .map(|i| {
            let x = (((i + salt) as f64 * 0.618_033_988_749) % 1.0).min(0.999);
            let y = (((i + 3 * salt) as f64 * 0.414_213_562_373) % 1.0).min(0.999);
            (i % 32, Point::new(x, y), SimTime::from_secs(salt as f64))
        })
        .collect()
}

/// Everything that happens before the crash: registrations, public
/// data, a first update wave, standing queries.
fn phase_before(engine: &mut ShardedEngine) -> (u64, u64) {
    for i in 0..32u64 {
        engine.register(i, profile(3 + (i % 3) as u32));
    }
    let objects: Vec<PublicObject> = (0..25)
        .map(|i| {
            PublicObject::new(
                i,
                Point::new(((i as f64) * 0.041) % 1.0, ((i as f64) * 0.067) % 1.0),
                (i % 2) as u32,
            )
        })
        .collect();
    engine.load_public(objects);
    engine.process_updates(&wave(64, 1));
    let qc = engine.add_standing_count(Rect::new_unchecked(0.15, 0.15, 0.85, 0.85));
    let qr = engine.add_standing_range(5, 0.25);
    (qc, qr)
}

/// The batch in flight when the crash hits.
fn crash_batch() -> Vec<(UserId, Point, SimTime)> {
    wave(48, 11)
}

/// Everything after recovery, returning the run's wire output: every
/// cloaked-update frame of two more waves, both standing-query states,
/// the drained change list, and a range-query response.
fn phase_after(engine: &mut ShardedEngine, qc: u64, qr: u64) -> Vec<Vec<u8>> {
    let mut out: Vec<Vec<u8>> = Vec::new();
    for salt in [17u64, 23] {
        for frame in engine.process_updates_wire(&wave(64, salt)) {
            out.push(frame.expect("registered users cloak").to_vec());
        }
    }
    for (kind, id) in [(StandingKind::Count, qc), (StandingKind::Range, qr)] {
        let state = engine
            .standing_state(kind, id)
            .expect("standing query live");
        out.push(wire::encode_standing_state(&state).to_vec());
    }
    out.push(
        engine
            .take_standing_changes()
            .into_iter()
            .flat_map(|(kind, id)| {
                let mut row = vec![kind as u8];
                row.extend_from_slice(&id.to_le_bytes());
                row
            })
            .collect(),
    );
    let answer = engine
        .range_query(5, SimTime::from_secs(23.0), 0.25)
        .expect("user 5 has a cloak");
    out.push(answer.response.to_vec());
    out.push(journal::encode_engine_state(&engine.export_state()).to_vec());
    out
}

/// Highest-numbered WAL segment in `dir` (for appending the in-flight
/// record the way the crashed process's log thread would have).
fn last_segment_seq(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .expect("read log dir")
        .filter_map(|e| {
            let name = e.expect("dir entry").file_name();
            let name = name
                .to_str()?
                .strip_prefix("wal-")?
                .strip_suffix(".log")?
                .to_string();
            u64::from_str_radix(&name, 16).ok()
        })
        .max()
        .expect("log has segments")
}

#[test]
fn crashed_and_recovered_run_matches_uncrashed_run_byte_for_byte() {
    for workers in [1usize, 4] {
        // ----- Reference: the run that never crashes. -----
        let mut reference = ShardedEngine::new(EngineConfig::new(world()), workers);
        let (qc, qr) = phase_before(&mut reference);
        reference.process_updates(&crash_batch());
        let expected = phase_after(&mut reference, qc, qr);

        // ----- Durable run, hard-stopped mid-batch. -----
        let dir = TempDir::new("headline");
        let policy = Durability {
            snapshot_every: 24,
            fsync: true,
        };
        let opened = open_engine(dir.path(), EngineConfig::new(world()), workers, policy)
            .expect("fresh durable engine");
        assert!(!opened.recovered);
        let mut engine = opened.engine;
        let (qc2, qr2) = phase_before(&mut engine);
        assert_eq!((qc2, qr2), (qc, qr), "query ids are deterministic");
        // Hard stop: drop the engine (no graceful shutdown exists to
        // call — the log must already be complete at every instant).
        drop(engine);

        // The crash batch was journaled but never applied: append the
        // record exactly as the crashed process's WAL had it.
        {
            let next = recover_engine(dir.path(), workers)
                .expect("pre-crash log recovers")
                .next_op_index;
            let mut wal = Wal::create_segment(dir.path(), last_segment_seq(dir.path()) + 1, next)
                .expect("segment for the in-flight record");
            wal.append_record(&JournalRecord::Op(EngineOp::UpdateBatch {
                rows: crash_batch(),
            }))
            .expect("append in-flight batch");
            wal.sync_log().expect("sync in-flight batch");
        }

        // ----- Recover (read-only) and resume. -----
        let recovered = recover_engine(dir.path(), workers).expect("recovery succeeds");
        assert_eq!(recovered.users, 32);
        assert!(recovered.torn.is_none());
        let mut resumed = recovered.engine;
        let actual = phase_after(&mut resumed, qc, qr);

        assert_eq!(
            expected.len(),
            actual.len(),
            "workers={workers}: same number of wire frames"
        );
        for (i, (e, a)) in expected.iter().zip(&actual).enumerate() {
            assert_eq!(
                e, a,
                "workers={workers}: wire frame {i} differs after recovery"
            );
        }
    }
}

#[test]
fn recovery_is_identical_across_worker_counts() {
    // One log, recovered at 1 and 4 workers: byte-identical state and
    // byte-identical subsequent output.
    let dir = TempDir::new("workers");
    let policy = Durability {
        snapshot_every: u64::MAX,
        fsync: true,
    };
    let opened = open_engine(dir.path(), EngineConfig::new(world()), 2, policy)
        .expect("fresh durable engine");
    let mut engine = opened.engine;
    let (qc, qr) = phase_before(&mut engine);
    engine.process_updates(&crash_batch());
    drop(engine);

    let mut one = recover_engine(dir.path(), 1).expect("recover at 1 worker");
    let mut four = recover_engine(dir.path(), 4).expect("recover at 4 workers");
    assert_eq!(
        journal::encode_engine_state(&one.engine.export_state()),
        journal::encode_engine_state(&four.engine.export_state())
    );
    assert_eq!(
        phase_after(&mut one.engine, qc, qr),
        phase_after(&mut four.engine, qc, qr)
    );
}

#[test]
fn full_system_replays_through_open_system() {
    // The end-to-end system (anonymizer + server behind one facade) is
    // replay-only: same ops into a deterministically rebuilt system
    // must converge on the same answers.
    let secret = 0xA11CE;
    let objects: Vec<PublicObject> = (0..12)
        .map(|i| PublicObject::new(i, Point::new(((i as f64) * 0.083) % 1.0, 0.35), 0))
        .collect();
    let make = || PrivacyAwareSystem::new(QuadCloak::new(world(), 6), secret, objects.clone());

    // Reference: never crashes.
    let mut reference = make();
    let drive = |sys: &mut PrivacyAwareSystem<QuadCloak>| {
        for i in 0..24u64 {
            sys.register_user(MobileUser::active(i, profile(4)));
        }
        for (id, p, t) in wave(48, 3) {
            let _ = sys.process_update(id, p, t);
        }
        sys.add_standing_count(Rect::new_unchecked(0.2, 0.2, 0.8, 0.8));
        for (id, p, t) in wave(48, 9) {
            let _ = sys.process_update(id, p, t);
        }
    };
    drive(&mut reference);

    // Durable run: drive, hard-stop, reopen, compare live behavior.
    let dir = TempDir::new("system");
    let policy = Durability::default();
    {
        let opened = open_system(dir.path(), make, policy).expect("fresh durable system");
        assert!(!opened.recovered);
        let mut sys = opened.system;
        drive(&mut sys);
    }
    let reopened = open_system(dir.path(), make, policy).expect("system recovers");
    assert!(reopened.recovered);
    assert!(reopened.ops_replayed > 0);
    let mut sys = reopened.system;

    assert_eq!(sys.user_count(), reference.user_count());
    assert_eq!(sys.server_stats().updates, reference.server_stats().updates);
    // Same queries, same answers.
    for id in [0u64, 5, 11, 17] {
        let a = sys.private_range_query(id, 0.2, SimTime::from_secs(9.0));
        let b = reference.private_range_query(id, 0.2, SimTime::from_secs(9.0));
        match (a, b) {
            (Ok(x), Ok(y)) => {
                assert_eq!(x.candidates, y.candidates, "user {id} candidates differ");
                assert_eq!(x.cloak, y.cloak, "user {id} cloak differs");
            }
            (Err(_), Err(_)) => {}
            (x, y) => panic!("user {id}: recovered {x:?} vs reference {y:?} disagree"),
        }
    }
    // And both keep evolving identically.
    for (id, p, t) in wave(24, 31) {
        let a = sys.process_update(id, p, t);
        let b = reference.process_update(id, p, t);
        assert_eq!(a.is_ok(), b.is_ok(), "user {id} post-recovery update");
        assert_eq!(a.ok(), b.ok(), "user {id} post-recovery cloak");
    }
}

/// Completed WAL fsyncs, as a STATS scrape reports them.
fn scraped_wal_fsyncs(client: &mut NetClient) -> u64 {
    let Reply::Stats(bytes) = client.stats().expect("stats round trip") else {
        panic!("scrape did not return a stats snapshot");
    };
    let snapshot = wire::decode_stats_snapshot(&bytes).expect("decodable snapshot");
    let slot = Stage::ALL
        .iter()
        .position(|&s| s == Stage::WalFsync)
        .expect("wal_fsync is a stage");
    snapshot.stages[slot].count
}

/// Replies of a fixed set of private range queries.
fn probe_replies(client: &mut NetClient) -> Vec<Vec<u8>> {
    (0..8u64)
        .map(|user| {
            match client
                .range_query(user * 4, 0.25, SimTime::from_secs(40.0))
                .expect("probe round trip")
            {
                Reply::Candidates(bytes) => bytes,
                other => panic!("probe for user {}: {other:?}", user * 4),
            }
        })
        .collect()
}

#[test]
fn durable_server_fsyncs_once_per_update_and_recovers_identically() {
    const UPDATES: u64 = 40;
    let dir = TempDir::new("net");
    let bind = || {
        NetServer::bind_durable(
            "127.0.0.1:0",
            dir.path(),
            EngineConfig::new(world()),
            2,
            Durability::default(),
            NetConfig::with_workers(1),
        )
        .expect("durable server")
    };
    let connect = |server: &NetServer| {
        let client = NetClient::connect(server.local_addr()).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        client
    };

    let (server, report) = bind();
    assert!(!report.recovered);
    let mut client = connect(&server);
    for i in 0..32u64 {
        let reply = client
            .register(i, 3 + (i % 3) as u32, 0.0, f64::INFINITY)
            .expect("register round trip");
        assert_eq!(reply, Reply::Ok);
    }
    // A standing count this connection subscribes to, so each update
    // batch also drains standing changes.
    let reply = client
        .register_standing_count(Rect::new_unchecked(0.15, 0.15, 0.85, 0.85))
        .expect("standing round trip");
    assert!(matches!(reply, Reply::StandingRegistered(_)), "{reply:?}");

    // One update in flight at a time: every request is its own engine
    // crossing, and each crossing is one fsync, drain included.
    let before = scraped_wal_fsyncs(&mut client);
    for (id, p, t) in wave(UPDATES, 5) {
        let reply = client.update(id, p, t).expect("update round trip");
        assert!(matches!(reply, Reply::Cloaked(_)), "{reply:?}");
    }
    assert_eq!(scraped_wal_fsyncs(&mut client) - before, UPDATES);
    let probes = probe_replies(&mut client);
    drop(client);
    drop(server.shutdown());

    // Restart on the same directory: same users, same answers.
    let (server, report) = bind();
    assert!(report.recovered);
    assert_eq!(report.users, 32);
    let mut client = connect(&server);
    assert_eq!(probe_replies(&mut client), probes);
}

/// An in-memory journal whose next sync, once armed, announces that it
/// started and then blocks until the test releases it.
#[derive(Clone, Default)]
struct HeldSync {
    gate: Arc<(Mutex<Hold>, Condvar)>,
}

#[derive(Default)]
struct Hold {
    armed: bool,
    holding: bool,
    released: bool,
}

impl HeldSync {
    fn update(&self, change: impl FnOnce(&mut Hold)) {
        let (lock, cv) = &*self.gate;
        change(&mut lock.lock().unwrap());
        cv.notify_all();
    }

    fn wait_until_holding(&self) {
        let (lock, cv) = &*self.gate;
        let (hold, timeout) = cv
            .wait_timeout_while(lock.lock().unwrap(), Duration::from_secs(10), |h| {
                !h.holding
            })
            .unwrap();
        assert!(
            !timeout.timed_out() && hold.holding,
            "the update never synced"
        );
    }
}

struct ReleaseOnDrop(HeldSync);

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        self.0.update(|h| h.released = true);
    }
}

impl LogSync for HeldSync {
    fn sync(&mut self) -> std::io::Result<()> {
        let (lock, cv) = &*self.gate;
        let mut hold = lock.lock().unwrap();
        if std::mem::take(&mut hold.armed) {
            hold.holding = true;
            cv.notify_all();
            while !hold.released {
                hold = cv.wait(hold).unwrap();
            }
        }
        Ok(())
    }
}

impl DurabilitySink for HeldSync {
    fn append(&mut self, _: &JournalRecord) -> std::io::Result<()> {
        Ok(())
    }
    fn syncer(&self) -> Box<dyn LogSync> {
        Box::new(self.clone())
    }
    fn snapshot(&mut self, _: &[u8]) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn no_reply_leaves_before_the_state_it_saw_is_durable() {
    let moved = (5u64, Point::new(0.52, 0.48), SimTime::from_secs(50.0));
    let (querier, radius, at) = (9u64, 0.25, SimTime::from_secs(50.0));

    let mut reference = ShardedEngine::new(EngineConfig::new(world()), 2);
    phase_before(&mut reference);
    let expect_update = match &reference.process_updates(&[moved])[..] {
        [Ok(update)] => wire::encode_cloaked_update(update).to_vec(),
        other => panic!("reference update: {other:?}"),
    };
    let expect_query = reference
        .range_query(querier, at, radius)
        .expect("querier has a cloak")
        .response
        .to_vec();

    let sink = HeldSync::default();
    let mut engine = ShardedEngine::new(EngineConfig::new(world()), 2);
    engine.attach_durability(Durability::default(), Box::new(sink.clone()));
    phase_before(&mut engine);
    // Two poller shards, one connection each: B's query is not queued
    // behind A's update on the same shard thread.
    let server = NetServer::bind("127.0.0.1:0", engine, NetConfig::with_workers(2)).expect("bind");
    let connect = || {
        let mut client = NetClient::connect(server.local_addr()).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        assert!(matches!(client.ping(b"up"), Ok(Reply::Pong(_))));
        client
    };
    let (mut a, mut b) = (connect(), connect());
    // Dropped before the server, so a failed assertion releases the
    // held sync instead of hanging the shutdown.
    let _release = ReleaseOnDrop(sink.clone());

    // A's update is staged and applied, then its sync is held open.
    sink.update(|h| h.armed = true);
    let updater = std::thread::spawn(move || a.update(moved.0, moved.1, moved.2));
    sink.wait_until_holding();

    // B's query sees the state A's update produced, so its reply must
    // wait for A's records.
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let _ = tx.send(b.range_query(querier, radius, at));
    });
    assert!(
        rx.recv_timeout(Duration::from_millis(300)).is_err(),
        "a query reply left while the update it reflects was not durable"
    );

    sink.update(|h| h.released = true);
    let query = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("query reply after the sync")
        .expect("query round trip");
    let update = updater.join().unwrap().expect("update round trip");
    reader.join().unwrap();
    assert_eq!(update, Reply::Cloaked(expect_update));
    assert_eq!(query, Reply::Candidates(expect_query));
    drop(server.shutdown());
}
