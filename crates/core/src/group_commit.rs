//! Group commit: making journal records durable outside the engine lock.
//!
//! A durable engine crossing has two steps. **Stage**, under the engine
//! lock: append the crossing's journal records, apply them, and note the
//! log position reached. **Wait**, after the lock is released: make the
//! log durable through that position. The engine lock's hold time then
//! excludes the disk, and one connection's fsync overlaps the next
//! connection's engine work.
//!
//! [`GroupCommit`] is the one point every wait goes through:
//!
//! * an atomic durable position, so a wait with nothing pending returns
//!   without taking any lock;
//! * a leader mutex held across one [`LogSync::sync`] — a waiter that
//!   queued behind a leader whose sync started after the waiter's
//!   records were appended finds them durable and returns without a
//!   sync of its own;
//! * a file swap when the log rotates to a new segment;
//! * a poisoned state after a sync fails: the failing waiter and every
//!   later one get an error. A failed fsync may have dropped dirty
//!   pages, so a later successful sync proves nothing about them, and
//!   replying from that state could acknowledge a record no disk holds.
//!
//! The rule this serves: records are appended before they are applied,
//! under the engine lock; the sync runs after the lock is released; and
//! no reply or standing delta leaves until every record behind the state
//! it reflects is durable ([`CommitTicket::wait_durable`]).

use crate::locks::{LockRank, TrackedMutex};
use crate::obs::{MetricsRegistry, Stage};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Forces the records appended to one log file to stable storage. The
/// file-backed implementation lives in `lbsp-store`; tests inject
/// counting, blocking or failing ones.
pub trait LogSync: Send {
    /// Makes every record appended to this file so far durable.
    fn sync(&mut self) -> io::Result<()>;
}

/// The shared group-commit point of one journal (see the module docs).
/// Positions count the records appended through it.
pub(crate) struct GroupCommit {
    /// Records appended so far: the position a stage reaches. Bumped
    /// with `Release` after the record's write returned; the leader's
    /// `Acquire` load before its sync pairs with it, so the sync starts
    /// after every write it counts.
    appended: AtomicU64,
    /// Every record through this position is on stable storage. Raised
    /// with `Release` after a sync returned; a waiter's `Acquire` load
    /// pairs with it.
    durable: AtomicU64,
    /// Set by a failed sync; never cleared.
    poisoned: AtomicBool,
    /// The file syncs go to. Held by the leader across its sync, and by
    /// a segment rotation to swap the file.
    leader: TrackedMutex<Box<dyn LogSync>>,
}

impl GroupCommit {
    /// A commit point over `log`, with nothing appended yet.
    pub(crate) fn new(log: Box<dyn LogSync>) -> GroupCommit {
        GroupCommit {
            appended: AtomicU64::new(0),
            durable: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            leader: TrackedMutex::new(LockRank::WalCommit, log),
        }
    }

    /// Counts one record just appended to the log file and returns the
    /// position it reached. Call only after the append returned: the
    /// leader's next sync then covers it.
    pub(crate) fn note_append(&self) -> u64 {
        self.appended
            .fetch_add(1, Ordering::AcqRel)
            .saturating_add(1)
    }

    /// The position every record appended so far reaches.
    pub(crate) fn position(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    /// The position known to be durable.
    pub(crate) fn durable(&self) -> u64 {
        self.durable.load(Ordering::Acquire)
    }

    /// Blocks until every record through `pos` is durable. Returns at
    /// once when it already is; otherwise takes the leader lock and, if
    /// no earlier leader covered `pos`, runs one sync (timed as
    /// [`Stage::WalFsync`]) that covers everything appended before it
    /// started. Fails, now and forever after, once any sync has failed.
    pub(crate) fn sync_through(&self, pos: u64, obs: &MetricsRegistry) -> io::Result<()> {
        self.check_poisoned()?;
        if self.durable() >= pos {
            return Ok(());
        }
        let mut log = self.leader.lock();
        self.check_poisoned()?;
        if self.durable() >= pos {
            return Ok(());
        }
        let target = self.position();
        let start = Instant::now();
        if let Err(e) = log.sync() {
            self.poisoned.store(true, Ordering::Release);
            return Err(e);
        }
        obs.stage(Stage::WalFsync).record_duration(start.elapsed());
        self.durable.fetch_max(target, Ordering::AcqRel);
        Ok(())
    }

    /// Points later syncs at a new log file after a segment rotation.
    /// The caller must already have synced every record in the outgoing
    /// file, and must hold the engine lock so no append races the swap.
    pub(crate) fn swap_log(&self, log: Box<dyn LogSync>) {
        *self.leader.lock() = log;
    }

    fn check_poisoned(&self) -> io::Result<()> {
        if self.poisoned.load(Ordering::Acquire) {
            return Err(io::Error::other(
                "an earlier WAL sync failed; appended records may not be durable",
            ));
        }
        Ok(())
    }
}

impl std::fmt::Debug for GroupCommit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupCommit")
            .field("appended", &self.position())
            .field("durable", &self.durable())
            .field("poisoned", &self.poisoned.load(Ordering::Acquire))
            .finish()
    }
}

/// What a staged engine crossing, or a read of engine state, must wait
/// for before its reply leaves: the log position the state it saw
/// reaches. Empty for an engine without durability or with `fsync` off.
#[must_use = "a reply built from staged state must wait for its records"]
#[derive(Debug, Default)]
pub struct CommitTicket {
    at: Option<(Arc<GroupCommit>, u64)>,
}

impl CommitTicket {
    pub(crate) fn new(commit: Option<&Arc<GroupCommit>>) -> CommitTicket {
        CommitTicket {
            at: commit.map(|c| (Arc::clone(c), c.position())),
        }
    }

    /// Blocks until the ticket's position is durable. Call it after the
    /// engine lock is released. A failed sync is fail-stop, like every
    /// other durability failure: continuing would let a reply
    /// acknowledge state the log may not hold.
    pub fn wait_durable(self, obs: &MetricsRegistry) {
        if let Some((commit, pos)) = self.at {
            commit
                .sync_through(pos, obs)
                .expect("durability: WAL fsync failed");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts successful syncs; fails the first one when asked to.
    struct CountingSync {
        syncs: Arc<AtomicU64>,
        fail_once: bool,
    }

    impl CountingSync {
        fn boxed(syncs: &Arc<AtomicU64>, fail_once: bool) -> Box<dyn LogSync> {
            Box::new(CountingSync {
                syncs: Arc::clone(syncs),
                fail_once,
            })
        }
    }

    impl LogSync for CountingSync {
        fn sync(&mut self) -> io::Result<()> {
            if std::mem::take(&mut self.fail_once) {
                return Err(io::Error::other("injected sync failure"));
            }
            self.syncs.fetch_add(1, Ordering::AcqRel);
            Ok(())
        }
    }

    #[test]
    fn failed_sync_poisons_every_later_wait() {
        let syncs = Arc::new(AtomicU64::new(0));
        let commit = GroupCommit::new(CountingSync::boxed(&syncs, true));
        let obs = MetricsRegistry::new();
        let first = commit.note_append();
        assert!(commit.sync_through(first, &obs).is_err());
        // The file would sync now, but the commit point stays failed:
        // neither a new position nor the old one may be acknowledged.
        let second = commit.note_append();
        assert!(commit.sync_through(second, &obs).is_err());
        assert!(commit.sync_through(first, &obs).is_err());
        assert_eq!(syncs.load(Ordering::Acquire), 0);
        assert_eq!(commit.durable(), 0);
    }

    #[test]
    fn swapped_log_takes_the_next_sync() {
        let old = Arc::new(AtomicU64::new(0));
        let new = Arc::new(AtomicU64::new(0));
        let commit = GroupCommit::new(CountingSync::boxed(&old, false));
        let obs = MetricsRegistry::new();
        let pos = commit.note_append();
        commit.sync_through(pos, &obs).unwrap();
        commit.swap_log(CountingSync::boxed(&new, false));
        let pos = commit.note_append();
        commit.sync_through(pos, &obs).unwrap();
        // Already durable: no lock, no sync.
        commit.sync_through(pos, &obs).unwrap();
        assert_eq!(old.load(Ordering::Acquire), 1);
        assert_eq!(new.load(Ordering::Acquire), 1);
        assert_eq!(commit.durable(), 2);
        assert_eq!(obs.stage(Stage::WalFsync).count(), 2);
    }
}
