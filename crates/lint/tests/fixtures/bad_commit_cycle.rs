//! Bad fixture: a segment rotation takes the WAL commit lock while the
//! engine is held, and a durability waiter takes the engine while still
//! holding the commit lock. Together they close a two-rank cycle.

pub struct Server {
    engine: TrackedMutex<Vec<u64>>,
    leader: TrackedMutex<u64>,
}

impl Server {
    pub fn new() -> Server {
        Server {
            engine: TrackedMutex::new(LockRank::Engine, Vec::new()),
            leader: TrackedMutex::new(LockRank::WalCommit, 0),
        }
    }

    pub fn rotate(&self) {
        let staged = self.engine.lock();
        self.swap_log(staged.len() as u64);
    }

    fn swap_log(&self, seq: u64) {
        *self.leader.lock() = seq;
    }

    pub fn wait_durable(&self) -> usize {
        let synced = self.leader.lock();
        let engine = self.engine.lock();
        engine.len() + *synced as usize
    }
}
