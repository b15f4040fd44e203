//! The full privacy-aware LBS architecture (Fig. 1 of the paper).
//!
//! Three entities, wired together exactly as the paper draws them:
//!
//! ```text
//!  mobile users ──(exact locations, privacy profiles)──▶ Location Anonymizer
//!                                                            │
//!                                             (cloaked regions, pseudonyms)
//!                                                            ▼
//!  untrusted third parties ──(public queries)──▶ privacy-aware DB server
//!  mobile users ◀──(candidate answers)────────────────────────┘
//! ```
//!
//! * [`MobileUser`] — a device-side identity: mode (passive / active),
//!   privacy profile, and the *client-side refinement* step that turns a
//!   candidate list into an exact answer locally.
//! * [`PrivacyAwareSystem`] — the end-to-end pipeline: anonymizer +
//!   public/private stores + query processors + continuous queries.
//! * [`wire`] — the compact binary encoding used on the two hops
//!   (user → anonymizer and anonymizer → server), which doubles as an
//!   executable proof of what information crosses each trust boundary.
//! * [`metrics`] — QoS/performance instrumentation used by every
//!   experiment (cloak areas, candidate-set sizes, latencies).
//! * [`group_commit`] — the WAL group-commit point: a durable engine
//!   crossing stages under the engine lock and waits for its fsync
//!   after releasing it.
//! * [`locks`] — the ordered lock registry plus order-checked
//!   `TrackedMutex`/`TrackedRwLock` wrappers (debug builds panic on
//!   lock-order inversions and record hold-time histograms).
//! * [`SimulationEngine`] — drives a synthetic population through the
//!   system over simulated time, applying temporal profiles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod group_commit;
// Journal payloads are re-read from disk during recovery — exactly as
// untrusted as network bytes, so the wire rules apply.
#[deny(clippy::cast_possible_truncation, clippy::indexing_slicing)]
pub mod journal;
pub mod locks;
pub mod metrics;
// Observability snapshots cross the trust boundary to remote scrapers,
// and the registry records on hot paths: keep it panic-free.
pub mod obs;
mod sim;
mod standing;
mod system;
mod user;
// Hostile-input surface (decoders run on network bytes): truncating
// casts and panicking indexing are hard errors here.
#[deny(clippy::cast_possible_truncation, clippy::indexing_slicing)]
pub mod wire;

pub use engine::{
    EngineConfig, ExecutionMode, RangeQueryAnswer, ReplayScheduler, ShardedEngine, WorkerPool,
};
pub use group_commit::{CommitTicket, LogSync};
pub use journal::{Durability, DurabilitySink, EngineOp, EngineState, JournalRecord};
pub use locks::{LockRank, TrackedMutex, TrackedRwLock};
pub use obs::{Histogram, HistogramSnapshot, MetricsRegistry, RegistrySnapshot, Stage};
pub use sim::{SimulationConfig, SimulationEngine, TickReport};
pub use standing::{
    StandingPrivateRanges, StandingQueryId, StandingRangeEntryState, StandingRangesState,
};
pub use system::{NnQueryOutcome, PrivacyAwareSystem, RangeQueryOutcome};
pub use user::{MobileUser, UserMode};

/// Identifier for a mobile user (mirrors `lbsp_mobility::UserId`).
pub type UserId = u64;
