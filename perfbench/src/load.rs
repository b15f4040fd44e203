//! Load generation: the paced open loop, the closed loop, and the
//! request spans recorded around every call into the client.

use crate::gen::Op;
use lbsp_core::wire;
use lbsp_net::{NetClient, Reply};
use std::io;
use std::time::{Duration, Instant};

/// A monotonic clock the paced loop reads and waits on.
pub trait Clock {
    /// Time since the clock's epoch.
    fn now(&self) -> Duration;
    /// Returns once `now() >= t` (at once when `t` already passed).
    fn wait_until(&self, t: Duration);
}

/// The wall clock, measured from a fixed epoch.
pub struct WallClock(pub Instant);

/// Below this distance from a due time the generator spins instead of
/// sleeping: a sleep can overshoot by tens of µs, and that overshoot
/// would be charged to the request's latency.
const SPIN: Duration = Duration::from_micros(200);

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }
    fn wait_until(&self, t: Duration) {
        let now = self.now();
        if t > now + SPIN {
            std::thread::sleep(t - now - SPIN);
        }
        while self.now() < t {
            std::hint::spin_loop();
        }
    }
}

/// How one request went, on the run's clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// When the request was due.
    pub due: Duration,
    /// When the generator could send it: its due time, or the previous
    /// reply on the connection when that came later.
    pub ready: Duration,
    /// When it was sent.
    pub sent: Duration,
    /// When its reply arrived.
    pub done: Duration,
    /// Whether it completed OK.
    pub ok: bool,
}

impl Timing {
    /// Latency charged from the due time (µs).
    pub fn latency_us(&self) -> f64 {
        (self.done.saturating_sub(self.due)).as_secs_f64() * 1e6
    }
    /// How late the generator itself sent it, beyond the wait for the
    /// previous reply that `latency_us` already charges (µs).
    pub fn late_us(&self) -> f64 {
        (self.sent.saturating_sub(self.ready)).as_secs_f64() * 1e6
    }
    /// Time spent queued behind earlier requests on the connection (µs).
    pub fn queued_us(&self) -> f64 {
        (self.ready.saturating_sub(self.due)).as_secs_f64() * 1e6
    }
}

/// Issues request `i` at `due[i]` — or as soon as the previous one
/// completed, when that is later — and times each one from its due
/// time, so a stall is charged to every request queued behind it.
pub fn paced<C: Clock>(
    clock: &C,
    due: &[Duration],
    mut issue: impl FnMut(usize) -> bool,
) -> Vec<Timing> {
    let mut prev_done = Duration::ZERO;
    due.iter()
        .enumerate()
        .map(|(i, &due)| {
            let ready = due.max(prev_done);
            clock.wait_until(due);
            let sent = clock.now();
            let ok = issue(i);
            prev_done = clock.now();
            Timing {
                due,
                ready,
                sent,
                done: prev_done,
                ok,
            }
        })
        .collect()
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The reply the request expects.
    Ok,
    /// An error reply, a route failure, a timeout or a transport error.
    Failed,
}

/// A reply of the wrong kind for its request: the run's outputs are
/// wrong, so it stops without reporting numbers.
#[derive(Debug)]
pub struct WrongReply(pub String);

/// Sends one request and checks its reply kind. Standing-query deltas
/// that arrived meanwhile are counted into `deltas`.
pub fn issue(
    client: &mut NetClient,
    op: &Op,
    radius: f64,
    deltas: &mut u64,
) -> Result<Outcome, WrongReply> {
    let (reply, want) = match *op {
        Op::Update { user, pos, time } => (client.update(user, pos, time), "cloaked update"),
        Op::Query { user, time } => (client.range_query(user, radius, time), "candidates"),
    };
    *deltas += client.take_standing_deltas().len() as u64;
    match reply {
        Ok(Reply::Cloaked(_)) if matches!(op, Op::Update { .. }) => Ok(Outcome::Ok),
        Ok(Reply::Candidates(_)) if matches!(op, Op::Query { .. }) => Ok(Outcome::Ok),
        Ok(Reply::Error(_)) | Err(_) => Ok(Outcome::Failed),
        Ok(other) => Err(WrongReply(format!("{op:?} expected {want}, got {other:?}"))),
    }
}

/// Checks that `reply` is what `want` names; a transport error is a
/// plain I/O error.
pub fn expect_reply(reply: io::Result<Reply>, want: &str) -> Result<Reply, String> {
    let reply = reply.map_err(|e| format!("{want}: transport error: {e}"))?;
    let fits = matches!(
        (&reply, want),
        (Reply::Ok, "ok")
            | (Reply::Cloaked(_), "cloaked")
            | (Reply::Candidates(_), "candidates")
            | (Reply::Pong(_), "pong")
            | (Reply::Stats(_), "stats")
            | (Reply::StandingRegistered(_), "standing")
    );
    if fits {
        Ok(reply)
    } else {
        Err(format!("expected a {want} reply, got {reply:?}"))
    }
}

/// Scrapes a server's registry over the wire.
pub fn scrape(client: &mut NetClient) -> Result<lbsp_core::RegistrySnapshot, String> {
    match expect_reply(client.stats(), "stats")? {
        Reply::Stats(bytes) => wire::decode_stats_snapshot(&bytes)
            .ok_or_else(|| "malformed STATS snapshot".to_string()),
        _ => unreachable!("expect_reply checked the kind"),
    }
}

/// Closed-loop tallies of one connection.
#[derive(Debug, Clone, Default)]
pub struct Closed {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Updates acknowledged.
    pub updates_ok: u64,
    /// When each request that completed OK within the latency limit
    /// completed, on the run's clock.
    pub good: Vec<Duration>,
}

/// Issues `ops` back to back until `deadline`, recording a span per
/// request into `spans` when tracing.
#[allow(clippy::too_many_arguments)]
pub fn closed(
    client: &mut NetClient,
    ops: &[Op],
    radius: f64,
    epoch: Instant,
    deadline: Duration,
    limit: Duration,
    deltas: &mut u64,
    mut spans: Option<&mut Vec<crate::trace::Span>>,
) -> Result<Closed, WrongReply> {
    let mut t = Closed::default();
    for op in ops {
        let start = epoch.elapsed();
        if start >= deadline {
            break;
        }
        let outcome = issue(client, op, radius, deltas)?;
        let end = epoch.elapsed();
        t.attempted += 1;
        match outcome {
            Outcome::Ok => {
                if matches!(op, Op::Update { .. }) {
                    t.updates_ok += 1;
                }
                if end - start <= limit {
                    t.good.push(end);
                }
            }
            Outcome::Failed => t.failed += 1,
        }
        if let Some(spans) = spans.as_deref_mut() {
            spans.push(crate::trace::Span::request(op, "closed", start, end));
        }
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to, and that can be told to
    /// oversleep its next wait.
    struct FakeClock {
        now: Cell<Duration>,
        oversleep: Cell<Duration>,
    }

    impl FakeClock {
        fn new() -> FakeClock {
            FakeClock {
                now: Cell::new(Duration::ZERO),
                oversleep: Cell::new(Duration::ZERO),
            }
        }
        fn advance(&self, d: Duration) {
            self.now.set(self.now.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.now.get()
        }
        fn wait_until(&self, t: Duration) {
            if t > self.now.get() {
                self.now.set(t + self.oversleep.take());
            }
        }
    }

    #[test]
    fn a_stall_is_charged_to_later_requests_from_their_due_times() {
        let ms = Duration::from_millis;
        let clock = FakeClock::new();
        // Due every 1 ms; each request takes 0.1 ms except request 2,
        // which stalls for 3.5 ms.
        let due: Vec<Duration> = (0..8).map(ms).collect();
        let t = paced(&clock, &due, |i| {
            clock.advance(if i == 2 {
                ms(3) + ms(1) / 2
            } else {
                ms(1) / 10
            });
            true
        });
        let us = |f: fn(&Timing) -> f64| t.iter().map(|t| f(t).round()).collect::<Vec<_>>();
        // Request 2 is sent on time and takes 3.5 ms; request 3 (due at
        // 3 ms) waits until 5.5 ms, 4 and 5 queue behind it, and the
        // backlog drains by request 6.
        assert_eq!(
            us(Timing::latency_us),
            [100.0, 100.0, 3500.0, 2600.0, 1700.0, 800.0, 100.0, 100.0]
        );
        assert_eq!(
            us(Timing::queued_us),
            [0.0, 0.0, 0.0, 2500.0, 1600.0, 700.0, 0.0, 0.0]
        );
        // The generator itself kept to its schedule.
        assert_eq!(us(Timing::late_us), [0.0; 8]);
    }

    #[test]
    fn a_late_generator_is_reported_as_late() {
        let ms = Duration::from_millis;
        let clock = FakeClock::new();
        let due: Vec<Duration> = (0..4).map(ms).collect();
        // The generator oversleeps by 0.3 ms before request 2 goes out.
        let t = paced(&clock, &due, |i| {
            if i == 1 {
                clock.oversleep.set(ms(3) / 10);
            }
            clock.advance(ms(1) / 10);
            true
        });
        let late: Vec<f64> = t.iter().map(|t| t.late_us().round()).collect();
        let lat: Vec<f64> = t.iter().map(|t| t.latency_us().round()).collect();
        assert_eq!(late, [0.0, 0.0, 300.0, 0.0]);
        assert_eq!(lat, [100.0, 100.0, 400.0, 100.0]);
    }
}
