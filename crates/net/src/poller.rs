//! The sharded readiness loop at the heart of [`crate::NetServer`].
//!
//! Std-only event-driven serving: with no `libc` (and `unsafe`
//! forbidden) there is no `epoll`, so readiness is discovered by
//! *sweeping* — each of N poller shards owns a set of **nonblocking**
//! sockets and loops over them, pulling whatever bytes are available,
//! writing whatever the sockets will take, and sleeping only when a
//! whole sweep made no progress. A shard serves hundreds of
//! connections from one thread; idle connections cost one nonblocking
//! `read` per sweep instead of a dedicated blocked thread each, and
//! the sweep cadence (bounded by `read_poll`) is paid per *shard*, not
//! per connection.
//!
//! Each connection keeps a resumable [`FrameReader`], so a frame split
//! across `WouldBlock` boundaries at any byte offset resumes exactly
//! where it stopped. Frames completed during one read sweep are
//! collected in arrival order and processed together: contiguous runs
//! of `EXACT_UPDATE` frames — the hot path of the paper's workload —
//! become *one* `stage_updates_and_drain` engine crossing, so a
//! single lock acquisition and one WAL fsync amortize every update the
//! sweep found ready (see `handle_update_batch` in the server module).
//! On a durable engine the shard waits for that fsync after releasing
//! the engine lock, so another shard's crossing runs while this one's
//! records reach the disk; no reply or standing delta leaves before
//! every record behind the state it reflects is durable.
//!
//! Fairness: the read sweep starts at a rotating offset and takes at
//! most [`FRAMES_PER_SWEEP`] frames per connection per sweep, so one
//! firehose client cannot starve its shard-mates. A connection whose
//! outbound queue is at its bound is not read at all (read-gating):
//! backpressure propagates to the peer's socket instead of growing
//! server memory.
//!
//! The disconnect doctrine matches the threaded server this replaced:
//!
//! * **BadFrame** — protocol violation from the reader (zero,
//!   oversized, or truncated frame): counted in `frames_rejected`.
//! * **Slow** — the socket write stalled past `write_timeout`, or the
//!   outbound queue stayed over its bound past `backpressure_timeout`:
//!   counted in `slow_disconnects`, pending output discarded.
//! * **Idle** — no complete frame within `idle_timeout`: counted in
//!   `idle_disconnects`.
//! * **Normal** — peer EOF or graceful drain; buffered replies are
//!   flushed before the socket closes.
//!
//! Shutdown drains: a shard that sees the shutdown flag gives every
//! connection up to `drain_grace` to finish the requests already on
//! its socket (two consecutive quiet polls with nothing buffered and
//! nothing queued = drained), then exits once its connection set is
//! empty and the acceptor has hung up.

use crate::frame::{frame_bytes, Frame, FrameReader, Poll};
use crate::server::{
    handle_request, handle_update_batch, unsubscribe_connection, CloseReason, NetConfig, Outbound,
    SharedSubs,
};
use lbsp_core::metrics::NetCounters;
use lbsp_core::{wire, MetricsRegistry, ShardedEngine, Stage, TrackedMutex};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Frames one connection may contribute to a single read sweep before
/// the shard moves on (fairness bound; also caps how far the outbound
/// queue can overshoot its bound within one sweep).
pub(crate) const FRAMES_PER_SWEEP: usize = 32;

/// One outbound frame, already encoded, with a resumable write offset —
/// the nonblocking mirror of the old writer thread's queue slot.
struct OutFrame {
    bytes: Vec<u8>,
    written: usize,
    enqueued: Instant,
}

/// One nonblocking connection owned by a shard.
struct Conn {
    stream: TcpStream,
    conn_id: u64,
    reader: FrameReader,
    outbound: VecDeque<OutFrame>,
    /// Best-effort standing-delta pushes from *other* connections'
    /// requests (the sender half lives in the subscription registry).
    push_rx: mpsc::Receiver<Outbound>,
    last_frame: Instant,
    /// When the current front-of-queue write first hit `WouldBlock`.
    stalled_since: Option<Instant>,
    /// Decode time of the frame currently in flight, accumulated only
    /// over polls that actually consumed bytes — a poll that found the
    /// socket empty is the connection being quiet, not decode work.
    decode_acc: Duration,
    /// Consecutive read polls that consumed nothing (drain detector).
    quiet_streak: u32,
    close: Option<CloseReason>,
}

/// Wraps a fresh connection from the acceptor into shard state:
/// nonblocking mode, a frame reader, and a registered delta-push queue.
fn adopt(
    stream: TcpStream,
    cfg: &NetConfig,
    subs: &SharedSubs,
    conn_ids: &Arc<AtomicU64>,
) -> io::Result<Conn> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true).ok();
    let conn_id = conn_ids.fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = mpsc::sync_channel::<Outbound>(cfg.outbound_bound.max(1));
    subs.lock().senders.insert(conn_id, tx);
    Ok(Conn {
        stream,
        conn_id,
        reader: FrameReader::new(cfg.max_frame),
        outbound: VecDeque::new(),
        push_rx: rx,
        last_frame: Instant::now(),
        stalled_since: None,
        decode_acc: Duration::ZERO,
        quiet_streak: 0,
        close: None,
    })
}

/// Encodes and queues one outbound frame on the connection that owns
/// `cid`. An encoding failure (reply larger than `max_frame`) is
/// treated like a writer failure: the connection is marked slow.
fn enqueue_outbound(
    conns: &mut [Conn],
    index: &HashMap<u64, usize>,
    cid: u64,
    out: Outbound,
    cfg: &NetConfig,
) {
    let Some(&slot) = index.get(&cid) else {
        return;
    };
    let Some(conn) = conns.get_mut(slot) else {
        return;
    };
    let (tag, payload) = out;
    match frame_bytes(tag, &payload, cfg.max_frame) {
        Ok(bytes) => conn.outbound.push_back(OutFrame {
            bytes,
            written: 0,
            enqueued: Instant::now(),
        }),
        Err(_) => conn.close = Some(CloseReason::Slow),
    }
}

/// Serves one shard's connection set to completion. Adopts connections
/// from `incoming` until the acceptor hangs up; exits after shutdown
/// once every connection has drained (bounded by `drain_grace`).
pub(crate) fn run_shard(
    engine: Arc<TrackedMutex<ShardedEngine>>,
    obs: Arc<MetricsRegistry>,
    cfg: NetConfig,
    shutdown: Arc<AtomicBool>,
    subs: SharedSubs,
    conn_ids: Arc<AtomicU64>,
    incoming: mpsc::Receiver<TcpStream>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut rotate: usize = 0;
    let mut spins: u32 = 0;
    let mut drain_deadline: Option<Instant> = None;
    let mut incoming_open = true;

    loop {
        let draining = shutdown.load(Ordering::Relaxed);
        if draining && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + cfg.drain_grace);
        }
        let mut did_work = false;

        // Phase 1: adopt connections handed over by the acceptor. A
        // connection that arrives after shutdown began is closed, not
        // served (same doctrine as the old worker pool).
        while incoming_open {
            match incoming.try_recv() {
                Ok(stream) => {
                    did_work = true;
                    if draining {
                        let _ = stream.shutdown(Shutdown::Both);
                        NetCounters::add(&obs.net().connections_closed, 1);
                        continue;
                    }
                    match adopt(stream, &cfg, &subs, &conn_ids) {
                        Ok(conn) => conns.push(conn),
                        Err(_) => NetCounters::add(&obs.net().connections_closed, 1),
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => incoming_open = false,
            }
        }

        // Phase 2: absorb standing-delta pushes from other connections'
        // requests (best-effort: the bounded channel already dropped
        // anything beyond the queue bound at send time). Drained
        // *before* this sweep's requests are processed so a push that
        // was already waiting is written ahead of any reply produced
        // by this sweep — a subscriber that sends a request after the
        // delta was routed reads the delta first, as it did when
        // pushes landed directly on the old writer queue.
        for conn in &mut conns {
            while let Ok((tag, payload)) = conn.push_rx.try_recv() {
                did_work = true;
                match frame_bytes(tag, &payload, cfg.max_frame) {
                    Ok(bytes) => conn.outbound.push_back(OutFrame {
                        bytes,
                        written: 0,
                        enqueued: Instant::now(),
                    }),
                    Err(_) => conn.close = Some(CloseReason::Slow),
                }
            }
        }

        // Phase 3: read sweep. Rotating start offset + a per-connection
        // frame cap keep one busy peer from starving the rest; ready
        // frames are collected in arrival order for batch processing.
        let mut ready: Vec<(u64, Frame)> = Vec::new();
        let live = conns.len();
        for step in 0..live {
            let idx = rotate.wrapping_add(step) % live.max(1);
            let Some(conn) = conns.get_mut(idx) else {
                continue;
            };
            if conn.close.is_some() {
                continue;
            }
            // Read-gating: a connection whose replies are backed up is
            // not read further — backpressure lands on the peer's
            // socket, not on server memory.
            if conn.outbound.len() >= cfg.outbound_bound.max(1) {
                continue;
            }
            let mut taken = 0usize;
            while taken < FRAMES_PER_SWEEP {
                let before = conn.reader.buffered();
                let poll_start = Instant::now();
                match conn.reader.poll(&mut &conn.stream) {
                    Ok(Poll::Frame(frame)) => {
                        did_work = true;
                        obs.stage(Stage::FrameDecode)
                            .record_duration(conn.decode_acc + poll_start.elapsed());
                        conn.decode_acc = Duration::ZERO;
                        conn.last_frame = Instant::now();
                        conn.quiet_streak = 0;
                        NetCounters::add(&obs.net().bytes_in, frame.wire_len() as u64);
                        ready.push((conn.conn_id, frame));
                        taken = taken.saturating_add(1);
                    }
                    Ok(Poll::Pending) => {
                        if conn.reader.buffered() > before {
                            // Bytes arrived but the frame is still
                            // incomplete: this slice is decode work.
                            // A slice that consumed nothing is the
                            // connection sitting quiet — billing it
                            // here was the old frame-decode inflation
                            // bug.
                            conn.decode_acc = conn.decode_acc.saturating_add(poll_start.elapsed());
                            conn.quiet_streak = 0;
                            did_work = true;
                        } else {
                            conn.quiet_streak = conn.quiet_streak.saturating_add(1);
                        }
                        break;
                    }
                    Ok(Poll::Eof) => {
                        conn.close = Some(CloseReason::Normal);
                        break;
                    }
                    Err(e) => {
                        conn.close = Some(match e.kind() {
                            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof => {
                                CloseReason::BadFrame
                            }
                            _ => CloseReason::Normal,
                        });
                        break;
                    }
                }
            }
            if conn.close.is_none() && !draining && conn.last_frame.elapsed() > cfg.idle_timeout {
                conn.close = Some(CloseReason::Idle);
            }
        }
        rotate = rotate.wrapping_add(1);

        // Phase 4: process the ready frames in arrival order. Contiguous
        // runs of EXACT_UPDATE collapse into one engine crossing; every
        // other tag is handled singly, exactly as the worker loop did.
        // Frames read before a connection's close was discovered still
        // get replies — they were accepted, and Normal/BadFrame closes
        // flush before the socket shuts.
        if !ready.is_empty() {
            did_work = true;
            let index: HashMap<u64, usize> = conns
                .iter()
                .enumerate()
                .map(|(i, c)| (c.conn_id, i))
                .collect();
            let mut it = ready.into_iter().peekable();
            while let Some((cid, frame)) = it.next() {
                if frame.tag == wire::tag::EXACT_UPDATE {
                    let mut batch: Vec<(u64, Frame)> = vec![(cid, frame)];
                    while it
                        .peek()
                        .is_some_and(|(_, f)| f.tag == wire::tag::EXACT_UPDATE)
                    {
                        if let Some(next) = it.next() {
                            batch.push(next);
                        }
                    }
                    for (to, out) in handle_update_batch(&engine, &obs, &subs, batch) {
                        enqueue_outbound(&mut conns, &index, to, out, &cfg);
                    }
                } else {
                    let frames = handle_request(&engine, &obs, frame, cid, &subs);
                    NetCounters::add(&obs.net().requests_served, 1);
                    if frames.last().is_some_and(|(t, _)| *t == wire::tag::ERROR) {
                        NetCounters::add(&obs.net().errors_returned, 1);
                    }
                    for out in frames {
                        enqueue_outbound(&mut conns, &index, cid, out, &cfg);
                    }
                }
            }
        }

        // Phase 5: write sweep. Each connection writes as much as its
        // socket will take; a stall past `write_timeout` or a queue
        // stuck over its bound past `backpressure_timeout` marks the
        // consumer slow — even a connection already closing normally,
        // matching the old writer-thread doctrine.
        for conn in &mut conns {
            if matches!(conn.close, Some(CloseReason::Slow)) {
                continue;
            }
            loop {
                let Some(front) = conn.outbound.front_mut() else {
                    conn.stalled_since = None;
                    break;
                };
                let Some(remain) = front.bytes.get(front.written..) else {
                    conn.outbound.pop_front();
                    continue;
                };
                if remain.is_empty() {
                    conn.outbound.pop_front();
                    continue;
                }
                match (&conn.stream).write(remain) {
                    Ok(0) => {
                        conn.close = Some(CloseReason::Slow);
                        break;
                    }
                    Ok(n) => {
                        did_work = true;
                        conn.stalled_since = None;
                        front.written = front.written.saturating_add(n);
                        if front.written >= front.bytes.len() {
                            NetCounters::add(&obs.net().bytes_out, front.bytes.len() as u64);
                            obs.stage(Stage::OutboundWait)
                                .record_duration(front.enqueued.elapsed());
                            conn.outbound.pop_front();
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        let since = *conn.stalled_since.get_or_insert_with(Instant::now);
                        if since.elapsed() > cfg.write_timeout {
                            conn.close = Some(CloseReason::Slow);
                        }
                        break;
                    }
                    Err(_) => {
                        conn.close = Some(CloseReason::Slow);
                        break;
                    }
                }
            }
            if conn.close.is_none() {
                if let Some(front) = conn.outbound.front() {
                    if conn.outbound.len() > cfg.outbound_bound.max(1)
                        && front.enqueued.elapsed() > cfg.backpressure_timeout
                    {
                        conn.close = Some(CloseReason::Slow);
                    }
                }
            }
        }

        // Phase 6: graceful drain. A connection is drained when two
        // consecutive polls consumed nothing, no partial frame is
        // buffered, and every reply has been flushed; past the grace
        // deadline connections are closed regardless.
        let deadline_passed = drain_deadline.is_some_and(|d| Instant::now() > d);
        if draining {
            for conn in &mut conns {
                if conn.close.is_none()
                    && ((conn.quiet_streak >= 2
                        && conn.reader.buffered() == 0
                        && conn.outbound.is_empty())
                        || deadline_passed)
                {
                    conn.close = Some(CloseReason::Normal);
                }
            }
        }

        // Phase 7: finalize closes. Slow consumers are cut immediately
        // (their queue is the problem); every other reason flushes its
        // outbound first, unless the drain deadline has passed.
        let mut idx = 0;
        while idx < conns.len() {
            let should_close = conns.get(idx).is_some_and(|c| match &c.close {
                None => false,
                Some(CloseReason::Slow) => true,
                Some(_) => c.outbound.is_empty() || deadline_passed,
            });
            if !should_close {
                idx = idx.saturating_add(1);
                continue;
            }
            let conn = conns.swap_remove(idx);
            unsubscribe_connection(&subs, conn.conn_id);
            let _ = conn.stream.shutdown(Shutdown::Both);
            let counters = obs.net();
            match conn.close {
                Some(CloseReason::BadFrame) => NetCounters::add(&counters.frames_rejected, 1),
                Some(CloseReason::Slow) => NetCounters::add(&counters.slow_disconnects, 1),
                Some(CloseReason::Idle) => NetCounters::add(&counters.idle_disconnects, 1),
                _ => {}
            }
            NetCounters::add(&counters.connections_closed, 1);
            did_work = true;
        }

        // Exit: shutting down, everything drained, acceptor gone.
        if draining && conns.is_empty() && !incoming_open {
            break;
        }

        // Phase 8: adaptive backoff. A sweep that did anything resets
        // to hot spinning; consecutive empty sweeps escalate spin →
        // yield → sleep, capped at `read_poll` (which thereby bounds
        // idle-timeout detection and shutdown latency) and at 1 ms
        // while draining so the grace deadline is honored promptly.
        if did_work {
            spins = 0;
            continue;
        }
        spins = spins.saturating_add(1);
        if spins < 8 {
            std::hint::spin_loop();
        } else if spins < 64 {
            std::thread::yield_now();
        } else {
            let exp = spins.saturating_sub(64).min(8);
            let mut nap = Duration::from_micros(100u64 << exp);
            nap = nap.min(cfg.read_poll.max(Duration::from_micros(100)));
            if draining {
                nap = nap.min(Duration::from_millis(1));
            }
            std::thread::sleep(nap);
        }
    }
}
