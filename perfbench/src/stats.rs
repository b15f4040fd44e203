//! Sample statistics and `STATS` snapshot arithmetic.

use lbsp_core::metrics::NetCountersSnapshot;
use lbsp_core::obs::{HistogramSnapshot, RegistrySnapshot, Stage, HIST_BUCKETS, HIST_MIN_EXP};

/// The highest percentile reported for a timing.
pub const TAIL_Q: f64 = 0.99;
/// A reported tail percentile needs at least this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least a share `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail a sample supports: `TAIL_Q` when at least `TAIL_BEYOND`
/// samples lie beyond it, else the highest percentile that still has
/// `TAIL_BEYOND` beyond it. Returns `(quantile, value)`; a sample too
/// small for any tail reports its maximum as quantile 1.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n <= TAIL_BEYOND {
        return (1.0, sorted.last().copied().unwrap_or(0.0));
    }
    let rank = ((TAIL_Q * n as f64).ceil() as usize).min(n - TAIL_BEYOND);
    (rank as f64 / n as f64, sorted[rank - 1])
}

/// Samples per window of a windowed tail: enough for a p99 with
/// `TAIL_BEYOND` samples beyond it.
pub const TAIL_WINDOW: usize = 1_000;
/// A time slice counts toward a windowed median only with this many
/// samples in it.
pub const SLICE_MIN: usize = 10;

/// The tail of a time-ordered sample, robust to a burst confined to part
/// of it: the sample is cut into consecutive windows of `TAIL_WINDOW`
/// (the remainder joins the last window), each window's tail is taken
/// as [`tail`] does, and the median over windows is reported. Returns
/// `(quantile, value, windows)`.
pub fn windowed_tail(in_time_order: &[f64]) -> (f64, f64, usize) {
    let windows = (in_time_order.len() / TAIL_WINDOW).max(1);
    let mut q = TAIL_Q;
    let tails: Vec<f64> = (0..windows)
        .map(|i| {
            let end = if i + 1 == windows {
                in_time_order.len()
            } else {
                (i + 1) * TAIL_WINDOW
            };
            let mut w = in_time_order[i * TAIL_WINDOW..end].to_vec();
            w.sort_by(f64::total_cmp);
            let (wq, v) = tail(&w);
            q = q.min(wq);
            v
        })
        .collect();
    (q, median(&tails), windows)
}

/// The median of a timed sample, robust the same way: the median of
/// each `slice` of time holding at least `SLICE_MIN` samples, then the
/// median over those slices. `timed` pairs each sample with its time.
/// Returns `(value, slices)`.
pub fn windowed_median(timed: &[(f64, f64)], slice: f64) -> (f64, usize) {
    let mut v = timed.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let Some(&(t0, _)) = v.first() else {
        return (0.0, 0);
    };
    let mut medians = Vec::new();
    let mut start = 0;
    while start < v.len() {
        let k = ((v[start].0 - t0) / slice).floor();
        let end = v[start..]
            .iter()
            .position(|s| ((s.0 - t0) / slice).floor() != k)
            .map_or(v.len(), |p| start + p);
        if end - start >= SLICE_MIN {
            let values: Vec<f64> = v[start..end].iter().map(|s| s.1).collect();
            medians.push(median(&values));
        }
        start = end;
    }
    if medians.is_empty() {
        let values: Vec<f64> = v.iter().map(|s| s.1).collect();
        return (median(&values), 1);
    }
    (median(&medians), medians.len())
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Mean, 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The samples recorded into a histogram between two snapshots of it:
/// counts, sums and buckets subtract exactly. Minimum and maximum of
/// the interval are not recoverable, so they become the edges of the
/// lowest and highest non-empty bucket (the maximum also capped by the
/// later snapshot's lifetime maximum), which keeps percentile
/// interpolation inside the right buckets.
pub fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = HistogramSnapshot {
        count: after.count.saturating_sub(before.count),
        sum: after.sum - before.sum,
        ..HistogramSnapshot::default()
    };
    for (i, b) in d.buckets.iter_mut().enumerate() {
        *b = after.buckets[i].saturating_sub(before.buckets[i]);
    }
    let lo = d.buckets.iter().position(|&c| c > 0);
    let hi = d.buckets.iter().rposition(|&c| c > 0);
    if let (Some(lo), Some(hi)) = (lo, hi) {
        let edge = |i: usize| 2f64.powi(i as i32 + HIST_MIN_EXP);
        d.min = if lo == 0 { 0.0 } else { edge(lo) };
        d.max = if hi == HIST_BUCKETS - 1 {
            after.max
        } else {
            edge(hi + 1).min(after.max)
        };
    }
    d
}

/// Mean of a histogram, 0 when empty.
pub fn hist_mean(h: &HistogramSnapshot) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.sum / h.count as f64
    }
}

/// Percentile of a histogram, 0 when empty.
pub fn hist_pct(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        0.0
    } else {
        h.percentile(q)
    }
}

/// Counter-wise difference of two transport counter snapshots.
pub fn net_delta(after: &NetCountersSnapshot, before: &NetCountersSnapshot) -> NetCountersSnapshot {
    macro_rules! sub {
        ($($f:ident),*) => {
            NetCountersSnapshot { $($f: after.$f.saturating_sub(before.$f)),* }
        };
    }
    sub!(
        connections_accepted,
        connections_refused,
        connections_closed,
        requests_served,
        errors_returned,
        frames_rejected,
        slow_disconnects,
        idle_disconnects,
        bytes_in,
        bytes_out,
        route_failures,
        engine_batches,
        retryable_failures,
        reconnect_attempts,
        node_rejoins,
        resync_bytes,
        mirror_drops
    )
}

/// What one registry recorded between two snapshots of it.
#[derive(Debug, Clone, Default)]
pub struct Delta {
    /// Per-stage timing histograms, in `Stage::ALL` order (µs).
    pub stages: Vec<HistogramSnapshot>,
    /// Cloaked-region areas.
    pub cloak_area: HistogramSnapshot,
    /// Achieved anonymity levels.
    pub achieved_k: HistogramSnapshot,
    /// Candidate-set sizes.
    pub candidates: HistogramSnapshot,
    /// Standing queries touched per cloak update.
    pub standing_fanout: HistogramSnapshot,
    /// Update frames per engine crossing.
    pub batch_size: HistogramSnapshot,
    /// Transport counters.
    pub net: NetCountersSnapshot,
}

impl Delta {
    /// Subtracts `before` from `after`.
    pub fn between(after: &RegistrySnapshot, before: &RegistrySnapshot) -> Delta {
        Delta {
            stages: after
                .stages
                .iter()
                .zip(before.stages.iter())
                .map(|(a, b)| hist_delta(a, b))
                .collect(),
            cloak_area: hist_delta(&after.cloak_area, &before.cloak_area),
            achieved_k: hist_delta(&after.achieved_k, &before.achieved_k),
            candidates: hist_delta(&after.candidate_set_size, &before.candidate_set_size),
            standing_fanout: hist_delta(&after.standing_fanout, &before.standing_fanout),
            batch_size: hist_delta(&after.net_batch_size, &before.net_batch_size),
            net: net_delta(&after.net, &before.net),
        }
    }

    /// Adds another registry's delta (cluster nodes summed).
    pub fn absorb(&mut self, other: &Delta) {
        if self.stages.is_empty() {
            *self = other.clone();
            return;
        }
        for (a, b) in self.stages.iter_mut().zip(&other.stages) {
            a.merge(b);
        }
        self.cloak_area.merge(&other.cloak_area);
        self.achieved_k.merge(&other.achieved_k);
        self.candidates.merge(&other.candidates);
        self.standing_fanout.merge(&other.standing_fanout);
        self.batch_size.merge(&other.batch_size);
        self.net.requests_served += other.net.requests_served;
        self.net.engine_batches += other.net.engine_batches;
        self.net.bytes_in += other.net.bytes_in;
        self.net.bytes_out += other.net.bytes_out;
    }

    /// The histogram of one stage.
    pub fn stage(&self, s: Stage) -> &HistogramSnapshot {
        let i = Stage::ALL.iter().position(|x| *x == s).unwrap_or(0);
        &self.stages[i]
    }

    /// Total µs spent in every stage.
    pub fn stage_sum_us(&self) -> f64 {
        self.stages.iter().map(|h| h.sum).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsp_core::obs::Histogram;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 2,000 samples: p99 is rank 1,980 with 20 beyond — reported.
        let big: Vec<f64> = (1..=2_000).map(f64::from).collect();
        assert_eq!(tail(&big), (0.99, 1_980.0));
        // 1,000 samples: p99 is rank 990 with exactly 10 beyond.
        let edge: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(tail(&edge), (0.99, 990.0));
        // 500 samples: p99 would leave 5 beyond, so the tail falls
        // back to rank 490 (p98) with 10 beyond.
        let small: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(tail(&small), (0.98, 490.0));
        // Too small for any tail: the maximum, flagged as quantile 1.
        let tiny = [1.0, 2.0, 3.0];
        assert_eq!(tail(&tiny), (1.0, 3.0));
    }

    #[test]
    fn windowed_tail_ignores_a_burst_in_one_window() {
        // 5,000 samples in time order; window 2 holds a burst of 100
        // slow samples that would own the plain p99.
        let mut v: Vec<f64> = (0..5_000).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[2_000..2_100] {
            *x = 1e6;
        }
        let mut all = v.clone();
        all.sort_by(f64::total_cmp);
        assert_eq!(tail(&all).1, 1e6);
        assert_eq!(windowed_tail(&v), (0.99, 98.0, 5));
        // Fewer samples than one window: the plain tail rule applies.
        let few: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(windowed_tail(&few), (0.98, 490.0, 1));
        // The remainder joins the last window.
        let odd: Vec<f64> = (0..2_500).map(|i| f64::from(i % 100)).collect();
        assert_eq!(windowed_tail(&odd).2, 2);
    }

    #[test]
    fn windowed_median_takes_the_median_of_slice_medians() {
        // Ten one-second slices of 20 samples; slices 3 and 4 are slow.
        let timed: Vec<(f64, f64)> = (0..200)
            .map(|i| {
                let t = f64::from(i) / 20.0;
                let slow = (3.0..5.0).contains(&t);
                (t, if slow { 1_000.0 } else { f64::from(i % 20) })
            })
            .collect();
        assert_eq!(windowed_median(&timed, 1.0), (9.0, 10));
        // A slice below SLICE_MIN samples does not vote.
        let sparse = [(0.0, 1.0), (5.0, 100.0)];
        assert_eq!(windowed_median(&sparse, 1.0), (1.0, 1));
    }

    #[test]
    fn histogram_delta_subtracts_buckets_and_counts() {
        let h = Histogram::new();
        for v in [1.0, 1.5, 100.0] {
            h.record(v);
        }
        let before = h.snapshot();
        for v in [3.0, 3.5, 3.75, 200.0, 250.0] {
            h.record(v);
        }
        let after = h.snapshot();
        let d = hist_delta(&after, &before);
        assert_eq!(d.count, 5);
        assert_eq!(d.sum, 3.0 + 3.5 + 3.75 + 200.0 + 250.0);
        assert_eq!(d.buckets.iter().sum::<u64>(), 5);
        // 3.x sits in [2,4), 200 and 250 in [128,256).
        assert_eq!(d.min, 2.0);
        assert_eq!(d.max, 250.0);
        let p50 = d.percentile(0.5);
        assert!((2.0..4.0).contains(&p50), "p50 {p50}");
        let p99 = d.percentile(0.99);
        assert!((128.0..=250.0).contains(&p99), "p99 {p99}");
        // Nothing recorded in between: an empty delta.
        let none = hist_delta(&after, &after);
        assert_eq!(none.count, 0);
        assert_eq!(hist_mean(&none), 0.0);
        assert_eq!(hist_pct(&none, 0.99), 0.0);
    }

    #[test]
    fn registry_delta_diffs_counters_and_stages() {
        let reg = lbsp_core::MetricsRegistry::new();
        lbsp_core::metrics::NetCounters::add(&reg.net().requests_served, 5);
        reg.stage(Stage::WalFsync).record(70.0);
        let before = reg.snapshot();
        lbsp_core::metrics::NetCounters::add(&reg.net().requests_served, 7);
        lbsp_core::metrics::NetCounters::add(&reg.net().bytes_in, 300);
        reg.stage(Stage::WalFsync).record(90.0);
        reg.stage(Stage::WalFsync).record(110.0);
        reg.net_batch_size().record(4.0);
        let d = Delta::between(&reg.snapshot(), &before);
        assert_eq!(d.net.requests_served, 7);
        assert_eq!(d.net.bytes_in, 300);
        assert_eq!(d.stage(Stage::WalFsync).count, 2);
        assert_eq!(d.stage(Stage::WalFsync).sum, 200.0);
        assert_eq!(d.stage(Stage::Cloak).count, 0);
        assert_eq!(hist_mean(&d.batch_size), 4.0);
        assert_eq!(d.stage_sum_us(), 200.0);
        let mut twice = d.clone();
        twice.absorb(&d);
        assert_eq!(twice.net.requests_served, 14);
        assert_eq!(twice.stage(Stage::WalFsync).count, 4);
    }
}
