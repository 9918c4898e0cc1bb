//! Runtime profiling: per-worker throughput and gradient staleness.
//!
//! Implements the "Job/Task/Worker Profiler" of the Sync-Switch architecture
//! (paper Fig. 9): continuously collected runtime metrics that the policy
//! manager consumes for straggler detection and switch decisions.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::config::TransportKind;

/// Per-worker step timing record.
#[derive(Debug, Clone, Default)]
pub struct WorkerProfile {
    /// Durations of every step this worker completed in a segment.
    pub step_durations: Vec<Duration>,
    /// Training losses observed by this worker (one per step).
    pub losses: Vec<f32>,
    /// Wall-clock span from the start of the worker's first step to the end
    /// of its last, *including* time spent parked at barriers or SSP gates.
    /// Zero if the worker completed no steps.
    pub wall_time: Duration,
}

impl WorkerProfile {
    /// Number of steps completed.
    pub fn steps(&self) -> usize {
        self.step_durations.len()
    }

    /// Busy-time throughput in steps per second (0 if no steps): step count
    /// over the *sum of step durations*. Under BSP a step duration excludes
    /// the barrier wait, so this is the worker's compute rate, not its
    /// delivered rate — compare with [`WorkerProfile::wall_time`].
    pub fn steps_per_sec(&self) -> f64 {
        let total: Duration = self.step_durations.iter().sum();
        if total.is_zero() {
            return 0.0;
        }
        self.steps() as f64 / total.as_secs_f64()
    }

    /// Throughput in images per second at a given batch size (busy-time).
    pub fn images_per_sec(&self, batch: usize) -> f64 {
        self.steps_per_sec() * batch as f64
    }
}

/// Aggregate wire cost of one operation class (push / pull / sync) on a
/// transport-backed data plane: how many logical operations were served,
/// over how many round trips, how long the caller spent blocked on the
/// wire, and how many payload bytes moved in each direction. Booked by the
/// rule [`TransportStats`] states.
///
/// Operations and round trips differ in both directions: the shards one
/// worker pushes to one server share a round trip (`ops > round_trips`),
/// and a pull that rides home on a push or sync reply is an operation with
/// its own item's bytes but no round trip and no wire time of its own — the
/// time stays on the class whose round trip carried it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireOp {
    /// Logical operations served: one per shard pushed, per server pulled,
    /// per server committed — what the servers count per opcode.
    pub ops: u64,
    /// Request/reply round trips this class paid for.
    pub round_trips: u64,
    /// Total nanoseconds spent blocked on the wire (encode → reply
    /// decoded) over those round trips.
    pub wire_ns: u64,
    /// Request payload bytes sent.
    pub bytes_out: u64,
    /// Reply payload bytes received.
    pub bytes_in: u64,
}

impl WireOp {
    /// Mean wire time per operation, in microseconds (0 if no ops).
    pub fn mean_us(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.wire_ns as f64 / self.ops as f64 / 1e3
    }

    /// Total wire time in seconds.
    pub fn total_s(&self) -> f64 {
        self.wire_ns as f64 / 1e9
    }

    /// Payload bytes per operation, both directions (0 if no ops) — per
    /// round trip only where every operation pays for its own.
    pub fn mean_round_trip_bytes(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        (self.bytes_out + self.bytes_in) as f64 / self.ops as f64
    }

    /// One `(bytes_per_op, seconds_per_op)` calibration sample, or `None`
    /// if this class saw no traffic. Bytes are the payload volume of an
    /// operation in both directions — the quantity a latency+bandwidth
    /// cost model prices. A class whose operations mostly rode another
    /// class's round trips (pulls on an asynchronous tail) has bytes
    /// without time of its own; its sample is not a round trip's.
    pub fn sample(&self) -> Option<(f64, f64)> {
        if self.ops == 0 {
            return None;
        }
        Some((
            self.mean_round_trip_bytes(),
            self.wire_ns as f64 / self.ops as f64 / 1e9,
        ))
    }

    /// The counters accumulated since `earlier` (used to scope segment
    /// reports: the plane's counters are cumulative).
    pub fn delta(&self, earlier: &WireOp) -> WireOp {
        WireOp {
            ops: self.ops.saturating_sub(earlier.ops),
            round_trips: self.round_trips.saturating_sub(earlier.round_trips),
            wire_ns: self.wire_ns.saturating_sub(earlier.wire_ns),
            bytes_out: self.bytes_out.saturating_sub(earlier.bytes_out),
            bytes_in: self.bytes_in.saturating_sub(earlier.bytes_in),
        }
    }
}

/// Measured request cost of a training segment on a tier's data plane,
/// broken out by operation class. On the single store (`backend == None`)
/// every counter is zero — it has no request boundary, which is exactly
/// the comparison the bench transport axis makes. The in-process
/// multi-server plane reports `InProcess` and its direct transport's
/// counters: frames and bytes as on a wire; its time is the codec and the
/// server's own work, with no hop in it.
///
/// **The booking rule.** A request is booked from its own items. Each item
/// is one operation of its opcode's class — push (`PushShard[Sparse]`),
/// pull (`PullCommitted`) or sync (`SyncRound`, `Drain`) — and books its
/// payload bytes both ways, a batched item's 4-byte length prefix
/// included. The sequencing prefix, the batch headers, the round trip and
/// its wire time go to the first item's class. Control-plane requests are
/// not booked, nor is a failed attempt (its re-send counts in `retries`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Which backend produced these numbers (`None` for the single store).
    pub backend: Option<TransportKind>,
    /// Stage-1 gradient pushes: one operation per shard, the shards a
    /// worker sends to one server sharing a round trip.
    pub push: WireOp,
    /// Committed-view pulls: one operation per server per pull, a round
    /// trip only when the image did not ride home on a push or sync reply.
    pub pull: WireOp,
    /// Stage-2 reconciliation rounds and drains: one operation per server
    /// per round, a round trip unless it rode behind a BSP round's pushes.
    pub sync: WireOp,
    /// Failed attempts that were re-sent by the resilience layer. Zero on a
    /// clean network — retry machinery must be free when nothing fails.
    pub retries: u64,
    /// Connections re-established after breaking mid-segment.
    pub reconnects: u64,
}

impl TransportStats {
    /// Total logical operations across all classes (what the servers
    /// count per opcode).
    pub fn total_ops(&self) -> u64 {
        self.push.ops + self.pull.ops + self.sync.ops
    }

    /// Total round trips across all classes.
    pub fn total_round_trips(&self) -> u64 {
        self.push.round_trips + self.pull.round_trips + self.sync.round_trips
    }

    /// Total time spent blocked on the wire, in seconds.
    pub fn total_wire_s(&self) -> f64 {
        self.push.total_s() + self.pull.total_s() + self.sync.total_s()
    }

    /// Total payload bytes moved in both directions.
    pub fn total_bytes(&self) -> u64 {
        let t = |w: &WireOp| w.bytes_out + w.bytes_in;
        t(&self.push) + t(&self.pull) + t(&self.sync)
    }

    /// The counters accumulated since `earlier` (same backend assumed).
    pub fn delta(&self, earlier: &TransportStats) -> TransportStats {
        TransportStats {
            backend: self.backend,
            push: self.push.delta(&earlier.push),
            pull: self.pull.delta(&earlier.pull),
            sync: self.sync.delta(&earlier.sync),
            retries: self.retries.saturating_sub(earlier.retries),
            reconnects: self.reconnects.saturating_sub(earlier.reconnects),
        }
    }

    /// Per-class `(bytes_per_op, seconds_per_op)` calibration samples —
    /// the input `cluster::NetworkModel::fit_wire_samples` fits its
    /// latency/bandwidth constants to. Push and pull frames differ in size
    /// by orders of magnitude, which is what makes the two-parameter fit
    /// identifiable.
    pub fn latency_samples(&self) -> Vec<(f64, f64)> {
        [&self.push, &self.pull, &self.sync]
            .into_iter()
            .filter_map(WireOp::sample)
            .collect()
    }
}

/// Histogram of measured gradient staleness (versions behind at push time).
///
/// Under BSP every entry is 0 by construction; under ASP with `n` workers
/// the mass concentrates around `n − 1` — the paper's stale-gradient effect,
/// measured rather than assumed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StalenessHistogram {
    counts: BTreeMap<u64, u64>,
}

impl StalenessHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one staleness observation.
    pub fn record(&mut self, staleness: u64) {
        *self.counts.entry(staleness).or_insert(0) += 1;
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &StalenessHistogram) {
        for (&k, &v) in &other.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Mean staleness (0 if empty).
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let sum: u64 = self.counts.iter().map(|(&k, &v)| k * v).sum();
        sum as f64 / total as f64
    }

    /// Maximum observed staleness (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        self.counts.keys().next_back().copied()
    }

    /// Iterates over `(staleness, count)` pairs in increasing staleness.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }
}

/// Per-shard staleness histograms: one [`StalenessHistogram`] per parameter
/// shard, recording how many shard applies landed between a worker's pull of
/// that shard and its push to it.
///
/// With per-shard version clocks this is measured independently of the
/// global clock: a shard-granular push observes exactly the applies that
/// beat it to *that* shard. Under BSP every entry is 0 by construction
/// (stripes apply once per barrier round); under ASP the per-shard mass
/// mirrors the global histogram, and under SSP the gate's iteration bound
/// caps it per shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStaleness {
    per_shard: Vec<StalenessHistogram>,
}

impl ShardStaleness {
    /// Creates histograms for `shards` shards.
    pub fn new(shards: usize) -> Self {
        ShardStaleness {
            per_shard: vec![StalenessHistogram::new(); shards],
        }
    }

    /// Number of shards tracked.
    pub fn shard_count(&self) -> usize {
        self.per_shard.len()
    }

    /// Records one observation for `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn record(&mut self, shard: usize, staleness: u64) {
        self.per_shard[shard].record(staleness);
    }

    /// Merges another per-shard record into this one, growing to the larger
    /// shard count if they differ.
    pub fn merge(&mut self, other: &ShardStaleness) {
        if other.per_shard.len() > self.per_shard.len() {
            self.per_shard
                .resize_with(other.per_shard.len(), StalenessHistogram::new);
        }
        for (mine, theirs) in self.per_shard.iter_mut().zip(&other.per_shard) {
            mine.merge(theirs);
        }
    }

    /// Histogram for one shard.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &StalenessHistogram {
        &self.per_shard[shard]
    }

    /// Total observations across all shards.
    pub fn total(&self) -> u64 {
        self.per_shard.iter().map(StalenessHistogram::total).sum()
    }

    /// Maximum staleness observed on any shard (`None` if empty).
    pub fn max(&self) -> Option<u64> {
        self.per_shard
            .iter()
            .filter_map(StalenessHistogram::max)
            .max()
    }

    /// Mean staleness across all shards' observations (0 if empty).
    pub fn mean(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .per_shard
            .iter()
            .map(|h| h.mean() * h.total() as f64)
            .sum();
        sum / total as f64
    }

    /// Iterates over the per-shard histograms in shard order.
    pub fn iter(&self) -> impl Iterator<Item = &StalenessHistogram> + '_ {
        self.per_shard.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_throughput() {
        let p = WorkerProfile {
            step_durations: vec![Duration::from_millis(10); 20],
            losses: vec![1.0; 20],
            wall_time: Duration::from_millis(200),
        };
        assert_eq!(p.steps(), 20);
        assert!((p.steps_per_sec() - 100.0).abs() < 1.0);
        assert!((p.images_per_sec(32) - 3200.0).abs() < 50.0);
    }

    #[test]
    fn wall_rate_counts_idle_time_busy_rate_does_not() {
        // 20 steps of 10ms compute, but the worker spent 400ms wall-clock:
        // half its time parked at barriers. The busy rate says 100 steps/s;
        // the idle waits it hides are in `wall_time` alone.
        let p = WorkerProfile {
            step_durations: vec![Duration::from_millis(10); 20],
            losses: vec![1.0; 20],
            wall_time: Duration::from_millis(400),
        };
        assert!((p.steps_per_sec() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_profile() {
        let p = WorkerProfile::default();
        assert_eq!(p.steps_per_sec(), 0.0);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = StalenessHistogram::new();
        for s in [0, 0, 1, 7, 7, 7] {
            h.record(s);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.max(), Some(7));
        assert!((h.mean() - 22.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_merge() {
        let mut a = StalenessHistogram::new();
        a.record(0);
        a.record(3);
        let mut b = StalenessHistogram::new();
        b.record(3);
        b.record(5);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(0, 1), (3, 2), (5, 1)]);
    }

    #[test]
    fn empty_histogram() {
        let h = StalenessHistogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn shard_staleness_records_per_shard() {
        let mut s = ShardStaleness::new(3);
        s.record(0, 0);
        s.record(0, 4);
        s.record(2, 2);
        assert_eq!(s.shard_count(), 3);
        assert_eq!(s.total(), 3);
        assert_eq!(s.max(), Some(4));
        assert!((s.mean() - 2.0).abs() < 1e-12);
        assert_eq!(s.shard(0).total(), 2);
        assert_eq!(s.shard(1).total(), 0);
        assert_eq!(s.shard(2).max(), Some(2));
    }

    #[test]
    fn shard_staleness_merge_grows() {
        let mut a = ShardStaleness::new(1);
        a.record(0, 1);
        let mut b = ShardStaleness::new(3);
        b.record(2, 5);
        a.merge(&b);
        assert_eq!(a.shard_count(), 3);
        assert_eq!(a.total(), 2);
        assert_eq!(a.max(), Some(5));
        // Merging an empty record is a no-op.
        let before = a.clone();
        a.merge(&ShardStaleness::new(0));
        assert_eq!(a, before);
    }
}
