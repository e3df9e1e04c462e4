//! Lock-free latency telemetry: log₂ histograms, request-lifecycle stage
//! timing sets, and a bounded slow-query ring log.
//!
//! The server's stats frame counts *how many* things happened; this module
//! measures *how long* they took and *where* the time went. Three pieces:
//!
//! * [`LatencyHistogram`] — fixed log₂-bucketed nanosecond histogram with
//!   atomic counts. Recording is one relaxed `fetch_add` (no locks, no
//!   allocation), so it is safe on zero-alloc hot paths and from `&self`
//!   on shared-read query paths. [`HistogramSnapshot`] is the plain-data
//!   view: mergeable across histograms and machines, with quantiles.
//! * [`StageTimings`] / [`EngineTelemetry`] — named histogram sets for the
//!   server request lifecycle (decode → admission-queue wait → execute →
//!   response encode+write) and the engine's scatter path (routing
//!   decisions, per-scatter-unit execution).
//! * [`SlowQueryLog`] — a bounded ring buffer of structured [`QueryTrace`]
//!   records for requests whose end-to-end time exceeded a threshold.
//!
//! Timings are wall-clock and therefore nondeterministic; nothing here may
//! influence an answer. Telemetry is recorded strictly *beside* the
//! byte-identical answer path, and the histogram math itself (bucketing,
//! merge, quantiles) is deterministic and pinned by the tests below with
//! synthetic counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of buckets in a [`LatencyHistogram`].
///
/// Bucket `0` holds exactly-zero durations; bucket `i` (for `1 ≤ i ≤ 62`)
/// holds durations in `[2^(i-1), 2^i - 1]` nanoseconds; bucket `63` is the
/// overflow bucket `[2^62, u64::MAX]`. 62 powers of two cover ~4.6 seconds
/// at nanosecond granularity — far beyond any request deadline — so the
/// overflow bucket only fills on pathological stalls.
pub const BUCKETS: usize = 64;

/// Map a duration in nanoseconds to its histogram bucket index.
#[inline]
pub fn bucket_index(nanos: u64) -> usize {
    if nanos == 0 {
        0
    } else {
        ((64 - nanos.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive `[lower, upper]` nanosecond bounds of bucket `i`.
///
/// Every duration recorded into bucket `i` lies inside these bounds; this
/// is the contract [`HistogramSnapshot::quantile`]'s error bound rests on.
///
/// # Panics
/// Panics if `i >= BUCKETS`.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    match i {
        0 => (0, 0),
        63 => (1u64 << 62, u64::MAX),
        _ => (1u64 << (i - 1), (1u64 << i) - 1),
    }
}

/// A lock-free fixed-bucket log₂ latency histogram over nanoseconds.
///
/// [`record`](Self::record) is a single relaxed atomic increment: no locks,
/// no allocation, shared-read safe (`&self`). Counts are monotonically
/// increasing; concurrent recorders never lose increments, and a
/// [`snapshot`](Self::snapshot) taken while recorders are active is a
/// consistent-enough view for monitoring (each bucket read atomically,
/// buckets read at slightly different instants).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one duration, in nanoseconds. Lock-free and allocation-free.
    #[inline]
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// Record a [`std::time::Duration`] (saturating at `u64::MAX` nanos).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .fold(0u64, u64::saturating_add)
    }

    /// A plain-data copy of the current bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            counts: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
        }
    }
}

/// Plain-data view of a [`LatencyHistogram`]: mergeable, serializable,
/// and the carrier for quantile queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts; see [`BUCKETS`] for the bucket scheme.
    pub counts: [u64; BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with zero samples.
    pub const fn empty() -> Self {
        Self {
            counts: [0; BUCKETS],
        }
    }

    /// Build a snapshot directly from bucket counts (tests, wire decode).
    pub const fn from_counts(counts: [u64; BUCKETS]) -> Self {
        Self { counts }
    }

    /// Merge another snapshot into this one (per-bucket saturating sum).
    ///
    /// Merging is commutative and associative — snapshots from many
    /// histograms (or many servers) combine in any order to the same
    /// result, which the proptests in `protocol_robustness` pin.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// Total number of samples across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &b| a.saturating_add(b))
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`) in nanoseconds, or `None` if the
    /// snapshot holds no samples.
    ///
    /// Returns the **upper bound** of the bucket containing the sample of
    /// rank `ceil(q · total)` (clamped to `[1, total]`). The error is
    /// bounded by the bucket width: the true quantile lies within the
    /// bucket's `[lower, upper]` bounds, so the returned value
    /// overestimates by strictly less than 2× (except in the overflow
    /// bucket, whose upper bound is `u64::MAX`). `q` outside `[0, 1]` is
    /// clamped.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Some(bucket_bounds(i).1);
            }
        }
        // Unreachable: seen == total >= rank by the loop's end.
        Some(bucket_bounds(BUCKETS - 1).1)
    }
}

/// Histograms covering the server request lifecycle, one per stage.
///
/// Stage boundaries (recorded by `dds-server`):
/// * `decode` — parsing a complete frame into a typed `Request`.
/// * `queue` — admission-queue wait, from successful enqueue to the
///   moment an executor dequeues the job.
/// * `execute` — engine execution inside the executor pool.
/// * `write` — response encode plus socket write, from the response being
///   staged on the session to the final byte leaving the kernel copy.
#[derive(Debug, Default)]
pub struct StageTimings {
    /// Frame → typed `Request` decode time.
    pub decode: LatencyHistogram,
    /// Admission-queue wait (enqueue → executor dequeue).
    pub queue: LatencyHistogram,
    /// Engine execution time in the executor pool.
    pub execute: LatencyHistogram,
    /// Response encode + socket write time.
    pub write: LatencyHistogram,
}

impl StageTimings {
    /// An empty stage set.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Engine-side timers recorded by `ShardedEngine` on its scatter path.
#[derive(Debug, Default)]
pub struct EngineTelemetry {
    /// Per-(expression × shard) routing decision time (`routing_skip`).
    pub routing: LatencyHistogram,
    /// Per-scatter-unit execution time (one expression on one shard);
    /// its sample count doubles as "scatter units actually evaluated".
    pub scatter: LatencyHistogram,
}

impl EngineTelemetry {
    /// An empty engine-telemetry set.
    pub fn new() -> Self {
        Self::default()
    }
}

/// One structured record of a slow request: where its time went and what
/// the engine did for it. All scalars; `Copy` so ring storage never
/// allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryTrace {
    /// Monotonic sequence number assigned by the [`SlowQueryLog`].
    pub seq: u64,
    /// Wire opcode of the request.
    pub opcode: u8,
    /// Frame decode time, nanoseconds.
    pub decode_ns: u64,
    /// Admission-queue wait, nanoseconds (0 for control ops).
    pub queue_ns: u64,
    /// Engine execution time, nanoseconds (0 for control ops).
    pub execute_ns: u64,
    /// Response encode plus the wait for the socket to take the first
    /// write, nanoseconds. The trace is published just before that write
    /// (the one that usually completes the response), so the write
    /// syscalls themselves are not in any stage.
    pub write_ns: u64,
    /// End-to-end time the threshold is compared against, nanoseconds.
    pub total_ns: u64,
    /// Scatter units the engine actually evaluated for this request.
    pub shards_scattered: u32,
    /// Scatter units routed past as box skips (each clause's rectangle
    /// misses the shard synopsis's sample box on some axis).
    pub shards_skipped_box: u32,
    /// The other routed scatter units, proven silent by the synopsis's
    /// interior mass bound.
    pub shards_skipped_synopsis: u32,
    /// Request frame payload bytes read.
    pub bytes_in: u64,
    /// Response frame bytes written.
    pub bytes_out: u64,
}

/// Fixed-capacity ring of traces; overwrites oldest. Storage is allocated
/// once up front so recording never allocates.
#[derive(Debug)]
struct Ring {
    buf: Vec<QueryTrace>,
    /// Index the next trace is written at.
    next: usize,
    /// The seq the next kept trace gets. Drawn under the same lock as
    /// the insert, so ring order and seq order agree.
    seq: u64,
}

/// A bounded ring-buffer log of [`QueryTrace`] records for requests whose
/// `total_ns` met the threshold.
///
/// Recording takes a short mutex on the ring (never on the answer path —
/// only once the response is encoded, just before its first write) and
/// never allocates after construction. A threshold of zero traces every
/// eligible request, which tests and the benchmark's traced pass use.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold_ns: u64,
    capacity: usize,
    ring: Mutex<Ring>,
}

impl SlowQueryLog {
    /// A log keeping the most recent `capacity` traces of requests at or
    /// above `threshold_ns`. `capacity == 0` disables tracing entirely.
    pub fn new(threshold_ns: u64, capacity: usize) -> Self {
        Self {
            threshold_ns,
            capacity,
            ring: Mutex::new(Ring {
                buf: Vec::with_capacity(capacity),
                next: 0,
                seq: 0,
            }),
        }
    }

    /// Record `trace` if it is slow enough; returns whether it was kept.
    /// The log assigns `trace.seq`.
    pub fn offer(&self, mut trace: QueryTrace) -> bool {
        if self.capacity == 0 || trace.total_ns < self.threshold_ns {
            return false;
        }
        let mut ring = self.ring.lock().expect("slow-query log poisoned");
        trace.seq = ring.seq;
        ring.seq += 1;
        let next = ring.next;
        if ring.buf.len() < self.capacity {
            ring.buf.push(trace);
        } else {
            ring.buf[next] = trace;
        }
        ring.next = (next + 1) % self.capacity;
        true
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<QueryTrace> {
        let ring = self.ring.lock().expect("slow-query log poisoned");
        if ring.buf.len() < self.capacity {
            ring.buf.clone()
        } else {
            let mut out = Vec::with_capacity(ring.buf.len());
            out.extend_from_slice(&ring.buf[ring.next..]);
            out.extend_from_slice(&ring.buf[..ring.next]);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_documented_scheme() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        // Every value lands inside its bucket's bounds.
        for nanos in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            let i = bucket_index(nanos);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= nanos && nanos <= hi, "{nanos} outside bucket {i}");
        }
    }

    #[test]
    fn overflow_bucket_captures_the_extremes() {
        assert_eq!(bucket_index((1u64 << 62) - 1), 62);
        assert_eq!(bucket_index(1u64 << 62), 63);
        assert_eq!(bucket_index(u64::MAX), 63);
        assert_eq!(bucket_bounds(63), (1u64 << 62, u64::MAX));
        let h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 62);
        let s = h.snapshot();
        assert_eq!(s.counts[63], 2);
        assert_eq!(s.quantile(0.5), Some(u64::MAX));
    }

    #[test]
    fn record_and_snapshot_round_trip() {
        let h = LatencyHistogram::new();
        for nanos in [0u64, 1, 1, 5, 100, 100, 100] {
            h.record(nanos);
        }
        assert_eq!(h.count(), 7);
        let s = h.snapshot();
        assert_eq!(s.total(), 7);
        assert_eq!(s.counts[0], 1); // the single 0
        assert_eq!(s.counts[1], 2); // the two 1s
        assert_eq!(s.counts[3], 1); // 5 ∈ [4,7]
        assert_eq!(s.counts[7], 3); // 100 ∈ [64,127]
    }

    #[test]
    fn quantile_brackets_the_true_value_deterministically() {
        // Synthetic exact samples: quantile() must return the upper bound
        // of the bucket that truly contains the ranked sample.
        let samples: Vec<u64> = (1..=1000u64).map(|i| i * 3).collect();
        let h = LatencyHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.01, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let truth = sorted[rank - 1];
            let est = snap.quantile(q).unwrap();
            let (lo, hi) = bucket_bounds(bucket_index(truth));
            assert_eq!(est, hi, "q={q}: estimate must be the bucket upper bound");
            assert!(lo <= truth && truth <= hi);
            // Documented bound: overestimate by strictly less than 2x.
            assert!(est < truth.saturating_mul(2), "q={q}: {est} vs {truth}");
        }
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h = LatencyHistogram::new();
        for i in 0..500u64 {
            h.record(i * i);
        }
        let s = h.snapshot();
        let qs = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0];
        let vals: Vec<u64> = qs.iter().map(|&q| s.quantile(q).unwrap()).collect();
        for w in vals.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone: {vals:?}");
        }
    }

    #[test]
    fn empty_snapshot_has_no_quantiles() {
        let s = HistogramSnapshot::empty();
        assert_eq!(s.total(), 0);
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn merge_is_commutative_and_adds_counts() {
        let mut a = HistogramSnapshot::empty();
        a.counts[3] = 5;
        a.counts[63] = u64::MAX;
        let mut b = HistogramSnapshot::empty();
        b.counts[3] = 7;
        b.counts[10] = 1;
        b.counts[63] = 2;
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counts[3], 12);
        assert_eq!(ab.counts[10], 1);
        assert_eq!(ab.counts[63], u64::MAX, "merge saturates, never wraps");
    }

    #[test]
    fn slow_log_keeps_most_recent_in_order() {
        let log = SlowQueryLog::new(0, 3);
        for i in 0..5u64 {
            let kept = log.offer(QueryTrace {
                total_ns: i + 1,
                ..QueryTrace::default()
            });
            assert!(kept);
        }
        let recent = log.recent();
        assert_eq!(recent.len(), 3);
        assert_eq!(
            recent.iter().map(|t| t.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "oldest-first, last capacity entries"
        );
        assert_eq!(
            recent.iter().map(|t| t.total_ns).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    /// Offers racing from several threads still come back oldest first
    /// with strictly ascending seqs: a seq is drawn under the ring lock,
    /// so no thread can insert seq n + 1 before another inserts seq n.
    #[test]
    fn slow_log_seqs_ascend_under_contention() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 5_000;
        let log = SlowQueryLog::new(0, (THREADS * PER_THREAD) as usize);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        assert!(log.offer(QueryTrace::default()));
                    }
                });
            }
        });
        let seqs: Vec<u64> = log.recent().iter().map(|t| t.seq).collect();
        assert_eq!(seqs.len() as u64, THREADS * PER_THREAD);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "seqs out of order");
    }

    #[test]
    fn slow_log_respects_threshold_and_zero_capacity() {
        let log = SlowQueryLog::new(1000, 4);
        assert!(!log.offer(QueryTrace {
            total_ns: 999,
            ..QueryTrace::default()
        }));
        assert!(log.offer(QueryTrace {
            total_ns: 1000,
            ..QueryTrace::default()
        }));
        assert_eq!(log.recent().len(), 1);

        let disabled = SlowQueryLog::new(0, 0);
        assert!(!disabled.offer(QueryTrace {
            total_ns: u64::MAX,
            ..QueryTrace::default()
        }));
        assert!(disabled.recent().is_empty());
    }

    #[test]
    fn stage_timings_and_engine_telemetry_record_independently() {
        let stages = StageTimings::new();
        stages.decode.record(10);
        stages.queue.record(20);
        stages.execute.record(30);
        stages.write.record(40);
        assert_eq!(stages.decode.count(), 1);
        assert_eq!(stages.queue.count(), 1);
        assert_eq!(stages.execute.count(), 1);
        assert_eq!(stages.write.count(), 1);

        let eng = EngineTelemetry::new();
        eng.routing.record(5);
        eng.scatter.record(6);
        assert_eq!(eng.routing.count(), 1);
        assert_eq!(eng.scatter.count(), 1);
    }
}
