//! Per-operator-instance metrics registry.
//!
//! The registry is sharded by construction: each instance owns an
//! [`InstanceMetrics`] shard of relaxed atomic counters behind its own
//! `Arc`, so workers on different instances never contend on a shared cache
//! line for the common counters, and a sampler thread can read every shard
//! live without stopping anyone.

use crate::histogram::LogHistogram;
use crate::snapshot::InstanceSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Why a sender flushed a pending micro-batch downstream.
///
/// The engine's batched data plane accumulates tuples into per-destination
/// builders and flushes them on one of four triggers; counting the triggers
/// separately makes it visible whether a run is size-bound (healthy, high
/// throughput), linger-bound (input too slow to fill batches), or dominated
/// by marker traffic (watermark/barrier interval smaller than the batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// The builder reached the configured maximum batch size.
    Size,
    /// The worker was about to wait for input while tuples were pending.
    Linger,
    /// A watermark or checkpoint barrier had to be sent in channel order.
    Marker,
    /// End of stream: final drain of every pending builder.
    Eos,
}

/// Atomic counter shard for one operator instance.
///
/// All mutators use relaxed ordering — telemetry needs monotonic counters,
/// not cross-counter consistency — which keeps the hot-path cost to a single
/// uncontended atomic add.
#[derive(Debug)]
pub struct InstanceMetrics {
    /// Logical operator name.
    pub operator: String,
    /// Parallel instance index within the operator.
    pub instance: usize,
    /// Hosting node label.
    pub node: String,
    tuples_in: AtomicU64,
    tuples_out: AtomicU64,
    late_tuples: AtomicU64,
    window_fires: AtomicU64,
    queue_depth: AtomicU64,
    queue_depth_max: AtomicU64,
    busy_ns: AtomicU64,
    idle_ns: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_ns: AtomicU64,
    restarts: AtomicU64,
    batches_out: AtomicU64,
    flush_size: AtomicU64,
    flush_linger: AtomicU64,
    flush_marker: AtomicU64,
    flush_eos: AtomicU64,
    shed_tuples: AtomicU64,
    pressure: AtomicU64,
    latency: LogHistogram,
    batch_size: LogHistogram,
}

impl InstanceMetrics {
    /// Create a zeroed shard labeled with its operator, instance, and node.
    pub fn new(operator: impl Into<String>, instance: usize, node: impl Into<String>) -> Self {
        InstanceMetrics {
            operator: operator.into(),
            instance,
            node: node.into(),
            tuples_in: AtomicU64::new(0),
            tuples_out: AtomicU64::new(0),
            late_tuples: AtomicU64::new(0),
            window_fires: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            queue_depth_max: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            idle_ns: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_ns: AtomicU64::new(0),
            restarts: AtomicU64::new(0),
            batches_out: AtomicU64::new(0),
            flush_size: AtomicU64::new(0),
            flush_linger: AtomicU64::new(0),
            flush_marker: AtomicU64::new(0),
            flush_eos: AtomicU64::new(0),
            shed_tuples: AtomicU64::new(0),
            pressure: AtomicU64::new(0),
            latency: LogHistogram::new(),
            batch_size: LogHistogram::new(),
        }
    }

    /// Add `n` to the consumed-tuple counter.
    #[inline]
    pub fn add_tuples_in(&self, n: u64) {
        self.tuples_in.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` to the emitted-tuple counter.
    #[inline]
    pub fn add_tuples_out(&self, n: u64) {
        self.tuples_out.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the late-tuple count (windowers track it cumulatively).
    #[inline]
    pub fn set_late_tuples(&self, n: u64) {
        self.late_tuples.store(n, Ordering::Relaxed);
    }

    /// Overwrite the fired-pane count (windowers track it cumulatively).
    #[inline]
    pub fn set_window_fires(&self, n: u64) {
        self.window_fires.store(n, Ordering::Relaxed);
    }

    /// Record the current input queue length (backpressure proxy).
    #[inline]
    pub fn observe_queue_depth(&self, depth: u64) {
        self.queue_depth.store(depth, Ordering::Relaxed);
        self.queue_depth_max.fetch_max(depth, Ordering::Relaxed);
    }

    /// Add time spent processing frames.
    #[inline]
    pub fn add_busy_ns(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Add time spent waiting for input.
    #[inline]
    pub fn add_idle_ns(&self, ns: u64) {
        self.idle_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record one completed checkpoint and its duration.
    #[inline]
    pub fn record_checkpoint(&self, ns: u64) {
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.checkpoint_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Count one recovery restart of this instance.
    #[inline]
    pub fn add_restart(&self) {
        self.restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n` to the shed-tuple counter (tuples dropped by the load-shedding
    /// rung of the overload ladder; always counted, never silent).
    #[inline]
    pub fn add_shed(&self, n: u64) {
        self.shed_tuples.fetch_add(n, Ordering::Relaxed);
    }

    /// Record the current overload-escalation rung (0 = normal,
    /// 1 = adaptive batching, 2 = shedding). Gauge semantics: overwrite.
    #[inline]
    pub fn set_pressure(&self, level: u64) {
        self.pressure.store(level, Ordering::Relaxed);
    }

    /// Record an end-to-end latency observation in nanoseconds.
    #[inline]
    pub fn record_latency_ns(&self, ns: u64) {
        self.latency.record(ns);
    }

    /// Record one flushed outgoing micro-batch: its size (tuples) feeds the
    /// batch-size histogram and its trigger the per-reason flush counters.
    #[inline]
    pub fn record_batch(&self, tuples: u64, reason: FlushReason) {
        self.batches_out.fetch_add(1, Ordering::Relaxed);
        self.batch_size.record(tuples);
        let counter = match reason {
            FlushReason::Size => &self.flush_size,
            FlushReason::Linger => &self.flush_linger,
            FlushReason::Marker => &self.flush_marker,
            FlushReason::Eos => &self.flush_eos,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Micro-batches flushed downstream so far.
    pub fn batches_out(&self) -> u64 {
        self.batches_out.load(Ordering::Relaxed)
    }

    /// Tuples consumed so far.
    pub fn tuples_in(&self) -> u64 {
        self.tuples_in.load(Ordering::Relaxed)
    }

    /// Tuples emitted so far.
    pub fn tuples_out(&self) -> u64 {
        self.tuples_out.load(Ordering::Relaxed)
    }

    /// Tuples shed so far.
    pub fn shed_tuples(&self) -> u64 {
        self.shed_tuples.load(Ordering::Relaxed)
    }

    /// Freeze this shard into the shared snapshot schema.
    pub fn snapshot(&self, app: &str) -> InstanceSnapshot {
        InstanceSnapshot {
            app: app.to_string(),
            operator: self.operator.clone(),
            instance: self.instance,
            node: self.node.clone(),
            tuples_in: self.tuples_in.load(Ordering::Relaxed),
            tuples_out: self.tuples_out.load(Ordering::Relaxed),
            late_tuples: self.late_tuples.load(Ordering::Relaxed),
            window_fires: self.window_fires.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            queue_depth_max: self.queue_depth_max.load(Ordering::Relaxed),
            busy_ns: self.busy_ns.load(Ordering::Relaxed),
            idle_ns: self.idle_ns.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checkpoint_ns: self.checkpoint_ns.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            batches_out: self.batches_out.load(Ordering::Relaxed),
            flush_size: self.flush_size.load(Ordering::Relaxed),
            flush_linger: self.flush_linger.load(Ordering::Relaxed),
            flush_marker: self.flush_marker.load(Ordering::Relaxed),
            flush_eos: self.flush_eos.load(Ordering::Relaxed),
            shed_tuples: self.shed_tuples.load(Ordering::Relaxed),
            pressure: self.pressure.load(Ordering::Relaxed),
            latency: self.latency.snapshot(),
            batch_size: self.batch_size.snapshot(),
        }
    }
}

/// All instance shards of one run. Built up-front (before workers spawn),
/// then shared immutably; readers snapshot without synchronization.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    app: String,
    instances: Vec<Arc<InstanceMetrics>>,
}

impl MetricsRegistry {
    /// Create an empty registry for the named application.
    pub fn new(app: impl Into<String>) -> Self {
        MetricsRegistry {
            app: app.into(),
            instances: Vec::new(),
        }
    }

    /// Application label applied to every snapshot.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// Add a shard for one operator instance and return it.
    pub fn register(
        &mut self,
        operator: impl Into<String>,
        instance: usize,
        node: impl Into<String>,
    ) -> Arc<InstanceMetrics> {
        let m = Arc::new(InstanceMetrics::new(operator, instance, node));
        self.instances.push(Arc::clone(&m));
        m
    }

    /// Shard by registration order (the engine registers in physical
    /// instance-id order, so this is indexable by instance id).
    pub fn instance(&self, idx: usize) -> Arc<InstanceMetrics> {
        Arc::clone(&self.instances[idx])
    }

    /// Number of registered shards.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// `true` when no shards are registered.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Freeze every shard. Lock-free; safe while workers are recording.
    pub fn snapshot(&self) -> Vec<InstanceSnapshot> {
        self.instances
            .iter()
            .map(|m| m.snapshot(&self.app))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let mut reg = MetricsRegistry::new("WC");
        let m = reg.register("count", 1, "local");
        m.add_tuples_in(10);
        m.add_tuples_out(7);
        m.observe_queue_depth(5);
        m.observe_queue_depth(2);
        m.add_busy_ns(300);
        m.add_idle_ns(700);
        m.record_checkpoint(1_000);
        m.record_latency_ns(5_000_000);
        let snaps = reg.snapshot();
        assert_eq!(snaps.len(), 1);
        let s = &snaps[0];
        assert_eq!(
            (
                s.app.as_str(),
                s.operator.as_str(),
                s.instance,
                s.node.as_str()
            ),
            ("WC", "count", 1, "local")
        );
        assert_eq!((s.tuples_in, s.tuples_out), (10, 7));
        assert_eq!((s.queue_depth, s.queue_depth_max), (2, 5));
        assert!((s.busy_fraction() - 0.3).abs() < 1e-12);
        assert_eq!((s.checkpoints, s.checkpoint_ns), (1, 1_000));
        assert_eq!(s.latency.count, 1);
    }

    #[test]
    fn batch_flushes_split_by_reason() {
        let mut reg = MetricsRegistry::new("WC");
        let m = reg.register("split", 0, "local");
        m.record_batch(64, FlushReason::Size);
        m.record_batch(64, FlushReason::Size);
        m.record_batch(3, FlushReason::Marker);
        m.record_batch(1, FlushReason::Linger);
        m.record_batch(7, FlushReason::Eos);
        assert_eq!(m.batches_out(), 5);
        let s = &reg.snapshot()[0];
        assert_eq!(s.batches_out, 5);
        assert_eq!(
            (s.flush_size, s.flush_linger, s.flush_marker, s.flush_eos),
            (2, 1, 1, 1)
        );
        assert_eq!(s.batch_size.count, 5);
        // The histogram's log-linear buckets are exact for small values.
        assert_eq!(s.batch_size.quantile(1.0), 64);
    }

    #[test]
    fn concurrent_recording_totals() {
        let mut reg = MetricsRegistry::new("X");
        let m = reg.register("op", 0, "local");
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.add_tuples_in(1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.tuples_in(), 40_000);
    }
}
