//! Point-in-time snapshot schema shared by the threaded runtime and the
//! discrete-event simulator.
//!
//! A [`TimelineSample`] is the registry state at one instant; a
//! [`TelemetryTimeline`] is the full time series for one run, keyed by an
//! experiment id so it can be stored and queried later. Both backends emit
//! the exact same schema, which is what makes simulated and threaded runs
//! directly comparable.

use crate::histogram::HistogramSnapshot;
use crate::recorder::FlightEvent;
use serde::{Deserialize, Serialize};

/// Frozen counters of one operator instance at one instant.
///
/// All counters are cumulative since run start; per-interval rates are
/// derived by differencing consecutive samples.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InstanceSnapshot {
    /// Application acronym (e.g. `WC`).
    pub app: String,
    /// Logical operator name.
    pub operator: String,
    /// Parallel instance index within the operator.
    pub instance: usize,
    /// Hosting node label (`local` for the threaded runtime, the placement
    /// node for simulated runs).
    pub node: String,
    /// Tuples received on input channels.
    pub tuples_in: u64,
    /// Tuples emitted downstream.
    pub tuples_out: u64,
    /// Tuples dropped as too late for their window.
    pub late_tuples: u64,
    /// Window panes fired.
    pub window_fires: u64,
    /// Input queue length at sample time (backpressure proxy).
    pub queue_depth: u64,
    /// Maximum observed input queue length.
    pub queue_depth_max: u64,
    /// Nanoseconds spent processing messages.
    pub busy_ns: u64,
    /// Nanoseconds spent waiting for input.
    pub idle_ns: u64,
    /// Checkpoints completed by this instance.
    pub checkpoints: u64,
    /// Total nanoseconds spent taking checkpoints.
    pub checkpoint_ns: u64,
    /// Times this instance was restarted by recovery.
    pub restarts: u64,
    /// Outgoing micro-batches flushed downstream (0 for sinks and for
    /// tuple-at-a-time framing). Absent in pre-batching snapshots.
    #[serde(default)]
    pub batches_out: u64,
    /// Batches flushed because the builder reached the size bound.
    #[serde(default)]
    pub flush_size: u64,
    /// Batches flushed because the worker was about to wait for input.
    #[serde(default)]
    pub flush_linger: u64,
    /// Batches flushed ahead of a watermark or checkpoint barrier.
    #[serde(default)]
    pub flush_marker: u64,
    /// Batches flushed by the end-of-stream drain.
    #[serde(default)]
    pub flush_eos: u64,
    /// Tuples dropped by the load-shedding rung of the overload ladder.
    /// Always fully accounted: `tuples_in` includes shed tuples, so
    /// `tuples_in = processed + shed`. Absent in pre-overload snapshots.
    #[serde(default)]
    pub shed_tuples: u64,
    /// Current overload-escalation rung (0 = normal backpressure,
    /// 1 = adaptive batching, 2 = load shedding). Gauge, not cumulative.
    /// Absent in pre-overload snapshots.
    #[serde(default)]
    pub pressure: u64,
    /// End-to-end latency distribution in nanoseconds (sink instances only;
    /// empty elsewhere).
    pub latency: HistogramSnapshot,
    /// Distribution of flushed batch sizes in tuples (empty for sinks and
    /// for tuple-at-a-time framing). Absent in pre-batching snapshots.
    #[serde(default)]
    pub batch_size: HistogramSnapshot,
}

impl InstanceSnapshot {
    /// Fraction of observed time spent processing (0 when nothing observed).
    pub fn busy_fraction(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// All instance snapshots at one instant.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TimelineSample {
    /// Milliseconds since run start (wall clock for the threaded runtime,
    /// simulated time for the simulator).
    pub t_ms: u64,
    /// One snapshot per registered operator instance.
    pub instances: Vec<InstanceSnapshot>,
}

/// The complete recorded time series of one run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetryTimeline {
    /// Unique id tying this timeline to its run record in the store.
    pub experiment_id: String,
    /// Application acronym or workload label.
    pub app: String,
    /// `threaded` or `simulated`.
    pub backend: String,
    /// Configured sampling interval.
    pub interval_ms: u64,
    /// Samples in time order; the last one is taken at run end, so the
    /// timeline is non-empty for any completed run.
    pub samples: Vec<TimelineSample>,
    /// Flight-recorder events captured during the run.
    pub events: Vec<FlightEvent>,
}

impl TelemetryTimeline {
    /// The last (end-of-run) sample, if any.
    pub fn final_sample(&self) -> Option<&TimelineSample> {
        self.samples.last()
    }

    /// Merged end-to-end latency histogram across all sink instances in the
    /// final sample.
    pub fn final_latency(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::new();
        if let Some(s) = self.final_sample() {
            for i in &s.instances {
                merged.merge(&i.latency);
            }
        }
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_fraction_handles_zero() {
        let s = InstanceSnapshot::default();
        assert_eq!(s.busy_fraction(), 0.0);
        let s = InstanceSnapshot {
            busy_ns: 30,
            idle_ns: 70,
            ..Default::default()
        };
        assert!((s.busy_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn timeline_serde_roundtrip() {
        let t = TelemetryTimeline {
            experiment_id: "exp-1".into(),
            app: "WC".into(),
            backend: "threaded".into(),
            interval_ms: 100,
            samples: vec![TimelineSample {
                t_ms: 100,
                instances: vec![InstanceSnapshot {
                    app: "WC".into(),
                    operator: "count".into(),
                    instance: 2,
                    node: "local".into(),
                    tuples_in: 10,
                    ..Default::default()
                }],
            }],
            events: vec![],
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: TelemetryTimeline = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
