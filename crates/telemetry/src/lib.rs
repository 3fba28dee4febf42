//! # pdsp-telemetry — live runtime telemetry substrate
//!
//! Low-overhead observability for PDSP-Bench runs, mirroring the metric
//! pipeline the paper's controller scrapes from Flink:
//!
//! * [`registry`] — per-operator-instance shards of relaxed atomic
//!   counters/gauges ([`MetricsRegistry`], [`InstanceMetrics`]), readable
//!   live without stopping workers;
//! * [`histogram`] — fixed-bucket log-scale latency histogram
//!   ([`LogHistogram`]) with a mergeable, serializable
//!   [`HistogramSnapshot`] (documented 6.25% quantile error bound);
//! * [`latency`] — the bounded-memory [`LatencyRecorder`] the simulator
//!   and the controller summarize runs with;
//! * [`summary`] — the per-run [`RunSummary`] and the paper's
//!   [`MeasurementProtocol`] (mean of three runs of the median latency);
//! * [`sampler`] — a background thread snapshotting the registry at a
//!   configurable interval into a [`TelemetryTimeline`];
//! * [`snapshot`] — the timeline schema shared verbatim by the threaded
//!   runtime and the discrete-event simulator;
//! * [`recorder`] — a bounded ring-buffer [`FlightRecorder`] of structured
//!   events, dumped automatically when a run dies;
//! * [`export`] — Prometheus text exposition and JSON-lines exporters with
//!   golden-tested label sets (`app`, `operator`, `instance`, `node`);
//! * [`alarms`] — threshold alarms ([`AlarmMonitor`]) over pressure, shed
//!   fraction, and late fraction, used by the chaos bench as a recovery
//!   gate;
//! * [`trace`] — sampled distributed tracing: span schema, lock-free
//!   single-writer span rings, trace assembly, critical-path latency
//!   attribution, and Chrome trace-event export.
//!
//! This crate is a dependency leaf (no other `pdsp-*` crates), so the
//! engine, simulator and controller can all share one schema.

#![warn(missing_docs)]

pub mod alarms;
pub mod export;
pub mod histogram;
pub mod latency;
pub mod recorder;
pub mod registry;
pub mod sampler;
pub mod snapshot;
pub mod summary;
pub mod trace;

pub use alarms::{Alarm, AlarmConfig, AlarmKind, AlarmMonitor};
pub use export::{json_lines, prometheus_text};
pub use histogram::{HistogramSnapshot, LogHistogram, QUANTILE_RELATIVE_ERROR};
pub use latency::LatencyRecorder;
pub use recorder::{FlightEvent, FlightEventKind, FlightRecorder};
pub use registry::{FlushReason, InstanceMetrics, MetricsRegistry};
pub use sampler::{RunTelemetry, Sampler, TelemetryConfig};
pub use snapshot::{InstanceSnapshot, TelemetryTimeline, TimelineSample};
pub use summary::{MeasurementProtocol, RunSummary};
pub use trace::{
    assemble, attribute, attribution_report, chrome_trace_json, compare_report, critical_path,
    Attribution, CriticalPath, Segment, Span, SpanId, SpanKind, SpanRing, TraceBook, TraceContext,
    TraceId, TraceSet, TraceTree,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

static EXPERIMENT_SEQ: AtomicU64 = AtomicU64::new(0);

/// Generate a process-unique experiment id (`exp-<unix_ms>-<seq>`), used to
/// key timelines and run records in the store.
pub fn new_experiment_id() -> String {
    let ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let seq = EXPERIMENT_SEQ.fetch_add(1, Ordering::Relaxed);
    format!("exp-{ms:x}-{seq}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_are_unique() {
        let a = new_experiment_id();
        let b = new_experiment_id();
        assert_ne!(a, b);
        assert!(a.starts_with("exp-"));
    }
}
