//! # pdsp-metrics
//!
//! Performance metric collection for PDSP-Bench: bounded-memory latency
//! distributions and the paper's measurement protocol — the *mean of three
//! runs of the median (50th percentile) end-to-end latency* (§4, Metrics).

pub mod latency;
pub mod summary;

pub use latency::LatencyRecorder;
pub use summary::{MeasurementProtocol, RunSummary};
