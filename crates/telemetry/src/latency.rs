//! Latency recording with bounded memory: a small exact bootstrap buffer
//! for short runs plus a streaming log-scale histogram for unbounded ones.
//!
//! Earlier versions kept up to `exact_cap` raw samples (hundreds of
//! kilobytes per recorder, growing with the requested cap). The hot path is
//! now O(1) memory: once the bootstrap buffer fills, samples only land in a
//! fixed-size [`HistogramSnapshot`] whose quantiles are exact to the
//! documented [`crate::QUANTILE_RELATIVE_ERROR`] (6.25%).

use crate::histogram::HistogramSnapshot;

/// Hard cap on the exact bootstrap buffer, regardless of the requested
/// `exact_cap`: this is what bounds recorder memory.
pub const BOOTSTRAP_CAP: usize = 4096;

/// Records per-tuple end-to-end latencies (milliseconds) and answers
/// percentile queries. Below the bootstrap capacity everything is kept and
/// percentiles are exact; beyond it, the streaming histogram takes over.
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    bootstrap_cap: usize,
    bootstrap: Vec<f64>,
    /// Streaming distribution in nanoseconds (log-scale buckets).
    hist_ns: HistogramSnapshot,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        Self::new(100_000)
    }
}

impl LatencyRecorder {
    /// Recorder keeping up to `min(exact_cap, BOOTSTRAP_CAP)` exact samples
    /// before spilling to the streaming histogram.
    pub fn new(exact_cap: usize) -> Self {
        LatencyRecorder {
            bootstrap_cap: exact_cap.min(BOOTSTRAP_CAP),
            bootstrap: Vec::new(),
            hist_ns: HistogramSnapshot::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one latency in milliseconds.
    pub fn record_ms(&mut self, ms: f64) {
        self.count += 1;
        self.sum += ms;
        self.min = self.min.min(ms);
        self.max = self.max.max(ms);
        if self.bootstrap.len() < self.bootstrap_cap {
            self.bootstrap.push(ms);
        }
        self.hist_ns.record((ms * 1e6).max(0.0) as u64);
    }

    /// Record a latency in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.record_ms(ns as f64 / 1e6);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency in ms.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Minimum recorded latency.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum recorded latency.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// The streaming latency distribution (nanoseconds). This is the same
    /// snapshot schema telemetry exporters use, so recorder state can be
    /// merged with per-instance sink histograms.
    pub fn histogram_ns(&self) -> &HistogramSnapshot {
        &self.hist_ns
    }

    /// Percentile (p in `[0, 100]`): exact while all samples fit the
    /// bootstrap buffer, histogram estimate (≤6.25% relative error)
    /// afterwards.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.count as usize <= self.bootstrap.len() {
            return exact_percentile(&self.bootstrap, p);
        }
        let q = (p / 100.0).clamp(0.0, 1.0);
        Some(self.hist_ns.quantile(q) as f64 / 1e6)
    }

    /// Median (p50) in ms — the paper's reported metric.
    pub fn median(&self) -> Option<f64> {
        self.percentile(50.0)
    }
}

/// Exact percentile over a sorted copy (the bootstrap phase's answer).
fn exact_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
    Some(v[rank.min(v.len() - 1)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_phase_median() {
        let mut r = LatencyRecorder::new(100);
        for v in [10.0, 20.0, 30.0] {
            r.record_ms(v);
        }
        assert_eq!(r.median(), Some(20.0));
        assert_eq!(r.mean(), Some(20.0));
        assert_eq!(r.min(), Some(10.0));
        assert_eq!(r.max(), Some(30.0));
    }

    #[test]
    fn spill_phase_uses_streaming_histogram() {
        let mut r = LatencyRecorder::new(10);
        for i in 1..=10_000 {
            r.record_ms(i as f64);
        }
        let m = r.median().unwrap();
        assert!((m - 5000.0).abs() / 5000.0 < 0.0625, "median {m}");
        assert_eq!(r.count(), 10_000);
        assert_eq!(r.histogram_ns().count, 10_000);
    }

    #[test]
    fn memory_is_bounded_regardless_of_requested_cap() {
        let mut r = LatencyRecorder::new(usize::MAX);
        for i in 0..(BOOTSTRAP_CAP + 500) {
            r.record_ms(i as f64);
        }
        assert_eq!(r.bootstrap.len(), BOOTSTRAP_CAP);
        // Arbitrary percentiles still answerable from the histogram.
        let p75 = r.percentile(75.0).unwrap();
        let expect = 0.75 * (BOOTSTRAP_CAP + 500) as f64;
        assert!((p75 - expect).abs() / expect < 0.07, "p75 {p75}");
    }

    #[test]
    fn record_ns_converts() {
        let mut r = LatencyRecorder::default();
        r.record_ns(2_500_000); // 2.5 ms
        assert_eq!(r.median(), Some(2.5));
    }

    #[test]
    fn empty_recorder() {
        let r = LatencyRecorder::default();
        assert_eq!(r.median(), None);
        assert_eq!(r.mean(), None);
        assert_eq!(r.count(), 0);
    }

    #[test]
    fn exact_percentile_basics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(exact_percentile(&v, 50.0), Some(3.0));
        assert_eq!(exact_percentile(&v, 0.0), Some(1.0));
        assert_eq!(exact_percentile(&v, 100.0), Some(5.0));
        assert_eq!(exact_percentile(&[], 50.0), None);
    }
}
