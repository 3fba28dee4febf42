//! Adversarial workload generators for overload and chaos testing.
//!
//! Each [`HazardKind`] produces a stream shaped to trip one rung of the
//! engine's overload ladder or one late-data path:
//!
//! * **Hot key** — one key receives a configured fraction of all tuples
//!   (≥ 50% reproduces the paper's worst skew), starving every other key
//!   group's instance while one drowns;
//! * **Burst train** — alternating bursts and quiet periods: event-time
//!   arrival rate oscillates between a burst rate and the base rate,
//!   stressing queue occupancy and recovery;
//! * **Late storm** — during a window of the stream a fraction of tuples
//!   carries event times far behind the frontier, exercising watermark
//!   lateness handling and the late-data accounting.
//!
//! Streams are deterministic per seed (ChaCha8, like the rest of the
//! workload crate) and implement the engine's [`SourceFactory`], emitting
//! `[Int key, Double value]` tuples.

use pdsp_engine::runtime::SourceFactory;
use pdsp_engine::value::{FieldType, Row, Schema, Tuple, Value};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which adversarial shape to generate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HazardKind {
    /// One hot key (key 0) receives `hot_fraction` of all tuples; the rest
    /// are uniform over `1..cardinality`.
    HotKey {
        /// Fraction of tuples carrying the hot key (0..=1).
        hot_fraction: f64,
        /// Total distinct keys including the hot one.
        cardinality: u64,
    },
    /// Alternating bursts and quiet periods: `burst_len` tuples arrive at
    /// `burst_rate`, then `quiet_len` tuples at the base event rate.
    BurstTrain {
        /// Tuples per burst.
        burst_len: usize,
        /// Tuples per quiet period.
        quiet_len: usize,
        /// Arrival rate during bursts (tuples/s), typically far above the
        /// base rate.
        burst_rate: f64,
    },
    /// During the `[storm_start, storm_end)` fraction of the stream,
    /// `late_fraction` of tuples carries event times `lateness_ms` behind
    /// the frontier.
    LateStorm {
        /// Fraction of in-storm tuples arriving late (0..=1).
        late_fraction: f64,
        /// How far behind the event-time frontier late tuples land.
        lateness_ms: i64,
        /// Storm start as a fraction of the stream (0..=1).
        storm_start: f64,
        /// Storm end as a fraction of the stream (0..=1).
        storm_end: f64,
    },
}

impl HazardKind {
    /// Stable scenario label for reports and artifact keys.
    pub fn label(&self) -> &'static str {
        match self {
            HazardKind::HotKey { .. } => "hot_key",
            HazardKind::BurstTrain { .. } => "burst_train",
            HazardKind::LateStorm { .. } => "late_storm",
        }
    }
}

/// Configuration of one hazard stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HazardConfig {
    /// The adversarial shape.
    pub kind: HazardKind,
    /// Total tuples across all source instances.
    pub total_tuples: usize,
    /// Base event rate in tuples/s (event-time spacing outside bursts).
    pub event_rate: f64,
    /// Distinct non-hot key cardinality for value generation.
    pub cardinality: u64,
    /// RNG seed: the same seed reproduces the exact same stream.
    pub seed: u64,
}

impl HazardConfig {
    /// Canonical Zipf-like hot-key scenario: one key takes 60% of traffic.
    pub fn hot_key(seed: u64) -> Self {
        HazardConfig {
            kind: HazardKind::HotKey {
                hot_fraction: 0.6,
                cardinality: 100,
            },
            total_tuples: 20_000,
            event_rate: 10_000.0,
            cardinality: 100,
            seed,
        }
    }

    /// Canonical burst-train scenario: 20x rate bursts.
    pub fn burst_train(seed: u64) -> Self {
        HazardConfig {
            kind: HazardKind::BurstTrain {
                burst_len: 2_000,
                quiet_len: 2_000,
                burst_rate: 200_000.0,
            },
            total_tuples: 20_000,
            event_rate: 10_000.0,
            cardinality: 100,
            seed,
        }
    }

    /// Canonical late-storm scenario: the middle third of the stream sends
    /// 40% of tuples 500ms late.
    pub fn late_storm(seed: u64) -> Self {
        HazardConfig {
            kind: HazardKind::LateStorm {
                late_fraction: 0.4,
                lateness_ms: 500,
                storm_start: 1.0 / 3.0,
                storm_end: 2.0 / 3.0,
            },
            total_tuples: 20_000,
            event_rate: 10_000.0,
            cardinality: 100,
            seed,
        }
    }

    /// The three canonical scenarios (hot key, burst train, late storm).
    pub fn canonical_suite(seed: u64) -> Vec<HazardConfig> {
        vec![
            HazardConfig::hot_key(seed),
            HazardConfig::burst_train(seed.wrapping_add(1)),
            HazardConfig::late_storm(seed.wrapping_add(2)),
        ]
    }
}

/// The generated stream: `[Int key, Double value]` tuples shaped by the
/// configured hazard. Implements [`SourceFactory`].
pub struct HazardStream {
    config: HazardConfig,
}

impl HazardStream {
    /// Build a stream for the config.
    pub fn new(config: HazardConfig) -> Arc<Self> {
        Arc::new(HazardStream { config })
    }

    /// The stream's config.
    pub fn config(&self) -> &HazardConfig {
        &self.config
    }

    /// The fixed output schema: `[Int key, Double value]`.
    pub fn schema() -> Schema {
        Schema::of(&[FieldType::Int, FieldType::Double])
    }

    /// Generate the substream for one instance: `count` tuples, seeded per
    /// instance, with event-time spacing derived from the rates.
    fn generate(&self, instance: usize, count: usize, rate_divisor: f64) -> Vec<Tuple> {
        let cfg = &self.config;
        let mut rng = ChaCha8Rng::seed_from_u64(
            cfg.seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(instance as u64 + 1)),
        );
        let base_gap_ms = 1_000.0 / (cfg.event_rate / rate_divisor).max(1e-3);
        let mut t_ms = 0.0f64;
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let (key, gap_ms, mut late_by) = match &cfg.kind {
                HazardKind::HotKey {
                    hot_fraction,
                    cardinality,
                } => {
                    let key = if rng.gen_bool(hot_fraction.clamp(0.0, 1.0)) {
                        0
                    } else {
                        rng.gen_range(1..(*cardinality).max(2)) as i64
                    };
                    (key, base_gap_ms, 0)
                }
                HazardKind::BurstTrain {
                    burst_len,
                    quiet_len,
                    burst_rate,
                } => {
                    let cycle = (burst_len + quiet_len).max(1);
                    let in_burst = i % cycle < *burst_len;
                    let gap = if in_burst {
                        1_000.0 / (burst_rate / rate_divisor).max(1e-3)
                    } else {
                        base_gap_ms
                    };
                    (rng.gen_range(0..cfg.cardinality.max(1)) as i64, gap, 0)
                }
                HazardKind::LateStorm {
                    late_fraction,
                    lateness_ms,
                    storm_start,
                    storm_end,
                } => {
                    let pos = i as f64 / count.max(1) as f64;
                    let late = pos >= *storm_start
                        && pos < *storm_end
                        && rng.gen_bool(late_fraction.clamp(0.0, 1.0));
                    (
                        rng.gen_range(0..cfg.cardinality.max(1)) as i64,
                        base_gap_ms,
                        if late { *lateness_ms } else { 0 },
                    )
                }
            };
            t_ms += gap_ms;
            late_by = late_by.max(0);
            let et = (t_ms as i64 - late_by).max(0);
            out.push(Tuple::at(
                Row::from([Value::Int(key), Value::Double(rng.gen_range(0.0..100.0))]),
                et,
            ));
        }
        out
    }
}

impl SourceFactory for HazardStream {
    fn instance_iter(
        &self,
        instance_index: usize,
        parallelism: usize,
    ) -> Box<dyn Iterator<Item = Tuple> + Send> {
        let count = self.config.total_tuples / parallelism.max(1);
        let tuples = self.generate(instance_index, count, parallelism.max(1) as f64);
        Box::new(tuples.into_iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(cfg: HazardConfig) -> Vec<Tuple> {
        HazardStream::new(cfg).instance_iter(0, 1).collect()
    }

    #[test]
    fn hot_key_concentrates_to_fraction() {
        let tuples = collect(HazardConfig::hot_key(7));
        let hot = tuples
            .iter()
            .filter(|t| t.values[0] == Value::Int(0))
            .count() as f64;
        let frac = hot / tuples.len() as f64;
        assert!(
            (frac - 0.6).abs() < 0.03,
            "hot key should take ~60% of traffic, got {frac}"
        );
    }

    #[test]
    fn burst_train_alternates_arrival_density() {
        let tuples = collect(HazardConfig::burst_train(7));
        // First 2000 tuples are a burst at 200k/s (0.005ms gaps); the next
        // 2000 are quiet at 10k/s (0.1ms gaps).
        let burst_span = tuples[1_999].event_time - tuples[0].event_time;
        let quiet_span = tuples[3_999].event_time - tuples[2_000].event_time;
        assert!(
            quiet_span > burst_span * 5,
            "quiet span {quiet_span}ms must dwarf burst span {burst_span}ms"
        );
    }

    #[test]
    fn late_storm_regresses_event_times_mid_stream() {
        let tuples = collect(HazardConfig::late_storm(7));
        let n = tuples.len();
        let inversions = |range: std::ops::Range<usize>| {
            tuples[range]
                .windows(2)
                .filter(|w| w[0].event_time > w[1].event_time + 100)
                .count()
        };
        assert_eq!(inversions(0..n / 3), 0, "pre-storm stream is ordered");
        assert!(
            inversions(n / 3..2 * n / 3) > 100,
            "storm produces deep inversions"
        );
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let a = collect(HazardConfig::hot_key(42));
        let b = collect(HazardConfig::hot_key(42));
        let c = collect(HazardConfig::hot_key(43));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn instances_split_volume() {
        let stream = HazardStream::new(HazardConfig::burst_train(7));
        let total: usize = (0..4).map(|i| stream.instance_iter(i, 4).count()).sum();
        assert_eq!(total, 20_000);
    }

    #[test]
    fn canonical_suite_covers_all_kinds() {
        let suite = HazardConfig::canonical_suite(1);
        let labels: Vec<&str> = suite.iter().map(|c| c.kind.label()).collect();
        assert_eq!(labels, ["hot_key", "burst_train", "late_storm"]);
    }
}
