//! Synthetic data-stream generation.
//!
//! Streams vary over tuple width, per-field data types, and event rate
//! (Table 3), with Poisson (default) or Zipf-keyed content — the domain
//! randomization the paper borrows from ML training practice (§3.1).

use crate::distributions::{PoissonGaps, Zipf};
use crate::space::ParameterSpace;
use pdsp_engine::runtime::SourceFactory;
use pdsp_engine::value::{FieldType, Row, Schema, Tuple, Value};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Key-skew model for generated values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Skew {
    /// Uniform values.
    Uniform,
    /// Zipf-skewed values with the given exponent.
    Zipf(f64),
}

/// Configuration of one synthetic stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Tuple schema.
    pub schema: Schema,
    /// Events per second (drives event-time spacing).
    pub event_rate: f64,
    /// Number of tuples each full stream carries.
    pub total_tuples: usize,
    /// Distinct values per integer/string field (key cardinality).
    pub cardinality: u64,
    /// Value skew.
    pub skew: Skew,
    /// Maximum backwards event-time jitter in ms (0 = perfectly ordered).
    /// Models real feeds where tuples arrive up to this much out of order.
    pub out_of_order_ms: u64,
    /// RNG seed.
    pub seed: u64,
}

impl StreamConfig {
    /// A reasonable default stream: 4-field mixed schema, 10k tuples at
    /// 10k ev/s.
    pub fn example() -> Self {
        StreamConfig {
            schema: Schema::of(&[
                FieldType::Int,
                FieldType::Double,
                FieldType::Str,
                FieldType::Int,
            ]),
            event_rate: 10_000.0,
            total_tuples: 10_000,
            cardinality: 100,
            skew: Skew::Uniform,
            out_of_order_ms: 0,
            seed: 7,
        }
    }

    /// Draw a random stream config from the parameter space (tuple width,
    /// field types, event rate).
    pub fn random(space: &ParameterSpace, rng: &mut impl Rng, total_tuples: usize) -> Self {
        let width = space.tuple_widths[rng.gen_range(0..space.tuple_widths.len())];
        let types: Vec<FieldType> = (0..width)
            .map(|_| space.field_types[rng.gen_range(0..space.field_types.len())])
            .collect();
        let event_rate = space.event_rates[rng.gen_range(0..space.event_rates.len())];
        StreamConfig {
            schema: Schema::of(&types),
            event_rate,
            total_tuples,
            cardinality: *[10u64, 100, 1_000, 10_000]
                .get(rng.gen_range(0..4))
                .unwrap(),
            skew: if rng.gen_bool(0.5) {
                Skew::Uniform
            } else {
                Skew::Zipf(1.1)
            },
            out_of_order_ms: if rng.gen_bool(0.75) { 0 } else { 50 },
            seed: rng.gen(),
        }
    }
}

/// A deterministic synthetic stream: implements the engine's
/// [`SourceFactory`] so it can feed the threaded runtime directly, and
/// offers [`SyntheticStream::sample`] for selectivity estimation.
pub struct SyntheticStream {
    config: StreamConfig,
    zipf: Option<Zipf>,
}

impl SyntheticStream {
    /// Build a stream for the config.
    pub fn new(config: StreamConfig) -> Arc<Self> {
        let zipf = match config.skew {
            Skew::Zipf(s) => Some(Zipf::new(config.cardinality.max(1), s)),
            Skew::Uniform => None,
        };
        Arc::new(SyntheticStream { config, zipf })
    }

    /// The stream's config.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    fn gen_value(&self, ty: FieldType, rng: &mut ChaCha8Rng) -> Value {
        let card = self.config.cardinality.max(1);
        let key = match &self.zipf {
            Some(z) => z.sample(rng) - 1,
            None => rng.gen_range(0..card),
        };
        match ty {
            FieldType::Int => Value::Int(key as i64),
            FieldType::Double => Value::Double(rng.gen_range(0.0..1000.0)),
            FieldType::Str => Value::str(format!("k{key}")),
            FieldType::Bool => Value::Bool(rng.gen_bool(0.5)),
            FieldType::Timestamp => Value::Timestamp(rng.gen_range(0..1_000_000)),
        }
    }

    /// Generate `n` sample tuples (for selectivity estimation); event times
    /// follow the Poisson arrival process.
    pub fn sample(&self, n: usize) -> Vec<Tuple> {
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let gaps = PoissonGaps::for_rate(self.config.event_rate);
        let mut t_ns = 0.0f64;
        (0..n)
            .map(|_| {
                t_ns += gaps.next_gap_ns(&mut rng);
                let values: Row = self
                    .config
                    .schema
                    .fields
                    .iter()
                    .map(|f| self.gen_value(f.ty, &mut rng))
                    .collect();
                let mut et = (t_ns / 1e6) as i64;
                if self.config.out_of_order_ms > 0 {
                    et -= rng.gen_range(0..=self.config.out_of_order_ms) as i64;
                }
                Tuple::at(values, et.max(0))
            })
            .collect()
    }
}

impl SourceFactory for SyntheticStream {
    fn instance_iter(
        &self,
        instance_index: usize,
        parallelism: usize,
    ) -> Box<dyn Iterator<Item = Tuple> + Send> {
        // Each instance draws an independent seeded substream of
        // total/parallelism tuples; event rate is split across instances so
        // the combined stream matches the configured rate.
        let count = self.config.total_tuples / parallelism.max(1);
        let rate = self.config.event_rate / parallelism.max(1) as f64;
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.config
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(instance_index as u64 + 1)),
        );
        let gaps = PoissonGaps::for_rate(rate.max(1e-3));
        let schema = self.config.schema.clone();
        let this = SyntheticStream {
            config: self.config.clone(),
            zipf: self.zipf.clone(),
        };
        let mut t_ns = 0.0f64;
        let ooo = self.config.out_of_order_ms;
        Box::new((0..count).map(move |_| {
            t_ns += gaps.next_gap_ns(&mut rng);
            let values: Row = schema
                .fields
                .iter()
                .map(|f| this.gen_value(f.ty, &mut rng))
                .collect();
            let mut et = (t_ns / 1e6) as i64;
            if ooo > 0 {
                et -= rng.gen_range(0..=ooo) as i64;
            }
            Tuple::at(values, et.max(0))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_matches_schema() {
        let stream = SyntheticStream::new(StreamConfig::example());
        let sample = stream.sample(100);
        assert_eq!(sample.len(), 100);
        for t in &sample {
            assert!(stream.config().schema.matches(t), "tuple {t:?}");
        }
    }

    #[test]
    fn event_times_are_monotone_and_rate_consistent() {
        let mut cfg = StreamConfig::example();
        cfg.event_rate = 1_000.0; // 1 tuple/ms
        let stream = SyntheticStream::new(cfg);
        let sample = stream.sample(5_000);
        let times: Vec<i64> = sample.iter().map(|t| t.event_time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        let span_ms = (times[4_999] - times[0]) as f64;
        assert!(
            (span_ms - 5_000.0).abs() / 5_000.0 < 0.1,
            "5000 tuples at 1k/s should span ~5000ms, got {span_ms}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = StreamConfig::example();
        let a = SyntheticStream::new(cfg.clone()).sample(50);
        let b = SyntheticStream::new(cfg).sample(50);
        assert_eq!(a, b);
    }

    #[test]
    fn instances_split_volume() {
        let stream = SyntheticStream::new(StreamConfig::example());
        let total: usize = (0..4).map(|i| stream.instance_iter(i, 4).count()).sum();
        assert_eq!(total, 10_000);
    }

    #[test]
    fn out_of_order_jitter_disorders_event_times() {
        let mut cfg = StreamConfig::example();
        cfg.event_rate = 1_000.0;
        cfg.out_of_order_ms = 50;
        let stream = SyntheticStream::new(cfg);
        let sample = stream.sample(2_000);
        let inversions = sample
            .windows(2)
            .filter(|w| w[0].event_time > w[1].event_time)
            .count();
        assert!(inversions > 0, "jitter must produce disorder");
        // Disorder is bounded: no tuple is displaced further than the
        // configured jitter relative to the arrival order trend.
        let max_regress = sample
            .windows(2)
            .map(|w| (w[0].event_time - w[1].event_time).max(0))
            .max()
            .unwrap();
        assert!(max_regress <= 50, "regress {max_regress} within bound");
    }

    #[test]
    fn zipf_skew_concentrates_keys() {
        let mut cfg = StreamConfig::example();
        cfg.skew = Skew::Zipf(1.5);
        cfg.schema = Schema::of(&[FieldType::Int]);
        let stream = SyntheticStream::new(cfg);
        let sample = stream.sample(10_000);
        let zero_count = sample
            .iter()
            .filter(|t| t.values[0] == Value::Int(0))
            .count();
        assert!(
            zero_count > 1_500,
            "rank-1 key should dominate under zipf 1.5: {zero_count}"
        );
    }

    #[test]
    fn random_config_stays_in_space() {
        let space = ParameterSpace::default();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..50 {
            let cfg = StreamConfig::random(&space, &mut rng, 1_000);
            assert!(space.tuple_widths.contains(&cfg.schema.width()));
            assert!(space.event_rates.contains(&cfg.event_rate));
        }
    }
}
