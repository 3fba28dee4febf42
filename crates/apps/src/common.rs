//! Shared application infrastructure: configs, the [`Application`] trait,
//! and the seeded closure-backed source generator.

use pdsp_engine::plan::LogicalPlan;
use pdsp_engine::runtime::SourceFactory;
use pdsp_engine::value::{Field, FieldType, Row, Schema, Tuple};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Configuration shared by every application build.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppConfig {
    /// Event rate per source, tuples/second (drives event-time spacing).
    pub event_rate: f64,
    /// Tuples per source for a bounded run.
    pub total_tuples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            event_rate: 10_000.0,
            total_tuples: 10_000,
            seed: 1,
        }
    }
}

/// A built application: plan plus its source streams.
pub struct BuiltApp {
    /// The logical plan (parallelism degrees 1; callers enumerate).
    pub plan: LogicalPlan,
    /// One factory per source node, in source order.
    pub sources: Vec<Arc<dyn SourceFactory>>,
}

/// One application in the suite.
pub trait Application: Send + Sync {
    /// Registry metadata.
    fn info(&self) -> crate::registry::AppInfo;

    /// Build the plan and source generators.
    fn build(&self, config: &AppConfig) -> BuiltApp;
}

/// A named schema from `(name, type)` pairs — every application declares
/// its source (and UDO output) schemas with real field names so the
/// type-flow pass (PB06x) and `--check-schemas` wire validation report
/// findings against meaningful columns, not `f0`/`f1`.
pub fn named_schema(fields: &[(&str, FieldType)]) -> Schema {
    Schema::new(
        fields
            .iter()
            .map(|&(name, ty)| Field::new(name, ty))
            .collect(),
    )
}

/// Seeded source generating tuples from a closure: `f(i, rng) -> values`.
/// Event times follow the configured rate with Poisson gaps; instances
/// partition the index space round-robin and draw independent RNG streams.
pub struct ClosureStream<F> {
    schema: Schema,
    event_rate: f64,
    total: usize,
    seed: u64,
    f: F,
}

impl<F> ClosureStream<F>
where
    F: Fn(u64, &mut ChaCha8Rng) -> Row + Send + Sync + Clone + 'static,
{
    /// Build a closure stream.
    pub fn new(schema: Schema, config: &AppConfig, f: F) -> Arc<Self> {
        Arc::new(ClosureStream {
            schema,
            event_rate: config.event_rate,
            total: config.total_tuples,
            seed: config.seed,
            f,
        })
    }

    /// The stream's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Generate the first `n` tuples of instance 0 (for tests).
    pub fn sample(&self, n: usize) -> Vec<Tuple> {
        self.instance_iter(0, 1).take(n).collect()
    }
}

impl<F> SourceFactory for ClosureStream<F>
where
    F: Fn(u64, &mut ChaCha8Rng) -> Row + Send + Sync + Clone + 'static,
{
    fn instance_iter(
        &self,
        instance_index: usize,
        parallelism: usize,
    ) -> Box<dyn Iterator<Item = Tuple> + Send> {
        let count = self.total / parallelism.max(1);
        let rate = (self.event_rate / parallelism.max(1) as f64).max(1e-3);
        let mean_gap_ms = 1e3 / rate;
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.seed ^ (instance_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let f = self.f.clone();
        let mut t_ms = 0.0f64;
        let mut i = instance_index as u64;
        let stride = parallelism as u64;
        Box::new((0..count).map(move |_| {
            let u: f64 = rng.gen_range(1e-12..1.0);
            t_ms += -mean_gap_ms * u.ln();
            let values = f(i, &mut rng);
            i += stride;
            Tuple::at(values, t_ms as i64)
        }))
    }
}

/// Words used by text-producing sources (WC, SA, TT).
pub const WORDS: [&str; 40] = [
    "stream",
    "data",
    "flink",
    "storm",
    "latency",
    "window",
    "join",
    "filter",
    "great",
    "bad",
    "awesome",
    "terrible",
    "good",
    "poor",
    "fast",
    "slow",
    "cloud",
    "edge",
    "query",
    "plan",
    "operator",
    "parallel",
    "benchmark",
    "tuple",
    "event",
    "rate",
    "state",
    "key",
    "happy",
    "sad",
    "love",
    "hate",
    "excellent",
    "awful",
    "amazing",
    "boring",
    "win",
    "fail",
    "nice",
    "worst",
];

/// Hashtags used by social sources.
pub const HASHTAGS: [&str; 12] = [
    "#streaming",
    "#bigdata",
    "#flink",
    "#iot",
    "#ml",
    "#cloud",
    "#debs",
    "#sigmod",
    "#tpctc",
    "#rust",
    "#realtime",
    "#benchmark",
];

/// Build a random sentence of `len` words.
pub fn random_sentence(rng: &mut ChaCha8Rng, len: usize) -> String {
    let mut s = String::new();
    for i in 0..len {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsp_engine::value::Value;

    #[test]
    fn closure_stream_generates_schema_conformant_tuples() {
        let cfg = AppConfig::default();
        let schema = Schema::of(&[FieldType::Int, FieldType::Double]);
        let stream = ClosureStream::new(schema.clone(), &cfg, |i, rng| {
            Row::from([Value::Int(i as i64), Value::Double(rng.gen_range(0.0..1.0))])
        });
        for t in stream.sample(100) {
            assert!(schema.matches(&t));
        }
    }

    #[test]
    fn instances_partition_index_space() {
        let cfg = AppConfig {
            total_tuples: 1000,
            ..AppConfig::default()
        };
        let stream = ClosureStream::new(Schema::of(&[FieldType::Int]), &cfg, |i, _| {
            Row::from([Value::Int(i as i64)])
        });
        let mut ids: Vec<i64> = (0..4)
            .flat_map(|inst| {
                stream
                    .instance_iter(inst, 4)
                    .map(|t| t.values[0].as_i64().unwrap())
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 1000, "indices must not overlap");
    }

    #[test]
    fn event_times_honor_rate() {
        let cfg = AppConfig {
            event_rate: 1_000.0,
            total_tuples: 4_000,
            ..AppConfig::default()
        };
        let stream = ClosureStream::new(Schema::of(&[FieldType::Int]), &cfg, |_, _| {
            Row::from([Value::Int(0)])
        });
        let tuples: Vec<Tuple> = stream.instance_iter(0, 1).collect();
        let span = (tuples.last().unwrap().event_time - tuples[0].event_time) as f64;
        assert!(
            (span - 4_000.0).abs() / 4_000.0 < 0.1,
            "4000 tuples at 1k/s spans ~4s, got {span}ms"
        );
    }

    #[test]
    fn random_sentence_has_len_words() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let s = random_sentence(&mut rng, 7);
        assert_eq!(s.split_whitespace().count(), 7);
    }
}
