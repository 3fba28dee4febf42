//! Synthetic parallel-query-plan generation.
//!
//! Nine query structures span the paper's range "from simple linear queries
//! with one filter to complex configurations involving multi-way joins and
//! multiple chained filters" (§3.1). Filter literals are drawn through
//! selectivity estimation so every generated filter keeps `0 < sel < 1`;
//! window specs, aggregate functions, and comparison ops randomize over
//! Table 3.

use crate::data_gen::{Skew, StreamConfig, SyntheticStream};
use crate::selectivity::SelectivityEstimator;
use crate::space::ParameterSpace;
use pdsp_engine::expr::Predicate;
use pdsp_engine::operator::OpKind;
use pdsp_engine::plan::{LogicalPlan, Partitioning};
use pdsp_engine::value::{FieldType, Schema};
use pdsp_engine::window::WindowSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The nine synthetic query structures of the benchmark suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QueryStructure {
    /// source -> filter -> window agg -> sink.
    Linear,
    /// Two chained filters before the aggregation.
    TwoFilter,
    /// Three chained filters.
    ThreeFilter,
    /// Four chained filters.
    FourFilter,
    /// Two sources joined (Figure 2 left).
    TwoWayJoin,
    /// Three-way join (chained binary joins).
    ThreeWayJoin,
    /// Four-way join.
    FourWayJoin,
    /// Five-way join.
    FiveWayJoin,
    /// Six-way join.
    SixWayJoin,
}

impl QueryStructure {
    /// All structures.
    pub const ALL: [QueryStructure; 9] = [
        QueryStructure::Linear,
        QueryStructure::TwoFilter,
        QueryStructure::ThreeFilter,
        QueryStructure::FourFilter,
        QueryStructure::TwoWayJoin,
        QueryStructure::ThreeWayJoin,
        QueryStructure::FourWayJoin,
        QueryStructure::FiveWayJoin,
        QueryStructure::SixWayJoin,
    ];

    /// Structures "seen" during Fig. 6 training (linear, 2-way, 3-way join,
    /// per O9); the rest are the unseen generalization set.
    pub const SEEN: [QueryStructure; 3] = [
        QueryStructure::Linear,
        QueryStructure::TwoWayJoin,
        QueryStructure::ThreeWayJoin,
    ];

    /// Number of chained filters per source branch.
    pub fn filter_count(self) -> usize {
        match self {
            QueryStructure::Linear => 1,
            QueryStructure::TwoFilter => 2,
            QueryStructure::ThreeFilter => 3,
            QueryStructure::FourFilter => 4,
            _ => 1,
        }
    }

    /// Number of source streams.
    pub fn source_count(self) -> usize {
        match self {
            QueryStructure::TwoWayJoin => 2,
            QueryStructure::ThreeWayJoin => 3,
            QueryStructure::FourWayJoin => 4,
            QueryStructure::FiveWayJoin => 5,
            QueryStructure::SixWayJoin => 6,
            _ => 1,
        }
    }

    /// Number of binary join operators.
    pub fn join_count(self) -> usize {
        self.source_count().saturating_sub(1)
    }

    /// Short label used in figures.
    pub fn label(self) -> &'static str {
        match self {
            QueryStructure::Linear => "linear",
            QueryStructure::TwoFilter => "2-filter",
            QueryStructure::ThreeFilter => "3-filter",
            QueryStructure::FourFilter => "4-filter",
            QueryStructure::TwoWayJoin => "2-way-join",
            QueryStructure::ThreeWayJoin => "3-way-join",
            QueryStructure::FourWayJoin => "4-way-join",
            QueryStructure::FiveWayJoin => "5-way-join",
            QueryStructure::SixWayJoin => "6-way-join",
        }
    }
}

/// A generated query: plan + the streams feeding its sources.
pub struct GeneratedQuery {
    /// The logical plan (all parallelism degrees 1; enumerators set them).
    pub plan: LogicalPlan,
    /// One stream per source node, in source order.
    pub streams: Vec<Arc<SyntheticStream>>,
    /// The structure it was generated from.
    pub structure: QueryStructure,
    /// Event rate per source.
    pub event_rate: f64,
    /// The window spec used by the aggregation/joins.
    pub window: WindowSpec,
    /// Estimated selectivity of each generated filter.
    pub filter_selectivities: Vec<f64>,
}

/// Randomized query generator over a parameter space.
pub struct QueryGenerator {
    space: ParameterSpace,
    rng: ChaCha8Rng,
    /// Tuples sampled per stream for selectivity estimation.
    sample_size: usize,
    /// Tuples per generated stream when executed on the threaded runtime.
    stream_tuples: usize,
    /// Event rate override (None = random from space).
    pub event_rate_override: Option<f64>,
    /// Window override (None = random from space). Experiments sweeping
    /// parallelism fix the window so latency differences come from the
    /// structure, not from each query drawing a different window length.
    pub window_override: Option<WindowSpec>,
}

impl QueryGenerator {
    /// Generator with the given space and seed.
    pub fn new(space: ParameterSpace, seed: u64) -> Self {
        QueryGenerator {
            space,
            rng: ChaCha8Rng::seed_from_u64(seed),
            sample_size: 2_000,
            stream_tuples: 10_000,
            event_rate_override: None,
            window_override: None,
        }
    }

    /// The parameter space.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    fn random_window(&mut self) -> WindowSpec {
        let time_based = self.rng.gen_bool(0.5);
        let sliding = self.rng.gen_bool(0.5);
        let (length, _unit) = if time_based {
            let d = self.space.window_durations_ms
                [self.rng.gen_range(0..self.space.window_durations_ms.len())];
            (d, "ms")
        } else {
            let l =
                self.space.window_lengths[self.rng.gen_range(0..self.space.window_lengths.len())];
            (l, "tuples")
        };
        let slide = if sliding {
            let ratio =
                self.space.slide_ratios[self.rng.gen_range(0..self.space.slide_ratios.len())];
            ((length as f64 * ratio).round() as u64).max(1)
        } else {
            length
        };
        match (time_based, sliding) {
            (true, true) => WindowSpec::sliding_time(length, slide),
            (true, false) => WindowSpec::tumbling_time(length),
            (false, true) => WindowSpec::sliding_count(length, slide),
            (false, false) => WindowSpec::tumbling_count(length),
        }
    }

    /// Synthetic stream schema convention: field 0 is an Int key, field 1 a
    /// Double measure, then random extra fields up to a random width. This
    /// guarantees every structure (keyed windows, equi-joins on field 0,
    /// numeric aggregation on field 1) is valid while width/types still
    /// randomize.
    fn random_stream(&mut self, event_rate: f64) -> StreamConfig {
        let extra = self.rng.gen_range(0..=13usize);
        let mut types = vec![FieldType::Int, FieldType::Double];
        for _ in 0..extra {
            types.push(self.space.field_types[self.rng.gen_range(0..self.space.field_types.len())]);
        }
        StreamConfig {
            schema: Schema::of(&types),
            event_rate,
            total_tuples: self.stream_tuples,
            cardinality: *[64u64, 256, 1_024].get(self.rng.gen_range(0..3)).unwrap(),
            skew: if self.rng.gen_bool(0.8) {
                Skew::Uniform
            } else {
                Skew::Zipf(1.1)
            },
            out_of_order_ms: 0,
            seed: self.rng.gen(),
        }
    }

    /// Draw a valid filter over the stream's sample: numeric or string field,
    /// random comparison op, literal solved to a random target selectivity
    /// inside the space's band.
    fn random_filter(
        &mut self,
        estimator: &SelectivityEstimator,
        width: usize,
    ) -> (Predicate, f64) {
        let band = self.space.selectivity_band;
        for _ in 0..16 {
            let field = self.rng.gen_range(0..width);
            let target = self.rng.gen_range(band.0..band.1);
            let op = self.space.filter_ops[self.rng.gen_range(0..self.space.filter_ops.len())];
            if let Some((p, sel)) = estimator.valid_filter(field, &[op], band, target) {
                return (p, sel);
            }
        }
        // Fall back to a pass-through filter — still a valid plan.
        (Predicate::True, 1.0)
    }

    /// Generate one query of the given structure.
    pub fn generate(&mut self, structure: QueryStructure) -> GeneratedQuery {
        let event_rate = self.event_rate_override.unwrap_or_else(|| {
            self.space.event_rates[self.rng.gen_range(0..self.space.event_rates.len())]
        });
        let window = match self.window_override {
            Some(w) => {
                // Keep the RNG stream aligned with the non-overridden path
                // so overriding the window does not reshuffle every other
                // generated parameter.
                let _ = self.random_window();
                w
            }
            None => self.random_window(),
        };
        let agg = self.space.agg_functions[self.rng.gen_range(0..self.space.agg_functions.len())];

        let mut plan = LogicalPlan::default();
        let mut streams = Vec::new();
        let mut selectivities = Vec::new();
        let n_sources = structure.source_count();
        let n_filters = structure.filter_count();

        // Per-source chains: source -> filter{n} .
        let mut branch_heads = Vec::new();
        for s in 0..n_sources {
            let cfg = self.random_stream(event_rate);
            let stream = SyntheticStream::new(cfg.clone());
            let estimator = SelectivityEstimator::new(stream.sample(self.sample_size));
            let src = plan.add_node(
                format!("src{s}"),
                OpKind::Source {
                    schema: cfg.schema.clone(),
                },
                1,
            );
            let mut head = src;
            for f in 0..n_filters {
                let (pred, sel) = self.random_filter(&estimator, cfg.schema.width());
                selectivities.push(sel);
                let node = plan.add_node(
                    format!("filter{s}_{f}"),
                    OpKind::Filter {
                        predicate: pred,
                        selectivity: sel,
                    },
                    1,
                );
                plan.connect(head, node, Partitioning::Rebalance);
                head = node;
            }
            branch_heads.push(head);
            streams.push(stream);
        }

        // Chained binary joins over branch heads (key = field 0 of each
        // stream; join output key stays at index 0 because left fields come
        // first).
        let mut head = branch_heads[0];
        for (j, &right) in branch_heads.iter().enumerate().skip(1) {
            let join = plan.add_node(
                format!("join{j}"),
                OpKind::Join {
                    window,
                    left_key: 0,
                    right_key: 0,
                },
                1,
            );
            plan.connect_port(head, join, 0, Partitioning::Hash(vec![0]));
            plan.connect_port(right, join, 1, Partitioning::Hash(vec![0]));
            head = join;
        }

        // Keyed window aggregation on the Double measure (field 1) grouped
        // by the key (field 0), then sink.
        let agg_node = plan.add_node(
            "agg",
            OpKind::WindowAggregate {
                window,
                func: agg,
                agg_field: 1,
                key_field: Some(0),
            },
            1,
        );
        plan.connect(head, agg_node, Partitioning::Hash(vec![0]));
        let sink = plan.add_node("sink", OpKind::Sink, 1);
        plan.connect(agg_node, sink, Partitioning::Rebalance);

        #[cfg(debug_assertions)]
        {
            let flow = plan
                .validate()
                .unwrap_or_else(|e| panic!("generated plan validates: {e}"));
            let report =
                pdsp_analyze::analyze(structure.label(), &plan).expect("generated plan analyzes");
            debug_assert_eq!(report.errors(), 0, "{}", report.render());
            debug_assert!(
                flow.is_clean(),
                "generated plan has schema errors: {:?}",
                flow.issues
            );
            debug_assert!(
                flow.is_complete(),
                "generated plan has untyped nodes or edges"
            );
        }
        GeneratedQuery {
            plan,
            streams,
            structure,
            event_rate,
            window,
            filter_selectivities: selectivities,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generator(seed: u64) -> QueryGenerator {
        QueryGenerator::new(ParameterSpace::default(), seed)
    }

    #[test]
    fn all_structures_generate_valid_plans() {
        let mut g = generator(1);
        for s in QueryStructure::ALL {
            let q = g.generate(s);
            q.plan.validate().unwrap_or_else(|e| panic!("{s:?}: {e}"));
            assert_eq!(q.streams.len(), s.source_count());
            assert_eq!(
                q.plan.sources().len(),
                s.source_count(),
                "{s:?} source count"
            );
        }
    }

    #[test]
    fn structure_operator_counts() {
        assert_eq!(QueryStructure::FourFilter.filter_count(), 4);
        assert_eq!(QueryStructure::SixWayJoin.join_count(), 5);
        assert_eq!(QueryStructure::Linear.join_count(), 0);
    }

    #[test]
    fn join_plans_have_expected_joins() {
        let mut g = generator(2);
        let q = g.generate(QueryStructure::ThreeWayJoin);
        let joins = q
            .plan
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Join { .. }))
            .count();
        assert_eq!(joins, 2);
    }

    #[test]
    fn generated_filters_respect_selectivity_band() {
        let mut g = generator(3);
        for _ in 0..5 {
            let q = g.generate(QueryStructure::ThreeFilter);
            for &sel in &q.filter_selectivities {
                // Fallback Predicate::True reports 1.0; everything else must
                // be inside the open band.
                assert!(
                    sel == 1.0 || (sel > 0.0 && sel < 1.0),
                    "selectivity {sel} out of band"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generator(42).generate(QueryStructure::TwoWayJoin);
        let b = generator(42).generate(QueryStructure::TwoWayJoin);
        assert_eq!(
            a.plan.descriptor().nodes.len(),
            b.plan.descriptor().nodes.len()
        );
        assert_eq!(a.window, b.window);
        assert_eq!(a.filter_selectivities, b.filter_selectivities);
    }

    #[test]
    fn event_rate_override_is_honored() {
        let mut g = generator(5);
        g.event_rate_override = Some(123_456.0);
        let q = g.generate(QueryStructure::Linear);
        assert_eq!(q.event_rate, 123_456.0);
        assert_eq!(q.streams[0].config().event_rate, 123_456.0);
    }

    #[test]
    fn seen_unseen_partition_covers_all() {
        let unseen: Vec<_> = QueryStructure::ALL
            .iter()
            .filter(|s| !QueryStructure::SEEN.contains(s))
            .collect();
        assert_eq!(unseen.len() + QueryStructure::SEEN.len(), 9);
    }
}
