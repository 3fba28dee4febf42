//! Parallelism enumeration strategies (§3.1).
//!
//! Random degrees make noisy or outright bad PQPs (one filter instance
//! starving sixteen join instances); the paper therefore offers six
//! strategies, from pure randomness to the rule-based scheme following
//! Kalavri et al.'s "three steps is all you need" (DS2): size each
//! operator's degree to its expected service demand.

use pdsp_engine::operator::OpKind;
use pdsp_engine::plan::LogicalPlan;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The six strategies.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EnumerationStrategy {
    /// Uniformly random degree per operator.
    Random,
    /// Demand-driven degrees (DS2-style) with bounded exploration around
    /// the computed optimum.
    RuleBased,
    /// Cartesian product of all allowed degrees (capped by `count`).
    Exhaustive,
    /// Cycle through minimum, average, and maximum degrees.
    MinAvgMax,
    /// Uniform assignments stepping through the allowed ladder.
    Increasing,
    /// User-provided degrees (rapid testing).
    ParameterBased(Vec<usize>),
}

/// Enumerates parallelism-degree assignments for a plan.
pub struct ParallelismEnumerator {
    /// Allowed degrees (ascending).
    pub degrees: Vec<usize>,
    /// Total cores available — degrees above this are never produced.
    pub max_cores: usize,
    /// Reference clock (GHz) for the rule-based demand computation.
    pub clock_ghz: f64,
    rng: ChaCha8Rng,
}

impl ParallelismEnumerator {
    /// Enumerator over `degrees`, capped at `max_cores`, seeded.
    pub fn new(mut degrees: Vec<usize>, max_cores: usize, seed: u64) -> Self {
        degrees.sort_unstable();
        degrees.dedup();
        ParallelismEnumerator {
            degrees,
            max_cores,
            clock_ghz: 2.0,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    fn allowed(&self) -> Vec<usize> {
        self.degrees
            .iter()
            .copied()
            .filter(|&d| d <= self.max_cores)
            .collect()
    }

    /// Indices of operator nodes whose degree is enumerated: everything but
    /// sources, sinks, and operators whose semantics pin them to a single
    /// instance (global aggregations, global-view UDOs) — enumerating those
    /// only produces assignments the analyzer then rejects.
    fn tunable(plan: &LogicalPlan) -> Vec<usize> {
        plan.nodes
            .iter()
            .filter(|n| !matches!(n.kind, OpKind::Source { .. } | OpKind::Sink))
            .filter(|n| n.kind.max_useful_parallelism() != Some(1))
            .map(|n| n.id)
            .collect()
    }

    /// Produce up to `count` degree assignments (each a full per-node degree
    /// vector; untuned nodes keep their plan value).
    pub fn enumerate(
        &mut self,
        plan: &LogicalPlan,
        strategy: &EnumerationStrategy,
        event_rate: f64,
        count: usize,
    ) -> Vec<Vec<usize>> {
        let base: Vec<usize> = plan.nodes.iter().map(|n| n.parallelism).collect();
        let tunable = Self::tunable(plan);
        let allowed = self.allowed();
        if allowed.is_empty() || tunable.is_empty() {
            return vec![base];
        }
        match strategy {
            EnumerationStrategy::Random => (0..count)
                .map(|_| {
                    let mut v = base.clone();
                    for &i in &tunable {
                        v[i] = allowed[self.rng.gen_range(0..allowed.len())];
                    }
                    v
                })
                .collect(),
            EnumerationStrategy::RuleBased => {
                let optimal = self.rule_based_degrees(plan, event_rate);
                (0..count)
                    .map(|_| {
                        let mut v = base.clone();
                        for &i in &tunable {
                            // Explore around the optimum: x0.75 .. x1.5,
                            // snapped to the allowed ladder.
                            let jitter = self.rng.gen_range(0.75..1.5);
                            let target = ((optimal[i] as f64 * jitter).round() as usize).max(1);
                            v[i] = snap(&allowed, target);
                        }
                        v
                    })
                    .collect()
            }
            EnumerationStrategy::Exhaustive => {
                let mut out = Vec::new();
                let k = tunable.len();
                let mut idx = vec![0usize; k];
                'outer: loop {
                    let mut v = base.clone();
                    for (j, &i) in tunable.iter().enumerate() {
                        v[i] = allowed[idx[j]];
                    }
                    out.push(v);
                    if out.len() >= count {
                        break;
                    }
                    // Odometer increment.
                    let mut j = 0;
                    loop {
                        idx[j] += 1;
                        if idx[j] < allowed.len() {
                            break;
                        }
                        idx[j] = 0;
                        j += 1;
                        if j == k {
                            break 'outer;
                        }
                    }
                }
                out
            }
            EnumerationStrategy::MinAvgMax => {
                let min = *allowed.first().unwrap();
                let max = *allowed.last().unwrap();
                let avg = snap(&allowed, (min + max) / 2);
                let ladder = [min, avg, max];
                (0..count)
                    .map(|c| {
                        let mut v = base.clone();
                        for &i in &tunable {
                            v[i] = ladder[c % 3];
                        }
                        v
                    })
                    .collect()
            }
            EnumerationStrategy::Increasing => allowed
                .iter()
                .take(count)
                .map(|&d| {
                    let mut v = base.clone();
                    for &i in &tunable {
                        v[i] = d;
                    }
                    v
                })
                .collect(),
            EnumerationStrategy::ParameterBased(degrees) => {
                let mut v = base.clone();
                for (slot, &i) in tunable.iter().enumerate() {
                    if let Some(&d) = degrees.get(slot) {
                        v[i] = d.max(1);
                    }
                }
                vec![v]
            }
        }
    }

    /// Like [`enumerate`](Self::enumerate), but every assignment is
    /// additionally vetted: the candidate plan must pass `validate()` and
    /// carry zero Error-severity diagnostics from the static analyzer.
    /// Assignments that fail are dropped, so the result may hold fewer than
    /// `count` entries.
    pub fn enumerate_valid(
        &mut self,
        plan: &LogicalPlan,
        strategy: &EnumerationStrategy,
        event_rate: f64,
        count: usize,
    ) -> Vec<Vec<usize>> {
        let analyzer = pdsp_analyze::Analyzer::new();
        self.enumerate(plan, strategy, event_rate, count)
            .into_iter()
            .filter(|assignment| {
                let mut candidate = plan.clone();
                for (id, &degree) in assignment.iter().enumerate() {
                    candidate.nodes[id].parallelism = degree;
                }
                let validated = candidate.validate();
                let accepted = validated.is_ok()
                    && analyzer
                        .analyze("candidate", &candidate)
                        .map(|r| r.errors() == 0)
                        .unwrap_or(false);
                #[cfg(debug_assertions)]
                if let (true, Ok(flow)) = (accepted, &validated) {
                    // Degree choices never change tuple types, so every
                    // accepted assignment must still carry a clean and
                    // complete schema flow.
                    debug_assert!(
                        flow.is_clean() && flow.is_complete(),
                        "accepted assignment breaks schema flow: {:?}",
                        flow.issues
                    );
                }
                accepted
            })
            .collect()
    }

    /// DS2-style demand-based degrees: propagate rates through the plan,
    /// convert each operator's rate to CPU demand via its cost profile, and
    /// size the degree to demand with 25% headroom.
    pub fn rule_based_degrees(&self, plan: &LogicalPlan, event_rate: f64) -> Vec<usize> {
        let order = plan.topo_order().expect("validated plan");
        let sources = plan.sources();
        let mut out_rate = vec![0.0f64; plan.nodes.len()];
        let mut degrees = vec![1usize; plan.nodes.len()];
        for id in order {
            let node = &plan.nodes[id];
            let input: f64 = if sources.contains(&id) {
                event_rate
            } else {
                plan.in_edges(id).iter().map(|e| out_rate[e.from]).sum()
            };
            let profile = node.kind.cost_profile();
            out_rate[id] = input * profile.selectivity.min(64.0);
            let service_sec = profile.cpu_ns_per_tuple / self.clock_ghz * 1e-9;
            let demand = input * service_sec; // busy cores needed
            degrees[id] = ((demand * 1.25).ceil() as usize).clamp(1, self.max_cores.max(1));
        }
        degrees
    }
}

/// Snap a target degree to the nearest allowed value.
fn snap(allowed: &[usize], target: usize) -> usize {
    *allowed
        .iter()
        .min_by_key(|&&d| d.abs_diff(target))
        .expect("allowed non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsp_engine::expr::Predicate;
    use pdsp_engine::value::{FieldType, Schema};
    use pdsp_engine::window::WindowSpec;
    use pdsp_engine::PlanBuilder;

    fn test_plan() -> LogicalPlan {
        PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int, FieldType::Double]), 1)
            .filter("f", Predicate::True, 0.5)
            .window_agg_keyed(
                "agg",
                WindowSpec::tumbling_count(100),
                pdsp_engine::agg::AggFunc::Sum,
                1,
                0,
            )
            .sink("sink")
            .build()
            .unwrap()
    }

    fn enumerator() -> ParallelismEnumerator {
        ParallelismEnumerator::new(vec![1, 2, 4, 8, 16, 32, 64, 128], 80, 9)
    }

    #[test]
    fn random_respects_allowed_set_and_fixed_nodes() {
        let plan = test_plan();
        let mut e = enumerator();
        let assignments = e.enumerate(&plan, &EnumerationStrategy::Random, 1e5, 20);
        assert_eq!(assignments.len(), 20);
        for a in &assignments {
            assert_eq!(a[0], 1, "source untouched");
            assert_eq!(a[3], 1, "sink untouched");
            assert!(e.allowed().contains(&a[1]));
            assert!(a[1] <= 80, "capped by cores");
        }
    }

    #[test]
    fn rule_based_scales_with_event_rate() {
        let plan = test_plan();
        let e = enumerator();
        let low = e.rule_based_degrees(&plan, 1_000.0);
        let high = e.rule_based_degrees(&plan, 4_000_000.0);
        // The window aggregation (~1.3us/tuple) needs more instances at 4M
        // ev/s; the cheap filter may still fit on one core.
        assert!(high[2] > low[2], "agg degree grows with rate");
        assert!(high[1] >= low[1]);
    }

    #[test]
    fn rule_based_gives_heavier_ops_more_instances() {
        // A join costs ~60x a filter per tuple, so at equal input rates its
        // demanded degree must be at least as high.
        let mut b = PlanBuilder::new();
        let s1 = b.add_node(
            "s1",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int]),
            },
            1,
        );
        let s2 = b.add_node(
            "s2",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int]),
            },
            1,
        );
        let plan = b
            .join("j", s1, s2, WindowSpec::tumbling_time(500), 0, 0)
            .sink("k")
            .build()
            .unwrap();
        let e = enumerator();
        let d = e.rule_based_degrees(&plan, 200_000.0);
        assert!(d[2] >= 4, "join demand at 400k tuples/s: got {}", d[2]);
    }

    #[test]
    fn exhaustive_covers_cartesian_product() {
        let plan = test_plan();
        let mut e = ParallelismEnumerator::new(vec![1, 2], 80, 9);
        let assignments = e.enumerate(&plan, &EnumerationStrategy::Exhaustive, 1e5, 100);
        // 2 tunable operators x 2 degrees = 4 combinations.
        assert_eq!(assignments.len(), 4);
        let unique: std::collections::HashSet<Vec<usize>> = assignments.iter().cloned().collect();
        assert_eq!(unique.len(), 4);
    }

    #[test]
    fn min_avg_max_cycles() {
        let plan = test_plan();
        let mut e = enumerator();
        let a = e.enumerate(&plan, &EnumerationStrategy::MinAvgMax, 1e5, 6);
        assert_eq!(a[0][1], 1);
        assert_eq!(a[2][1], 64, "largest allowed degree under the 80-core cap");
        assert_eq!(a[3][1], a[0][1], "cycle repeats");
    }

    #[test]
    fn increasing_is_monotone() {
        let plan = test_plan();
        let mut e = enumerator();
        let a = e.enumerate(&plan, &EnumerationStrategy::Increasing, 1e5, 10);
        let filter_degrees: Vec<usize> = a.iter().map(|v| v[1]).collect();
        assert!(filter_degrees.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn parameter_based_applies_user_degrees() {
        let plan = test_plan();
        let mut e = enumerator();
        let a = e.enumerate(
            &plan,
            &EnumerationStrategy::ParameterBased(vec![16, 8]),
            1e5,
            1,
        );
        assert_eq!(a.len(), 1);
        assert_eq!(a[0][1], 16);
        assert_eq!(a[0][2], 8);
    }

    #[test]
    fn global_operators_are_not_enumerated() {
        // A global (unkeyed) aggregation caps at one useful instance; the
        // enumerator must leave its degree alone instead of producing
        // assignments the analyzer would reject.
        let plan = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int, FieldType::Double]), 1)
            .filter("f", Predicate::True, 0.5)
            .window_agg_global(
                "global-agg",
                WindowSpec::tumbling_count(100),
                pdsp_engine::agg::AggFunc::Sum,
                1,
            )
            .sink("sink")
            .build()
            .unwrap();
        let mut e = enumerator();
        let assignments = e.enumerate(&plan, &EnumerationStrategy::Random, 1e5, 20);
        for a in &assignments {
            assert_eq!(a[2], 1, "global aggregation stays at its plan degree");
            assert!(e.allowed().contains(&a[1]), "filter is still tuned");
        }
    }

    #[test]
    fn enumerate_valid_drops_analyzer_rejected_assignments() {
        use pdsp_engine::plan::Partitioning;
        // Keyed aggregation fed by a rebalance edge: safe only at degree 1,
        // an Error at any higher degree.
        let mut b = PlanBuilder::new();
        let s = b.add_node(
            "src",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int, FieldType::Double]),
            },
            1,
        );
        let a = b.add_node(
            "agg",
            OpKind::WindowAggregate {
                window: WindowSpec::tumbling_count(8),
                func: pdsp_engine::agg::AggFunc::Sum,
                agg_field: 1,
                key_field: Some(0),
            },
            1,
        );
        let k = b.add_node("sink", OpKind::Sink, 1);
        b.add_edge(s, a, 0, Partitioning::Rebalance);
        b.add_edge(a, k, 0, Partitioning::Rebalance);
        let plan = b.build_unchecked();

        let mut e = enumerator();
        let raw = e.enumerate(&plan, &EnumerationStrategy::Increasing, 1e5, 4);
        assert!(raw.len() > 1, "raw enumeration produces several degrees");
        let mut e = enumerator();
        let valid = e.enumerate_valid(&plan, &EnumerationStrategy::Increasing, 1e5, 4);
        assert_eq!(valid.len(), 1, "only the degree-1 assignment survives");
        assert!(valid[0].iter().all(|&d| d == 1));
    }

    #[test]
    fn snap_picks_nearest() {
        assert_eq!(snap(&[1, 4, 8, 64], 6), 4);
        assert_eq!(snap(&[1, 4, 8, 64], 7), 8);
        assert_eq!(snap(&[1, 4, 8, 64], 500), 64);
    }
}
