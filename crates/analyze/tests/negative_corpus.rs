//! Golden tests over a corpus of deliberately broken plans: each case
//! asserts the exact diagnostic codes the analyzer must emit (and, where
//! it matters, the severities). The corpus doubles as executable
//! documentation of the PB0xx table.

use pdsp_analyze::{analyze, Code, Severity};
use pdsp_engine::agg::AggFunc;
use pdsp_engine::expr::{Predicate, ScalarExpr};
use pdsp_engine::operator::OpKind;
use pdsp_engine::plan::{LogicalPlan, Partitioning};
use pdsp_engine::udo::{CostProfile, Udo, UdoFactory, UdoProperties};
use pdsp_engine::value::{FieldType, Schema, Tuple};
use pdsp_engine::window::WindowSpec;
use pdsp_engine::PlanBuilder;

// ---------------------------------------------------------------------------
// Configurable test UDO
// ---------------------------------------------------------------------------

/// A pass-through UDO whose declared properties are set per test case.
struct TestUdo {
    props: UdoProperties,
    profile: CostProfile,
}

impl TestUdo {
    fn new(props: UdoProperties) -> Self {
        let profile = if props.stateful {
            CostProfile::stateful(1_000.0, 1.0, 1.0)
        } else {
            CostProfile::stateless(1_000.0, 1.0)
        };
        TestUdo { props, profile }
    }
}

struct PassThroughUdo;

impl Udo for PassThroughUdo {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        out.push(tuple);
    }
}

impl UdoFactory for TestUdo {
    fn name(&self) -> &str {
        "test-udo"
    }

    fn create(&self) -> Box<dyn Udo> {
        Box::new(PassThroughUdo)
    }

    fn cost_profile(&self) -> CostProfile {
        self.profile
    }

    fn output_schema(&self, input: &Schema) -> Schema {
        input.clone()
    }

    fn properties(&self) -> UdoProperties {
        self.props
    }
}

fn udo(props: UdoProperties) -> OpKind {
    OpKind::Udo {
        factory: std::sync::Arc::new(TestUdo::new(props)),
    }
}

fn two_field_schema() -> Schema {
    Schema::of(&[FieldType::Int, FieldType::Double])
}

// ---------------------------------------------------------------------------
// Corpus plans
// ---------------------------------------------------------------------------

/// PB001: keyed aggregate at parallelism 4 fed by a rebalance edge.
fn keyed_agg_rebalanced() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let a = b.add_node(
        "agg",
        OpKind::WindowAggregate {
            window: WindowSpec::tumbling_count(8),
            func: AggFunc::Sum,
            agg_field: 1,
            key_field: Some(0),
        },
        4,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, a, 0, Partitioning::Rebalance);
    b.add_edge(a, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB001 (flow-sensitive): hash on field 0, then a map that projects the
/// key away, then forward into the keyed aggregate. Every edge looks
/// locally fine; only flow propagation catches it.
fn key_dropped_by_map() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let m = b.add_node(
        "drop-key",
        OpKind::Map {
            exprs: vec![ScalarExpr::Field(1), ScalarExpr::Field(1)],
        },
        4,
    );
    let a = b.add_node(
        "agg",
        OpKind::WindowAggregate {
            window: WindowSpec::tumbling_count(8),
            func: AggFunc::Sum,
            agg_field: 1,
            key_field: Some(0),
        },
        4,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, m, 0, Partitioning::Hash(vec![0]));
    b.add_edge(m, a, 0, Partitioning::Forward);
    b.add_edge(a, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// Control for the above: the map keeps the key in place, so the forward
/// edge preserves the partitioning and the plan is error-free.
fn key_preserved_by_map() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let m = b.add_node(
        "keep-key",
        OpKind::Map {
            exprs: vec![ScalarExpr::Field(0), ScalarExpr::Field(1)],
        },
        4,
    );
    let a = b.add_node(
        "agg",
        OpKind::WindowAggregate {
            window: WindowSpec::tumbling_count(8),
            func: AggFunc::Sum,
            agg_field: 1,
            key_field: Some(0),
        },
        4,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, m, 0, Partitioning::Hash(vec![0]));
    b.add_edge(m, a, 0, Partitioning::Forward);
    b.add_edge(a, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB002: a join whose right side is rebalanced instead of hashed.
fn join_bad_right_side() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let l = b.add_node(
        "left",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let r = b.add_node(
        "right",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let j = b.add_node(
        "join",
        OpKind::Join {
            window: WindowSpec::tumbling_count(16),
            left_key: 0,
            right_key: 0,
        },
        4,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(l, j, 0, Partitioning::Hash(vec![0]));
    b.add_edge(r, j, 1, Partitioning::Rebalance);
    b.add_edge(j, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB003: a UDO with declared keyed state fed by a rebalance edge.
fn keyed_udo_rebalanced() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let u = b.add_node(
        "keyed-udo",
        udo(UdoProperties {
            stateful: true,
            keyed_state_field: Some(0),
            ..UdoProperties::default()
        }),
        4,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, u, 0, Partitioning::Rebalance);
    b.add_edge(u, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB004: a global (unkeyed) aggregate split across 4 instances.
fn global_agg_split() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let a = b.add_node(
        "global-agg",
        OpKind::WindowAggregate {
            window: WindowSpec::tumbling_count(8),
            func: AggFunc::Sum,
            agg_field: 1,
            key_field: None,
        },
        4,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, a, 0, Partitioning::Rebalance);
    b.add_edge(a, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB005: a global-view UDO replicated via broadcast (duplicated output).
fn global_udo_broadcast() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let u = b.add_node(
        "global-udo",
        udo(UdoProperties {
            stateful: true,
            requires_global_view: true,
            ..UdoProperties::default()
        }),
        4,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, u, 0, Partitioning::Broadcast);
    b.add_edge(u, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB007: a stateful UDO with no declared keying, partitioned anyway.
fn undeclared_stateful_partitioned() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let u = b.add_node(
        "mystery-state",
        udo(UdoProperties {
            stateful: true,
            ..UdoProperties::default()
        }),
        4,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, u, 0, Partitioning::Rebalance);
    b.add_edge(u, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB011 + PB013 + PB014: a non-deterministic stateful UDO feeding one
/// side of a union.
fn nondeterministic_before_union() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let u = b.add_node(
        "sampler",
        udo(UdoProperties {
            deterministic: false,
            stateful: true,
            partition_tolerant: true,
            ..UdoProperties::default()
        }),
        1,
    );
    let f = b.add_node(
        "pass",
        OpKind::Filter {
            predicate: Predicate::True,
            selectivity: 1.0,
        },
        1,
    );
    let un = b.add_node("union", OpKind::Union, 1);
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, u, 0, Partitioning::Rebalance);
    b.add_edge(s, f, 0, Partitioning::Rebalance);
    b.add_edge(u, un, 0, Partitioning::Rebalance);
    b.add_edge(f, un, 1, Partitioning::Rebalance);
    b.add_edge(un, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB011 downgraded: non-determinism whose output reaches only the sink.
fn nondeterministic_sink_only() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let u = b.add_node(
        "jitter",
        udo(UdoProperties {
            deterministic: false,
            ..UdoProperties::default()
        }),
        1,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, u, 0, Partitioning::Rebalance);
    b.add_edge(u, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB012: a side-effecting UDO.
fn side_effecting() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let u = b.add_node(
        "http-post",
        udo(UdoProperties {
            side_effecting: true,
            ..UdoProperties::default()
        }),
        1,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, u, 0, Partitioning::Rebalance);
    b.add_edge(u, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB021: declared unbounded state.
fn unbounded_state() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let u = b.add_node(
        "dedup-forever",
        udo(UdoProperties {
            stateful: true,
            bounded_state: false,
            partition_tolerant: true,
            ..UdoProperties::default()
        }),
        1,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, u, 0, Partitioning::Rebalance);
    b.add_edge(u, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB023: a sliding window with an absurd pane count.
fn pane_explosion() -> LogicalPlan {
    PlanBuilder::new()
        .source("src", two_field_schema(), 1)
        .window_agg_keyed(
            "fine-slide",
            WindowSpec::sliding_count(10_000, 1),
            AggFunc::Sum,
            1,
            0,
        )
        .sink("sink")
        .build_unchecked()
}

/// PB031 + PB032: a diamond whose branches disagree (broadcast vs hash)
/// merging in a union, with the broadcast side fanning into 8 instances.
fn broadcast_diamond() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let f1 = b.add_node(
        "bc-branch",
        OpKind::Filter {
            predicate: Predicate::True,
            selectivity: 1.0,
        },
        8,
    );
    let f2 = b.add_node(
        "hash-branch",
        OpKind::Filter {
            predicate: Predicate::True,
            selectivity: 1.0,
        },
        8,
    );
    let un = b.add_node("union", OpKind::Union, 8);
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, f1, 0, Partitioning::Broadcast);
    b.add_edge(s, f2, 0, Partitioning::Hash(vec![0]));
    b.add_edge(f1, un, 0, Partitioning::Broadcast);
    b.add_edge(f2, un, 1, Partitioning::Hash(vec![0]));
    b.add_edge(un, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB033: a 128 x 64 channel mesh.
fn channel_mesh() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        128,
    );
    let f = b.add_node(
        "wide",
        OpKind::Filter {
            predicate: Predicate::True,
            selectivity: 1.0,
        },
        64,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, f, 0, Partitioning::Rebalance);
    b.add_edge(f, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB041: a rebalance edge the chainer could have fused.
fn rebalanced_stateless_chain() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let f1 = b.add_node(
        "f1",
        OpKind::Filter {
            predicate: Predicate::True,
            selectivity: 0.5,
        },
        4,
    );
    let f2 = b.add_node(
        "f2",
        OpKind::Filter {
            predicate: Predicate::True,
            selectivity: 0.5,
        },
        4,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, f1, 0, Partitioning::Rebalance);
    b.add_edge(f1, f2, 0, Partitioning::Rebalance);
    b.add_edge(f2, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB042: sixteen filter instances draining into one map instance.
fn funnel() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let f = b.add_node(
        "wide",
        OpKind::Filter {
            predicate: Predicate::True,
            selectivity: 1.0,
        },
        16,
    );
    let m = b.add_node(
        "narrow",
        OpKind::Map {
            exprs: vec![ScalarExpr::Field(0), ScalarExpr::Field(1)],
        },
        1,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, f, 0, Partitioning::Rebalance);
    b.add_edge(f, m, 0, Partitioning::Rebalance);
    b.add_edge(m, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB043: a 64:2 parallelism cliff.
fn parallelism_cliff() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let f = b.add_node(
        "wide",
        OpKind::Filter {
            predicate: Predicate::True,
            selectivity: 1.0,
        },
        64,
    );
    let m = b.add_node(
        "narrow",
        OpKind::Map {
            exprs: vec![ScalarExpr::Field(0), ScalarExpr::Field(1)],
        },
        2,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, f, 0, Partitioning::Rebalance);
    b.add_edge(f, m, 0, Partitioning::Rebalance);
    b.add_edge(m, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB051: a keyed aggregate at parallelism 8 with no skew mitigation.
fn skew_vulnerable_agg() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "src",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let a = b.add_node(
        "agg",
        OpKind::WindowAggregate {
            window: WindowSpec::tumbling_count(8),
            func: AggFunc::Sum,
            agg_field: 1,
            key_field: Some(0),
        },
        8,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, a, 0, Partitioning::Hash(vec![0]));
    b.add_edge(a, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// PB053: an event-time join of two independent sources.
fn two_source_time_join() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let l = b.add_node(
        "left",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let r = b.add_node(
        "right",
        OpKind::Source {
            schema: two_field_schema(),
        },
        1,
    );
    let j = b.add_node(
        "join",
        OpKind::Join {
            window: WindowSpec::tumbling_time(1_000),
            left_key: 0,
            right_key: 0,
        },
        2,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(l, j, 0, Partitioning::Hash(vec![0]));
    b.add_edge(r, j, 1, Partitioning::Hash(vec![0]));
    b.add_edge(j, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

// ---------------------------------------------------------------------------
// Golden assertions
// ---------------------------------------------------------------------------

/// Assert the report contains each expected code, and that no *other*
/// error-severity codes sneak in.
fn assert_codes(name: &str, plan: &LogicalPlan, expected: &[Code]) {
    let report = analyze(name, plan).expect("analysis must not fail structurally");
    for code in expected {
        assert!(
            report.has(*code),
            "{name}: expected {code}, got: {}",
            report.render()
        );
    }
    let expected_errors: Vec<Code> = expected
        .iter()
        .copied()
        .filter(|c| c.severity() == Severity::Error)
        .collect();
    for d in &report.diagnostics {
        if d.severity == Severity::Error {
            assert!(
                expected_errors.contains(&d.code),
                "{name}: unexpected error {}: {}",
                d.code,
                report.render()
            );
        }
    }
}

#[test]
fn pb001_keyed_agg_on_rebalance() {
    assert_codes(
        "keyed-agg-rebalanced",
        &keyed_agg_rebalanced(),
        &[Code::KeyedAggPartition],
    );
}

#[test]
fn pb001_key_projected_away_by_map() {
    assert_codes(
        "key-dropped-by-map",
        &key_dropped_by_map(),
        &[Code::KeyedAggPartition],
    );
}

#[test]
fn key_preserving_map_is_error_free() {
    let report = analyze("key-preserved", &key_preserved_by_map()).unwrap();
    assert_eq!(report.errors(), 0, "{}", report.render());
}

#[test]
fn pb002_join_right_side() {
    let plan = join_bad_right_side();
    assert_codes("join-bad-right", &plan, &[Code::JoinSidePartition]);
    // Only the right side is wrong — exactly one PB002.
    let report = analyze("join-bad-right", &plan).unwrap();
    assert_eq!(
        report
            .codes()
            .iter()
            .filter(|c| **c == Code::JoinSidePartition)
            .count(),
        1
    );
}

#[test]
fn pb003_keyed_udo() {
    assert_codes(
        "keyed-udo-rebalanced",
        &keyed_udo_rebalanced(),
        &[Code::KeyedUdoPartition],
    );
}

#[test]
fn pb004_global_agg_split() {
    assert_codes(
        "global-agg-split",
        &global_agg_split(),
        &[Code::GlobalOpSplit],
    );
}

#[test]
fn pb005_global_udo_broadcast_is_warning_not_error() {
    let plan = global_udo_broadcast();
    assert_codes("global-udo-broadcast", &plan, &[Code::GlobalOpReplicated]);
    let report = analyze("global-udo-broadcast", &plan).unwrap();
    assert_eq!(report.errors(), 0, "{}", report.render());
}

#[test]
fn pb007_undeclared_stateful() {
    assert_codes(
        "undeclared-stateful",
        &undeclared_stateful_partitioned(),
        &[Code::UndeclaredStatefulPartition],
    );
}

#[test]
fn pb011_pb013_pb014_nondeterminism_into_union() {
    assert_codes(
        "nondeterministic-union",
        &nondeterministic_before_union(),
        &[
            Code::NonDeterministicUdo,
            Code::UnsnapshottedUdoState,
            Code::MultiInputAfterOpaqueState,
        ],
    );
}

#[test]
fn pb011_downgrades_to_warning_at_the_edge_of_the_plan() {
    let report = analyze("nondet-sink-only", &nondeterministic_sink_only()).unwrap();
    assert!(report.has(Code::NonDeterministicUdo), "{}", report.render());
    assert_eq!(report.errors(), 0, "{}", report.render());
    assert!(report.warnings() >= 1);
}

#[test]
fn pb012_side_effects() {
    assert_codes(
        "side-effecting",
        &side_effecting(),
        &[Code::SideEffectingUdo],
    );
}

#[test]
fn pb021_unbounded_state() {
    assert_codes(
        "unbounded-state",
        &unbounded_state(),
        &[Code::UnboundedUdoState],
    );
}

#[test]
fn pb023_pane_explosion() {
    assert_codes("pane-explosion", &pane_explosion(), &[Code::PaneExplosion]);
}

#[test]
fn pb031_pb032_broadcast_diamond() {
    assert_codes(
        "broadcast-diamond",
        &broadcast_diamond(),
        &[Code::BroadcastRebalanceDiamond, Code::BroadcastFanOut],
    );
}

#[test]
fn pb033_channel_mesh() {
    assert_codes("channel-mesh", &channel_mesh(), &[Code::ChannelExplosion]);
}

#[test]
fn pb041_fusable_rebalance() {
    assert_codes(
        "rebalanced-stateless-chain",
        &rebalanced_stateless_chain(),
        &[Code::ForwardChainBreak],
    );
}

#[test]
fn pb042_funnel() {
    assert_codes("funnel", &funnel(), &[Code::FunnelBottleneck]);
}

#[test]
fn pb043_cliff() {
    assert_codes(
        "parallelism-cliff",
        &parallelism_cliff(),
        &[Code::ParallelismCliff],
    );
}

#[test]
fn pb051_skew_vulnerable_keyed_agg_is_a_hint() {
    let plan = skew_vulnerable_agg();
    assert_codes("skew-vulnerable-agg", &plan, &[Code::SkewVulnerableKeyedOp]);
    let report = analyze("skew-vulnerable-agg", &plan).unwrap();
    assert_eq!(report.errors(), 0, "{}", report.render());
    assert_eq!(report.warnings(), 0, "{}", report.render());
}

#[test]
fn pb053_two_source_time_join() {
    let plan = two_source_time_join();
    assert_codes("two-source-time-join", &plan, &[Code::LatenessHazard]);
    let report = analyze("two-source-time-join", &plan).unwrap();
    assert_eq!(report.errors(), 0, "{}", report.render());
}

#[test]
fn json_report_round_trips_codes() {
    let report = analyze("keyed-agg-rebalanced", &keyed_agg_rebalanced()).unwrap();
    let json = report.to_json();
    assert!(json.contains("\"PB001\""), "{json}");
    assert!(json.contains("\"error\""), "{json}");
}

// ---------------------------------------------------------------------------
// PB06x: schema / type flow
// ---------------------------------------------------------------------------

/// PB061: a filter predicate reads field 7 of a 1-field stream.
fn out_of_bounds_predicate() -> LogicalPlan {
    use pdsp_engine::expr::CmpOp;
    use pdsp_engine::value::Value;
    PlanBuilder::new()
        .source("src", Schema::of(&[FieldType::Int]), 1)
        .filter("f", Predicate::cmp(7, CmpOp::Gt, Value::Int(0)), 0.5)
        .sink("sink")
        .build_unchecked()
}

/// PB062: string-split over an `Int` field.
fn split_over_int() -> LogicalPlan {
    PlanBuilder::new()
        .source("src", Schema::of(&[FieldType::Int]), 1)
        .flat_map_split("split", 0)
        .sink("sink")
        .build_unchecked()
}

/// PB063: `Avg` over a `Str` field — strings aggregate as presence.
fn string_average() -> LogicalPlan {
    PlanBuilder::new()
        .source("src", Schema::of(&[FieldType::Str]), 1)
        .window_agg_keyed("agg", WindowSpec::tumbling_count(8), AggFunc::Avg, 0, 0)
        .sink("sink")
        .build_unchecked()
}

/// PB064: keyed aggregate keyed (and hash-partitioned) on a `Double`.
fn double_keyed_agg() -> LogicalPlan {
    PlanBuilder::new()
        .source(
            "src",
            Schema::of(&[FieldType::Double, FieldType::Double]),
            1,
        )
        .window_agg_keyed("agg", WindowSpec::tumbling_count(8), AggFunc::Sum, 1, 0)
        .set_parallelism(1, 4)
        .sink("sink")
        .build_unchecked()
}

/// PB065: a time-based window over a stream with no `Timestamp` field.
fn time_window_untyped_stream() -> LogicalPlan {
    PlanBuilder::new()
        .source("src", two_field_schema(), 1)
        .window_agg_keyed("agg", WindowSpec::tumbling_time(1_000), AggFunc::Sum, 1, 0)
        .sink("sink")
        .build_unchecked()
}

/// PB067: a union of two sources with incompatible schemas.
fn union_mismatched_branches() -> LogicalPlan {
    let mut b = PlanBuilder::new();
    let l = b.add_node(
        "ints",
        OpKind::Source {
            schema: Schema::of(&[FieldType::Int]),
        },
        1,
    );
    let r = b.add_node(
        "strs",
        OpKind::Source {
            schema: Schema::of(&[FieldType::Str]),
        },
        1,
    );
    let u = b.add_node("union", OpKind::Union, 1);
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(l, u, 0, Partitioning::Rebalance);
    b.add_edge(r, u, 1, Partitioning::Rebalance);
    b.add_edge(u, k, 0, Partitioning::Rebalance);
    b.build_unchecked()
}

/// A pass-through UDO that refuses to declare its output schema.
struct OpaqueSchemaUdo;

impl UdoFactory for OpaqueSchemaUdo {
    fn name(&self) -> &str {
        "opaque-udo"
    }
    fn create(&self) -> Box<dyn Udo> {
        Box::new(PassThroughUdo)
    }
    fn cost_profile(&self) -> CostProfile {
        CostProfile::stateless(1_000.0, 1.0)
    }
    fn output_schema(&self, _input: &Schema) -> Schema {
        Schema::of(&[FieldType::Int, FieldType::Str])
    }
    fn properties(&self) -> UdoProperties {
        UdoProperties {
            schema_policy: pdsp_engine::udo::SchemaPolicy::Opaque,
            ..UdoProperties::default()
        }
    }
}

/// PB068 + downgrade: an opaque UDO followed by an out-of-bounds filter.
fn opaque_udo_then_bad_filter() -> LogicalPlan {
    use pdsp_engine::expr::CmpOp;
    use pdsp_engine::value::Value;
    PlanBuilder::new()
        .source("src", Schema::of(&[FieldType::Int]), 1)
        .udo("opaque", std::sync::Arc::new(OpaqueSchemaUdo))
        .filter("f", Predicate::cmp(5, CmpOp::Gt, Value::Int(0)), 0.5)
        .sink("sink")
        .build_unchecked()
}

/// PB069: an `Int` field compared against a string literal.
fn cross_class_predicate() -> LogicalPlan {
    use pdsp_engine::expr::CmpOp;
    use pdsp_engine::value::Value;
    PlanBuilder::new()
        .source("src", Schema::of(&[FieldType::Int]), 1)
        .filter("f", Predicate::cmp(0, CmpOp::Lt, Value::str("zzz")), 0.5)
        .sink("sink")
        .build_unchecked()
}

#[test]
fn pb061_out_of_bounds_field() {
    assert_codes(
        "out-of-bounds-predicate",
        &out_of_bounds_predicate(),
        &[Code::UnknownField],
    );
}

#[test]
fn pb062_split_over_int() {
    assert_codes(
        "split-over-int",
        &split_over_int(),
        &[Code::InputTypeMismatch],
    );
}

#[test]
fn pb063_string_average() {
    assert_codes(
        "string-average",
        &string_average(),
        &[Code::NonNumericAggregate],
    );
}

#[test]
fn pb064_double_key_is_warning() {
    let plan = double_keyed_agg();
    assert_codes("double-keyed-agg", &plan, &[Code::DoubleKey]);
    let report = analyze("double-keyed-agg", &plan).unwrap();
    assert_eq!(report.errors(), 0, "{}", report.render());
}

#[test]
fn pb065_untyped_event_time_is_hint() {
    let plan = time_window_untyped_stream();
    assert_codes("time-window-untyped", &plan, &[Code::EventTimeUntyped]);
    let report = analyze("time-window-untyped", &plan).unwrap();
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::EventTimeUntyped)
        .unwrap();
    assert_eq!(d.severity, Severity::Hint);
}

#[test]
fn pb067_union_schema_mismatch() {
    assert_codes(
        "union-mismatched-branches",
        &union_mismatched_branches(),
        &[Code::UnionSchemaMismatch],
    );
}

#[test]
fn pb068_opaque_udo_downgrades_downstream_findings() {
    let plan = opaque_udo_then_bad_filter();
    assert_codes(
        "opaque-then-bad-filter",
        &plan,
        &[Code::OpaqueUdoSchema, Code::UnknownField],
    );
    let report = analyze("opaque-then-bad-filter", &plan).unwrap();
    // The out-of-bounds finding survives but is downgraded to a hint:
    // the opaque claim it rests on is unverified.
    let unknown = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::UnknownField)
        .unwrap();
    assert_eq!(unknown.severity, Severity::Hint, "{}", report.render());
    assert_eq!(report.errors(), 0, "{}", report.render());
}

#[test]
fn pb069_constant_predicate_is_warning() {
    let plan = cross_class_predicate();
    assert_codes("cross-class-predicate", &plan, &[Code::ConstantPredicate]);
    let report = analyze("cross-class-predicate", &plan).unwrap();
    assert_eq!(report.errors(), 0, "{}", report.render());
}
