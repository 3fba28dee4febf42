//! Operator chaining.
//!
//! Flink runs operators connected by forward edges as one task and still
//! reports every operator's metrics on its own; a benchmarking system must
//! model that, because a channel hop per tuple is a large share of a
//! cheap operator's cost. Here a chain is a property of the physical plan:
//! [`PhysicalPlan::expand`](crate::physical::PhysicalPlan::expand) links
//! instance k of a producer to instance k of its consumer across every
//! `Forward` edge whose producer has no other out-edge and whose consumer
//! has no other in-edge, neither end a source or a sink. The execution core
//! runs a whole chain in its head instance's thread: a batch passes through
//! the members one after the other, each member processing all of it before
//! the next, with no channel, batcher or frame in between, while every
//! member keeps its own state, checkpoint part, counters, probe and fault
//! checks. Stateful operators chain like stateless ones.
//!
//! [`fuse`] finds the forward edges the authored plans leave implicit. An
//! exchange `Hash(F)` from `u` to `v` sends each tuple to target
//! `key_hash(F) % p`, listed in instance-index order
//! ([`RouterState::select`](crate::physical::RouterState::select)). When
//! `u` and `v` have the same parallelism `p` and instance k of `u` only ever
//! emits tuples whose `key_hash(F) % p` is k, every tuple goes back to the
//! instance index it came from, and the edge is rewritten to `Forward`.
//! Which outputs are so partitioned is derived per node:
//!
//! * a join whose inputs arrive partitioned on its left and right keys is
//!   partitioned on its left key (results lead with the left tuple);
//! * a keyed window or session whose input arrives partitioned on its key
//!   is partitioned on field 0, where its results carry the key;
//! * a filter passes its input's partitioning through;
//! * a map keeps it when it projects each partitioning field verbatim, at
//!   the same position;
//! * anything else — UDO, flat-map, union, source — has none.
//!
//! An input arrives partitioned on `F` over a `Hash(F)` edge, or over a
//! `Forward` edge from a producer partitioned on `F`; rebalance and
//! broadcast edges partition nothing.

use crate::error::Result;
use crate::expr::ScalarExpr;
use crate::operator::OpKind;
use crate::plan::{Edge, LogicalPlan, Partitioning};

/// The fields each node's output is provably hash-partitioned on, by node
/// id: instance k emits only tuples whose `key_hash(F) % p` is k.
fn output_partitioning(plan: &LogicalPlan) -> Result<Vec<Option<Vec<usize>>>> {
    let mut parts: Vec<Option<Vec<usize>>> = vec![None; plan.nodes.len()];
    for id in plan.topo_order()? {
        let arriving = |e: &Edge| match &e.partitioning {
            Partitioning::Hash(fields) => Some(fields.clone()),
            Partitioning::Forward => parts[e.from].clone(),
            _ => None,
        };
        let ins = plan.in_edges(id);
        let single = match ins.as_slice() {
            [e] => arriving(e),
            _ => None,
        };
        let part = match &plan.nodes[id].kind {
            OpKind::Join {
                left_key,
                right_key,
                ..
            } => {
                let on = |port: usize, key: usize| {
                    ins.iter()
                        .any(|e| e.port == port && arriving(e) == Some(vec![key]))
                };
                (ins.len() == 2 && on(0, *left_key) && on(1, *right_key)).then(|| vec![*left_key])
            }
            OpKind::WindowAggregate {
                key_field: Some(key),
                ..
            }
            | OpKind::SessionWindow {
                key_field: Some(key),
                ..
            } => (single == Some(vec![*key])).then(|| vec![0]),
            OpKind::Filter { .. } => single,
            OpKind::Map { exprs } => single.filter(|fields| {
                fields
                    .iter()
                    .all(|&f| matches!(exprs.get(f), Some(ScalarExpr::Field(g)) if *g == f))
            }),
            _ => None,
        };
        parts[id] = part;
    }
    Ok(parts)
}

/// Rewrite every `Hash(F)` edge that re-routes each tuple to the instance
/// index it came from into `Forward` (see the module docs), so that
/// expansion can chain across it. Nodes, ids, names and parallelism are
/// kept; a plan with no such edge comes back unchanged.
pub fn fuse(plan: &LogicalPlan) -> Result<LogicalPlan> {
    plan.validate()?;
    let parts = output_partitioning(plan)?;
    let mut rewritten = plan.clone();
    for e in &mut rewritten.edges {
        let Partitioning::Hash(fields) = &e.partitioning else {
            continue;
        };
        if parts[e.from].as_ref() == Some(fields)
            && plan.nodes[e.from].parallelism == plan.nodes[e.to].parallelism
        {
            e.partitioning = Partitioning::Forward;
        }
    }
    rewritten.validate()?;
    Ok(rewritten)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::expr::{CmpOp, Predicate};
    use crate::physical::PhysicalPlan;
    use crate::runtime::{RunConfig, ThreadedRuntime, VecSource};
    use crate::udo::{CostProfile, FnUdo};
    use crate::value::{FieldType, Schema, Tuple, Value};
    use crate::window::WindowSpec;
    use crate::PlanBuilder;

    fn filter(predicate: Predicate) -> OpKind {
        OpKind::Filter {
            predicate,
            selectivity: 1.0,
        }
    }

    /// `source -[first]-> stage -[second]-> next -> sink`, every node at
    /// parallelism `p` except `next` at `p_next`; the source has two
    /// integer fields.
    fn two_hop(
        first: Partitioning,
        stage: OpKind,
        second: Partitioning,
        p_next: usize,
    ) -> LogicalPlan {
        let p = 2;
        let mut plan = LogicalPlan::default();
        let s = plan.add_node(
            "s",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int, FieldType::Int]),
            },
            p,
        );
        let a = plan.add_node("a", stage, p);
        let b = plan.add_node("b", filter(Predicate::True), p_next);
        let k = plan.add_node("k", OpKind::Sink, 1);
        plan.connect(s, a, first);
        plan.connect(a, b, second);
        plan.connect(b, k, Partitioning::Rebalance);
        plan
    }

    /// Whether `fuse` turned the `a -> b` edge of [`two_hop`] into Forward.
    fn rewrites(plan: &LogicalPlan) -> bool {
        let fused = fuse(plan).unwrap();
        assert_eq!(fused.nodes.len(), plan.nodes.len());
        fused.edges[1].partitioning == Partitioning::Forward
    }

    fn keyed_window(key: usize) -> OpKind {
        OpKind::WindowAggregate {
            window: WindowSpec::tumbling_count(4),
            func: AggFunc::Sum,
            agg_field: 1,
            key_field: Some(key),
        }
    }

    fn join_plan(after_join: Partitioning, p_after: usize) -> LogicalPlan {
        let int2 = Schema::of(&[FieldType::Int, FieldType::Int]);
        let mut b = PlanBuilder::new();
        let l = b.add_node(
            "l",
            OpKind::Source {
                schema: int2.clone(),
            },
            2,
        );
        let r = b.add_node("r", OpKind::Source { schema: int2 }, 2);
        b.join("j", l, r, WindowSpec::tumbling_time(10), 1, 0)
            .set_parallelism(2, 2)
            .chain("after", filter(Predicate::True), Some(after_join))
            .set_parallelism(3, p_after)
            .sink("k")
            .build()
            .unwrap()
    }

    #[test]
    fn join_output_is_partitioned_on_its_left_key() {
        let plan = join_plan(Partitioning::Hash(vec![1]), 2);
        let fused = fuse(&plan).unwrap();
        let e = fused.edges.iter().find(|e| e.from == 2).unwrap();
        assert_eq!(e.partitioning, Partitioning::Forward);
    }

    #[test]
    fn hash_on_a_non_key_field_is_kept() {
        // The join is keyed on left field 1; field 0 says nothing.
        let plan = join_plan(Partitioning::Hash(vec![0]), 2);
        let fused = fuse(&plan).unwrap();
        assert_eq!(fused.edges, plan.edges);
    }

    #[test]
    fn unequal_parallelism_is_kept() {
        let plan = join_plan(Partitioning::Hash(vec![1]), 3);
        assert_eq!(fuse(&plan).unwrap().edges, plan.edges);
        assert!(!rewrites(&two_hop(
            Partitioning::Hash(vec![0]),
            filter(Predicate::True),
            Partitioning::Hash(vec![0]),
            3
        )));
    }

    #[test]
    fn keyed_window_hashed_on_its_key_is_partitioned_on_field_zero() {
        let window = || keyed_window(1);
        assert!(rewrites(&two_hop(
            Partitioning::Hash(vec![1]),
            window(),
            Partitioning::Hash(vec![0]),
            2
        )));
        // Re-hashed on an output field other than the key.
        assert!(!rewrites(&two_hop(
            Partitioning::Hash(vec![1]),
            window(),
            Partitioning::Hash(vec![1]),
            2
        )));
    }

    #[test]
    fn filter_passes_its_input_partitioning_through() {
        let f = || filter(Predicate::cmp(0, CmpOp::Ge, Value::Int(0)));
        assert!(rewrites(&two_hop(
            Partitioning::Hash(vec![1, 0]),
            f(),
            Partitioning::Hash(vec![1, 0]),
            2
        )));
        // Same fields in another order hash differently.
        assert!(!rewrites(&two_hop(
            Partitioning::Hash(vec![1, 0]),
            f(),
            Partitioning::Hash(vec![0, 1]),
            2
        )));
    }

    #[test]
    fn map_keeps_the_positions_it_projects_verbatim() {
        let double = ScalarExpr::Mul(
            Box::new(ScalarExpr::Field(1)),
            Box::new(ScalarExpr::Literal(Value::Int(2))),
        );
        let keeps = OpKind::Map {
            exprs: vec![ScalarExpr::Field(0), double.clone()],
        };
        assert!(rewrites(&two_hop(
            Partitioning::Hash(vec![0]),
            keeps,
            Partitioning::Hash(vec![0]),
            2
        )));
        let swaps = OpKind::Map {
            exprs: vec![ScalarExpr::Field(1), ScalarExpr::Field(0)],
        };
        assert!(!rewrites(&two_hop(
            Partitioning::Hash(vec![0]),
            swaps,
            Partitioning::Hash(vec![0]),
            2
        )));
        let computes = OpKind::Map {
            exprs: vec![double, ScalarExpr::Field(1)],
        };
        assert!(!rewrites(&two_hop(
            Partitioning::Hash(vec![0]),
            computes,
            Partitioning::Hash(vec![0]),
            2
        )));
    }

    #[test]
    fn forward_input_inherits_its_producers_partitioning() {
        // s -Hash[0]-> f1 -Forward-> f2 -Hash[0]-> b: f2 inherits f1's.
        let mut plan = two_hop(
            Partitioning::Hash(vec![0]),
            filter(Predicate::True),
            Partitioning::Forward,
            2,
        );
        let f2 = plan.add_node("f2", filter(Predicate::True), 2);
        plan.edges[1].to = f2;
        plan.connect(f2, 2, Partitioning::Hash(vec![0]));
        let fused = fuse(&plan).unwrap();
        let e = fused.edges.iter().find(|e| e.from == f2).unwrap();
        assert_eq!(e.partitioning, Partitioning::Forward);
        // f1 -> f2 -> b is one chain, though b's id is below f2's.
        let phys = PhysicalPlan::expand(&fused).unwrap();
        for k in 0..2 {
            let [f1, f2, b] = [1, f2, 2].map(|n| phys.node_instances[n][k]);
            assert_eq!(phys.chain(f1), vec![f1, f2, b]);
            assert_eq!([f2, b].map(|m| phys.chain_heads()[m]), [f1, f1]);
        }
    }

    #[test]
    fn rebalance_and_broadcast_upstream_partition_nothing() {
        for first in [Partitioning::Rebalance, Partitioning::Broadcast] {
            let plan = two_hop(
                first.clone(),
                filter(Predicate::True),
                Partitioning::Hash(vec![0]),
                2,
            );
            assert!(!rewrites(&plan), "{first:?} upstream");
        }
    }

    #[test]
    fn udo_producer_partitions_nothing() {
        let udo = FnUdo::new(
            "id",
            CostProfile::stateless(10.0, 1.0),
            |s| s.clone(),
            |t, out: &mut Vec<Tuple>| out.push(t),
        );
        let plan = two_hop(
            Partitioning::Hash(vec![0]),
            OpKind::Udo { factory: udo },
            Partitioning::Hash(vec![0]),
            2,
        );
        assert!(!rewrites(&plan));
    }

    /// Worker threads an execution of `phys` runs: one per chain.
    fn threads(phys: &PhysicalPlan) -> usize {
        let heads = phys.chain_heads();
        (0..heads.len()).filter(|&i| heads[i] == i).count()
    }

    /// `s (p1) -> f1 -F-> f2 -F-> double -> k`, the middle three at p 4.
    fn chain_plan() -> LogicalPlan {
        PlanBuilder::new()
            .source("s", Schema::of(&[FieldType::Int]), 1)
            .filter("f1", Predicate::cmp(0, CmpOp::Ge, Value::Int(10)), 0.9)
            .set_parallelism(1, 4)
            .chain(
                "f2",
                filter(Predicate::cmp(0, CmpOp::Lt, Value::Int(90))),
                Some(Partitioning::Forward),
            )
            .set_parallelism(2, 4)
            .chain(
                "double",
                OpKind::Map {
                    exprs: vec![ScalarExpr::Mul(
                        Box::new(ScalarExpr::Field(0)),
                        Box::new(ScalarExpr::Literal(Value::Int(2))),
                    )],
                },
                Some(Partitioning::Forward),
            )
            .set_parallelism(3, 4)
            .sink("k")
            .build()
            .unwrap()
    }

    /// The same plan with its forward edges turned into rebalances: the
    /// same results over channels.
    fn unchained(plan: &LogicalPlan) -> LogicalPlan {
        let mut plan = plan.clone();
        for e in &mut plan.edges {
            if e.partitioning == Partitioning::Forward {
                e.partitioning = Partitioning::Rebalance;
            }
        }
        plan
    }

    #[test]
    fn forward_chains_link_in_the_physical_plan() {
        let phys = PhysicalPlan::expand(&chain_plan()).unwrap();
        assert_eq!(phys.logical.nodes.len(), 5, "authored nodes are kept");
        // f1 instance k heads f1 -> f2 -> double instance k.
        for k in 0..4 {
            let head = phys.node_instances[1][k];
            let members: Vec<usize> = (1..4).map(|n| phys.node_instances[n][k]).collect();
            assert_eq!(phys.chain(head), members);
            for &m in &members {
                assert_eq!(phys.chain_heads()[m], head);
            }
        }
        // Source, 4 chains, sink.
        assert_eq!(threads(&phys), 6);
    }

    #[test]
    fn chained_plan_computes_identical_results() {
        let plan = chain_plan();
        let tuples: Vec<Tuple> = (0..200).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
        let rt = ThreadedRuntime::new(RunConfig::default());
        let run = |p: &LogicalPlan| {
            let phys = PhysicalPlan::expand(p).unwrap();
            let mut res = rt.run(&phys, &[VecSource::new(tuples.clone())]).unwrap();
            let mut vals: Vec<f64> = res
                .sink_tuples
                .drain(..)
                .map(|t| t.values[0].as_f64().unwrap())
                .collect();
            vals.sort_by(|a, b| a.total_cmp(b));
            let stats: Vec<(String, u64, u64)> = res
                .operator_stats
                .iter()
                .map(|s| (s.name.clone(), s.tuples_in, s.tuples_out))
                .collect();
            (res.tuples_out, vals, stats)
        };
        let chained = run(&plan);
        assert_eq!(chained, run(&unchained(&plan)));
        assert_eq!(chained.0, 80, "10..90 doubled");
        assert_eq!(
            chained.2[2],
            ("f2".to_string(), 190, 80),
            "per-member counts"
        );
    }

    #[test]
    fn chaining_saves_channels_and_threads() {
        let plan = chain_plan();
        let chained = PhysicalPlan::expand(&plan).unwrap();
        let plain = PhysicalPlan::expand(&unchained(&plan)).unwrap();
        assert_eq!(chained.instance_count(), plain.instance_count());
        assert!(chained.channel_count() < plain.channel_count());
        assert!(threads(&chained) < threads(&plain));
        assert_eq!(threads(&plain), plain.instance_count());
    }

    #[test]
    fn rebalance_edges_do_not_chain() {
        let plan = PlanBuilder::new()
            .source("s", Schema::of(&[FieldType::Int]), 2)
            .filter("f1", Predicate::True, 1.0)
            .filter("f2", Predicate::True, 1.0) // rebalance edge (default)
            .sink("k")
            .build()
            .unwrap()
            .with_uniform_parallelism(2);
        assert_eq!(fuse(&plan).unwrap().edges, plan.edges, "nothing to rewrite");
        let phys = PhysicalPlan::expand(&plan).unwrap();
        assert!(phys.chain_next.iter().all(Option::is_none));
    }

    #[test]
    fn stateful_operators_chain() {
        let plan = two_hop(
            Partitioning::Hash(vec![1]),
            keyed_window(1),
            Partitioning::Hash(vec![0]),
            2,
        );
        let phys = PhysicalPlan::expand(&fuse(&plan).unwrap()).unwrap();
        let (window, next) = (phys.node_instances[1][1], phys.node_instances[2][1]);
        assert_eq!(phys.chain(window), vec![window, next]);
    }

    #[test]
    fn branch_points_do_not_chain() {
        // f1 feeds two consumers, so neither edge out of it is a link.
        let mut plan = LogicalPlan::default();
        let s = plan.add_node(
            "s",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int]),
            },
            2,
        );
        let f1 = plan.add_node("f1", filter(Predicate::True), 2);
        let f2 = plan.add_node("f2", filter(Predicate::True), 2);
        let k1 = plan.add_node("k1", OpKind::Sink, 1);
        let k2 = plan.add_node("k2", OpKind::Sink, 1);
        plan.connect(s, f1, Partitioning::Forward);
        plan.connect(f1, f2, Partitioning::Forward);
        plan.connect(f1, k1, Partitioning::Rebalance);
        plan.connect(f2, k2, Partitioning::Rebalance);
        let phys = PhysicalPlan::expand(&plan).unwrap();
        assert!(
            phys.chain_next.iter().all(Option::is_none),
            "a branch point and a source end no chain"
        );
        assert_eq!(threads(&phys), phys.instance_count());
    }

    #[test]
    fn chained_member_errors_fail_the_run() {
        // The source declares Int but delivers strings: the filter passes
        // them, and the chained map fails on `"x" + 1` as it would unchained.
        let plan = PlanBuilder::new()
            .source("s", Schema::of(&[FieldType::Int]), 1)
            .filter("f", Predicate::True, 1.0)
            .chain(
                "inc",
                OpKind::Map {
                    exprs: vec![ScalarExpr::Add(
                        Box::new(ScalarExpr::Field(0)),
                        Box::new(ScalarExpr::Literal(Value::Int(1))),
                    )],
                },
                Some(Partitioning::Forward),
            )
            .sink("k")
            .build()
            .unwrap();
        let rows = vec![Tuple::new(vec![Value::str("x")])];
        let rt = ThreadedRuntime::new(RunConfig::default());
        for p in [plan.clone(), unchained(&plan)] {
            let phys = PhysicalPlan::expand(&p).unwrap();
            let err = rt.run(&phys, &[VecSource::new(rows.clone())]).unwrap_err();
            assert!(err.to_string().contains("non-numeric"), "{err}");
        }
        let phys = PhysicalPlan::expand(&plan).unwrap();
        assert!(
            phys.chain_next.iter().any(Option::is_some),
            "f -> inc chains"
        );
    }
}
