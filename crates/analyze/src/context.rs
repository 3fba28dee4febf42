//! Shared analysis facts computed once per plan and consumed by every
//! pass: resolved schemas, topological order, reachability, relative
//! tuple rates, and the key-flow lattice.

use pdsp_engine::error::Result;
use pdsp_engine::expr::ScalarExpr;
use pdsp_engine::operator::OpKind;
use pdsp_engine::plan::{LogicalPlan, NodeId, Partitioning};
use pdsp_engine::schema_flow::SchemaFlow;
use pdsp_engine::udo::UdoProperties;
use pdsp_engine::value::Schema;
use std::collections::BTreeSet;

/// How a stream is distributed across the instances of an operator at one
/// point in the plan — the key-flow lattice tracked through projections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Flow {
    /// The whole stream sits in a single instance (parallelism 1): any
    /// keyed computation is trivially correct.
    Single,
    /// Tuples agreeing on all of these field indices (in the local
    /// schema's coordinates) are colocated on one instance.
    Keys(BTreeSet<usize>),
    /// Every instance observes the complete stream (broadcast): correct
    /// for replicated lookups, duplicating for aggregations.
    Replicated,
    /// No colocation guarantee (rebalance, lost projections, opaque
    /// operators).
    Unknown,
}

impl Flow {
    /// True when tuples equal on `field` are guaranteed colocated.
    pub fn colocates(&self, field: usize) -> bool {
        match self {
            Flow::Single => true,
            // Partitioned on a superset of {field} splits the field's
            // groups; only partitioning on exactly {field} (possibly
            // listed repeatedly) colocates them.
            Flow::Keys(s) => s.len() == 1 && s.contains(&field),
            Flow::Replicated | Flow::Unknown => false,
        }
    }
}

/// Per-plan facts shared by all passes.
pub struct AnalysisContext<'a> {
    /// The plan under analysis.
    pub plan: &'a LogicalPlan,
    /// Resolved output schema per node.
    pub schemas: Vec<Schema>,
    /// Whole-plan schema inference: per-edge schemas, taint, and every
    /// typing issue found (the type-flow pass turns these into PB06x
    /// diagnostics).
    pub schema_flow: SchemaFlow,
    /// Topological order of node ids.
    pub topo: Vec<NodeId>,
    /// Output [`Flow`] per node.
    pub out_flows: Vec<Flow>,
    /// Input [`Flow`] per node, one entry per in-edge (port order).
    pub in_flows: Vec<Vec<(usize, Flow)>>,
    /// Expected tuple rate entering each node, relative to one source
    /// tuple per source (selectivity product along paths). Drives the
    /// growth estimates in state-bound messages.
    pub in_rate: Vec<f64>,
    /// Reachability: `reach[u]` holds every node with a path from `u`.
    pub reach: Vec<BTreeSet<NodeId>>,
}

impl<'a> AnalysisContext<'a> {
    /// Compute all shared facts. Fails only on structurally broken plans
    /// (cycles) — semantic problems, including schema violations, become
    /// diagnostics, not errors, so the analyzer can inspect plans that
    /// `LogicalPlan::validate` rejects. Schemas come from tolerant
    /// whole-plan inference ([`SchemaFlow::infer`]), which substitutes
    /// best-effort fallbacks where [`LogicalPlan::schemas`] would abort.
    pub fn build(plan: &'a LogicalPlan) -> Result<Self> {
        let topo = plan.topo_order()?;
        let schema_flow = SchemaFlow::infer(plan)?;
        let schemas = schema_flow.node_output.clone();
        let (out_flows, in_flows) = key_flows(plan, &topo, &schemas);
        let in_rate = input_rates(plan, &topo);
        let reach = reachability(plan, &topo);
        Ok(AnalysisContext {
            plan,
            schemas,
            schema_flow,
            topo,
            out_flows,
            in_flows,
            in_rate,
            reach,
        })
    }

    /// Declared properties of a node's UDO factory, if the node is a UDO.
    pub fn udo_properties(&self, node: NodeId) -> Option<UdoProperties> {
        match &self.plan.nodes[node].kind {
            OpKind::Udo { factory } => Some(factory.properties()),
            _ => None,
        }
    }

    /// True when `node` is (or reaches) a stateful operator, i.e. replay
    /// after recovery can change its observable behavior.
    pub fn is_stateful(&self, node: NodeId) -> bool {
        let kind = &self.plan.nodes[node].kind;
        match kind {
            OpKind::WindowAggregate { .. } | OpKind::SessionWindow { .. } | OpKind::Join { .. } => {
                true
            }
            OpKind::Udo { factory } => factory.properties().stateful,
            _ => false,
        }
    }
}

/// Propagate the key-flow lattice through the plan in topological order.
fn key_flows(
    plan: &LogicalPlan,
    topo: &[NodeId],
    schemas: &[Schema],
) -> (Vec<Flow>, Vec<Vec<(usize, Flow)>>) {
    let n = plan.nodes.len();
    let mut out = vec![Flow::Unknown; n];
    let mut ins: Vec<Vec<(usize, Flow)>> = vec![Vec::new(); n];
    for &id in topo {
        let node = &plan.nodes[id];
        // Resolve each in-edge's flow as seen by this node's instances.
        let mut in_flows = Vec::new();
        for e in plan.in_edges(id) {
            let flow = if node.parallelism == 1 {
                Flow::Single
            } else {
                match &e.partitioning {
                    Partitioning::Broadcast => Flow::Replicated,
                    Partitioning::Hash(fields) => Flow::Keys(fields.iter().copied().collect()),
                    Partitioning::Forward => out[e.from].clone(),
                    Partitioning::Rebalance => Flow::Unknown,
                }
            };
            in_flows.push((e.port, flow));
        }
        out[id] = transfer(node, &in_flows, schemas);
        ins[id] = in_flows;
    }
    (out, ins)
}

/// Output flow of one node given its input flows.
fn transfer(
    node: &pdsp_engine::plan::LogicalNode,
    in_flows: &[(usize, Flow)],
    _schemas: &[Schema],
) -> Flow {
    let single = node.parallelism == 1;
    let first = in_flows.first().map(|(_, f)| f.clone());
    match &node.kind {
        OpKind::Source { .. } | OpKind::Sink => {
            if single {
                Flow::Single
            } else {
                Flow::Unknown
            }
        }
        // Filters keep tuples (and their coordinates) unchanged.
        OpKind::Filter { .. } => first.unwrap_or(Flow::Unknown),
        // Maps remap coordinates: field i survives as every output slot
        // that projects it verbatim.
        OpKind::Map { exprs } => match first {
            Some(Flow::Keys(s)) => {
                let mut mapped = BTreeSet::new();
                for i in &s {
                    let images: Vec<usize> = exprs
                        .iter()
                        .enumerate()
                        .filter_map(|(j, e)| match e {
                            ScalarExpr::Field(idx) if idx == i => Some(j),
                            _ => None,
                        })
                        .collect();
                    if images.is_empty() {
                        // A partitioning field was projected away: the
                        // guarantee is no longer expressible downstream.
                        return if single { Flow::Single } else { Flow::Unknown };
                    }
                    mapped.insert(images[0]);
                }
                Flow::Keys(mapped)
            }
            Some(other) => other,
            None => Flow::Unknown,
        },
        // The split output (one row per token) has no field relation to
        // the input.
        OpKind::FlatMapSplit { .. } => match first {
            Some(Flow::Replicated) => Flow::Replicated,
            _ if single => Flow::Single,
            _ => Flow::Unknown,
        },
        OpKind::WindowAggregate { key_field, .. } | OpKind::SessionWindow { key_field, .. } => {
            match key_field {
                // Keyed aggregate output puts the key at field 0; if the
                // input was correctly partitioned the output stays
                // partitioned by it.
                Some(k) => match first {
                    _ if single => Flow::Single,
                    Some(f) if f.colocates(*k) => Flow::Keys(BTreeSet::from([0])),
                    _ => Flow::Unknown,
                },
                None => {
                    if single {
                        Flow::Single
                    } else {
                        Flow::Unknown
                    }
                }
            }
        }
        OpKind::Join {
            left_key,
            right_key,
            ..
        } => {
            if single {
                return Flow::Single;
            }
            let left_ok = in_flows
                .iter()
                .find(|(p, _)| *p == 0)
                .is_some_and(|(_, f)| f.colocates(*left_key));
            let right_ok = in_flows
                .iter()
                .find(|(p, _)| *p == 1)
                .is_some_and(|(_, f)| f.colocates(*right_key));
            if left_ok && right_ok {
                // Output schema is left ++ right; the left key keeps its
                // index.
                Flow::Keys(BTreeSet::from([*left_key]))
            } else {
                Flow::Unknown
            }
        }
        OpKind::Union => {
            if single {
                return Flow::Single;
            }
            // All inputs hashed on the same fields route each key group to
            // the same instance, so the merged stream stays partitioned.
            let mut sets = in_flows.iter().map(|(_, f)| f);
            match sets.next() {
                Some(Flow::Keys(s0))
                    if in_flows[1..].iter().all(|(_, f)| match f {
                        Flow::Keys(s) => s == s0,
                        _ => false,
                    }) =>
                {
                    Flow::Keys(s0.clone())
                }
                _ => Flow::Unknown,
            }
        }
        // UDO output coordinates are opaque.
        OpKind::Udo { .. } => match first {
            Some(Flow::Replicated) => Flow::Replicated,
            _ if single => Flow::Single,
            _ => Flow::Unknown,
        },
    }
}

/// Relative input rate per node: each source emits 1.0; operators
/// multiply by their cost profile's selectivity. Broadcast edges deliver
/// every tuple to all downstream instances.
fn input_rates(plan: &LogicalPlan, topo: &[NodeId]) -> Vec<f64> {
    let n = plan.nodes.len();
    let mut input = vec![0.0f64; n];
    let mut output = vec![0.0f64; n];
    for &id in topo {
        let node = &plan.nodes[id];
        let in_rate: f64 = if matches!(node.kind, OpKind::Source { .. }) {
            1.0
        } else {
            plan.in_edges(id)
                .iter()
                .map(|e| {
                    let base = output[e.from];
                    if matches!(e.partitioning, Partitioning::Broadcast) {
                        base * node.parallelism as f64
                    } else {
                        base
                    }
                })
                .sum()
        };
        input[id] = in_rate;
        output[id] = in_rate * node.kind.cost_profile().selectivity.min(64.0);
    }
    input
}

/// Forward reachability sets (node -> all descendants).
fn reachability(plan: &LogicalPlan, topo: &[NodeId]) -> Vec<BTreeSet<NodeId>> {
    let mut reach: Vec<BTreeSet<NodeId>> = vec![BTreeSet::new(); plan.nodes.len()];
    for &id in topo.iter().rev() {
        let mut set = BTreeSet::new();
        for e in plan.out_edges(id) {
            set.insert(e.to);
            set.extend(reach[e.to].iter().copied());
        }
        reach[id] = set;
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsp_engine::agg::AggFunc;
    use pdsp_engine::expr::Predicate;
    use pdsp_engine::value::FieldType;
    use pdsp_engine::window::WindowSpec;
    use pdsp_engine::PlanBuilder;

    #[test]
    fn hash_edge_establishes_key_flow() {
        let plan = PlanBuilder::new()
            .source("s", Schema::of(&[FieldType::Int, FieldType::Double]), 1)
            .window_agg_keyed("agg", WindowSpec::tumbling_count(10), AggFunc::Sum, 1, 0)
            .set_parallelism(1, 4)
            .sink("k")
            .build()
            .unwrap();
        let ctx = AnalysisContext::build(&plan).unwrap();
        assert_eq!(ctx.in_flows[1][0].1, Flow::Keys(BTreeSet::from([0])));
        assert_eq!(ctx.out_flows[1], Flow::Keys(BTreeSet::from([0])));
    }

    #[test]
    fn forward_preserves_flow_through_filter() {
        // hash -> filter(p4) -forward-> agg(p4): the key guarantee carries
        // through the stateless filter.
        let mut b = PlanBuilder::new();
        let s = b.add_node(
            "s",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int, FieldType::Double]),
            },
            1,
        );
        let f = b.add_node(
            "f",
            OpKind::Filter {
                predicate: Predicate::True,
                selectivity: 0.5,
            },
            4,
        );
        let a = b.add_node(
            "agg",
            OpKind::WindowAggregate {
                window: WindowSpec::tumbling_count(10),
                func: AggFunc::Sum,
                agg_field: 1,
                key_field: Some(0),
            },
            4,
        );
        let k = b.add_node("k", OpKind::Sink, 1);
        b.add_edge(s, f, 0, Partitioning::Hash(vec![0]));
        b.add_edge(f, a, 0, Partitioning::Forward);
        b.add_edge(a, k, 0, Partitioning::Rebalance);
        let plan = b.build_unchecked();
        let ctx = AnalysisContext::build(&plan).unwrap();
        assert!(ctx.in_flows[a][0].1.colocates(0));
    }

    #[test]
    fn map_dropping_key_field_loses_flow() {
        use pdsp_engine::expr::ScalarExpr;
        let mut b = PlanBuilder::new();
        let s = b.add_node(
            "s",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int, FieldType::Double]),
            },
            1,
        );
        let m = b.add_node(
            "m",
            OpKind::Map {
                // Drops field 0 (the hash key).
                exprs: vec![ScalarExpr::Field(1)],
            },
            4,
        );
        let k = b.add_node("k", OpKind::Sink, 1);
        b.add_edge(s, m, 0, Partitioning::Hash(vec![0]));
        b.add_edge(m, k, 0, Partitioning::Rebalance);
        let plan = b.build_unchecked();
        let ctx = AnalysisContext::build(&plan).unwrap();
        assert_eq!(ctx.out_flows[m], Flow::Unknown);
    }

    #[test]
    fn rates_multiply_selectivity() {
        let plan = PlanBuilder::new()
            .source("s", Schema::of(&[FieldType::Int]), 1)
            .filter("f", Predicate::True, 0.25)
            .filter("g", Predicate::True, 0.5)
            .sink("k")
            .build()
            .unwrap();
        let ctx = AnalysisContext::build(&plan).unwrap();
        assert!((ctx.in_rate[1] - 1.0).abs() < 1e-9);
        assert!((ctx.in_rate[2] - 0.25).abs() < 1e-9);
        assert!((ctx.in_rate[3] - 0.125).abs() < 1e-9);
    }

    #[test]
    fn reachability_covers_descendants() {
        let plan = PlanBuilder::new()
            .source("s", Schema::of(&[FieldType::Int]), 1)
            .filter("f", Predicate::True, 1.0)
            .sink("k")
            .build()
            .unwrap();
        let ctx = AnalysisContext::build(&plan).unwrap();
        assert!(ctx.reach[0].contains(&2));
        assert!(ctx.reach[2].is_empty());
    }
}
