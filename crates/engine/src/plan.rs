//! Logical plans: operator DAGs with parallelism hints and partitioned edges.

use crate::error::{EngineError, Result};
use crate::operator::{OpDescriptor, OpKind};
use crate::value::Schema;
use serde::{Deserialize, Serialize};

/// Identifier of a node within one plan (dense, index into `nodes`).
pub type NodeId = usize;

/// Data-partitioning strategy on an edge (paper Table 3: forward,
/// rebalance, hashing; broadcast added for completeness — Flink offers it
/// and some UDO pipelines need it).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Partitioning {
    /// One-to-one: instance i feeds instance i (requires equal parallelism).
    Forward,
    /// Round-robin across downstream instances.
    Rebalance,
    /// Hash of the given upstream fields selects the downstream instance.
    Hash(Vec<usize>),
    /// Every downstream instance receives every tuple.
    Broadcast,
}

/// A logical operator node.
#[derive(Debug, Clone)]
pub struct LogicalNode {
    /// Dense id (== index in [`LogicalPlan::nodes`]).
    pub id: NodeId,
    /// Human-readable name.
    pub name: String,
    /// Operator kind.
    pub kind: OpKind,
    /// Parallelism degree (number of physical instances).
    pub parallelism: usize,
}

/// A directed edge between logical operators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Upstream node.
    pub from: NodeId,
    /// Downstream node.
    pub to: NodeId,
    /// Input port on the downstream operator (joins: 0 = left, 1 = right).
    pub port: usize,
    /// Partitioning strategy.
    pub partitioning: Partitioning,
}

/// A logical dataflow plan (PQP when parallelism degrees are set).
#[derive(Debug, Clone, Default)]
pub struct LogicalPlan {
    /// Operator nodes (dense ids).
    pub nodes: Vec<LogicalNode>,
    /// Directed edges.
    pub edges: Vec<Edge>,
}

impl LogicalPlan {
    /// Add a node; returns its id.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        kind: OpKind,
        parallelism: usize,
    ) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(LogicalNode {
            id,
            name: name.into(),
            kind,
            parallelism,
        });
        id
    }

    /// Connect `from -> to` on downstream port 0.
    pub fn connect(&mut self, from: NodeId, to: NodeId, partitioning: Partitioning) {
        self.connect_port(from, to, 0, partitioning);
    }

    /// Connect with an explicit downstream port.
    pub fn connect_port(
        &mut self,
        from: NodeId,
        to: NodeId,
        port: usize,
        partitioning: Partitioning,
    ) {
        self.edges.push(Edge {
            from,
            to,
            port,
            partitioning,
        });
    }

    /// Edges entering `node`, sorted by port.
    pub fn in_edges(&self, node: NodeId) -> Vec<&Edge> {
        let mut v: Vec<&Edge> = self.edges.iter().filter(|e| e.to == node).collect();
        v.sort_by_key(|e| e.port);
        v
    }

    /// Edges leaving `node`.
    pub fn out_edges(&self, node: NodeId) -> Vec<&Edge> {
        self.edges.iter().filter(|e| e.from == node).collect()
    }

    /// Source node ids.
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Source { .. }))
            .map(|n| n.id)
            .collect()
    }

    /// Sink node ids.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, OpKind::Sink))
            .map(|n| n.id)
            .collect()
    }

    /// Total number of physical instances the plan expands into.
    pub fn total_instances(&self) -> usize {
        self.nodes.iter().map(|n| n.parallelism).sum()
    }

    /// Topological order of node ids; errors on cycles.
    pub fn topo_order(&self) -> Result<Vec<NodeId>> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            if e.from >= n {
                return Err(EngineError::UnknownNode(e.from));
            }
            if e.to >= n {
                return Err(EngineError::UnknownNode(e.to));
            }
            indeg[e.to] += 1;
        }
        let mut queue: Vec<NodeId> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(id) = queue.pop() {
            order.push(id);
            for e in self.edges.iter().filter(|e| e.from == id) {
                indeg[e.to] -= 1;
                if indeg[e.to] == 0 {
                    queue.push(e.to);
                }
            }
        }
        if order.len() != n {
            return Err(EngineError::CyclicPlan);
        }
        Ok(order)
    }

    /// Resolved output schema of every node (topo-order propagation).
    pub fn schemas(&self) -> Result<Vec<Schema>> {
        let order = self.topo_order()?;
        let mut schemas: Vec<Option<Schema>> = vec![None; self.nodes.len()];
        for id in order {
            let in_edges = self.in_edges(id);
            let inputs: Vec<Schema> = in_edges
                .iter()
                .map(|e| {
                    schemas[e.from]
                        .clone()
                        .ok_or_else(|| EngineError::InvalidPlan("schema not resolved".into()))
                })
                .collect::<Result<_>>()?;
            schemas[id] = Some(self.nodes[id].kind.output_schema(&inputs)?);
        }
        schemas
            .into_iter()
            .map(|s| s.ok_or_else(|| EngineError::InvalidPlan("unresolved schema".into())))
            .collect()
    }

    /// Validate the plan: DAG shape, source/sink presence, parallelism,
    /// forward-edge compatibility, hash-key bounds, join arity, schema
    /// propagation.
    pub fn validate(&self) -> Result<()> {
        if self.sources().is_empty() {
            return Err(EngineError::NoSource);
        }
        if self.sinks().is_empty() {
            return Err(EngineError::NoSink);
        }
        for node in &self.nodes {
            if node.parallelism == 0 {
                return Err(EngineError::ZeroParallelism(node.name.clone()));
            }
        }
        self.topo_order()?;
        self.validate_arity()?;
        let schemas = self.schemas()?;
        for e in &self.edges {
            let (from, to) = (&self.nodes[e.from], &self.nodes[e.to]);
            match &e.partitioning {
                Partitioning::Forward if from.parallelism != to.parallelism => {
                    return Err(EngineError::ForwardParallelismMismatch {
                        from: from.name.clone(),
                        to: to.name.clone(),
                        from_parallelism: from.parallelism,
                        to_parallelism: to.parallelism,
                    });
                }
                Partitioning::Hash(fields) => {
                    let width = schemas[e.from].width();
                    for &f in fields {
                        if f >= width {
                            return Err(EngineError::InvalidKeyField {
                                operator: from.name.clone(),
                                field: f,
                                schema_width: width,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        self.validate_keyed_partitioning()?;
        Ok(())
    }

    /// Hard key-flow checks: a keyed operator running at parallelism > 1
    /// must receive input hash-partitioned on exactly its key, or parallel
    /// execution silently computes a different answer than sequential
    /// execution. Forward edges are accepted here (the upstream chain may
    /// already be correctly partitioned); the flow-sensitive follow-up
    /// lives in the `pdsp-analyze` key-flow pass.
    fn validate_keyed_partitioning(&self) -> Result<()> {
        for node in &self.nodes {
            if node.parallelism <= 1 {
                continue;
            }
            let required: Vec<(usize, usize)> = match &node.kind {
                OpKind::WindowAggregate {
                    key_field: Some(k), ..
                }
                | OpKind::SessionWindow {
                    key_field: Some(k), ..
                } => vec![(0, *k)],
                OpKind::Join {
                    left_key,
                    right_key,
                    ..
                } => vec![(0, *left_key), (1, *right_key)],
                OpKind::Udo { factory } => match factory.properties().keyed_state_field {
                    Some(k) => vec![(0, k)],
                    None => vec![],
                },
                _ => vec![],
            };
            for (port, key) in required {
                for e in self.in_edges(node.id).iter().filter(|e| e.port == port) {
                    let ok = match &e.partitioning {
                        // Hash on the key (or an empty field set, which
                        // degenerates to a single target instance) keeps
                        // each key on one instance.
                        Partitioning::Hash(fields) => {
                            fields.is_empty() || fields.iter().all(|&f| f == key)
                        }
                        Partitioning::Forward => true,
                        Partitioning::Rebalance | Partitioning::Broadcast => false,
                    };
                    if !ok {
                        let partitioning = format!("{:?}", e.partitioning);
                        return Err(if matches!(node.kind, OpKind::Join { .. }) {
                            EngineError::JoinPartitionMismatch {
                                operator: node.name.clone(),
                                side: if port == 0 { "left" } else { "right" }.into(),
                                key_field: key,
                                partitioning,
                            }
                        } else {
                            EngineError::KeyedPartitionMismatch {
                                operator: node.name.clone(),
                                key_field: key,
                                partitioning,
                            }
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Per-node input/output arity checks (run before schema propagation so
    /// arity errors surface with their specific variant).
    fn validate_arity(&self) -> Result<()> {
        for node in &self.nodes {
            let ins = self.in_edges(node.id).len();
            match &node.kind {
                OpKind::Source { .. } => {
                    if ins != 0 {
                        return Err(EngineError::SourceHasInputs {
                            operator: node.name.clone(),
                            inputs: ins,
                        });
                    }
                }
                OpKind::Join { .. } => {
                    if ins != 2 {
                        return Err(EngineError::JoinArity {
                            operator: node.name.clone(),
                            inputs: ins,
                        });
                    }
                }
                OpKind::Union => {
                    if ins < 2 {
                        return Err(EngineError::UnionArity {
                            operator: node.name.clone(),
                            inputs: ins,
                        });
                    }
                }
                _ => {
                    if ins != 1 {
                        return Err(EngineError::OperatorArity {
                            operator: node.name.clone(),
                            inputs: ins,
                        });
                    }
                }
            }
            if !matches!(node.kind, OpKind::Sink) && self.out_edges(node.id).is_empty() {
                return Err(EngineError::DanglingOperator {
                    operator: node.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Serializable descriptor for storage and ML featurization.
    pub fn descriptor(&self) -> PlanDescriptor {
        PlanDescriptor {
            nodes: self
                .nodes
                .iter()
                .map(|n| NodeDescriptor {
                    name: n.name.clone(),
                    parallelism: n.parallelism,
                    op: OpDescriptor::of(&n.kind),
                })
                .collect(),
            edges: self.edges.clone(),
        }
    }

    /// Apply parallelism degrees per node id (enumerators produce these).
    /// Degrees shorter than the node list leave the remainder unchanged.
    pub fn with_parallelism(mut self, degrees: &[usize]) -> Self {
        for (node, &p) in self.nodes.iter_mut().zip(degrees) {
            node.parallelism = p.max(1);
        }
        self
    }

    /// Set every non-source, non-sink operator to the same degree (the
    /// paper's parallelism *category* applied uniformly). Operators with a
    /// [`OpKind::max_useful_parallelism`] bound (global aggregations,
    /// global-view UDOs) are clamped to it: scaling them past the bound
    /// changes the computed answer, not just the performance.
    pub fn with_uniform_parallelism(mut self, degree: usize) -> Self {
        for node in &mut self.nodes {
            if !matches!(node.kind, OpKind::Source { .. } | OpKind::Sink) {
                let cap = node.kind.max_useful_parallelism().unwrap_or(usize::MAX);
                node.parallelism = degree.clamp(1, cap);
            }
        }
        self
    }
}

/// Serializable plan summary (structure + descriptors, no closures).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanDescriptor {
    /// Node descriptors in id order.
    pub nodes: Vec<NodeDescriptor>,
    /// Edges (same representation as the plan).
    pub edges: Vec<Edge>,
}

/// Serializable node summary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeDescriptor {
    /// Node name.
    pub name: String,
    /// Parallelism degree.
    pub parallelism: usize,
    /// Operator descriptor.
    pub op: OpDescriptor,
}

impl PlanDescriptor {
    /// In-edges of a node, sorted by port.
    pub fn in_edges(&self, node: usize) -> Vec<&Edge> {
        let mut v: Vec<&Edge> = self.edges.iter().filter(|e| e.to == node).collect();
        v.sort_by_key(|e| e.port);
        v
    }

    /// Out-edges of a node.
    pub fn out_edges(&self, node: usize) -> Vec<&Edge> {
        self.edges.iter().filter(|e| e.from == node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Predicate};
    use crate::value::{FieldType, Value};

    fn linear_plan() -> LogicalPlan {
        let mut p = LogicalPlan::default();
        let src = p.add_node(
            "src",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int]),
            },
            1,
        );
        let f = p.add_node(
            "filter",
            OpKind::Filter {
                predicate: Predicate::cmp(0, CmpOp::Gt, Value::Int(0)),
                selectivity: 0.5,
            },
            2,
        );
        let sink = p.add_node("sink", OpKind::Sink, 1);
        p.connect(src, f, Partitioning::Rebalance);
        p.connect(f, sink, Partitioning::Rebalance);
        p
    }

    #[test]
    fn valid_linear_plan_passes() {
        linear_plan().validate().unwrap();
    }

    #[test]
    fn topo_order_respects_edges() {
        let p = linear_plan();
        let order = p.topo_order().unwrap();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn cycle_detected() {
        let mut p = linear_plan();
        p.connect(2, 0, Partitioning::Rebalance);
        assert_eq!(p.topo_order().unwrap_err(), EngineError::CyclicPlan);
    }

    #[test]
    fn missing_sink_rejected() {
        let mut p = LogicalPlan::default();
        p.add_node(
            "src",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int]),
            },
            1,
        );
        assert_eq!(p.validate().unwrap_err(), EngineError::NoSink);
    }

    #[test]
    fn forward_mismatch_rejected() {
        let mut p = linear_plan();
        p.edges[0].partitioning = Partitioning::Forward; // src p=1 -> filter p=2
        assert!(matches!(
            p.validate().unwrap_err(),
            EngineError::ForwardParallelismMismatch { .. }
        ));
    }

    #[test]
    fn zero_parallelism_rejected() {
        let mut p = linear_plan();
        p.nodes[1].parallelism = 0;
        assert!(matches!(
            p.validate().unwrap_err(),
            EngineError::ZeroParallelism(_)
        ));
    }

    #[test]
    fn hash_key_out_of_bounds_rejected() {
        let mut p = linear_plan();
        p.edges[0].partitioning = Partitioning::Hash(vec![9]);
        assert!(matches!(
            p.validate().unwrap_err(),
            EngineError::InvalidKeyField { .. }
        ));
    }

    #[test]
    fn join_arity_enforced() {
        let mut p = LogicalPlan::default();
        let src = p.add_node(
            "src",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int]),
            },
            1,
        );
        let j = p.add_node(
            "join",
            OpKind::Join {
                window: crate::window::WindowSpec::tumbling_time(100),
                left_key: 0,
                right_key: 0,
            },
            1,
        );
        let sink = p.add_node("sink", OpKind::Sink, 1);
        p.connect(src, j, Partitioning::Hash(vec![0]));
        p.connect(j, sink, Partitioning::Rebalance);
        assert!(matches!(
            p.validate().unwrap_err(),
            EngineError::JoinArity { .. }
        ));
    }

    #[test]
    fn dangling_operator_rejected() {
        let mut p = linear_plan();
        p.add_node(
            "orphan-map",
            OpKind::Map {
                exprs: vec![crate::expr::ScalarExpr::Field(0)],
            },
            1,
        );
        assert!(p.validate().is_err());
    }

    #[test]
    fn schemas_propagate() {
        let p = linear_plan();
        let schemas = p.schemas().unwrap();
        assert_eq!(schemas[1].width(), 1);
        assert_eq!(schemas[2].width(), 1);
    }

    #[test]
    fn uniform_parallelism_skips_sources_and_sinks() {
        let p = linear_plan().with_uniform_parallelism(8);
        assert_eq!(p.nodes[0].parallelism, 1);
        assert_eq!(p.nodes[1].parallelism, 8);
        assert_eq!(p.nodes[2].parallelism, 1);
    }

    fn keyed_agg_plan(partitioning: Partitioning, parallelism: usize) -> LogicalPlan {
        let mut p = LogicalPlan::default();
        let src = p.add_node(
            "src",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int, FieldType::Double]),
            },
            1,
        );
        let agg = p.add_node(
            "agg",
            OpKind::WindowAggregate {
                window: crate::window::WindowSpec::tumbling_count(10),
                func: crate::agg::AggFunc::Sum,
                agg_field: 1,
                key_field: Some(0),
            },
            parallelism,
        );
        let sink = p.add_node("sink", OpKind::Sink, 1);
        p.connect(src, agg, partitioning);
        p.connect(agg, sink, Partitioning::Rebalance);
        p
    }

    #[test]
    fn keyed_agg_rebalanced_at_parallelism_rejected() {
        let err = keyed_agg_plan(Partitioning::Rebalance, 4)
            .validate()
            .unwrap_err();
        assert!(
            matches!(
                err,
                EngineError::KeyedPartitionMismatch { key_field: 0, .. }
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn keyed_agg_hashed_on_wrong_field_rejected() {
        let err = keyed_agg_plan(Partitioning::Hash(vec![1]), 4)
            .validate()
            .unwrap_err();
        assert!(matches!(err, EngineError::KeyedPartitionMismatch { .. }));
    }

    #[test]
    fn keyed_agg_partitioning_is_free_at_parallelism_one() {
        keyed_agg_plan(Partitioning::Rebalance, 1)
            .validate()
            .unwrap();
    }

    #[test]
    fn keyed_agg_hashed_on_key_accepted() {
        keyed_agg_plan(Partitioning::Hash(vec![0]), 4)
            .validate()
            .unwrap();
    }

    #[test]
    fn join_side_not_hashed_on_key_rejected() {
        let mut p = LogicalPlan::default();
        let s1 = p.add_node(
            "s1",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int]),
            },
            1,
        );
        let s2 = p.add_node(
            "s2",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int]),
            },
            1,
        );
        let j = p.add_node(
            "join",
            OpKind::Join {
                window: crate::window::WindowSpec::tumbling_time(100),
                left_key: 0,
                right_key: 0,
            },
            4,
        );
        let sink = p.add_node("sink", OpKind::Sink, 1);
        p.connect_port(s1, j, 0, Partitioning::Hash(vec![0]));
        p.connect_port(s2, j, 1, Partitioning::Rebalance);
        p.connect(j, sink, Partitioning::Rebalance);
        let err = p.validate().unwrap_err();
        assert!(
            matches!(
                &err,
                EngineError::JoinPartitionMismatch { side, .. } if side == "right"
            ),
            "got {err:?}"
        );
    }

    #[test]
    fn arity_errors_are_typed() {
        // Orphan map: single-input operator with zero inputs and no
        // consumers; the input check fires first.
        let mut p = linear_plan();
        p.add_node(
            "orphan-map",
            OpKind::Map {
                exprs: vec![crate::expr::ScalarExpr::Field(0)],
            },
            1,
        );
        assert!(matches!(
            p.validate().unwrap_err(),
            EngineError::OperatorArity { inputs: 0, .. }
        ));
    }

    #[test]
    fn uniform_parallelism_clamps_global_aggregates() {
        let mut p = linear_plan();
        p.nodes[1].kind = OpKind::WindowAggregate {
            window: crate::window::WindowSpec::tumbling_count(10),
            func: crate::agg::AggFunc::Sum,
            agg_field: 0,
            key_field: None,
        };
        let swept = p.with_uniform_parallelism(16);
        assert_eq!(
            swept.nodes[1].parallelism, 1,
            "global aggregate pinned to 1 instance"
        );
    }

    #[test]
    fn descriptor_roundtrips_through_json() {
        let d = linear_plan().descriptor();
        let json = serde_json::to_string(&d).unwrap();
        let back: PlanDescriptor = serde_json::from_str(&json).unwrap();
        assert_eq!(back.nodes.len(), 3);
        assert_eq!(back.nodes[1].parallelism, 2);
    }
}
