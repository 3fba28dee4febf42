//! Physical plan: expansion of a logical plan into parallel instances and
//! the channel topology connecting them.
//!
//! Both execution backends — the threaded runtime here and the cluster
//! simulator in `pdsp-cluster` — consume the same [`PhysicalPlan`], so a PQP
//! measured on real threads and one simulated on a modeled cluster share
//! identical routing behaviour.
//!
//! Expansion also records operator *chains* (see [`crate::chaining`]): a
//! `Forward` edge whose producer has no other out-edge and whose consumer
//! has no other in-edge, neither end a source or a sink, becomes a chain
//! link. Instance k of the consumer then runs in the thread of instance k
//! of the producer, fed its outputs directly: the link gets no channel slot
//! and no out-route, only an entry in [`PhysicalPlan::chain_next`].

use crate::error::Result;
use crate::operator::OpKind;
use crate::plan::{LogicalPlan, NodeId, Partitioning};
use crate::value::Tuple;

/// One physical operator instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhysicalInstance {
    /// Dense instance id across the whole plan.
    pub id: usize,
    /// Logical node this instance belongs to.
    pub node: NodeId,
    /// Index within the node's instances (0..parallelism).
    pub index: usize,
}

/// Where an output edge delivers: a target instance, the input-channel slot
/// at that instance, and the input port it maps to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelRef {
    /// Target physical instance id.
    pub instance: usize,
    /// Input channel slot at the target (for watermark tracking).
    pub channel: usize,
    /// Logical input port at the target operator.
    pub port: usize,
}

/// Routing of one out-edge from one sender instance.
#[derive(Debug, Clone)]
pub struct OutRoute {
    /// Index of the logical edge in `LogicalPlan::edges`.
    pub edge_index: usize,
    /// Partitioning strategy (copied from the edge).
    pub partitioning: Partitioning,
    /// Reachable downstream slots. Forward edges have exactly one; other
    /// strategies list every downstream instance.
    pub targets: Vec<ChannelRef>,
}

/// A chain link out of one instance: the instance that runs next in the
/// same thread, and the input port it is fed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainLink {
    /// Physical instance id of the next chain member.
    pub instance: usize,
    /// Logical input port of the chain link's edge at that member.
    pub port: usize,
}

/// A physical plan: instances plus per-instance channel topology.
#[derive(Debug, Clone)]
pub struct PhysicalPlan {
    /// The logical plan this was expanded from.
    pub logical: LogicalPlan,
    /// All physical instances, dense ids.
    pub instances: Vec<PhysicalInstance>,
    /// node id -> its instance ids.
    pub node_instances: Vec<Vec<usize>>,
    /// instance id -> number of input channels.
    pub input_channel_count: Vec<usize>,
    /// instance id -> input port of each channel slot.
    pub channel_ports: Vec<Vec<usize>>,
    /// instance id -> logical edge index feeding each channel slot
    /// (parallel to `channel_ports`). Lets wire-level consumers look up the
    /// schema of the stream arriving on a given channel.
    pub channel_edges: Vec<Vec<usize>>,
    /// Inferred schema of each logical edge (index-aligned with
    /// `LogicalPlan::edges`), persisted from [`crate::schema_flow`] so
    /// runtimes can validate frames — and a future columnar plane can pick
    /// typed layouts — without re-running inference.
    pub edge_schemas: Vec<crate::value::Schema>,
    /// instance id -> routes for each out-edge that crosses a channel
    /// (logical out-edge order; a chain link has none).
    pub out_routes: Vec<Vec<OutRoute>>,
    /// instance id -> the chain member fed by its outputs, if it is linked.
    pub chain_next: Vec<Option<ChainLink>>,
}

impl PhysicalPlan {
    /// Expand a validated logical plan.
    pub fn expand(logical: &LogicalPlan) -> Result<Self> {
        let edge_schemas = logical.validate()?.edge;
        let mut instances = Vec::new();
        let mut node_instances = vec![Vec::new(); logical.nodes.len()];
        for node in &logical.nodes {
            for index in 0..node.parallelism {
                let id = instances.len();
                instances.push(PhysicalInstance {
                    id,
                    node: node.id,
                    index,
                });
                node_instances[node.id].push(id);
            }
        }

        // Chain links, per logical edge.
        let is_link: Vec<bool> = logical
            .edges
            .iter()
            .map(|e| {
                e.partitioning == Partitioning::Forward
                    && logical.out_edges(e.from).len() == 1
                    && logical.in_edges(e.to).len() == 1
                    && !matches!(logical.nodes[e.from].kind, OpKind::Source { .. })
                    && !matches!(logical.nodes[e.to].kind, OpKind::Sink)
            })
            .collect();

        // Assign input channel slots per instance: iterate in-edges sorted
        // by port; forward edges contribute one channel (the matching
        // upstream index), others one channel per upstream instance, and
        // chain links none.
        let n_inst = instances.len();
        let mut input_channel_count = vec![0usize; n_inst];
        let mut channel_ports: Vec<Vec<usize>> = vec![Vec::new(); n_inst];
        let mut channel_edges: Vec<Vec<usize>> = vec![Vec::new(); n_inst];
        // (edge_index, upstream_instance) -> (target ChannelRef) lookup used
        // when building out-routes.
        let mut slot_of: std::collections::HashMap<(usize, usize, usize), ChannelRef> =
            std::collections::HashMap::new();

        for node in &logical.nodes {
            for &inst_id in &node_instances[node.id] {
                let inst_index = instances[inst_id].index;
                for in_edge in logical.in_edges(node.id) {
                    let edge_index = logical
                        .edges
                        .iter()
                        .position(|e| std::ptr::eq(e as *const _, in_edge as *const _))
                        .expect("edge in plan");
                    if is_link[edge_index] {
                        continue;
                    }
                    let upstreams = &node_instances[in_edge.from];
                    match in_edge.partitioning {
                        Partitioning::Forward => {
                            let up = upstreams[inst_index];
                            let slot = input_channel_count[inst_id];
                            input_channel_count[inst_id] += 1;
                            channel_ports[inst_id].push(in_edge.port);
                            channel_edges[inst_id].push(edge_index);
                            slot_of.insert(
                                (edge_index, up, inst_id),
                                ChannelRef {
                                    instance: inst_id,
                                    channel: slot,
                                    port: in_edge.port,
                                },
                            );
                        }
                        _ => {
                            for &up in upstreams {
                                let slot = input_channel_count[inst_id];
                                input_channel_count[inst_id] += 1;
                                channel_ports[inst_id].push(in_edge.port);
                                channel_edges[inst_id].push(edge_index);
                                slot_of.insert(
                                    (edge_index, up, inst_id),
                                    ChannelRef {
                                        instance: inst_id,
                                        channel: slot,
                                        port: in_edge.port,
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }

        // Build out-routes (or the chain link) per sender instance.
        let mut out_routes: Vec<Vec<OutRoute>> = vec![Vec::new(); n_inst];
        let mut chain_next: Vec<Option<ChainLink>> = vec![None; n_inst];
        for node in &logical.nodes {
            let outs = logical.out_edges(node.id);
            for &inst_id in &node_instances[node.id] {
                let inst_index = instances[inst_id].index;
                for out_edge in &outs {
                    let edge_index = logical
                        .edges
                        .iter()
                        .position(|e| std::ptr::eq(e as *const _, *out_edge as *const _))
                        .expect("edge in plan");
                    let downstream = &node_instances[out_edge.to];
                    if is_link[edge_index] {
                        chain_next[inst_id] = Some(ChainLink {
                            instance: downstream[inst_index],
                            port: out_edge.port,
                        });
                        continue;
                    }
                    let targets: Vec<ChannelRef> = match out_edge.partitioning {
                        Partitioning::Forward => {
                            let to = downstream[inst_index];
                            vec![slot_of[&(edge_index, inst_id, to)]]
                        }
                        _ => downstream
                            .iter()
                            .map(|&to| slot_of[&(edge_index, inst_id, to)])
                            .collect(),
                    };
                    out_routes[inst_id].push(OutRoute {
                        edge_index,
                        partitioning: out_edge.partitioning.clone(),
                        targets,
                    });
                }
            }
        }

        Ok(PhysicalPlan {
            logical: logical.clone(),
            instances,
            node_instances,
            input_channel_count,
            channel_ports,
            channel_edges,
            edge_schemas,
            out_routes,
            chain_next,
        })
    }

    /// The chain starting at `head`: `head` and every instance linked after
    /// it, in the order they process a batch.
    pub(crate) fn chain(&self, head: usize) -> Vec<usize> {
        let mut members = vec![head];
        while let Some(link) = self.chain_next[*members.last().expect("non-empty")] {
            members.push(link.instance);
        }
        members
    }

    /// instance id -> the head of its chain (itself when it is not a chain
    /// member, or heads one): the instance whose thread runs it, and so the
    /// one whose placement it shares.
    pub fn chain_heads(&self) -> Vec<usize> {
        let mut heads: Vec<usize> = (0..self.instance_count()).collect();
        // A member visited before its head labels its own suffix of the
        // chain; the head, visited later, relabels the whole chain.
        for i in 0..heads.len() {
            if heads[i] == i {
                for member in self.chain(i) {
                    heads[member] = i;
                }
            }
        }
        heads
    }

    /// Schema of the stream arriving on `channel` at `instance`, from the
    /// persisted per-edge inference results.
    pub fn channel_schema(&self, instance: usize, channel: usize) -> Option<&crate::value::Schema> {
        let edge = *self.channel_edges.get(instance)?.get(channel)?;
        self.edge_schemas.get(edge)
    }

    /// Total instance count.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Total channel count (sum of input channels).
    pub fn channel_count(&self) -> usize {
        self.input_channel_count.iter().sum()
    }

    /// Instance ids of all sources.
    pub fn source_instances(&self) -> Vec<usize> {
        self.logical
            .sources()
            .into_iter()
            .flat_map(|n| self.node_instances[n].iter().copied())
            .collect()
    }

    /// Instance ids of all sinks.
    pub fn sink_instances(&self) -> Vec<usize> {
        self.logical
            .sinks()
            .into_iter()
            .flat_map(|n| self.node_instances[n].iter().copied())
            .collect()
    }
}

/// Per-sender routing state (round-robin counters for rebalance edges).
#[derive(Debug, Default, Clone)]
pub struct RouterState {
    rr: Vec<usize>,
}

impl RouterState {
    /// State for an instance with `out_edges` outgoing routes.
    pub fn new(out_edges: usize) -> Self {
        RouterState {
            rr: vec![0; out_edges],
        }
    }

    /// Select target slot(s) for a tuple on the `route_idx`-th out-route.
    /// Returns indices into `route.targets`.
    pub fn select(&mut self, route_idx: usize, route: &OutRoute, tuple: &Tuple) -> RouteTargets {
        match &route.partitioning {
            Partitioning::Forward => RouteTargets::One(0),
            Partitioning::Rebalance => {
                let n = route.targets.len();
                let i = self.rr[route_idx] % n;
                self.rr[route_idx] = self.rr[route_idx].wrapping_add(1);
                RouteTargets::One(i)
            }
            Partitioning::Hash(fields) => {
                let n = route.targets.len() as u64;
                RouteTargets::One((tuple.key_hash(fields) % n) as usize)
            }
            Partitioning::Broadcast => RouteTargets::All,
        }
    }
}

/// Result of routing one tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteTargets {
    /// Deliver to a single target (index into `route.targets`).
    One(usize),
    /// Deliver to every target.
    All,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Predicate};
    use crate::value::{FieldType, Schema, Value};

    fn plan(filter_parallelism: usize) -> LogicalPlan {
        let mut p = LogicalPlan::default();
        let src = p.add_node(
            "src",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int]),
            },
            2,
        );
        let f = p.add_node(
            "f",
            OpKind::Filter {
                predicate: Predicate::cmp(0, CmpOp::Ge, Value::Int(0)),
                selectivity: 1.0,
            },
            filter_parallelism,
        );
        let sink = p.add_node("sink", OpKind::Sink, 1);
        p.connect(src, f, Partitioning::Rebalance);
        p.connect(f, sink, Partitioning::Rebalance);
        p
    }

    #[test]
    fn expansion_counts_instances() {
        let phys = PhysicalPlan::expand(&plan(3)).unwrap();
        assert_eq!(phys.instance_count(), 2 + 3 + 1);
        assert_eq!(phys.node_instances[1].len(), 3);
    }

    #[test]
    fn rebalance_edge_gives_full_mesh() {
        let phys = PhysicalPlan::expand(&plan(3)).unwrap();
        // Each filter instance receives a channel from both source instances.
        for &f in &phys.node_instances[1] {
            assert_eq!(phys.input_channel_count[f], 2);
        }
        // Sink receives from all 3 filter instances.
        let sink = phys.node_instances[2][0];
        assert_eq!(phys.input_channel_count[sink], 3);
        // Each source instance routes to all 3 filter instances.
        for &s in &phys.node_instances[0] {
            assert_eq!(phys.out_routes[s][0].targets.len(), 3);
        }
    }

    #[test]
    fn forward_edge_gives_one_to_one() {
        let mut p = plan(2);
        p.edges[0].partitioning = Partitioning::Forward; // src p=2 -> f p=2
        let phys = PhysicalPlan::expand(&p).unwrap();
        for (i, &s) in phys.node_instances[0].iter().enumerate() {
            let route = &phys.out_routes[s][0];
            assert_eq!(route.targets.len(), 1);
            let target = route.targets[0];
            assert_eq!(phys.instances[target.instance].index, i);
        }
        for &f in &phys.node_instances[1] {
            assert_eq!(phys.input_channel_count[f], 1);
        }
    }

    #[test]
    fn hash_routing_is_deterministic_and_key_local() {
        let phys = PhysicalPlan::expand(&plan(4)).unwrap();
        let src = phys.node_instances[0][0];
        let mut router = RouterState::new(1);
        let route = {
            let mut r = phys.out_routes[src][0].clone();
            r.partitioning = Partitioning::Hash(vec![0]);
            r
        };
        let t1 = Tuple::new(vec![Value::Int(42)]);
        let t2 = Tuple::new(vec![Value::Int(42)]);
        let a = router.select(0, &route, &t1);
        let b = router.select(0, &route, &t2);
        assert_eq!(a, b, "same key routes to the same instance");
    }

    #[test]
    fn rebalance_routing_cycles() {
        let phys = PhysicalPlan::expand(&plan(3)).unwrap();
        let src = phys.node_instances[0][0];
        let route = &phys.out_routes[src][0];
        let mut router = RouterState::new(1);
        let t = Tuple::new(vec![Value::Int(1)]);
        let picks: Vec<_> = (0..6)
            .map(|_| match router.select(0, route, &t) {
                RouteTargets::One(i) => i,
                RouteTargets::All => unreachable!(),
            })
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn broadcast_routes_to_all() {
        let phys = PhysicalPlan::expand(&plan(3)).unwrap();
        let src = phys.node_instances[0][0];
        let mut route = phys.out_routes[src][0].clone();
        route.partitioning = Partitioning::Broadcast;
        let mut router = RouterState::new(1);
        let t = Tuple::new(vec![Value::Int(1)]);
        assert_eq!(router.select(0, &route, &t), RouteTargets::All);
    }

    #[test]
    fn channel_ports_follow_join_wiring() {
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
            "j",
            OpKind::Join {
                window: crate::window::WindowSpec::tumbling_time(10),
                left_key: 0,
                right_key: 0,
            },
            2,
        );
        let k = p.add_node("k", OpKind::Sink, 1);
        p.connect_port(s1, j, 0, Partitioning::Hash(vec![0]));
        p.connect_port(s2, j, 1, Partitioning::Hash(vec![0]));
        p.connect(j, k, Partitioning::Rebalance);
        let phys = PhysicalPlan::expand(&p).unwrap();
        for &ji in &phys.node_instances[j] {
            assert_eq!(phys.channel_ports[ji], vec![0, 1]);
        }
    }

    #[test]
    fn edge_schemas_reachable_per_channel() {
        let phys = PhysicalPlan::expand(&plan(3)).unwrap();
        assert_eq!(phys.edge_schemas.len(), phys.logical.edges.len());
        for inst in &phys.instances {
            assert_eq!(
                phys.channel_edges[inst.id].len(),
                phys.input_channel_count[inst.id]
            );
            for ch in 0..phys.input_channel_count[inst.id] {
                let schema = phys.channel_schema(inst.id, ch).expect("schema present");
                assert_eq!(schema, &Schema::of(&[FieldType::Int]));
            }
        }
    }

    #[test]
    fn expansion_validates_first() {
        let mut p = plan(2);
        p.nodes[1].parallelism = 0;
        assert!(PhysicalPlan::expand(&p).is_err());
    }
}
