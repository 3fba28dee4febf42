//! Placement of physical operator instances onto cluster nodes.
//!
//! The paper's controller hides resource mapping behind Kubernetes/Yarn;
//! here the strategies are explicit so experiments can control (and ablate)
//! how parallel instances spread over heterogeneous nodes.

use crate::hardware::Cluster;
use pdsp_engine::physical::PhysicalPlan;
use serde::{Deserialize, Serialize};

/// How instances are assigned to nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementStrategy {
    /// Instance i goes to node i mod n — spreads every operator across all
    /// nodes (Flink's default slot spreading).
    RoundRobin,
    /// Fill nodes proportionally to their core counts, so a 28-core c6320
    /// hosts ~3.5x the instances of an 8-core m510.
    CoreWeighted,
    /// Co-locate all instances of one operator on as few nodes as possible
    /// (operator locality: cheap intra-operator shuffles, hot nodes).
    OperatorLocality,
}

/// A computed placement: instance id -> node id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Node of each physical instance (indexed by instance id).
    pub node_of: Vec<usize>,
}

impl Placement {
    /// Compute a placement for `plan` on `cluster`. The strategy places
    /// chain heads; every other chain member goes where its head goes, since
    /// the head's thread runs it.
    pub fn compute(plan: &PhysicalPlan, cluster: &Cluster, strategy: PlacementStrategy) -> Self {
        assert!(!cluster.is_empty(), "cannot place on an empty cluster");
        let heads = plan.chain_heads();
        let is_head = |i: usize| heads[i] == i;
        let mut node_of = vec![0usize; plan.instance_count()];
        match strategy {
            PlacementStrategy::RoundRobin => {
                for (k, h) in (0..heads.len()).filter(|&i| is_head(i)).enumerate() {
                    node_of[h] = k % cluster.len();
                }
            }
            PlacementStrategy::CoreWeighted => {
                // Greedy: always place on the node with the lowest
                // occupancy-to-cores ratio.
                let mut load = vec![0usize; cluster.len()];
                for h in (0..heads.len()).filter(|&i| is_head(i)) {
                    let best = (0..cluster.len())
                        .min_by(|&a, &b| {
                            let ra = load[a] as f64 / cluster.nodes[a].node_type.cores as f64;
                            let rb = load[b] as f64 / cluster.nodes[b].node_type.cores as f64;
                            ra.partial_cmp(&rb).unwrap()
                        })
                        .unwrap();
                    load[best] += 1;
                    node_of[h] = best;
                }
            }
            PlacementStrategy::OperatorLocality => {
                // Pack each logical node's instances onto consecutive nodes,
                // filling cores before moving on.
                let mut cursor = 0usize; // node index
                let mut used = 0usize; // cores used on cursor node
                for node in &plan.logical.nodes {
                    for &inst in plan.node_instances[node.id].iter().filter(|&&i| is_head(i)) {
                        if used >= cluster.nodes[cursor].node_type.cores {
                            cursor = (cursor + 1) % cluster.len();
                            used = 0;
                        }
                        node_of[inst] = cursor;
                        used += 1;
                    }
                }
            }
        }
        for (i, &h) in heads.iter().enumerate() {
            node_of[i] = node_of[h];
        }
        Placement { node_of }
    }

    /// Number of instances placed on each node.
    pub fn per_node_counts(&self, n_nodes: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_nodes];
        for &n in &self.node_of {
            counts[n] += 1;
        }
        counts
    }

    /// Fraction of plan edges' (upstream, downstream) instance pairs that
    /// cross node boundaries — a proxy for network pressure.
    pub fn cross_node_fraction(&self, plan: &PhysicalPlan) -> f64 {
        let mut total = 0usize;
        let mut cross = 0usize;
        for inst in &plan.instances {
            for route in &plan.out_routes[inst.id] {
                for target in &route.targets {
                    total += 1;
                    if self.node_of[inst.id] != self.node_of[target.instance] {
                        cross += 1;
                    }
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            cross as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsp_engine::expr::Predicate;
    use pdsp_engine::operator::OpKind;
    use pdsp_engine::plan::Partitioning;
    use pdsp_engine::value::{FieldType, Schema};
    use pdsp_engine::PlanBuilder;

    fn plan(p: usize) -> PhysicalPlan {
        let plan = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int]), 2)
            .filter("f", Predicate::True, 1.0)
            .set_parallelism(1, p)
            .sink("sink")
            .build()
            .unwrap();
        PhysicalPlan::expand(&plan).unwrap()
    }

    #[test]
    fn round_robin_spreads_evenly() {
        let phys = plan(17); // 2 + 17 + 1 = 20 instances
        let cluster = Cluster::homogeneous_m510(10);
        let p = Placement::compute(&phys, &cluster, PlacementStrategy::RoundRobin);
        let counts = p.per_node_counts(10);
        assert_eq!(counts.iter().sum::<usize>(), 20);
        assert!(counts.iter().all(|&c| c == 2));
    }

    #[test]
    fn core_weighted_respects_heterogeneity() {
        let phys = plan(100);
        let cluster = Cluster::heterogeneous_mixed(10); // 16/28 core mix
        let p = Placement::compute(&phys, &cluster, PlacementStrategy::CoreWeighted);
        let counts = p.per_node_counts(10);
        // 28-core nodes (odd ids) should host more instances than 16-core.
        let on_16: usize = counts.iter().step_by(2).sum();
        let on_28: usize = counts.iter().skip(1).step_by(2).sum();
        assert!(
            on_28 > on_16,
            "28-core nodes got {on_28}, 16-core got {on_16}"
        );
    }

    #[test]
    fn operator_locality_colocates() {
        let phys = plan(4);
        let cluster = Cluster::homogeneous_m510(10);
        let p = Placement::compute(&phys, &cluster, PlacementStrategy::OperatorLocality);
        // All 4 filter instances (ids 2..6) share one node (8 cores fit all).
        let filter_nodes: Vec<usize> = (2..6).map(|i| p.node_of[i]).collect();
        assert!(filter_nodes.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn cross_node_fraction_zero_on_single_node() {
        let phys = plan(3);
        let cluster = Cluster::homogeneous_m510(1);
        let p = Placement::compute(&phys, &cluster, PlacementStrategy::RoundRobin);
        assert_eq!(p.cross_node_fraction(&phys), 0.0);
    }

    #[test]
    fn cross_node_fraction_grows_with_spread() {
        let phys = plan(8);
        let one = Placement::compute(
            &phys,
            &Cluster::homogeneous_m510(1),
            PlacementStrategy::RoundRobin,
        );
        let ten = Placement::compute(
            &phys,
            &Cluster::homogeneous_m510(10),
            PlacementStrategy::RoundRobin,
        );
        assert!(ten.cross_node_fraction(&phys) > one.cross_node_fraction(&phys));
    }

    #[test]
    fn chain_members_share_their_heads_node() {
        // src -> f1 -> f2 -> sink with a forward link f1 -> f2: f2 runs in
        // f1's thread.
        let f2 = OpKind::Filter {
            predicate: Predicate::True,
            selectivity: 1.0,
        };
        let logical = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int]), 1)
            .filter("f1", Predicate::True, 1.0)
            .chain("f2", f2, Some(Partitioning::Forward))
            .sink("sink")
            .build()
            .unwrap();
        let phys = PhysicalPlan::expand(&logical).unwrap();
        assert_eq!(phys.chain_next[1].map(|link| link.instance), Some(2));
        for strategy in [
            PlacementStrategy::RoundRobin,
            PlacementStrategy::CoreWeighted,
        ] {
            let p = Placement::compute(&phys, &Cluster::heterogeneous_mixed(4), strategy);
            assert_eq!(p.node_of[1], p.node_of[2], "{strategy:?}");
        }
    }

    #[test]
    #[should_panic]
    fn empty_cluster_panics() {
        let phys = plan(1);
        let cluster = Cluster::new("empty", vec![]);
        Placement::compute(&phys, &cluster, PlacementStrategy::RoundRobin);
    }
}
