//! Plan-cost smells (PB041-PB043): shapes that are correct but leave
//! throughput on the table.
//!
//! These mirror what the rule-based parallelism heuristics and the
//! operator-chaining optimizer can and cannot repair: a rebalance edge the
//! chainer could have linked, a parallel region draining into a single
//! instance, and parallelism cliffs that concentrate channel load.

use crate::context::AnalysisContext;
use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::Pass;
use pdsp_engine::operator::OpKind;
use pdsp_engine::plan::Partitioning;

/// Upstream parallelism at or above this makes a parallelism-1 consumer a
/// funnel.
const FUNNEL_LIMIT: usize = 8;
/// Adjacent parallelism ratios above this are flagged.
const CLIFF_RATIO: usize = 16;

/// Cost-smell pass.
pub struct CostSmellsPass;

impl Pass for CostSmellsPass {
    fn name(&self) -> &'static str {
        "cost-smells"
    }

    fn run(&self, ctx: &AnalysisContext, out: &mut Vec<Diagnostic>) {
        for &id in &ctx.topo {
            let node = &ctx.plan.nodes[id];

            // PB042: a parallel region funneling into one instance. When
            // the consumer is inherently global (clamped by
            // max_useful_parallelism) the funnel is the algorithm, not a
            // mistake — downgrade to a hint suggesting pre-aggregation.
            if node.parallelism == 1 && !matches!(node.kind, OpKind::Sink | OpKind::Source { .. }) {
                let upstream: usize = ctx
                    .plan
                    .in_edges(id)
                    .iter()
                    .map(|e| ctx.plan.nodes[e.from].parallelism)
                    .sum();
                if upstream >= FUNNEL_LIMIT {
                    let inherent = node.kind.max_useful_parallelism() == Some(1);
                    let d = Diagnostic::new(
                        Code::FunnelBottleneck,
                        Span::Node {
                            id,
                            name: node.name.clone(),
                        },
                        format!(
                            "'{}' runs at parallelism 1 behind {upstream} upstream instances; \
                             the whole region throttles to one core",
                            node.name
                        ),
                    );
                    out.push(if inherent {
                        d.with_severity(Severity::Hint).with_suggestion(
                            "the operator needs a global view; pre-aggregate per partition to \
                             shrink what reaches it",
                        )
                    } else {
                        d.with_suggestion("raise the operator's parallelism")
                    });
                }
            }

            for e in ctx.plan.out_edges(id) {
                let to = &ctx.plan.nodes[e.to];

                // PB041: a rebalance between equal-parallelism stateless
                // neighbors. A forward edge computes the same thing and
                // lets expansion chain the pair into one thread,
                // removing a channel hop.
                if matches!(e.partitioning, Partitioning::Rebalance)
                    && node.parallelism == to.parallelism
                    && node.parallelism > 1
                    && partitioning_invariant(&node.kind)
                    && partitioning_invariant(&to.kind)
                {
                    out.push(
                        Diagnostic::new(
                            Code::ForwardChainBreak,
                            Span::Edge {
                                from: e.from,
                                to: e.to,
                                port: e.port,
                            },
                            format!(
                                "rebalance between stateless '{}' and '{}' at equal parallelism \
                                 {}; a forward edge would compute the same result and allow \
                                 operator chaining",
                                node.name, to.name, node.parallelism
                            ),
                        )
                        .with_suggestion("use Partitioning::Forward"),
                    );
                }

                // PB043: steep parallelism cliffs concentrate each
                // high-side instance's output onto few low-side instances.
                let (hi, lo) = (
                    node.parallelism.max(to.parallelism),
                    node.parallelism.min(to.parallelism).max(1),
                );
                if lo > 1 && hi / lo >= CLIFF_RATIO {
                    out.push(Diagnostic::new(
                        Code::ParallelismCliff,
                        Span::Edge {
                            from: e.from,
                            to: e.to,
                            port: e.port,
                        },
                        format!(
                            "parallelism jumps {}:{} between '{}' and '{}'; consider a stepped \
                             transition",
                            node.parallelism, to.parallelism, node.name, to.name
                        ),
                    ));
                }
            }
        }
    }
}

/// Operators whose output is the same regardless of how the input is
/// partitioned — safe to convert a rebalance edge into a forward edge.
fn partitioning_invariant(kind: &OpKind) -> bool {
    match kind {
        OpKind::Filter { .. } | OpKind::Map { .. } | OpKind::FlatMapSplit { .. } => true,
        OpKind::Udo { factory } => !factory.properties().stateful,
        _ => false,
    }
}
