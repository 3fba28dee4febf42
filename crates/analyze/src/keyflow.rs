//! Key-flow analysis (PB001-PB007): does every keyed or global operator
//! actually receive the stream distribution its semantics require?
//!
//! This is the correctness core of the analyzer. A keyed aggregate at
//! parallelism > 1 computes per-key results only if tuples agreeing on the
//! key are colocated on one instance; a global (unkeyed) aggregate needs
//! the whole stream on one instance. The [`Flow`] lattice computed in
//! [`AnalysisContext`] tells us what each edge actually delivers.

use crate::context::{AnalysisContext, Flow};
use crate::diag::{Code, Diagnostic, Span};
use crate::Pass;
use pdsp_engine::operator::OpKind;
use pdsp_engine::plan::NodeId;

/// Key-flow correctness pass.
pub struct KeyFlowPass;

impl Pass for KeyFlowPass {
    fn name(&self) -> &'static str {
        "key-flow"
    }

    fn run(&self, ctx: &AnalysisContext, out: &mut Vec<Diagnostic>) {
        for &id in &ctx.topo {
            let node = &ctx.plan.nodes[id];
            if node.parallelism <= 1 {
                continue;
            }
            match &node.kind {
                OpKind::WindowAggregate { key_field, .. }
                | OpKind::SessionWindow { key_field, .. } => match key_field {
                    Some(k) => check_keyed_input(ctx, id, *k, Code::KeyedAggPartition, out),
                    None => check_global_input(ctx, id, "global aggregate", out),
                },
                OpKind::Join {
                    left_key,
                    right_key,
                    ..
                } => {
                    for (port, key, side) in [(0usize, *left_key, "left"), (1, *right_key, "right")]
                    {
                        for (p, flow) in &ctx.in_flows[id] {
                            if *p == port && !flow.colocates(key) {
                                let edge = edge_span(ctx, id, port);
                                out.push(
                                    Diagnostic::new(
                                        Code::JoinSidePartition,
                                        edge,
                                        format!(
                                            "join '{}' {side} input (key field {key}) is {} at \
                                             parallelism {}; matching keys can land on different \
                                             instances and silently drop join results",
                                            node.name,
                                            describe(flow),
                                            node.parallelism
                                        ),
                                    )
                                    .with_suggestion(format!(
                                        "hash-partition the {side} input on field {key}"
                                    )),
                                );
                            }
                        }
                    }
                }
                OpKind::Udo { factory } => {
                    let props = factory.properties();
                    if props.requires_global_view {
                        check_global_input(ctx, id, "global-view UDO", out);
                    } else if let Some(k) = props.keyed_state_field {
                        check_keyed_input(ctx, id, k, Code::KeyedUdoPartition, out);
                    } else if props.stateful && !props.partition_tolerant {
                        out.push(
                            Diagnostic::new(
                                Code::UndeclaredStatefulPartition,
                                Span::Node {
                                    id,
                                    name: node.name.clone(),
                                },
                                format!(
                                    "stateful UDO '{}' runs at parallelism {} without declaring \
                                     a state key, a global view, or partition tolerance; each \
                                     instance sees an arbitrary slice of the stream",
                                    node.name, node.parallelism
                                ),
                            )
                            .with_suggestion(
                                "declare keyed_state_field / requires_global_view / \
                                 partition_tolerant in the factory's UdoProperties",
                            ),
                        );
                    }
                }
                _ => {}
            }
        }
    }
}

/// A keyed operator at parallelism > 1: every input edge must colocate the
/// key.
fn check_keyed_input(
    ctx: &AnalysisContext,
    id: NodeId,
    key: usize,
    code: Code,
    out: &mut Vec<Diagnostic>,
) {
    let node = &ctx.plan.nodes[id];
    for (port, flow) in &ctx.in_flows[id] {
        if flow.colocates(key) {
            continue;
        }
        out.push(
            Diagnostic::new(
                code,
                edge_span(ctx, id, *port),
                format!(
                    "keyed operator '{}' (key field {key}) at parallelism {} receives {} input; \
                     per-key results diverge from a sequential run",
                    node.name,
                    node.parallelism,
                    describe(flow)
                ),
            )
            .with_suggestion(format!("hash-partition the input on field {key}")),
        );
    }
}

/// A whole-stream operator at parallelism > 1: broadcast replicates the
/// result (warning), anything else splits the stream (error).
fn check_global_input(ctx: &AnalysisContext, id: NodeId, what: &str, out: &mut Vec<Diagnostic>) {
    let node = &ctx.plan.nodes[id];
    for (port, flow) in &ctx.in_flows[id] {
        match flow {
            Flow::Single => {}
            Flow::Replicated => out.push(
                Diagnostic::new(
                    Code::GlobalOpReplicated,
                    edge_span(ctx, id, *port),
                    format!(
                        "{what} '{}' is broadcast-replicated across {} instances; every instance \
                         emits the full result, multiplying output {}x",
                        node.name, node.parallelism, node.parallelism
                    ),
                )
                .with_suggestion("run the operator at parallelism 1"),
            ),
            _ => out.push(
                Diagnostic::new(
                    Code::GlobalOpSplit,
                    edge_span(ctx, id, *port),
                    format!(
                        "{what} '{}' needs the complete stream but runs at parallelism {} on {} \
                         input; each instance computes over a partial stream",
                        node.name,
                        node.parallelism,
                        describe(flow)
                    ),
                )
                .with_suggestion("run the operator at parallelism 1"),
            ),
        }
    }
}

/// Span for the in-edge of `id` at `port` (falls back to the node).
fn edge_span(ctx: &AnalysisContext, id: NodeId, port: usize) -> Span {
    ctx.plan
        .in_edges(id)
        .iter()
        .find(|e| e.port == port)
        .map(|e| Span::Edge {
            from: e.from,
            to: e.to,
            port: e.port,
        })
        .unwrap_or(Span::Node {
            id,
            name: ctx.plan.nodes[id].name.clone(),
        })
}

/// Human description of a flow, phrased as a property of the input.
fn describe(flow: &Flow) -> String {
    match flow {
        Flow::Single => "single-instance".into(),
        Flow::Keys(s) => {
            let fields: Vec<String> = s.iter().map(|f| f.to_string()).collect();
            format!("hash-partitioned on field(s) {}", fields.join(", "))
        }
        Flow::Replicated => "broadcast-replicated".into(),
        Flow::Unknown => "arbitrarily partitioned".into(),
    }
}
