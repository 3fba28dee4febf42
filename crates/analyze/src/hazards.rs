//! Overload and skew hazards (PB051, PB053): plans that run correctly at
//! calibration load but degrade badly under adversarial streams — the
//! hot-key, burst, and late-storm shapes the chaos suite generates.
//!
//! These are runtime-resilience findings, not correctness findings: a
//! keyed operator is *correct* under skew, it just concentrates an
//! arbitrary fraction of the load on one instance.

use crate::context::{AnalysisContext, Flow};
use crate::diag::{Code, Diagnostic, Span};
use crate::Pass;
use pdsp_engine::operator::OpKind;
use pdsp_engine::plan::NodeId;
use pdsp_engine::window::WindowPolicy;

/// Keyed operators below this parallelism are not flagged for skew: with
/// so few instances a hot key cannot concentrate much more load on one
/// instance than balanced keys already do.
const SKEW_PARALLELISM_LIMIT: usize = 4;

/// Overload/skew-hazard pass.
pub struct HazardPass;

impl Pass for HazardPass {
    fn name(&self) -> &'static str {
        "hazards"
    }

    fn run(&self, ctx: &AnalysisContext, out: &mut Vec<Diagnostic>) {
        for &id in &ctx.topo {
            let node = &ctx.plan.nodes[id];

            // PB051: a keyed stateful operator routes each key group to
            // exactly one instance — under a hot key (one key taking
            // >=50% of traffic) that instance takes >=50% of the load
            // regardless of parallelism.
            if node.parallelism >= SKEW_PARALLELISM_LIMIT {
                let keys = state_keys(ctx, id);
                let keyed_input = ctx.in_flows[id].iter().any(|(_, f)| {
                    matches!(f, Flow::Keys(_)) && keys.iter().any(|k| f.colocates(*k))
                });
                if keyed_input {
                    out.push(
                        Diagnostic::new(
                            Code::SkewVulnerableKeyedOp,
                            Span::Node {
                                id,
                                name: node.name.clone(),
                            },
                            format!(
                                "'{}' (parallelism {}) pins each key group to one instance; a \
                                 hot key concentrates its entire share of traffic there while \
                                 the other {} instances idle",
                                node.name,
                                node.parallelism,
                                node.parallelism - 1
                            ),
                        )
                        .with_suggestion(
                            "if the workload is skewed, cap the damage with the engine's \
                             overload config (load shedding)",
                        ),
                    );
                }
            }

            // PB053: an event-time window fed by several independent
            // sources sees their frontiers interleaved; once the merged
            // watermark advances past a slow source's tuples they are
            // dropped as late unless lateness tolerance is configured.
            if is_event_time_stateful(&node.kind) {
                let feeding_sources = ctx
                    .topo
                    .iter()
                    .filter(|&&s| {
                        ctx.plan.in_edges(s).is_empty() && (s == id || ctx.reach[s].contains(&id))
                    })
                    .count();
                if feeding_sources >= 2 {
                    out.push(
                        Diagnostic::new(
                            Code::LatenessHazard,
                            Span::Node {
                                id,
                                name: node.name.clone(),
                            },
                            format!(
                                "event-time operator '{}' merges {} independent sources; if \
                                 their event-time frontiers diverge, the slower stream's tuples \
                                 arrive behind the watermark and are dropped as late",
                                node.name, feeding_sources
                            ),
                        )
                        .with_suggestion(
                            "set overload.allowed_lateness_ms to admit bounded disorder (late \
                             re-fires are accounted in the `late` counter)",
                        ),
                    );
                }
            }
        }
    }
}

/// Field indices whose groups the operator's state is keyed on.
fn state_keys(ctx: &AnalysisContext, id: NodeId) -> Vec<usize> {
    match &ctx.plan.nodes[id].kind {
        OpKind::WindowAggregate {
            key_field: Some(k), ..
        }
        | OpKind::SessionWindow {
            key_field: Some(k), ..
        } => vec![*k],
        OpKind::Join {
            left_key,
            right_key,
            ..
        } => vec![*left_key, *right_key],
        OpKind::Udo { .. } => ctx
            .udo_properties(id)
            .and_then(|p| p.keyed_state_field)
            .into_iter()
            .collect(),
        _ => Vec::new(),
    }
}

/// Stateful operators keeping event-time-bounded state: their output
/// depends on which tuples beat the watermark.
fn is_event_time_stateful(kind: &OpKind) -> bool {
    match kind {
        OpKind::WindowAggregate { window, .. } | OpKind::Join { window, .. } => {
            window.policy == WindowPolicy::Time
        }
        OpKind::SessionWindow { .. } => true,
        _ => false,
    }
}
