//! Schema inference and type-flow findings (PB061-PB065, PB067-PB069):
//! the whole-plan abstract interpretation over the schema domain, run by
//! the engine's [`pdsp_engine::schema_flow`] module and mapped onto stable
//! diagnostics here.
//!
//! These are the correctness findings a benchmarking system needs *before*
//! it measures anything: a mistyped field or silently coerced aggregate
//! produces plausible-looking numbers that invalidate every downstream
//! cost-model datapoint. The pass itself is a thin adapter — the transfer
//! functions and checks live engine-side so the deploy gate, the
//! distributed wire validator (`--check-schemas`), and the future columnar
//! plane all consume one source of truth.
//!
//! Findings downstream of a [`pdsp_engine::udo::SchemaPolicy::Opaque`] UDO
//! arrive pre-downgraded: their premise is an unverified schema claim, so
//! they render as hints regardless of the code's default severity.

use crate::context::AnalysisContext;
use crate::diag::{Code, Diagnostic, Severity, Span};
use crate::Pass;
use pdsp_engine::schema_flow::{IssueAt, IssueKind, SchemaIssue};

/// Schema/type-flow pass.
pub struct TypeFlowPass;

impl Pass for TypeFlowPass {
    fn name(&self) -> &'static str {
        "typeflow"
    }

    fn run(&self, ctx: &AnalysisContext, out: &mut Vec<Diagnostic>) {
        for issue in &ctx.schema_flow.issues {
            out.push(to_diagnostic(ctx, issue));
        }
    }
}

/// Map one engine-side schema issue onto its stable PB06x diagnostic.
fn to_diagnostic(ctx: &AnalysisContext, issue: &SchemaIssue) -> Diagnostic {
    let code = match issue.kind {
        IssueKind::UnknownField => Code::UnknownField,
        IssueKind::TypeMismatch => Code::InputTypeMismatch,
        IssueKind::NonNumericAggregate => Code::NonNumericAggregate,
        IssueKind::DoubleKey => Code::DoubleKey,
        IssueKind::EventTimeUntyped => Code::EventTimeUntyped,
        IssueKind::UnionSchemaMismatch => Code::UnionSchemaMismatch,
        IssueKind::OpaqueUdo => Code::OpaqueUdoSchema,
        IssueKind::ConstantPredicate => Code::ConstantPredicate,
    };
    let span = match issue.at {
        IssueAt::Node(id) => Span::Node {
            id,
            name: ctx.plan.nodes[id].name.clone(),
        },
        IssueAt::Edge(ei) => {
            let e = &ctx.plan.edges[ei];
            Span::Edge {
                from: e.from,
                to: e.to,
                port: e.port,
            }
        }
    };
    let mut d =
        Diagnostic::new(code, span, issue.message.clone()).with_suggestion(code.remediation());
    if issue.downgraded {
        d = d.with_severity(Severity::Hint);
        d.message
            .push_str(" (downgraded: downstream of an opaque UDO schema)");
    }
    d
}

#[cfg(test)]
mod tests {
    use crate::analyze;
    use pdsp_engine::agg::AggFunc;
    use pdsp_engine::expr::{CmpOp, Predicate};
    use pdsp_engine::value::{Field, FieldType, Schema, Value};
    use pdsp_engine::window::WindowSpec;
    use pdsp_engine::PlanBuilder;

    #[test]
    fn unknown_field_is_pb061_error() {
        let plan = PlanBuilder::new()
            .source("s", Schema::new(vec![Field::new("id", FieldType::Int)]), 1)
            .filter("f", Predicate::cmp(9, CmpOp::Gt, Value::Int(0)), 0.5)
            .sink("k")
            .build_unchecked();
        let report = analyze("t", &plan).unwrap();
        assert!(report.codes().iter().any(|c| c.as_str() == "PB061"));
        assert_eq!(report.errors(), 1);
    }

    #[test]
    fn clean_keyed_agg_has_no_pb06x() {
        let plan = PlanBuilder::new()
            .source(
                "s",
                Schema::new(vec![
                    Field::new("id", FieldType::Int),
                    Field::new("v", FieldType::Double),
                ]),
                1,
            )
            .window_agg_keyed("agg", WindowSpec::tumbling_count(8), AggFunc::Sum, 1, 0)
            .sink("k")
            .build()
            .unwrap();
        let report = analyze("t", &plan).unwrap();
        assert!(
            !report
                .codes()
                .iter()
                .any(|c| c.as_str().starts_with("PB06")),
            "{report:?}"
        );
    }
}
