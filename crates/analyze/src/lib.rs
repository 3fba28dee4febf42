//! `pdsp-analyze`: a multi-pass static analyzer for PDSP-Bench query
//! plans.
//!
//! The analyzer inspects a [`LogicalPlan`] (or the logical plan inside a
//! [`PhysicalPlan`]) and reports [`Diagnostic`]s — stable `PB0xx` codes
//! with severities, spans, messages, and suggestions — without executing
//! anything. Seven passes run over a shared [`AnalysisContext`]:
//!
//! | pass | codes | question |
//! |------|-------|----------|
//! | key-flow | PB001-PB007 | do keyed/global operators get the stream distribution they need? |
//! | exactly-once | PB011-PB014 | does recovery replay change observable output? |
//! | state-bounds | PB021-PB023 | does memory stay flat over an unbounded stream? |
//! | backpressure | PB031-PB033 | can the channel topology stall or amplify load? |
//! | cost-smells | PB041-PB043 | is throughput left on the table? |
//! | hazards | PB051, PB053 | does the plan survive hot keys, bursts, and late storms? |
//! | typeflow | PB061-PB065, PB067-PB069 | does every field on every edge have the type its consumers expect? |
//!
//! Unlike [`LogicalPlan::validate`], the analyzer accepts semantically
//! broken plans on purpose — it exists to *explain* what is wrong with
//! them. It only fails on structural breakage (cycles) that makes
//! analysis itself impossible; even schema violations flow through the
//! tolerant inference in [`pdsp_engine::schema_flow`] and come out as
//! PB06x diagnostics.
//!
//! ```
//! use pdsp_analyze::analyze;
//! use pdsp_engine::agg::AggFunc;
//! use pdsp_engine::value::{FieldType, Schema};
//! use pdsp_engine::window::WindowSpec;
//! use pdsp_engine::PlanBuilder;
//!
//! let plan = PlanBuilder::new()
//!     .source("src", Schema::of(&[FieldType::Int, FieldType::Double]), 1)
//!     .window_agg_keyed("sum", WindowSpec::tumbling_count(16), AggFunc::Sum, 1, 0)
//!     .sink("out")
//!     .build()
//!     .unwrap();
//! let report = analyze("example", &plan).unwrap();
//! assert_eq!(report.errors(), 0);
//! ```

#![warn(missing_docs)]

pub mod backpressure;
pub mod context;
pub mod cost_smells;
pub mod diag;
pub mod exactly_once;
pub mod hazards;
pub mod keyflow;
pub mod sarif;
pub mod state_bounds;
pub mod typeflow;

pub use context::{AnalysisContext, Flow};
pub use diag::{Code, Diagnostic, Report, Severity, Span};

use pdsp_engine::error::Result;
use pdsp_engine::physical::PhysicalPlan;
use pdsp_engine::plan::LogicalPlan;

/// One lint pass over the shared analysis context.
pub trait Pass {
    /// Stable pass name (used in `--passes` style filtering and docs).
    fn name(&self) -> &'static str;
    /// Append this pass's findings to `out`.
    fn run(&self, ctx: &AnalysisContext, out: &mut Vec<Diagnostic>);
}

/// The analyzer: an ordered collection of passes.
pub struct Analyzer {
    passes: Vec<Box<dyn Pass>>,
}

impl Default for Analyzer {
    fn default() -> Self {
        Self::new()
    }
}

impl Analyzer {
    /// The full pass pipeline, in PB-code order.
    pub fn new() -> Self {
        Analyzer {
            passes: vec![
                Box::new(keyflow::KeyFlowPass),
                Box::new(exactly_once::ExactlyOncePass),
                Box::new(state_bounds::StateBoundsPass),
                Box::new(backpressure::BackpressurePass),
                Box::new(cost_smells::CostSmellsPass),
                Box::new(hazards::HazardPass),
                Box::new(typeflow::TypeFlowPass),
            ],
        }
    }

    /// An analyzer running only the named passes (unknown names ignored).
    pub fn with_passes(names: &[&str]) -> Self {
        let all = Self::new();
        Analyzer {
            passes: all
                .passes
                .into_iter()
                .filter(|p| names.contains(&p.name()))
                .collect(),
        }
    }

    /// Names of the configured passes, in run order.
    pub fn pass_names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Analyze a logical plan. `label` names the plan in the report
    /// (application acronym, generated-query id, ...).
    pub fn analyze(&self, label: &str, plan: &LogicalPlan) -> Result<Report> {
        let ctx = AnalysisContext::build(plan)?;
        let mut diagnostics = Vec::new();
        for pass in &self.passes {
            pass.run(&ctx, &mut diagnostics);
        }
        Ok(Report::new(label, diagnostics))
    }

    /// Analyze the logical plan behind a physical plan.
    pub fn analyze_physical(&self, label: &str, plan: &PhysicalPlan) -> Result<Report> {
        self.analyze(label, &plan.logical)
    }
}

/// Analyze with the default full pipeline.
pub fn analyze(label: &str, plan: &LogicalPlan) -> Result<Report> {
    Analyzer::new().analyze(label, plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsp_engine::agg::AggFunc;
    use pdsp_engine::value::{FieldType, Schema};
    use pdsp_engine::window::WindowSpec;
    use pdsp_engine::PlanBuilder;

    fn clean_plan() -> LogicalPlan {
        PlanBuilder::new()
            .source("s", Schema::of(&[FieldType::Int, FieldType::Double]), 1)
            .window_agg_keyed("agg", WindowSpec::tumbling_count(8), AggFunc::Sum, 1, 0)
            .set_parallelism(1, 4)
            .sink("k")
            .build()
            .unwrap()
    }

    #[test]
    fn default_pipeline_has_seven_passes() {
        assert_eq!(
            Analyzer::new().pass_names(),
            vec![
                "key-flow",
                "exactly-once",
                "state-bounds",
                "backpressure",
                "cost-smells",
                "hazards",
                "typeflow"
            ]
        );
    }

    #[test]
    fn clean_plan_reports_no_errors() {
        let report = analyze("t", &clean_plan()).unwrap();
        assert_eq!(report.errors(), 0, "{}", report.render());
    }

    #[test]
    fn pass_filtering_by_name() {
        let a = Analyzer::with_passes(&["key-flow", "nonexistent"]);
        assert_eq!(a.pass_names(), vec!["key-flow"]);
    }

    #[test]
    fn physical_analysis_delegates_to_logical() {
        let plan = clean_plan();
        let phys = PhysicalPlan::expand(&plan).unwrap();
        let report = Analyzer::new().analyze_physical("t", &phys).unwrap();
        assert_eq!(report.errors(), 0);
    }
}
