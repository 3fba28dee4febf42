//! Word Count (WC) — the canonical streaming benchmark (Twitter Heron
//! paper): sentences are split into words and counted per word over a
//! tumbling window. Standard operators only; the paper uses WC as the
//! predictably-scaling baseline (O3).

use crate::common::{
    named_schema, random_sentence, AppConfig, Application, BuiltApp, ClosureStream,
};
use crate::registry::AppInfo;
use pdsp_engine::agg::AggFunc;
use pdsp_engine::value::{FieldType, Row, Value};
use pdsp_engine::window::WindowSpec;
use pdsp_engine::PlanBuilder;

/// The Word Count application.
pub struct WordCount;

impl Application for WordCount {
    fn info(&self) -> AppInfo {
        AppInfo {
            acronym: "WC",
            name: "Word Count",
            area: "Text processing",
            description:
                "Counts word frequency over sentence streams (flatMap + keyed window count)",
            uses_udo: false,
            sources: 1,
        }
    }

    fn build(&self, config: &AppConfig) -> BuiltApp {
        let schema = named_schema(&[("sentence", FieldType::Str)]);
        let source = ClosureStream::new(schema.clone(), config, |_, rng| {
            Row::from([Value::str(random_sentence(rng, 8))])
        });
        let plan = PlanBuilder::new()
            .source("sentences", schema, 1)
            .flat_map_split("split", 0)
            .window_agg_keyed(
                "count",
                WindowSpec::tumbling_count(100),
                AggFunc::Count,
                0,
                0,
            )
            .sink("sink")
            .build()
            .expect("word count plan is valid");
        BuiltApp {
            plan,
            sources: vec![source],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsp_engine::physical::PhysicalPlan;
    use pdsp_engine::runtime::{RunConfig, ThreadedRuntime};

    #[test]
    fn word_count_runs_end_to_end() {
        let cfg = AppConfig {
            event_rate: 100_000.0,
            total_tuples: 2_000,
            seed: 3,
        };
        let built = WordCount.build(&cfg);
        let phys = PhysicalPlan::expand(&built.plan).unwrap();
        let rt = ThreadedRuntime::new(RunConfig::default());
        let res = rt.run(&phys, &built.sources).unwrap();
        // 2000 sentences x 8 words = 16000 words; counts fire every 100 per
        // word, so some output must appear.
        assert!(res.tuples_out > 0);
        // Every output is (word, window_end, count=100).
        for t in &res.sink_tuples {
            assert_eq!(t.values.len(), 3);
            assert_eq!(t.values[2], Value::Double(100.0));
        }
    }

    #[test]
    fn scales_to_parallel_instances() {
        let cfg = AppConfig {
            total_tuples: 1_000,
            ..AppConfig::default()
        };
        let built = WordCount.build(&cfg);
        let plan = built.plan.with_uniform_parallelism(4);
        let phys = PhysicalPlan::expand(&plan).unwrap();
        let rt = ThreadedRuntime::new(RunConfig::default());
        let res = rt.run(&phys, &built.sources).unwrap();
        assert!(res.tuples_in > 0);
    }
}
