//! Sentiment Analysis (SA) — social-media analytics (after the real-time
//! sentiment reference implementation): tweets are tokenized and scored
//! against a polarity lexicon (a data-intensive UDO), then per-topic
//! sentiment is averaged over a time window. SA is one of the paper's
//! "data-intensive UDO" applications that benefit strongly from
//! parallelism (O1).

use crate::common::{named_schema, AppConfig, Application, BuiltApp, ClosureStream, WORDS};
use crate::registry::AppInfo;
use pdsp_engine::agg::AggFunc;
use pdsp_engine::udo::{CostProfile, Udo, UdoFactory, UdoProperties};
use pdsp_engine::value::{FieldType, Row, Schema, Tuple, Value};
use pdsp_engine::window::WindowSpec;
use pdsp_engine::PlanBuilder;
use std::collections::HashMap;
use std::sync::Arc;

/// Polarity lexicon: word -> score in [-1, 1].
fn lexicon() -> HashMap<&'static str, f64> {
    [
        ("great", 0.8),
        ("good", 0.6),
        ("awesome", 1.0),
        ("excellent", 0.9),
        ("amazing", 0.9),
        ("love", 0.8),
        ("happy", 0.7),
        ("nice", 0.5),
        ("win", 0.6),
        ("fast", 0.4),
        ("bad", -0.6),
        ("terrible", -0.9),
        ("poor", -0.5),
        ("awful", -0.9),
        ("hate", -0.8),
        ("sad", -0.6),
        ("boring", -0.4),
        ("fail", -0.7),
        ("worst", -1.0),
        ("slow", -0.4),
    ]
    .into_iter()
    .collect()
}

/// Tokenizes tweet text and emits (topic, sentiment) scores.
pub struct SentimentScorer;

struct ScorerState {
    lexicon: HashMap<&'static str, f64>,
}

impl Udo for ScorerState {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        // Input: [topic, text].
        let (Some(topic), Some(text)) = (
            tuple.values.first().and_then(Value::as_i64),
            tuple.values.get(1).and_then(Value::as_str),
        ) else {
            return;
        };
        let mut score = 0.0;
        let mut hits = 0usize;
        for token in text.split_whitespace() {
            let token = token.trim_matches(|c: char| !c.is_alphanumeric());
            if let Some(&s) = self.lexicon.get(token.to_ascii_lowercase().as_str()) {
                score += s;
                hits += 1;
            }
        }
        if hits > 0 {
            out.push(Tuple {
                values: Row::from([Value::Int(topic), Value::Double(score / hits as f64)]),
                event_time: tuple.event_time,
                emit_ns: tuple.emit_ns,
            });
        }
    }
}

impl UdoFactory for SentimentScorer {
    fn name(&self) -> &str {
        "sentiment-scorer"
    }

    fn create(&self) -> Box<dyn Udo> {
        Box::new(ScorerState { lexicon: lexicon() })
    }

    fn cost_profile(&self) -> CostProfile {
        // Tokenization + lexicon lookups over full tweet text: one of the
        // suite's data-intensive UDOs.
        CostProfile::stateful(250_000.0, 0.8, 1.2)
    }

    fn output_schema(&self, _input: &Schema) -> Schema {
        named_schema(&[("topic", FieldType::Int), ("sentiment", FieldType::Double)])
    }

    fn properties(&self) -> UdoProperties {
        // The lexicon is immutable reference data, not mutable cross-tuple
        // state; the non-zero state factor only models its memory
        // footprint. Safe under any partitioning.
        UdoProperties {
            stateful: false,
            ..UdoProperties::default()
        }
    }
}

/// The Sentiment Analysis application.
pub struct SentimentAnalysis;

impl Application for SentimentAnalysis {
    fn info(&self) -> AppInfo {
        AppInfo {
            acronym: "SA",
            name: "Sentiment Analysis",
            area: "Social media",
            description: "Lexicon-based tweet sentiment averaged per topic over time windows",
            uses_udo: true,
            sources: 1,
        }
    }

    fn build(&self, config: &AppConfig) -> BuiltApp {
        use rand::Rng;
        let schema = named_schema(&[("topic", FieldType::Int), ("text", FieldType::Str)]);
        let source = ClosureStream::new(schema.clone(), config, |_, rng| {
            let topic = rng.gen_range(0..20i64);
            let len = rng.gen_range(5..15usize);
            let mut text = String::new();
            for i in 0..len {
                if i > 0 {
                    text.push(' ');
                }
                text.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
            }
            Row::from([Value::Int(topic), Value::str(text)])
        });
        let plan = PlanBuilder::new()
            .source("tweets", schema, 1)
            .chain(
                "score",
                pdsp_engine::operator::udo_op(Arc::new(SentimentScorer)),
                None,
            )
            .window_agg_keyed(
                "topic-sentiment",
                WindowSpec::tumbling_time(1_000),
                AggFunc::Avg,
                1,
                0,
            )
            .sink("sink")
            .build()
            .expect("sentiment plan is valid");
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

    fn score_text(text: &str) -> Option<f64> {
        let mut s = ScorerState { lexicon: lexicon() };
        let mut out = Vec::new();
        s.on_tuple(
            0,
            Tuple::new(vec![Value::Int(1), Value::str(text)]),
            &mut out,
        );
        out.first().map(|t| t.values[1].as_f64().unwrap())
    }

    #[test]
    fn positive_text_scores_positive() {
        assert!(score_text("this is great awesome love it").unwrap() > 0.5);
    }

    #[test]
    fn negative_text_scores_negative() {
        assert!(score_text("terrible awful worst hate").unwrap() < -0.5);
    }

    #[test]
    fn neutral_text_emits_nothing() {
        assert_eq!(score_text("stream data window operator"), None);
    }

    #[test]
    fn punctuation_is_stripped() {
        assert!(score_text("great!").unwrap() > 0.5);
    }

    #[test]
    fn runs_end_to_end_with_bounded_scores() {
        let cfg = AppConfig {
            event_rate: 5_000.0,
            total_tuples: 5_000,
            seed: 11,
        };
        let built = SentimentAnalysis.build(&cfg);
        let phys = PhysicalPlan::expand(&built.plan).unwrap();
        let res = ThreadedRuntime::new(RunConfig::default())
            .run(&phys, &built.sources)
            .unwrap();
        assert!(res.tuples_out > 0);
        for t in &res.sink_tuples {
            let avg = t.values[2].as_f64().unwrap();
            assert!((-1.0..=1.0).contains(&avg), "sentiment in [-1,1]: {avg}");
        }
    }
}
