//! Trending Topics (TT) — TwitterMonitor-style trend detection: hashtags
//! are extracted from tweets, counted per sliding window, and a stateful
//! top-k ranker emits the current trending set whenever it changes.

use crate::common::{
    named_schema, AppConfig, Application, BuiltApp, ClosureStream, HASHTAGS, WORDS,
};
use crate::registry::AppInfo;
use pdsp_engine::agg::AggFunc;
use pdsp_engine::udo::{CostProfile, Udo, UdoFactory, UdoProperties};
use pdsp_engine::value::{FieldType, Row, Schema, Tuple, Value};
use pdsp_engine::window::WindowSpec;
use pdsp_engine::PlanBuilder;
use std::collections::HashMap;
use std::sync::Arc;

/// Size of the maintained top-k set.
const K: usize = 3;

/// Cap on distinct tags the ranker tracks. Real tag vocabularies are
/// unbounded; anything evicted here has a count too small to re-enter the
/// top-k before the sliding window refreshes it anyway.
const MAX_TRACKED_TAGS: usize = 1_024;

/// Extracts hashtags from tweet text (one output per tag).
pub struct HashtagExtractor;

struct ExtractorState;

impl Udo for ExtractorState {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        let Some(text) = tuple.values.first().and_then(Value::as_str) else {
            return;
        };
        for token in text.split_whitespace() {
            if token.starts_with('#') && token.len() > 1 {
                out.push(Tuple {
                    values: Row::from([Value::str(token)]),
                    event_time: tuple.event_time,
                    emit_ns: tuple.emit_ns,
                });
            }
        }
    }
}

impl UdoFactory for HashtagExtractor {
    fn name(&self) -> &str {
        "hashtag-extractor"
    }
    fn create(&self) -> Box<dyn Udo> {
        Box::new(ExtractorState)
    }
    fn cost_profile(&self) -> CostProfile {
        CostProfile::stateless(8_000.0, 1.4)
    }
    fn output_schema(&self, _input: &Schema) -> Schema {
        named_schema(&[("tag", FieldType::Str)])
    }
}

/// Maintains counts per tag and emits (tag, rank, count) whenever the
/// top-k membership changes.
pub struct TopKRanker;

struct RankerState {
    counts: HashMap<String, f64>,
    last_topk: Vec<String>,
}

impl RankerState {
    fn topk(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self.counts.iter().map(|(k, &c)| (k.clone(), c)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(K);
        v
    }

    /// Drop the lowest-count tag to keep the map at [`MAX_TRACKED_TAGS`].
    fn evict_coldest(&mut self) {
        if let Some(coldest) = self
            .counts
            .iter()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0)))
            .map(|(k, _)| k.clone())
        {
            self.counts.remove(&coldest);
        }
    }
}

impl Udo for RankerState {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        // Input: [tag, window_end, count].
        let (Some(tag), Some(count)) = (
            tuple.values.first().and_then(Value::as_str),
            tuple.values.get(2).and_then(Value::as_f64),
        ) else {
            return;
        };
        self.counts.insert(tag.to_string(), count);
        if self.counts.len() > MAX_TRACKED_TAGS {
            self.evict_coldest();
        }
        let topk = self.topk();
        let names: Vec<String> = topk.iter().map(|(t, _)| t.clone()).collect();
        if names != self.last_topk {
            self.last_topk = names;
            for (rank, (tag, count)) in topk.into_iter().enumerate() {
                out.push(Tuple {
                    values: Row::from([
                        Value::str(&tag),
                        Value::Int(rank as i64 + 1),
                        Value::Double(count),
                    ]),
                    event_time: tuple.event_time,
                    emit_ns: tuple.emit_ns,
                });
            }
        }
    }
}

impl UdoFactory for TopKRanker {
    fn name(&self) -> &str {
        "topk-ranker"
    }
    fn create(&self) -> Box<dyn Udo> {
        Box::new(RankerState {
            counts: HashMap::new(),
            last_topk: Vec::new(),
        })
    }
    fn cost_profile(&self) -> CostProfile {
        CostProfile::stateful(15_000.0, 0.3, 2.5)
    }
    fn output_schema(&self, _input: &Schema) -> Schema {
        named_schema(&[
            ("tag", FieldType::Str),
            ("rank", FieldType::Int),
            ("count", FieldType::Double),
        ])
    }
    fn properties(&self) -> UdoProperties {
        // A global ranking needs every tag's count in one place; splitting
        // the ranker across instances would rank per-partition tag subsets.
        UdoProperties {
            stateful: true,
            requires_global_view: true,
            ..UdoProperties::default()
        }
    }
}

/// The Trending Topics application.
pub struct TrendingTopics;

impl Application for TrendingTopics {
    fn info(&self) -> AppInfo {
        AppInfo {
            acronym: "TT",
            name: "Trending Topics",
            area: "Social media",
            description: "Hashtag extraction, windowed counting, and stateful top-k ranking",
            uses_udo: true,
            sources: 1,
        }
    }

    fn build(&self, config: &AppConfig) -> BuiltApp {
        use rand::Rng;
        let schema = named_schema(&[("tweet", FieldType::Str)]);
        let source = ClosureStream::new(schema.clone(), config, |_, rng| {
            let mut text = String::new();
            for i in 0..8 {
                if i > 0 {
                    text.push(' ');
                }
                text.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
            }
            // Zipf-ish hashtag popularity: low indices far more likely.
            let tags = rng.gen_range(1..=2usize);
            for _ in 0..tags {
                let r: f64 = rng.gen_range(0.0f64..1.0);
                let idx = ((r * r) * HASHTAGS.len() as f64) as usize;
                text.push(' ');
                text.push_str(HASHTAGS[idx.min(HASHTAGS.len() - 1)]);
            }
            Row::from([Value::str(text)])
        });
        let plan = PlanBuilder::new()
            .source("tweets", schema, 1)
            .udo("extract", Arc::new(HashtagExtractor))
            .window_agg_keyed(
                "tag-count",
                WindowSpec::sliding_count(200, 100),
                AggFunc::Count,
                0,
                0,
            )
            .chain(
                "rank",
                pdsp_engine::operator::udo_op(Arc::new(TopKRanker)),
                Some(pdsp_engine::Partitioning::Rebalance),
            )
            .sink("sink")
            .build()
            .expect("trending topics plan is valid");
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
    fn extractor_finds_hashtags_only() {
        let mut e = ExtractorState;
        let mut out = Vec::new();
        e.on_tuple(
            0,
            Tuple::new(vec![Value::str("hello #world this is #rust not#this")]),
            &mut out,
        );
        let tags: Vec<&str> = out.iter().map(|t| t.values[0].as_str().unwrap()).collect();
        assert_eq!(tags, vec!["#world", "#rust"]);
    }

    #[test]
    fn ranker_emits_on_membership_change_only() {
        let mut r = RankerState {
            counts: HashMap::new(),
            last_topk: Vec::new(),
        };
        let mut out = Vec::new();
        let feed = |r: &mut RankerState, out: &mut Vec<Tuple>, tag: &str, c: f64| {
            r.on_tuple(
                0,
                Tuple::new(vec![Value::str(tag), Value::Timestamp(0), Value::Double(c)]),
                out,
            );
        };
        feed(&mut r, &mut out, "#a", 10.0);
        assert_eq!(out.len(), 1, "first tag changes the (singleton) top-k");
        out.clear();
        feed(&mut r, &mut out, "#a", 11.0);
        assert!(out.is_empty(), "same membership, same order: no emission");
        feed(&mut r, &mut out, "#b", 50.0);
        assert!(!out.is_empty(), "new leader changes the ranking");
        assert_eq!(out[0].values[0], Value::str("#b"));
    }

    #[test]
    fn ranker_caps_at_k() {
        let mut r = RankerState {
            counts: HashMap::new(),
            last_topk: Vec::new(),
        };
        let mut out = Vec::new();
        for (i, tag) in ["#a", "#b", "#c", "#d", "#e"].iter().enumerate() {
            out.clear();
            r.on_tuple(
                0,
                Tuple::new(vec![
                    Value::str(*tag),
                    Value::Timestamp(0),
                    Value::Double(100.0 - i as f64),
                ]),
                &mut out,
            );
        }
        assert!(out.len() <= K);
    }

    #[test]
    fn ranker_state_is_bounded() {
        let mut r = RankerState {
            counts: HashMap::new(),
            last_topk: Vec::new(),
        };
        let mut out = Vec::new();
        for i in 0..(MAX_TRACKED_TAGS + 500) {
            out.clear();
            r.on_tuple(
                0,
                Tuple::new(vec![
                    Value::str(format!("#t{i}")),
                    Value::Timestamp(0),
                    Value::Double(i as f64),
                ]),
                &mut out,
            );
        }
        assert!(r.counts.len() <= MAX_TRACKED_TAGS);
        // The hottest tags survive eviction.
        assert!(r
            .counts
            .contains_key(&format!("#t{}", MAX_TRACKED_TAGS + 499)));
    }

    #[test]
    fn runs_end_to_end() {
        let cfg = AppConfig {
            total_tuples: 6_000,
            ..AppConfig::default()
        };
        let built = TrendingTopics.build(&cfg);
        let phys = PhysicalPlan::expand(&built.plan).unwrap();
        let res = ThreadedRuntime::new(RunConfig::default())
            .run(&phys, &built.sources)
            .unwrap();
        assert!(res.tuples_out > 0, "rankings must be emitted");
        for t in &res.sink_tuples {
            let rank = t.values[1].as_i64().unwrap();
            assert!((1..=K as i64).contains(&rank));
        }
    }
}
