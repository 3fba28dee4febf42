//! Click Analytics (CA) — clickstream analysis: a stateful UDO separates
//! repeat visitors from new ones per URL, and per-URL visit counts are
//! aggregated over sliding windows.

use crate::common::{named_schema, AppConfig, Application, BuiltApp, ClosureStream};
use crate::registry::AppInfo;
use pdsp_engine::agg::AggFunc;
use pdsp_engine::udo::{CostProfile, Udo, UdoFactory, UdoProperties};
use pdsp_engine::value::{FieldType, Row, Schema, Tuple, Value};
use pdsp_engine::window::WindowSpec;
use pdsp_engine::PlanBuilder;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Cap on remembered (user, url) pairs per instance. Visits older than
/// the cap's insertion horizon count as new again — the standard
/// approximate-dedup trade-off for an unbounded clickstream.
const MAX_REMEMBERED_VISITS: usize = 100_000;

/// Tags each click as new (0) or repeat (1) visit per (user, url).
pub struct RepeatVisitDetector;

struct VisitState {
    seen: HashSet<(i64, i64)>,
    /// Insertion order of `seen`, for eviction at the cap.
    order: VecDeque<(i64, i64)>,
}

impl VisitState {
    fn new() -> Self {
        VisitState {
            seen: HashSet::new(),
            order: VecDeque::new(),
        }
    }
}

impl Udo for VisitState {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        let (Some(user), Some(url)) = (
            tuple.values.first().and_then(Value::as_i64),
            tuple.values.get(1).and_then(Value::as_i64),
        ) else {
            return;
        };
        let repeat = !self.seen.insert((user, url));
        if !repeat {
            self.order.push_back((user, url));
            if self.order.len() > MAX_REMEMBERED_VISITS {
                if let Some(oldest) = self.order.pop_front() {
                    self.seen.remove(&oldest);
                }
            }
        }
        out.push(Tuple {
            values: Row::from([Value::Int(url), Value::Int(user), Value::Int(repeat as i64)]),
            event_time: tuple.event_time,
            emit_ns: tuple.emit_ns,
        });
    }
}

impl UdoFactory for RepeatVisitDetector {
    fn name(&self) -> &str {
        "repeat-visit-detector"
    }
    fn create(&self) -> Box<dyn Udo> {
        Box::new(VisitState::new())
    }
    fn cost_profile(&self) -> CostProfile {
        // Keeps a capped (user, url) set — memory-heavy state per instance.
        CostProfile::stateful(90_000.0, 1.0, 1.6)
    }
    fn output_schema(&self, _input: &Schema) -> Schema {
        named_schema(&[
            ("url", FieldType::Int),
            ("user", FieldType::Int),
            ("repeat", FieldType::Int),
        ])
    }
    fn properties(&self) -> UdoProperties {
        // Visit state is per-user (input field 0); the plan hash-partitions
        // on the user so each user's history lives on one instance.
        UdoProperties {
            stateful: true,
            keyed_state_field: Some(0),
            ..UdoProperties::default()
        }
    }
}

/// The Click Analytics application.
pub struct ClickAnalytics;

impl Application for ClickAnalytics {
    fn info(&self) -> AppInfo {
        AppInfo {
            acronym: "CA",
            name: "Click Analytics",
            area: "Web analytics",
            description: "Repeat-visit detection and per-URL visit counts over sliding windows",
            uses_udo: true,
            sources: 1,
        }
    }

    fn build(&self, config: &AppConfig) -> BuiltApp {
        use rand::Rng;
        // [user, url]
        let schema = named_schema(&[("user", FieldType::Int), ("url", FieldType::Int)]);
        let source = ClosureStream::new(schema.clone(), config, |_, rng| {
            // Popular pages get most clicks.
            let r: f64 = rng.gen_range(0.0f64..1.0);
            let url = ((r * r) * 500.0) as i64;
            Row::from([Value::Int(rng.gen_range(0..5_000i64)), Value::Int(url)])
        });
        let plan = PlanBuilder::new()
            .source("clicks", schema, 1)
            .chain(
                "visits",
                pdsp_engine::operator::udo_op(Arc::new(RepeatVisitDetector)),
                Some(pdsp_engine::Partitioning::Hash(vec![0])),
            )
            .window_agg_keyed(
                "url-visits",
                WindowSpec::sliding_count(50, 25),
                AggFunc::Count,
                2,
                0,
            )
            .sink("sink")
            .build()
            .expect("click analytics plan is valid");
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
    fn first_visit_is_new_second_is_repeat() {
        let mut s = VisitState::new();
        let mut out = Vec::new();
        let click = Tuple::new(vec![Value::Int(1), Value::Int(42)]);
        s.on_tuple(0, click.clone(), &mut out);
        s.on_tuple(0, click, &mut out);
        assert_eq!(out[0].values[2], Value::Int(0));
        assert_eq!(out[1].values[2], Value::Int(1));
    }

    #[test]
    fn different_urls_are_separate_visits() {
        let mut s = VisitState::new();
        let mut out = Vec::new();
        s.on_tuple(0, Tuple::new(vec![Value::Int(1), Value::Int(1)]), &mut out);
        s.on_tuple(0, Tuple::new(vec![Value::Int(1), Value::Int(2)]), &mut out);
        assert_eq!(out[1].values[2], Value::Int(0), "new url = new visit");
    }

    #[test]
    fn visit_memory_is_bounded() {
        let mut s = VisitState::new();
        let mut out = Vec::new();
        for i in 0..(MAX_REMEMBERED_VISITS as i64 + 1_000) {
            out.clear();
            s.on_tuple(0, Tuple::new(vec![Value::Int(i), Value::Int(0)]), &mut out);
        }
        assert!(s.seen.len() <= MAX_REMEMBERED_VISITS);
        assert_eq!(s.seen.len(), s.order.len());
        // A fresh pair evicted long ago counts as new again; a recent pair
        // is still remembered.
        out.clear();
        s.on_tuple(0, Tuple::new(vec![Value::Int(0), Value::Int(0)]), &mut out);
        assert_eq!(out[0].values[2], Value::Int(0), "oldest pair was evicted");
        out.clear();
        let recent = MAX_REMEMBERED_VISITS as i64 + 999;
        s.on_tuple(
            0,
            Tuple::new(vec![Value::Int(recent), Value::Int(0)]),
            &mut out,
        );
        assert_eq!(out[0].values[2], Value::Int(1), "recent pair is a repeat");
    }

    #[test]
    fn runs_end_to_end() {
        let cfg = AppConfig {
            total_tuples: 5_000,
            ..AppConfig::default()
        };
        let built = ClickAnalytics.build(&cfg);
        let phys = PhysicalPlan::expand(&built.plan).unwrap();
        let res = ThreadedRuntime::new(RunConfig::default())
            .run(&phys, &built.sources)
            .unwrap();
        assert_eq!(res.tuples_in, 5_000);
        assert!(res.tuples_out > 0);
    }
}
