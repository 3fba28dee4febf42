//! Ad Analytics (AD) — the paper's running example (Figure 2 right, after
//! Yahoo S4): an impression stream and a click stream are filtered, joined
//! on ad id within a window, and a sliding-window UDO maintains per-ad
//! click-through rates. The combination of join + custom windowed
//! aggregation is why AD resists parallelism in the paper (O3/O5: "custom
//! aggregation and joining logic on a sliding window result in non-linear
//! scaling").

use crate::common::{named_schema, AppConfig, Application, BuiltApp, ClosureStream};
use crate::registry::AppInfo;
use pdsp_engine::expr::{CmpOp, Predicate};
use pdsp_engine::operator::OpKind;
use pdsp_engine::udo::{CostProfile, Udo, UdoFactory, UdoProperties};
use pdsp_engine::value::{FieldType, KeyHashBuilder, Row, Schema, Tuple, Value};
use pdsp_engine::window::WindowSpec;
use pdsp_engine::{Partitioning, PlanBuilder};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Sliding CTR window extent (ms of event time).
const CTR_WINDOW_MS: i64 = 2_000;
/// Emit cadence: every N joined events per ad.
const CTR_EMIT_EVERY: u64 = 16;

/// Sliding-window click-through-rate aggregator over joined
/// impression-click records.
pub struct CtrAggregator;

/// One ad's sliding CTR window.
#[derive(Default)]
struct AdWindow {
    /// Joined events in the window, (event time, clicked), oldest first.
    history: VecDeque<(i64, bool)>,
    /// Clicked events in `history`: added on push, subtracted on eviction,
    /// so a report costs O(1) rather than a recount of the window.
    clicks: usize,
    /// Joined events seen for this ad.
    joined: u64,
}

struct CtrState {
    ads: HashMap<i64, AdWindow, KeyHashBuilder>,
}

impl Udo for CtrState {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        // Joined input: [ad, campaign, cost | ad, user, clicked].
        let (Some(ad), Some(clicked)) = (
            tuple.values.first().and_then(Value::as_i64),
            tuple.values.get(5).and_then(Value::as_i64),
        ) else {
            return;
        };
        let w = self.ads.entry(ad).or_default();
        w.history.push_back((tuple.event_time, clicked != 0));
        w.clicks += usize::from(clicked != 0);
        w.joined += 1;
        // Evict events outside the sliding extent.
        let horizon = tuple.event_time - CTR_WINDOW_MS;
        while let Some(&(t, c)) = w.history.front() {
            if t >= horizon {
                break;
            }
            w.history.pop_front();
            w.clicks -= usize::from(c);
        }
        if w.joined.is_multiple_of(CTR_EMIT_EVERY) && !w.history.is_empty() {
            let ctr = w.clicks as f64 / w.history.len() as f64;
            out.push(Tuple {
                values: Row::from([Value::Int(ad), Value::Double(ctr)]),
                event_time: tuple.event_time,
                emit_ns: tuple.emit_ns,
            });
        }
    }
}

impl UdoFactory for CtrAggregator {
    fn name(&self) -> &str {
        "ctr-aggregator"
    }
    fn create(&self) -> Box<dyn Udo> {
        Box::new(CtrState {
            ads: HashMap::default(),
        })
    }
    fn cost_profile(&self) -> CostProfile {
        // Custom sliding-window logic with per-ad state and coordination-
        // heavy semantics: the suite's highest state factor.
        CostProfile::stateful(120_000.0, 1.0 / CTR_EMIT_EVERY as f64, 3.0)
    }
    fn output_schema(&self, _input: &Schema) -> Schema {
        named_schema(&[("ad", FieldType::Int), ("ctr", FieldType::Double)])
    }
    fn properties(&self) -> UdoProperties {
        // A time-evicted click history per ad id (input field 0); the plan
        // hash-partitions the joined stream on it.
        UdoProperties {
            stateful: true,
            keyed_state_field: Some(0),
            ..UdoProperties::default()
        }
    }
}

/// The Ad Analytics application.
pub struct AdAnalytics;

impl Application for AdAnalytics {
    fn info(&self) -> AppInfo {
        AppInfo {
            acronym: "AD",
            name: "Ad Analytics",
            area: "Advertising",
            description: "Joins impressions with clicks per ad; sliding-window CTR via custom UDO",
            uses_udo: true,
            sources: 2,
        }
    }

    fn build(&self, config: &AppConfig) -> BuiltApp {
        use rand::Rng;
        // Impressions: [ad, campaign, cost]
        let imp_schema = named_schema(&[
            ("ad", FieldType::Int),
            ("campaign", FieldType::Int),
            ("cost", FieldType::Double),
        ]);
        let impressions = ClosureStream::new(imp_schema.clone(), config, |_, rng| {
            let ad = rng.gen_range(0..200i64);
            Row::from([
                Value::Int(ad),
                Value::Int(ad / 10),
                Value::Double(rng.gen_range(0.01..2.0)),
            ])
        });
        // Clicks: [ad, user, clicked]
        let click_schema = named_schema(&[
            ("ad", FieldType::Int),
            ("user", FieldType::Int),
            ("clicked", FieldType::Int),
        ]);
        let click_cfg = AppConfig {
            seed: config.seed.wrapping_add(101),
            ..config.clone()
        };
        let clicks = ClosureStream::new(click_schema.clone(), &click_cfg, |_, rng| {
            // Low-id ads attract more clicks.
            let r: f64 = rng.gen_range(0.0f64..1.0);
            let ad = ((r * r) * 200.0) as i64;
            Row::from([
                Value::Int(ad),
                Value::Int(rng.gen_range(0..10_000i64)),
                Value::Int(rng.gen_bool(0.3) as i64),
            ])
        });

        let mut b = PlanBuilder::new();
        let imp_src = b.add_node("impressions", OpKind::Source { schema: imp_schema }, 1);
        let click_src = b.add_node(
            "clicks",
            OpKind::Source {
                schema: click_schema,
            },
            1,
        );
        let imp_filter = b.add_node(
            "paid-impressions",
            OpKind::Filter {
                predicate: Predicate::cmp(2, CmpOp::Gt, Value::Double(0.05)),
                selectivity: 0.95,
            },
            1,
        );
        b.add_edge(imp_src, imp_filter, 0, Partitioning::Rebalance);
        let plan = b
            .join(
                "imp-click-join",
                imp_filter,
                click_src,
                WindowSpec::tumbling_time(1_000),
                0,
                0,
            )
            .chain(
                "ctr",
                pdsp_engine::operator::udo_op(Arc::new(CtrAggregator)),
                Some(Partitioning::Hash(vec![0])),
            )
            .sink("sink")
            .build()
            .expect("ad analytics plan is valid");
        BuiltApp {
            plan,
            sources: vec![impressions, clicks],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsp_engine::physical::PhysicalPlan;
    use pdsp_engine::runtime::{RunConfig, ThreadedRuntime};

    fn joined(ad: i64, et: i64, clicked: bool) -> Tuple {
        let mut t = Tuple::new(vec![
            Value::Int(ad),
            Value::Int(ad / 10),
            Value::Double(0.5),
            Value::Int(ad),
            Value::Int(7),
            Value::Int(clicked as i64),
        ]);
        t.event_time = et;
        t
    }

    #[test]
    fn ctr_reflects_click_fraction() {
        let mut s = CtrState {
            ads: HashMap::default(),
        };
        let mut out = Vec::new();
        // 16 events: 4 clicked -> CTR 0.25 at the emit point.
        for i in 0..16 {
            s.on_tuple(0, joined(1, i, i % 4 == 0), &mut out);
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values[1], Value::Double(0.25));
    }

    #[test]
    fn sliding_window_evicts_old_events() {
        let mut s = CtrState {
            ads: HashMap::default(),
        };
        let mut out = Vec::new();
        // 15 clicked events long ago, then 16 unclicked within the window.
        for i in 0..15 {
            s.on_tuple(0, joined(1, i, true), &mut out);
        }
        for i in 0..16 {
            s.on_tuple(0, joined(1, 100_000 + i, false), &mut out);
        }
        let last = out.last().unwrap();
        assert_eq!(
            last.values[1],
            Value::Double(0.0),
            "old clicks evicted from the sliding window"
        );
    }

    #[test]
    fn reports_equal_a_recount_of_the_retained_history() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xc7a);
        let mut s = CtrState {
            ads: HashMap::default(),
        };
        let mut out = Vec::new();
        let mut et = 0i64;
        let mut reports = 0;
        // ~60 s of event time over 5 ads: each ad's history crosses the
        // 2 s horizon dozens of times, with bursts and jittered order.
        for _ in 0..20_000 {
            et += rng.gen_range(0..6i64);
            let jitter = rng.gen_range(0..40i64);
            let ad = rng.gen_range(0..5i64);
            let tuple = joined(ad, et - jitter, rng.gen_bool(0.3));
            out.clear();
            s.on_tuple(0, tuple, &mut out);
            let w = &s.ads[&ad];
            let recount = w.history.iter().filter(|&&(_, c)| c).count();
            assert_eq!(w.clicks, recount, "running click count drifted");
            for report in &out {
                let want = recount as f64 / w.history.len() as f64;
                let got = report.values[1].as_f64().unwrap();
                assert_eq!(got.to_bits(), want.to_bits(), "report at {et}");
                reports += 1;
            }
        }
        assert!(reports > 1_000, "the stream must exercise the reports");
        let retained: usize = s.ads.values().map(|w| w.history.len()).sum();
        assert!(retained < 4_000, "most events must have been evicted");
    }

    #[test]
    fn runs_end_to_end() {
        let cfg = AppConfig {
            event_rate: 20_000.0,
            total_tuples: 6_000,
            seed: 31,
        };
        let built = AdAnalytics.build(&cfg);
        let phys = PhysicalPlan::expand(&built.plan).unwrap();
        let res = ThreadedRuntime::new(RunConfig::default())
            .run(&phys, &built.sources)
            .unwrap();
        assert!(res.tuples_out > 0, "CTR reports must be produced");
        for t in &res.sink_tuples {
            let ctr = t.values[1].as_f64().unwrap();
            assert!((0.0..=1.0).contains(&ctr));
        }
    }
}
