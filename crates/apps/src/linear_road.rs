//! Linear Road (LR) — the classic stream benchmark (Arasu et al., VLDB'04):
//! vehicles on a highway emit position reports; the query computes per-
//! segment average speeds over a sliding window and a toll UDO charges
//! vehicles entering congested segments.

use crate::common::{named_schema, AppConfig, Application, BuiltApp, ClosureStream};
use crate::registry::AppInfo;
use pdsp_engine::agg::AggFunc;
use pdsp_engine::udo::{CostProfile, Udo, UdoFactory};
use pdsp_engine::value::{FieldType, Row, Schema, Tuple, Value};
use pdsp_engine::window::WindowSpec;
use pdsp_engine::PlanBuilder;
use std::sync::Arc;

/// Speed below which a segment counts as congested (mph).
const CONGESTION_SPEED: f64 = 40.0;
/// Base toll in cents; scales with congestion severity.
const BASE_TOLL: f64 = 50.0;

/// Toll calculator: converts (segment, window_end, avg_speed) into
/// (segment, toll_cents) for congested segments.
pub struct TollCalculator;

struct TollState;

impl Udo for TollState {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        // Input: [segment, window_end, avg_speed].
        let (Some(segment), Some(avg_speed)) = (
            tuple.values.first().and_then(Value::as_i64),
            tuple.values.get(2).and_then(Value::as_f64),
        ) else {
            return;
        };
        if avg_speed < CONGESTION_SPEED {
            // LR's toll formula: quadratic in the congestion severity.
            let severity = (CONGESTION_SPEED - avg_speed) / CONGESTION_SPEED;
            let toll = BASE_TOLL * (1.0 + 2.0 * severity * severity);
            out.push(Tuple {
                values: Row::from([Value::Int(segment), Value::Double(toll)]),
                event_time: tuple.event_time,
                emit_ns: tuple.emit_ns,
            });
        }
    }
}

impl UdoFactory for TollCalculator {
    fn name(&self) -> &str {
        "toll-calculator"
    }

    fn create(&self) -> Box<dyn Udo> {
        Box::new(TollState)
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile::stateless(1_500.0, 0.4)
    }

    fn output_schema(&self, _input: &Schema) -> Schema {
        named_schema(&[
            ("segment", FieldType::Int),
            ("toll_cents", FieldType::Double),
        ])
    }
}

/// The Linear Road application.
pub struct LinearRoad;

impl Application for LinearRoad {
    fn info(&self) -> AppInfo {
        AppInfo {
            acronym: "LR",
            name: "Linear Road",
            area: "Transportation",
            description: "Per-segment average speed over sliding windows with congestion tolls",
            uses_udo: true,
            sources: 1,
        }
    }

    fn build(&self, config: &AppConfig) -> BuiltApp {
        use rand::Rng;
        // [vehicle, segment, speed, lane]
        let schema = named_schema(&[
            ("vehicle", FieldType::Int),
            ("segment", FieldType::Int),
            ("speed", FieldType::Double),
            ("lane", FieldType::Int),
        ]);
        let source = ClosureStream::new(schema.clone(), config, |i, rng| {
            let vehicle = (i % 2_000) as i64;
            let segment = rng.gen_range(0..100i64);
            // Segments 0-19 are congested at ~30 mph; the rest flow at ~60.
            let speed = if segment < 20 {
                rng.gen_range(20.0..40.0)
            } else {
                rng.gen_range(50.0..70.0)
            };
            Row::from([
                Value::Int(vehicle),
                Value::Int(segment),
                Value::Double(speed),
                Value::Int(rng.gen_range(0..4)),
            ])
        });
        let plan = PlanBuilder::new()
            .source("position-reports", schema, 1)
            .window_agg_keyed(
                "avg-speed",
                WindowSpec::sliding_count(40, 20),
                AggFunc::Avg,
                2,
                1,
            )
            .udo("toll", Arc::new(TollCalculator))
            .sink("sink")
            .build()
            .expect("linear road plan is valid");
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
    fn toll_only_for_congested_segments() {
        let mut t = TollState;
        let mut out = Vec::new();
        t.on_tuple(
            0,
            Tuple::new(vec![
                Value::Int(5),
                Value::Timestamp(100),
                Value::Double(60.0),
            ]),
            &mut out,
        );
        assert!(out.is_empty(), "free-flowing segment pays nothing");
        t.on_tuple(
            0,
            Tuple::new(vec![
                Value::Int(5),
                Value::Timestamp(100),
                Value::Double(20.0),
            ]),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        let toll = out[0].values[1].as_f64().unwrap();
        assert!(toll > BASE_TOLL, "congestion toll exceeds base: {toll}");
    }

    #[test]
    fn slower_traffic_pays_more() {
        let mut t = TollState;
        let mut out = Vec::new();
        for speed in [35.0, 25.0, 10.0] {
            t.on_tuple(
                0,
                Tuple::new(vec![
                    Value::Int(1),
                    Value::Timestamp(0),
                    Value::Double(speed),
                ]),
                &mut out,
            );
        }
        let tolls: Vec<f64> = out.iter().map(|t| t.values[1].as_f64().unwrap()).collect();
        assert!(tolls[0] < tolls[1] && tolls[1] < tolls[2]);
    }

    #[test]
    fn runs_end_to_end() {
        let cfg = AppConfig {
            total_tuples: 8_000,
            ..AppConfig::default()
        };
        let built = LinearRoad.build(&cfg);
        let phys = PhysicalPlan::expand(&built.plan).unwrap();
        let res = ThreadedRuntime::new(RunConfig::default())
            .run(&phys, &built.sources)
            .unwrap();
        assert!(res.tuples_out > 0, "congested segments must produce tolls");
        for t in &res.sink_tuples {
            let seg = t.values[0].as_i64().unwrap();
            assert!((0..20).contains(&seg), "only segments 0-19 are congested");
        }
    }
}
