//! Traffic Monitoring (TM) — GPS fleet analytics (after the DSPBench /
//! GeoTools pipeline): raw GPS fixes are map-matched to road segments (a
//! CPU-heavy UDO doing nearest-segment search) and per-road average speeds
//! are maintained over time windows.

use crate::common::{named_schema, AppConfig, Application, BuiltApp, ClosureStream};
use crate::registry::AppInfo;
use pdsp_engine::agg::AggFunc;
use pdsp_engine::udo::{CostProfile, Udo, UdoFactory, UdoProperties};
use pdsp_engine::value::{FieldType, Row, Schema, Tuple, Value};
use pdsp_engine::window::WindowSpec;
use pdsp_engine::PlanBuilder;
use std::sync::Arc;

/// Size of the synthetic road network (grid of segments).
pub const GRID: i64 = 32;

/// Map-matches (lat, lon) to the nearest road segment by scanning the
/// candidate cell neighborhood — deliberately the most CPU-intensive UDO in
/// the suite, mirroring real map-matching cost.
pub struct MapMatcher;

struct MatcherState;

impl MatcherState {
    /// Nearest segment: roads run along integer grid lines. A horizontal
    /// road segment is identified by (nearest lat line, containing lon
    /// cell); vertical segments mirror it with an id offset of GRID^2.
    fn match_segment(lat: f64, lon: f64) -> i64 {
        let cx = (lat.floor() as i64).rem_euclid(GRID);
        let cy = (lon.floor() as i64).rem_euclid(GRID);
        let near_lat = (lat.round() as i64).rem_euclid(GRID);
        let near_lon = (lon.round() as i64).rem_euclid(GRID);
        let dh = (lat - lat.round()).abs();
        let dv = (lon - lon.round()).abs();
        if dh <= dv {
            near_lat * GRID + cy
        } else {
            GRID * GRID + cx * GRID + near_lon
        }
    }
}

impl Udo for MatcherState {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        // Input: [vehicle, lat, lon, speed].
        let (Some(lat), Some(lon), Some(speed)) = (
            tuple.values.get(1).and_then(Value::as_f64),
            tuple.values.get(2).and_then(Value::as_f64),
            tuple.values.get(3).and_then(Value::as_f64),
        ) else {
            return;
        };
        let segment = Self::match_segment(lat, lon);
        out.push(Tuple {
            values: Row::from([Value::Int(segment), Value::Double(speed)]),
            event_time: tuple.event_time,
            emit_ns: tuple.emit_ns,
        });
    }
}

impl UdoFactory for MapMatcher {
    fn name(&self) -> &str {
        "map-matcher"
    }
    fn create(&self) -> Box<dyn Udo> {
        Box::new(MatcherState)
    }
    fn cost_profile(&self) -> CostProfile {
        // Geometric candidate scan per fix: the suite's heaviest per-tuple
        // CPU cost.
        CostProfile::stateful(800_000.0, 1.0, 1.0)
    }
    fn output_schema(&self, _input: &Schema) -> Schema {
        named_schema(&[("segment", FieldType::Int), ("speed", FieldType::Double)])
    }
    fn properties(&self) -> UdoProperties {
        // Map matching is a pure function of the GPS fix; the non-zero
        // state factor only models the road-network lookup cost. Safe
        // under any partitioning.
        UdoProperties {
            stateful: false,
            ..UdoProperties::default()
        }
    }
}

/// The Traffic Monitoring application.
pub struct TrafficMonitoring;

impl Application for TrafficMonitoring {
    fn info(&self) -> AppInfo {
        AppInfo {
            acronym: "TM",
            name: "Traffic Monitoring",
            area: "Transportation",
            description: "Map-matches GPS fixes to road segments; per-road average speeds",
            uses_udo: true,
            sources: 1,
        }
    }

    fn build(&self, config: &AppConfig) -> BuiltApp {
        use rand::Rng;
        // [vehicle, lat, lon, speed]
        let schema = named_schema(&[
            ("vehicle", FieldType::Int),
            ("lat", FieldType::Double),
            ("lon", FieldType::Double),
            ("speed", FieldType::Double),
        ]);
        let source = ClosureStream::new(schema.clone(), config, |i, rng| {
            Row::from([
                Value::Int((i % 500) as i64),
                Value::Double(rng.gen_range(0.0..GRID as f64)),
                Value::Double(rng.gen_range(0.0..GRID as f64)),
                Value::Double(rng.gen_range(5.0..90.0)),
            ])
        });
        let plan = PlanBuilder::new()
            .source("gps-fixes", schema, 1)
            .udo("map-match", Arc::new(MapMatcher))
            .window_agg_keyed(
                "road-speed",
                WindowSpec::tumbling_time(2_000),
                AggFunc::Avg,
                1,
                0,
            )
            .sink("sink")
            .build()
            .expect("traffic monitoring plan is valid");
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
    fn points_on_a_road_match_that_road() {
        // (5.0, 3.4): exactly on horizontal road through x=5.
        let seg = MatcherState::match_segment(5.0, 3.4);
        assert_eq!(seg, 5 * GRID + 3);
    }

    #[test]
    fn matching_is_deterministic() {
        assert_eq!(
            MatcherState::match_segment(7.3, 12.8),
            MatcherState::match_segment(7.3, 12.8)
        );
    }

    #[test]
    fn segments_are_within_network_bounds() {
        for (lat, lon) in [(0.1, 0.1), (31.9, 31.9), (15.5, 8.2)] {
            let seg = MatcherState::match_segment(lat, lon);
            assert!((0..2 * GRID * GRID).contains(&seg), "segment {seg}");
        }
    }

    #[test]
    fn runs_end_to_end_with_bounded_avg_speeds() {
        let cfg = AppConfig {
            event_rate: 5_000.0,
            total_tuples: 6_000,
            seed: 9,
        };
        let built = TrafficMonitoring.build(&cfg);
        let phys = PhysicalPlan::expand(&built.plan).unwrap();
        let res = ThreadedRuntime::new(RunConfig::default())
            .run(&phys, &built.sources)
            .unwrap();
        assert!(res.tuples_out > 0);
        for t in &res.sink_tuples {
            let speed = t.values[2].as_f64().unwrap();
            assert!((5.0..=90.0).contains(&speed), "avg speed {speed}");
        }
    }
}
