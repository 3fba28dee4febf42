//! Log Processing (LP) — web-server log analytics (after the
//! click-topology reference): HTTP logs are filtered to errors, a geo-
//! lookup UDO maps client IPs to regions, and error counts are aggregated
//! per region over tumbling windows.

use crate::common::{named_schema, AppConfig, Application, BuiltApp, ClosureStream};
use crate::registry::AppInfo;
use pdsp_engine::agg::AggFunc;
use pdsp_engine::expr::{CmpOp, Predicate};
use pdsp_engine::udo::{CostProfile, Udo, UdoFactory};
use pdsp_engine::value::{FieldType, Row, Schema, Tuple, Value};
use pdsp_engine::window::WindowSpec;
use pdsp_engine::PlanBuilder;
use std::sync::Arc;

/// Region labels the geo lookup can produce.
pub const REGIONS: [&str; 8] = [
    "na-east",
    "na-west",
    "eu-west",
    "eu-central",
    "ap-south",
    "ap-east",
    "sa-east",
    "af-north",
];

/// Maps an IPv4-as-integer to a region via longest-prefix style bucketing
/// (a deterministic stand-in for a GeoIP database lookup).
pub struct GeoLookup;

struct GeoState;

impl Udo for GeoState {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        // Input: [ip, status, bytes].
        let (Some(ip), Some(status)) = (
            tuple.values.first().and_then(Value::as_i64),
            tuple.values.get(1).and_then(Value::as_i64),
        ) else {
            return;
        };
        // /8 prefix selects the region bucket.
        let region = REGIONS[((ip >> 24) & 0x7) as usize];
        out.push(Tuple {
            values: Row::from([
                Value::str(region),
                Value::Int(status),
                tuple.values.get(2).cloned().unwrap_or(Value::Int(0)),
            ]),
            event_time: tuple.event_time,
            emit_ns: tuple.emit_ns,
        });
    }
}

impl UdoFactory for GeoLookup {
    fn name(&self) -> &str {
        "geo-lookup"
    }
    fn create(&self) -> Box<dyn Udo> {
        Box::new(GeoState)
    }
    fn cost_profile(&self) -> CostProfile {
        // Trie walk + string materialization per record.
        CostProfile::stateless(6_000.0, 1.0)
    }
    fn output_schema(&self, _input: &Schema) -> Schema {
        named_schema(&[
            ("region", FieldType::Str),
            ("status", FieldType::Int),
            ("bytes", FieldType::Int),
        ])
    }
}

/// The Log Processing application.
pub struct LogProcessing;

impl Application for LogProcessing {
    fn info(&self) -> AppInfo {
        AppInfo {
            acronym: "LP",
            name: "Log Processing",
            area: "Web analytics",
            description: "Filters error responses, geo-maps client IPs, counts errors per region",
            uses_udo: true,
            sources: 1,
        }
    }

    fn build(&self, config: &AppConfig) -> BuiltApp {
        use rand::Rng;
        // [ip, status, bytes]
        let schema = named_schema(&[
            ("ip", FieldType::Int),
            ("status", FieldType::Int),
            ("bytes", FieldType::Int),
        ]);
        let source = ClosureStream::new(schema.clone(), config, |_, rng| {
            let ip = rng.gen_range(0..=u32::MAX as i64);
            let status = match rng.gen_range(0..100) {
                0..=84 => 200,
                85..=92 => 404,
                93..=97 => 301,
                _ => 500,
            };
            Row::from([
                Value::Int(ip),
                Value::Int(status),
                Value::Int(rng.gen_range(100..100_000)),
            ])
        });
        let plan = PlanBuilder::new()
            .source("http-logs", schema, 1)
            .filter(
                "errors-only",
                Predicate::cmp(1, CmpOp::Ge, Value::Int(400)),
                0.12,
            )
            .udo("geo", Arc::new(GeoLookup))
            .window_agg_keyed(
                "errors-per-region",
                WindowSpec::tumbling_time(1_000),
                AggFunc::Count,
                1,
                0,
            )
            .sink("sink")
            .build()
            .expect("log processing plan is valid");
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
    fn geo_lookup_is_deterministic_per_prefix() {
        let mut g = GeoState;
        let mut out = Vec::new();
        let ip = (3i64 << 24) | 12345;
        g.on_tuple(
            0,
            Tuple::new(vec![Value::Int(ip), Value::Int(200), Value::Int(1)]),
            &mut out,
        );
        g.on_tuple(
            0,
            Tuple::new(vec![Value::Int(ip + 7), Value::Int(404), Value::Int(1)]),
            &mut out,
        );
        assert_eq!(out[0].values[0], out[1].values[0], "same /8, same region");
        assert_eq!(out[0].values[0], Value::str(REGIONS[3]));
    }

    #[test]
    fn runs_end_to_end_counting_only_errors() {
        let cfg = AppConfig {
            event_rate: 20_000.0,
            total_tuples: 10_000,
            seed: 5,
        };
        let built = LogProcessing.build(&cfg);
        let phys = PhysicalPlan::expand(&built.plan).unwrap();
        let res = ThreadedRuntime::new(RunConfig::default())
            .run(&phys, &built.sources)
            .unwrap();
        assert!(res.tuples_out > 0);
        // Total counted errors across windows must be well under the input
        // volume (only ~12% of logs are errors).
        let counted: f64 = res
            .sink_tuples
            .iter()
            .map(|t| t.values[2].as_f64().unwrap())
            .sum();
        assert!(counted < 0.25 * res.tuples_in as f64);
        for t in &res.sink_tuples {
            let region = t.values[0].as_str().unwrap();
            assert!(REGIONS.contains(&region));
        }
    }
}
