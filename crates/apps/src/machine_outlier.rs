//! Machine Outlier (MO) — data-center monitoring (after the
//! stream-outlier reference implementation): machines report CPU/memory
//! usage; a UDO scores each reading against the running per-machine
//! distribution (median absolute deviation) and anomalous readings pass a
//! threshold filter.

use crate::common::{named_schema, AppConfig, Application, BuiltApp, ClosureStream};
use crate::registry::AppInfo;
use pdsp_engine::expr::{CmpOp, Predicate};
use pdsp_engine::udo::{CostProfile, Udo, UdoFactory, UdoProperties};
use pdsp_engine::value::{FieldType, Row, Schema, Tuple, Value};
use pdsp_engine::PlanBuilder;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// Sliding history length per machine.
const HISTORY: usize = 32;

/// MAD-based anomaly scorer: per machine, score = |x - median| / (MAD + eps).
pub struct OutlierScorer;

struct ScorerState {
    history: HashMap<i64, VecDeque<f64>>,
}

impl ScorerState {
    fn score(&mut self, machine: i64, value: f64) -> f64 {
        let h = self.history.entry(machine).or_default();
        let score = if h.len() < 4 {
            0.0
        } else {
            let mut sorted: Vec<f64> = h.iter().copied().collect();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let median = sorted[sorted.len() / 2];
            let mut dev: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
            dev.sort_by(|a, b| a.total_cmp(b));
            let mad = dev[dev.len() / 2];
            (value - median).abs() / (mad + 1e-6)
        };
        h.push_back(value);
        if h.len() > HISTORY {
            h.pop_front();
        }
        score
    }
}

impl Udo for ScorerState {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        let (Some(machine), Some(cpu)) = (
            tuple.values.first().and_then(Value::as_i64),
            tuple.values.get(1).and_then(Value::as_f64),
        ) else {
            return;
        };
        let score = self.score(machine, cpu);
        out.push(Tuple {
            values: Row::from([
                Value::Int(machine),
                Value::Double(cpu),
                Value::Double(score),
            ]),
            event_time: tuple.event_time,
            emit_ns: tuple.emit_ns,
        });
    }
}

impl UdoFactory for OutlierScorer {
    fn name(&self) -> &str {
        "mad-outlier-scorer"
    }

    fn create(&self) -> Box<dyn Udo> {
        Box::new(ScorerState {
            history: HashMap::new(),
        })
    }

    fn cost_profile(&self) -> CostProfile {
        // Sorts a 32-sample history per tuple and keeps per-key state.
        CostProfile::stateful(12_000.0, 1.0, 1.5)
    }

    fn output_schema(&self, _input: &Schema) -> Schema {
        named_schema(&[
            ("machine", FieldType::Int),
            ("cpu", FieldType::Double),
            ("score", FieldType::Double),
        ])
    }

    fn properties(&self) -> UdoProperties {
        // One capped history per machine id (input field 0); the plan
        // hash-partitions on it.
        UdoProperties {
            stateful: true,
            keyed_state_field: Some(0),
            ..UdoProperties::default()
        }
    }
}

/// The Machine Outlier application.
pub struct MachineOutlier;

impl Application for MachineOutlier {
    fn info(&self) -> AppInfo {
        AppInfo {
            acronym: "MO",
            name: "Machine Outlier",
            area: "Data-center monitoring",
            description: "Flags machines whose CPU readings deviate from their running MAD",
            uses_udo: true,
            sources: 1,
        }
    }

    fn build(&self, config: &AppConfig) -> BuiltApp {
        use rand::Rng;
        let schema = named_schema(&[("machine", FieldType::Int), ("cpu", FieldType::Double)]);
        let source = ClosureStream::new(schema.clone(), config, |i, rng| {
            let machine = (i % 50) as i64;
            // Mostly stable load with occasional spikes.
            let base = 40.0 + (machine as f64) * 0.5;
            let cpu = if rng.gen_bool(0.02) {
                base + rng.gen_range(40.0..60.0)
            } else {
                base + rng.gen_range(-5.0..5.0)
            };
            Row::from([Value::Int(machine), Value::Double(cpu)])
        });
        let plan = PlanBuilder::new()
            .source("readings", schema, 1)
            // Hash by machine so each scorer instance owns its machines.
            .chain(
                "score",
                pdsp_engine::operator::udo_op(Arc::new(OutlierScorer)),
                Some(pdsp_engine::Partitioning::Hash(vec![0])),
            )
            .filter(
                "anomalous",
                Predicate::cmp(2, CmpOp::Gt, Value::Double(6.0)),
                0.03,
            )
            .sink("sink")
            .build()
            .expect("machine outlier plan is valid");
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
    fn scorer_flags_spikes() {
        let mut s = ScorerState {
            history: HashMap::new(),
        };
        let mut out = Vec::new();
        for v in [40.0, 41.0, 39.0, 40.5, 40.2, 39.8] {
            s.on_tuple(
                0,
                Tuple::new(vec![Value::Int(1), Value::Double(v)]),
                &mut out,
            );
        }
        out.clear();
        s.on_tuple(
            0,
            Tuple::new(vec![Value::Int(1), Value::Double(95.0)]),
            &mut out,
        );
        let score = out[0].values[2].as_f64().unwrap();
        assert!(score > 6.0, "spike must score high, got {score}");
    }

    #[test]
    fn scorer_keeps_machines_independent() {
        let mut s = ScorerState {
            history: HashMap::new(),
        };
        let mut out = Vec::new();
        // Machine 1 runs hot; machine 2 runs cold. Neither is an outlier
        // within its own history.
        for _ in 0..10 {
            s.on_tuple(
                0,
                Tuple::new(vec![Value::Int(1), Value::Double(90.0)]),
                &mut out,
            );
            s.on_tuple(
                0,
                Tuple::new(vec![Value::Int(2), Value::Double(10.0)]),
                &mut out,
            );
        }
        out.clear();
        s.on_tuple(
            0,
            Tuple::new(vec![Value::Int(2), Value::Double(10.0)]),
            &mut out,
        );
        assert!(out[0].values[2].as_f64().unwrap() < 1.0);
    }

    #[test]
    fn runs_end_to_end_with_few_anomalies() {
        let cfg = AppConfig {
            total_tuples: 5_000,
            ..AppConfig::default()
        };
        let built = MachineOutlier.build(&cfg);
        let phys = PhysicalPlan::expand(&built.plan).unwrap();
        let res = ThreadedRuntime::new(RunConfig::default())
            .run(&phys, &built.sources)
            .unwrap();
        let frac = res.tuples_out as f64 / res.tuples_in as f64;
        assert!(
            frac > 0.0 && frac < 0.15,
            "anomaly fraction should be small and non-zero: {frac}"
        );
    }
}
