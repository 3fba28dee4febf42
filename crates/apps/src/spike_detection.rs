//! Spike Detection (SD) — the DSPBench IoT application: sensors stream
//! values; a per-device moving average is maintained and readings exceeding
//! the average by a threshold are reported as spikes. Data-intensive UDO
//! per the paper's classification.

use crate::common::{named_schema, AppConfig, Application, BuiltApp, ClosureStream};
use crate::registry::AppInfo;
use pdsp_engine::udo::{CostProfile, Udo, UdoFactory, UdoProperties};
use pdsp_engine::value::{FieldType, Row, Schema, Tuple, Value};
use pdsp_engine::PlanBuilder;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Spike threshold: value > factor x moving average.
const SPIKE_FACTOR: f64 = 1.3;
/// Moving-average window per device.
const MA_WINDOW: usize = 64;

/// Per-device moving average + spike emission.
pub struct SpikeDetector;

struct DetectorState {
    windows: HashMap<i64, (VecDeque<f64>, f64)>, // (values, running_sum)
}

impl Udo for DetectorState {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        let (Some(device), Some(value)) = (
            tuple.values.first().and_then(Value::as_i64),
            tuple.values.get(1).and_then(Value::as_f64),
        ) else {
            return;
        };
        let (window, sum) = self
            .windows
            .entry(device)
            .or_insert((VecDeque::with_capacity(MA_WINDOW), 0.0));
        let avg_before = if window.is_empty() {
            value
        } else {
            *sum / window.len() as f64
        };
        window.push_back(value);
        *sum += value;
        if window.len() > MA_WINDOW {
            *sum -= window.pop_front().unwrap();
        }
        if window.len() >= 8 && value > SPIKE_FACTOR * avg_before {
            out.push(Tuple {
                values: Row::from([
                    Value::Int(device),
                    Value::Double(value),
                    Value::Double(avg_before),
                ]),
                event_time: tuple.event_time,
                emit_ns: tuple.emit_ns,
            });
        }
    }
}

impl UdoFactory for SpikeDetector {
    fn name(&self) -> &str {
        "spike-detector"
    }

    fn create(&self) -> Box<dyn Udo> {
        Box::new(DetectorState {
            windows: HashMap::new(),
        })
    }

    fn cost_profile(&self) -> CostProfile {
        // Per-device state with window maintenance on every reading.
        CostProfile::stateful(400_000.0, 0.05, 1.8)
    }

    fn output_schema(&self, _input: &Schema) -> Schema {
        named_schema(&[
            ("device", FieldType::Int),
            ("value", FieldType::Double),
            ("moving_avg", FieldType::Double),
        ])
    }

    fn properties(&self) -> UdoProperties {
        // A capped moving-average window per device id (input field 0);
        // the plan hash-partitions on it.
        UdoProperties {
            stateful: true,
            keyed_state_field: Some(0),
            ..UdoProperties::default()
        }
    }
}

/// The Spike Detection application.
pub struct SpikeDetection;

impl Application for SpikeDetection {
    fn info(&self) -> AppInfo {
        AppInfo {
            acronym: "SD",
            name: "Spike Detection",
            area: "IoT sensors",
            description: "Per-device moving average; reports readings exceeding 1.3x the average",
            uses_udo: true,
            sources: 1,
        }
    }

    fn build(&self, config: &AppConfig) -> BuiltApp {
        use rand::Rng;
        let schema = named_schema(&[("device", FieldType::Int), ("value", FieldType::Double)]);
        let source = ClosureStream::new(schema.clone(), config, |i, rng| {
            let device = (i % 200) as i64;
            let base = 20.0 + device as f64 * 0.1;
            let value = if rng.gen_bool(0.03) {
                base * rng.gen_range(1.5..2.5) // spike
            } else {
                base * rng.gen_range(0.95..1.05)
            };
            Row::from([Value::Int(device), Value::Double(value)])
        });
        let plan = PlanBuilder::new()
            .source("sensor-readings", schema, 1)
            .chain(
                "detect",
                pdsp_engine::operator::udo_op(Arc::new(SpikeDetector)),
                Some(pdsp_engine::Partitioning::Hash(vec![0])),
            )
            .sink("sink")
            .build()
            .expect("spike detection plan is valid");
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

    fn feed(state: &mut DetectorState, device: i64, value: f64) -> usize {
        let mut out = Vec::new();
        state.on_tuple(
            0,
            Tuple::new(vec![Value::Int(device), Value::Double(value)]),
            &mut out,
        );
        out.len()
    }

    #[test]
    fn spike_detected_after_warmup() {
        let mut s = DetectorState {
            windows: HashMap::new(),
        };
        for _ in 0..10 {
            assert_eq!(feed(&mut s, 1, 20.0), 0, "stable readings are quiet");
        }
        assert_eq!(feed(&mut s, 1, 40.0), 1, "2x average is a spike");
    }

    #[test]
    fn no_detection_during_warmup() {
        let mut s = DetectorState {
            windows: HashMap::new(),
        };
        assert_eq!(feed(&mut s, 1, 20.0), 0);
        assert_eq!(feed(&mut s, 1, 500.0), 0, "fewer than 8 samples");
    }

    #[test]
    fn devices_are_isolated() {
        let mut s = DetectorState {
            windows: HashMap::new(),
        };
        for _ in 0..10 {
            feed(&mut s, 1, 10.0);
            feed(&mut s, 2, 1_000.0);
        }
        // 100 is a spike for device 1 but normal for device 2.
        assert_eq!(feed(&mut s, 1, 100.0), 1);
        assert_eq!(feed(&mut s, 2, 1_000.0), 0);
    }

    #[test]
    fn moving_average_evicts_old_values() {
        let mut s = DetectorState {
            windows: HashMap::new(),
        };
        for _ in 0..(MA_WINDOW + 50) {
            feed(&mut s, 1, 10.0);
        }
        let (w, sum) = &s.windows[&1];
        assert_eq!(w.len(), MA_WINDOW);
        assert!((sum - 10.0 * MA_WINDOW as f64).abs() < 1e-6);
    }

    #[test]
    fn runs_end_to_end_with_spike_rate_near_injection_rate() {
        let cfg = AppConfig {
            total_tuples: 10_000,
            ..AppConfig::default()
        };
        let built = SpikeDetection.build(&cfg);
        let phys = PhysicalPlan::expand(&built.plan).unwrap();
        let res = ThreadedRuntime::new(RunConfig::default())
            .run(&phys, &built.sources)
            .unwrap();
        let rate = res.tuples_out as f64 / res.tuples_in as f64;
        assert!(
            rate > 0.005 && rate < 0.08,
            "3% injected spikes, detected fraction {rate}"
        );
    }
}
