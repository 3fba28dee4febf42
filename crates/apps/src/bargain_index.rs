//! Bargain Index (BI) — the classic Streams finance application: stock
//! quotes feed a per-symbol VWAP (volume-weighted average price) window; a
//! UDO computes the bargain index of each ask quote (how far below VWAP it
//! is, weighted by available volume) and large bargains are emitted.

use crate::common::{named_schema, AppConfig, Application, BuiltApp, ClosureStream};
use crate::registry::AppInfo;
use pdsp_engine::udo::{CostProfile, Udo, UdoFactory, UdoProperties};
use pdsp_engine::value::{FieldType, Row, Schema, Tuple, Value};
use pdsp_engine::PlanBuilder;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// Quotes per symbol contributing to the VWAP.
const VWAP_WINDOW: usize = 50;
/// Minimal index to report a bargain (filters noise-level discounts).
const BARGAIN_THRESHOLD: f64 = 10.0;

/// Maintains per-symbol VWAP and emits (symbol, price, index) when an ask
/// is a bargain.
pub struct BargainCalculator;

struct BargainState {
    vwap: HashMap<i64, VecDeque<(f64, f64)>>, // (price, volume)
}

impl Udo for BargainState {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        // Input: [symbol, price, volume].
        let (Some(symbol), Some(price), Some(volume)) = (
            tuple.values.first().and_then(Value::as_i64),
            tuple.values.get(1).and_then(Value::as_f64),
            tuple.values.get(2).and_then(Value::as_f64),
        ) else {
            return;
        };
        let window = self.vwap.entry(symbol).or_default();
        // Compute VWAP over past quotes before folding the new one in.
        let (pv, v): (f64, f64) = window
            .iter()
            .fold((0.0, 0.0), |(pv, v), &(p, vol)| (pv + p * vol, v + vol));
        if v > 0.0 {
            let vwap = pv / v;
            if price < vwap {
                let index = (vwap - price) * volume / vwap;
                if index > BARGAIN_THRESHOLD {
                    out.push(Tuple {
                        values: Row::from([
                            Value::Int(symbol),
                            Value::Double(price),
                            Value::Double(index),
                        ]),
                        event_time: tuple.event_time,
                        emit_ns: tuple.emit_ns,
                    });
                }
            }
        }
        window.push_back((price, volume));
        if window.len() > VWAP_WINDOW {
            window.pop_front();
        }
    }
}

impl UdoFactory for BargainCalculator {
    fn name(&self) -> &str {
        "bargain-calculator"
    }
    fn create(&self) -> Box<dyn Udo> {
        Box::new(BargainState {
            vwap: HashMap::new(),
        })
    }
    fn cost_profile(&self) -> CostProfile {
        CostProfile::stateful(16_000.0, 0.15, 1.5)
    }
    fn output_schema(&self, _input: &Schema) -> Schema {
        named_schema(&[
            ("symbol", FieldType::Int),
            ("price", FieldType::Double),
            ("bargain_index", FieldType::Double),
        ])
    }
    fn properties(&self) -> UdoProperties {
        // A capped VWAP window per symbol (input field 0); the plan
        // hash-partitions on it.
        UdoProperties {
            stateful: true,
            keyed_state_field: Some(0),
            ..UdoProperties::default()
        }
    }
}

/// The Bargain Index application.
pub struct BargainIndex;

impl Application for BargainIndex {
    fn info(&self) -> AppInfo {
        AppInfo {
            acronym: "BI",
            name: "Bargain Index",
            area: "Finance",
            description:
                "Per-symbol VWAP; asks priced below VWAP emit a volume-weighted bargain index",
            uses_udo: true,
            sources: 1,
        }
    }

    fn build(&self, config: &AppConfig) -> BuiltApp {
        use rand::Rng;
        // [symbol, price, volume]
        let schema = named_schema(&[
            ("symbol", FieldType::Int),
            ("price", FieldType::Double),
            ("volume", FieldType::Double),
        ]);
        let source = ClosureStream::new(schema.clone(), config, |_, rng| {
            let symbol = rng.gen_range(0..100i64);
            let fair = 50.0 + symbol as f64;
            // Occasional deep discounts create bargains.
            let price = if rng.gen_bool(0.05) {
                fair * rng.gen_range(0.80..0.95)
            } else {
                fair * rng.gen_range(0.995..1.005)
            };
            Row::from([
                Value::Int(symbol),
                Value::Double(price),
                Value::Double(rng.gen_range(10.0..500.0)),
            ])
        });
        let plan = PlanBuilder::new()
            .source("quotes", schema, 1)
            .chain(
                "bargain",
                pdsp_engine::operator::udo_op(Arc::new(BargainCalculator)),
                Some(pdsp_engine::Partitioning::Hash(vec![0])),
            )
            .sink("sink")
            .build()
            .expect("bargain index plan is valid");
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

    fn quote(symbol: i64, price: f64, volume: f64) -> Tuple {
        Tuple::new(vec![
            Value::Int(symbol),
            Value::Double(price),
            Value::Double(volume),
        ])
    }

    #[test]
    fn discount_below_vwap_is_a_bargain() {
        let mut s = BargainState {
            vwap: HashMap::new(),
        };
        let mut out = Vec::new();
        for _ in 0..10 {
            s.on_tuple(0, quote(1, 100.0, 100.0), &mut out);
        }
        assert!(out.is_empty(), "fair-priced quotes are not bargains");
        s.on_tuple(0, quote(1, 80.0, 100.0), &mut out);
        assert_eq!(out.len(), 1);
        let index = out[0].values[2].as_f64().unwrap();
        // (100 - 80) * 100 / 100 = 20.
        assert!((index - 20.0).abs() < 1e-9, "index {index}");
    }

    #[test]
    fn tiny_volume_discounts_are_ignored() {
        let mut s = BargainState {
            vwap: HashMap::new(),
        };
        let mut out = Vec::new();
        for _ in 0..10 {
            s.on_tuple(0, quote(1, 100.0, 100.0), &mut out);
        }
        s.on_tuple(0, quote(1, 99.9, 0.1), &mut out);
        assert!(out.is_empty(), "index below threshold");
    }

    #[test]
    fn symbols_keep_separate_vwaps() {
        let mut s = BargainState {
            vwap: HashMap::new(),
        };
        let mut out = Vec::new();
        for _ in 0..10 {
            s.on_tuple(0, quote(1, 100.0, 100.0), &mut out);
            s.on_tuple(0, quote(2, 10.0, 100.0), &mut out);
        }
        // 50 is a huge discount for symbol 1 but a premium for symbol 2.
        s.on_tuple(0, quote(2, 50.0, 100.0), &mut out);
        assert!(out.is_empty());
        s.on_tuple(0, quote(1, 50.0, 100.0), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn runs_end_to_end() {
        let cfg = AppConfig {
            total_tuples: 8_000,
            ..AppConfig::default()
        };
        let built = BargainIndex.build(&cfg);
        let phys = PhysicalPlan::expand(&built.plan).unwrap();
        let res = ThreadedRuntime::new(RunConfig::default())
            .run(&phys, &built.sources)
            .unwrap();
        assert!(res.tuples_out > 0, "5% injected discounts yield bargains");
        let rate = res.tuples_out as f64 / res.tuples_in as f64;
        assert!(rate < 0.2, "bargains are rare: {rate}");
    }
}
