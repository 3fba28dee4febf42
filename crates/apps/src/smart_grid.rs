//! Smart Grid (SG) — the DEBS 2014 Grand Challenge: smart-plug power
//! readings; per-house load is averaged over sliding windows and a
//! global-median UDO flags houses whose load sits far above the grid-wide
//! median. SG is one of the paper's data-intensive UDO applications that
//! gains most from high parallelism (O2: "128 significantly improves
//! latency in SG").

use crate::common::{named_schema, AppConfig, Application, BuiltApp, ClosureStream};
use crate::registry::AppInfo;
use pdsp_engine::agg::AggFunc;
use pdsp_engine::udo::{CostProfile, Udo, UdoFactory, UdoProperties};
use pdsp_engine::value::{FieldType, Row, Schema, Tuple, Value};
use pdsp_engine::window::WindowSpec;
use pdsp_engine::PlanBuilder;
use std::sync::Arc;

/// Streaming median via two-ring buffer of recent per-house averages;
/// emits (house, load, load/median) triples.
pub struct GridMedianDetector;

struct MedianState {
    /// Insertion-ordered ring of recent loads (eviction order).
    recent: Vec<f64>,
    /// The same values kept sorted; median is a direct index. Updated
    /// incrementally — one binary-search remove + insert per reading —
    /// which computes the *identical* median the full re-sort produced,
    /// in O(ring) instead of O(ring log ring) per tuple.
    sorted: Vec<f64>,
    cursor: usize,
}

/// Readings kept in the global ring.
const RING: usize = 512;

impl MedianState {
    /// Admit one load into the ring and return the ring median.
    fn observe(&mut self, load: f64) -> f64 {
        if self.recent.len() < RING {
            self.recent.push(load);
        } else {
            let evicted = std::mem::replace(&mut self.recent[self.cursor], load);
            self.cursor = (self.cursor + 1) % RING;
            let gone = self
                .sorted
                .binary_search_by(|p| p.total_cmp(&evicted))
                .expect("evicted value is present in the sorted mirror");
            self.sorted.remove(gone);
        }
        let at = match self.sorted.binary_search_by(|p| p.total_cmp(&load)) {
            Ok(i) | Err(i) => i,
        };
        self.sorted.insert(at, load);
        self.sorted[self.sorted.len() / 2].max(1e-9)
    }

    fn process(&mut self, mut tuple: Tuple, out: &mut Vec<Tuple>) {
        // Input: raw readings [plug, house, load].
        let (Some(house), Some(load)) = (
            tuple.values.get(1).and_then(Value::as_i64),
            tuple.values.get(2).and_then(Value::as_f64),
        ) else {
            return;
        };
        let median = self.observe(load);
        // Rewrite the tuple in place — its 3-slot allocation is exactly the
        // output shape, so the hot path allocates nothing.
        tuple.values.clear();
        tuple.values.push(Value::Int(house));
        tuple.values.push(Value::Double(load));
        tuple.values.push(Value::Double(load / median));
        out.push(tuple);
    }
}

impl Udo for MedianState {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        self.process(tuple, out);
    }

    fn on_batch(&mut self, _port: usize, tuples: Vec<Tuple>, out: &mut Vec<Tuple>) {
        // Tight per-frame loop: no cross-crate virtual dispatch per tuple.
        out.reserve(tuples.len());
        for t in tuples {
            self.process(t, out);
        }
    }
}

impl UdoFactory for GridMedianDetector {
    fn name(&self) -> &str {
        "grid-median-detector"
    }

    fn create(&self) -> Box<dyn Udo> {
        Box::new(MedianState {
            recent: Vec::with_capacity(RING),
            sorted: Vec::with_capacity(RING),
            cursor: 0,
        })
    }

    fn cost_profile(&self) -> CostProfile {
        // Maintains a 512-entry order-statistics ring: heavy and stateful.
        CostProfile::stateful(1_200_000.0, 1.0, 2.0)
    }

    fn output_schema(&self, _input: &Schema) -> Schema {
        named_schema(&[
            ("house", FieldType::Int),
            ("load", FieldType::Double),
            ("load_ratio", FieldType::Double),
        ])
    }

    fn properties(&self) -> UdoProperties {
        // The ring is a sample of recent load; under hash-partitioning each
        // instance medians its own partition's sample. Load distributions
        // are grid-wide phenomena, so a per-partition median is an accepted
        // approximation of the global one (and what lets SG scale to the
        // high degrees the paper sweeps).
        UdoProperties {
            stateful: true,
            partition_tolerant: true,
            ..UdoProperties::default()
        }
    }
}

/// The Smart Grid application.
pub struct SmartGrid;

impl Application for SmartGrid {
    fn info(&self) -> AppInfo {
        AppInfo {
            acronym: "SG",
            name: "Smart Grid (DEBS'14)",
            area: "IoT / energy",
            description: "Per-house load over sliding windows with global-median outlier detection",
            uses_udo: true,
            sources: 1,
        }
    }

    fn build(&self, config: &AppConfig) -> BuiltApp {
        use rand::Rng;
        // [plug_id, house_id, load_watts]
        let schema = named_schema(&[
            ("plug", FieldType::Int),
            ("house", FieldType::Int),
            ("load_watts", FieldType::Double),
        ]);
        let source = ClosureStream::new(schema.clone(), config, |i, rng| {
            let plug = (i % 400) as i64;
            let house = plug / 10; // 10 plugs per house, 40 houses
                                   // Houses 0-3 run heavy appliances.
            let base = if house < 4 { 900.0 } else { 120.0 };
            Row::from([
                Value::Int(plug),
                Value::Int(house),
                Value::Double(base + rng.gen_range(0.0..80.0)),
            ])
        });
        // The DEBS'14 median is computed over *raw* readings, so the heavy
        // UDO sits directly on the full-rate stream; per-house load ratios
        // are then averaged over sliding windows.
        let plan = PlanBuilder::new()
            .source("plug-readings", schema, 1)
            .chain(
                "median-outlier",
                pdsp_engine::operator::udo_op(Arc::new(GridMedianDetector)),
                Some(pdsp_engine::Partitioning::Hash(vec![1])),
            )
            .window_agg_keyed(
                "house-ratio",
                WindowSpec::sliding_count(60, 20),
                AggFunc::Avg,
                2,
                0,
            )
            .sink("sink")
            .build()
            .expect("smart grid plan is valid");
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
    fn detector_ratios_track_the_median() {
        let mut d = MedianState {
            recent: Vec::new(),
            sorted: Vec::new(),
            cursor: 0,
        };
        let mut out = Vec::new();
        for _ in 0..20 {
            d.on_tuple(
                0,
                Tuple::new(vec![Value::Int(10), Value::Int(1), Value::Double(100.0)]),
                &mut out,
            );
        }
        out.clear();
        d.on_tuple(
            0,
            Tuple::new(vec![Value::Int(20), Value::Int(2), Value::Double(1_000.0)]),
            &mut out,
        );
        let ratio = out[0].values[2].as_f64().unwrap();
        assert!((ratio - 10.0).abs() < 0.5, "10x the median, got {ratio}");
    }

    #[test]
    fn ring_buffer_caps_memory() {
        let mut d = MedianState {
            recent: Vec::new(),
            sorted: Vec::new(),
            cursor: 0,
        };
        let mut out = Vec::new();
        for i in 0..(RING * 3) {
            d.on_tuple(
                0,
                Tuple::new(vec![Value::Int(1), Value::Int(1), Value::Double(i as f64)]),
                &mut out,
            );
        }
        assert_eq!(d.recent.len(), RING);
    }

    #[test]
    fn runs_end_to_end_and_heavy_houses_ratio_high() {
        let cfg = AppConfig {
            total_tuples: 8_000,
            ..AppConfig::default()
        };
        let built = SmartGrid.build(&cfg);
        let phys = PhysicalPlan::expand(&built.plan).unwrap();
        let res = ThreadedRuntime::new(RunConfig::default())
            .run(&phys, &built.sources)
            .unwrap();
        assert!(res.tuples_out > 0);
        // Heavy houses (0-3) should show ratios well above light houses.
        let mut heavy = Vec::new();
        let mut light = Vec::new();
        for t in &res.sink_tuples {
            let house = t.values[0].as_i64().unwrap();
            let ratio = t.values[2].as_f64().unwrap();
            if house < 4 {
                heavy.push(ratio)
            } else {
                light.push(ratio)
            }
        }
        if !heavy.is_empty() && !light.is_empty() {
            let h: f64 = heavy.iter().sum::<f64>() / heavy.len() as f64;
            let l: f64 = light.iter().sum::<f64>() / light.len() as f64;
            assert!(h > l, "heavy houses ratio {h} > light {l}");
        }
    }
}
