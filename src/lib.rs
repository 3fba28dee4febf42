//! # PDSP-Bench (Rust reproduction)
//!
//! A benchmarking system for parallel and distributed stream processing,
//! reproducing Agnihotri et al., *PDSP-Bench* (TPCTC 2024) from scratch in
//! Rust. This facade crate re-exports the whole workspace:
//!
//! * [`engine`] — the stream-processing system under test (parallel
//!   dataflow plans, partitioned edges, windows, joins, UDOs, a
//!   multi-threaded runtime);
//! * [`cluster`] — heterogeneous cluster model + discrete-event execution
//!   simulator (CloudLab substitute);
//! * [`workload`] — data/query generators, selectivity estimation, and the
//!   six parallelism enumeration strategies;
//! * [`apps`] — the 14-application real-world suite plus 9 synthetic query
//!   structures;
//! * [`analyze`] — multi-pass static plan analyzer (key-flow, exactly-once
//!   safety, state bounds, backpressure hazards, cost smells) with stable
//!   `PB0xx` diagnostics;
//! * [`ml`] — learned cost models (LR, MLP, RF, GNN) with q-error metrics;
//! * [`telemetry`] — live runtime telemetry: per-instance metrics registry,
//!   time-series sampler, flight recorder, Prometheus/JSON-lines exporters,
//!   latency summaries and the paper's measurement protocol;
//! * [`store`] — embedded document store for workloads and results;
//! * [`core`] — the controller, ML manager, and every experiment of the
//!   paper's evaluation (Figures 3-6, Tables 2-4).
//!
//! ## Quickstart
//!
//! ```
//! use pdsp_bench::engine::{PlanBuilder, PhysicalPlan, ThreadedRuntime, RunConfig};
//! use pdsp_bench::engine::expr::{CmpOp, Predicate};
//! use pdsp_bench::engine::runtime::VecSource;
//! use pdsp_bench::engine::value::{FieldType, Schema, Tuple, Value};
//!
//! let plan = PlanBuilder::new()
//!     .source("numbers", Schema::of(&[FieldType::Int]), 1)
//!     .filter("positive", Predicate::cmp(0, CmpOp::Gt, Value::Int(0)), 0.5)
//!     .set_parallelism(1, 4)
//!     .sink("sink")
//!     .build()
//!     .unwrap();
//! let tuples: Vec<Tuple> = (-50..50).map(|i| Tuple::new(vec![Value::Int(i)])).collect();
//! let physical = PhysicalPlan::expand(&plan).unwrap();
//! let result = ThreadedRuntime::new(RunConfig::default())
//!     .run(&physical, &[VecSource::new(tuples)])
//!     .unwrap();
//! assert_eq!(result.tuples_out, 49);
//! ```

pub use pdsp_analyze as analyze;
pub use pdsp_apps as apps;
pub use pdsp_bench_core as core;
pub use pdsp_cluster as cluster;
pub use pdsp_engine as engine;
pub use pdsp_ml as ml;
pub use pdsp_store as store;
pub use pdsp_telemetry as telemetry;
pub use pdsp_workload as workload;
