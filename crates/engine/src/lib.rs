//! # pdsp-engine
//!
//! A parallel dataflow stream-processing engine: the System Under Test
//! substrate for PDSP-Bench (standing in for Apache Flink in the original
//! paper).
//!
//! The engine follows the classic dataflow abstraction the paper relies on:
//!
//! * a [`plan::LogicalPlan`] is a DAG of operators ([`operator::OpKind`]) with
//!   per-operator *parallelism hints* and per-edge *partitioning strategies*
//!   ([`plan::Partitioning`]: forward, rebalance, hash, broadcast);
//! * [`physical::PhysicalPlan`] expands each logical operator into
//!   `parallelism` physical instances and materializes the channel matrix
//!   between instance pairs;
//! * [`runtime::ThreadedRuntime`] executes a physical plan on real OS threads
//!   connected by bounded channels, stamping per-tuple end-to-end latency at
//!   the sink;
//! * the sibling crate `pdsp-cluster` executes the *same* physical plan on a
//!   simulated heterogeneous cluster instead.
//!
//! Operators cover the PDSP-Bench operator vocabulary: source, filter, map,
//! flat-map, key-by, windowed aggregation (tumbling/sliding x count/time),
//! windowed symmetric-hash joins (2-way and chained multi-way), union, sink,
//! and user-defined operators (UDOs) used by the real-world application suite.
//!
//! Since the micro-batched data plane landed, tuples travel between physical
//! instances as [`message::Batch`] frames built by per-edge batchers (see
//! [`batch`]); `RunConfig::batch_size == 1` sends one tuple per frame.

#![warn(missing_docs)]

pub mod agg;
pub mod batch;
pub mod builder;
pub mod chaining;
pub mod distributed;
pub mod error;
pub(crate) mod exec;
pub mod expr;
pub mod fault;
pub mod message;
pub mod operator;
pub mod physical;
pub mod plan;
pub mod pressure;
pub mod runtime;
pub mod schema_flow;
pub mod state;
pub mod telemetry;
pub mod testplan;
mod transport;
pub mod udo;
pub mod value;
pub mod window;
pub mod wire;

pub use batch::FlushReason;
pub use builder::PlanBuilder;
pub use distributed::{DistributedConfig, DistributedRuntime, WorkerMain};
pub use error::{EngineError, Result};
pub use expr::{CmpOp, Predicate, ScalarExpr};
pub use fault::{
    Backoff, DeliveryMode, FaultInjector, FaultStyle, FaultTrigger, FtConfig, FtRunResult,
    FtRuntime, RecoveryStats, RestartPolicy,
};
pub use operator::OpKind;
pub use physical::PhysicalPlan;
pub use plan::{Edge, LogicalNode, LogicalPlan, NodeId, Partitioning};
pub use pressure::{OverloadConfig, PressureGauge, PressureLevel, ShedPolicy, Shedder};
pub use runtime::{RunConfig, RunResult, ThreadedRuntime};
pub use schema_flow::{IssueAt, IssueKind, SchemaFlow, SchemaIssue};
pub use telemetry::telemetry_for_plan;
pub use value::{Field, FieldType, Schema, Tuple, Value};
pub use window::{WindowKind, WindowPolicy, WindowSpec};
