//! The threaded backend: the public run types and [`ThreadedRuntime`].
//!
//! Every physical instance runs as an OS thread connected by bounded
//! crossbeam channels (the engine's backpressure). Sources stamp `emit_ns`
//! on each tuple; sinks compute end-to-end latency on delivery — the
//! paper's end-to-end latency definition (source production to sink
//! delivery, §4 Metrics). The worker loops are the execution core in
//! `crate::exec`, shared with the fault-tolerant and distributed backends,
//! and so is the supervisor (`crate::fault::supervise`): `ThreadedRuntime`
//! runs one attempt with checkpoint barriers off and no restart budget.

use crate::error::{EngineError, Result};
use crate::exec::{run_local_attempt, ExecSettings};
use crate::fault::{supervise, Backoff, DeliveryMode, RestartPolicy};
use crate::message::Message;
use crate::physical::PhysicalPlan;
use crate::pressure::OverloadConfig;
use crate::value::Tuple;
use pdsp_telemetry::{FlightEventKind, RunTelemetry};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A factory producing per-instance tuple iterators for one source node.
///
/// The engine calls `instance_iter(i, p)` once per physical source instance;
/// implementations must return disjoint (or intentionally overlapping)
/// partitions of the stream.
pub trait SourceFactory: Send + Sync {
    /// Iterator of tuples for instance `instance_index` of `parallelism`.
    fn instance_iter(
        &self,
        instance_index: usize,
        parallelism: usize,
    ) -> Box<dyn Iterator<Item = Tuple> + Send>;
}

/// A source over a fixed tuple vector, partitioned round-robin across
/// instances. Handy for tests and examples.
pub struct VecSource {
    tuples: Arc<Vec<Tuple>>,
}

impl VecSource {
    /// Wrap a vector of tuples.
    pub fn new(tuples: Vec<Tuple>) -> Arc<Self> {
        Arc::new(VecSource {
            tuples: Arc::new(tuples),
        })
    }
}

impl SourceFactory for VecSource {
    fn instance_iter(
        &self,
        instance_index: usize,
        parallelism: usize,
    ) -> Box<dyn Iterator<Item = Tuple> + Send> {
        let tuples = Arc::clone(&self.tuples);
        let iter = (0..tuples.len())
            .filter(move |i| i % parallelism == instance_index)
            .map(move |i| tuples[i].clone());
        Box::new(iter.collect::<Vec<_>>().into_iter())
    }
}

/// Runtime configuration. Serializable so the distributed coordinator can
/// ship the exact configuration to every worker process in its deploy
/// message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunConfig {
    /// Emit a watermark every N source tuples.
    pub watermark_interval: usize,
    /// Bounded out-of-orderness: watermarks trail the maximum observed
    /// event time by this many ms, so disordered tuples within the bound
    /// are not late (Flink's BoundedOutOfOrderness strategy).
    pub watermark_lateness_ms: i64,
    /// Channel capacity between instances in *tuples* — the backpressure
    /// bound. Bounded channels count frames, so the actual frame capacity
    /// is `channel_capacity / batch_size` (see
    /// [`RunConfig::frame_capacity`]); this keeps the number of tuples a
    /// congested channel can buffer — and therefore its queueing latency —
    /// independent of the batch size.
    pub channel_capacity: usize,
    /// Keep at most this many sink tuples in the result (latencies are
    /// always collected for all).
    pub capture_limit: usize,
    /// Maximum tuples per outgoing micro-batch frame. `1` sends every tuple
    /// in a frame of its own — the per-tuple data plane, kept as the
    /// measurable baseline.
    pub batch_size: usize,
    /// Rewrite the logical plan with [`crate::chaining::fuse`] before
    /// expansion, turning hash exchanges that send every tuple back to the
    /// instance index it came from into forward edges, which expansion
    /// then chains: the consumer runs in the producer's thread, with no
    /// channel between them. Plan-level rewrite: honored by drivers that
    /// expand logical plans (the controller), not by
    /// [`ThreadedRuntime::run`], which executes an already-expanded
    /// physical plan as given. `false` keeps the authored exchanges;
    /// forward edges the plan already has chain either way.
    pub operator_fusion: bool,
    /// Overload-resilience ladder: pressure-driven adaptive batching and
    /// accounted load shedding, plus watermark-aware allowed lateness.
    /// Disabled by default — see [`OverloadConfig`].
    pub overload: OverloadConfig,
    /// Validate every data frame crossing a worker boundary against the
    /// inferred per-edge schema ([`crate::physical::PhysicalPlan::edge_schemas`]).
    /// Debug mode for the distributed runtime: a mismatched frame fails the
    /// worker with [`crate::error::EngineError::WireSchemaViolation`]
    /// instead of silently corrupting downstream state. Off by default —
    /// the check costs one arity+type scan per wire tuple.
    pub check_schemas: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            watermark_interval: 64,
            watermark_lateness_ms: 0,
            channel_capacity: 1024,
            capture_limit: 100_000,
            batch_size: 128,
            operator_fusion: true,
            overload: OverloadConfig::default(),
            check_schemas: false,
        }
    }
}

impl RunConfig {
    /// Bounded-channel capacity in frames. [`RunConfig::channel_capacity`]
    /// counts tuples; a batched frame carries up to `batch_size` of them,
    /// so the frame bound divides accordingly (never below 1).
    pub fn frame_capacity(&self) -> usize {
        (self.channel_capacity / self.batch_size.max(1)).max(1)
    }

    /// Check that the configuration can drive a run at all. Called by the
    /// runtimes before spawning any worker so misconfiguration surfaces as
    /// a typed error instead of a hang or panic.
    pub fn validate(&self) -> Result<()> {
        if self.channel_capacity == 0 {
            return Err(EngineError::InvalidConfig(
                "channel_capacity must be at least 1 (capacity-0 bounded channels deadlock)".into(),
            ));
        }
        if self.watermark_interval == 0 {
            return Err(EngineError::InvalidConfig(
                "watermark_interval must be at least 1".into(),
            ));
        }
        if self.watermark_lateness_ms < 0 {
            return Err(EngineError::InvalidConfig(
                "watermark_lateness_ms must be non-negative".into(),
            ));
        }
        if self.batch_size == 0 {
            return Err(EngineError::InvalidConfig(
                "batch_size must be at least 1 (1 = per-tuple framing)".into(),
            ));
        }
        self.overload.validate()?;
        Ok(())
    }
}

/// Per-logical-operator execution counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OperatorStats {
    /// Logical node id.
    pub node: usize,
    /// Operator name.
    pub name: String,
    /// Tuples received across all instances.
    pub tuples_in: u64,
    /// Tuples emitted across all instances.
    pub tuples_out: u64,
    /// Tuples dropped by the load-shedding rung (included in `tuples_in`).
    pub shed: u64,
    /// Tuples counted late by windowed/join operators (dropped past the
    /// allowed-lateness bound, or unjoinable).
    pub late: u64,
}

impl OperatorStats {
    /// Observed selectivity (out/in); `None` before any input.
    pub fn observed_selectivity(&self) -> Option<f64> {
        (self.tuples_in > 0).then(|| self.tuples_out as f64 / self.tuples_in as f64)
    }
}

/// Result of one plan execution.
#[derive(Debug)]
pub struct RunResult {
    /// Tuples delivered at sinks (up to `capture_limit`).
    pub sink_tuples: Vec<Tuple>,
    /// Per-delivered-tuple end-to-end latency in nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Total tuples delivered at sinks.
    pub tuples_out: u64,
    /// Total tuples emitted by sources.
    pub tuples_in: u64,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Per-logical-operator counters (intermediate operators only; sources
    /// appear with tuples_in == tuples_out == emitted, sinks with
    /// tuples_out == 0).
    pub operator_stats: Vec<OperatorStats>,
}

impl RunResult {
    /// Source throughput in tuples/second.
    pub fn throughput_in(&self) -> f64 {
        self.tuples_in as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// p-th latency percentile in nanoseconds (p in `[0, 100]`).
    pub fn latency_percentile_ns(&self, p: f64) -> Option<u64> {
        if self.latencies_ns.is_empty() {
            return None;
        }
        let mut v = self.latencies_ns.clone();
        v.sort_unstable();
        let rank = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
        Some(v[rank.min(v.len() - 1)])
    }

    /// Total tuples shed across all operators (0 unless the overload ladder
    /// reached the shedding rung).
    pub fn total_shed(&self) -> u64 {
        self.operator_stats.iter().map(|s| s.shed).sum()
    }

    /// Total late tuples across all operators.
    pub fn total_late(&self) -> u64 {
        self.operator_stats.iter().map(|s| s.late).sum()
    }
}

/// One frame on an instance's input queue, tagged with the input-channel
/// slot it arrived on (for watermark and barrier bookkeeping).
#[derive(Debug, Clone)]
pub(crate) struct Envelope {
    pub(crate) channel: usize,
    pub(crate) msg: Message,
}

/// The multi-threaded executor.
pub struct ThreadedRuntime {
    config: RunConfig,
}

impl ThreadedRuntime {
    /// Create a runtime with the given config.
    pub fn new(config: RunConfig) -> Self {
        ThreadedRuntime { config }
    }

    /// Execute `plan`, feeding each source node (in plan order) from the
    /// corresponding factory in `sources`.
    pub fn run(
        &self,
        plan: &PhysicalPlan,
        sources: &[Arc<dyn SourceFactory>],
    ) -> Result<RunResult> {
        self.run_inner(plan, sources, None)
    }

    /// Execute `plan` with live telemetry: each worker records into `tel`'s
    /// per-instance registry shard and flight recorder, and on failure the
    /// flight recorder is dumped to stderr (when `tel.config.dump_on_error`
    /// is set).
    pub fn run_with_telemetry(
        &self,
        plan: &PhysicalPlan,
        sources: &[Arc<dyn SourceFactory>],
        tel: &RunTelemetry,
    ) -> Result<RunResult> {
        self.run_inner(plan, sources, Some(tel))
    }

    /// One attempt of the shared execution core under the shared
    /// supervisor, with barriers off and no restart: no checkpoint, no
    /// injector, nothing to restore, and the first failure surfaces.
    fn run_inner(
        &self,
        plan: &PhysicalPlan,
        sources: &[Arc<dyn SourceFactory>],
        tel: Option<&RunTelemetry>,
    ) -> Result<RunResult> {
        self.config.validate()?;
        if let Some(t) = tel {
            let n = plan.instance_count();
            t.recorder
                .record(FlightEventKind::RunStarted, 0, 0, format!("{n} instances"));
        }
        let start = Instant::now();
        let settings = ExecSettings {
            run: self.config.clone(),
            exactly_once: false,
            ckpt_interval: 0,
        };
        let once = RestartPolicy {
            max_restarts: 0,
            backoff: Backoff::Fixed(Duration::ZERO),
        };
        let run = supervise(
            plan,
            DeliveryMode::AtLeastOnce,
            &once,
            self.config.capture_limit,
            start,
            tel,
            |_, restore| {
                run_local_attempt(plan, sources, &settings, None, restore, start, tel, false)
            },
        )?;
        Ok(run.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::builder::PlanBuilder;
    use crate::expr::{CmpOp, Predicate};
    use crate::operator::OpKind;
    use crate::value::{FieldType, Schema, Value};
    use crate::window::WindowSpec;

    fn int_tuples(range: std::ops::Range<i64>) -> Vec<Tuple> {
        range
            .map(|i| {
                let mut t = Tuple::new(vec![Value::Int(i)]);
                t.event_time = i;
                t
            })
            .collect()
    }

    fn run_plan(plan: crate::plan::LogicalPlan, tuples: Vec<Tuple>) -> RunResult {
        let phys = PhysicalPlan::expand(&plan).unwrap();
        let rt = ThreadedRuntime::new(RunConfig::default());
        rt.run(&phys, &[VecSource::new(tuples)]).unwrap()
    }

    #[test]
    fn filter_pipeline_end_to_end() {
        let plan = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int]), 1)
            .filter("f", Predicate::cmp(0, CmpOp::Ge, Value::Int(50)), 0.5)
            .sink("sink")
            .build()
            .unwrap();
        let res = run_plan(plan, int_tuples(0..100));
        assert_eq!(res.tuples_out, 50);
        assert_eq!(res.tuples_in, 100);
        assert!(res.latencies_ns.iter().all(|&l| l > 0));
    }

    #[test]
    fn parallel_filter_preserves_cardinality() {
        for p in [1, 2, 4, 8] {
            let plan = PlanBuilder::new()
                .source("src", Schema::of(&[FieldType::Int]), 2)
                .filter("f", Predicate::cmp(0, CmpOp::Lt, Value::Int(30)), 0.3)
                .set_parallelism(1, p)
                .sink("sink")
                .build()
                .unwrap();
            let res = run_plan(plan, int_tuples(0..100));
            assert_eq!(res.tuples_out, 30, "parallelism {p}");
        }
    }

    #[test]
    fn keyed_window_agg_partitions_by_key() {
        // keys 0..4, 25 tuples each; tumbling count 5 per key -> 5 windows/key.
        let tuples: Vec<Tuple> = (0..100)
            .map(|i| {
                let mut t = Tuple::new(vec![Value::Int(i % 4), Value::Int(i)]);
                t.event_time = i;
                t
            })
            .collect();
        let plan = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int, FieldType::Int]), 1)
            .window_agg_keyed("agg", WindowSpec::tumbling_count(5), AggFunc::Count, 1, 0)
            .set_parallelism(1, 4)
            .sink("sink")
            .build()
            .unwrap();
        let res = run_plan(plan, tuples);
        assert_eq!(res.tuples_out, 20, "4 keys x 5 windows");
        for t in &res.sink_tuples {
            assert_eq!(t.values[2], Value::Double(5.0));
        }
    }

    #[test]
    fn time_window_fires_via_watermarks_midstream() {
        // 1000 tuples at 1ms spacing, tumbling 100ms window, watermarks every
        // 64 tuples: most windows fire before EOS.
        let plan = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int]), 1)
            .window_agg_global("agg", WindowSpec::tumbling_time(100), AggFunc::Count, 0)
            .sink("sink")
            .build()
            .unwrap();
        let res = run_plan(plan, int_tuples(0..1000));
        assert_eq!(res.tuples_out, 10);
        for t in &res.sink_tuples {
            assert_eq!(t.values[1], Value::Double(100.0));
        }
    }

    #[test]
    fn join_two_sources() {
        let mut b = PlanBuilder::new();
        let s1 = b.add_node(
            "s1",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int]),
            },
            1,
        );
        let s2 = b.add_node(
            "s2",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int]),
            },
            1,
        );
        let plan = b
            .join("j", s1, s2, WindowSpec::tumbling_time(1_000_000), 0, 0)
            .set_parallelism(2, 2)
            .sink("sink")
            .build()
            .unwrap();
        let phys = PhysicalPlan::expand(&plan).unwrap();
        let rt = ThreadedRuntime::new(RunConfig::default());
        let res = rt
            .run(
                &phys,
                &[
                    VecSource::new(int_tuples(0..50)),
                    VecSource::new(int_tuples(0..50)),
                ],
            )
            .unwrap();
        // Every left tuple joins exactly its equal right tuple.
        assert_eq!(res.tuples_out, 50);
        for t in &res.sink_tuples {
            assert_eq!(t.values[0], t.values[1]);
        }
    }

    #[test]
    fn word_count_flatmap_agg() {
        let sentences: Vec<Tuple> = (0..20)
            .map(|i| {
                let mut t = Tuple::new(vec![Value::str("a b c d e")]);
                t.event_time = i;
                t
            })
            .collect();
        let plan = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Str]), 1)
            .flat_map_split("split", 0)
            .window_agg_keyed(
                "count",
                WindowSpec::tumbling_count(20),
                AggFunc::Count,
                0,
                0,
            )
            .set_parallelism(1, 2)
            .set_parallelism(2, 2)
            .sink("sink")
            .build()
            .unwrap();
        let res = run_plan(plan, sentences);
        // 5 distinct words x 20 occurrences: each key fires once at count 20.
        assert_eq!(res.tuples_out, 5);
        for t in &res.sink_tuples {
            assert_eq!(t.values[2], Value::Double(20.0));
        }
    }

    #[test]
    fn bounded_lateness_absorbs_out_of_order_tuples() {
        // 1000 tuples whose event times are shuffled within +/-8ms. With a
        // lateness bound of 16ms the tumbling windows still count every
        // tuple; with no bound some tuples arrive behind the watermark and
        // are dropped.
        let make_tuples = || -> Vec<Tuple> {
            (0..1000i64)
                .map(|i| {
                    let mut t = Tuple::new(vec![Value::Int(i)]);
                    t.event_time = i + (i * 7919 % 17) - 8; // +/-8ms jitter
                    t
                })
                .collect()
        };
        let plan = || {
            PlanBuilder::new()
                .source("src", Schema::of(&[FieldType::Int]), 1)
                .window_agg_global("agg", WindowSpec::tumbling_time(100), AggFunc::Count, 0)
                .sink("sink")
                .build()
                .unwrap()
        };
        let run = |lateness: i64| {
            let phys = PhysicalPlan::expand(&plan()).unwrap();
            let rt = ThreadedRuntime::new(RunConfig {
                watermark_lateness_ms: lateness,
                watermark_interval: 16,
                ..RunConfig::default()
            });
            let res = rt.run(&phys, &[VecSource::new(make_tuples())]).unwrap();
            res.sink_tuples
                .iter()
                .map(|t| t.values[1].as_f64().unwrap() as u64)
                .sum::<u64>()
        };
        let counted_with_bound = run(16);
        let counted_without = run(0);
        assert_eq!(counted_with_bound, 1000, "bounded lateness loses nothing");
        assert!(
            counted_without < 1000,
            "without a lateness bound some tuples are late: {counted_without}"
        );
    }

    #[test]
    fn session_window_groups_bursts_end_to_end() {
        // Two bursts per key separated by a 500ms quiet period; gap 100ms.
        let mut tuples = Vec::new();
        for key in 0..3i64 {
            for burst in 0..2i64 {
                for i in 0..10i64 {
                    let mut t = Tuple::new(vec![Value::Int(key), Value::Int(i)]);
                    t.event_time = burst * 1_000 + i * 20; // 20ms spacing
                    tuples.push(t);
                }
            }
        }
        tuples.sort_by_key(|t| t.event_time);
        let plan = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int, FieldType::Int]), 1)
            .session_window_keyed("sessions", 100, AggFunc::Count, 1, 0)
            .set_parallelism(1, 2)
            .sink("sink")
            .build()
            .unwrap();
        let res = run_plan(plan, tuples);
        // 3 keys x 2 bursts = 6 sessions of 10 events each.
        assert_eq!(res.tuples_out, 6);
        for t in &res.sink_tuples {
            assert_eq!(t.values[2], Value::Double(10.0));
        }
    }

    #[test]
    fn source_factory_mismatch_is_error() {
        let plan = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int]), 1)
            .sink("sink")
            .build()
            .unwrap();
        let phys = PhysicalPlan::expand(&plan).unwrap();
        let rt = ThreadedRuntime::new(RunConfig::default());
        assert!(rt.run(&phys, &[]).is_err());
    }

    #[test]
    fn latency_percentiles_are_monotone() {
        let plan = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int]), 1)
            .filter("f", Predicate::True, 1.0)
            .sink("sink")
            .build()
            .unwrap();
        let res = run_plan(plan, int_tuples(0..500));
        let p50 = res.latency_percentile_ns(50.0).unwrap();
        let p99 = res.latency_percentile_ns(99.0).unwrap();
        assert!(p50 <= p99);
    }

    #[test]
    fn zero_channel_capacity_is_rejected_before_spawning() {
        let plan = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int]), 1)
            .sink("sink")
            .build()
            .unwrap();
        let phys = PhysicalPlan::expand(&plan).unwrap();
        let rt = ThreadedRuntime::new(RunConfig {
            channel_capacity: 0,
            ..RunConfig::default()
        });
        match rt.run(&phys, &[VecSource::new(int_tuples(0..10))]) {
            Err(EngineError::InvalidConfig(msg)) => {
                assert!(msg.contains("channel_capacity"))
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn zero_watermark_interval_is_rejected() {
        assert!(matches!(
            RunConfig {
                watermark_interval: 0,
                ..RunConfig::default()
            }
            .validate(),
            Err(EngineError::InvalidConfig(_))
        ));
        assert!(RunConfig::default().validate().is_ok());
    }

    #[test]
    fn worker_panic_reports_node_instance_and_cause() {
        use crate::udo::{CostProfile, FnUdo};
        let bomb = FnUdo::new(
            "bomb",
            CostProfile::stateless(100.0, 1.0),
            |s: &Schema| s.clone(),
            |t: Tuple, out: &mut Vec<Tuple>| {
                if t.values[0] == Value::Int(5) {
                    panic!("boom at tuple 5");
                }
                out.push(t);
            },
        );
        let plan = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int]), 1)
            .udo("bomb", bomb)
            .sink("sink")
            .build()
            .unwrap();
        let phys = PhysicalPlan::expand(&plan).unwrap();
        let rt = ThreadedRuntime::new(RunConfig::default());
        match rt.run(&phys, &[VecSource::new(int_tuples(0..10))]) {
            Err(EngineError::WorkerPanicked {
                node,
                instance,
                cause,
            }) => {
                assert_eq!(node, 1, "the UDO is logical node 1");
                assert_eq!(instance, 0);
                assert!(cause.contains("boom at tuple 5"), "cause: {cause}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn source_iterator_panic_reports_the_source_node_and_instance() {
        // The iterator runs on the source's reader thread; its panic must
        // still surface as the source worker's. Raised past the panic hook:
        // the hook's message, written from a grandchild of the test thread
        // into libtest's captured output, is a ThreadSanitizer false
        // positive (std's mutex around that buffer is not instrumented).
        struct Bomb;
        impl SourceFactory for Bomb {
            fn instance_iter(&self, _: usize, _: usize) -> Box<dyn Iterator<Item = Tuple> + Send> {
                Box::new(int_tuples(0..10).into_iter().inspect(|t| {
                    if t.values[0] == Value::Int(5) {
                        std::panic::resume_unwind(Box::new("source boom at tuple 5"));
                    }
                }))
            }
        }
        let plan = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int]), 1)
            .sink("sink")
            .build()
            .unwrap();
        let phys = PhysicalPlan::expand(&plan).unwrap();
        let rt = ThreadedRuntime::new(RunConfig::default());
        match rt.run(&phys, &[Arc::new(Bomb)]) {
            Err(EngineError::WorkerPanicked {
                node,
                instance,
                cause,
            }) => {
                assert_eq!((node, instance), (0, 0), "the source is logical node 0");
                assert!(cause.contains("source boom at tuple 5"), "cause: {cause}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }

    #[test]
    fn vec_source_partitions_disjointly() {
        let src = VecSource::new(int_tuples(0..10));
        let a: Vec<_> = src.instance_iter(0, 2).collect();
        let b: Vec<_> = src.instance_iter(1, 2).collect();
        assert_eq!(a.len() + b.len(), 10);
        for t in &a {
            assert!(!b.contains(t));
        }
    }
}
