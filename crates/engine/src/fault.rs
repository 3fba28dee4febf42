//! Fault injection and checkpoint-based recovery.
//!
//! [`FtRuntime`] runs the threaded execution model with aligned checkpoint
//! barriers on (Chandy–Lamport as deployed in Flink): source instances emit
//! [`Message::Barrier`] every `checkpoint_interval_tuples` tuples, operators
//! align barriers across their input channels, snapshot their state through
//! [`crate::operator::OperatorInstance::snapshot`], and forward the barrier.
//! A supervising loop detects worker death — a panic or a [`FaultInjector`]
//! firing — restores the last complete snapshot, rewinds each source to its
//! recorded offset and replays. Under [`DeliveryMode::ExactlyOnce`] channels
//! that already delivered the in-flight barrier are blocked until the
//! checkpoint completes, so snapshots contain exactly the pre-barrier
//! prefix; under [`DeliveryMode::AtLeastOnce`] nothing blocks and replay may
//! re-deliver.
//!
//! A sink checkpoints only its delivered count, as a source its offset; what
//! it delivers reaches the supervisor as deltas ahead of that part and is
//! appended to one log per sink, never to a snapshot.
//!
//! The per-attempt worker loops live in `crate::exec` and are shared with
//! the threaded and distributed runtimes. So is the supervisor: `supervise`
//! is the one attempt/restart loop — ledger, budget, backoff, recovery
//! events — and each runtime only says how to run one attempt. `FtRuntime`
//! runs single-process attempts (`crate::exec::run_local_attempt`);
//! `ThreadedRuntime` runs the same attempt once, barriers off and no
//! restart budget; the distributed coordinator runs a fleet of worker
//! processes per attempt.
//!
//! UDO state is opaque to the engine and is *not* snapshotted; jobs with
//! stateful UDOs recover with at-least-once semantics regardless of mode.

use crate::error::{EngineError, Result};
use crate::exec::{
    assemble, decode_position, encode_position, run_local_attempt, Attempt, ExecSettings, Report,
    SinkState,
};
#[allow(unused_imports)] // referenced by the module docs
use crate::message::Message;
use crate::physical::PhysicalPlan;
use crate::runtime::{RunConfig, RunResult, SourceFactory};
use pdsp_telemetry::{FlightEventKind, RunTelemetry};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When an injected fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// After the target instance has processed this many tuples (counted
    /// per attempt, so a restarted instance is not re-killed).
    AfterTuples(u64),
}

/// How the fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStyle {
    /// The worker returns [`EngineError::FaultInjected`] (clean error path).
    Error,
    /// The worker thread panics (exercises panic capture).
    Panic,
}

struct InjectorInner {
    node: usize,
    instance: usize,
    trigger: FaultTrigger,
    style: FaultStyle,
    fired: AtomicBool,
}

/// Kills one operator instance once, at a configurable point. Cloneable;
/// all clones share the single-shot trigger.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<InjectorInner>,
}

impl FaultInjector {
    /// Injector that kills instance `instance` of logical node `node`.
    pub fn new(node: usize, instance: usize, trigger: FaultTrigger, style: FaultStyle) -> Self {
        FaultInjector {
            inner: Arc::new(InjectorInner {
                node,
                instance,
                trigger,
                style,
                fired: AtomicBool::new(false),
            }),
        }
    }

    /// Kill after the target processed `tuples` tuples (error style).
    pub fn after_tuples(node: usize, instance: usize, tuples: u64) -> Self {
        FaultInjector::new(
            node,
            instance,
            FaultTrigger::AfterTuples(tuples),
            FaultStyle::Error,
        )
    }

    /// Same target and trigger, but the worker panics instead of erroring.
    pub fn panicking(self) -> Self {
        FaultInjector::new(
            self.inner.node,
            self.inner.instance,
            self.inner.trigger,
            FaultStyle::Panic,
        )
    }

    /// Whether the fault has already fired.
    pub fn fired(&self) -> bool {
        self.inner.fired.load(Ordering::SeqCst)
    }

    /// Called by workers on each processed tuple. Errors (or panics) once
    /// when the target instance crosses the trigger.
    pub fn check(&self, node: usize, instance: usize, tuples_seen: u64) -> Result<()> {
        let i = &*self.inner;
        if node != i.node || instance != i.instance || i.fired.load(Ordering::Relaxed) {
            return Ok(());
        }
        let due = match i.trigger {
            FaultTrigger::AfterTuples(n) => tuples_seen >= n,
        };
        if due && !i.fired.swap(true, Ordering::SeqCst) {
            match i.style {
                FaultStyle::Error => {
                    return Err(EngineError::FaultInjected { node, instance });
                }
                FaultStyle::Panic => {
                    panic!("injected fault killed node {node} instance {instance}")
                }
            }
        }
        Ok(())
    }
}

/// Delivery guarantee the checkpoint protocol provides after recovery.
/// Serializable so the coordinator can ship it in the deploy message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeliveryMode {
    /// No channel blocking: replay may re-deliver tuples processed between
    /// the restored checkpoint and the failure.
    AtLeastOnce,
    /// Aligned barriers with channel blocking: state and sink output reflect
    /// each tuple exactly once.
    ExactlyOnce,
}

/// How many times, and how eagerly, the supervisor restarts a failed job.
#[derive(Debug, Clone, Copy)]
pub struct RestartPolicy {
    /// Maximum restarts before the job error is surfaced (Flink's
    /// fixed-delay restart strategy).
    pub max_restarts: usize,
    /// Delay between failure detection and respawn.
    pub backoff: Duration,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 3,
            backoff: Duration::from_millis(10),
        }
    }
}

/// Configuration of the fault-tolerant runtime.
#[derive(Debug, Clone)]
pub struct FtConfig {
    /// Each source instance emits a barrier every this many tuples.
    pub checkpoint_interval_tuples: u64,
    /// Delivery guarantee (channel blocking on barriers).
    pub mode: DeliveryMode,
    /// Restart budget and backoff.
    pub restart: RestartPolicy,
    /// Underlying runtime configuration.
    pub run: RunConfig,
}

impl Default for FtConfig {
    fn default() -> Self {
        FtConfig {
            checkpoint_interval_tuples: 256,
            mode: DeliveryMode::ExactlyOnce,
            restart: RestartPolicy::default(),
            run: RunConfig::default(),
        }
    }
}

impl FtConfig {
    /// Validate the combined configuration.
    pub fn validate(&self) -> Result<()> {
        self.run.validate()?;
        if self.checkpoint_interval_tuples == 0 {
            return Err(EngineError::InvalidConfig(
                "checkpoint_interval_tuples must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// Recovery bookkeeping of one fault-tolerant run.
#[derive(Debug, Clone)]
pub struct RecoveryStats {
    /// Execution attempts (1 = no failure).
    pub attempts: usize,
    /// Checkpoints for which every instance produced its part.
    pub completed_checkpoints: u64,
    /// Id of the checkpoint the last restart restored (None = cold restart
    /// or no failure).
    pub restored_checkpoint: Option<u64>,
    /// Per-restart recovery time: failure detection to respawn, including
    /// backoff, in milliseconds.
    pub recovery_times_ms: Vec<f64>,
    /// Source tuples re-emitted during replay (emitted-at-failure minus
    /// restored offset, summed over source instances and restarts).
    pub replayed_tuples: u64,
    /// Sink deliveries repeated because of replay (at-least-once only).
    pub duplicate_tuples: u64,
    /// Sink deliveries discarded by cutting the sink logs back to the
    /// restored checkpoint (exactly-once only; they are re-delivered
    /// exactly once).
    pub rolled_back_tuples: u64,
    /// Tuples dropped behind the watermark across operators.
    pub late_tuples: u64,
    /// Delivery mode the run used.
    pub mode: DeliveryMode,
}

/// Result of a fault-tolerant execution.
#[derive(Debug)]
pub struct FtRunResult {
    /// The usual run result (elapsed includes recovery time).
    pub result: RunResult,
    /// Recovery accounting.
    pub recovery: RecoveryStats,
}

/// The bookkeeping of [`supervise`]: every checkpoint part and one delivery
/// log per sink instance, across attempts — the only copy of sink output.
/// After a failure it restores the newest complete checkpoint, reconciles
/// the logs with it and accounts what replay will repeat.
pub(crate) struct RestartLedger {
    /// Instances per checkpoint: a checkpoint is complete with this many parts.
    instances: usize,
    /// Checkpoint id -> instance id -> state bytes.
    parts: HashMap<u64, HashMap<usize, Vec<u8>>>,
    /// Everything each sink instance delivered, in delivery order.
    logs: BTreeMap<usize, SinkState>,
    /// What the next attempt restores, by instance id (empty = cold start).
    restore: HashMap<usize, Vec<u8>>,
    /// Recovery accounting, returned with the run result.
    stats: RecoveryStats,
}

impl RestartLedger {
    /// Empty ledger for a plan of `instances` physical instances.
    pub(crate) fn new(instances: usize, mode: DeliveryMode) -> Self {
        RestartLedger {
            instances,
            parts: HashMap::new(),
            logs: BTreeMap::new(),
            restore: HashMap::new(),
            stats: RecoveryStats {
                attempts: 0,
                completed_checkpoints: 0,
                restored_checkpoint: None,
                recovery_times_ms: Vec::new(),
                replayed_tuples: 0,
                duplicate_tuples: 0,
                rolled_back_tuples: 0,
                late_tuples: 0,
                mode,
            },
        }
    }

    /// Record an attempt's reports: parts by checkpoint, deliveries appended
    /// to their sink's log.
    pub(crate) fn record(&mut self, reports: Vec<Report>) {
        for report in reports {
            match report {
                Report::Part(id, inst, bytes) => {
                    self.parts.entry(id).or_default().insert(inst, bytes);
                }
                Report::Delivered(inst, delta) => {
                    let log = self.logs.entry(inst).or_default();
                    log.captured.extend(delta.captured);
                    log.latencies.extend(delta.latencies);
                }
            }
        }
        let n = self.instances;
        self.stats.completed_checkpoints =
            self.parts.values().filter(|p| p.len() == n).count() as u64;
    }

    /// Deliveries in all sink logs.
    pub(crate) fn delivered(&self) -> u64 {
        self.logs.values().map(SinkState::delivered).sum()
    }

    /// Prepare the next attempt after a failure: restore the newest
    /// checkpoint with a part from every instance (or start cold), count the
    /// source tuples replay re-emits from `offsets_at_failure` (indexed by
    /// instance id), and charge the sink deliveries past the checkpoint as
    /// duplicates (at-least-once: logs kept, each sink resumes at its log's
    /// length) or as rolled back (exactly-once: logs cut back to the
    /// checkpoint). Returns the restored checkpoint id.
    pub(crate) fn restart(
        &mut self,
        plan: &PhysicalPlan,
        offsets_at_failure: &[u64],
        sink_total_at_failure: u64,
    ) -> Result<Option<u64>> {
        let n = self.instances;
        let restored = self
            .parts
            .iter()
            .filter(|(_, p)| p.len() == n)
            .map(|(&id, _)| id)
            .max();
        // Newer checkpoints never completed: their parts could count
        // deliveries the logs are about to drop.
        self.parts.retain(|&id, _| Some(id) <= restored);
        self.stats.restored_checkpoint = restored;
        self.restore = restored
            .map(|id| self.parts[&id].clone())
            .unwrap_or_default();
        for src in plan.source_instances() {
            let offset = decode_position(self.restore.get(&src), "source offset")?;
            self.stats.replayed_tuples += offsets_at_failure[src].saturating_sub(offset);
        }
        let exactly_once = self.stats.mode == DeliveryMode::ExactlyOnce;
        let mut checkpointed = 0;
        for inst in plan.sink_instances() {
            let count = decode_position(self.restore.get(&inst), "sink count")?;
            checkpointed += count;
            let log = self.logs.entry(inst).or_default();
            if exactly_once {
                log.truncate(count)?;
            } else {
                self.restore.insert(inst, encode_position(log.delivered()));
            }
        }
        let delta = sink_total_at_failure.saturating_sub(checkpointed);
        if exactly_once {
            self.stats.rolled_back_tuples += delta;
        } else {
            self.stats.duplicate_tuples += delta;
        }
        Ok(restored)
    }
}

/// The one attempt/restart loop every runtime drives: run attempt 1 cold,
/// and after each failed attempt restore the newest complete checkpoint,
/// back off and run the next, until an attempt succeeds or `policy`'s
/// budget runs out — then the failed attempt's own root cause surfaces.
/// `attempt(n, restore)` runs attempt `n` (1-based) from `restore`; its
/// `Err` is a non-retryable setup failure. Flight events go to `tel`.
pub(crate) fn supervise(
    plan: &PhysicalPlan,
    mode: DeliveryMode,
    policy: &RestartPolicy,
    capture_limit: usize,
    start: Instant,
    tel: Option<&RunTelemetry>,
    mut attempt: impl FnMut(usize, &HashMap<usize, Vec<u8>>) -> Result<Attempt>,
) -> Result<FtRunResult> {
    let record = |kind, text: String| {
        if let Some(t) = tel {
            t.recorder.record(kind, 0, 0, text);
        }
    };
    let mut ledger = RestartLedger::new(plan.instance_count(), mode);
    loop {
        ledger.stats.attempts += 1;
        // What this attempt's sinks resume from.
        let resumed = ledger.delivered();
        let att = attempt(ledger.stats.attempts, &ledger.restore)?;
        ledger.record(att.reports);
        let root = match att.outcome {
            Ok(()) => {
                let result = assemble(
                    plan,
                    capture_limit,
                    std::mem::take(&mut ledger.logs),
                    &att.op_stats,
                    &att.offsets,
                    start,
                );
                ledger.stats.late_tuples = result.total_late();
                record(
                    FlightEventKind::RunFinished,
                    format!(
                        "{} tuples delivered after {} attempt(s)",
                        result.tuples_out, ledger.stats.attempts
                    ),
                );
                return Ok(FtRunResult {
                    result,
                    recovery: ledger.stats,
                });
            }
            Err(root) => root,
        };
        let detected = Instant::now();
        let restarts_used = ledger.stats.attempts - 1;
        if restarts_used >= policy.max_restarts {
            if let Some(t) = tel.filter(|t| t.config.dump_on_error) {
                t.recorder.dump_to_stderr(&format!(
                    "restart budget exhausted ({restarts_used} restarts): {root}"
                ));
            }
            return Err(root);
        }
        // A SIGKILL takes unsent deltas with it: heartbeats may know of more
        // deliveries than the logs hold.
        let at_failure = ledger.delivered().max(resumed + att.delivered_seen);
        let restored = ledger.restart(plan, &att.offsets, at_failure)?;
        record(
            FlightEventKind::RecoveryStarted,
            match restored {
                Some(id) => format!("restoring checkpoint {id}: {root}"),
                None => format!("cold restart (no complete checkpoint): {root}"),
            },
        );
        std::thread::sleep(policy.backoff);
        let recovery_ms = detected.elapsed().as_secs_f64() * 1e3;
        ledger.stats.recovery_times_ms.push(recovery_ms);
        record(
            FlightEventKind::RestartCompleted,
            format!("restart {} after {recovery_ms:.2} ms", restarts_used + 1),
        );
    }
}

/// The supervising fault-tolerant executor.
pub struct FtRuntime {
    config: FtConfig,
}

impl FtRuntime {
    /// Create a fault-tolerant runtime.
    pub fn new(config: FtConfig) -> Self {
        FtRuntime { config }
    }

    /// Execute `plan` under supervision. `injector` optionally kills one
    /// instance; any worker panic is likewise treated as a failure and
    /// recovered from the last complete checkpoint.
    pub fn run(
        &self,
        plan: &PhysicalPlan,
        sources: &[Arc<dyn SourceFactory>],
        injector: Option<FaultInjector>,
    ) -> Result<FtRunResult> {
        self.run_with_telemetry(plan, sources, injector, None)
    }

    /// Like [`FtRuntime::run`], but with live telemetry: per-instance
    /// metrics (including checkpoint durations and restart counts) flow
    /// into `tel`'s registry, barriers / checkpoints / faults / recoveries
    /// are logged to the flight recorder, and a run that exhausts its
    /// restart budget dumps the recorder to stderr (when
    /// `tel.config.dump_on_error` is set).
    pub fn run_with_telemetry(
        &self,
        plan: &PhysicalPlan,
        sources: &[Arc<dyn SourceFactory>],
        injector: Option<FaultInjector>,
        tel: Option<&RunTelemetry>,
    ) -> Result<FtRunResult> {
        self.config.validate()?;
        let n = plan.instance_count();
        if let Some(t) = tel {
            t.recorder.record(
                FlightEventKind::RunStarted,
                0,
                0,
                format!("{n} instances, checkpoint every {} tuples", {
                    self.config.checkpoint_interval_tuples
                }),
            );
        }
        let start = Instant::now();
        let settings = ExecSettings {
            run: self.config.run.clone(),
            exactly_once: self.config.mode == DeliveryMode::ExactlyOnce,
            ckpt_interval: self.config.checkpoint_interval_tuples,
        };
        supervise(
            plan,
            self.config.mode,
            &self.config.restart,
            self.config.run.capture_limit,
            start,
            tel,
            |attempt, restore| {
                let inj = injector.clone();
                run_local_attempt(
                    plan,
                    sources,
                    &settings,
                    inj,
                    restore,
                    start,
                    tel,
                    attempt > 1,
                )
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injector_fires_exactly_once_for_its_target() {
        let inj = FaultInjector::after_tuples(3, 1, 5);
        assert!(inj.check(2, 1, 100).is_ok(), "other node untouched");
        assert!(inj.check(3, 0, 100).is_ok(), "other instance untouched");
        assert!(inj.check(3, 1, 4).is_ok(), "below threshold");
        assert!(matches!(
            inj.check(3, 1, 5),
            Err(EngineError::FaultInjected {
                node: 3,
                instance: 1
            })
        ));
        assert!(inj.fired());
        assert!(inj.check(3, 1, 500).is_ok(), "single shot");
    }

    #[test]
    fn panicking_injector_panics() {
        let inj = FaultInjector::after_tuples(0, 0, 0).panicking();
        let res = std::panic::catch_unwind(|| {
            let _ = inj.check(0, 0, 0);
        });
        assert!(res.is_err());
        assert!(inj.fired());
    }

    #[test]
    fn ft_config_validation() {
        let mut cfg = FtConfig::default();
        assert!(cfg.validate().is_ok());
        cfg.checkpoint_interval_tuples = 0;
        assert!(matches!(cfg.validate(), Err(EngineError::InvalidConfig(_))));
        let bad_run = FtConfig {
            run: RunConfig {
                channel_capacity: 0,
                ..RunConfig::default()
            },
            ..FtConfig::default()
        };
        assert!(bad_run.validate().is_err());
    }

    /// One source feeding one sink, driven through `supervise` by a script:
    /// attempt 1 reaches offset 900 with checkpoint 1 (offset 300) complete,
    /// attempt 2 reaches 600, attempt 3 runs to 1 000. Replay is counted
    /// from the offsets each failed attempt reached, not from the furthest
    /// any attempt reached.
    #[test]
    fn replay_after_a_second_failure_counts_each_attempts_own_offsets() {
        use crate::builder::PlanBuilder;
        use crate::value::{FieldType, Schema, Tuple, Value};
        let logical = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int]), 1)
            .sink("sink")
            .build()
            .unwrap();
        let plan = PhysicalPlan::expand(&logical).unwrap();
        let (src, sink) = (plan.source_instances()[0], plan.sink_instances()[0]);
        let rows = |r: std::ops::Range<i64>| -> Vec<Tuple> {
            r.map(|i| Tuple::new(vec![Value::Int(i)])).collect()
        };
        let delivered = |r: std::ops::Range<i64>| {
            let latencies = r.clone().map(|_| 1).collect();
            Report::Delivered(
                sink,
                SinkState {
                    captured: rows(r),
                    latencies,
                },
            )
        };
        let fault = |instance| Err(EngineError::FaultInjected { node: 0, instance });
        let attempt = |reports, reached: u64, outcome| Attempt {
            outcome,
            reports,
            op_stats: Vec::new(),
            offsets: vec![reached, 0],
            delivered_seen: 0,
        };
        let script = |n: usize, restore: &HashMap<usize, Vec<u8>>| {
            let at = |inst| decode_position(restore.get(&inst), "position").unwrap();
            if n > 1 {
                assert_eq!((at(src), at(sink)), (300, 300), "attempt {n} restore");
            }
            Ok(match n {
                1 => {
                    let part = |inst| Report::Part(1, inst, encode_position(300));
                    let reports = vec![
                        delivered(0..300),
                        part(src),
                        part(sink),
                        delivered(300..900),
                    ];
                    attempt(reports, 900, fault(0))
                }
                2 => attempt(vec![delivered(300..600)], 600, fault(1)),
                _ => attempt(vec![delivered(300..1_000)], 1_000, Ok(())),
            })
        };
        let run = |max_restarts| {
            let policy = RestartPolicy {
                max_restarts,
                backoff: Duration::ZERO,
            };
            let mode = DeliveryMode::ExactlyOnce;
            supervise(&plan, mode, &policy, 10_000, Instant::now(), None, script)
        };
        let done = run(3).unwrap();
        let r = &done.recovery;
        assert_eq!((r.attempts, r.restored_checkpoint), (3, Some(1)));
        assert_eq!(r.replayed_tuples, (900 - 300) + (600 - 300));
        assert_eq!(r.rolled_back_tuples, (900 - 300) + (600 - 300));
        assert_eq!((r.duplicate_tuples, r.recovery_times_ms.len()), (0, 2));
        // Each restart cut the sink log back to the checkpoint's 300, so the
        // output is every row once, in order.
        assert_eq!(done.result.tuples_out, 1_000);
        assert_eq!(done.result.sink_tuples, rows(0..1_000));

        let err = run(1).expect_err("one restart allowed, two failures");
        let second = matches!(err, EngineError::FaultInjected { instance: 1, .. });
        assert!(second, "the second failure surfaces: {err}");
    }

    #[test]
    fn delivery_mode_serializes_for_the_wire() {
        let json = serde_json::to_string(&DeliveryMode::ExactlyOnce).unwrap();
        let back: DeliveryMode = serde_json::from_str(&json).unwrap();
        assert_eq!(back, DeliveryMode::ExactlyOnce);
    }
}
