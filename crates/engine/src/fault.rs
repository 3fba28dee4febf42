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
//! the threaded and distributed runtimes — this module supervises
//! single-process attempts (`crate::exec::run_local_attempt`, the same call
//! `ThreadedRuntime` makes once with barriers off). The bookkeeping between
//! attempts — parts, sink logs, recovery accounting — is `RestartLedger`,
//! shared with the distributed coordinator.
//!
//! UDO state is opaque to the engine and is *not* snapshotted; jobs with
//! stateful UDOs recover with at-least-once semantics regardless of mode.

use crate::error::{EngineError, Result};
use crate::exec::{
    assemble, decode_position, encode_position, run_local_attempt, ExecSettings, Report, SinkState,
};
#[allow(unused_imports)] // referenced by the module docs
use crate::message::Message;
use crate::physical::PhysicalPlan;
use crate::runtime::{RunConfig, RunResult, SourceFactory};
use pdsp_telemetry::{FlightEventKind, RunTelemetry};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// When an injected fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// After the target instance has processed this many tuples (counted
    /// per attempt, so a restarted instance is not re-killed).
    AfterTuples(u64),
    /// After this much wall-clock time since the injector was armed.
    AfterMillis(u64),
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
    armed_at: Instant,
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
                armed_at: Instant::now(),
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

    /// Kill `ms` milliseconds after arming (error style).
    pub fn after_millis(node: usize, instance: usize, ms: u64) -> Self {
        FaultInjector::new(
            node,
            instance,
            FaultTrigger::AfterMillis(ms),
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
            FaultTrigger::AfterMillis(ms) => i.armed_at.elapsed() >= Duration::from_millis(ms),
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

/// Backoff between restart attempts.
#[derive(Debug, Clone, Copy)]
pub enum Backoff {
    /// The same delay before every restart.
    Fixed(Duration),
    /// `initial * factor^restart`, capped at `max`.
    Exponential {
        /// Delay before the first restart.
        initial: Duration,
        /// Multiplier per successive restart.
        factor: f64,
        /// Upper bound on the delay.
        max: Duration,
    },
}

/// How many times, and how eagerly, the supervisor restarts a failed job.
#[derive(Debug, Clone, Copy)]
pub struct RestartPolicy {
    /// Maximum restarts before the job error is surfaced (Flink's
    /// fixed-delay restart strategy).
    pub max_restarts: usize,
    /// Delay schedule between failure detection and respawn.
    pub backoff: Backoff,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 3,
            backoff: Backoff::Fixed(Duration::from_millis(10)),
        }
    }
}

impl RestartPolicy {
    /// Delay before restart number `restart` (0-based).
    pub fn delay(&self, restart: usize) -> Duration {
        match self.backoff {
            Backoff::Fixed(d) => d,
            Backoff::Exponential {
                initial,
                factor,
                max,
            } => {
                let scaled = initial.as_secs_f64() * factor.max(1.0).powi(restart as i32);
                Duration::from_secs_f64(scaled.min(max.as_secs_f64()))
            }
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

/// The bookkeeping of every driver: every checkpoint part and one delivery
/// log per sink instance, across attempts — the only copy of sink output.
/// After a failure it restores the newest complete checkpoint, reconciles
/// the logs with it and accounts what replay will repeat. Backoff,
/// telemetry and giving up stay with the caller.
pub(crate) struct RestartLedger {
    /// Instances per checkpoint: a checkpoint is complete with this many parts.
    instances: usize,
    /// Checkpoint id -> instance id -> state bytes.
    parts: HashMap<u64, HashMap<usize, Vec<u8>>>,
    /// Everything each sink instance delivered, in delivery order.
    pub(crate) logs: BTreeMap<usize, SinkState>,
    /// What the next attempt restores, by instance id (empty = cold start).
    pub(crate) restore: HashMap<usize, Vec<u8>>,
    /// Recovery accounting, returned with the run result.
    pub(crate) stats: RecoveryStats,
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
        let emitted: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let settings = ExecSettings {
            run: self.config.run.clone(),
            exactly_once: self.config.mode == DeliveryMode::ExactlyOnce,
            ckpt_interval: self.config.checkpoint_interval_tuples,
        };
        let mut ledger = RestartLedger::new(n, self.config.mode);

        loop {
            ledger.stats.attempts += 1;
            let attempt = run_local_attempt(
                plan,
                sources,
                &settings,
                injector.clone(),
                &ledger.restore,
                &emitted,
                start,
                tel,
                ledger.stats.attempts > 1,
            )?;
            ledger.record(attempt.reports);
            let root = match attempt.outcome {
                Ok(()) => {
                    let result = assemble(
                        plan,
                        self.config.run.capture_limit,
                        std::mem::take(&mut ledger.logs),
                        &attempt.op_stats,
                        &attempt.offsets,
                        start,
                    );
                    ledger.stats.late_tuples = result.total_late();
                    if let Some(t) = tel {
                        t.recorder.record(
                            FlightEventKind::RunFinished,
                            0,
                            0,
                            format!(
                                "{} tuples delivered after {} attempt(s)",
                                result.tuples_out, ledger.stats.attempts
                            ),
                        );
                    }
                    return Ok(FtRunResult {
                        result,
                        recovery: ledger.stats,
                    });
                }
                Err(root) => root,
            };
            let detected = Instant::now();
            let restarts_used = ledger.stats.attempts - 1;
            if restarts_used >= self.config.restart.max_restarts {
                if let Some(t) = tel {
                    if t.config.dump_on_error {
                        t.recorder.dump_to_stderr(&format!(
                            "restart budget exhausted ({} restarts): {root}",
                            restarts_used
                        ));
                    }
                }
                return Err(root);
            }
            let restored = ledger.restart(plan, &attempt.offsets, ledger.delivered())?;
            if let Some(t) = tel {
                t.recorder.record(
                    FlightEventKind::RecoveryStarted,
                    0,
                    0,
                    match restored {
                        Some(id) => format!("restoring checkpoint {id}: {root}"),
                        None => format!("cold restart (no complete checkpoint): {root}"),
                    },
                );
            }
            std::thread::sleep(self.config.restart.delay(restarts_used));
            let recovery_ms = detected.elapsed().as_secs_f64() * 1e3;
            ledger.stats.recovery_times_ms.push(recovery_ms);
            if let Some(t) = tel {
                t.recorder.record(
                    FlightEventKind::RestartCompleted,
                    0,
                    0,
                    format!("restart {} after {recovery_ms:.2} ms", restarts_used + 1),
                );
            }
        }
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
    fn backoff_schedules() {
        let fixed = RestartPolicy {
            max_restarts: 3,
            backoff: Backoff::Fixed(Duration::from_millis(7)),
        };
        assert_eq!(fixed.delay(0), Duration::from_millis(7));
        assert_eq!(fixed.delay(5), Duration::from_millis(7));
        let exp = RestartPolicy {
            max_restarts: 3,
            backoff: Backoff::Exponential {
                initial: Duration::from_millis(10),
                factor: 2.0,
                max: Duration::from_millis(25),
            },
        };
        assert_eq!(exp.delay(0), Duration::from_millis(10));
        assert_eq!(exp.delay(1), Duration::from_millis(20));
        assert_eq!(exp.delay(2), Duration::from_millis(25), "capped");
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

    #[test]
    fn delivery_mode_serializes_for_the_wire() {
        let json = serde_json::to_string(&DeliveryMode::ExactlyOnce).unwrap();
        let back: DeliveryMode = serde_json::from_str(&json).unwrap();
        assert_eq!(back, DeliveryMode::ExactlyOnce);
    }
}
