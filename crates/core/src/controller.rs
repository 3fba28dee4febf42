//! The controller: deploys PQPs on an execution backend, collects the
//! paper's measurement protocol, and records runs in the document store.

use pdsp_analyze::{Analyzer, Severity};
use pdsp_apps::{AppConfig, Application};
use pdsp_cluster::{Cluster, SimConfig, Simulator};
use pdsp_engine::distributed::DistributedRun;
use pdsp_engine::error::{EngineError, Result};
use pdsp_engine::physical::PhysicalPlan;
use pdsp_engine::plan::LogicalPlan;
use pdsp_engine::runtime::{RunConfig, RunResult, SourceFactory, ThreadedRuntime};
use pdsp_engine::telemetry_for_plan;
use pdsp_metrics::{LatencyRecorder, RunSummary};
use pdsp_store::{Filter, Store};
use pdsp_telemetry::{
    new_experiment_id, Sampler, Span, TelemetryConfig, TelemetryTimeline, TraceSet,
};
use serde::{Deserialize, Serialize};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

/// One recorded benchmark run (the document persisted per execution).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Workload label (application acronym or query-structure label).
    pub workload: String,
    /// Cluster name.
    pub cluster: String,
    /// Parallelism degrees per plan node.
    pub parallelism: Vec<usize>,
    /// Event rate used.
    pub event_rate: f64,
    /// Execution backend ("simulator" or "threaded").
    pub backend: String,
    /// Collected metrics.
    pub summary: RunSummary,
    /// Telemetry experiment id, set when the run was instrumented; the
    /// matching [`TelemetryTimeline`] lives in the `telemetry` collection.
    #[serde(default)]
    pub experiment_id: Option<String>,
}

/// Retry policy for one benchmark datapoint: attempt budget, per-attempt
/// wall-clock timeout, and a decorrelated-jitter backoff between attempts.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum attempts per datapoint (at least 1).
    pub max_attempts: usize,
    /// Per-attempt wall-clock timeout.
    pub timeout: Duration,
    /// Base (minimum) sleep between attempts.
    pub backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub backoff_cap: Duration,
    /// Seed for the jitter draws: the same seed reproduces the exact
    /// backoff schedule.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            timeout: Duration::from_secs(60),
            backoff: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            jitter_seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// Validate the policy.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(EngineError::InvalidConfig(
                "retry policy needs max_attempts >= 1".into(),
            ));
        }
        if self.backoff_cap < self.backoff {
            return Err(EngineError::InvalidConfig(
                "retry policy backoff_cap must be >= backoff".into(),
            ));
        }
        Ok(())
    }

    /// The decorrelated-jitter backoff schedule for `retries` sleeps:
    /// each delay is drawn uniformly from `[backoff, 3 * previous]` and
    /// capped at `backoff_cap`. A fixed backoff synchronizes retries
    /// across concurrent sweep items — every attempt that failed together
    /// retries together, hitting the same contended resource in lockstep;
    /// decorrelating the delays spreads the retry front out. Deterministic
    /// given `jitter_seed`, so a recorded sweep replays exactly.
    ///
    /// Delegates to [`pdsp_net::BackoffPolicy`], the same schedule every
    /// reconnect path in the distributed runtime draws from — one backoff
    /// implementation across the whole system.
    pub fn backoff_sequence(&self, retries: usize) -> Vec<Duration> {
        self.net_policy().sequence(retries)
    }

    /// This policy's delay parameters as the shared network backoff policy.
    pub fn net_policy(&self) -> pdsp_net::BackoffPolicy {
        pdsp_net::BackoffPolicy {
            base: self.backoff,
            cap: self.backoff_cap,
            seed: self.jitter_seed,
        }
    }
}

/// How a sweep datapoint was obtained.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatapointStatus {
    /// First attempt succeeded.
    Ok,
    /// Succeeded after one or more failed attempts.
    Recovered {
        /// Total attempts, including the successful one.
        attempts: usize,
    },
    /// Every attempt failed; the sweep carries on without this point.
    Degraded,
}

/// Result of a retried run: the status, the value when one attempt
/// succeeded, and the last error otherwise.
#[derive(Debug)]
pub struct RetryOutcome<T> {
    /// How the value was obtained.
    pub status: DatapointStatus,
    /// The successful attempt's result, absent when degraded.
    pub value: Option<T>,
    /// The last attempt's error when degraded.
    pub error: Option<EngineError>,
}

/// Run `attempt` up to `policy.max_attempts` times, each bounded by
/// `policy.timeout`. Every attempt executes on its own thread so a hung
/// backend cannot stall the sweep; a timed-out attempt's thread is
/// abandoned (it detaches and exits on its own, its late result is
/// discarded).
pub fn run_with_retry<T, F>(policy: &RetryPolicy, attempt: F) -> RetryOutcome<T>
where
    T: Send + 'static,
    F: Fn(usize) -> Result<T> + Send + Sync + 'static,
{
    if let Err(e) = policy.validate() {
        return RetryOutcome {
            status: DatapointStatus::Degraded,
            value: None,
            error: Some(e),
        };
    }
    let attempt = Arc::new(attempt);
    let mut last_err = None;
    let mut backoffs = policy
        .backoff_sequence(policy.max_attempts.saturating_sub(1))
        .into_iter();
    for n in 1..=policy.max_attempts {
        let f = Arc::clone(&attempt);
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            tx.send(f(n)).ok();
        });
        match rx.recv_timeout(policy.timeout) {
            Ok(Ok(value)) => {
                let status = if n == 1 {
                    DatapointStatus::Ok
                } else {
                    DatapointStatus::Recovered { attempts: n }
                };
                return RetryOutcome {
                    status,
                    value: Some(value),
                    error: None,
                };
            }
            Ok(Err(e)) => last_err = Some(e),
            Err(_) => {
                last_err = Some(EngineError::Execution(format!(
                    "attempt {n} timed out after {:.1}s",
                    policy.timeout.as_secs_f64()
                )))
            }
        }
        if n < policy.max_attempts {
            thread::sleep(backoffs.next().unwrap_or(policy.backoff));
        }
    }
    RetryOutcome {
        status: DatapointStatus::Degraded,
        value: None,
        error: last_err,
    }
}

/// Run one closure per sweep item under the retry policy. A persistently
/// failing item yields a degraded outcome in place instead of aborting the
/// remaining items.
pub fn sweep_with_retry<X, T, F>(
    policy: &RetryPolicy,
    items: Vec<X>,
    run: F,
) -> Vec<(X, RetryOutcome<T>)>
where
    X: Clone + Send + Sync + 'static,
    T: Send + 'static,
    F: Fn(&X, usize) -> Result<T> + Send + Sync + 'static,
{
    let run = Arc::new(run);
    items
        .into_iter()
        .map(|x| {
            let run = Arc::clone(&run);
            let item = x.clone();
            let outcome = run_with_retry(policy, move |attempt| run(&item, attempt));
            (x, outcome)
        })
        .collect()
}

/// Pre-deploy static-analysis policy: every plan is analyzed before it
/// reaches a backend, and error-carrying plans are refused. Disable only
/// for experiments that deliberately deploy broken plans.
#[derive(Debug, Clone)]
pub struct DeployGate {
    /// Run the analyzer before every deploy.
    pub enabled: bool,
    /// Also refuse warning-carrying plans (CI-style strictness).
    pub deny_warnings: bool,
}

impl Default for DeployGate {
    fn default() -> Self {
        DeployGate {
            enabled: true,
            deny_warnings: false,
        }
    }
}

/// One datapoint of a parallelism sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Uniform parallelism degree of this datapoint.
    pub parallelism: usize,
    /// How the datapoint was obtained.
    pub status: DatapointStatus,
    /// The recorded run, absent when the point degraded.
    pub record: Option<RunRecord>,
}

/// Orchestrates benchmark execution: the paper's controller component with
/// the Web UI replaced by a programmatic API.
pub struct Controller {
    simulator: Simulator,
    store: Arc<Store>,
    gate: DeployGate,
    telemetry: Option<TelemetryConfig>,
    run_config: RunConfig,
}

impl Controller {
    /// Controller over a simulated cluster, recording into `store`, with
    /// the default deploy gate (analyze every plan, refuse errors) and
    /// telemetry off.
    pub fn new(cluster: Cluster, sim: SimConfig, store: Arc<Store>) -> Self {
        Controller {
            simulator: Simulator::new(cluster, sim),
            store,
            gate: DeployGate::default(),
            telemetry: None,
            run_config: RunConfig::default(),
        }
    }

    /// Replace the threaded-runtime configuration used by every subsequent
    /// `run_threaded*` call — channel capacity, micro-batch size, watermark
    /// cadence. The default keeps the engine's
    /// stock [`RunConfig`].
    pub fn with_run_config(mut self, config: RunConfig) -> Self {
        self.run_config = config;
        self
    }

    /// Replace the deploy gate policy.
    pub fn with_gate(mut self, gate: DeployGate) -> Self {
        self.gate = gate;
        self
    }

    /// Instrument every subsequent run with live telemetry: per-instance
    /// metrics are sampled at `config.interval_ms` and the resulting
    /// [`TelemetryTimeline`] is stored in the `telemetry` collection keyed
    /// by a fresh experiment id (also set on the [`RunRecord`]).
    pub fn with_telemetry(mut self, config: TelemetryConfig) -> Self {
        self.telemetry = Some(config);
        self
    }

    /// The active deploy gate policy.
    pub fn gate(&self) -> &DeployGate {
        &self.gate
    }

    /// The underlying simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.simulator
    }

    /// The run store.
    pub fn store(&self) -> &Arc<Store> {
        &self.store
    }

    /// Persist a run's collected spans in the `traces` collection, keyed by
    /// the experiment id shared with the run record. No-op when the run
    /// recorded no spans (tracing off or nothing sampled).
    fn store_traces(
        &self,
        experiment_id: &str,
        app: &str,
        backend: &str,
        sample_every: u64,
        mut spans: Vec<Span>,
    ) {
        if spans.is_empty() {
            return;
        }
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let set = TraceSet {
            experiment_id: experiment_id.to_string(),
            app: app.to_string(),
            backend: backend.to_string(),
            sample_every,
            spans,
        };
        self.store.with_mut("traces", |c| c.insert_ser(&set)).ok();
    }

    /// Analyze `plan` under the gate policy; `Err(AnalysisRejected)` when
    /// the plan carries blocking diagnostics.
    fn check_gate(&self, workload: &str, plan: &LogicalPlan) -> Result<()> {
        if !self.gate.enabled {
            return Ok(());
        }
        let report = Analyzer::new().analyze(workload, plan)?;
        let blocks = |severity: Severity| {
            severity == Severity::Error
                || (self.gate.deny_warnings && severity == Severity::Warning)
        };
        let blocking = report
            .diagnostics
            .iter()
            .filter(|d| blocks(d.severity))
            .count();
        if blocking > 0 {
            let first = report
                .diagnostics
                .iter()
                .find(|d| blocks(d.severity))
                .map(|d| format!("{} {}", d.code, d.message))
                .unwrap_or_default();
            return Err(EngineError::AnalysisRejected {
                workload: workload.to_string(),
                errors: blocking,
                first,
            });
        }
        Ok(())
    }

    /// Deploy a plan on the simulated cluster; returns the mean-of-3-run
    /// median latency and records the run.
    pub fn run_simulated(&self, workload: &str, plan: &LogicalPlan) -> Result<RunRecord> {
        self.check_gate(workload, plan)?;
        let (mut result, experiment_id) = match &self.telemetry {
            Some(cfg) => {
                let id = new_experiment_id();
                let result = self.simulator.run_instrumented(plan, workload, &id, cfg)?;
                (result, Some(id))
            }
            None => (self.simulator.run(plan)?, None),
        };
        if let (Some(id), Some(cfg)) = (&experiment_id, &self.telemetry) {
            let spans = std::mem::take(&mut result.spans);
            self.store_traces(id, workload, "simulated", cfg.trace_every, spans);
        }
        if let Some(timeline) = &result.timeline {
            self.store
                .with_mut("telemetry", |c| c.insert_ser(timeline))
                .ok();
        }
        let latency = self.simulator.measure(plan)?;
        let mut summary = result.summary();
        summary.p50_latency_ms = latency;
        let record = RunRecord {
            workload: workload.to_string(),
            cluster: self.simulator.cluster().name.clone(),
            parallelism: plan.nodes.iter().map(|n| n.parallelism).collect(),
            event_rate: self.simulator.config().event_rate,
            backend: "simulator".into(),
            summary,
            experiment_id,
        };
        self.store.with_mut("runs", |c| c.insert_ser(&record)).ok();
        Ok(record)
    }

    /// Execute an application on the real threaded runtime (bounded input),
    /// recording end-to-end latencies measured on actual OS threads.
    pub fn run_threaded(
        &self,
        app: &dyn Application,
        config: &AppConfig,
        uniform_parallelism: usize,
    ) -> Result<RunRecord> {
        let built = app.build(config);
        let plan = built.plan.with_uniform_parallelism(uniform_parallelism);
        let record =
            self.run_threaded_plan(app.info().acronym, &plan, &built.sources, config.event_rate)?;
        Ok(record)
    }

    /// Execute an arbitrary plan on the threaded runtime.
    pub fn run_threaded_plan(
        &self,
        workload: &str,
        plan: &LogicalPlan,
        sources: &[Arc<dyn SourceFactory>],
        event_rate: f64,
    ) -> Result<RunRecord> {
        self.check_gate(workload, plan)?;
        // Fusion rewrites the plan *after* the gate: analyzer findings refer
        // to the plan as authored, while execution chains across the hash
        // exchanges it turned into forward edges.
        let fused;
        let exec_plan = if self.run_config.operator_fusion {
            fused = pdsp_engine::chaining::fuse(plan)?;
            &fused
        } else {
            plan
        };
        let phys = PhysicalPlan::expand(exec_plan)?;
        let rt = ThreadedRuntime::new(self.run_config.clone());
        let (result, experiment_id) = match &self.telemetry {
            Some(cfg) => {
                let tel = telemetry_for_plan(workload, &phys, cfg.clone());
                let sampler = Sampler::start(Arc::clone(&tel.registry), cfg.interval_ms);
                // On error the sampler is dropped here and joins its thread;
                // the engine has already dumped the flight recorder.
                let result = rt.run_with_telemetry(&phys, sources, &tel)?;
                let id = new_experiment_id();
                let timeline = sampler.finish(&id, "threaded", tel.recorder.events());
                self.store
                    .with_mut("telemetry", |c| c.insert_ser(&timeline))
                    .ok();
                // Safe to drain here: the run has joined every worker
                // thread, so no span ring has a live writer.
                if let Some(book) = &tel.trace {
                    self.store_traces(&id, workload, "threaded", cfg.trace_every, book.drain());
                }
                (result, Some(id))
            }
            None => (rt.run(&phys, sources)?, None),
        };
        Ok(self.store_run(
            workload,
            "threaded",
            plan,
            event_rate,
            &result,
            experiment_id,
        ))
    }

    /// Summarize a real run of `plan` and store its [`RunRecord`] under
    /// `backend`: `"threaded"` runs on `local-threads`, `"distributed"` on
    /// `local-processes`.
    fn store_run(
        &self,
        workload: &str,
        backend: &str,
        plan: &LogicalPlan,
        event_rate: f64,
        result: &RunResult,
        experiment_id: Option<String>,
    ) -> RunRecord {
        let mut rec = LatencyRecorder::default();
        for &ns in &result.latencies_ns {
            rec.record_ns(ns);
        }
        let record = RunRecord {
            workload: workload.to_string(),
            cluster: match backend {
                "threaded" => "local-threads",
                _ => "local-processes",
            }
            .into(),
            parallelism: plan.nodes.iter().map(|n| n.parallelism).collect(),
            event_rate,
            backend: backend.into(),
            summary: RunSummary::from_recorder(
                &rec,
                result.tuples_in,
                result.tuples_out,
                result.elapsed.as_secs_f64(),
            ),
            experiment_id,
        };
        self.store.with_mut("runs", |c| c.insert_ser(&record)).ok();
        record
    }

    /// Execute an application on the distributed multi-process runtime:
    /// the coordinator spawns worker processes per
    /// [`DistributedConfig::workers`](pdsp_engine::distributed::DistributedConfig),
    /// ships an `app:` plan spec (see [`crate::deploy`]), supervises
    /// heartbeat leases, and restores from network checkpoints when a
    /// worker dies. Records the run with backend `"distributed"` and
    /// returns the record together with the full distributed outcome
    /// (recovery accounting, per-instance snapshots, alarms).
    pub fn run_distributed(
        &self,
        app: &dyn Application,
        config: &AppConfig,
        uniform_parallelism: usize,
        dist: pdsp_engine::distributed::DistributedConfig,
    ) -> Result<(RunRecord, DistributedRun)> {
        let authored = app
            .build(config)
            .plan
            .with_uniform_parallelism(uniform_parallelism);
        self.check_gate(app.info().acronym, &authored)?;
        let spec = crate::deploy::app_spec(app.info().acronym, uniform_parallelism, config);
        self.run_distributed_spec(app.info().acronym, &spec, config.event_rate, dist)
    }

    /// Execute an arbitrary plan specification (`app:` or `seeded:`
    /// grammar, see [`crate::deploy`]) on the distributed runtime. The
    /// deploy gate is not consulted here: specs resolve directly to
    /// physical plans on every process; the authored logical plan is gated
    /// by [`Controller::run_distributed`] where one exists.
    pub fn run_distributed_spec(
        &self,
        workload: &str,
        spec: &str,
        event_rate: f64,
        mut dist: pdsp_engine::distributed::DistributedConfig,
    ) -> Result<(RunRecord, DistributedRun)> {
        // Controller-level telemetry propagates its sampling rate unless the
        // caller already configured tracing explicitly.
        if dist.trace_every == 0 {
            if let Some(cfg) = &self.telemetry {
                dist.trace_every = cfg.trace_every;
            }
        }
        let trace_every = dist.trace_every;
        let resolver = crate::deploy::resolver();
        // Resolve locally first: a bad spec fails here with a typed error
        // instead of after worker processes have been spawned, and the
        // resolved plan supplies the per-node parallelism for the record.
        let (phys, _sources) = resolver(spec)?;
        let rt = pdsp_engine::distributed::DistributedRuntime::with_resolver(dist, resolver);
        let run = rt.run(spec)?;
        let experiment_id = (trace_every > 0).then(new_experiment_id);
        if let Some(id) = &experiment_id {
            self.store_traces(id, workload, "distributed", trace_every, run.spans.clone());
        }
        let record = self.store_run(
            workload,
            "distributed",
            &phys.logical,
            event_rate,
            &run.ft.result,
            experiment_id,
        );
        Ok((record, run))
    }

    /// Sweep a plan across uniform parallelism degrees with per-point
    /// retry: a degree whose run keeps failing (or hangs past the timeout)
    /// becomes a degraded datapoint instead of aborting the whole sweep.
    pub fn sweep_simulated(
        &self,
        workload: &str,
        plan: &LogicalPlan,
        degrees: &[usize],
        policy: &RetryPolicy,
    ) -> Vec<SweepPoint> {
        degrees
            .iter()
            .map(|&degree| {
                let cluster = self.simulator.cluster().clone();
                let cfg = self.simulator.config().clone();
                let swept = plan.clone().with_uniform_parallelism(degree);
                // A degree that fails analysis degrades in place, like any
                // other persistently failing datapoint.
                if self.check_gate(workload, &swept).is_err() {
                    return SweepPoint {
                        parallelism: degree,
                        status: DatapointStatus::Degraded,
                        record: None,
                    };
                }
                let run_plan = swept.clone();
                let outcome = run_with_retry(policy, move |_attempt| {
                    let sim = Simulator::new(cluster.clone(), cfg.clone());
                    let result = sim.run(&run_plan)?;
                    let latency = sim.measure(&run_plan)?;
                    let mut summary = result.summary();
                    summary.p50_latency_ms = latency;
                    Ok(summary)
                });
                let record = outcome.value.map(|summary| {
                    let record = RunRecord {
                        workload: workload.to_string(),
                        cluster: self.simulator.cluster().name.clone(),
                        parallelism: swept.nodes.iter().map(|n| n.parallelism).collect(),
                        event_rate: self.simulator.config().event_rate,
                        backend: "simulator".into(),
                        summary,
                        experiment_id: None,
                    };
                    self.store.with_mut("runs", |c| c.insert_ser(&record)).ok();
                    record
                });
                SweepPoint {
                    parallelism: degree,
                    status: outcome.status,
                    record,
                }
            })
            .collect()
    }

    /// Fetch the stored telemetry timeline for an experiment id, if any.
    pub fn telemetry_for(&self, experiment_id: &str) -> Option<TelemetryTimeline> {
        self.store.with("telemetry", |c| {
            c.find_as::<TelemetryTimeline>(&Filter::eq("experiment_id", experiment_id))
                .into_iter()
                .next()
        })
    }

    /// Fetch the stored trace spans for an experiment id, if any.
    pub fn traces_for(&self, experiment_id: &str) -> Option<TraceSet> {
        self.store.with("traces", |c| {
            c.find_as::<TraceSet>(&Filter::eq("experiment_id", experiment_id))
                .into_iter()
                .next()
        })
    }

    /// All experiment ids with stored telemetry, in insertion order.
    pub fn telemetry_experiments(&self) -> Vec<String> {
        self.store.with("telemetry", |c| {
            c.iter()
                .filter_map(|doc| doc.body.get("experiment_id"))
                .filter_map(|v| v.as_str().map(str::to_string))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsp_engine::expr::Predicate;
    use pdsp_engine::value::{FieldType, Schema};
    use pdsp_engine::PlanBuilder;
    use pdsp_store::Filter;

    fn quick_sim() -> SimConfig {
        SimConfig {
            event_rate: 20_000.0,
            duration_ms: 1_000,
            batches_per_second: 50.0,
            ..SimConfig::default()
        }
    }

    fn controller() -> Controller {
        Controller::new(
            Cluster::homogeneous_m510(4),
            quick_sim(),
            Arc::new(Store::in_memory()),
        )
    }

    fn plan() -> LogicalPlan {
        PlanBuilder::new()
            .source("s", Schema::of(&[FieldType::Int, FieldType::Double]), 1)
            .filter("f", Predicate::True, 0.7)
            .set_parallelism(1, 2)
            .sink("k")
            .build()
            .unwrap()
    }

    #[test]
    fn simulated_run_is_recorded() {
        let c = controller();
        let record = c.run_simulated("linear", &plan()).unwrap();
        assert_eq!(record.backend, "simulator");
        assert!(record.summary.p50_latency_ms > 0.0);
        let stored = c.store().with("runs", |col| {
            col.find(&Filter::eq("workload", "linear")).len()
        });
        assert_eq!(stored, 1);
    }

    #[test]
    fn retry_recovers_after_transient_failures() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let policy = RetryPolicy {
            max_attempts: 5,
            timeout: Duration::from_secs(5),
            backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let outcome = run_with_retry(&policy, move |_| {
            if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(pdsp_engine::error::EngineError::Execution(
                    "transient".into(),
                ))
            } else {
                Ok(42u64)
            }
        });
        assert_eq!(outcome.status, DatapointStatus::Recovered { attempts: 3 });
        assert_eq!(outcome.value, Some(42));
        assert!(outcome.error.is_none());
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn retry_degrades_after_the_attempt_budget() {
        let policy = RetryPolicy {
            max_attempts: 2,
            timeout: Duration::from_secs(5),
            backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let outcome: RetryOutcome<u64> = run_with_retry(&policy, |_| {
            Err(pdsp_engine::error::EngineError::Execution(
                "permanently broken".into(),
            ))
        });
        assert_eq!(outcome.status, DatapointStatus::Degraded);
        assert!(outcome.value.is_none());
        assert!(outcome
            .error
            .map(|e| e.to_string().contains("permanently broken"))
            .unwrap_or(false));
    }

    #[test]
    fn retry_times_out_hung_attempts() {
        let policy = RetryPolicy {
            max_attempts: 1,
            timeout: Duration::from_millis(50),
            backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let outcome: RetryOutcome<u64> = run_with_retry(&policy, |_| {
            thread::sleep(Duration::from_secs(30));
            Ok(0)
        });
        assert_eq!(outcome.status, DatapointStatus::Degraded);
        assert!(outcome
            .error
            .map(|e| e.to_string().contains("timed out"))
            .unwrap_or(false));
    }

    #[test]
    fn backoff_jitter_stays_in_bounds_and_is_seed_deterministic() {
        let policy = RetryPolicy {
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            jitter_seed: 42,
            ..RetryPolicy::default()
        };
        let seq = policy.backoff_sequence(8);
        assert_eq!(seq.len(), 8);
        let mut prev = policy.backoff;
        for (i, d) in seq.iter().enumerate() {
            assert!(*d >= policy.backoff, "delay {i} below base: {d:?}");
            assert!(*d <= policy.backoff_cap, "delay {i} above cap: {d:?}");
            assert!(
                *d <= prev.saturating_mul(3).min(policy.backoff_cap),
                "delay {i} exceeds 3x the previous delay: {d:?} vs {prev:?}"
            );
            prev = *d;
        }
        // Same seed replays the exact schedule; a different seed decorrelates.
        assert_eq!(seq, policy.backoff_sequence(8));
        let other = RetryPolicy {
            jitter_seed: 43,
            ..policy.clone()
        };
        assert_ne!(seq, other.backoff_sequence(8));
        // Degenerate policy (cap == base) collapses to a fixed backoff.
        let fixed = RetryPolicy {
            backoff: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(5),
            ..RetryPolicy::default()
        };
        assert!(fixed
            .backoff_sequence(4)
            .iter()
            .all(|d| *d == Duration::from_millis(5)));
    }

    #[test]
    fn retry_rejects_cap_below_base_backoff() {
        let policy = RetryPolicy {
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_millis(10),
            ..RetryPolicy::default()
        };
        let outcome: RetryOutcome<u64> = run_with_retry(&policy, |_| Ok(1));
        assert_eq!(outcome.status, DatapointStatus::Degraded);
        assert!(outcome
            .error
            .map(|e| e.to_string().contains("backoff_cap"))
            .unwrap_or(false));
    }

    #[test]
    fn sweep_recovers_flaky_points_and_continues_past_degraded_ones() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let policy = RetryPolicy {
            max_attempts: 3,
            timeout: Duration::from_secs(5),
            backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let flaky_calls = Arc::new(AtomicUsize::new(0));
        let counter = flaky_calls.clone();
        // "flaky" fails deterministically twice, then succeeds; "broken"
        // never succeeds; the sweep must still reach "tail".
        let points = sweep_with_retry(
            &policy,
            vec!["steady", "flaky", "broken", "tail"],
            move |x, _| match *x {
                "flaky" => {
                    if counter.fetch_add(1, Ordering::SeqCst) < 2 {
                        Err(pdsp_engine::error::EngineError::Execution("flake".into()))
                    } else {
                        Ok(1u64)
                    }
                }
                "broken" => Err(pdsp_engine::error::EngineError::Execution(
                    "always fails".into(),
                )),
                _ => Ok(0),
            },
        );
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].1.status, DatapointStatus::Ok);
        assert_eq!(
            points[1].1.status,
            DatapointStatus::Recovered { attempts: 3 },
            "datapoint failing twice then succeeding is marked recovered"
        );
        assert_eq!(points[1].1.value, Some(1));
        assert_eq!(points[2].1.status, DatapointStatus::Degraded);
        assert_eq!(
            points[3].1.status,
            DatapointStatus::Ok,
            "sweep continues past the degraded point"
        );
    }

    #[test]
    fn simulated_sweep_records_each_parallelism() {
        let c = controller();
        let points = c.sweep_simulated("linear", &plan(), &[1, 2], &RetryPolicy::default());
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.status, DatapointStatus::Ok);
            let record = p.record.as_ref().expect("healthy point has a record");
            assert!(record.summary.p50_latency_ms > 0.0);
            assert!(record.parallelism.contains(&p.parallelism));
        }
        let stored = c.store().with("runs", |col| {
            col.find(&Filter::eq("workload", "linear")).len()
        });
        assert_eq!(stored, 2);
    }

    /// Keyed aggregate at parallelism 4 fed by a rebalance edge: an
    /// Error-severity PB001 under analysis, only constructible with
    /// `build_unchecked`.
    fn broken_plan() -> LogicalPlan {
        use pdsp_engine::agg::AggFunc;
        use pdsp_engine::operator::OpKind;
        use pdsp_engine::plan::Partitioning;
        use pdsp_engine::window::WindowSpec;
        let mut b = PlanBuilder::new();
        let s = b.add_node(
            "src",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int, FieldType::Double]),
            },
            1,
        );
        let a = b.add_node(
            "agg",
            OpKind::WindowAggregate {
                window: WindowSpec::tumbling_count(8),
                func: AggFunc::Sum,
                agg_field: 1,
                key_field: Some(0),
            },
            4,
        );
        let k = b.add_node("sink", OpKind::Sink, 1);
        b.add_edge(s, a, 0, Partitioning::Rebalance);
        b.add_edge(a, k, 0, Partitioning::Rebalance);
        b.build_unchecked()
    }

    /// Broadcast into a parallelism-8 filter: Warning-severity PB032 but
    /// no errors.
    fn warning_plan() -> LogicalPlan {
        use pdsp_engine::plan::Partitioning;
        let mut b = PlanBuilder::new();
        let s = b.add_node(
            "src",
            pdsp_engine::operator::OpKind::Source {
                schema: Schema::of(&[FieldType::Int, FieldType::Double]),
            },
            1,
        );
        let f = b.add_node(
            "f",
            pdsp_engine::operator::OpKind::Filter {
                predicate: Predicate::True,
                selectivity: 0.7,
            },
            8,
        );
        let k = b.add_node("sink", pdsp_engine::operator::OpKind::Sink, 1);
        b.add_edge(s, f, 0, Partitioning::Broadcast);
        b.add_edge(f, k, 0, Partitioning::Rebalance);
        b.build_unchecked()
    }

    #[test]
    fn gate_refuses_error_plans() {
        let c = controller();
        let err = c.run_simulated("broken", &broken_plan()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("PB001"), "error names the diagnostic: {msg}");
        let stored = c.store().with("runs", |col| {
            col.find(&Filter::eq("workload", "broken")).len()
        });
        assert_eq!(stored, 0, "rejected plans leave no run record");
    }

    /// Predicate over field 3 of a 2-field stream: a PB061 schema error.
    fn schema_error_plan() -> LogicalPlan {
        use pdsp_engine::expr::CmpOp;
        use pdsp_engine::plan::Partitioning;
        use pdsp_engine::value::Value;
        let mut b = PlanBuilder::new();
        let s = b.add_node(
            "src",
            pdsp_engine::operator::OpKind::Source {
                schema: Schema::of(&[FieldType::Int, FieldType::Double]),
            },
            1,
        );
        let f = b.add_node(
            "f",
            pdsp_engine::operator::OpKind::Filter {
                predicate: Predicate::cmp(3, CmpOp::Gt, Value::Int(0)),
                selectivity: 0.5,
            },
            2,
        );
        let k = b.add_node("sink", pdsp_engine::operator::OpKind::Sink, 1);
        b.add_edge(s, f, 0, Partitioning::Rebalance);
        b.add_edge(f, k, 0, Partitioning::Rebalance);
        b.build_unchecked()
    }

    #[test]
    fn gate_refuses_schema_error_plans() {
        let c = controller();
        let err = c
            .run_simulated("schema-broken", &schema_error_plan())
            .unwrap_err();
        assert!(
            matches!(err, EngineError::AnalysisRejected { .. }),
            "type-flow errors must be refused at the gate: {err}"
        );
        let msg = err.to_string();
        assert!(msg.contains("PB061"), "error names the PB06x code: {msg}");
    }

    #[test]
    fn disabled_gate_skips_analysis() {
        let c = controller().with_gate(DeployGate {
            enabled: false,
            deny_warnings: false,
        });
        // The plan may still fail downstream validation, but it must not
        // be refused by the analyzer.
        if let Err(e) = c.run_simulated("broken", &broken_plan()) {
            assert!(
                !matches!(e, EngineError::AnalysisRejected { .. }),
                "disabled gate must not analyze: {e}"
            );
        }
    }

    #[test]
    fn default_gate_tolerates_warnings() {
        let c = controller();
        c.run_simulated("warned", &warning_plan())
            .expect("warnings do not block deployment by default");
    }

    #[test]
    fn deny_warnings_gate_refuses_warning_plans() {
        let c = controller().with_gate(DeployGate {
            enabled: true,
            deny_warnings: true,
        });
        let err = c.run_simulated("warned", &warning_plan()).unwrap_err();
        assert!(
            matches!(err, EngineError::AnalysisRejected { .. }),
            "strict gate refuses warning plans: {err}"
        );
    }

    #[test]
    fn sweep_degrades_analysis_rejected_points() {
        let c = controller();
        // At uniform parallelism 1 the broken plan is trivially safe
        // (everything colocated); at 4 the keyed aggregate is split.
        let points = c.sweep_simulated("broken", &broken_plan(), &[1, 4], &RetryPolicy::default());
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].status, DatapointStatus::Ok);
        assert_eq!(points[1].status, DatapointStatus::Degraded);
        assert!(points[1].record.is_none());
    }

    #[test]
    fn threaded_app_run_is_recorded() {
        let c = controller();
        let app = pdsp_apps::word_count::WordCount;
        let cfg = AppConfig {
            total_tuples: 1_000,
            ..AppConfig::default()
        };
        let record = c.run_threaded(&app, &cfg, 2).unwrap();
        assert_eq!(record.backend, "threaded");
        assert_eq!(record.workload, "WC");
        assert!(record.summary.tuples_in > 0);
        assert!(record.parallelism.contains(&2));
        assert!(record.experiment_id.is_none(), "telemetry off by default");
    }

    #[test]
    fn instrumented_threaded_run_stores_a_queryable_timeline() {
        let c = controller().with_telemetry(TelemetryConfig {
            interval_ms: 20,
            ..TelemetryConfig::default()
        });
        let app = pdsp_apps::word_count::WordCount;
        let cfg = AppConfig {
            total_tuples: 2_000,
            ..AppConfig::default()
        };
        let record = c.run_threaded(&app, &cfg, 2).unwrap();
        let id = record.experiment_id.expect("instrumented run gets an id");
        let timeline = c.telemetry_for(&id).expect("timeline stored under id");
        assert_eq!(timeline.backend, "threaded");
        assert_eq!(timeline.app, "WC");
        assert!(!timeline.samples.is_empty(), "timeline is never empty");
        let last = timeline.final_sample().unwrap();
        assert!(last.instances.iter().any(|i| i.tuples_out > 0));
        assert!(c.telemetry_experiments().contains(&id));
    }

    #[test]
    fn instrumented_simulated_run_stores_a_queryable_timeline() {
        let c = controller().with_telemetry(TelemetryConfig::default());
        let record = c.run_simulated("linear", &plan()).unwrap();
        let id = record.experiment_id.expect("instrumented run gets an id");
        let timeline = c.telemetry_for(&id).expect("timeline stored under id");
        assert_eq!(timeline.backend, "simulated");
        assert!(!timeline.samples.is_empty());
        assert!(timeline.final_latency().count > 0);
    }

    #[test]
    fn telemetry_lookup_misses_return_none() {
        let c = controller();
        assert!(c.telemetry_for("exp-nonexistent").is_none());
        assert!(c.telemetry_experiments().is_empty());
        assert!(c.traces_for("exp-nonexistent").is_none());
    }

    #[test]
    fn traced_threaded_run_stores_a_queryable_trace_set() {
        // Batch size 1 sends one-tuple frames, traced like any other.
        for batch_size in [RunConfig::default().batch_size, 1] {
            let c = controller()
                .with_run_config(RunConfig {
                    batch_size,
                    ..RunConfig::default()
                })
                .with_telemetry(TelemetryConfig {
                    interval_ms: 20,
                    trace_every: 16,
                    ..TelemetryConfig::default()
                });
            let app = pdsp_apps::word_count::WordCount;
            let cfg = AppConfig {
                total_tuples: 2_000,
                ..AppConfig::default()
            };
            let record = c.run_threaded(&app, &cfg, 2).unwrap();
            let id = record.experiment_id.expect("instrumented run gets an id");
            let traces = c.traces_for(&id).expect("trace set stored under id");
            assert_eq!(traces.backend, "threaded");
            assert_eq!(traces.app, "WC");
            assert_eq!(traces.sample_every, 16);
            assert!(
                !traces.spans.is_empty(),
                "batch size {batch_size}: sampled spans were recorded"
            );
            let trees = pdsp_telemetry::assemble(traces.spans);
            assert!(
                trees
                    .iter()
                    .filter_map(pdsp_telemetry::critical_path)
                    .next()
                    .is_some(),
                "batch size {batch_size}: at least one sampled trace reaches the sink"
            );
        }
    }

    #[test]
    fn traced_simulated_run_stores_a_queryable_trace_set() {
        let c = controller().with_telemetry(TelemetryConfig {
            trace_every: 64,
            ..TelemetryConfig::default()
        });
        let record = c.run_simulated("linear", &plan()).unwrap();
        let id = record.experiment_id.expect("instrumented run gets an id");
        let traces = c.traces_for(&id).expect("trace set stored under id");
        assert_eq!(traces.backend, "simulated");
        assert_eq!(traces.sample_every, 64);
        assert!(traces.spans.iter().all(|s| s.site == "sim"));
    }

    #[test]
    fn untraced_runs_store_no_trace_set() {
        let c = controller().with_telemetry(TelemetryConfig::default());
        let record = c.run_simulated("linear", &plan()).unwrap();
        let id = record.experiment_id.expect("instrumented run gets an id");
        assert!(c.traces_for(&id).is_none(), "trace_every 0 records nothing");
    }
}
