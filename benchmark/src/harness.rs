//! Set-up, repetitions, watchdog and failure accounting of one workload run.
//!
//! One run is one process: set-up (inputs, reference, deploy, a paced
//! warm-up rep whose sink tuples are checked), then timed reps — open-loop
//! *paced* ones for the end-to-end metrics, closed-loop *drain* ones as
//! well in a traced run. The paced latencies are medians over the *quiet
//! slices* of all paced reps ([`quiet_latency_ms`]); every other number
//! taken from reps is the median over the reps of its kind.

use crate::pacing::{take_tick_log, tick_log_path, unsustained, Feed, Pool, PooledSource};
use crate::reference::{check_captured, check_counts, expected, Expected};
use crate::stats::{median, percentile};
use crate::sys;
use crate::workloads::{
    deploy, dist_spec, one_way, resolver, Backend, Workload, DIST_WORKERS, NOMINAL_SECONDS,
    PACED_MS, WARMUP_MS,
};
use pdsp_engine::distributed::{DistributedConfig, DistributedRuntime};
use pdsp_engine::runtime::{RunResult, SourceFactory};
use pdsp_engine::{
    telemetry_for_plan, DeliveryMode, EngineError, FtConfig, FtRuntime, PhysicalPlan,
    RestartPolicy, RunConfig, ThreadedRuntime,
};
use pdsp_telemetry::{InstanceSnapshot, Span, TelemetryConfig};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Paced reps of a `--trace 0` run: the end-to-end latencies are taken
/// over the quiet slices of these. Seven, not the issue's five: adding
/// reps is the issue's own remedy for a number that moves between runs.
pub const PACED_REPS: usize = 7;
/// Sink tuples the warm-up rep captures. Every result of the word-count
/// workloads fits; of the ad workloads' ≈270 000 reports the first 50 000
/// are kept, because the fault-tolerant runtime serializes the capture into
/// every checkpoint and a full one stalls the warm-up by hundreds of ms.
pub const WARMUP_CAPTURE: usize = 50_000;
/// Length of one slice of a paced rep's schedule, ms. The shared machine
/// stalls this guest for tens to hundreds of ms at a time, and for minutes
/// on end it does so several times a second; a slice is short enough that
/// a stall spoils one or two of them and leaves the rest of the rep clean.
pub const SLICE_MS: u64 = 250;
/// A slice is *quiet* if at most a tenth of its ticks were released more
/// than this late, ns. Half the issue's 1 ms for a whole rep: over 4 480
/// slices the slice p50 rose with the slice's lag p90 in every workload,
/// and between 0.5 and 1 ms it already read 6 to 20 % high (README, "Quiet
/// slices").
pub const QUIET_LAG_NS: u64 = 500_000;
/// Fewest slices a paced latency is taken over: if a run has fewer quiet
/// ones, the least late of the others make up the number.
pub const MIN_SLICES: usize = 4;
/// Head-sampling rate of traced reps.
pub const TRACE_EVERY: u64 = 256;
/// Where tick logs and Chrome traces go, relative to the checkout root.
pub const OUT_DIR: &str = "benchmark/out";

/// What the engine is asked to do in one rep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Paced, every sink tuple captured and checked; not timed.
    WarmUp,
    /// Closed loop.
    Drain,
    /// Open loop at the workload's `rate_tps`.
    Paced,
    /// No input at all: what deploying and tearing down the plan costs.
    Empty,
}

/// Everything set-up produces.
pub struct Setup {
    /// The workload's constants.
    pub workload: &'static Workload,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds / NOMINAL_SECONDS`: scales rep lengths, never rates.
    pub scale: f64,
    /// One input pool per source.
    pub pools: Vec<Arc<Pool>>,
    /// The deployed (gated, fused, expanded) plan.
    pub plan: PhysicalPlan,
    /// Wall time spent generating the pools.
    pub generate: Duration,
    /// The reference outcome of a rep of each kind.
    expected: [Expected; 4],
}

/// Why every tuple of a rep counts as failed.
#[derive(Debug)]
pub enum Failure {
    /// Engine error, second attempt, lost ticks, or counts that differ from
    /// the reference: the outputs cannot be trusted.
    Broken(String),
    /// A paced rep in which the engine, not the schedule, set the rate
    /// (`pacing::unsustained`). It computed nothing wrong, so its tuples do
    /// not fail: the machine trips the rule, in one rep in 40 or in every
    /// rep of a run depending on the hour, and a count that follows the
    /// machine cannot be compared between two sets of runs. Its numbers
    /// stay out of the medians over reps.
    Unsustained(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Broken(why) => write!(f, "{why}"),
            Failure::Unsustained(why) => write!(f, "unsustained: {why}"),
        }
    }
}

/// One [`SLICE_MS`] stretch of a paced rep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// p50 of the latencies of the sink tuples that arrived in it, ns.
    pub lat_p50_ns: u64,
    /// p90 of the same.
    pub lat_p90_ns: u64,
    /// p90 of `release − due` over its ticks, ns; of the source that ran
    /// latest if there are several.
    pub lag_p90_ns: u64,
}

/// Cut a paced rep into `parts` slices. Sink latencies come in arrival
/// order and tick logs in tick order, and at a fixed rate results arrive
/// evenly, so equal consecutive shares of each cover the same stretch of
/// time closely enough to tell a stalled slice from a clean one.
fn slices(latencies: &[u64], tick_logs: &[Vec<u64>], parts: usize) -> Vec<Slice> {
    let share = |v: &[u64], j: usize| -> Vec<u64> {
        let mut part = v[v.len() * j / parts..v.len() * (j + 1) / parts].to_vec();
        part.sort_unstable();
        part
    };
    (0..parts)
        .filter_map(|j| {
            let arrived = share(latencies, j);
            (!arrived.is_empty()).then(|| Slice {
                lat_p50_ns: percentile(&arrived, 50.0),
                lat_p90_ns: percentile(&arrived, 90.0),
                lag_p90_ns: tick_logs
                    .iter()
                    .map(|log| percentile(&share(log, j), 90.0))
                    .max()
                    .unwrap_or(0),
            })
        })
        .collect()
}

/// Outcome of one rep.
pub struct Rep {
    /// Source tuples offered, over all sources.
    pub offered: u64,
    /// Why every tuple of the rep counts as failed, if it does.
    pub failure: Option<Failure>,
    /// The engine's result; `None` if the run returned an error.
    pub result: Option<RunResult>,
    /// User + system CPU of this process and its workers during the rep.
    pub cpu: Duration,
    /// Sink latencies, ascending, ns.
    pub latencies: Vec<u64>,
    /// `release − due` of every tick of every source, ascending, ns.
    pub lags: Vec<u64>,
    /// The slices of a paced rep, in time order; empty for other kinds.
    pub slices: Vec<Slice>,
    /// Registry snapshot and spans of a traced rep; empty otherwise.
    pub snapshots: Vec<InstanceSnapshot>,
    /// See `snapshots`.
    pub spans: Vec<Span>,
}

impl Rep {
    /// Source tuples per second of wall time.
    pub fn capacity_tps(&self) -> f64 {
        self.result
            .as_ref()
            .map_or(0.0, |r| r.tuples_in as f64 / r.elapsed.as_secs_f64())
    }

    /// CPU microseconds per source tuple.
    pub fn cpu_us_per_tuple(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e6 / self.offered.max(1) as f64
    }

    /// Whether the rep's outputs matched the reference.
    pub fn outputs_correct(&self) -> bool {
        !matches!(self.failure, Some(Failure::Broken(_)))
    }

    /// Latency percentile in ms.
    pub fn latency_ms(&self, p: f64) -> f64 {
        percentile(&self.latencies, p) as f64 / 1e6
    }

    /// Generator-lag percentile in ms.
    pub fn lag_ms(&self, p: f64) -> f64 {
        percentile(&self.lags, p) as f64 / 1e6
    }
}

impl Setup {
    /// Generate the inputs and deploy the plan.
    pub fn new(workload: &'static Workload, seed: u64, seconds: u64) -> Result<Self, EngineError> {
        let t0 = Instant::now();
        let pools = workload.pools(seed);
        let generate = t0.elapsed();
        let plan = deploy(workload.name, &workload.authored_plan(seed))?;
        if workload.backend == Backend::Distributed {
            one_way(&plan, DIST_WORKERS).map_err(EngineError::InvalidConfig)?;
        }
        let mut setup = Setup {
            workload,
            seed,
            scale: seconds as f64 / NOMINAL_SECONDS as f64,
            pools,
            plan,
            generate,
            expected: Default::default(),
        };
        setup.expected = [Kind::WarmUp, Kind::Drain, Kind::Paced, Kind::Empty]
            .map(|k| expected(workload.job, &setup.pools, setup.feed(k).total));
        Ok(setup)
    }

    /// What each source offers in a rep of this kind.
    pub fn feed(&self, kind: Kind) -> Feed {
        let scaled = |x: u64| ((x as f64 * self.scale) as u64).max(1);
        match kind {
            Kind::WarmUp => Feed::paced(self.workload.rate_tps, scaled(WARMUP_MS)),
            Kind::Drain => Feed::drain(scaled(self.workload.drain_tuples)),
            Kind::Paced => Feed::paced(self.workload.rate_tps, scaled(PACED_MS)),
            Kind::Empty => Feed::drain(0),
        }
    }

    /// The reference outcome of a rep of this kind.
    pub fn expected(&self, kind: Kind) -> &Expected {
        &self.expected[kind as usize]
    }

    /// How long a rep of this kind should take at seed speed.
    fn expected_length(&self, kind: Kind) -> Duration {
        let ms = match kind {
            Kind::WarmUp => WARMUP_MS,
            Kind::Drain => 3_000,
            Kind::Paced => PACED_MS,
            Kind::Empty => 0,
        };
        Duration::from_millis((ms as f64 * self.scale) as u64)
    }

    fn run_config(&self, kind: Kind) -> RunConfig {
        RunConfig {
            watermark_interval: 512,
            // Sink state, captured tuples included, is serialized into
            // every checkpoint: capturing in a timed rep would inflate the
            // cost being measured.
            capture_limit: if kind == Kind::WarmUp {
                WARMUP_CAPTURE
            } else {
                0
            },
            ..RunConfig::default()
        }
    }

    /// One source factory per pool offering `feed`; source `i` leaves its
    /// tick log at `tick_log_path(tick_logs, i)`.
    pub fn sources(&self, feed: Feed, tick_logs: &str) -> Vec<Arc<dyn SourceFactory>> {
        self.pools
            .iter()
            .enumerate()
            .map(|(i, pool)| -> Arc<dyn SourceFactory> {
                PooledSource::ready(Arc::clone(pool), feed, tick_log_path(tick_logs, i))
            })
            .collect()
    }

    /// Run one rep on the workload's backend, on this thread.
    fn execute(&self, kind: Kind, trace: bool) -> Rep {
        let feed = self.feed(kind);
        let sources = self.pools.len() as u64;
        let tick_logs = format!("{OUT_DIR}/ticks-{}", std::process::id());
        let factories = self.sources(feed, &tick_logs);
        let run = self.run_config(kind);
        let ft = FtConfig {
            checkpoint_interval_tuples: self.workload.ckpt_interval.max(1),
            mode: DeliveryMode::ExactlyOnce,
            restart: RestartPolicy::default(),
            run: run.clone(),
        };
        let tel = (trace && self.workload.backend != Backend::Distributed).then(|| {
            let config = TelemetryConfig {
                trace_every: TRACE_EVERY,
                trace_capacity: 1 << 16,
                dump_on_error: false,
                ..TelemetryConfig::default()
            };
            telemetry_for_plan(self.workload.name, &self.plan, config)
        });

        let cpu0 = sys::cpu_time();
        let mut attempts = 1;
        let (mut snapshots, mut spans) = (Vec::new(), Vec::new());
        let outcome = match self.workload.backend {
            Backend::Threaded => {
                let rt = ThreadedRuntime::new(run);
                match &tel {
                    Some(t) => rt.run_with_telemetry(&self.plan, &factories, t),
                    None => rt.run(&self.plan, &factories),
                }
            }
            Backend::Ft => FtRuntime::new(ft)
                .run_with_telemetry(&self.plan, &factories, None, tel.as_ref())
                .map(|r| {
                    attempts = r.recovery.attempts;
                    r.result
                }),
            Backend::Distributed => {
                let exe = std::env::current_exe()
                    .map(|p| p.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let config = DistributedConfig {
                    workers: DIST_WORKERS,
                    ft: FtConfig {
                        restart: RestartPolicy {
                            max_restarts: 0,
                            ..RestartPolicy::default()
                        },
                        ..ft
                    },
                    // The 500 ms default fails over spuriously when the
                    // workers and the harness share two cores.
                    lease_timeout_ms: 5_000,
                    worker_bin: vec![exe, "--worker-mode".into()],
                    trace_every: if trace { TRACE_EVERY } else { 0 },
                    ..DistributedConfig::default()
                };
                let spec = dist_spec(self.workload.name, self.seed, feed, &tick_logs);
                DistributedRuntime::with_resolver(config, resolver())
                    .run(&spec)
                    .map(|r| {
                        attempts = r.ft.recovery.attempts;
                        if trace {
                            (snapshots, spans) = (r.snapshots, r.spans);
                        }
                        r.ft.result
                    })
            }
        };
        let cpu = sys::cpu_time().saturating_sub(cpu0);

        // One tick log per source, written by whichever process hosted it.
        let logs: Vec<Vec<u64>> = (0..self.pools.len())
            .map(|i| take_tick_log(&tick_log_path(&tick_logs, i)))
            .collect();
        let late = logs.iter().find_map(|log| unsustained(log));
        let mut lags = logs.concat();
        lags.sort_unstable();

        if let Some(t) = &tel {
            snapshots = t.registry.snapshot();
            spans = t.trace.as_ref().map(|b| b.drain()).unwrap_or_default();
        }
        let mut rep = Rep {
            offered: feed.total * sources,
            failure: None,
            result: None,
            cpu,
            latencies: Vec::new(),
            lags,
            slices: Vec::new(),
            snapshots,
            spans,
        };
        match outcome {
            Err(e) => rep.failure = Some(Failure::Broken(format!("engine error: {e}"))),
            Ok(mut result) => {
                rep.latencies = std::mem::take(&mut result.latencies_ns);
                if kind == Kind::Paced {
                    let parts = feed.total / feed.per_tick.max(1) / SLICE_MS;
                    rep.slices = slices(&rep.latencies, &logs, parts.max(1) as usize);
                }
                rep.latencies.sort_unstable();
                let ticks = feed.total.div_ceil(feed.per_tick.max(1)) * sources;
                rep.failure = if attempts > 1 {
                    Some(Failure::Broken(format!("needed {attempts} attempts")))
                } else if let Err(why) = check_counts(self.expected(kind), &result) {
                    Some(Failure::Broken(why))
                } else if feed.per_tick > 0 && rep.lags.len() as u64 != ticks {
                    let logged = rep.lags.len();
                    Some(Failure::Broken(format!(
                        "tick log has {logged} of {ticks} ticks"
                    )))
                } else if kind == Kind::Paced {
                    late.map(Failure::Unsustained)
                } else {
                    None
                };
                rep.result = Some(result);
            }
        }
        rep
    }

    /// Run one rep under the watchdog: ten times the rep's expected length
    /// (at least 10 s, so that process start-up at smoke scale cannot trip
    /// it). A hung rep cannot be cancelled, so on expiry the worker
    /// processes are killed, `on_hang` prints what the run has so far, and
    /// the process exits non-zero.
    pub fn rep(&self, kind: Kind, trace: bool, on_hang: &dyn Fn(u64)) -> Rep {
        let deadline = (self.expected_length(kind) * 10).max(Duration::from_secs(10));
        let (tx, rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let _ = tx.send(self.execute(kind, trace));
            });
            match rx.recv_timeout(deadline) {
                Ok(rep) => rep,
                Err(_) => {
                    let killed = sys::kill_children();
                    eprintln!(
                        "watchdog: {kind:?} rep of {} still running after {deadline:?}; \
                         killed {killed} worker process(es)",
                        self.workload.name
                    );
                    on_hang(self.feed(kind).total * self.pools.len() as u64);
                    std::process::exit(2);
                }
            }
        })
    }

    /// The warm-up rep: paced, every sink tuple captured and compared with
    /// the reference. Returns the rep and whether its outputs were right.
    pub fn warm_up(&self, on_hang: &dyn Fn(u64)) -> (Rep, Result<(), String>) {
        let rep = self.rep(Kind::WarmUp, false, on_hang);
        let verdict = match (&rep.failure, &rep.result) {
            (Some(why), _) => Err(why.to_string()),
            (None, Some(r)) => check_captured(
                self.workload.job,
                self.expected(Kind::WarmUp),
                &r.sink_tuples,
            ),
            (None, None) => Err("no result".into()),
        };
        (rep, verdict)
    }
}

/// Attempted and failed operations (source tuples offered in timed reps).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Source tuples offered.
    pub attempted: u64,
    /// Source tuples of reps whose outputs cannot be trusted.
    pub failed: u64,
}

impl Tally {
    /// Count one finished rep.
    pub fn count(&mut self, rep: &Rep) {
        self.attempted += rep.offered;
        if !rep.outputs_correct() {
            self.failed += rep.offered;
        }
    }

    /// Count every tuple of a rep the watchdog ended as failed.
    pub fn count_hung(&mut self, offered: u64) {
        self.attempted += offered;
        self.failed += offered;
    }
}

/// The slices of the paced reps whose outputs were right, least late first,
/// and how many of them are quiet.
fn paced_slices(reps: &[(Kind, Rep)]) -> (Vec<Slice>, usize) {
    let mut all: Vec<Slice> = reps
        .iter()
        .filter(|(k, r)| *k == Kind::Paced && r.outputs_correct())
        .flat_map(|(_, r)| r.slices.iter().copied())
        .collect();
    all.sort_by_key(|s| s.lag_p90_ns);
    let quiet = all.partition_point(|s| s.lag_p90_ns <= QUIET_LAG_NS);
    (all, quiet)
}

/// A latency of the paced reps in ms: the median of `f` over their quiet
/// slices (see [`QUIET_LAG_NS`]), and over the [`MIN_SLICES`] least late
/// slices if fewer are quiet. Slices are chosen by how late the generator
/// ran, never by the latency they show; a rate the engine cannot sustain
/// leaves no quiet slice, and [`quiet_share`] says so.
pub fn quiet_latency_ms(reps: &[(Kind, Rep)], f: impl Fn(&Slice) -> u64) -> f64 {
    let (all, quiet) = paced_slices(reps);
    let chosen = &all[..quiet.max(MIN_SLICES).min(all.len())];
    median(&chosen.iter().map(|s| f(s) as f64 / 1e6).collect::<Vec<_>>())
}

/// Share of the paced reps' slices that were quiet.
pub fn quiet_share(reps: &[(Kind, Rep)]) -> f64 {
    let (all, quiet) = paced_slices(reps);
    quiet as f64 / all.len().max(1) as f64
}

/// Median of `f(rep)` over the reps of one kind that neither broke nor ran
/// unsustained (such a rep did not run at the stated rate); if there is no
/// such rep, over all that returned a result.
pub fn median_of(reps: &[(Kind, Rep)], kind: Kind, f: impl Fn(&Rep) -> f64) -> f64 {
    let values = |clean: bool| -> Vec<f64> {
        reps.iter()
            .filter(|(k, r)| *k == kind && r.result.is_some())
            .filter(|(_, r)| !clean || r.failure.is_none())
            .map(|(_, r)| f(r))
            .collect()
    };
    let clean = values(true);
    median(&if clean.is_empty() {
        values(false)
    } else {
        clean
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(offered: u64, failure: Option<Failure>) -> Rep {
        Rep {
            offered,
            failure,
            result: Some(RunResult {
                sink_tuples: Vec::new(),
                latencies_ns: Vec::new(),
                tuples_out: 0,
                tuples_in: offered,
                elapsed: Duration::from_secs(1),
                operator_stats: Vec::new(),
            }),
            cpu: Duration::ZERO,
            latencies: Vec::new(),
            lags: Vec::new(),
            slices: Vec::new(),
            snapshots: Vec::new(),
            spans: Vec::new(),
        }
    }

    #[test]
    fn only_reps_with_untrusted_outputs_fail() {
        let late = || Some(Failure::Unsustained("late".into()));
        let mut tally = Tally::default();
        // However many reps the machine disturbed, their outputs were right.
        for failure in [None, late(), late(), late()] {
            tally.count(&rep(100, failure));
        }
        assert_eq!((tally.attempted, tally.failed), (400, 0));
        tally.count(&rep(100, Some(Failure::Broken("counts".into()))));
        tally.count_hung(50);
        assert_eq!((tally.attempted, tally.failed), (550, 150));
    }

    #[test]
    fn a_rep_is_cut_into_slices_of_arrival_and_tick_order() {
        // 8 results and two sources of 4 ticks, in two slices: the second
        // half of the rep arrived late behind source 1's late ticks.
        let latencies = [10, 30, 20, 40, 900, 700, 800, 600];
        let logs = vec![vec![1, 2, 3, 4], vec![5, 5, 70, 90]];
        let cut = slices(&latencies, &logs, 2);
        let slice = |lat_p50_ns, lat_p90_ns, lag_p90_ns| Slice {
            lat_p50_ns,
            lat_p90_ns,
            lag_p90_ns,
        };
        assert_eq!(cut, [slice(30, 40, 5), slice(800, 900, 90)]);
        // A slice in which nothing arrived has no latency to report.
        assert_eq!(slices(&[7], &logs, 2), [slice(7, 7, 90)]);
    }

    #[test]
    fn paced_latency_is_taken_over_quiet_slices() {
        let sliced = |lat_and_lag: &[(u64, u64)]| {
            let mut r = rep(100, None);
            r.slices = lat_and_lag
                .iter()
                .map(|&(lat, lag)| Slice {
                    lat_p50_ns: lat * 1_000_000,
                    lat_p90_ns: 2 * lat * 1_000_000,
                    lag_p90_ns: lag,
                })
                .collect();
            (Kind::Paced, r)
        };
        // Ten quiet slices at 2 ms, six stalled ones: the stall is not seen.
        let quiet: Vec<(u64, u64)> = (0..10).map(|i| (2, 100_000 + i)).collect();
        let stalled: Vec<(u64, u64)> = (0..6).map(|i| (50, 30_000_000 + i)).collect();
        let reps = vec![sliced(&quiet), sliced(&stalled)];
        assert_eq!(quiet_latency_ms(&reps, |s| s.lat_p50_ns), 2.0);
        assert_eq!(quiet_latency_ms(&reps, |s| s.lat_p90_ns), 4.0);
        assert_eq!(quiet_share(&reps), 10.0 / 16.0);
        // One quiet slice is too few: the three least late make up four.
        let reps = vec![sliced(&quiet[..1]), sliced(&stalled)];
        assert_eq!(quiet_latency_ms(&reps, |s| s.lat_p50_ns), 50.0);
        // A rate the engine cannot sustain has no quiet slice, and still
        // reports what it measured.
        let reps = vec![sliced(&stalled)];
        assert_eq!(quiet_latency_ms(&reps, |s| s.lat_p50_ns), 50.0);
        assert_eq!(quiet_share(&reps), 0.0);
        // Slices of a rep with wrong outputs are left out.
        let mut broken = sliced(&quiet);
        broken.1.failure = Some(Failure::Broken("counts".into()));
        assert_eq!(quiet_share(&[broken]), 0.0);
    }

    #[test]
    fn medians_leave_unsustained_reps_out_while_a_sustained_one_exists() {
        let late = || Some(Failure::Unsustained("late".into()));
        let mut reps = vec![
            (Kind::Paced, rep(100, None)),
            (Kind::Paced, rep(900, late())),
            (Kind::Paced, rep(300, None)),
            (Kind::Drain, rep(5_000, None)),
        ];
        assert_eq!(median_of(&reps, Kind::Paced, Rep::capacity_tps), 200.0);
        reps.retain(|(_, r)| r.failure.is_some());
        assert_eq!(median_of(&reps, Kind::Paced, Rep::capacity_tps), 900.0);
        assert_eq!(median_of(&reps, Kind::Drain, Rep::capacity_tps), 0.0);
    }
}
