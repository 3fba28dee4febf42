//! Chaos scenario suite: drives the engine through the adversarial
//! hazard streams (hot key, burst train, late storm) with the overload
//! ladder enabled and writes `BENCH_chaos.json` — sustained p99, shed and
//! late fractions, the degradation curve sampled over the run, and
//! whether the telemetry alarms that fired during the storm resolved by
//! the end. CI runs this at reduced scale and fails the build if any
//! scenario ends with alarms still firing, if shedding accounting does
//! not balance, or if a scenario misses its resilience expectation
//! (hot key / burst must shed, the late storm must produce late tuples).
//!
//! The suite also drives the distributed multi-process runtime through
//! its two hard failure modes — a real SIGKILL of a worker process and a
//! severed data connection mid-run — and records whether the coordinator
//! detected, restored, and finished exactly-once, plus the time each
//! recovery took. A distributed scenario that fails to recover fails the
//! whole run. The chaos binary doubles as its own worker process
//! (`--worker-mode`), so the distributed scenarios are self-contained.
//!
//! ```text
//! cargo run --release -p pdsp-bench-benches --bin chaos
//! cargo run --release -p pdsp-bench-benches --bin chaos -- \
//!     --tuples 8000 --seed 7 --out target/BENCH_chaos.json
//! ```

use pdsp_engine::agg::AggFunc;
use pdsp_engine::distributed::{DistributedConfig, DistributedRuntime, KillSpec};
use pdsp_engine::fault::{DeliveryMode, RestartPolicy};
use pdsp_engine::operator::OpKind;
use pdsp_engine::plan::{LogicalPlan, Partitioning};
use pdsp_engine::pressure::OverloadConfig;
use pdsp_engine::runtime::{RunConfig, SourceFactory, ThreadedRuntime};
use pdsp_engine::telemetry_for_plan;
use pdsp_engine::udo::{CostProfile, FnUdo};
use pdsp_engine::value::{Schema, Tuple};
use pdsp_engine::window::WindowSpec;
use pdsp_engine::{PhysicalPlan, PlanBuilder, WorkerMain};
use pdsp_telemetry::{AlarmKind, AlarmMonitor, TelemetryConfig};
use pdsp_workload::hazards::{HazardConfig, HazardKind, HazardStream};
use serde::Serialize;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DEFAULT_TUPLES: usize = 40_000;
const DEFAULT_SEED: u64 = 0x5eed;
const PARALLELISM: usize = 2;
/// Monitor sampling period: the degradation curve's resolution.
const SAMPLE_INTERVAL_MS: u64 = 25;
/// Busy-work per tuple in the grind stage for queue-pressure scenarios;
/// at ~20us/tuple two instances cap out near 100k tuples/s, far below
/// what the sources can emit, so the ladder must escalate.
const GRIND_NS_HEAVY: u64 = 20_000;
/// Light grind for the late-storm scenario: lateness accounting, not
/// shedding, is under test there.
const GRIND_NS_LIGHT: u64 = 200;

/// One sample of the degradation curve.
#[derive(Serialize)]
struct CurvePoint {
    t_ms: u64,
    /// Highest overload-escalation rung across instances at this instant.
    max_pressure: u64,
    tuples_in: u64,
    shed: u64,
    late: u64,
    alarms_firing: usize,
}

#[derive(Serialize)]
struct ScenarioReport {
    scenario: String,
    tuples_in: u64,
    tuples_out: u64,
    throughput_tps: f64,
    p50_ms: f64,
    p99_ms: f64,
    shed: u64,
    late: u64,
    shed_fraction: f64,
    late_fraction: f64,
    /// Engine counters and telemetry counters agree on the shed total.
    accounting_ok: bool,
    /// Whether any alarm fired at some point during the run.
    alarms_fired: bool,
    /// No alarms firing at the final evaluation.
    recovered: bool,
    /// Time of the last sample with a firing alarm (0 if none ever fired).
    time_to_recover_ms: u64,
    /// The scenario-specific resilience expectation held (hot key and
    /// burst shed; late storm produces late tuples).
    expectation_met: bool,
    curve: Vec<CurvePoint>,
}

/// One distributed-runtime failure scenario: SIGKILL or connection drop
/// against a 2-worker process deployment.
#[derive(Serialize)]
struct DistScenarioReport {
    scenario: String,
    spec: String,
    workers: usize,
    /// The run finished and delivered its result (after any restarts).
    recovered: bool,
    /// Execution attempts (1 = the fault never cost an attempt).
    attempts: usize,
    completed_checkpoints: u64,
    restored_checkpoint: Option<u64>,
    /// Failure detection to respawn, per restart, in milliseconds — the
    /// distributed degradation measure.
    recovery_times_ms: Vec<f64>,
    /// Worst single recovery (0 if no restart happened).
    time_to_recover_ms: f64,
    replayed_tuples: u64,
    duplicate_tuples: u64,
    rolled_back_tuples: u64,
    tuples_in: u64,
    tuples_out: u64,
    /// Heartbeat-gap alarms the coordinator raised (the observable warning
    /// ahead of lease expiry).
    heartbeat_gap_alarms: usize,
    elapsed_ms: f64,
    /// Scenario-specific expectation: the injected fault must actually
    /// bite (kill costs an attempt) and exactly-once must hold.
    expectation_met: bool,
}

#[derive(Serialize)]
struct ChaosReport {
    suite: String,
    backend: String,
    seed: u64,
    parallelism: usize,
    tuples_per_scenario: usize,
    allowed_lateness_ms: i64,
    scenarios: Vec<ScenarioReport>,
    distributed_scenarios: Vec<DistScenarioReport>,
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The scenario plan: hazard source -> CPU-bound grind stage (the
/// overload point) -> keyed event-time aggregate (the lateness point)
/// -> sink.
fn scenario_plan(grind_ns: u64) -> LogicalPlan {
    let grind = FnUdo::new(
        "grind",
        CostProfile::stateless(grind_ns as f64, 1.0),
        |s: &Schema| s.clone(),
        move |t: Tuple, out: &mut Vec<Tuple>| {
            let deadline = Instant::now() + Duration::from_nanos(grind_ns);
            while Instant::now() < deadline {
                std::hint::spin_loop();
            }
            out.push(t);
        },
    );
    let mut b = PlanBuilder::new();
    let s = b.add_node(
        "hazard-src",
        OpKind::Source {
            schema: HazardStream::schema(),
        },
        PARALLELISM,
    );
    let g = b.add_node("grind", pdsp_engine::operator::udo_op(grind), PARALLELISM);
    let a = b.add_node(
        "agg",
        OpKind::WindowAggregate {
            window: WindowSpec::tumbling_time(200),
            func: AggFunc::Sum,
            agg_field: 1,
            key_field: Some(0),
        },
        PARALLELISM,
    );
    let k = b.add_node("sink", OpKind::Sink, 1);
    b.add_edge(s, g, 0, Partitioning::Rebalance);
    b.add_edge(g, a, 0, Partitioning::Hash(vec![0]));
    b.add_edge(a, k, 0, Partitioning::Rebalance);
    b.build().expect("scenario plan is valid")
}

fn run_scenario(hazard: HazardConfig, tuples: usize, seed: u64) -> ScenarioReport {
    let label = hazard.kind.label().to_string();
    let late_storm = matches!(hazard.kind, HazardKind::LateStorm { .. });
    let grind_ns = if late_storm {
        GRIND_NS_LIGHT
    } else {
        GRIND_NS_HEAVY
    };
    let hazard = HazardConfig {
        total_tuples: tuples,
        ..hazard
    };

    let config = RunConfig {
        // A short queue makes occupancy respond quickly; the ladder is
        // exercised, not hidden behind a deep buffer.
        channel_capacity: 256,
        batch_size: 32,
        overload: OverloadConfig {
            allowed_lateness_ms: 100,
            seed,
            ..OverloadConfig::enabled()
        },
        ..RunConfig::default()
    };
    let plan = scenario_plan(grind_ns);
    let phys = PhysicalPlan::expand(&plan).expect("scenario plan expands");
    let tel = telemetry_for_plan(
        &format!("chaos-{label}"),
        &phys,
        TelemetryConfig {
            interval_ms: SAMPLE_INTERVAL_MS,
            ..TelemetryConfig::default()
        },
    );

    // Monitor thread: samples the registry on the curve interval and runs
    // the alarm monitor over each sample.
    let registry = Arc::clone(&tel.registry);
    let stop = Arc::new(AtomicBool::new(false));
    let monitor = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut alarms = AlarmMonitor::default();
            let mut curve = Vec::new();
            let start = Instant::now();
            loop {
                let done = stop.load(Ordering::Relaxed);
                let snaps = registry.snapshot();
                alarms.evaluate(&snaps);
                curve.push(CurvePoint {
                    t_ms: start.elapsed().as_millis() as u64,
                    max_pressure: snaps.iter().map(|s| s.pressure).max().unwrap_or(0),
                    tuples_in: snaps.iter().map(|s| s.tuples_in).sum(),
                    shed: snaps.iter().map(|s| s.shed_tuples).sum(),
                    late: snaps.iter().map(|s| s.late_tuples).sum(),
                    alarms_firing: alarms.firing().len(),
                });
                if done {
                    // The sample above absorbed the run's tail interval;
                    // one more evaluation over the now-quiescent counters
                    // answers the recovery question: with load gone, do
                    // the alarms clear? A stuck pressure gauge or a
                    // counter that keeps moving still fails this.
                    alarms.evaluate(&registry.snapshot());
                    return (curve, alarms.all_clear());
                }
                std::thread::sleep(Duration::from_millis(SAMPLE_INTERVAL_MS));
            }
        })
    };

    let sources: Vec<Arc<dyn SourceFactory>> = vec![HazardStream::new(hazard)];
    let result = ThreadedRuntime::new(config)
        .run_with_telemetry(&phys, &sources, &tel)
        .unwrap_or_else(|e| {
            eprintln!("{label}: run failed: {e}");
            std::process::exit(1);
        });
    stop.store(true, Ordering::Relaxed);
    let (curve, recovered) = monitor.join().expect("monitor thread");

    let shed = result.total_shed();
    let late = result.total_late();
    let telemetry_shed: u64 = tel.registry.snapshot().iter().map(|s| s.shed_tuples).sum();
    let shed_fraction = shed as f64 / result.tuples_in.max(1) as f64;
    let late_fraction = late as f64 / result.tuples_in.max(1) as f64;
    let alarms_fired = curve.iter().any(|p| p.alarms_firing > 0);
    let time_to_recover_ms = curve
        .iter()
        .filter(|p| p.alarms_firing > 0)
        .map(|p| p.t_ms)
        .max()
        .unwrap_or(0);
    let expectation_met = if late_storm { late > 0 } else { shed > 0 };

    ScenarioReport {
        scenario: label,
        tuples_in: result.tuples_in,
        tuples_out: result.tuples_out,
        throughput_tps: result.throughput_in(),
        p50_ms: result.latency_percentile_ns(50.0).unwrap_or(0) as f64 / 1e6,
        p99_ms: result.latency_percentile_ns(99.0).unwrap_or(0) as f64 / 1e6,
        shed,
        late,
        shed_fraction,
        late_fraction,
        accounting_ok: telemetry_shed == shed,
        alarms_fired,
        recovered,
        time_to_recover_ms,
        expectation_met,
        curve,
    }
}

/// Run one distributed failure scenario: a 2-worker deployment of a
/// seeded corpus plan with either a real SIGKILL or a severed data
/// connection injected mid-run. The worker processes are this very
/// binary re-executed in `--worker-mode`.
fn run_dist_scenario(
    label: &str,
    spec: &str,
    kill: Option<KillSpec>,
    drop_data_after_ms: Option<u64>,
) -> DistScenarioReport {
    let exe = std::env::current_exe()
        .expect("own executable path")
        .to_str()
        .expect("utf-8 executable path")
        .to_string();
    let mut config = DistributedConfig {
        workers: 2,
        worker_bin: vec![exe, "--worker-mode".into()],
        heartbeat_ms: 10,
        lease_timeout_ms: 400,
        kill,
        drop_data_after_ms,
        ..DistributedConfig::default()
    };
    config.ft.mode = DeliveryMode::ExactlyOnce;
    config.ft.checkpoint_interval_tuples = 256;
    config.ft.restart = RestartPolicy {
        max_restarts: 4,
        backoff: Duration::from_millis(5),
    };

    match DistributedRuntime::new(config).run(spec) {
        Ok(run) => {
            let rec = &run.ft.recovery;
            let time_to_recover_ms = rec.recovery_times_ms.iter().cloned().fold(0.0, f64::max);
            // A kill scenario where the process died after the run already
            // finished tested nothing; exactly-once must hold regardless.
            let expectation_met =
                (kill.is_none() || rec.attempts >= 2) && rec.duplicate_tuples == 0;
            DistScenarioReport {
                scenario: label.to_string(),
                spec: spec.to_string(),
                workers: 2,
                recovered: true,
                attempts: rec.attempts,
                completed_checkpoints: rec.completed_checkpoints,
                restored_checkpoint: rec.restored_checkpoint,
                recovery_times_ms: rec.recovery_times_ms.clone(),
                time_to_recover_ms,
                replayed_tuples: rec.replayed_tuples,
                duplicate_tuples: rec.duplicate_tuples,
                rolled_back_tuples: rec.rolled_back_tuples,
                tuples_in: run.ft.result.tuples_in,
                tuples_out: run.ft.result.tuples_out,
                heartbeat_gap_alarms: run
                    .alarms
                    .iter()
                    .filter(|a| a.kind == AlarmKind::HeartbeatGap)
                    .count(),
                elapsed_ms: run.ft.result.elapsed.as_secs_f64() * 1e3,
                expectation_met,
            }
        }
        Err(e) => {
            eprintln!("{label}: distributed run did not recover: {e}");
            DistScenarioReport {
                scenario: label.to_string(),
                spec: spec.to_string(),
                workers: 2,
                recovered: false,
                attempts: 0,
                completed_checkpoints: 0,
                restored_checkpoint: None,
                recovery_times_ms: Vec::new(),
                time_to_recover_ms: 0.0,
                replayed_tuples: 0,
                duplicate_tuples: 0,
                rolled_back_tuples: 0,
                tuples_in: 0,
                tuples_out: 0,
                heartbeat_gap_alarms: 0,
                elapsed_ms: 0.0,
                expectation_met: false,
            }
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Re-executed by the coordinator as a worker process: hand over to the
    // engine's worker main and never touch the report.
    if args.first().map(String::as_str) == Some("--worker-mode") {
        let Some(addr) = arg_value(&args, "--coordinator") else {
            eprintln!("--worker-mode needs --coordinator ADDR --id N");
            std::process::exit(2);
        };
        let Some(id) = arg_value(&args, "--id").and_then(|v| v.parse::<usize>().ok()) else {
            eprintln!("--worker-mode needs --coordinator ADDR --id N");
            std::process::exit(2);
        };
        if let Err(e) = WorkerMain::default().run(&addr, id) {
            eprintln!("worker {id} failed: {e}");
            std::process::exit(1);
        }
        return;
    }
    let out = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_chaos.json".into());
    let tuples: usize = arg_value(&args, "--tuples")
        .map(|v| v.parse().expect("--tuples takes a number"))
        .unwrap_or(DEFAULT_TUPLES);
    let seed: u64 = arg_value(&args, "--seed")
        .map(|v| v.parse().expect("--seed takes a number"))
        .unwrap_or(DEFAULT_SEED);

    let mut scenarios = Vec::new();
    let mut failed = false;
    for hazard in HazardConfig::canonical_suite(seed) {
        print!("{:12} ... ", hazard.kind.label());
        let r = run_scenario(hazard, tuples, seed);
        println!(
            "p99 {:.1} ms  shed {:.1}%  late {:.1}%  {}",
            r.p99_ms,
            100.0 * r.shed_fraction,
            100.0 * r.late_fraction,
            if r.recovered {
                "recovered"
            } else {
                "ALARMS STILL FIRING"
            }
        );
        if !r.recovered {
            eprintln!("{}: run ended with alarms still firing", r.scenario);
            failed = true;
        }
        if !r.accounting_ok {
            eprintln!(
                "{}: shed accounting mismatch between engine and telemetry",
                r.scenario
            );
            failed = true;
        }
        if !r.expectation_met {
            eprintln!(
                "{}: resilience expectation missed (shed={}, late={})",
                r.scenario, r.shed, r.late
            );
            failed = true;
        }
        scenarios.push(r);
    }

    // Distributed failure scenarios: kill a worker process for real, then
    // sever the data plane. Specs come from the seeded corpus, whose
    // throttled sources guarantee the fault lands mid-run.
    let mut distributed_scenarios = Vec::new();
    for (label, spec, kill, drop_ms) in [
        (
            "process-kill",
            format!("seeded:{}:8192:2", seed % 3),
            Some(KillSpec {
                worker: 1,
                after_ms: 20,
            }),
            None,
        ),
        (
            "connection-drop",
            format!("seeded:{}:8192:2", (seed + 1) % 3),
            None,
            Some(15),
        ),
    ] {
        print!("{label:12} ... ");
        let r = run_dist_scenario(label, &spec, kill, drop_ms);
        println!(
            "attempts {}  replayed {}  recovery {:.1} ms  {}",
            r.attempts,
            r.replayed_tuples,
            r.time_to_recover_ms,
            if r.recovered {
                "recovered"
            } else {
                "DID NOT RECOVER"
            }
        );
        if !r.recovered {
            eprintln!("{}: distributed run failed to recover", r.scenario);
            failed = true;
        }
        if !r.expectation_met {
            eprintln!(
                "{}: distributed expectation missed (attempts={}, duplicates={})",
                r.scenario, r.attempts, r.duplicate_tuples
            );
            failed = true;
        }
        distributed_scenarios.push(r);
    }

    let report = ChaosReport {
        suite: "chaos".into(),
        backend: "threaded".into(),
        seed,
        parallelism: PARALLELISM,
        tuples_per_scenario: tuples,
        allowed_lateness_ms: 100,
        scenarios,
        distributed_scenarios,
    };
    match serde_json::to_string_pretty(&report) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&out, json) {
                eprintln!("cannot write {out}: {e}");
                std::process::exit(1);
            }
            println!("wrote {out}");
        }
        Err(e) => {
            eprintln!("cannot serialize report: {e}");
            std::process::exit(1);
        }
    }
    if failed {
        std::process::exit(1);
    }
}
