//! Micro-batching before/after benchmark: runs representative applications
//! on the threaded runtime twice — once with `batch_size = 1` (one tuple
//! per frame, the tuple-at-a-time data plane) and once with the batched
//! data plane — and writes `BENCH_batching.json` with throughput, latency,
//! and the per-app speedup. CI runs this at reduced scale and uploads the
//! file next to `BENCH_telemetry.json`.
//!
//! ```text
//! cargo run --release -p pdsp-bench-benches --bin batching
//! cargo run --release -p pdsp-bench-benches --bin batching -- \
//!     --tuples 30000 --parallelism 4 --out target/BENCH_batching.json
//! ```

use pdsp_apps::{app_by_acronym, AppConfig};
use pdsp_bench_core::controller::Controller;
use pdsp_cluster::{Cluster, SimConfig};
use pdsp_engine::runtime::RunConfig;
use pdsp_store::Store;
use serde::Serialize;
use std::sync::Arc;

/// Word count, smart grid, and spike detection: a shuffle-heavy aggregation,
/// a keyed windowed app, and a stateless analytics pipeline.
const APPS: [&str; 3] = ["WC", "SG", "SD"];
const DEFAULT_TUPLES: usize = 240_000;
const DEFAULT_PARALLELISM: usize = 4;
const BATCHED_SIZE: usize = 32;
/// Runs per configuration; the median-throughput run is reported
/// (thread scheduling on small machines makes single runs noisy).
const RUNS: usize = 3;
/// How much batching may add to p99 before the report flags it. In this
/// closed-loop drain a held tuple waits for the rest of its frame, never
/// for a timer, so the allowance is scheduling slack.
const P99_BOUND_MS: f64 = 10.0;

#[derive(Serialize, Clone, Copy)]
struct Measurement {
    batch_size: usize,
    tuples_in: u64,
    tuples_out: u64,
    throughput_tps: f64,
    p50_ms: f64,
    p99_ms: f64,
    elapsed_s: f64,
}

#[derive(Serialize)]
struct BenchApp {
    acronym: String,
    baseline: Measurement,
    batched: Measurement,
    /// Batched throughput over baseline throughput.
    speedup: f64,
    /// p99 increase of the batched run over baseline, milliseconds.
    p99_delta_ms: f64,
    /// Whether the p99 increase stays within [`P99_BOUND_MS`].
    p99_within_bound: bool,
    outputs_match: bool,
}

#[derive(Serialize)]
struct BenchReport {
    suite: String,
    backend: String,
    parallelism: usize,
    tuples_per_app: usize,
    baseline_batch_size: usize,
    batched_batch_size: usize,
    /// p99 regression allowance in ms ([`P99_BOUND_MS`]).
    p99_bound_ms: f64,
    apps: Vec<BenchApp>,
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn controller_with_batch(batch_size: usize) -> Controller {
    let run_config = RunConfig {
        batch_size,
        // The baseline is the historical engine: no chaining rewrite,
        // per-tuple frames. The batched side gets the full data plane.
        operator_fusion: batch_size > 1,
        // Both sides run the same watermark cadence; the default (64) is
        // tuned for low-rate interactive runs and would flush partial
        // batches before they fill at benchmark rates (every marker flush
        // truncates all builders).
        watermark_interval: 512,
        ..RunConfig::default()
    };
    Controller::new(
        Cluster::homogeneous_m510(4),
        SimConfig::default(),
        Arc::new(Store::in_memory()),
    )
    .with_run_config(run_config)
}

fn run_once(controller: &Controller, acronym: &str, cfg: &AppConfig, p: usize) -> Measurement {
    let app = app_by_acronym(acronym).expect("benchmark app exists");
    let record = match controller.run_threaded(app.as_ref(), cfg, p) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{acronym} failed: {e}");
            std::process::exit(1);
        }
    };
    Measurement {
        batch_size: 0, // caller fills in
        tuples_in: record.summary.tuples_in,
        tuples_out: record.summary.tuples_out,
        throughput_tps: record.summary.throughput_in,
        p50_ms: record.summary.p50_latency_ms,
        p99_ms: record.summary.p99_latency_ms,
        elapsed_s: if record.summary.throughput_in > 0.0 {
            record.summary.tuples_in as f64 / record.summary.throughput_in
        } else {
            0.0
        },
    }
}

/// Run `RUNS` times and keep the median-throughput run.
fn run_median(controller: &Controller, acronym: &str, cfg: &AppConfig, p: usize) -> Measurement {
    let mut runs: Vec<Measurement> = (0..RUNS)
        .map(|_| run_once(controller, acronym, cfg, p))
        .collect();
    runs.sort_by(|a, b| a.throughput_tps.total_cmp(&b.throughput_tps));
    runs[runs.len() / 2]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_batching.json".into());
    let tuples: usize = arg_value(&args, "--tuples")
        .map(|v| v.parse().expect("--tuples takes a number"))
        .unwrap_or(DEFAULT_TUPLES);
    let parallelism: usize = arg_value(&args, "--parallelism")
        .map(|v| v.parse().expect("--parallelism takes a number"))
        .unwrap_or(DEFAULT_PARALLELISM);

    let baseline_ctl = controller_with_batch(1);
    let batched_ctl = controller_with_batch(BATCHED_SIZE);

    let mut apps = Vec::new();
    for acronym in APPS {
        let cfg = AppConfig {
            total_tuples: tuples,
            ..AppConfig::default()
        };
        print!("{acronym:4} ... ");
        let mut baseline = run_median(&baseline_ctl, acronym, &cfg, parallelism);
        baseline.batch_size = 1;
        let mut batched = run_median(&batched_ctl, acronym, &cfg, parallelism);
        batched.batch_size = BATCHED_SIZE;
        let speedup = if baseline.throughput_tps > 0.0 {
            batched.throughput_tps / baseline.throughput_tps
        } else {
            0.0
        };
        let p99_delta_ms = batched.p99_ms - baseline.p99_ms;
        let outputs_match = baseline.tuples_out == batched.tuples_out;
        println!(
            "tuple-at-a-time {:.0} t/s -> batched {:.0} t/s  ({speedup:.2}x, p99 {:+.2} ms)",
            baseline.throughput_tps, batched.throughput_tps, p99_delta_ms
        );
        if !outputs_match {
            eprintln!(
                "{acronym}: output mismatch — baseline {} vs batched {}",
                baseline.tuples_out, batched.tuples_out
            );
            std::process::exit(1);
        }
        apps.push(BenchApp {
            acronym: acronym.to_string(),
            baseline,
            batched,
            speedup,
            p99_delta_ms,
            p99_within_bound: p99_delta_ms <= P99_BOUND_MS,
            outputs_match,
        });
    }

    let report = BenchReport {
        suite: "batching".into(),
        backend: "threaded".into(),
        parallelism,
        tuples_per_app: tuples,
        baseline_batch_size: 1,
        batched_batch_size: BATCHED_SIZE,
        p99_bound_ms: P99_BOUND_MS,
        apps,
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
}
