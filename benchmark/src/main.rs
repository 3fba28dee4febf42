//! The repo's benchmark. One process runs one workload:
//!
//! ```text
//! pdsp-benchmark --workload W --seed S --seconds N --trace 0|1
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones; either way the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--repeat-check N`
//! runs the acceptance rule on this machine, and `--worker-mode` is how the
//! distributed workload re-executes this binary as its own worker.

mod harness;
mod layers;
mod pacing;
mod reference;
mod repeat;
mod stats;
mod sys;
mod workloads;

use harness::{quiet_latency_ms, quiet_share, Kind, Rep, Setup, Tally, OUT_DIR, PACED_REPS};
use pdsp_engine::WorkerMain;
use serde_json::{json, Map, Value};
use std::time::Instant;

/// Value following `flag` on the command line.
fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage() -> ! {
    let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: pdsp-benchmark --workload <{}> [--seed N] [--seconds N] [--trace 0|1]\n\
         \x20      pdsp-benchmark --repeat-check [N] [--seconds N]",
        names.join("|")
    );
    std::process::exit(64);
}

fn metric(value: f64, unit: &str) -> Value {
    json!({ "value": value, "unit": unit })
}

/// The result line: last on standard output, one JSON object.
fn print_result(correct: bool, tally: Tally, metrics: &Map) {
    for (name, m) in metrics.iter() {
        println!(
            "{name:44} {:>16.4} {}",
            m["value"].as_f64().unwrap_or(0.0),
            m["unit"].as_str().unwrap_or("")
        );
    }
    println!(
        "{}",
        json!({
            "correct": correct,
            "attempted": tally.attempted.max(1),
            "failed": tally.failed,
            "metrics": Value::Object(metrics.clone()),
        })
    );
}

/// The end-to-end metrics from the paced reps finished so far.
fn end_to_end(setup_s: f64, reps: &[(Kind, Rep)]) -> Map {
    let p50 = quiet_latency_ms(reps, |s| s.lat_p50_ns);
    let mut m = Map::new();
    m.insert("lat_p50_ms".into(), metric(p50, "ms"));
    m.insert("setup_s".into(), metric(setup_s, "s"));
    m
}

fn describe(kind: Kind, i: usize, rep: &Rep) {
    eprintln!(
        "  {kind:?} {i}: {:.0} tuples/s, {:.3} us CPU/tuple, latency p50 {:.3} p90 {:.3} p99 {:.3} ms, \
         generator lag p90 {:.3} max {:.3} ms{}",
        rep.capacity_tps(),
        rep.cpu_us_per_tuple(),
        rep.latency_ms(50.0),
        rep.latency_ms(90.0),
        rep.latency_ms(99.0),
        rep.lag_ms(90.0),
        rep.lag_ms(100.0),
        match &rep.failure {
            Some(why @ harness::Failure::Broken(_)) => format!(" FAILED: {why}"),
            Some(why) => format!(" ({why})"),
            None => String::new(),
        }
    );
}

/// Run one workload; returns the process exit code: 1 if outputs were
/// wrong. Unsustained reps are named on standard error and count neither
/// as failed nor in the exit code.
fn run(name: &str, seed: u64, seconds: u64, trace: bool, started: Instant) -> i32 {
    let Some(workload) = workloads::by_name(name) else {
        usage();
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("cannot create {OUT_DIR}: {e}");
        return 1;
    }
    let setup = match Setup::new(workload, seed, seconds) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("set-up of {name} failed: {e}");
            return 1;
        }
    };
    eprintln!(
        "{name}: seed {seed}, {} threads/instances, scale {:.3}",
        setup.plan.instance_count(),
        setup.scale
    );

    let (warm, verdict) = setup.warm_up(&|offered| {
        let mut tally = Tally::default();
        tally.count_hung(offered);
        print_result(false, tally, &Map::new());
    });
    describe(Kind::WarmUp, 0, &warm);
    let mut correct = verdict.is_ok();
    if let Err(why) = &verdict {
        eprintln!("  warm-up outputs are WRONG: {why}");
    }
    let setup_s = started.elapsed().as_secs_f64();

    if trace {
        let (metrics, tally, layers_correct) = layers::run(&setup);
        correct &= layers_correct;
        print_result(correct, tally, &metrics);
        return i32::from(!correct);
    }

    let mut tally = Tally::default();
    let mut reps: Vec<(Kind, Rep)> = Vec::new();
    for i in 0..PACED_REPS {
        let rep = setup.rep(Kind::Paced, false, &|offered| {
            let mut tally = tally;
            tally.count_hung(offered);
            print_result(false, tally, &end_to_end(setup_s, &reps));
        });
        describe(Kind::Paced, i, &rep);
        tally.count(&rep);
        correct &= rep.outputs_correct();
        reps.push((Kind::Paced, rep));
    }
    eprintln!(
        "  {:.0} % of the slices were quiet; not gating (see --trace 1): lat_p90_ms {:.4}, \
         peak_rss_mb {:.1} at this load",
        quiet_share(&reps) * 100.0,
        quiet_latency_ms(&reps, |s| s.lat_p90_ns),
        sys::peak_rss_mib()
    );
    print_result(correct, tally, &end_to_end(setup_s, &reps));
    i32::from(!correct)
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let number = |flag: &str, default: u64| -> u64 {
        match arg(&args, flag) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| usage()),
        }
    };

    if args.first().map(String::as_str) == Some("--worker-mode") {
        let (Some(addr), Some(id)) = (
            arg(&args, "--coordinator"),
            arg(&args, "--id").and_then(|v| v.parse::<usize>().ok()),
        ) else {
            eprintln!("--worker-mode needs --coordinator ADDR --id N");
            std::process::exit(64);
        };
        if let Err(e) = WorkerMain::new(workloads::resolver()).run(addr, id) {
            eprintln!("worker {id} failed: {e}");
            std::process::exit(1);
        }
        return;
    }

    let seconds = number("--seconds", workloads::NOMINAL_SECONDS).max(1);
    if args.iter().any(|a| a == "--repeat-check") {
        let n = arg(&args, "--repeat-check")
            .and_then(|v| v.parse().ok())
            .unwrap_or(5);
        std::process::exit(repeat::check(n, seconds));
    }
    let Some(name) = arg(&args, "--workload") else {
        usage();
    };
    let trace = number("--trace", 0) != 0;
    std::process::exit(run(name, number("--seed", 1), seconds, trace, started));
}
