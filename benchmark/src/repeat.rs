//! `--repeat-check N`: does this benchmark, on this machine, agree with
//! itself? Runs every workload 2 × N times — two sets of N seeds, their
//! runs alternating so that both sets see the same drift of the machine —
//! and asks of every end-to-end metric that the two medians differ by no
//! more than the metric's bound, whichever is the better one, and that the
//! distance between the quartiles of each set stays within a third of the
//! bound (the margin the benchmark's contract asks for). Names and bounds
//! come from `BENCHMARK.json`, so there is one copy of them.

use crate::stats::{iqr_share, median};
use crate::workloads::WORKLOADS;
use serde_json::{json, Map, Value};
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

const REPORT: &str = "benchmark/REPEATABILITY.json";

/// One run of one workload in a child process; its result line, parsed.
fn run_once(workload: &str, seed: usize, seconds: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    // A failed or unsustained rep is the one thing worth seeing from a run
    // that otherwise only contributes its result line.
    for line in String::from_utf8_lossy(&out.stderr).lines() {
        if ["FAILED", "WRONG", "unsustained"]
            .iter()
            .any(|w| line.contains(w))
        {
            eprintln!("{workload} seed {seed}:{line}");
        }
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str::<Value>(last).map_err(|e| {
        format!(
            "{workload} seed {seed}: no result line ({e}); exit {:?}; stderr: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })
}

/// Run the check; returns the process exit code.
pub fn check(n: usize, seconds: u64) -> i32 {
    let Some(spec) = std::fs::read_to_string("BENCHMARK.json")
        .ok()
        .and_then(|t| serde_json::from_str::<Value>(&t).ok())
    else {
        eprintln!("--repeat-check reads BENCHMARK.json: run it from the root of the checkout");
        return 1;
    };
    let gated: Vec<(String, f64)> = spec["end_to_end"]
        .as_array()
        .map(|a| {
            a.iter()
                .map(|m| {
                    (
                        m["name"].as_str().unwrap_or_default().to_string(),
                        m["bound"].as_f64().unwrap_or(0.0),
                    )
                })
                .collect()
        })
        .unwrap_or_default();

    // sets[set][workload][metric] = one number per run.
    let mut sets = [(); 2].map(|()| vec![vec![Vec::<f64>::new(); gated.len()]; WORKLOADS.len()]);
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0usize);
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for seed in 1..=n {
            // Alternate which set goes first, so neither is always the one
            // that runs right after another workload.
            for set in [seed % 2, (seed + 1) % 2] {
                let result = match run_once(w.name, seed, seconds) {
                    Ok(r) => r,
                    Err(why) => {
                        eprintln!("{why}");
                        return 1;
                    }
                };
                attempted += result["attempted"].as_u64().unwrap_or(0);
                failed += result["failed"].as_u64().unwrap_or(0);
                wrong += usize::from(result["correct"].as_bool() != Some(true));
                let line: Vec<String> = gated
                    .iter()
                    .enumerate()
                    .map(|(mi, (name, _))| {
                        let v = result["metrics"][name.as_str()]["value"]
                            .as_f64()
                            .unwrap_or(0.0);
                        sets[set][wi][mi].push(v);
                        format!("{name} {v:.4}")
                    })
                    .collect();
                eprintln!(
                    "set {} {} seed {seed}: {}",
                    set + 1,
                    w.name,
                    line.join(", ")
                );
            }
        }
    }

    let mut ok = failed == 0 && wrong == 0;
    let mut rows = Vec::new();
    println!(
        "{:13} {:17} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}",
        "workload", "metric", "median 1", "median 2", "differ", "spread 1", "spread 2", "bound"
    );
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for (mi, (name, bound)) in gated.iter().enumerate() {
            let (first, second) = (&sets[0][wi][mi], &sets[1][wi][mi]);
            let (m1, m2) = (median(first), median(second));
            // The sets must agree: whichever median is the worse one, it
            // is so by no more than the bound.
            let differ = (m1 - m2).abs() / m1.min(m2);
            let (s1, s2) = (iqr_share(first), iqr_share(second));
            // The spread of set-up time is reported but, as in the
            // contract's rule, does not gate.
            let steady = name == "setup_s" || s1.max(s2) <= *bound / 3.0;
            let verdict = differ <= *bound && steady;
            ok &= verdict;
            println!(
                "{:13} {name:17} {m1:>12.4} {m2:>12.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%{}",
                w.name,
                differ * 100.0,
                s1 * 100.0,
                s2 * 100.0,
                bound * 100.0,
                if verdict { "" } else { "  <-- NOT repeatable" }
            );
            rows.push(json!({
                "workload": w.name,
                "metric": name.as_str(),
                "bound": *bound,
                "median_1": m1,
                "median_2": m2,
                "medians_differ_by": differ,
                "spread_1": s1,
                "spread_2": s2,
                "repeatable": verdict,
                "runs_1": first.clone(),
                "runs_2": second.clone(),
            }));
        }
    }
    println!(
        "{attempted} tuples attempted, {failed} failed, {wrong} run(s) with wrong outputs: {}",
        if ok { "repeatable" } else { "NOT repeatable" }
    );

    let os = |file: &str| {
        std::fs::read_to_string(format!("/proc/sys/kernel/{file}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    };
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let mut report = Map::new();
    report.insert("unix_time".into(), json!(now));
    report.insert(
        "nproc".into(),
        json!(std::thread::available_parallelism().map_or(0, usize::from)),
    );
    report.insert(
        "kernel".into(),
        json!(format!("{} {}", os("ostype"), os("osrelease"))),
    );
    report.insert("runs_per_set".into(), json!(n));
    report.insert("seconds".into(), json!(seconds));
    report.insert("attempted".into(), json!(attempted));
    report.insert("failed".into(), json!(failed));
    report.insert("repeatable".into(), json!(ok));
    report.insert("metrics".into(), Value::Array(rows));
    match serde_json::to_string_pretty(&Value::Object(report)) {
        Ok(text) => {
            if let Err(e) = std::fs::write(REPORT, text + "\n") {
                eprintln!("cannot write {REPORT}: {e}");
                return 1;
            }
        }
        Err(e) => {
            eprintln!("cannot serialize the report: {e}");
            return 1;
        }
    }
    i32::from(!ok)
}
