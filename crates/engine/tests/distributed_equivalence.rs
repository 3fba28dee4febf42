//! Equivalence and chaos tests for the distributed runtime: multi-process
//! runs over loopback TCP must produce exactly the sink multiset of the
//! in-process threaded runtime — with and without a real SIGKILL of a
//! worker process mid-run.
//!
//! The worker binary comes from Cargo (`CARGO_BIN_EXE_pdsp-worker`), so
//! these tests exercise true process isolation: separate address spaces,
//! real sockets, real signals.

use pdsp_engine::distributed::{DistributedConfig, DistributedRuntime, KillSpec};
use pdsp_engine::fault::{DeliveryMode, FtConfig, RestartPolicy};
use pdsp_engine::runtime::{RunConfig, RunResult, ThreadedRuntime};
use pdsp_engine::testplan;
use pdsp_engine::{EngineError, Value};
use pdsp_telemetry::AlarmKind;
use std::collections::BTreeMap;
use std::time::Duration;

fn worker_bin() -> Vec<String> {
    vec![env!("CARGO_BIN_EXE_pdsp-worker").to_string()]
}

fn dist_config(run: RunConfig, workers: usize) -> DistributedConfig {
    DistributedConfig {
        workers,
        ft: FtConfig {
            checkpoint_interval_tuples: 256,
            mode: DeliveryMode::ExactlyOnce,
            restart: RestartPolicy {
                max_restarts: 3,
                backoff: Duration::from_millis(5),
            },
            run,
        },
        heartbeat_ms: 10,
        lease_timeout_ms: 300,
        worker_bin: worker_bin(),
        ..DistributedConfig::default()
    }
}

/// Sink tuples as a sorted multiset of value rows.
fn multiset(res: &RunResult) -> Vec<Vec<Value>> {
    sorted(res.sink_tuples.iter().map(|t| t.values.to_vec()).collect())
}

fn threaded_reference(seed: u64, tuples: u64, run: RunConfig) -> RunResult {
    let (plan, sources) = testplan::build(seed, tuples, 0).unwrap();
    ThreadedRuntime::new(run).run(&plan, &sources).unwrap()
}

/// Closed-form sink multiset of `testplan::build(seed, tuples, _)`, computed
/// from the source stream alone, so it shares no code with any runtime.
/// Seed 2's two filters pass every row: the sinks see the source multiset.
/// Seeds 0 and 1 end in a keyed tumbling count window of N tuples: key k
/// seen nₖ times fires ⌊nₖ/N⌋ windows, each over N copies of k's one value
/// vₖ — so the aggregate is N·vₖ (seed 0, sum) or N (seed 1, count),
/// whatever the arrival order. Rows of seeds 0 and 1 are `[key, aggregate]`.
fn oracle(seed: u64, tuples: u64) -> Vec<Vec<Value>> {
    let (_, sources) = testplan::build(seed, tuples, 0).unwrap();
    let stream: Vec<Vec<Value>> = sources[0]
        .instance_iter(0, 1)
        .map(|t| t.values.into_vec())
        .collect();
    let (n, sum) = match seed % 3 {
        0 => (8, true),
        1 => (16, false),
        _ => return sorted(stream),
    };
    let mut keys: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for row in &stream {
        let [Value::Int(k), Value::Int(v)] = row[..] else {
            panic!("seeded rows are (Int, Int): {row:?}");
        };
        let (count, value) = keys.entry(k).or_insert((0, v));
        assert_eq!(*value, v, "the value column is a function of the key");
        *count += 1;
    }
    let mut rows = Vec::new();
    for (k, (count, v)) in keys {
        let aggregate = if sum { n * v } else { n };
        for _ in 0..count / n {
            rows.push(vec![Value::Int(k), Value::Double(aggregate as f64)]);
        }
    }
    sorted(rows)
}

fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

/// The threaded reference shares its worker loops with the distributed
/// workers, so it is itself checked against the oracle: a bug in the shared
/// loops cannot hide behind a reference that has the same bug.
#[test]
fn threaded_reference_matches_the_closed_form_oracle() {
    for seed in 0..3u64 {
        let reference = threaded_reference(seed, 1024, RunConfig::default());
        let rows: Vec<Vec<Value>> = reference
            .sink_tuples
            .iter()
            .map(|t| match seed {
                2 => t.values.to_vec(),
                // `WindowAggInstance::emit`: key, window end, aggregate.
                _ => match &t.values[..] {
                    [key, Value::Timestamp(_), agg] => vec![key.clone(), agg.clone()],
                    other => panic!("seed {seed}: unexpected window row {other:?}"),
                },
            })
            .collect();
        assert_eq!(reference.tuples_in, 1024, "seed {seed}");
        assert_eq!(reference.tuples_out, rows.len() as u64, "seed {seed}");
        assert_eq!(sorted(rows), oracle(seed, 1024), "seed {seed}");
    }
}

/// Seeded plans × batch sizes, no faults: the distributed backend is an
/// execution detail, not an answer-changing one.
#[test]
fn distributed_matches_threaded_over_seeds_and_batches() {
    for seed in 0..3u64 {
        for batch_size in [1usize, 16, 128] {
            let run = RunConfig {
                batch_size,
                ..RunConfig::default()
            };
            let reference = threaded_reference(seed, 1024, run.clone());
            let dist = DistributedRuntime::new(dist_config(run, 2))
                .run(&format!("seeded:{seed}:1024:0"))
                .unwrap();
            assert_eq!(
                dist.ft.recovery.attempts, 1,
                "seed {seed} batch {batch_size}"
            );
            assert_eq!(
                multiset(&dist.ft.result),
                multiset(&reference),
                "seed {seed} batch {batch_size}"
            );
            assert_eq!(dist.ft.result.tuples_in, 1024);
            assert_eq!(dist.ft.result.tuples_out, reference.tuples_out);
            // Telemetry flowed back over the wire for every instance.
            assert_eq!(
                dist.snapshots.len(),
                testplan::build(seed, 1, 0).unwrap().0.instance_count()
            );
        }
    }
}

/// The headline: a real SIGKILL of one worker process mid-run. The
/// coordinator must detect it by heartbeat silence alone, restore the last
/// network checkpoint, replay, and still produce the exact multiset of an
/// unkilled single-process run under exactly-once.
#[test]
fn sigkill_mid_run_is_exactly_once_equivalent() {
    let run = RunConfig::default();
    let tuples = 8192u64;
    let reference = threaded_reference(0, tuples, run.clone());
    let mut cfg = dist_config(run, 2);
    // Paced sources (2 ms per 256 tuples per instance) keep the run alive
    // past the kill point.
    cfg.kill = Some(KillSpec {
        worker: 1,
        after_ms: 20,
    });
    let dist = DistributedRuntime::new(cfg)
        .run(&format!("seeded:0:{tuples}:2"))
        .unwrap();

    assert!(
        dist.ft.recovery.attempts >= 2,
        "SIGKILL must cost at least one attempt: {:?}",
        dist.ft.recovery
    );
    assert_eq!(multiset(&dist.ft.result), multiset(&reference));
    assert_eq!(
        dist.ft.result.tuples_in, tuples,
        "sources replay to the full stream"
    );
    assert_eq!(dist.ft.result.tuples_out, reference.tuples_out);
    assert_eq!(
        dist.ft.recovery.duplicate_tuples, 0,
        "exactly-once never duplicates"
    );
    // The failure was detected (and alarmed) through heartbeat silence.
    assert!(
        dist.alarms
            .iter()
            .any(|a| a.kind == AlarmKind::HeartbeatGap && a.instance == 1),
        "expected a heartbeat-gap alarm for the killed worker, got {:?}",
        dist.alarms
    );
}

/// Past the restart budget the failed attempt's own root cause surfaces, as
/// it does in-process: here the killed worker, named by its lapsed lease.
#[test]
fn distributed_restart_budget_exhaustion_surfaces_the_root_error() {
    let mut cfg = dist_config(RunConfig::default(), 2);
    cfg.ft.restart.max_restarts = 0;
    cfg.kill = Some(KillSpec {
        worker: 1,
        after_ms: 0,
    });
    // Paced sources keep the run alive well past the kill.
    let err = DistributedRuntime::new(cfg)
        .run("seeded:0:8192:2")
        .expect_err("a zero restart budget makes the kill terminal");
    assert!(
        matches!(err, EngineError::WorkerLost { worker: 1, .. }),
        "got {err}"
    );
}

/// Severed data connections mid-run (half-open peers, partial frames) must
/// degrade into a supervised restart, not a hang or a wrong answer.
#[test]
fn connection_drop_recovers_with_identical_output() {
    let run = RunConfig::default();
    let tuples = 8192u64;
    let reference = threaded_reference(1, tuples, run.clone());
    let mut cfg = dist_config(run, 2);
    cfg.drop_data_after_ms = Some(15);
    let dist = DistributedRuntime::new(cfg)
        .run(&format!("seeded:1:{tuples}:2"))
        .unwrap();
    assert_eq!(multiset(&dist.ft.result), multiset(&reference));
    assert_eq!(dist.ft.result.tuples_in, tuples);
}

/// Books must balance across three workers too (uneven placement).
#[test]
fn three_worker_books_balance() {
    let run = RunConfig::default();
    let reference = threaded_reference(2, 2048, run.clone());
    let dist = DistributedRuntime::new(dist_config(run, 3))
        .run("seeded:2:2048:0")
        .unwrap();
    assert_eq!(multiset(&dist.ft.result), multiset(&reference));
    let stats = &dist.ft.result.operator_stats;
    // Every operator's books: input == output + shed (filters never shed
    // here, and the corpus has no lateness).
    for s in stats {
        assert!(
            s.tuples_in >= s.tuples_out.saturating_sub(1_000_000),
            "nonsense stats for {}: {s:?}",
            s.name
        );
    }
    let sink = stats.last().unwrap();
    assert_eq!(sink.tuples_in, dist.ft.result.tuples_out);
}

/// Saturated sources on a plan whose cross-worker edges run both ways
/// (`src0 → count1` and `count0 → sink1` one way, their mirror images the
/// other). With one data connection per peer worker the reader of each
/// connection blocks on a full `count` inbox while the frames for the idle
/// sink queue behind it, on both sides at once, and the run never ends;
/// with one connection per target instance it drains.
#[test]
fn distributed_two_way_plan_drains_when_saturated() {
    let tuples = 600_000u64;
    let run = RunConfig {
        batch_size: 16,
        channel_capacity: 32, // two frames per channel
        // Sinks only count: a worker is silent while it encodes its final
        // report, and 75 000 captured tuples outlast the lease.
        capture_limit: 0,
        ..RunConfig::default()
    };
    let (plan, sources) = testplan::build_two_way(tuples).unwrap();
    let reference = ThreadedRuntime::new(run.clone())
        .run(&plan, &sources)
        .unwrap();

    let mut cfg = dist_config(run, 2);
    // No barrier ever fires: this test is about the data connections.
    cfg.ft.checkpoint_interval_tuples = 10 * tuples;
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done_tx.send(DistributedRuntime::new(cfg).run(&format!("twoway:{tuples}")));
    });
    let Ok(dist) = done_rx.recv_timeout(Duration::from_secs(120)) else {
        // Deadlocked workers outlive the test and hold its stderr open.
        let me = std::process::id().to_string();
        let _ = std::process::Command::new("pkill")
            .args(["-KILL", "-P", &me])
            .status();
        panic!("the two-way plan deadlocked: no result within 120 s");
    };
    let dist = dist.unwrap();

    assert_eq!(dist.ft.recovery.attempts, 1);
    assert_eq!(dist.ft.result.tuples_in, tuples);
    assert_eq!(dist.ft.result.tuples_out, reference.tuples_out);
    let books = |res: &RunResult| -> Vec<(String, u64, u64)> {
        res.operator_stats
            .iter()
            .map(|s| (s.name.clone(), s.tuples_in, s.tuples_out))
            .collect()
    };
    assert_eq!(books(&dist.ft.result), books(&reference));
}

/// A worker binary that cannot even spawn is a typed, non-retryable error.
#[test]
fn unspawnable_worker_is_a_transport_error() {
    let mut cfg = dist_config(RunConfig::default(), 2);
    cfg.worker_bin = vec!["/nonexistent/pdsp-worker".to_string()];
    let err = DistributedRuntime::new(cfg)
        .run("seeded:0:64:0")
        .unwrap_err();
    assert!(matches!(err, EngineError::Transport(_)), "got {err}");
}
