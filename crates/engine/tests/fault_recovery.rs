//! End-to-end fault-injection and recovery tests: a mid-pipeline operator
//! instance is killed mid-run and the supervising runtime must restore the
//! last checkpoint, replay, and finish with correct results.

use pdsp_engine::fault::{
    DeliveryMode, FaultInjector, FtConfig, FtRunResult, FtRuntime, RestartPolicy,
};
use pdsp_engine::runtime::{RunConfig, SourceFactory, VecSource};
use pdsp_engine::{
    agg::AggFunc, window::WindowSpec, EngineError, PhysicalPlan, PlanBuilder, Predicate, Tuple,
};
use pdsp_engine::{FieldType, Schema, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const KEYS: i64 = 4;
const TUPLES: i64 = 2000;
const WINDOW: u64 = 10; // tumbling count window per key

fn keyed_tuples() -> Vec<Tuple> {
    (0..TUPLES)
        .map(|i| {
            let mut t = Tuple::new(vec![Value::Int(i % KEYS), Value::Int(i)]);
            t.event_time = i;
            t
        })
        .collect()
}

/// Keyed tumbling-count windows: watermark-insensitive, so the output
/// multiset is deterministic and comparable across failing and clean runs.
fn windowed_plan() -> PhysicalPlan {
    let plan = PlanBuilder::new()
        .source("src", Schema::of(&[FieldType::Int, FieldType::Int]), 1)
        .window_agg_keyed(
            "agg",
            WindowSpec::tumbling_count(WINDOW),
            AggFunc::Sum,
            1,
            0,
        )
        .set_parallelism(1, 2)
        .sink("sink")
        .build()
        .unwrap();
    PhysicalPlan::expand(&plan).unwrap()
}

fn ft_config(mode: DeliveryMode) -> FtConfig {
    FtConfig {
        checkpoint_interval_tuples: 128,
        mode,
        restart: RestartPolicy {
            max_restarts: 3,
            backoff: Duration::from_millis(5),
        },
        run: RunConfig::default(),
    }
}

fn run_ft(mode: DeliveryMode, injector: Option<FaultInjector>) -> FtRunResult {
    let phys = windowed_plan();
    FtRuntime::new(ft_config(mode))
        .run(&phys, &[VecSource::new(keyed_tuples())], injector)
        .unwrap()
}

/// Sink tuples as a sorted multiset of (key, window_value) rows.
fn multiset(res: &FtRunResult) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = res
        .result
        .sink_tuples
        .iter()
        .map(|t| t.values.to_vec())
        .collect();
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

#[test]
fn no_failure_run_completes_with_one_attempt() {
    let res = run_ft(DeliveryMode::ExactlyOnce, None);
    assert_eq!(res.recovery.attempts, 1);
    assert!(res.recovery.recovery_times_ms.is_empty());
    assert_eq!(res.recovery.replayed_tuples, 0);
    assert_eq!(res.result.tuples_in, TUPLES as u64);
    assert_eq!(
        res.result.tuples_out,
        (TUPLES as u64) / WINDOW,
        "every window fires"
    );
    assert!(
        res.recovery.completed_checkpoints > 0,
        "barriers complete checkpoints even without failures"
    );
}

#[test]
fn killed_operator_recovers_exactly_once_with_identical_output() {
    // Kill instance 0 of the window aggregation (logical node 1) after it
    // has processed 600 tuples — well past several checkpoints.
    let injector = FaultInjector::after_tuples(1, 0, 600);
    let failing = run_ft(DeliveryMode::ExactlyOnce, Some(injector.clone()));
    let clean = run_ft(DeliveryMode::ExactlyOnce, None);

    assert!(injector.fired(), "the fault actually triggered");
    assert_eq!(failing.recovery.attempts, 2, "one failure, one restart");
    assert_eq!(
        failing.recovery.recovery_times_ms.len(),
        1,
        "one recovery recorded"
    );
    assert!(
        failing.recovery.recovery_times_ms[0] > 0.0,
        "recovery time is nonzero"
    );
    assert!(
        failing.recovery.restored_checkpoint.is_some(),
        "restart restored a completed checkpoint"
    );
    assert!(failing.recovery.replayed_tuples > 0, "source replayed");
    assert_eq!(
        failing.recovery.duplicate_tuples, 0,
        "exactly-once: no duplicates"
    );

    // The acceptance criterion: the windowed aggregate of the failing run
    // equals the no-failure run, as a multiset.
    assert_eq!(
        failing.result.tuples_out, clean.result.tuples_out,
        "same number of windows fired"
    );
    assert_eq!(
        multiset(&failing),
        multiset(&clean),
        "windowed aggregates identical despite the mid-run kill"
    );
}

#[test]
fn at_least_once_recovery_redelivers_but_completes() {
    let injector = FaultInjector::after_tuples(1, 0, 600);
    let res = run_ft(DeliveryMode::AtLeastOnce, Some(injector));
    assert_eq!(res.recovery.attempts, 2);
    assert!(res.recovery.replayed_tuples > 0);
    // Tuples delivered between the restored checkpoint and the failure are
    // delivered again after replay.
    assert!(
        res.result.tuples_out >= (TUPLES as u64) / WINDOW,
        "at-least-once never loses windows: {} >= {}",
        res.result.tuples_out,
        (TUPLES as u64) / WINDOW
    );
}

#[test]
fn panic_style_fault_is_recovered_too() {
    let injector = FaultInjector::after_tuples(1, 0, 600).panicking();
    let res = run_ft(DeliveryMode::ExactlyOnce, Some(injector));
    assert_eq!(res.recovery.attempts, 2, "panic detected and recovered");
    let clean = run_ft(DeliveryMode::ExactlyOnce, None);
    assert_eq!(multiset(&res), multiset(&clean));
}

#[test]
fn restart_budget_exhaustion_surfaces_the_root_error() {
    // Injectors are single-shot, so a restarted job always succeeds; a
    // zero-restart budget makes the first failure terminal instead.
    let cfg = FtConfig {
        restart: RestartPolicy {
            max_restarts: 0,
            backoff: Duration::from_millis(1),
        },
        ..ft_config(DeliveryMode::ExactlyOnce)
    };
    let phys = windowed_plan();
    let err = FtRuntime::new(cfg)
        .run(
            &phys,
            &[VecSource::new(keyed_tuples())],
            Some(FaultInjector::after_tuples(1, 0, 600)),
        )
        .unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::FaultInjected {
                node: 1,
                instance: 0
            }
        ),
        "root cause surfaces, not a cascade symptom: {err:?}"
    );
}

/// Rows `0..rows` of one `Int` field; the first iterator it hands out dies
/// at row `dies_at`.
struct DiesOnce {
    rows: i64,
    dies_at: i64,
    died: AtomicBool,
}

impl SourceFactory for DiesOnce {
    fn instance_iter(&self, _: usize, _: usize) -> Box<dyn Iterator<Item = Tuple> + Send> {
        let first = !self.died.swap(true, Ordering::SeqCst);
        let dies_at = self.dies_at;
        Box::new((0..self.rows).map(move |i| {
            if first && i == dies_at {
                // Not `panic!`: this runs on the source's reader thread,
                // whose panic message would race libtest's output capture.
                std::panic::resume_unwind(Box::new("source iterator died"));
            }
            Tuple::new(vec![Value::Int(i)])
        }))
    }
}

#[test]
fn second_failure_loses_no_rows_in_either_mode() {
    // The source dies at row 300, so attempt 2 resumes from checkpoint 2;
    // its sink then dies at its 900th delivery, after checkpoint 9
    // completed, and attempt 3 resumes from there.
    const ROWS: i64 = 2000;
    let logical = PlanBuilder::new()
        .source("src", Schema::of(&[FieldType::Int]), 1)
        .filter("all", Predicate::True, 1.0)
        .sink("sink")
        .build()
        .unwrap();
    let plan = PhysicalPlan::expand(&logical).unwrap();
    for mode in [DeliveryMode::AtLeastOnce, DeliveryMode::ExactlyOnce] {
        let cfg = FtConfig {
            run: RunConfig {
                batch_size: 16,
                ..RunConfig::default()
            },
            ..ft_config(mode)
        };
        let source = Arc::new(DiesOnce {
            rows: ROWS,
            dies_at: 300,
            died: AtomicBool::new(false),
        });
        let res = FtRuntime::new(cfg)
            .run(
                &plan,
                &[source],
                Some(FaultInjector::after_tuples(2, 0, 900).panicking()),
            )
            .unwrap();
        assert_eq!(res.recovery.attempts, 3, "{mode:?}");
        let mut seen = vec![0u32; ROWS as usize];
        for t in &res.result.sink_tuples {
            match t.values[0] {
                Value::Int(i) => seen[i as usize] += 1,
                ref v => panic!("unexpected sink value {v:?}"),
            }
        }
        let missing = seen.iter().filter(|&&c| c == 0).count();
        assert_eq!(
            missing, 0,
            "{mode:?}: {missing} source rows never delivered"
        );
        if mode == DeliveryMode::ExactlyOnce {
            assert!(seen.iter().all(|&c| c == 1), "exactly-once duplicated rows");
            assert_eq!(res.result.tuples_out, ROWS as u64);
        }
    }
}

#[test]
fn join_pipeline_recovers_with_exact_results() {
    // Two sources into a windowed equi-join; kill one join instance.
    let build = || {
        let mut b = PlanBuilder::new();
        let s1 = b.add_node(
            "s1",
            pdsp_engine::OpKind::Source {
                schema: Schema::of(&[FieldType::Int]),
            },
            1,
        );
        let s2 = b.add_node(
            "s2",
            pdsp_engine::OpKind::Source {
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
        PhysicalPlan::expand(&plan).unwrap()
    };
    let ints = |n: i64| -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                let mut t = Tuple::new(vec![Value::Int(i)]);
                t.event_time = i;
                t
            })
            .collect()
    };
    let run = |injector: Option<FaultInjector>| -> FtRunResult {
        FtRuntime::new(ft_config(DeliveryMode::ExactlyOnce))
            .run(
                &build(),
                &[VecSource::new(ints(800)), VecSource::new(ints(800))],
                injector,
            )
            .unwrap()
    };
    let clean = run(None);
    let failing = run(Some(FaultInjector::after_tuples(2, 1, 500)));
    assert_eq!(failing.recovery.attempts, 2);
    assert_eq!(failing.result.tuples_out, clean.result.tuples_out);
    assert_eq!(multiset(&failing), multiset(&clean));
}
