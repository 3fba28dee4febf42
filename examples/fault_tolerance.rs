//! Fault tolerance: kill a mid-pipeline operator instance mid-run, recover
//! from the last aligned checkpoint, and compare the output against a
//! clean run under both delivery modes.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use pdsp_bench::engine::agg::AggFunc;
use pdsp_bench::engine::fault::{
    DeliveryMode, FaultInjector, FtConfig, FtRunResult, FtRuntime, RestartPolicy,
};
use pdsp_bench::engine::physical::PhysicalPlan;
use pdsp_bench::engine::runtime::{RunConfig, VecSource};
use pdsp_bench::engine::value::{FieldType, Schema, Tuple, Value};
use pdsp_bench::engine::window::WindowSpec;
use pdsp_bench::engine::PlanBuilder;
use std::time::Duration;

const KEYS: i64 = 8;
const TUPLES: i64 = 20_000;

fn tuples() -> Vec<Tuple> {
    (0..TUPLES)
        .map(|i| {
            let mut t = Tuple::new(vec![Value::Int(i % KEYS), Value::Int(i)]);
            t.event_time = i;
            t
        })
        .collect()
}

fn plan() -> PhysicalPlan {
    let plan = PlanBuilder::new()
        .source("events", Schema::of(&[FieldType::Int, FieldType::Int]), 1)
        .window_agg_keyed(
            "sum-per-key",
            WindowSpec::tumbling_count(50),
            AggFunc::Sum,
            1,
            0,
        )
        .set_parallelism(1, 4)
        .sink("sink")
        .build()
        .expect("valid plan");
    PhysicalPlan::expand(&plan).expect("expandable plan")
}

fn run(mode: DeliveryMode, injector: Option<FaultInjector>) -> FtRunResult {
    let config = FtConfig {
        checkpoint_interval_tuples: 512,
        mode,
        restart: RestartPolicy {
            max_restarts: 3,
            backoff: Duration::from_millis(10),
        },
        run: RunConfig::default(),
    };
    FtRuntime::new(config)
        .run(&plan(), &[VecSource::new(tuples())], injector)
        .expect("run completes within the restart budget")
}

/// Sink rows as a sorted multiset, for cross-run comparison.
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

fn report(label: &str, res: &FtRunResult) {
    let r = &res.recovery;
    println!("{label}:");
    println!("  attempts              {}", r.attempts);
    println!("  completed checkpoints {}", r.completed_checkpoints);
    println!("  restored checkpoint   {:?}", r.restored_checkpoint);
    println!(
        "  recovery times (ms)   {:?}",
        r.recovery_times_ms
            .iter()
            .map(|ms| (ms * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );
    println!("  replayed tuples       {}", r.replayed_tuples);
    println!("  duplicate deliveries  {}", r.duplicate_tuples);
    println!("  rolled-back tuples    {}", r.rolled_back_tuples);
    println!("  sink rows             {}", res.result.sink_tuples.len());
}

fn main() {
    // Reference: a clean run (no injected fault) under exactly-once.
    let clean = run(DeliveryMode::ExactlyOnce, None);
    report("clean run", &clean);

    // Kill instance 1 of the window operator after it has seen 2000
    // tuples; the supervisor restores the last aligned checkpoint and
    // replays the source from the recorded offset.
    let kill = || FaultInjector::after_tuples(1, 1, 2000);

    let eo = run(DeliveryMode::ExactlyOnce, Some(kill()));
    report("\nexactly-once with injected failure", &eo);
    assert!(eo.recovery.attempts > 1, "the fault must actually fire");
    assert_eq!(
        multiset(&eo),
        multiset(&clean),
        "exactly-once output equals the clean run"
    );
    println!("  => output multiset identical to the clean run");

    let alo = run(DeliveryMode::AtLeastOnce, Some(kill()));
    report("\nat-least-once with injected failure", &alo);
    assert!(
        alo.result.sink_tuples.len() >= clean.result.sink_tuples.len(),
        "at-least-once may duplicate but never lose windows"
    );
    println!("  => no window lost; duplicates possible and accounted");
}
