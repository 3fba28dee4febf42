//! Operator chaining on the application suite: which exchanges `fuse`
//! turns into chain links, and that AD computes the same chained as
//! unchained, on the threaded runtime and through an exactly-once recovery.

use pdsp_apps::common::AppConfig;
use pdsp_apps::registry::{all_applications, app_by_name};
use pdsp_engine::chaining::fuse;
use pdsp_engine::fault::{
    Backoff, DeliveryMode, FaultInjector, FtConfig, FtRunResult, FtRuntime, RestartPolicy,
};
use pdsp_engine::physical::PhysicalPlan;
use pdsp_engine::plan::{LogicalPlan, Partitioning};
use pdsp_engine::runtime::{RunConfig, RunResult, SourceFactory, ThreadedRuntime};
use pdsp_engine::value::{Tuple, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Tuples per AD source (sources keep parallelism 1).
const TUPLES: usize = 4_000;

fn ad() -> (LogicalPlan, Vec<Arc<dyn SourceFactory>>) {
    let config = AppConfig {
        event_rate: 20_000.0,
        total_tuples: TUPLES,
        seed: 5,
    };
    let built = app_by_name("AD").expect("AD is registered").build(&config);
    (built.plan.with_uniform_parallelism(2), built.sources)
}

fn run_config() -> RunConfig {
    RunConfig {
        capture_limit: usize::MAX,
        ..RunConfig::default()
    }
}

/// `(operator, tuples in, tuples out)` of every operator.
fn stats(res: &RunResult) -> Vec<(String, u64, u64)> {
    res.operator_stats
        .iter()
        .map(|s| (s.name.clone(), s.tuples_in, s.tuples_out))
        .collect()
}

/// CTR reports per ad.
fn per_ad(res: &RunResult) -> BTreeMap<i64, u64> {
    assert_eq!(
        res.sink_tuples.len() as u64,
        res.tuples_out,
        "complete capture"
    );
    let mut counts = BTreeMap::new();
    for t in &res.sink_tuples {
        let Value::Int(ad) = t.values[0] else {
            panic!("report without an ad id: {t:?}");
        };
        *counts.entry(ad).or_insert(0) += 1;
    }
    counts
}

/// `(chained, unchained)` physical plans of AD at p = 2.
fn both_plans() -> (PhysicalPlan, PhysicalPlan) {
    let (plan, _) = ad();
    let chained = PhysicalPlan::expand(&fuse(&plan).unwrap()).unwrap();
    let unchained = PhysicalPlan::expand(&plan).unwrap();
    assert_eq!(chained.instance_count(), unchained.instance_count());
    assert_eq!(
        chained.chain_next.iter().flatten().count(),
        2,
        "each join instance heads a chain into its ctr instance"
    );
    assert!(unchained.chain_next.iter().all(Option::is_none));
    (chained, unchained)
}

#[test]
fn fuse_rewrites_only_ads_join_to_ctr_exchange() {
    let mut rewritten = Vec::new();
    for app in all_applications() {
        let built = app.build(&AppConfig::default());
        let plan = built.plan.with_uniform_parallelism(2);
        let fused = fuse(&plan).unwrap();
        assert_eq!(fused.nodes.len(), plan.nodes.len());
        for (before, after) in plan.edges.iter().zip(&fused.edges) {
            if before.partitioning != after.partitioning {
                assert_eq!(after.partitioning, Partitioning::Forward);
                rewritten.push(format!(
                    "{}: {} -> {}",
                    app.info().acronym,
                    plan.nodes[before.from].name,
                    plan.nodes[before.to].name
                ));
            }
        }
    }
    assert_eq!(rewritten, vec!["AD: imp-click-join -> ctr".to_string()]);
}

#[test]
fn chained_ad_equals_unchained_on_threads() {
    let (chained, unchained) = both_plans();
    let (_, sources) = ad();
    let rt = ThreadedRuntime::new(run_config());
    let a = rt.run(&chained, &sources).unwrap();
    let b = rt.run(&unchained, &sources).unwrap();
    assert!(a.tuples_out > 0);
    assert_eq!(stats(&a), stats(&b));
    assert_eq!(per_ad(&a), per_ad(&b));
}

#[test]
fn chained_ad_equals_unchained_through_exactly_once_recovery() {
    let (chained, unchained) = both_plans();
    let (plan, sources) = ad();
    let ctr = plan.nodes.iter().position(|n| n.name == "ctr").unwrap();

    // A lower bound on what ctr instance 0 takes in a clean run: it reports
    // every 16th joined tuple of each ad hashed to it.
    let clean = ThreadedRuntime::new(run_config())
        .run(&unchained, &sources)
        .unwrap();
    let taken_by_0: u64 = per_ad(&clean)
        .iter()
        .filter(|(&ad, _)| {
            Tuple::new(vec![Value::Int(ad)])
                .key_hash(&[0])
                .is_multiple_of(2)
        })
        .map(|(_, reports)| 16 * reports)
        .sum();

    // One barrier per source, halfway through its tuples;
    // the fault hits ctr instance 0 at 90 % of its input, long after that
    // checkpoint completed, so both runs restore it.
    let run = |phys: &PhysicalPlan| -> FtRunResult {
        let config = FtConfig {
            checkpoint_interval_tuples: (TUPLES / 2 + 1) as u64,
            mode: DeliveryMode::ExactlyOnce,
            restart: RestartPolicy {
                max_restarts: 1,
                backoff: Backoff::Fixed(Duration::from_millis(1)),
            },
            run: run_config(),
        };
        let injector = FaultInjector::after_tuples(ctr, 0, taken_by_0 * 9 / 10);
        FtRuntime::new(config)
            .run(phys, &sources, Some(injector))
            .unwrap()
    };
    let (a, b) = (run(&chained), run(&unchained));
    for r in [&a, &b] {
        assert_eq!(r.recovery.attempts, 2);
        assert_eq!(r.recovery.restored_checkpoint, Some(1));
    }
    // A checkpoint completes only with a part from every instance, chain
    // members included.
    assert_eq!(a.recovery.completed_checkpoints, 1);
    assert_eq!(stats(&a.result), stats(&b.result));
    assert_eq!(per_ad(&a.result), per_ad(&b.result));
}
