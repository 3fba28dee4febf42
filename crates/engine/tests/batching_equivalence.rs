//! Property test for the micro-batched data plane: for randomly generated
//! plans, the batched engine must deliver the *identical* output multiset
//! as the tuple-at-a-time engine (`batch_size == 1`) — across batch sizes
//! (including one larger than the whole stream), smooth and bursty sources
//! (a source that pauses mid-stream makes every worker behind it run dry
//! and flush partial batches), the operator-fusion rewrite, and
//! fault-injected exactly-once recovery runs.
//!
//! Determinism discipline: every generated edge is either `Forward` or
//! `Hash` on the key field, so each key follows a single instance path and
//! its tuple order is independent of thread scheduling. Outputs are then
//! compared as sorted multisets of rows.

use pdsp_engine::agg::AggFunc;
use pdsp_engine::chaining::fuse;
use pdsp_engine::expr::{CmpOp, Predicate, ScalarExpr};
use pdsp_engine::fault::{DeliveryMode, FaultInjector, FtConfig, FtRuntime, RestartPolicy};
use pdsp_engine::plan::{LogicalPlan, Partitioning};
use pdsp_engine::runtime::{RunConfig, SourceFactory, ThreadedRuntime, VecSource};
use pdsp_engine::window::WindowSpec;
use pdsp_engine::{FieldType, PhysicalPlan, PlanBuilder, Schema, Tuple, Value};
use std::sync::Arc;
use std::time::Duration;

const KEYS: i64 = 5;
const TUPLES: i64 = 1_200;

/// Deterministic split-mix style generator; no external crates.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let x = self.0;
        (x ^ (x >> 33)).wrapping_mul(0xff51afd7ed558ccd) >> 31
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn source_tuples() -> Vec<Tuple> {
    (0..TUPLES)
        .map(|i| {
            let mut t = Tuple::new(vec![Value::Int(i % KEYS), Value::Int((i * 7) % 101)]);
            t.event_time = i;
            t
        })
        .collect()
}

/// [`VecSource`]'s stream, released in bursts of random length (1..=200
/// tuples, seeded) with a pause before each: the source's hand-off runs dry
/// mid-stream, so partial batches ride idle flushes on every edge.
struct BurstySource {
    smooth: Arc<VecSource>,
    seed: u64,
}

impl SourceFactory for BurstySource {
    fn instance_iter(
        &self,
        instance_index: usize,
        parallelism: usize,
    ) -> Box<dyn Iterator<Item = Tuple> + Send> {
        let mut rng = Rng(self.seed ^ instance_index as u64);
        let mut left_in_burst = 0;
        let smooth = self.smooth.instance_iter(instance_index, parallelism);
        Box::new(smooth.inspect(move |_| {
            if left_in_burst == 0 {
                std::thread::sleep(Duration::from_millis(1));
                left_in_burst = 1 + rng.below(200);
            }
            left_in_burst -= 1;
        }))
    }
}

/// The test stream, smooth or in bursts seeded by `bursty`.
fn source(bursty: Option<u64>) -> Arc<dyn SourceFactory> {
    let smooth = VecSource::new(source_tuples());
    match bursty {
        Some(seed) => Arc::new(BurstySource { smooth, seed }),
        None => smooth,
    }
}

/// A random plan: source -> 1..=3 stateless stages (filter/map, random
/// parallelism, Forward where parallelism allows so fusion has chains to
/// collapse) -> optionally a keyed window -> sink.
fn random_plan(rng: &mut Rng) -> LogicalPlan {
    let schema = Schema::of(&[FieldType::Int, FieldType::Int]);
    let mut b = PlanBuilder::new()
        .partition_by(Partitioning::Hash(vec![0]))
        .source("src", schema, 1);
    let mut prev_parallelism = 1usize;
    for s in 0..=rng.below(2) {
        let p = 1 + rng.below(3) as usize;
        let part = if p == prev_parallelism {
            Partitioning::Forward
        } else {
            Partitioning::Hash(vec![0])
        };
        b = b.partition_by(part);
        b = if rng.below(2) == 0 {
            b.filter(
                &format!("filter{s}"),
                Predicate::cmp(1, CmpOp::Gt, Value::Int(rng.below(40) as i64)),
                0.6,
            )
        } else {
            b.map(
                &format!("map{s}"),
                vec![
                    ScalarExpr::Field(0),
                    ScalarExpr::Add(
                        Box::new(ScalarExpr::Field(1)),
                        Box::new(ScalarExpr::Literal(Value::Int(rng.below(9) as i64))),
                    ),
                ],
            )
        };
        let id = b.cursor().expect("chained node exists");
        b = b.set_parallelism(id, p);
        prev_parallelism = p;
    }
    if rng.below(3) > 0 {
        let window = match rng.below(3) {
            0 => WindowSpec::tumbling_count(4 + rng.below(5)),
            1 => WindowSpec::sliding_count(8, 4),
            _ => WindowSpec::tumbling_time(50 + 25 * rng.below(3)),
        };
        let func = if rng.below(2) == 0 {
            AggFunc::Sum
        } else {
            AggFunc::Avg
        };
        b = b.window_agg_keyed("win", window, func, 1, 0);
        let id = b.cursor().expect("window node exists");
        b = b.set_parallelism(id, 1 + rng.below(3) as usize);
    }
    b = b.partition_by(Partitioning::Hash(vec![0]));
    b.sink("sink").build().expect("generated plan is valid")
}

fn run_plan(plan: &LogicalPlan, batch_size: usize, bursty: Option<u64>) -> Vec<Vec<Value>> {
    let phys = PhysicalPlan::expand(plan).expect("plan expands");
    let res = ThreadedRuntime::new(config(batch_size))
        .run(&phys, &[source(bursty)])
        .expect("run succeeds");
    assert_eq!(
        res.tuples_out as usize,
        res.sink_tuples.len(),
        "capture limit not hit — the comparison sees every row"
    );
    multiset(res.sink_tuples)
}

fn multiset(rows: Vec<Tuple>) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = rows.into_iter().map(|t| t.values.into_vec()).collect();
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

fn config(batch_size: usize) -> RunConfig {
    RunConfig {
        batch_size,
        ..RunConfig::default()
    }
}

#[test]
fn batched_runs_match_tuple_at_a_time_across_random_plans() {
    for seed in 0..8u64 {
        let mut rng = Rng(0x9e3779b97f4a7c15 ^ seed);
        let plan = random_plan(&mut rng);
        let reference = run_plan(&plan, 1, None);
        assert!(!reference.is_empty(), "seed {seed}: plan produces output");
        // Size-triggered flushes (7, 64), a batch larger than the whole
        // stream (everything rides idle/marker/EOS flushes), and both of
        // the latter fed in bursts.
        let whole = 2 * TUPLES as usize;
        for (batch, bursty) in [
            (7, None),
            (64, None),
            (whole, None),
            (64, Some(seed)),
            (whole, Some(seed)),
        ] {
            let got = run_plan(&plan, batch, bursty);
            assert_eq!(
                got, reference,
                "seed {seed}: batch {batch} / bursts {bursty:?} diverged from per-tuple output"
            );
        }
    }
}

#[test]
fn fused_plans_match_unfused_output() {
    for seed in 0..8u64 {
        let mut rng = Rng(0xdeadbeefcafef00d ^ seed);
        let plan = random_plan(&mut rng);
        let reference = run_plan(&plan, 1, None);
        let fused = fuse(&plan).expect("fusion rewrite succeeds");
        for (batch, bursty) in [(1usize, None), (64, None), (64, Some(seed))] {
            let got = run_plan(&fused, batch, bursty);
            assert_eq!(
                got, reference,
                "seed {seed}: fused plan at batch {batch} / bursts {bursty:?} diverged from \
                 unfused per-tuple output"
            );
        }
    }
}

#[test]
fn exactly_once_recovery_matches_reference_at_every_batch_size() {
    // Fixed representative plan: stateless stage into keyed count windows
    // (watermark-insensitive, so replay effects would show up directly).
    let plan = PlanBuilder::new()
        .partition_by(Partitioning::Hash(vec![0]))
        .source("src", Schema::of(&[FieldType::Int, FieldType::Int]), 1)
        .filter("gt", Predicate::cmp(1, CmpOp::Gt, Value::Int(10)), 0.8)
        .window_agg_keyed("win", WindowSpec::tumbling_count(8), AggFunc::Sum, 1, 0)
        .sink("sink")
        .build()
        .expect("plan is valid")
        .with_uniform_parallelism(2);
    let phys = PhysicalPlan::expand(&plan).expect("plan expands");

    let ft = |batch: usize, bursty: Option<u64>, injector: Option<FaultInjector>| {
        let cfg = FtConfig {
            checkpoint_interval_tuples: 128,
            mode: DeliveryMode::ExactlyOnce,
            restart: RestartPolicy {
                max_restarts: 3,
                backoff: Duration::from_millis(5),
            },
            run: config(batch),
        };
        let res = FtRuntime::new(cfg)
            .run(&phys, &[source(bursty)], injector)
            .expect("ft run completes");
        (multiset(res.result.sink_tuples), res.recovery.attempts)
    };

    let (reference, clean_attempts) = ft(1, None, None);
    assert_eq!(clean_attempts, 1);
    assert!(!reference.is_empty());
    for (batch, bursty) in [(1usize, None), (7, None), (64, None), (64, Some(3))] {
        let injector = FaultInjector::after_tuples(2, 0, 400);
        let (got, attempts) = ft(batch, bursty, Some(injector.clone()));
        assert!(
            injector.fired(),
            "batch {batch} / bursts {bursty:?}: fault actually triggered"
        );
        assert!(
            attempts > 1,
            "batch {batch} / bursts {bursty:?}: a restart happened"
        );
        assert_eq!(
            got, reference,
            "batch {batch} / bursts {bursty:?}: exactly-once replay diverged from the clean \
             per-tuple run"
        );
    }
}
