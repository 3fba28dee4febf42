//! Property tests for the overload ladder's accounting discipline: load
//! shedding is never a silent drop. Across random plans, adversarial input
//! shapes (hot-key skew, burst trains, late storms), shedding policies, and
//! batch sizes, the per-operator books must balance — every tuple an
//! operator receives is either processed, counted `shed`, or counted
//! `late` — and with shedding disabled the ladder must not change a single
//! output row, including under exactly-once fault recovery.

use pdsp_engine::agg::AggFunc;
use pdsp_engine::expr::{CmpOp, Predicate, ScalarExpr};
use pdsp_engine::fault::{DeliveryMode, FaultInjector, FtConfig, FtRuntime, RestartPolicy};
use pdsp_engine::plan::{LogicalPlan, Partitioning};
use pdsp_engine::pressure::{OverloadConfig, ShedPolicy};
use pdsp_engine::runtime::{RunConfig, RunResult, ThreadedRuntime, VecSource};
use pdsp_engine::udo::{CostProfile, FnUdo};
use pdsp_engine::window::WindowSpec;
use pdsp_engine::{FieldType, PhysicalPlan, PlanBuilder, Schema, Tuple, Value};
use std::time::{Duration, Instant};

const KEYS: i64 = 8;
const TUPLES: usize = 3_000;

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

/// The three adversarial input shapes, mirroring the workload crate's
/// hazard generators without a cross-crate dev-dependency.
#[derive(Clone, Copy, Debug)]
enum Hazard {
    /// 60% of tuples land on one key.
    HotKey,
    /// Event times advance in dense bursts separated by quiet gaps.
    BurstTrain,
    /// 20% of tuples carry event times far behind the stream's front.
    LateStorm,
}

const HAZARDS: [Hazard; 3] = [Hazard::HotKey, Hazard::BurstTrain, Hazard::LateStorm];

fn hazard_stream(hazard: Hazard, seed: u64) -> Vec<Tuple> {
    let mut rng = Rng(seed ^ 0xace1_ace1);
    (0..TUPLES)
        .map(|i| {
            let key = match hazard {
                Hazard::HotKey if rng.below(10) < 6 => 0,
                _ => rng.below(KEYS as u64) as i64,
            };
            let t = match hazard {
                // 40-tuple bursts covering 10ms each, 300ms apart.
                Hazard::BurstTrain => (i as i64 / 40) * 300 + (i as i64 % 40) / 4,
                Hazard::LateStorm if rng.below(10) < 2 => {
                    (i as i64).saturating_sub(500 + rng.below(1500) as i64)
                }
                _ => i as i64,
            };
            let mut tuple = Tuple::new(vec![Value::Int(key), Value::Double((i % 97) as f64)]);
            tuple.event_time = t;
            tuple
        })
        .collect()
}

/// A linear plan of pass-through stages (a CPU grind UDO, an identity map)
/// into a keyed event-time Count window: every stage has selectivity 1, so
/// `tuples_out == tuples_in - shed` must hold stage by stage, and the sum
/// of window counts recovers exactly the tuples the window accepted.
fn accounting_plan(rng: &mut Rng, grind_ns: u64) -> LogicalPlan {
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
    let p1 = 1 + rng.below(2) as usize;
    let p2 = 1 + rng.below(2) as usize;
    let mut b = PlanBuilder::new()
        .partition_by(Partitioning::Hash(vec![0]))
        .source("src", Schema::of(&[FieldType::Int, FieldType::Double]), 1)
        .udo("grind", grind);
    let id = b.cursor().expect("grind node exists");
    b = b
        .set_parallelism(id, p1)
        .partition_by(Partitioning::Hash(vec![0]))
        .map("ident", vec![ScalarExpr::Field(0), ScalarExpr::Field(1)]);
    let id = b.cursor().expect("map node exists");
    b = b
        .set_parallelism(id, p2)
        .partition_by(Partitioning::Hash(vec![0]))
        .window_agg_keyed("win", WindowSpec::tumbling_time(100), AggFunc::Count, 1, 0);
    let id = b.cursor().expect("window node exists");
    b = b
        .set_parallelism(id, 1 + rng.below(2) as usize)
        .partition_by(Partitioning::Hash(vec![0]));
    b.sink("sink").build().expect("accounting plan is valid")
}

fn shed_policy(rng: &mut Rng) -> ShedPolicy {
    match rng.below(3) {
        0 => ShedPolicy::Random,
        1 => ShedPolicy::PerKey(vec![0]),
        _ => ShedPolicy::DropOldest,
    }
}

fn run(plan: &LogicalPlan, config: RunConfig, tuples: Vec<Tuple>) -> RunResult {
    let phys = PhysicalPlan::expand(plan).expect("plan expands");
    ThreadedRuntime::new(config)
        .run(&phys, &[VecSource::new(tuples)])
        .expect("run succeeds")
}

/// The shedding accounting invariant, stage by stage:
///   - pass-through stages: `tuples_out == tuples_in - shed`
///   - flow conservation: each stage receives exactly what its upstream
///     emitted (nothing vanishes between operators)
///   - the window stage: emitted counts sum to `tuples_in - shed - late`
///     (tumbling windows, strict lateness: each accepted tuple lands in
///     exactly one fired window)
fn assert_books_balance(res: &RunResult, label: &str) {
    assert_eq!(
        res.tuples_out as usize,
        res.sink_tuples.len(),
        "{label}: capture limit not hit"
    );
    let stat = |name: &str| {
        res.operator_stats
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{label}: no stats for operator {name}"))
    };
    let (src, grind, ident, win) = (stat("src"), stat("grind"), stat("ident"), stat("win"));

    assert_eq!(src.tuples_out, res.tuples_in, "{label}: source emission");
    for (s, upstream_out) in [(grind, src.tuples_out), (ident, grind.tuples_out)] {
        assert_eq!(
            s.tuples_in, upstream_out,
            "{label}: {} lost tuples in transit",
            s.name
        );
        assert_eq!(
            s.tuples_out,
            s.tuples_in - s.shed,
            "{label}: {} books do not balance (in {}, out {}, shed {})",
            s.name,
            s.tuples_in,
            s.tuples_out,
            s.shed
        );
    }
    assert_eq!(win.tuples_in, ident.tuples_out, "{label}: window input");
    let windowed: f64 = res
        .sink_tuples
        .iter()
        .map(|t| match &t.values[2] {
            Value::Double(v) => *v,
            other => panic!("{label}: unexpected window value {other:?}"),
        })
        .sum();
    assert_eq!(
        windowed as u64,
        win.tuples_in - win.shed - win.late,
        "{label}: window counts must recover accepted tuples exactly \
         (in {}, shed {}, late {})",
        win.tuples_in,
        win.shed,
        win.late
    );
    assert_eq!(
        res.total_shed(),
        grind.shed + ident.shed + win.shed,
        "{label}: total_shed aggregates the per-operator counters"
    );
}

#[test]
fn shedding_books_balance_across_plans_hazards_and_batch_sizes() {
    let mut total_shed_everywhere = 0u64;
    let mut total_late_everywhere = 0u64;
    for seed in 0..4u64 {
        for hazard in HAZARDS {
            for batch_size in [1usize, 8, 64] {
                let mut rng = Rng(0x0eed_10ad ^ (seed << 8) ^ batch_size as u64);
                let plan = accounting_plan(&mut rng, 4_000);
                let config = RunConfig {
                    channel_capacity: 64.max(batch_size * 2),
                    batch_size,
                    overload: OverloadConfig {
                        // Aggressive thresholds so a short test run actually
                        // reaches the shedding rung.
                        batch_threshold: 0.05,
                        shed_threshold: 0.10,
                        max_shed_fraction: 0.9,
                        shed_policy: shed_policy(&mut rng),
                        seed: seed ^ 0x5eed,
                        ..OverloadConfig::enabled()
                    },
                    ..RunConfig::default()
                };
                let res = run(&plan, config, hazard_stream(hazard, seed));
                let label = format!("seed {seed} / {hazard:?} / batch {batch_size}");
                assert_eq!(res.tuples_in, TUPLES as u64, "{label}: all tuples fed");
                assert_books_balance(&res, &label);
                total_shed_everywhere += res.total_shed();
                total_late_everywhere += res.total_late();
            }
        }
    }
    // The invariant must hold whether or not pressure built up, but the
    // test is only meaningful if the ladder actually engaged somewhere.
    assert!(
        total_shed_everywhere > 0,
        "no configuration ever reached the shedding rung — thresholds too lax"
    );
    assert!(
        total_late_everywhere > 0,
        "late storms never produced late-accounted tuples"
    );
}

/// A deterministic random plan for output comparison: Forward/Hash-on-key
/// edges only, so the output multiset is schedule-independent.
fn deterministic_plan(rng: &mut Rng) -> LogicalPlan {
    let schema = Schema::of(&[FieldType::Int, FieldType::Double]);
    let mut b = PlanBuilder::new()
        .partition_by(Partitioning::Hash(vec![0]))
        .source("src", schema, 1);
    for s in 0..=rng.below(2) {
        b = b.partition_by(Partitioning::Hash(vec![0]));
        b = if rng.below(2) == 0 {
            b.filter(
                &format!("filter{s}"),
                Predicate::cmp(1, CmpOp::Gt, Value::Double(rng.below(40) as f64)),
                0.6,
            )
        } else {
            b.map(
                &format!("map{s}"),
                vec![ScalarExpr::Field(0), ScalarExpr::Field(1)],
            )
        };
        let id = b.cursor().expect("chained node exists");
        b = b.set_parallelism(id, 1 + rng.below(3) as usize);
    }
    b = b
        .partition_by(Partitioning::Hash(vec![0]))
        .window_agg_keyed("win", WindowSpec::tumbling_count(8), AggFunc::Sum, 1, 0);
    let id = b.cursor().expect("window node exists");
    b = b
        .set_parallelism(id, 1 + rng.below(2) as usize)
        .partition_by(Partitioning::Hash(vec![0]));
    b.sink("sink").build().expect("generated plan is valid")
}

fn multiset(rows: Vec<Tuple>) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = rows.into_iter().map(|t| t.values.into_vec()).collect();
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

/// The ladder with shedding disabled (`max_shed_fraction == 0`) may batch
/// adaptively but must not change a single output row.
fn no_shed_overload(seed: u64) -> OverloadConfig {
    OverloadConfig {
        max_shed_fraction: 0.0,
        seed,
        ..OverloadConfig::enabled()
    }
}

#[test]
fn disabled_shedding_is_multiset_identical_to_baseline() {
    for seed in 0..6u64 {
        let mut rng = Rng(0xbeef_0000 ^ seed);
        let plan = deterministic_plan(&mut rng);
        let tuples = hazard_stream(HAZARDS[(seed % 3) as usize], seed);
        for batch_size in [1usize, 32] {
            // Like-for-like: only the ladder differs between the two runs
            // (cross-batch-size equivalence is covered elsewhere).
            let baseline = run(
                &plan,
                RunConfig {
                    batch_size,
                    ..RunConfig::default()
                },
                tuples.clone(),
            );
            let reference = multiset(baseline.sink_tuples);
            assert!(!reference.is_empty(), "seed {seed}: plan produces output");
            let config = RunConfig {
                batch_size,
                overload: no_shed_overload(seed),
                ..RunConfig::default()
            };
            let res = run(&plan, config, tuples.clone());
            assert_eq!(res.total_shed(), 0, "seed {seed}: nothing may be shed");
            assert_eq!(
                multiset(res.sink_tuples),
                reference,
                "seed {seed} / batch {batch_size}: ladder without shedding \
                 changed the output"
            );
        }
    }
}

#[test]
fn exactly_once_recovery_holds_with_the_ladder_enabled() {
    let plan = PlanBuilder::new()
        .partition_by(Partitioning::Hash(vec![0]))
        .source("src", Schema::of(&[FieldType::Int, FieldType::Double]), 1)
        .filter("gt", Predicate::cmp(1, CmpOp::Gt, Value::Double(10.0)), 0.8)
        .window_agg_keyed("win", WindowSpec::tumbling_count(8), AggFunc::Sum, 1, 0)
        .sink("sink")
        .build()
        .expect("plan is valid")
        .with_uniform_parallelism(2);
    let phys = PhysicalPlan::expand(&plan).expect("plan expands");
    let tuples = hazard_stream(Hazard::HotKey, 11);

    let ft = |overload: OverloadConfig, injector: Option<FaultInjector>| {
        let cfg = FtConfig {
            checkpoint_interval_tuples: 128,
            mode: DeliveryMode::ExactlyOnce,
            restart: RestartPolicy {
                max_restarts: 3,
                backoff: Duration::from_millis(5),
            },
            run: RunConfig {
                overload,
                ..RunConfig::default()
            },
        };
        let res = FtRuntime::new(cfg)
            .run(&phys, &[VecSource::new(tuples.clone())], injector)
            .expect("ft run completes");
        (multiset(res.result.sink_tuples), res.recovery.attempts)
    };

    let (reference, clean_attempts) = ft(OverloadConfig::default(), None);
    assert_eq!(clean_attempts, 1);
    assert!(!reference.is_empty());
    let injector = FaultInjector::after_tuples(1, 0, 400);
    let (got, attempts) = ft(no_shed_overload(11), Some(injector.clone()));
    assert!(injector.fired(), "fault actually triggered");
    assert!(attempts > 1, "a restart happened");
    assert_eq!(
        got, reference,
        "exactly-once replay with the ladder enabled diverged from the \
         clean baseline"
    );
}
