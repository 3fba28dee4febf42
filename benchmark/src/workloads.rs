//! The four workloads: their constants, seeded inputs and plans, and the
//! spec grammar through which worker processes rebuild the distributed one.
//!
//! Rates and sizes are constants of this file, never derived at run time, so
//! a parent commit and a change are offered exactly the same load.

use crate::pacing::{tick_log_path, Feed, Pool, PooledSource};
use pdsp_apps::ad_analytics::AdAnalytics;
use pdsp_apps::common::named_schema;
use pdsp_apps::word_count::WordCount;
use pdsp_apps::{AppConfig, Application};
use pdsp_engine::agg::AggFunc;
use pdsp_engine::distributed::SpecResolver;
use pdsp_engine::runtime::SourceFactory;
use pdsp_engine::{
    EngineError, FieldType, LogicalPlan, PhysicalPlan, PlanBuilder, Tuple, Value, WindowSpec,
};
use std::sync::{Arc, OnceLock};

/// Parallelism of every operator that is neither a source nor a sink.
pub const PARALLELISM: usize = 2;
/// Worker processes of the distributed workload.
pub const DIST_WORKERS: usize = 2;
/// `--seconds` at which the constants below apply unscaled: the 7 paced
/// reps of 4 s that a `--trace 0` run measures.
pub const NOMINAL_SECONDS: u64 = 28;
/// Schedule length of one paced rep at nominal scale, ms.
pub const PACED_MS: u64 = 4_000;
/// Schedule length of the paced warm-up rep at nominal scale, ms.
pub const WARMUP_MS: u64 = 3_000;

/// Which runtime executes the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `ThreadedRuntime`.
    Threaded,
    /// `FtRuntime`, exactly-once, checkpointing every `ckpt_interval`.
    Ft,
    /// `DistributedRuntime` on [`DIST_WORKERS`] worker processes.
    Distributed,
}

/// Which plan and inputs a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    /// The `WordCount` application plan over its own seeded sentences.
    WordCountApp,
    /// The `AdAnalytics` application plan over its two seeded sources.
    AdAnalyticsApp,
    /// source → hash → tumbling count(100) ×2 → sink over pre-split words.
    KeyedWordCount,
}

/// Constants of one workload.
#[derive(Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Plan and inputs.
    pub job: Job,
    /// Runtime.
    pub backend: Backend,
    /// Tuples each source emits in one drain rep (≈3 s at seed speed).
    pub drain_tuples: u64,
    /// Tuples per second each source offers in a paced rep.
    pub rate_tps: u64,
    /// Tuples generated per source; longer streams cycle the pool.
    pub pool_tuples: usize,
    /// `AppConfig::event_rate` of the generator (event-time spacing).
    pub event_rate: f64,
    /// Source tuples between checkpoint barriers (`Ft`, `Distributed`).
    pub ckpt_interval: u64,
}

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wc-shuffle",
        job: Job::WordCountApp,
        backend: Backend::Threaded,
        drain_tuples: 1_000_000,
        // The issue has 160 000/s, 47 % of capacity. The shared box runs
        // 1.7× slower for ten minutes at a time, and a third of the reps at
        // that rate were then unsustained.
        rate_tps: 120_000,
        pool_tuples: 100_000,
        event_rate: 10_000.0,
        ckpt_interval: 0,
    },
    Workload {
        name: "ad-join",
        job: Job::AdAnalyticsApp,
        backend: Backend::Threaded,
        drain_tuples: 250_000,
        rate_tps: 30_000,
        pool_tuples: 100_000,
        event_rate: 5_000.0,
        ckpt_interval: 0,
    },
    Workload {
        name: "ad-join-ckpt",
        job: Job::AdAnalyticsApp,
        backend: Backend::Ft,
        drain_tuples: 250_000,
        rate_tps: 30_000,
        pool_tuples: 100_000,
        event_rate: 5_000.0,
        ckpt_interval: 20_000,
    },
    Workload {
        name: "wc-dist2",
        job: Job::KeyedWordCount,
        backend: Backend::Distributed,
        drain_tuples: 3_000_000,
        rate_tps: 300_000,
        pool_tuples: 200_000,
        event_rate: 10_000.0,
        ckpt_interval: 100_000,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    fn app_config(&self, seed: u64) -> AppConfig {
        AppConfig {
            event_rate: self.event_rate,
            total_tuples: self.pool_tuples,
            seed,
        }
    }

    /// The plan as authored, with the benchmark's parallelism applied; the
    /// deploy gate sees this one.
    pub fn authored_plan(&self, seed: u64) -> LogicalPlan {
        let cfg = self.app_config(seed);
        match self.job {
            Job::WordCountApp => WordCount
                .build(&cfg)
                .plan
                .with_uniform_parallelism(PARALLELISM),
            Job::AdAnalyticsApp => AdAnalytics
                .build(&cfg)
                .plan
                .with_uniform_parallelism(PARALLELISM),
            Job::KeyedWordCount => PlanBuilder::new()
                .source("words", named_schema(&[("word", FieldType::Str)]), 1)
                .window_agg_keyed(
                    "count",
                    WindowSpec::tumbling_count(100),
                    AggFunc::Count,
                    0,
                    0,
                )
                .sink("sink")
                .build()
                .expect("keyed word count plan is valid")
                .with_uniform_parallelism(PARALLELISM),
        }
    }

    /// Generate the seeded input pool of every source, in source order,
    /// from the applications' own generators.
    pub fn pools(&self, seed: u64) -> Vec<Arc<Pool>> {
        let cfg = self.app_config(seed);
        let take = |src: &Arc<dyn SourceFactory>, n: usize| -> Vec<Tuple> {
            src.instance_iter(0, 1).take(n).collect()
        };
        let pools = match self.job {
            Job::WordCountApp => vec![take(&WordCount.build(&cfg).sources[0], self.pool_tuples)],
            Job::AdAnalyticsApp => AdAnalytics
                .build(&cfg)
                .sources
                .iter()
                .map(|s| take(s, self.pool_tuples))
                .collect(),
            // The split is done here, not by a flat-map operator, so that
            // under `id % workers` placement every cross-worker edge of the
            // plan points from worker 0 to worker 1 (see `one_way`).
            Job::KeyedWordCount => {
                let sentences = take(&WordCount.build(&cfg).sources[0], self.pool_tuples / 8);
                vec![sentences
                    .iter()
                    .flat_map(|s| {
                        let text = s.values[0].as_str().unwrap_or_default();
                        text.split_whitespace()
                            .map(|w| Tuple::at(vec![Value::str(w)], s.event_time))
                            .collect::<Vec<_>>()
                    })
                    .collect()]
            }
        };
        pools.into_iter().map(|t| Arc::new(Pool::new(t))).collect()
    }
}

/// Gate → fuse → expand, the deploy path of `Controller::run_threaded_plan`.
pub fn deploy(label: &str, authored: &LogicalPlan) -> Result<PhysicalPlan, EngineError> {
    let report = pdsp_analyze::analyze(label, authored)?;
    let mut errors = report
        .diagnostics
        .iter()
        .filter(|d| d.severity == pdsp_analyze::Severity::Error);
    if let Some(d) = errors.next() {
        return Err(EngineError::AnalysisRejected {
            workload: label.to_string(),
            errors: 1 + errors.count(),
            first: format!("{} {}", d.code, d.message),
        });
    }
    PhysicalPlan::expand(&pdsp_engine::chaining::fuse(authored)?)
}

/// Refuse a plan whose cross-worker edges, under the distributed runtime's
/// `instance id % workers` placement, run in both directions between some
/// pair of workers: one shared TCP stream per peer, read by one thread that
/// blocks on a full inbox, deadlocks on such a cycle under load.
pub fn one_way(plan: &PhysicalPlan, workers: usize) -> Result<(), String> {
    let mut directions = std::collections::BTreeSet::new();
    for inst in &plan.instances {
        for route in &plan.out_routes[inst.id] {
            for target in &route.targets {
                let (from, to) = (inst.id % workers, target.instance % workers);
                if from != to {
                    directions.insert((from, to));
                }
            }
        }
    }
    match directions
        .iter()
        .find(|&&(a, b)| directions.contains(&(b, a)))
    {
        Some((a, b)) => Err(format!(
            "plan sends data both from worker {a} to worker {b} and back: \
             the distributed runtime deadlocks on that cycle when saturated"
        )),
        None => Ok(()),
    }
}

/// Spec string of one distributed rep; [`resolver`] parses exactly this.
/// `tick_logs` is the prefix of the sources' tick-log paths.
pub fn dist_spec(name: &str, seed: u64, feed: Feed, tick_logs: &str) -> String {
    format!(
        "bench:{name}:{seed}:{}:{}:{tick_logs}",
        feed.total, feed.per_tick
    )
}

/// Resolver shared by the coordinator and the re-exec'd workers. Every
/// process resolves every spec inside the rep's timed `elapsed`, so this
/// only builds the plan; the pool is generated by the source adapter, in
/// the one worker that hosts the source, which also writes the tick log.
pub fn resolver() -> SpecResolver {
    Arc::new(|spec: &str| {
        let bad = |what: &str| EngineError::InvalidConfig(format!("spec '{spec}': {what}"));
        let parts: Vec<&str> = spec.splitn(6, ':').collect();
        let ["bench", name, seed, total, per_tick, tick_logs] = parts.as_slice() else {
            return Err(bad(
                "expected bench:<workload>:<seed>:<total>:<per_tick>:<logs>",
            ));
        };
        let workload = by_name(name).ok_or_else(|| bad("unknown workload"))?;
        let number = |s: &str| s.parse::<u64>().map_err(|_| bad("not a number"));
        let (seed, feed) = (
            number(seed)?,
            Feed {
                total: number(total)?,
                per_tick: number(per_tick)?,
            },
        );
        let plan = deploy(name, &workload.authored_plan(seed))?;
        // Generated once, by whichever source is asked for tuples first.
        let pools: Arc<OnceLock<Vec<Arc<Pool>>>> = Arc::default();
        let sources: Vec<Arc<dyn SourceFactory>> = (0..plan.logical.sources().len())
            .map(|i| -> Arc<dyn SourceFactory> {
                let pools = Arc::clone(&pools);
                PooledSource::new(
                    Box::new(move || Arc::clone(&pools.get_or_init(|| workload.pools(seed))[i])),
                    feed,
                    tick_log_path(tick_logs, i),
                )
            })
            .collect();
        Ok((plan, sources))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_way_placement_accepts_keyed_count_and_rejects_the_wc_app_plan() {
        let keyed = by_name("wc-dist2").unwrap();
        let plan = deploy("wc-dist2", &keyed.authored_plan(1)).unwrap();
        assert_eq!(plan.instance_count(), 4);
        assert_eq!(one_way(&plan, DIST_WORKERS), Ok(()));

        let app = by_name("wc-shuffle").unwrap();
        let plan = deploy("wc-shuffle", &app.authored_plan(1)).unwrap();
        assert_eq!(plan.instance_count(), 6);
        let err = one_way(&plan, DIST_WORKERS).unwrap_err();
        assert!(err.contains("both from worker"), "{err}");
        // On one worker nothing crosses, so nothing can cycle.
        assert_eq!(one_way(&plan, 1), Ok(()));
    }

    #[test]
    fn seed_changes_the_inputs_and_nothing_else() {
        for w in &WORKLOADS {
            let (a, b, again) = (w.pools(1), w.pools(2), w.pools(1));
            assert_eq!(a.len(), b.len());
            for ((pa, pb), pc) in a.iter().zip(&b).zip(&again) {
                assert_eq!(pa.tuples, pc.tuples, "{}: same seed, same input", w.name);
                assert_ne!(pa.tuples, pb.tuples, "{}: other seed, other input", w.name);
                assert_eq!(pa.tuples.len(), pb.tuples.len());
                assert!(pa
                    .tuples
                    .windows(2)
                    .all(|t| t[0].event_time <= t[1].event_time));
            }
            let (pa, pb) = (w.authored_plan(1), w.authored_plan(2));
            assert_eq!(pa.edges, pb.edges);
            let shape = |p: &LogicalPlan| -> Vec<(String, usize)> {
                p.nodes
                    .iter()
                    .map(|n| (n.name.clone(), n.parallelism))
                    .collect()
            };
            assert_eq!(shape(&pa), shape(&pb));
        }
    }

    #[test]
    fn thread_counts_match_the_documented_shapes() {
        let count = |name: &str| {
            let w = by_name(name).unwrap();
            deploy(name, &w.authored_plan(1)).unwrap().instance_count()
        };
        assert_eq!(count("wc-shuffle"), 6);
        assert_eq!(count("ad-join"), 9);
        assert_eq!(count("ad-join-ckpt"), 9);
    }

    #[test]
    fn dist_spec_round_trips_through_the_resolver() {
        let feed = Feed::paced(300_000, 7);
        let spec = dist_spec("wc-dist2", 9, feed, "out/some:odd/prefix");
        let (plan, sources) = resolver()(&spec).unwrap();
        assert_eq!(plan.instance_count(), 4);
        assert_eq!(sources.len(), 1);
        assert!(resolver()("bench:nope:1:1:0:-").is_err());
        assert!(resolver()("seeded:1").is_err());
    }
}
