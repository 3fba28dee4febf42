//! Seeded, deterministic plan corpus for the distributed runtime.
//!
//! Distributed deployment ships *plan specifications* — short strings like
//! `seeded:42:2048:1` — rather than serialized plans, because plans can
//! carry arbitrary UDO closures that do not cross process boundaries. The
//! coordinator and every worker process resolve the same spec string with
//! [`resolve`] and are guaranteed to construct bit-identical logical plans,
//! physical expansions, and source data: everything here is a pure function
//! of the spec.
//!
//! Sources are *throttled* (a short sleep every few hundred tuples) so a
//! chaos SIGKILL or connection drop lands mid-run instead of after all data
//! has already drained — the corpus exists to be killed.
//!
//! `twoway:<tuples>` is the one plan that exists to be saturated instead:
//! see [`build_two_way`].

use crate::agg::AggFunc;
use crate::builder::PlanBuilder;
use crate::error::{EngineError, Result};
use crate::expr::{CmpOp, Predicate};
use crate::physical::PhysicalPlan;
use crate::plan::LogicalPlan;
use crate::runtime::SourceFactory;
use crate::value::{FieldType, Schema, Tuple, Value};
use crate::window::WindowSpec;
use std::sync::Arc;

/// Resolve a plan specification string into an executable topology.
///
/// Every process of a distributed run calls this with the same spec and gets
/// the same answer. See [`SpecResolver`](crate::distributed::SpecResolver)
/// for how drivers with richer vocabularies (the CLI's `app:` specs) layer
/// on top.
pub type PlanAndSources = (PhysicalPlan, Vec<Arc<dyn SourceFactory>>);

/// Resolve a `seeded:<seed>[:<tuples>[:<pace_ms>]]` spec into a physical
/// plan plus its throttled sources.
///
/// * `seed` selects the plan shape and the generated tuple stream;
/// * `tuples` is the total tuple count across source instances
///   (default 4096);
/// * `pace_ms` is the sleep each source instance takes every 256 tuples
///   (default 1 — slow enough that a mid-run kill has something to kill).
///
/// Unknown spec prefixes are rejected with [`EngineError::InvalidConfig`],
/// which is what lets richer resolvers chain: try their own grammar first,
/// then fall back here.
pub fn resolve(spec: &str) -> Result<PlanAndSources> {
    let parse = |what: &str, v: Option<&str>, default: u64| -> Result<u64> {
        match v {
            None | Some("") => Ok(default),
            Some(text) => text.parse().map_err(|_| {
                EngineError::InvalidConfig(format!(
                    "spec '{spec}': {what} '{text}' is not a number"
                ))
            }),
        }
    };
    if let Some(tuples) = spec.strip_prefix("twoway:") {
        return build_two_way(parse("tuples", Some(tuples), 0)?.max(1));
    }
    let rest = spec.strip_prefix("seeded:").ok_or_else(|| {
        EngineError::InvalidConfig(format!(
            "unknown plan spec '{spec}' (expected seeded:<seed>[:<tuples>[:<pace_ms>]] \
             or twoway:<tuples>)"
        ))
    })?;
    let mut parts = rest.split(':');
    let seed = parse("seed", parts.next(), 0)?;
    let tuples = parse("tuples", parts.next(), 4096)?.max(1);
    let pace_ms = parse("pace_ms", parts.next(), 1)?;
    if parts.next().is_some() {
        return Err(EngineError::InvalidConfig(format!(
            "spec '{spec}' has trailing fields"
        )));
    }
    build(seed, tuples, pace_ms)
}

/// Construct the seeded topology directly (the function behind [`resolve`]).
/// Exposed so equivalence tests can run the same plan on the threaded
/// runtime without going through spec strings.
pub fn build(seed: u64, tuples: u64, pace_ms: u64) -> Result<PlanAndSources> {
    // The corpus deliberately avoids time windows: count windows and
    // stateless operators make the sink multiset independent of message
    // interleaving, which is what lets a killed-and-recovered distributed
    // run be compared bit-for-bit against an unkilled threaded run.
    let shape = seed % 3;
    let logical = match shape {
        0 => PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int, FieldType::Int]), 2)
            .filter("keep", Predicate::cmp(1, CmpOp::Ge, Value::Int(0)), 1.0)
            .set_parallelism(1, 2)
            .window_agg_keyed("sum", WindowSpec::tumbling_count(8), AggFunc::Sum, 1, 0)
            .set_parallelism(2, 2)
            .sink("sink")
            .build()?,
        1 => PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int, FieldType::Int]), 2)
            .window_agg_keyed(
                "count",
                WindowSpec::tumbling_count(16),
                AggFunc::Count,
                1,
                0,
            )
            .set_parallelism(1, 3)
            .sink("sink")
            .build()?,
        _ => PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int, FieldType::Int]), 2)
            .filter(
                "mod",
                Predicate::cmp(1, CmpOp::Lt, Value::Int(1 << 40)),
                1.0,
            )
            .set_parallelism(1, 2)
            .filter("pos", Predicate::cmp(1, CmpOp::Ge, Value::Int(0)), 1.0)
            .set_parallelism(2, 2)
            .sink("sink")
            .build()?,
    };
    seeded(&logical, seed, tuples, pace_ms)
}

/// Expand `logical` and pair it with its one [`SeededSource`].
fn seeded(logical: &LogicalPlan, seed: u64, tuples: u64, pace_ms: u64) -> Result<PlanAndSources> {
    let plan = PhysicalPlan::expand(logical)?;
    let sources: Vec<Arc<dyn SourceFactory>> = vec![Arc::new(SeededSource {
        seed,
        tuples,
        pace_ms,
    })];
    Ok((plan, sources))
}

/// The `twoway:<tuples>` plan: unthrottled source ×2 → hash → keyed
/// tumbling count(8) ×2 → rebalance → sink ×2. Under `id % 2` placement each
/// worker hosts one instance of every operator, so `src0 → count1` and
/// `count0 → sink1` cross from worker 0 to worker 1 while `src1 → count0`
/// and `count1 → sink0` cross the other way — the shape on which data
/// connections shared between target instances deadlock once the sources
/// outrun the counts (see the module docs of [`crate::distributed`]).
pub fn build_two_way(tuples: u64) -> Result<PlanAndSources> {
    let logical = PlanBuilder::new()
        .source("src", Schema::of(&[FieldType::Int, FieldType::Int]), 2)
        .window_agg_keyed("count", WindowSpec::tumbling_count(8), AggFunc::Count, 1, 0)
        .set_parallelism(1, 2)
        .sink("sink")
        .set_parallelism(2, 2)
        .build()?;
    seeded(&logical, 0, tuples, 0)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic two-column integer stream `(key, value)`, partitioned
/// round-robin across source instances and throttled by `pace_ms`.
struct SeededSource {
    seed: u64,
    tuples: u64,
    pace_ms: u64,
}

impl SourceFactory for SeededSource {
    fn instance_iter(
        &self,
        instance_index: usize,
        parallelism: usize,
    ) -> Box<dyn Iterator<Item = Tuple> + Send> {
        let (seed, tuples, pace_ms) = (self.seed, self.tuples, self.pace_ms);
        let iter = (0..tuples)
            .filter(move |i| (*i as usize) % parallelism == instance_index)
            .enumerate()
            .map(move |(local_idx, i)| {
                // Draws are keyed by the global index so the stream content
                // is independent of the partitioning. The value column is a
                // pure function of the key: tuples of one key are
                // interchangeable, so keyed window aggregates cannot depend
                // on per-key arrival order — which is what makes runs
                // comparable across backends at all (the merge order of a
                // multi-channel keyed exchange is inherently racy).
                let mut state = seed ^ i.wrapping_mul(0x9E37_79B9);
                let key = splitmix64(&mut state) % 16;
                let mut vstate = seed ^ key.wrapping_mul(0xA24B_AED4);
                let value = splitmix64(&mut vstate) % 1_000;
                if pace_ms > 0 && local_idx > 0 && local_idx % 256 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(pace_ms));
                }
                let mut t = Tuple::new(vec![Value::Int(key as i64), Value::Int(value as i64)]);
                t.event_time = i as i64;
                t
            });
        Box::new(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{RunConfig, ThreadedRuntime};

    #[test]
    fn specs_resolve_deterministically() {
        for spec in [
            "seeded:0:512:0",
            "seeded:1:512:0",
            "seeded:2:512:0",
            "twoway:512",
        ] {
            let (a, src_a) = resolve(spec).unwrap();
            let (b, src_b) = resolve(spec).unwrap();
            assert_eq!(a.instance_count(), b.instance_count(), "{spec}");
            let ta: Vec<Tuple> = src_a[0].instance_iter(0, 2).collect();
            let tb: Vec<Tuple> = src_b[0].instance_iter(0, 2).collect();
            assert_eq!(ta, tb, "{spec}");
        }
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        assert!(matches!(
            resolve("app:WC"),
            Err(EngineError::InvalidConfig(_))
        ));
        assert!(matches!(
            resolve("seeded:x"),
            Err(EngineError::InvalidConfig(_))
        ));
        assert!(matches!(
            resolve("seeded:1:2:3:4"),
            Err(EngineError::InvalidConfig(_))
        ));
        assert!(matches!(
            resolve("twoway:1:2"),
            Err(EngineError::InvalidConfig(_))
        ));
    }

    #[test]
    fn partitions_cover_the_stream_disjointly() {
        let (_, sources) = resolve("seeded:7:100:0").unwrap();
        let a: Vec<Tuple> = sources[0].instance_iter(0, 2).collect();
        let b: Vec<Tuple> = sources[0].instance_iter(1, 2).collect();
        assert_eq!(a.len() + b.len(), 100);
    }

    #[test]
    fn corpus_plans_execute_on_the_threaded_runtime() {
        for seed in 0..3 {
            let (plan, sources) = build(seed, 256, 0).unwrap();
            let rt = ThreadedRuntime::new(RunConfig::default());
            let res = rt.run(&plan, &sources).unwrap();
            assert_eq!(res.tuples_in, 256, "seed {seed}");
            assert!(res.tuples_out > 0, "seed {seed}");
        }
    }
}
