//! Which sink rows a `capture_limit` keeps must not depend on thread
//! scheduling: the threaded and fault-tolerant runtimes both concatenate
//! sink output in sink-instance order before truncating it.

use pdsp_engine::fault::{FtConfig, FtRuntime};
use pdsp_engine::runtime::{RunConfig, ThreadedRuntime, VecSource};
use pdsp_engine::{FieldType, Partitioning, PhysicalPlan, PlanBuilder, Schema, Tuple, Value};

fn multiset(tuples: &[Tuple]) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = tuples.iter().map(|t| t.values.to_vec()).collect();
    rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    rows
}

#[test]
fn capture_limit_keeps_the_first_sink_instances_rows() {
    let tuples: Vec<Tuple> = (0..400i64)
        .map(|i| Tuple::new(vec![Value::Int(i % 16), Value::Int(i)]))
        .collect();
    let plan = PlanBuilder::new()
        .source("src", Schema::of(&[FieldType::Int, FieldType::Int]), 1)
        .partition_by(Partitioning::Hash(vec![0]))
        .sink("sink")
        .set_parallelism(1, 2)
        .build()
        .unwrap();
    let plan = PhysicalPlan::expand(&plan).unwrap();
    // The hash edge sends a row to sink instance `key_hash % 2`.
    let first: Vec<Tuple> = tuples
        .iter()
        .filter(|t| t.key_hash(&[0]) % 2 == 0)
        .cloned()
        .collect();
    assert!(!first.is_empty() && first.len() < tuples.len());
    let run = RunConfig {
        capture_limit: first.len(),
        ..RunConfig::default()
    };
    let expected = multiset(&first);
    for rep in 0..20 {
        let threaded = ThreadedRuntime::new(run.clone())
            .run(&plan, &[VecSource::new(tuples.clone())])
            .unwrap();
        assert_eq!(
            multiset(&threaded.sink_tuples),
            expected,
            "threaded, rep {rep}"
        );
        let ft = FtRuntime::new(FtConfig {
            run: run.clone(),
            ..FtConfig::default()
        })
        .run(&plan, &[VecSource::new(tuples.clone())], None)
        .unwrap();
        assert_eq!(
            multiset(&ft.result.sink_tuples),
            expected,
            "fault-tolerant, rep {rep}"
        );
    }
}
