//! Engine microbenchmarks: per-operator throughput of the threaded runtime
//! (filter, keyed window aggregation, windowed join), of plan machinery
//! (validation, physical expansion) and of the cross-worker frame codec
//! (`pdsp_engine::wire` against the JSON encoding it replaced). Not a paper
//! figure — these establish the substrate's own performance envelope.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use pdsp_apps::{ad_analytics::AdAnalytics, word_count::WordCount, AppConfig, Application};
use pdsp_engine::agg::AggFunc;
use pdsp_engine::expr::{CmpOp, Predicate};
use pdsp_engine::message::{Batch, Message};
use pdsp_engine::operator::OpKind;
use pdsp_engine::physical::PhysicalPlan;
use pdsp_engine::runtime::{RunConfig, ThreadedRuntime, VecSource};
use pdsp_engine::value::{FieldType, Schema, Tuple, Value};
use pdsp_engine::window::WindowSpec;
use pdsp_engine::wire::{decode_frame, encode_frame};
use pdsp_engine::PlanBuilder;

const N: usize = 50_000;

fn tuples() -> Vec<Tuple> {
    (0..N as i64)
        .map(|i| {
            let mut t = Tuple::new(vec![Value::Int(i % 64), Value::Double(i as f64)]);
            t.event_time = i;
            t
        })
        .collect()
}

fn bench_operators(c: &mut Criterion) {
    let schema = Schema::of(&[FieldType::Int, FieldType::Double]);
    let rt = ThreadedRuntime::new(RunConfig::default());

    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    group.throughput(Throughput::Elements(N as u64));

    let filter_plan = PlanBuilder::new()
        .source("src", schema.clone(), 1)
        .filter("f", Predicate::cmp(1, CmpOp::Gt, Value::Double(100.0)), 0.9)
        .set_parallelism(1, 4)
        .sink("sink")
        .build()
        .unwrap();
    let filter_phys = PhysicalPlan::expand(&filter_plan).unwrap();
    group.bench_function("filter_p4", |b| {
        b.iter(|| rt.run(&filter_phys, &[VecSource::new(tuples())]).unwrap())
    });

    let window_plan = PlanBuilder::new()
        .source("src", schema.clone(), 1)
        .window_agg_keyed("agg", WindowSpec::tumbling_count(100), AggFunc::Sum, 1, 0)
        .set_parallelism(1, 4)
        .sink("sink")
        .build()
        .unwrap();
    let window_phys = PhysicalPlan::expand(&window_plan).unwrap();
    group.bench_function("keyed_window_p4", |b| {
        b.iter(|| rt.run(&window_phys, &[VecSource::new(tuples())]).unwrap())
    });

    let mut builder = PlanBuilder::new();
    let s1 = builder.add_node(
        "s1",
        OpKind::Source {
            schema: schema.clone(),
        },
        1,
    );
    let s2 = builder.add_node("s2", OpKind::Source { schema }, 1);
    let join_plan = builder
        .join("j", s1, s2, WindowSpec::tumbling_time(64), 0, 0)
        .set_parallelism(2, 4)
        .sink("sink")
        .build()
        .unwrap();
    let join_phys = PhysicalPlan::expand(&join_plan).unwrap();
    group.bench_function("windowed_join_p4", |b| {
        b.iter(|| {
            rt.run(
                &join_phys,
                &[VecSource::new(tuples()), VecSource::new(tuples())],
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_plan_machinery(c: &mut Criterion) {
    let plan = PlanBuilder::new()
        .source("src", Schema::of(&[FieldType::Int, FieldType::Double]), 2)
        .filter("f1", Predicate::True, 0.5)
        .filter("f2", Predicate::True, 0.5)
        .window_agg_keyed("agg", WindowSpec::tumbling_count(100), AggFunc::Avg, 1, 0)
        .set_parallelism(1, 64)
        .set_parallelism(2, 64)
        .set_parallelism(3, 64)
        .sink("sink")
        .build()
        .unwrap();
    let mut group = c.benchmark_group("plan_machinery");
    group.bench_function("validate", |b| b.iter(|| plan.validate().unwrap()));
    group.bench_function("expand_p64", |b| {
        b.iter(|| PhysicalPlan::expand(&plan).unwrap())
    });
    group.finish();
}

/// One full frame (`RunConfig::default().batch_size` tuples) of two real
/// inputs through both encodings of a cross-worker `Message`: the binary
/// frames of `pdsp_engine::wire`, and `serde_json` text, which data
/// connections carried before and control connections still do. elem/s is
/// tuples per second, so ns per tuple = 1e9 / elem/s.
fn bench_wire_codec(c: &mut Criterion) {
    const ROUNDS: usize = 500;
    let size = RunConfig::default().batch_size;
    let cfg = AppConfig {
        total_tuples: size,
        ..AppConfig::default()
    };
    // What `wc-dist2` ships: the WordCount sentences, split into words.
    let words: Vec<Tuple> = WordCount.build(&cfg).sources[0]
        .instance_iter(0, 1)
        .flat_map(|s| {
            let text = s.values[0].as_str().unwrap_or_default().to_string();
            text.split_whitespace()
                .map(|w| Tuple::at(vec![Value::str(w)], s.event_time))
                .collect::<Vec<_>>()
        })
        .take(size)
        .collect();
    let impressions: Vec<Tuple> = AdAnalytics.build(&cfg).sources[0]
        .instance_iter(0, 1)
        .take(size)
        .collect();

    for (input, mut tuples) in [("wc_word", words), ("ad_impression", impressions)] {
        assert_eq!(tuples.len(), size);
        // Stamped as a source two seconds into a 300 k tuples/s run would:
        // the length of JSON text depends on the digits.
        for (i, t) in tuples.iter_mut().enumerate() {
            t.emit_ns = 2_000_000_000 + 3_333 * i as u64;
        }
        let width = tuples[0].width();
        let msg = Message::Batch(Batch::new(tuples));
        let mut frame = Vec::new();
        encode_frame(&mut frame, 3, 0, &msg);
        let json = serde_json::to_string(&msg).unwrap();
        println!(
            "bench: wire_codec/{input}: width {width}, {:.1} bytes/tuple binary, {:.1} bytes/tuple json",
            frame.len() as f64 / size as f64,
            json.len() as f64 / size as f64,
        );

        let mut group = c.benchmark_group("wire_codec");
        group.throughput(Throughput::Elements((ROUNDS * size) as u64));
        group.bench_function(format!("{input}/binary_encode"), |b| {
            let mut buf = Vec::new();
            b.iter(|| {
                for _ in 0..ROUNDS {
                    buf.clear();
                    encode_frame(&mut buf, 3, 0, black_box(&msg));
                    black_box(&buf);
                }
            })
        });
        group.bench_function(format!("{input}/binary_decode"), |b| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    black_box(decode_frame(black_box(&frame)).unwrap());
                }
            })
        });
        group.bench_function(format!("{input}/json_encode"), |b| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    black_box(serde_json::to_string(black_box(&msg)).unwrap());
                }
            })
        });
        group.bench_function(format!("{input}/json_decode"), |b| {
            b.iter(|| {
                for _ in 0..ROUNDS {
                    black_box(serde_json::from_str::<Message>(black_box(&json)).unwrap());
                }
            })
        });
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_operators,
    bench_plan_machinery,
    bench_wire_codec
);
criterion_main!(benches);
