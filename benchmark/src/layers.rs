//! `--trace 1`: the per-layer metrics, from three sources that are all
//! outside the engine —
//!
//! * microbenches timing public functions of each module on the workload's
//!   own tuples, single-threaded (which makes `kernel_us_per_tuple` the
//!   single-thread baseline of the job);
//! * traced drain reps and one traced paced rep (1-in-256 head sampling),
//!   read through `MetricsRegistry::snapshot()` and
//!   `trace::attribute(assemble(spans))`;
//! * the harness's own logs of untraced reps — among them `capacity_tps`
//!   and `cpu_us_per_tuple` of the closed-loop drain reps, `lat_p90_ms` of
//!   the paced ones and the run's `peak_rss_mb`, which a user of the system
//!   would see but which this machine cannot repeat well enough to gate on.
//!
//! A metric of a layer the workload's plan does not have reads 0.

use crate::harness::{median_of, quiet_latency_ms, quiet_share, Kind, Rep, Setup, Tally, OUT_DIR};
use crate::stats::{median, range_pct};
use crate::workloads::Backend;
use pdsp_bench_core::controller::Controller;
use pdsp_cluster::{Cluster, SimConfig, Simulator};
use pdsp_engine::message::{Batch, Message};
use pdsp_engine::operator::OperatorInstance;
use pdsp_engine::physical::RouterState;
use pdsp_engine::runtime::{SourceFactory, VecSource};
use pdsp_engine::state::JoinState;
use pdsp_engine::window::KeyedWindower;
use pdsp_engine::{
    LogicalPlan, OpKind, Partitioning, PhysicalPlan, PlanBuilder, RunConfig, SchemaFlow,
    ThreadedRuntime, Tuple, Value,
};
use pdsp_store::Store;
use pdsp_telemetry::{
    assemble, attribute, chrome_trace_json, InstanceSnapshot, LogHistogram, Span,
};
use serde_json::Map;
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untraced drain reps of a traced run, and as many traced ones: enough
/// for `harness.rep_spread_pct` and for the ratio of two medians.
const DRAIN_REPS: usize = 3;
/// Untraced paced reps of a traced run: 32 slices for `lat_p90_ms`, and
/// two reps for the medians over reps.
const PACED_REPS: usize = 2;
/// Source tuples per source the single-threaded kernel pass processes, as a
/// share of a drain rep.
const KERNEL_SHARE_OF_DRAIN: u64 = 20;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median wall time of five calls of `f`, in ms.
fn timed_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(f());
            ms(t0.elapsed())
        })
        .collect();
    median(&samples)
}

/// Time per node and sampled outputs of one single-threaded pass of the
/// deployed logical plan over the first `n` tuples of every source.
struct KernelPass {
    /// Time spent in each node's operator, by node id.
    busy: Vec<Duration>,
    /// Tuples each node received.
    tuples_in: Vec<u64>,
    /// The first tuples each node emitted (sources: their input).
    samples: Vec<Vec<Tuple>>,
    source_tuples: u64,
}

struct Interpreter<'a> {
    plan: &'a LogicalPlan,
    ops: Vec<Option<Box<dyn OperatorInstance>>>,
    pass: KernelPass,
}

impl Interpreter<'_> {
    const SAMPLE: usize = 4096;

    fn sample(&mut self, node: usize, tuples: &[Tuple]) {
        let room = Self::SAMPLE.saturating_sub(self.pass.samples[node].len());
        self.pass.samples[node].extend(tuples.iter().take(room).cloned());
    }

    /// Hand `tuples` to every consumer of `node`.
    fn emit(&mut self, node: usize, tuples: Vec<Tuple>) {
        self.sample(node, &tuples);
        let consumers: Vec<(usize, usize)> = self
            .plan
            .out_edges(node)
            .iter()
            .map(|e| (e.to, e.port))
            .collect();
        for (to, port) in consumers {
            self.deliver(to, port, tuples.clone());
        }
    }

    fn deliver(&mut self, node: usize, port: usize, tuples: Vec<Tuple>) {
        self.pass.tuples_in[node] += tuples.len() as u64;
        let Some(op) = self.ops[node].as_mut() else {
            return; // sink
        };
        let mut out = Vec::new();
        let t0 = Instant::now();
        op.on_batch(port, tuples, &mut out)
            .expect("operator accepts its own plan's tuples");
        self.pass.busy[node] += t0.elapsed();
        if !out.is_empty() {
            self.emit(node, out);
        }
    }

    fn watermark(&mut self, order: &[usize], wm: i64) {
        for &node in order {
            let Some(op) = self.ops[node].as_mut() else {
                continue;
            };
            let mut out = Vec::new();
            let t0 = Instant::now();
            op.on_watermark(wm, &mut out);
            self.pass.busy[node] += t0.elapsed();
            if !out.is_empty() {
                self.emit(node, out);
            }
        }
    }
}

fn kernel_pass(setup: &Setup, n: u64) -> KernelPass {
    let plan = &setup.plan.logical;
    let nodes = plan.nodes.len();
    let run = RunConfig::default();
    let mut it = Interpreter {
        plan,
        ops: plan
            .nodes
            .iter()
            .map(|node| match &node.kind {
                OpKind::Source { .. } | OpKind::Sink => None,
                kind => Some(kind.instantiate()),
            })
            .collect(),
        pass: KernelPass {
            busy: vec![Duration::ZERO; nodes],
            tuples_in: vec![0; nodes],
            samples: vec![Vec::new(); nodes],
            source_tuples: n * setup.pools.len() as u64,
        },
    };
    let order = plan.topo_order().expect("deployed plan is a DAG");
    let sources = plan.sources();
    let batch = run.batch_size as u64;
    let mut at = 0;
    while at < n {
        let upto = (at + batch).min(n);
        let mut wm = i64::MAX;
        for (pool, &src) in setup.pools.iter().zip(&sources) {
            let tuples: Vec<Tuple> = (at..upto).map(|i| pool.get(i)).collect();
            wm = wm.min(tuples.last().map_or(i64::MAX, |t| t.event_time));
            it.pass.tuples_in[src] += tuples.len() as u64;
            it.emit(src, tuples);
        }
        // The runtimes below use `watermark_interval: 512`, four batches.
        if (upto / batch).is_multiple_of(4) {
            it.watermark(&order, wm);
        }
        at = upto;
    }
    it.pass
}

impl KernelPass {
    /// ns per input tuple of the first node whose kind `pick` accepts.
    fn ns_per_tuple(&self, plan: &LogicalPlan, pick: impl Fn(&OpKind) -> bool) -> f64 {
        plan.nodes.iter().find(|n| pick(&n.kind)).map_or(0.0, |n| {
            self.busy[n.id].as_nanos() as f64 / self.tuples_in[n.id].max(1) as f64
        })
    }

    fn total_us_per_source_tuple(&self) -> f64 {
        let total: Duration = self.busy.iter().sum();
        total.as_secs_f64() * 1e6 / self.source_tuples.max(1) as f64
    }
}

/// Mean ns of `RouterState::select` over the hash-partitioned routes of the
/// deployed plan, each on a sample of the tuples that cross it.
fn route_ns(plan: &PhysicalPlan, pass: &KernelPass) -> f64 {
    let (mut calls, mut spent) = (0u64, Duration::ZERO);
    for (node, sample) in pass.samples.iter().enumerate() {
        let routes = &plan.out_routes[plan.node_instances[node][0]];
        for (ri, route) in routes.iter().enumerate() {
            if sample.is_empty() || !matches!(route.partitioning, Partitioning::Hash(_)) {
                continue;
            }
            let mut router = RouterState::new(routes.len());
            let t0 = Instant::now();
            for _ in 0..(200_000 / sample.len()).max(1) {
                for t in sample {
                    black_box(router.select(ri, route, t));
                }
                calls += sample.len() as u64;
            }
            spent += t0.elapsed();
        }
    }
    spent.as_nanos() as f64 / calls.max(1) as f64
}

/// `engine.window.*`: the count windower of the word-count plans fed the
/// sampled words directly.
fn window_metrics(plan: &LogicalPlan, pass: &KernelPass, put: &mut dyn FnMut(&str, f64, &str)) {
    let found = plan.nodes.iter().find_map(|n| match n.kind {
        OpKind::WindowAggregate { window, func, .. } => Some((n.id, window, func)),
        _ => None,
    });
    let (mut push_ns, mut keys, mut snap_ms, mut bytes, mut restore_ms) = (0.0, 0.0, 0.0, 0.0, 0.0);
    if let Some((node, window, func)) = found {
        // Its input is what its upstream node emitted.
        let upstream = plan.in_edges(node)[0].from;
        let words = &pass.samples[upstream];
        let mut w = KeyedWindower::new(window, func, true);
        let mut out = Vec::new();
        let rounds = (400_000 / words.len().max(1)).max(1);
        let t0 = Instant::now();
        for _ in 0..rounds {
            for t in words {
                w.push(t.values.first(), 1.0, t, &mut out);
            }
            out.clear();
        }
        push_ns = t0.elapsed().as_nanos() as f64 / (rounds * words.len()).max(1) as f64;
        keys = w.key_count() as f64;
        let snapshot = w.snapshot().expect("windower snapshot");
        bytes = snapshot.len() as f64;
        snap_ms = timed_ms(|| w.snapshot());
        restore_ms = timed_ms(|| w.restore(&snapshot));
    }
    put("engine.window.push_ns_per_tuple", push_ns, "ns");
    put("engine.window.keys", keys, "count");
    put("engine.window.snapshot_ms", snap_ms, "ms");
    put("engine.window.snapshot_bytes", bytes, "count");
    put("engine.window.restore_ms", restore_ms, "ms");
}

/// `engine.state.*`: the join of the ad plan fed both inputs directly, in
/// event-time order, with a watermark every 512 tuples.
fn state_metrics(setup: &Setup, n: u64, put: &mut dyn FnMut(&str, f64, &str)) {
    let found = setup.plan.logical.nodes.iter().find_map(|n| match n.kind {
        OpKind::Join {
            window,
            left_key,
            right_key,
        } => Some((window, left_key, right_key)),
        _ => None,
    });
    let (mut join_ns, mut buffered, mut snap_ms, mut bytes, mut restore_ms) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    if let Some((window, left_key, right_key)) = found {
        let mut join = JoinState::new(window, left_key, right_key);
        let mut out = Vec::new();
        let t0 = Instant::now();
        for i in 0..n {
            let left = setup.pools[0].get(i);
            let wm = left.event_time;
            join.on_tuple(0, left, &mut out);
            join.on_tuple(1, setup.pools[1].get(i), &mut out);
            out.clear();
            if i % 256 == 255 {
                join.on_watermark(wm.min(setup.pools[1].get(i).event_time));
            }
        }
        join_ns = t0.elapsed().as_nanos() as f64 / (2 * n).max(1) as f64;
        buffered = join.buffered() as f64;
        let snapshot = join.snapshot().expect("join snapshot");
        bytes = snapshot.len() as f64;
        snap_ms = timed_ms(|| join.snapshot());
        restore_ms = timed_ms(|| join.restore(&snapshot));
    }
    put("engine.state.join_ns_per_tuple", join_ns, "ns");
    put("engine.state.buffered_tuples", buffered, "count");
    put("engine.state.snapshot_ms", snap_ms, "ms");
    put("engine.state.snapshot_bytes", bytes, "count");
    put("engine.state.restore_ms", restore_ms, "ms");
}

/// ns per message through a bounded channel of the vendored shim, at the
/// runtime's frame capacity, from `producers` sending threads.
fn channel_ns(producers: u64) -> f64 {
    const MESSAGES: u64 = 200_000;
    let (tx, rx) = crossbeam_channel::bounded::<Message>(RunConfig::default().frame_capacity());
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..producers {
            let tx = tx.clone();
            scope.spawn(move || {
                for i in 0..MESSAGES / producers {
                    let _ = tx.send(Message::Watermark(i as i64));
                }
            });
        }
        drop(tx);
        black_box(rx.iter().count());
    });
    t0.elapsed().as_nanos() as f64 / MESSAGES as f64
}

/// Wire codec and framing on one 128-tuple batch of the workload's input.
fn wire_metrics(setup: &Setup, put: &mut dyn FnMut(&str, f64, &str)) {
    const ROUNDS: u32 = 200;
    let size = RunConfig::default().batch_size;
    let tuples: Vec<Tuple> = (0..size as u64).map(|i| setup.pools[0].get(i)).collect();
    let msg = Message::Batch(Batch::new(tuples));
    let bytes = pdsp_net::encode_json(&msg).expect("batch encodes");
    let text = std::str::from_utf8(&bytes).expect("JSON is UTF-8");
    let per_tuple = |d: Duration| d.as_nanos() as f64 / (ROUNDS as usize * size) as f64;

    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        black_box(pdsp_net::encode_json(black_box(&msg)).expect("batch encodes"));
    }
    put(
        "engine.distributed.wire_encode_ns_per_tuple",
        per_tuple(t0.elapsed()),
        "ns",
    );
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        black_box(serde_json::from_str::<Message>(black_box(text)).expect("batch decodes"));
    }
    put(
        "engine.distributed.wire_decode_ns_per_tuple",
        per_tuple(t0.elapsed()),
        "ns",
    );
    put(
        "engine.distributed.wire_bytes_per_tuple",
        bytes.len() as f64 / size as f64,
        "count",
    );

    let rtt = pdsp_net::measure_loopback_rtt(ROUNDS as usize, bytes.len()).unwrap_or_default();
    put("net.frame_rtt_us", rtt.as_secs_f64() * 1e6, "us");
    let mut framed = Vec::with_capacity(bytes.len() + 4);
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        framed.clear();
        pdsp_net::write_frame(&mut framed, &bytes).expect("write to memory");
        black_box(pdsp_net::read_frame(&mut framed.as_slice()).expect("read from memory"));
    }
    let kib = ROUNDS as f64 * bytes.len() as f64 / 1024.0;
    put(
        "net.frame_ns_per_kib",
        t0.elapsed().as_nanos() as f64 / kib,
        "ns",
    );
}

/// ns per tuple and hop of the identity plan source → rebalance →
/// pass-through ×2 → sink on the threaded runtime.
fn hop_ns() -> f64 {
    const TUPLES: i64 = 300_000;
    let plan = PlanBuilder::new()
        .source(
            "src",
            pdsp_engine::Schema::of(&[pdsp_engine::FieldType::Int]),
            1,
        )
        .filter("pass", pdsp_engine::Predicate::True, 1.0)
        .set_parallelism(1, 2)
        .sink("sink")
        .build()
        .and_then(|p| PhysicalPlan::expand(&p))
        .expect("identity plan is valid");
    let tuples = (0..TUPLES)
        .map(|i| Tuple::at(vec![Value::Int(i)], i))
        .collect();
    let config = RunConfig {
        capture_limit: 0,
        ..RunConfig::default()
    };
    let source: Arc<dyn SourceFactory> = VecSource::new(tuples);
    let result = ThreadedRuntime::new(config)
        .run(&plan, &[source])
        .expect("identity plan runs");
    result.elapsed.as_nanos() as f64 / TUPLES as f64 / 2.0
}

/// Controller overhead, simulator cost, and simulated ÷ measured capacity.
fn control_metrics(setup: &Setup, capacity_tps: f64, put: &mut dyn FnMut(&str, f64, &str)) {
    let w = setup.workload;
    let authored = w.authored_plan(setup.seed);
    let cluster = Cluster::homogeneous_m510(1);
    let sim = SimConfig {
        event_rate: w.rate_tps as f64,
        duration_ms: 2_000,
        transport_batch: RunConfig::default().batch_size,
        ..SimConfig::default()
    };

    // What `Controller::run_threaded_plan` adds around the engine's own
    // elapsed time: gate, fusion, expansion, summary, store.
    let controller = Controller::new(cluster.clone(), sim.clone(), Arc::new(Store::in_memory()))
        .with_run_config(RunConfig {
            watermark_interval: 512,
            capture_limit: 0,
            ..RunConfig::default()
        });
    let feed = crate::pacing::Feed::drain(w.drain_tuples / 100);
    let sources = setup.sources(feed, &format!("{OUT_DIR}/ticks-controller"));
    let t0 = Instant::now();
    let overhead = controller
        .run_threaded_plan(w.name, &authored, &sources, w.event_rate)
        .map(|rec| {
            let engine_s = rec.summary.tuples_in as f64 / rec.summary.throughput_in.max(1e-9);
            ms(t0.elapsed()) - engine_s * 1e3
        });
    put("core.controller_overhead_ms", overhead.unwrap_or(0.0), "ms");

    let t0 = Instant::now();
    let _ = black_box(Simulator::new(cluster.clone(), sim.clone()).run(&authored));
    put("cluster.sim_run_ms", ms(t0.elapsed()), "ms");
    let knee = pdsp_bench_core::experiments::sustainable_rate(&cluster, &sim, &authored, 5_000.0)
        .unwrap_or(0.0);
    let simulated = knee * setup.pools.len() as f64;
    put(
        "cluster.sim_capacity_ratio",
        if capacity_tps > 0.0 {
            simulated / capacity_tps
        } else {
            0.0
        },
        "ratio",
    );
}

/// Shares of mean end-to-end latency on the critical path of a traced rep,
/// by segment kind (the label up to its colon), and the share of its traces
/// that are complete.
struct PathShares {
    by_kind: Vec<(String, f64)>,
    complete: f64,
}

impl PathShares {
    fn of(spans: &[Span]) -> Self {
        let trees = assemble(spans.to_vec());
        let mut by_kind: Vec<(String, f64)> = Vec::new();
        for segment in attribute(&trees).segments {
            let kind = segment.label.split(':').next().unwrap_or_default();
            match by_kind.iter_mut().find(|(k, _)| k == kind) {
                Some((_, share)) => *share += segment.share,
                None => by_kind.push((kind.to_string(), segment.share)),
            }
        }
        let complete = trees.iter().filter(|t| t.is_complete()).count();
        PathShares {
            by_kind,
            complete: complete as f64 / trees.len().max(1) as f64,
        }
    }

    fn share(&self, kind: &str) -> f64 {
        self.by_kind
            .iter()
            .find(|(k, _)| k == kind)
            .map_or(0.0, |(_, share)| *share)
    }

    fn describe(&self, rep: &str) {
        let parts: Vec<String> = self
            .by_kind
            .iter()
            .map(|(k, share)| format!("{k} {:.1}%", share * 100.0))
            .collect();
        eprintln!(
            "  critical path of the traced {rep} rep: {}",
            parts.join(", ")
        );
    }
}

/// Sum of one counter over the instances of a snapshot.
fn total(snaps: &[InstanceSnapshot], f: impl Fn(&InstanceSnapshot) -> u64) -> f64 {
    snaps.iter().map(f).sum::<u64>() as f64
}

/// Run the traced reps and the microbenches of one workload.
pub fn run(setup: &Setup) -> (Map, Tally, bool) {
    let metrics = RefCell::new(Map::new());
    let mut put = |name: &str, value: f64, unit: &str| {
        metrics
            .borrow_mut()
            .insert(name.to_string(), crate::metric(value, unit));
    };
    let tally = Cell::new(Tally::default());
    let correct = Cell::new(true);
    let rep = |kind: Kind, trace: bool| {
        let rep = setup.rep(kind, trace, &|offered| {
            let mut tally = tally.get();
            tally.count_hung(offered);
            crate::print_result(false, tally, &metrics.borrow());
        });
        if kind != Kind::Empty {
            crate::describe(kind, usize::from(trace), &rep);
            let mut counted = tally.get();
            counted.count(&rep);
            tally.set(counted);
        }
        correct.set(correct.get() && rep.outputs_correct());
        rep
    };

    // (c) The harness's own logs: untraced reps. Traced drain reps
    // alternate with them, so that the drift of a shared machine (±10 %
    // within a minute) cancels in `telemetry.traced_capacity_ratio`.
    let paced: Vec<(Kind, Rep)> = (0..PACED_REPS)
        .map(|_| (Kind::Paced, rep(Kind::Paced, false)))
        .collect();
    let (mut drains, mut traced_drains) = (Vec::new(), Vec::new());
    for i in 0..DRAIN_REPS {
        drains.push((Kind::Drain, rep(Kind::Drain, false)));
        if i == 0 {
            // Set-up, the paced reps and one saturated rep; read before
            // the first traced rep allocates span rings.
            put("peak_rss_mb", crate::sys::peak_rss_mib(), "MiB");
        }
        traced_drains.push((Kind::Drain, rep(Kind::Drain, true)));
    }
    let capacities: Vec<f64> = drains.iter().map(|(_, r)| r.capacity_tps()).collect();
    let capacity = median(&capacities);
    let cpu_us = median_of(&drains, Kind::Drain, Rep::cpu_us_per_tuple);
    put("capacity_tps", capacity, "1/s");
    put("cpu_us_per_tuple", cpu_us, "us");
    let of_paced = |f: &dyn Fn(&Rep) -> f64| median_of(&paced, Kind::Paced, f);
    put(
        "lat_p90_ms",
        quiet_latency_ms(&paced, |s| s.lat_p90_ns),
        "ms",
    );
    put("harness.quiet_slice_share", quiet_share(&paced), "ratio");
    put(
        "harness.gen_lag_p50_ms",
        of_paced(&|r| r.lag_ms(50.0)),
        "ms",
    );
    put(
        "harness.gen_lag_p90_ms",
        of_paced(&|r| r.lag_ms(90.0)),
        "ms",
    );
    put(
        "harness.gen_lag_p99_ms",
        of_paced(&|r| r.lag_ms(99.0)),
        "ms",
    );
    put(
        "harness.gen_lag_max_ms",
        of_paced(&|r| r.lag_ms(100.0)),
        "ms",
    );
    put(
        "harness.lat_p99_ms",
        of_paced(&|r| r.latency_ms(99.0)),
        "ms",
    );
    put(
        "harness.lat_p999_ms",
        of_paced(&|r| r.latency_ms(99.9)),
        "ms",
    );
    put(
        "harness.drain_lat_p50_ms",
        median_of(&drains, Kind::Drain, |r| r.latency_ms(50.0)),
        "ms",
    );
    put("harness.rep_spread_pct", range_pct(&capacities), "%");

    // (a) Microbenches, single-threaded, on the workload's own tuples.
    let w = setup.workload;
    let pool_tuples: usize = setup.pools.iter().map(|p| p.tuples.len()).sum();
    put(
        "apps.gen_ns_per_tuple",
        setup.generate.as_nanos() as f64 / pool_tuples.max(1) as f64,
        "ns",
    );
    let authored = w.authored_plan(setup.seed);
    put(
        "analyze.gate_ms",
        timed_ms(|| pdsp_analyze::analyze(w.name, &authored)),
        "ms",
    );
    put(
        "engine.schema_flow.infer_ms",
        timed_ms(|| SchemaFlow::infer(&authored)),
        "ms",
    );
    put(
        "engine.chaining.fuse_ms",
        timed_ms(|| pdsp_engine::chaining::fuse(&authored)),
        "ms",
    );
    put(
        "engine.physical.expand_ms",
        timed_ms(|| PhysicalPlan::expand(&setup.plan.logical)),
        "ms",
    );
    let n = (setup.feed(Kind::Drain).total / KERNEL_SHARE_OF_DRAIN).max(1);
    let pass = kernel_pass(setup, n);
    let logical = &setup.plan.logical;
    put(
        "engine.physical.route_ns_per_tuple",
        route_ns(&setup.plan, &pass),
        "ns",
    );
    put(
        "engine.operator.flatmap_ns_per_tuple",
        pass.ns_per_tuple(logical, |k| matches!(k, OpKind::FlatMapSplit { .. })),
        "ns",
    );
    put(
        "engine.operator.filter_ns_per_tuple",
        pass.ns_per_tuple(logical, |k| matches!(k, OpKind::Filter { .. })),
        "ns",
    );
    let kernel_us = pass.total_us_per_source_tuple();
    put("engine.operator.kernel_us_per_tuple", kernel_us, "us");
    put(
        "engine.operator.kernel_share",
        if cpu_us > 0.0 {
            kernel_us / cpu_us
        } else {
            0.0
        },
        "ratio",
    );
    put(
        "engine.udo.ctr_ns_per_tuple",
        pass.ns_per_tuple(logical, |k| matches!(k, OpKind::Udo { .. })),
        "ns",
    );
    window_metrics(logical, &pass, &mut put);
    state_metrics(setup, n, &mut put);
    put("engine.runtime.hop_ns_per_tuple", hop_ns(), "ns");
    put("channel.spsc_ns_per_msg", channel_ns(1), "ns");
    put("channel.mpsc2_ns_per_msg", channel_ns(2), "ns");
    wire_metrics(setup, &mut put);
    let hist = LogHistogram::new();
    let t0 = Instant::now();
    for i in 0..1_000_000u64 {
        hist.record(black_box(i * 37));
    }
    put(
        "telemetry.hist_record_ns",
        t0.elapsed().as_nanos() as f64 / 1e6,
        "ns",
    );
    control_metrics(setup, capacity, &mut put);

    // (b) The traced reps.
    let empty = rep(Kind::Empty, false);
    let deploy_ms = empty.result.as_ref().map_or(0.0, |r| ms(r.elapsed));
    let dist = w.backend == Backend::Distributed;
    put(
        "engine.runtime.spawn_join_ms",
        if dist { 0.0 } else { deploy_ms },
        "ms",
    );
    put(
        "engine.distributed.spawn_handshake_ms",
        if dist { deploy_ms } else { 0.0 },
        "ms",
    );

    let traced_drain = &traced_drains[DRAIN_REPS - 1].1;
    let snaps = &traced_drain.snapshots;
    // PR 9 measured network hops at 79 % of end-to-end latency in a
    // closed-loop 2-worker run; this line is its like-for-like.
    PathShares::of(&traced_drain.spans).describe("drain");
    let busy: Vec<f64> = snaps
        .iter()
        .filter(|s| s.busy_ns + s.idle_ns > 0)
        .map(InstanceSnapshot::busy_fraction)
        .collect();
    put(
        "engine.runtime.bottleneck_busy_frac",
        busy.iter().copied().fold(0.0, f64::max),
        "ratio",
    );
    put(
        "engine.runtime.busy_frac_min",
        busy.iter().copied().fold(f64::MAX, f64::min).min(1.0),
        "ratio",
    );
    let (ckpts, ckpt_ns) = (
        total(snaps, |s| s.checkpoints),
        total(snaps, |s| s.checkpoint_ns),
    );
    put(
        "engine.fault.ckpt_count",
        snaps.iter().map(|s| s.checkpoints).max().unwrap_or(0) as f64,
        "count",
    );
    put(
        "engine.fault.ckpt_ms_mean",
        ckpt_ns / ckpts.max(1.0) / 1e6,
        "ms",
    );
    put(
        "engine.fault.ckpt_busy_share",
        ckpt_ns / total(snaps, |s| s.busy_ns).max(1.0),
        "ratio",
    );
    put(
        "telemetry.traced_capacity_ratio",
        if capacity > 0.0 {
            median_of(&traced_drains, Kind::Drain, Rep::capacity_tps) / capacity
        } else {
            0.0
        },
        "ratio",
    );

    let traced_paced = rep(Kind::Paced, true);
    let (snaps, spans) = (&traced_paced.snapshots, &traced_paced.spans);
    put(
        "engine.batch.mean_batch_tuples",
        total(snaps, |s| s.batch_size.sum) / total(snaps, |s| s.batch_size.count).max(1.0),
        "count",
    );
    let flushes = total(snaps, |s| {
        s.flush_size + s.flush_linger + s.flush_marker + s.flush_eos
    })
    .max(1.0);
    put(
        "engine.batch.flush_size_share",
        total(snaps, |s| s.flush_size) / flushes,
        "ratio",
    );
    put(
        "engine.batch.flush_linger_share",
        total(snaps, |s| s.flush_linger) / flushes,
        "ratio",
    );
    put(
        "engine.batch.flush_marker_share",
        total(snaps, |s| s.flush_marker) / flushes,
        "ratio",
    );
    put(
        "engine.runtime.queue_depth_max",
        snaps.iter().map(|s| s.queue_depth_max).max().unwrap_or(0) as f64,
        "count",
    );
    let path = PathShares::of(spans);
    path.describe("paced");
    for (name, kind) in [
        ("engine.batch.span_share", "batch"),
        ("engine.runtime.queue_span_share", "queue"),
        ("engine.runtime.process_span_share", "op"),
        ("engine.runtime.deliver_span_share", "sink"),
        ("engine.distributed.serialize_span_share", "serialize"),
        ("net.span_share", "net"),
    ] {
        put(name, path.share(kind), "ratio");
    }
    put("telemetry.traces_complete_share", path.complete, "ratio");

    // Spans stayed in memory until here; leave them for chrome://tracing.
    let file = format!("{OUT_DIR}/trace-{}.json", w.name);
    if let Err(e) = std::fs::write(&file, chrome_trace_json(spans)) {
        eprintln!("cannot write {file}: {e}");
    }
    (metrics.into_inner(), tally.get(), correct.get())
}
