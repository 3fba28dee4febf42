//! The data plane's idle rule, end to end: no worker parks on its input
//! while it holds output — the source included, whose iterator may block
//! inside `next()` for as long as it likes.
//!
//! No wall-clock assertions: the source's iterator blocks on a gate the
//! test holds, a pass-through UDO reports every tuple it sees, and the test
//! waits for those reports *before* it opens the gate. The generous
//! `recv_timeout` is only how a broken rule fails instead of hanging.

use pdsp_engine::fault::{DeliveryMode, FaultInjector, FtConfig, FtRuntime, RestartPolicy};
use pdsp_engine::runtime::{RunConfig, SourceFactory, ThreadedRuntime};
use pdsp_engine::udo::{CostProfile, FnUdo};
use pdsp_engine::{EngineError, FieldType, PhysicalPlan, PlanBuilder, Schema, Tuple, Value};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Fewer than a batch (128) and fewer than a watermark interval (64), so
/// neither the size bound nor a marker can flush them.
const K: usize = 10;
const FAILURE_PATH: Duration = Duration::from_secs(30);

/// Yields `K` tuples, then blocks inside `next()` until the test drops the
/// gate's sender, then ends the stream.
struct GatedSource {
    gate: Mutex<Option<Receiver<()>>>,
}

impl GatedSource {
    fn new() -> (Arc<Self>, Sender<()>) {
        let (open, gate) = channel();
        let source = Arc::new(GatedSource {
            gate: Mutex::new(Some(gate)),
        });
        (source, open)
    }
}

impl SourceFactory for GatedSource {
    fn instance_iter(
        &self,
        _index: usize,
        _parallelism: usize,
    ) -> Box<dyn Iterator<Item = Tuple> + Send> {
        let gate = self.gate.lock().unwrap().take().expect("one attempt");
        let tuples = (0..K as i64).map(|i| Tuple::new(vec![Value::Int(i)]));
        Box::new(tuples.chain(std::iter::from_fn(move || {
            let _ = gate.recv();
            None
        })))
    }
}

/// source → pass-through UDO reporting each tuple on `seen` → sink.
fn plan(seen: Sender<Value>) -> PhysicalPlan {
    let seen = Arc::new(Mutex::new(seen));
    let report = FnUdo::new(
        "report",
        CostProfile::stateless(100.0, 1.0),
        |s: &Schema| s.clone(),
        move |t: Tuple, out: &mut Vec<Tuple>| {
            let _ = seen.lock().unwrap().send(t.values[0].clone());
            out.push(t);
        },
    );
    let plan = PlanBuilder::new()
        .source("src", Schema::of(&[FieldType::Int]), 1)
        .udo("report", report)
        .sink("sink")
        .build()
        .unwrap();
    PhysicalPlan::expand(&plan).unwrap()
}

/// No restarts: `GatedSource` serves one attempt.
fn ft_config() -> FtConfig {
    FtConfig {
        checkpoint_interval_tuples: 1_000,
        mode: DeliveryMode::ExactlyOnce,
        restart: RestartPolicy {
            max_restarts: 0,
            backoff: Duration::from_millis(1),
        },
        run: RunConfig::default(),
    }
}

/// Runs `run` (which returns the number of tuples delivered at the sink)
/// on a thread and checks that the UDO sees all `K` tuples while the
/// source's iterator is still blocked behind the gate.
fn partial_batch_arrives_while_source_blocks(
    run: impl FnOnce(&PhysicalPlan, Arc<GatedSource>) -> u64 + Send,
) {
    let (seen_tx, seen) = channel();
    let phys = plan(seen_tx);
    let (source, open) = GatedSource::new();
    std::thread::scope(|s| {
        let phys = &phys;
        let runner = s.spawn(move || run(phys, source));
        for i in 0..K as i64 {
            let got = seen
                .recv_timeout(FAILURE_PATH)
                .expect("tuple forwarded while the source's iterator is blocked");
            assert_eq!(got, Value::Int(i));
        }
        drop(open);
        assert_eq!(runner.join().unwrap(), K as u64);
    });
}

#[test]
fn threaded_source_flushes_before_blocking_in_its_iterator() {
    assert_eq!(RunConfig::default().batch_size, 128);
    partial_batch_arrives_while_source_blocks(|phys, source| {
        ThreadedRuntime::new(RunConfig::default())
            .run(phys, &[source])
            .unwrap()
            .tuples_out
    });
}

#[test]
fn ft_source_flushes_before_blocking_in_its_iterator() {
    partial_batch_arrives_while_source_blocks(|phys, source| {
        FtRuntime::new(ft_config())
            .run(phys, &[source], None)
            .unwrap()
            .result
            .tuples_out
    });
}

#[test]
fn failed_source_worker_returns_without_joining_its_sleeping_reader() {
    let (seen_tx, _seen) = channel();
    let phys = plan(seen_tx);
    let (source, open) = GatedSource::new();
    // The source worker fails on its 6th tuple; by then its reader has
    // handed over all `K` and sleeps behind the gate, which stays shut
    // until the run has returned.
    let injector = FaultInjector::after_tuples(0, 0, 5);
    let (done_tx, done) = channel();
    std::thread::scope(|s| {
        let (phys, injector) = (&phys, injector.clone());
        s.spawn(move || {
            let res = FtRuntime::new(ft_config()).run(phys, &[source], Some(injector));
            let _ = done_tx.send(res.map(|r| r.result.tuples_out));
        });
        let res = done
            .recv_timeout(FAILURE_PATH)
            .expect("run returns while the reader is asleep in next()");
        assert!(
            matches!(
                res,
                Err(EngineError::FaultInjected {
                    node: 0,
                    instance: 0
                })
            ),
            "got {res:?}"
        );
        drop(open);
    });
    assert!(injector.fired());
}
