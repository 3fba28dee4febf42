//! End-to-end telemetry acceptance tests: the threaded runtime and the
//! discrete-event simulator must emit the *same* timeline schema for the
//! same plan, timelines must be queryable from the store by experiment id,
//! and a run dying mid-flight must leave a flight-recorder trace that
//! names the injected fault.

use pdsp_bench::apps::{app_by_acronym, AppConfig};
use pdsp_bench::cluster::{Cluster, SimConfig};
use pdsp_bench::core::controller::Controller;
use pdsp_bench::core::report::telemetry_report;
use pdsp_bench::engine::fault::{DeliveryMode, FaultInjector, FtConfig, FtRuntime, RestartPolicy};
use pdsp_bench::engine::runtime::VecSource;
use pdsp_bench::engine::value::{FieldType, Schema, Tuple, Value};
use pdsp_bench::engine::{telemetry_for_plan, PhysicalPlan, PlanBuilder};
use pdsp_bench::store::Store;
use pdsp_bench::telemetry::{FlightEventKind, TelemetryConfig, TelemetryTimeline};
use std::sync::Arc;
use std::time::Duration;

fn controller(store: Arc<Store>) -> Controller {
    Controller::new(
        Cluster::homogeneous_m510(4),
        SimConfig {
            event_rate: 20_000.0,
            duration_ms: 1_000,
            batches_per_second: 50.0,
            ..SimConfig::default()
        },
        store,
    )
    .with_telemetry(TelemetryConfig {
        interval_ms: 20,
        ..TelemetryConfig::default()
    })
}

/// The field set a timeline exposes per instance, via the JSON the store
/// persists (schema as actually serialized, not as typed).
fn instance_keys(timeline: &TelemetryTimeline) -> Vec<String> {
    let value = serde_json::to_value(&timeline.final_sample().expect("non-empty").instances[0])
        .expect("serializable");
    let mut keys: Vec<String> = value
        .as_object()
        .expect("object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    keys.sort();
    keys
}

/// Acceptance: one plan, both backends, one shared schema, both stored and
/// queryable by experiment id.
#[test]
fn both_backends_emit_the_same_timeline_schema() {
    let store = Arc::new(Store::in_memory());
    let c = controller(Arc::clone(&store));
    let app = app_by_acronym("WC").unwrap();
    let cfg = AppConfig {
        total_tuples: 2_000,
        ..AppConfig::default()
    };
    let built = app.build(&cfg);
    let plan = built.plan.with_uniform_parallelism(2);

    let threaded = c.run_threaded(app.as_ref(), &cfg, 2).unwrap();
    let simulated = c.run_simulated("WC", &plan).unwrap();

    let tid = threaded.experiment_id.expect("threaded run instrumented");
    let sid = simulated.experiment_id.expect("simulated run instrumented");
    assert_ne!(tid, sid, "each run gets a fresh experiment id");

    let t = c.telemetry_for(&tid).expect("threaded timeline stored");
    let s = c.telemetry_for(&sid).expect("simulated timeline stored");
    assert_eq!(t.backend, "threaded");
    assert_eq!(s.backend, "simulated");
    for timeline in [&t, &s] {
        assert!(!timeline.samples.is_empty(), "timelines are never empty");
        assert!(
            timeline
                .final_sample()
                .unwrap()
                .instances
                .iter()
                .any(|i| i.tuples_out > 0),
            "{} backend recorded work",
            timeline.backend
        );
        assert!(timeline.final_latency().count > 0);
        let rendered = telemetry_report(timeline);
        assert!(rendered.contains(&timeline.experiment_id));
        assert!(rendered.contains("end-to-end latency"));
    }
    assert_eq!(
        instance_keys(&t),
        instance_keys(&s),
        "both backends serialize the identical per-instance field set"
    );

    let ids = c.telemetry_experiments();
    assert!(ids.contains(&tid) && ids.contains(&sid));
}

/// Acceptance: a run that dies mid-flight (restart budget exhausted) leaves
/// a flight-recorder trace containing the injected fault event.
#[test]
fn dying_run_dumps_a_trace_naming_the_fault() {
    let plan = PlanBuilder::new()
        .source("src", Schema::of(&[FieldType::Int, FieldType::Int]), 1)
        .filter("f", pdsp_bench::engine::expr::Predicate::True, 1.0)
        .sink("sink")
        .build()
        .unwrap();
    let phys = PhysicalPlan::expand(&plan).unwrap();
    let tuples: Vec<Tuple> = (0..2_000)
        .map(|i| {
            let mut t = Tuple::new(vec![Value::Int(i % 4), Value::Int(i)]);
            t.event_time = i;
            t
        })
        .collect();
    let tel = telemetry_for_plan(
        "dying",
        &phys,
        TelemetryConfig {
            dump_on_error: false, // assert on the recorder, keep stderr quiet
            ..TelemetryConfig::default()
        },
    );
    let ft = FtRuntime::new(FtConfig {
        checkpoint_interval_tuples: 128,
        mode: DeliveryMode::AtLeastOnce,
        restart: RestartPolicy {
            max_restarts: 0, // die on the first fault
            backoff: Duration::from_millis(1),
        },
        run: Default::default(),
    });
    let err = ft
        .run_with_telemetry(
            &phys,
            &[VecSource::new(tuples)],
            Some(FaultInjector::after_tuples(1, 0, 500)),
            Some(&tel),
        )
        .expect_err("restart budget 0 surfaces the fault");
    assert!(err.to_string().contains("fault"), "root cause: {err}");

    let events = tel.recorder.events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == FlightEventKind::FaultInjected),
        "trace contains the injected fault: {events:?}"
    );
    let dump = tel.recorder.dump("test");
    assert!(
        dump.contains("fault_injected"),
        "dump names the fault:\n{dump}"
    );
    assert!(dump.contains("run_started"), "dump covers the run start");
}

/// Telemetry survives a store round-trip through disk, so `pdsp telemetry`
/// can inspect experiments from a different process.
#[test]
fn timelines_round_trip_through_a_persistent_store() {
    let dir = std::env::temp_dir().join(format!("pdsp-tel-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let id = {
        let store = Arc::new(Store::open(&dir).unwrap());
        let c = controller(Arc::clone(&store));
        let record = c
            .run_threaded(
                app_by_acronym("SD").unwrap().as_ref(),
                &AppConfig {
                    total_tuples: 1_000,
                    ..AppConfig::default()
                },
                2,
            )
            .unwrap();
        store.flush().unwrap();
        record.experiment_id.unwrap()
    };
    let reopened = Arc::new(Store::open(&dir).unwrap());
    let c = Controller::new(Cluster::homogeneous_m510(4), SimConfig::default(), reopened);
    let timeline = c
        .telemetry_for(&id)
        .expect("timeline readable after reopen");
    assert_eq!(timeline.app, "SD");
    assert!(!timeline.samples.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
