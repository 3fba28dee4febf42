//! The demo scenario of the distributed backend, end to end through the
//! public controller API: a 2-worker WordCount where one worker process is
//! killed with a real SIGKILL mid-run. The coordinator must detect the
//! death by heartbeat silence (there is no in-band failure signal from a
//! SIGKILLed process), restore from a network checkpoint, replay, and
//! deliver sink counts identical to an unkilled threaded run.

use pdsp_bench::apps::{app_by_name, AppConfig};
use pdsp_bench::cluster::{Cluster, SimConfig};
use pdsp_bench::core::controller::Controller;
use pdsp_bench::engine::distributed::{DistributedConfig, KillSpec};
use pdsp_bench::engine::fault::{DeliveryMode, RestartPolicy};
use pdsp_bench::store::Store;
use pdsp_bench::telemetry::AlarmKind;
use std::sync::Arc;
use std::time::Duration;

fn controller() -> Controller {
    Controller::new(
        Cluster::homogeneous_m510(4),
        SimConfig::default(),
        Arc::new(Store::in_memory()),
    )
}

fn dist_config(kill: Option<KillSpec>) -> DistributedConfig {
    let mut dist = DistributedConfig {
        workers: 2,
        // The coordinator spawns this very test binary's `pdsp` sibling;
        // CARGO_BIN_EXE_* points at the freshly built one.
        worker_bin: vec![env!("CARGO_BIN_EXE_pdsp").to_string(), "worker".to_string()],
        kill,
        ..DistributedConfig::default()
    };
    dist.ft.mode = DeliveryMode::ExactlyOnce;
    dist.ft.checkpoint_interval_tuples = 200;
    dist.ft.restart = RestartPolicy {
        max_restarts: 3,
        backoff: Duration::from_millis(5),
    };
    dist
}

#[test]
fn two_worker_word_count_survives_a_sigkill_with_identical_counts() {
    let app = app_by_name("word_count").expect("WC resolves by full name");
    let config = AppConfig {
        event_rate: 150_000.0,
        total_tuples: 6_000,
        seed: 11,
    };

    let ctl = controller();
    let baseline = ctl
        .run_threaded(app.as_ref(), &config, 4)
        .expect("threaded baseline");

    let kill = Some(KillSpec {
        worker: 1,
        after_ms: 25,
    });
    let (record, run) = ctl
        .run_distributed(app.as_ref(), &config, 4, dist_config(kill))
        .expect("distributed run recovers");

    let recovery = &run.ft.recovery;
    assert!(
        recovery.attempts >= 2,
        "the SIGKILL must actually cost an attempt (got {})",
        recovery.attempts
    );
    assert_eq!(
        recovery.duplicate_tuples, 0,
        "exactly-once delivery admits no duplicates"
    );
    assert!(
        run.alarms
            .iter()
            .any(|a| a.kind == AlarmKind::HeartbeatGap && a.instance == 1),
        "the killed worker must be named by a heartbeat-gap alarm, got {:?}",
        run.alarms
    );

    assert_eq!(record.backend, "distributed");
    assert_eq!(record.cluster, "local-processes");
    assert_eq!(record.summary.tuples_in, baseline.summary.tuples_in);
    assert_eq!(
        record.summary.tuples_out, baseline.summary.tuples_out,
        "sink counts must match the unkilled threaded run exactly"
    );
}

#[test]
fn healthy_distributed_run_matches_threaded_and_stays_quiet() {
    let app = app_by_name("WC").expect("WC resolves by acronym");
    let config = AppConfig {
        event_rate: 150_000.0,
        total_tuples: 3_000,
        seed: 5,
    };

    let ctl = controller();
    let baseline = ctl
        .run_threaded(app.as_ref(), &config, 4)
        .expect("threaded baseline");
    let (record, run) = ctl
        .run_distributed(app.as_ref(), &config, 4, dist_config(None))
        .expect("distributed run");

    assert_eq!(run.ft.recovery.attempts, 1, "no failure, no restart");
    assert!(
        run.alarms.is_empty(),
        "a healthy run must not raise alarms, got {:?}",
        run.alarms
    );
    assert_eq!(record.summary.tuples_in, baseline.summary.tuples_in);
    assert_eq!(record.summary.tuples_out, baseline.summary.tuples_out);
    assert!(
        !run.snapshots.is_empty(),
        "coordinator aggregates per-worker telemetry snapshots"
    );

    // Both runs landed in the store.
    let runs = ctl.store().with("runs", |c| c.len());
    assert_eq!(runs, 2);
}
