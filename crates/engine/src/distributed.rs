//! Process-per-worker distributed runtime.
//!
//! A [`DistributedRuntime`] coordinator spawns one OS process per worker
//! (the `pdsp-worker` binary, or `pdsp worker` from the CLI), places the
//! physical instances of a plan onto workers (`instance id % workers`), and
//! supervises the run over a length-prefixed TCP control protocol
//! (`pdsp-net` framing, JSON messages). Cross-worker dataflow edges carry
//! the engine's existing [`Message`] frames in the binary layout of
//! [`crate::wire`], over one TCP connection per remote *target instance*;
//! in-worker edges stay in-process crossbeam channels. Both kinds hide
//! behind the same `Transport` abstraction the threaded runtime uses, so the
//! per-instance worker loops in `crate::exec` are byte-for-byte shared
//! between the local and distributed engines.
//!
//! ## Why a connection per target instance
//!
//! A data connection is read by one thread that blocks while the inbox it
//! feeds is full. A connection shared by several target instances would
//! make a frame for an idle instance wait behind a frame for a full one,
//! and on a plan that sends both ways between two workers (`count0 → sink1`
//! behind `src0 → count1`, and the mirror image on the other side) the
//! waits close into a cycle. With one connection per target instance a
//! reader only ever waits for the instance its frames are for, so every
//! chain of waits follows the dataflow downstream and ends at a sink.
//!
//! ## Why spec strings, not serialized plans
//!
//! Plans can carry arbitrary UDO closures, which do not cross process
//! boundaries. The deploy message therefore ships a *plan specification*
//! string, and every process resolves it independently through a
//! [`SpecResolver`] — both sides are guaranteed the same topology because
//! resolution is a pure function of the spec (see [`crate::testplan`]).
//!
//! ## Failure detection and recovery
//!
//! Robustness is the coordinator's job:
//!
//! * **Heartbeat leases** — every worker heartbeats on its control
//!   connection; the coordinator tracks a [`LeaseTable`] and declares a
//!   worker dead when its lease lapses. A SIGKILLed process cannot renew,
//!   so real process death is detected with no in-band signal.
//! * **Checkpoints over the wire** — Chandy–Lamport barriers flow through
//!   the TCP mesh exactly as they flow through local channels; checkpoint
//!   parts and sink delivery deltas stream to the coordinator as they are
//!   made, so they survive a later SIGKILL of the worker that made them.
//! * **Supervised restart** — an attempt is one process fleet: on failure
//!   the coordinator kills the remaining worker processes, and the
//!   supervisor [`crate::fault::FtRuntime`] uses too restores the newest
//!   complete checkpoint, backs off and has a fresh fleet replay sources
//!   from their recorded offsets, with the same at-least-once /
//!   exactly-once replay accounting.
//! * **Graceful degradation** — past the restart budget the failed
//!   attempt's root cause (typically [`EngineError::WorkerLost`]) surfaces
//!   and the coordinator's flight recorder is dumped for post-mortem.
//!
//! Connection establishment always goes through
//! [`pdsp_net::connect_with_backoff`], so a flapping endpoint sees bounded,
//! seed-deterministic decorrelated-jitter delays; frame reads/writes go
//! through `read_exact`/`write_all`, so half-open peers and partial writes
//! can never tear a frame.
//!
//! ## What a SIGKILL loses
//!
//! Only the delivery deltas its worker had not yet forwarded, and with them
//! every later part of their sinks, so those deliveries came after any
//! checkpoint the coordinator can restore and replay delivers them again.
//! The ledger never rolls a sink back past its log; only the duplicate /
//! rolled-back accounting falls back on a heartbeat estimate.

use crate::error::{EngineError, Result};
use crate::exec::{
    decode_position, input_channels, join_instances, spawn_instances, Attempt, ExecSettings,
    InstanceStats, Report, Reporters, RunClock,
};
use crate::fault::{supervise, DeliveryMode, FtConfig, FtRunResult};
use crate::message::Message;
use crate::physical::PhysicalPlan;
use crate::runtime::{Envelope, RunConfig};
use crate::testplan::{self, PlanAndSources};
use crate::transport::SenderTable;
use crate::wire::{decode_frame, encode_frame};
use crossbeam_channel::{bounded, unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use pdsp_net::{
    connect_with_backoff, encode_json, epoch_ns_now, read_frame, recv_json, send_json, wire_now_ns,
    write_frame, write_prefixed, BackoffPolicy, LeaseTable, FRAME_PREFIX_BYTES,
};
use pdsp_telemetry::{
    Alarm, AlarmConfig, AlarmKind, AlarmMonitor, FlightEventKind, InstanceSnapshot,
    MetricsRegistry, RunTelemetry, Span, SpanKind, TelemetryConfig, TraceBook,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::io::{BufReader, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Grace period for a spawned fleet to dial in and acknowledge deployment.
const HANDSHAKE_GRACE: Duration = Duration::from_secs(20);

/// Resolves a plan specification string into a physical plan plus source
/// factories. The coordinator and every worker process run the same
/// resolver over the same spec; it must be a pure function of its input.
/// [`testplan::resolve`] is the default vocabulary; richer drivers (the
/// CLI's `app:` specs) wrap it and fall back on
/// [`EngineError::InvalidConfig`].
pub type SpecResolver = Arc<dyn Fn(&str) -> Result<PlanAndSources> + Send + Sync>;

/// The default resolver: the seeded [`crate::testplan`] corpus.
pub fn default_resolver() -> SpecResolver {
    Arc::new(testplan::resolve)
}

/// Chaos knob: SIGKILL one worker process mid-run (first attempt only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KillSpec {
    /// Worker id to kill.
    pub worker: usize,
    /// Kill this many milliseconds after the attempt starts.
    pub after_ms: u64,
}

/// Configuration of the distributed runtime.
#[derive(Debug, Clone)]
pub struct DistributedConfig {
    /// Worker process count (instances are placed `id % workers`).
    pub workers: usize,
    /// Checkpointing / delivery-mode / restart-budget configuration shared
    /// with the in-process fault-tolerant runtime.
    pub ft: FtConfig,
    /// Worker heartbeat period in milliseconds.
    pub heartbeat_ms: u64,
    /// Coordinator-side lease timeout: a worker silent this long is dead.
    pub lease_timeout_ms: u64,
    /// Optional chaos: SIGKILL a worker mid-run on the first attempt.
    pub kill: Option<KillSpec>,
    /// Optional chaos: workers sever their outbound data connections this
    /// many ms into the first attempt (half-open / connection-drop hazard).
    pub drop_data_after_ms: Option<u64>,
    /// Worker process argv prefix; the coordinator appends
    /// `--coordinator <addr> --id <n>`. E.g. `["/path/to/pdsp-worker"]` or
    /// `["/path/to/pdsp", "worker"]`.
    pub worker_bin: Vec<String>,
    /// Distributed-tracing head-sampling rate shipped to every worker:
    /// sources trace every Nth tuple, workers attach their recorded spans
    /// to `Done`. `0` (the default) disables tracing.
    pub trace_every: u64,
}

impl Default for DistributedConfig {
    fn default() -> Self {
        DistributedConfig {
            workers: 2,
            ft: FtConfig::default(),
            heartbeat_ms: 20,
            lease_timeout_ms: 500,
            kill: None,
            drop_data_after_ms: None,
            worker_bin: Vec::new(),
            trace_every: 0,
        }
    }
}

impl DistributedConfig {
    /// Validate the combined configuration.
    pub fn validate(&self) -> Result<()> {
        self.ft.validate()?;
        if self.workers == 0 {
            return Err(EngineError::InvalidConfig(
                "distributed runtime needs at least 1 worker".into(),
            ));
        }
        if self.worker_bin.is_empty() {
            return Err(EngineError::InvalidConfig(
                "worker_bin is empty: the coordinator cannot spawn worker processes".into(),
            ));
        }
        if self.heartbeat_ms == 0 {
            return Err(EngineError::InvalidConfig(
                "heartbeat_ms must be at least 1".into(),
            ));
        }
        if self.lease_timeout_ms <= self.heartbeat_ms {
            return Err(EngineError::InvalidConfig(format!(
                "lease_timeout_ms ({}) must exceed heartbeat_ms ({}): a lease shorter than one \
                 heartbeat expires spuriously",
                self.lease_timeout_ms, self.heartbeat_ms
            )));
        }
        Ok(())
    }
}

fn io_err(what: &str, e: std::io::Error) -> EngineError {
    EngineError::Transport(format!("{what}: {e}"))
}

// ---------------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------------

/// Everything a worker needs to run its slice of one attempt.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct DeploySpec {
    spec: String,
    attempt: usize,
    workers: usize,
    /// `assignment[instance id] == worker id`.
    assignment: Vec<usize>,
    /// Data-plane listener address of every worker, indexed by worker id.
    peers: Vec<String>,
    /// Restore payloads by instance id (newest complete checkpoint).
    restore: Vec<(usize, Vec<u8>)>,
    run: RunConfig,
    mode: DeliveryMode,
    ckpt_interval: u64,
    /// UNIX-epoch origin (ns) for cross-process latency stamps.
    epoch_ns: u64,
    heartbeat_ms: u64,
    drop_data_after_ms: Option<u64>,
    /// Head-sampling rate for distributed tracing (`0` = off).
    #[serde(default)]
    trace_every: u64,
}

/// One decoded data-plane frame ([`crate::wire`]): an [`Envelope`] plus its
/// target instance. The receiving worker routes purely on `instance`, so
/// data connections need no handshake.
#[derive(Debug)]
struct WireEnvelope {
    instance: usize,
    channel: usize,
    msg: Message,
}

/// Worker → coordinator control messages.
#[derive(Debug, Serialize, Deserialize)]
enum ToCoord {
    /// First message on a control connection: who I am, where my data
    /// listener is.
    Hello { worker: usize, data_addr: String },
    /// Deployment resolved, mesh built, data listener armed.
    Ready { worker: usize },
    /// A checkpoint part or sink delta, streamed in order as it is made so
    /// it survives a later SIGKILL of this worker.
    Report { worker: usize, report: Report },
    /// Periodic liveness + progress: source offsets, per-attempt sink
    /// deliveries, and telemetry snapshots for the instances placed here.
    Heartbeat {
        worker: usize,
        emitted: Vec<(usize, u64)>,
        sinks: Vec<(usize, u64)>,
        snapshots: Vec<(usize, InstanceSnapshot)>,
    },
    /// All local instances finished cleanly.
    Done {
        worker: usize,
        stats: Vec<InstanceStats>,
        emitted: Vec<(usize, u64)>,
        /// Spans recorded on this worker (empty when tracing is off),
        /// drained after every local instance and wire thread joined.
        spans: Vec<Span>,
    },
    /// A local instance failed.
    Failed { worker: usize, error: String },
}

/// Coordinator → worker control messages. `Deploy` is boxed: it carries the
/// whole restore payload and would otherwise dwarf the `Start` variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum ToWorker {
    Deploy(Box<DeploySpec>),
    Start,
}

/// `assignment[instance id] == worker id`: instances round-robin over
/// `workers` by id, except that a chain member goes wherever its chain's
/// head goes, since the head's thread runs it.
fn assign(plan: &PhysicalPlan, workers: usize) -> Vec<usize> {
    plan.chain_heads()
        .into_iter()
        .map(|h| h % workers)
        .collect()
}

/// The instances on other workers that `worker`'s instances send to, each
/// with the worker hosting it: `worker` dials one data connection per entry,
/// and every host accepts exactly the entries that name it.
fn remote_targets(plan: &PhysicalPlan, assignment: &[usize], worker: usize) -> Vec<(usize, usize)> {
    let mut targets = BTreeSet::new();
    for inst in plan.instances.iter().filter(|i| assignment[i.id] == worker) {
        for route in &plan.out_routes[inst.id] {
            for t in route.targets.iter() {
                let host = assignment[t.instance];
                if host != worker {
                    targets.insert((t.instance, host));
                }
            }
        }
    }
    targets.into_iter().collect()
}

/// Data connections the other workers will dial to `me`.
fn inbound_connections(
    plan: &PhysicalPlan,
    assignment: &[usize],
    workers: usize,
    me: usize,
) -> usize {
    (0..workers)
        .filter(|&w| w != me)
        .flat_map(|w| remote_targets(plan, assignment, w))
        .filter(|&(_, host)| host == me)
        .count()
}

/// Dial one connection per remote target instance and give each a proxy
/// channel in `endpoints` plus a forwarder thread that owns the stream:
/// it encodes every envelope into a buffer it reuses and writes the frame
/// with one `write_all`. Every dial goes through the shared
/// decorrelated-jitter backoff. Returns a clone of every stream (for the
/// connection-drop chaos knob) and the forwarder handles.
fn dial_remote_targets(
    targets: Vec<(usize, usize)>,
    endpoints: &mut [Option<Sender<Envelope>>],
    peers: &[String],
    frame_cap: usize,
    epoch_ns: u64,
) -> Result<(Vec<TcpStream>, Vec<JoinHandle<()>>)> {
    let (mut streams, mut forwarders) = (Vec::new(), Vec::new());
    for (inst, w) in targets {
        let addr = peers.get(w).ok_or_else(|| {
            EngineError::Transport(format!("deploy lists no data address for worker {w}"))
        })?;
        let mut stream = connect_with_backoff(addr, &BackoffPolicy::default(), CONNECT_ATTEMPTS)
            .map_err(|e| io_err(&format!("dial worker {w} at {addr}"), e))?;
        streams.push(
            stream
                .try_clone()
                .map_err(|e| io_err("clone data stream", e))?,
        );
        let (tx, rx) = bounded::<Envelope>(frame_cap);
        endpoints[inst] = Some(tx);
        forwarders.push(std::thread::spawn(move || {
            let mut frame = Vec::new();
            for mut env in rx.iter() {
                // Stamp the wire-entry time on traced frames so the
                // receiving acceptor can split the hop into serialize
                // (flush → here) and network (here → arrival) spans.
                if let Message::Batch(b) = &mut env.msg {
                    if let Some(ft) = &mut b.trace {
                        ft.wire_ns = wire_now_ns(epoch_ns);
                    }
                }
                frame.clear();
                frame.extend_from_slice(&[0; FRAME_PREFIX_BYTES]);
                encode_frame(&mut frame, inst, env.channel, &env.msg);
                if write_prefixed(&mut stream, &mut frame).is_err() {
                    // Peer gone (or chaos severed the stream): stop
                    // forwarding; dropping `rx` makes upstream sends fail,
                    // which is how the hazard propagates into the attempt.
                    return;
                }
            }
        }));
    }
    Ok((streams, forwarders))
}

/// Shared state of the wire-level schema check (`RunConfig::check_schemas`):
/// the per-(instance, channel) expected schemas plus violation accounting
/// updated lock-free by the acceptor's reader threads.
struct WireSchemaCheck {
    /// instance id -> channel slot -> inferred schema of the feeding edge.
    channel_schemas: Vec<Vec<crate::value::Schema>>,
    /// Mismatched tuples observed across all inbound connections.
    violations: AtomicU64,
    /// First mismatch, rendered for the failure report.
    first: Mutex<Option<String>>,
}

impl WireSchemaCheck {
    /// Build the per-channel schema table from a physical plan's persisted
    /// edge schemas.
    fn from_plan(plan: &PhysicalPlan) -> Arc<Self> {
        let channel_schemas = plan
            .channel_edges
            .iter()
            .map(|edges| {
                edges
                    .iter()
                    .map(|&e| plan.edge_schemas[e].clone())
                    .collect()
            })
            .collect();
        Arc::new(WireSchemaCheck {
            channel_schemas,
            violations: AtomicU64::new(0),
            first: Mutex::new(None),
        })
    }

    /// Validate every data tuple in an inbound frame against the schema of
    /// the channel it arrived on. Markers (watermarks, barriers, EOS) carry
    /// no tuples and pass through untouched.
    fn observe(&self, we: &WireEnvelope) {
        let Some(schema) = self
            .channel_schemas
            .get(we.instance)
            .and_then(|chs| chs.get(we.channel))
        else {
            return;
        };
        let Message::Batch(batch) = &we.msg else {
            return;
        };
        for t in &batch.tuples {
            if !schema.matches(t) {
                let n = self.violations.fetch_add(1, Ordering::Relaxed);
                if n == 0 {
                    let mut first = self.first.lock();
                    if first.is_none() {
                        *first = Some(format!(
                            "instance {} channel {}: tuple {:?} does not match edge schema {:?}",
                            we.instance, we.channel, t.values, schema
                        ));
                    }
                }
            }
        }
    }

    /// Failure to report, if any tuple mismatched.
    fn to_error(&self, worker: usize) -> Option<EngineError> {
        let violations = self.violations.load(Ordering::SeqCst);
        if violations == 0 {
            return None;
        }
        Some(EngineError::WireSchemaViolation {
            worker,
            violations,
            first: self.first.lock().clone().unwrap_or_default(),
        })
    }
}

/// Read and decode the next data frame; `Ok(None)` on a clean EOF.
fn recv_envelope<R: Read>(r: &mut R) -> std::io::Result<Option<WireEnvelope>> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let (instance, channel, msg) = decode_frame(&payload)?;
    Ok(Some(WireEnvelope {
        instance,
        channel,
        msg,
    }))
}

/// Accept exactly `expected` inbound data connections (see
/// [`inbound_connections`]), then release the master sender table. Each
/// connection gets a reader thread that decodes frames and routes them into
/// local input queues; the reader drops its sender clones on EOF or error,
/// so a killed peer tears its edges down and local instances observe `Lost`
/// instead of hanging. With `check` present every inbound
/// data frame is additionally validated against the inferred schema of the
/// channel it crossed (`RunConfig::check_schemas`).
fn spawn_acceptor(
    listener: TcpListener,
    local_senders: Vec<Option<Sender<Envelope>>>,
    expected: usize,
    check: Option<Arc<WireSchemaCheck>>,
    trace: Option<Arc<TraceBook>>,
    epoch_ns: u64,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut conns = Vec::with_capacity(expected);
        for _ in 0..expected {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            stream.set_nodelay(true).ok();
            let senders = local_senders.clone();
            let check = check.clone();
            // Each reader thread gets its own span ring (single-writer).
            let tracer = trace.as_ref().map(|b| (Arc::clone(b), b.ring()));
            conns.push(std::thread::spawn(move || {
                let mut stream = BufReader::new(stream);
                loop {
                    match recv_envelope(&mut stream) {
                        Ok(Some(mut we)) => {
                            if let Some(c) = &check {
                                c.observe(&we);
                            }
                            if let Some((book, ring)) = &tracer {
                                record_wire_spans(book, ring, &mut we, epoch_ns);
                            }
                            let Some(Some(tx)) = senders.get(we.instance) else {
                                return;
                            };
                            if tx
                                .send(Envelope {
                                    channel: we.channel,
                                    msg: we.msg,
                                })
                                .is_err()
                            {
                                return;
                            }
                        }
                        // Clean EOF after the peer's last frame, a peer that
                        // died mid-frame, or bytes that are not a frame —
                        // either way this edge is done.
                        Ok(None) | Err(_) => return,
                    }
                }
            }));
        }
        drop(local_senders);
        for c in conns {
            let _ = c.join();
        }
    })
}

/// Split a traced inbound frame's sender-flush → arrival interval into a
/// `Serialize` span (flush → wire write on the sending worker) and a `Net`
/// span (wire write → arrival here), then re-stamp the frame so downstream
/// local spans chain off the network span with a local arrival time — the
/// receiving instance's queue span must not re-count the wire crossing.
fn record_wire_spans(
    book: &TraceBook,
    ring: &Arc<pdsp_telemetry::SpanRing>,
    we: &mut WireEnvelope,
    epoch_ns: u64,
) {
    let Message::Batch(b) = &mut we.msg else {
        return;
    };
    let Some(ft) = &mut b.trace else {
        return;
    };
    let arrived = wire_now_ns(epoch_ns);
    let wire = ft.wire_ns.max(ft.sent_ns);
    let ser_id = book.next_span_id();
    ring.push(Span {
        trace: ft.ctx.trace,
        id: ser_id,
        parent: Some(ft.ctx.parent),
        kind: SpanKind::Serialize,
        op: "wire".to_string(),
        site: book.site().to_string(),
        instance: we.instance,
        start_ns: ft.sent_ns,
        end_ns: wire,
    });
    let net_id = book.next_span_id();
    ring.push(Span {
        trace: ft.ctx.trace,
        id: net_id,
        parent: Some(ser_id),
        kind: SpanKind::Net,
        op: "wire".to_string(),
        site: book.site().to_string(),
        instance: we.instance,
        start_ns: wire,
        end_ns: arrived.max(wire),
    });
    ft.ctx.parent = net_id;
    ft.sent_ns = arrived.max(wire);
    ft.wire_ns = 0;
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

/// Entry point of a worker process (`pdsp-worker`, or `pdsp worker`).
///
/// Meant to run in a dedicated process: on a failed attempt it reports
/// `Failed` and returns without waiting for auxiliary threads, relying on
/// process exit (and ultimately the coordinator's kill-all) for teardown.
pub struct WorkerMain {
    resolver: SpecResolver,
}

/// Dial-attempt budget for every connection a worker opens; the attempts
/// are spaced by the default decorrelated-jitter [`BackoffPolicy`].
const CONNECT_ATTEMPTS: usize = 200;

impl Default for WorkerMain {
    fn default() -> Self {
        WorkerMain::new(default_resolver())
    }
}

impl WorkerMain {
    /// Worker with the given spec resolver.
    pub fn new(resolver: SpecResolver) -> Self {
        WorkerMain { resolver }
    }

    /// Dial the coordinator, run one deployment to completion (or failure),
    /// report the outcome, and return.
    pub fn run(&self, coordinator: &str, worker_id: usize) -> Result<()> {
        let data_listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| io_err("bind data listener", e))?;
        let data_addr = data_listener
            .local_addr()
            .map_err(|e| io_err("data listener addr", e))?
            .to_string();
        let control =
            connect_with_backoff(coordinator, &BackoffPolicy::default(), CONNECT_ATTEMPTS)
                .map_err(|e| io_err("dial coordinator", e))?;
        let mut reader = control
            .try_clone()
            .map_err(|e| io_err("clone control stream", e))?;
        let writer = Arc::new(Mutex::new(control));
        send_json(
            &mut *writer.lock(),
            &ToCoord::Hello {
                worker: worker_id,
                data_addr,
            },
        )
        .map_err(|e| io_err("send hello", e))?;

        let deploy =
            match recv_json::<_, ToWorker>(&mut reader).map_err(|e| io_err("await deploy", e))? {
                Some(ToWorker::Deploy(d)) => *d,
                _ => {
                    return Err(EngineError::Transport(
                        "coordinator closed before deploying".into(),
                    ))
                }
            };

        let (plan, sources) = (self.resolver)(&deploy.spec)?;
        let n = plan.instance_count();
        if deploy.assignment.len() != n {
            return Err(EngineError::InvalidConfig(format!(
                "assignment covers {} instances but the plan has {n}",
                deploy.assignment.len()
            )));
        }
        let mine: HashSet<usize> = (0..n)
            .filter(|&i| deploy.assignment[i] == worker_id)
            .collect();
        let restore: HashMap<usize, Vec<u8>> = deploy.restore.iter().cloned().collect();
        let frame_cap = deploy.run.frame_capacity();

        let (mut endpoints, mut receivers) = input_channels(&plan, Some(&mine), frame_cap);

        // Telemetry: the registry covers the whole plan (indices align with
        // instance ids); only local instances record into it. The span-id
        // base `worker_id + 1` keeps span ids disjoint across processes
        // (the coordinator reserves base 0 for single-process runs).
        let mut registry = MetricsRegistry::new("distributed");
        for inst in &plan.instances {
            registry.register(
                plan.logical.nodes[inst.node].name.clone(),
                inst.index,
                format!("worker{}", deploy.assignment[inst.id]),
            );
        }
        let tel = RunTelemetry::with_site(
            registry,
            TelemetryConfig {
                dump_on_error: false,
                trace_every: deploy.trace_every,
                ..TelemetryConfig::default()
            },
            format!("worker{worker_id}"),
            worker_id as u64 + 1,
        );

        let wire_check = deploy
            .run
            .check_schemas
            .then(|| WireSchemaCheck::from_plan(&plan));
        // Accept before dialing: every worker dials its whole fan-out
        // before it reports Ready, and a listener nobody accepts from
        // holds only a backlog's worth of connections.
        let acceptor = spawn_acceptor(
            data_listener,
            endpoints.clone(),
            inbound_connections(&plan, &deploy.assignment, deploy.workers, worker_id),
            wire_check.clone(),
            tel.trace.clone(),
            deploy.epoch_ns,
        );
        let (outbound, forwarders) = dial_remote_targets(
            remote_targets(&plan, &deploy.assignment, worker_id),
            &mut endpoints,
            &deploy.peers,
            frame_cap,
            deploy.epoch_ns,
        )?;
        let transport = SenderTable {
            senders: endpoints,
            kind: "tcp",
        };

        send_json(&mut *writer.lock(), &ToCoord::Ready { worker: worker_id })
            .map_err(|e| io_err("send ready", e))?;
        match recv_json::<_, ToWorker>(&mut reader).map_err(|e| io_err("await start", e))? {
            Some(ToWorker::Start) => {}
            _ => {
                return Err(EngineError::Transport(
                    "coordinator closed before start".into(),
                ))
            }
        }

        let (reporters, reports) = Reporters::unbounded();

        // Parts and sink deltas leave the process in order as they are made:
        // they must survive a SIGKILL that lands after the barrier.
        let forwarder = {
            let writer = Arc::clone(&writer);
            std::thread::spawn(move || {
                for report in reports.coord.iter() {
                    let msg = ToCoord::Report {
                        worker: worker_id,
                        report,
                    };
                    // Reports are the bulk traffic on the control stream;
                    // encode outside the lock or the heartbeat thread
                    // starves behind every barrier (checkpoints are
                    // barrier-aligned, so all workers would go silent at
                    // once and trip the coordinator's gap alarm).
                    let Ok(payload) = encode_json(&msg) else {
                        return;
                    };
                    if write_frame(&mut *writer.lock(), &payload).is_err() {
                        return;
                    }
                }
            })
        };

        let stop = Arc::new(AtomicBool::new(false));
        let emitted: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
        let my_sources: Vec<usize> = plan
            .source_instances()
            .into_iter()
            .filter(|i| mine.contains(i))
            .collect();
        let my_sinks: Vec<usize> = plan
            .sink_instances()
            .into_iter()
            .filter(|i| mine.contains(i))
            .collect();
        let mut my_ids: Vec<usize> = mine.iter().copied().collect();
        my_ids.sort_unstable();

        let heartbeat = {
            let writer = Arc::clone(&writer);
            let stop = Arc::clone(&stop);
            let registry = Arc::clone(&tel.registry);
            let emitted = Arc::clone(&emitted);
            let (my_sources, my_sinks, my_ids) =
                (my_sources.clone(), my_sinks.clone(), my_ids.clone());
            let period = Duration::from_millis(deploy.heartbeat_ms.max(1));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let snaps = registry.snapshot();
                    let hb = ToCoord::Heartbeat {
                        worker: worker_id,
                        emitted: my_sources
                            .iter()
                            .map(|&i| (i, emitted[i].load(Ordering::SeqCst)))
                            .collect(),
                        sinks: my_sinks.iter().map(|&i| (i, snaps[i].tuples_in)).collect(),
                        snapshots: my_ids.iter().map(|&i| (i, snaps[i].clone())).collect(),
                    };
                    let Ok(payload) = encode_json(&hb) else {
                        return;
                    };
                    if write_frame(&mut *writer.lock(), &payload).is_err() {
                        return;
                    }
                    std::thread::sleep(period);
                }
            })
        };

        // Connection-drop chaos: sever outbound data streams mid-run. The
        // severed streams give forwarders write errors and peers mid-frame
        // EOFs — the half-open-connection hazard, end to end.
        let chaos = match deploy.drop_data_after_ms {
            Some(ms) if !outbound.is_empty() => {
                let stop = Arc::clone(&stop);
                Some(std::thread::spawn(move || {
                    let t0 = Instant::now();
                    while t0.elapsed() < Duration::from_millis(ms) {
                        if stop.load(Ordering::SeqCst) {
                            return; // run finished first: no chaos
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    for s in &outbound {
                        let _ = s.shutdown(Shutdown::Both);
                    }
                }))
            }
            _ => {
                drop(outbound);
                None
            }
        };

        let settings = ExecSettings {
            run: deploy.run.clone(),
            exactly_once: deploy.mode == DeliveryMode::ExactlyOnce,
            ckpt_interval: deploy.ckpt_interval,
        };
        let handles = spawn_instances(
            &plan,
            &sources,
            Some(&mine),
            &transport,
            &mut receivers,
            &settings,
            None,
            &restore,
            &emitted,
            RunClock::Epoch(deploy.epoch_ns),
            &reporters,
            Some(&tel),
            deploy.attempt > 1,
        )?;
        drop(reporters);
        drop(transport);

        // A failed worker leaves the data plane alone: peers may be hung or
        // dead, so joining it could block; the coordinator kills the whole
        // fleet after every attempt.
        let failure = join_instances(handles, Some(&tel)).or_else(|| {
            // Success. Join the data plane down in dependency order:
            // forwarders first (all frames on the wire), then our outbound
            // streams (peers see EOF), then the acceptor (peers closed
            // towards us). Exiting before the forwarders drain would tear
            // frames at the peers.
            for f in forwarders {
                let _ = f.join();
            }
            let _ = acceptor.join();
            // The acceptor has joined, so every inbound frame has been
            // observed: a clean run with mismatched wire tuples is still a
            // failure under --check-schemas.
            wire_check.as_ref().and_then(|c| c.to_error(worker_id))
        });
        // Every report is on the control stream before Done or Failed. The
        // heartbeat keeps beating until then: the acceptor join waits on
        // *peers* closing their streams and the forwarder may be draining a
        // backlog, and a worker silent meanwhile would trip the
        // coordinator's gap alarm on healthy runs.
        let _ = forwarder.join();
        stop.store(true, Ordering::SeqCst);
        let _ = heartbeat.join();
        if let Some(c) = chaos {
            let _ = c.join();
        }
        if let Some(e) = failure {
            let failed = ToCoord::Failed {
                worker: worker_id,
                error: e.to_string(),
            };
            let _ = send_json(&mut *writer.lock(), &failed);
            return Err(e);
        }
        // Every span writer (instance threads, acceptor readers) has joined
        // above, so the drain observes all recorded spans.
        let done = ToCoord::Done {
            worker: worker_id,
            stats: reports.stats.iter().collect(),
            emitted: my_sources
                .iter()
                .map(|&i| (i, emitted[i].load(Ordering::SeqCst)))
                .collect(),
            spans: tel.trace.as_ref().map(|b| b.drain()).unwrap_or_default(),
        };
        send_json(&mut *writer.lock(), &done).map_err(|e| io_err("send done", e))?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

/// What one coordinator event-loop iteration received.
enum Event {
    /// A control message from a worker. `writer` rides along on the first
    /// message of a connection (the Hello) so the coordinator can talk back.
    Msg {
        gen: usize,
        msg: ToCoord,
        writer: Option<TcpStream>,
    },
    /// A control connection closed or errored.
    Lost { gen: usize, worker: Option<usize> },
}

/// What the coordinator alone observes across attempts, beyond the
/// [`Attempt`] the supervisor consumes.
#[derive(Default)]
struct Observed {
    /// Alarms in first-firing order (heartbeat-gap alarms included).
    alarms: Vec<Alarm>,
    /// Last telemetry snapshot per instance id, across attempts.
    snapshots: BTreeMap<usize, InstanceSnapshot>,
    /// Spans reported by workers in `Done`, latest attempt only.
    spans: Vec<Span>,
}

/// Result of a distributed execution.
#[derive(Debug)]
pub struct DistributedRun {
    /// Run result plus the recovery accounting shared with the in-process
    /// fault-tolerant runtime.
    pub ft: FtRunResult,
    /// Last telemetry snapshot of every instance, aggregated at the
    /// coordinator from worker heartbeats (instance-id order).
    pub snapshots: Vec<InstanceSnapshot>,
    /// Alarms observed during the run (heartbeat-gap alarms included), in
    /// first-firing order.
    pub alarms: Vec<Alarm>,
    /// Trace spans from every worker of the successful attempt, sorted by
    /// start time (empty unless `DistributedConfig::trace_every > 0`).
    pub spans: Vec<Span>,
}

/// The coordinator: spawns worker processes, deploys a spec, supervises
/// heartbeat leases, streams checkpoints, and restarts the fleet from the
/// last complete checkpoint on failure. See the module docs.
pub struct DistributedRuntime {
    config: DistributedConfig,
    resolver: SpecResolver,
}

impl DistributedRuntime {
    /// Coordinator with the default ([`crate::testplan`]) resolver.
    pub fn new(config: DistributedConfig) -> Self {
        DistributedRuntime {
            config,
            resolver: default_resolver(),
        }
    }

    /// Coordinator with a custom spec resolver. The worker binary must
    /// resolve the same vocabulary.
    pub fn with_resolver(config: DistributedConfig, resolver: SpecResolver) -> Self {
        DistributedRuntime { config, resolver }
    }

    /// Execute `spec` across `workers` processes under supervision.
    pub fn run(&self, spec: &str) -> Result<DistributedRun> {
        self.config.validate()?;
        let (plan, _sources) = (self.resolver)(spec)?;
        let n = plan.instance_count();
        let k = self.config.workers;

        let listener =
            TcpListener::bind("127.0.0.1:0").map_err(|e| io_err("bind control listener", e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| io_err("control listener addr", e))?
            .to_string();
        let generation = Arc::new(AtomicUsize::new(0));
        let (ev_tx, ev_rx) = unbounded::<Event>();
        spawn_control_acceptor(listener, Arc::clone(&generation), ev_tx);

        let tel = RunTelemetry::new(MetricsRegistry::new(spec), TelemetryConfig::default());
        tel.recorder.record(
            FlightEventKind::RunStarted,
            0,
            0,
            format!("distributed: {n} instances on {k} workers, spec '{spec}'"),
        );

        let start = Instant::now();
        let epoch_ns = epoch_ns_now();
        let mut seen = Observed::default();
        let ft = &self.config.ft;
        let run = supervise(
            &plan,
            ft.mode,
            &ft.restart,
            ft.run.capture_limit,
            start,
            Some(&tel),
            |attempt, restore| {
                // Replay starts at the restored offsets; a source no worker
                // reports on this attempt stays there.
                let mut offsets = vec![0; n];
                for src in plan.source_instances() {
                    offsets[src] = decode_position(restore.get(&src), "source offset")?;
                }
                let first = attempt == 1;
                let gen = generation.fetch_add(1, Ordering::SeqCst) + 1;
                let mut children = self.spawn_children(&addr, k)?;
                let att = self.drive_attempt(
                    gen,
                    &ev_rx,
                    &mut children,
                    spec,
                    &plan,
                    restore,
                    offsets,
                    attempt,
                    epoch_ns,
                    first.then_some(self.config.kill).flatten(),
                    first.then_some(self.config.drop_data_after_ms).flatten(),
                    &tel,
                    &mut seen,
                );
                // Every attempt ends with a clean slate of processes:
                // killing is idempotent for the already-exited, and wait()
                // reaps.
                for c in &mut children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                Ok(att)
            },
        )?;
        seen.spans.sort_by_key(|s| (s.start_ns, s.id));
        Ok(DistributedRun {
            ft: run,
            snapshots: seen.snapshots.into_values().collect(),
            alarms: seen.alarms,
            spans: seen.spans,
        })
    }

    fn spawn_children(&self, addr: &str, k: usize) -> Result<Vec<Child>> {
        let bin = &self.config.worker_bin;
        let mut children: Vec<Child> = Vec::with_capacity(k);
        for w in 0..k {
            let spawned = Command::new(&bin[0])
                .args(&bin[1..])
                .arg("--coordinator")
                .arg(addr)
                .arg("--id")
                .arg(w.to_string())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit())
                .spawn();
            match spawned {
                Ok(c) => children.push(c),
                Err(e) => {
                    for c in &mut children {
                        let _ = c.kill();
                        let _ = c.wait();
                    }
                    return Err(EngineError::Transport(format!(
                        "spawning worker {w} ('{}') failed: {e}",
                        bin[0]
                    )));
                }
            }
        }
        Ok(children)
    }

    /// Run one attempt end to end: handshake, deploy, start, then the
    /// supervision loop until every worker is done or something fails.
    /// Never returns early without an outcome; the caller kills the fleet.
    #[allow(clippy::too_many_arguments)]
    fn drive_attempt(
        &self,
        gen: usize,
        ev_rx: &Receiver<Event>,
        children: &mut [Child],
        spec: &str,
        plan: &PhysicalPlan,
        restore: &HashMap<usize, Vec<u8>>,
        offsets: Vec<u64>,
        attempt: usize,
        epoch_ns: u64,
        kill: Option<KillSpec>,
        drop_data_after_ms: Option<u64>,
        tel: &RunTelemetry,
        seen: &mut Observed,
    ) -> Attempt {
        let k = children.len();
        let assignment = assign(plan, k);
        let mut att = Attempt {
            outcome: Ok(()),
            reports: Vec::new(),
            op_stats: Vec::new(),
            offsets,
            delivered_seen: 0,
        };
        // Sink deliveries by worker, from its latest heartbeat.
        let mut hb_sinks: HashMap<usize, u64> = HashMap::new();
        seen.spans.clear();
        // Heartbeat bookkeeping starts fresh each attempt — interval
        // counters restart with the new fleet, and stale entries from a
        // dead generation must not raise alarms against live workers. The
        // gap warning fires at half the lease timeout: far enough past
        // scheduler noise (a saturated box oversleeps a 20 ms heartbeat by
        // tens of ms) that it only names workers on the road to lease
        // expiry, yet still well ahead of the axe.
        let gap_intervals =
            (self.config.lease_timeout_ms / self.config.heartbeat_ms.max(1) / 2).max(3);
        let mut monitor = AlarmMonitor::new(AlarmConfig {
            heartbeat_gap_intervals: gap_intervals,
            ..AlarmConfig::default()
        });
        let mut restore: Vec<(usize, Vec<u8>)> =
            restore.iter().map(|(&i, b)| (i, b.clone())).collect();
        restore.sort_unstable_by_key(|&(i, _)| i);
        let deploy = DeploySpec {
            spec: spec.to_string(),
            attempt,
            workers: k,
            assignment,
            peers: Vec::new(),
            restore,
            run: self.config.ft.run.clone(),
            mode: self.config.ft.mode,
            ckpt_interval: self.config.ft.checkpoint_interval_tuples,
            epoch_ns,
            heartbeat_ms: self.config.heartbeat_ms,
            drop_data_after_ms,
            trace_every: self.config.trace_every,
        };
        // The control writers stay open until the attempt is over.
        let _writers = match launch(gen, ev_rx, deploy) {
            Ok(writers) => writers,
            Err(e) => {
                att.outcome = Err(e);
                return att;
            }
        };

        // Phase 3: supervise. Leases start now; heartbeats renew them.
        let attempt_start = Instant::now();
        let heartbeat_ms = self.config.heartbeat_ms.max(1);
        let mut leases = LeaseTable::new(Duration::from_millis(self.config.lease_timeout_ms));
        for w in 0..k {
            leases.renew(w as u64);
        }
        let tick = Duration::from_millis((heartbeat_ms / 2).clamp(1, 25));
        let mut done: HashSet<usize> = HashSet::new();
        let mut killed = false;
        let mut alarmed: HashSet<usize> = HashSet::new();
        // A worker's own Failed report is only a *suspect* verdict: when a
        // peer dies (SIGKILL), its severed sockets cascade failures into
        // the survivors within milliseconds, and the first report usually
        // comes from a victim, not the culprit. So a Failed report opens a
        // grace window in which the lease detector may still name the
        // actually-silent worker; only if no lease lapses does the report
        // itself decide the attempt.
        let mut suspect: Option<(usize, String)> = None;
        let mut suspect_deadline: Option<Instant> = None;

        loop {
            if let Some(ks) = kill {
                if !killed && attempt_start.elapsed() >= Duration::from_millis(ks.after_ms) {
                    killed = true;
                    if ks.worker < k && !done.contains(&ks.worker) {
                        let _ = children[ks.worker].kill();
                        tel.recorder.record(
                            FlightEventKind::FaultInjected,
                            0,
                            ks.worker,
                            format!("SIGKILL worker {} at {}ms", ks.worker, ks.after_ms),
                        );
                    }
                }
            }

            // Failure detector: a lease that lapsed belongs to a worker that
            // could not heartbeat — SIGKILL, livelock, or severed control
            // connection alike.
            if let Some((w, gap)) = leases
                .expired()
                .into_iter()
                .filter(|(w, _)| !done.contains(&(*w as usize)))
                .max_by_key(|&(_, gap)| gap)
            {
                let w = w as usize;
                let detail = format!(
                    "heartbeat silent for {} ms (lease timeout {} ms)",
                    gap.as_millis(),
                    self.config.lease_timeout_ms
                );
                tel.recorder
                    .record(FlightEventKind::WorkerFailed, 0, w, detail.clone());
                att.outcome = Err(EngineError::WorkerLost { worker: w, detail });
                break;
            }

            // A suspect whose grace window closed without any lease lapsing
            // really was the first failure.
            if let Some(deadline) = suspect_deadline {
                if Instant::now() >= deadline {
                    let (worker, error) = suspect.take().expect("suspect set with deadline");
                    att.outcome = Err(EngineError::WorkerLost {
                        worker,
                        detail: error,
                    });
                    break;
                }
            }

            // Heartbeat-gap alarms fire ahead of lease expiry: the lease is
            // the axe, the alarm is the observable warning.
            let interval = attempt_start.elapsed().as_millis() as u64 / heartbeat_ms;
            for a in monitor.evaluate_heartbeats(interval) {
                if a.kind == AlarmKind::HeartbeatGap && alarmed.insert(a.instance) {
                    seen.alarms.push(a.clone());
                }
            }

            match ev_rx.recv_timeout(tick) {
                Ok(Event::Msg { gen: g, msg, .. }) if g == gen => match msg {
                    ToCoord::Heartbeat {
                        worker,
                        emitted,
                        sinks,
                        snapshots,
                    } => {
                        leases.renew(worker as u64);
                        monitor.note_heartbeat(worker, interval);
                        advance(&mut att.offsets, emitted);
                        hb_sinks.insert(worker, sinks.iter().map(|&(_, v)| v).sum());
                        seen.snapshots.extend(snapshots);
                    }
                    ToCoord::Report { report, .. } => att.reports.push(report),
                    ToCoord::Done {
                        worker,
                        stats,
                        emitted,
                        spans,
                    } => {
                        done.insert(worker);
                        leases.remove(worker as u64);
                        monitor.clear_heartbeat(worker);
                        seen.spans.extend(spans);
                        att.op_stats.extend(stats);
                        advance(&mut att.offsets, emitted);
                        if done.len() == k {
                            break;
                        }
                        if let Some((worker, error)) = suspect.take() {
                            if done.len() + 1 == k {
                                att.outcome = Err(EngineError::WorkerLost {
                                    worker,
                                    detail: error,
                                });
                                break;
                            }
                            suspect = Some((worker, error));
                        }
                    }
                    ToCoord::Failed { worker, error } => {
                        tel.recorder.record(
                            FlightEventKind::WorkerFailed,
                            0,
                            worker,
                            error.clone(),
                        );
                        // Its own silence carries no information anymore —
                        // only the *other* leases can name a better culprit.
                        leases.remove(worker as u64);
                        monitor.clear_heartbeat(worker);
                        if suspect.is_none() {
                            suspect = Some((worker, error));
                            suspect_deadline = Some(
                                Instant::now()
                                    + Duration::from_millis(self.config.lease_timeout_ms),
                            );
                        }
                        // With every other worker done, no lease is left to
                        // disagree: the report stands immediately.
                        if done.len() + 1 == k {
                            let (worker, error) = suspect.take().expect("just set");
                            att.outcome = Err(EngineError::WorkerLost {
                                worker,
                                detail: error,
                            });
                            break;
                        }
                    }
                    ToCoord::Hello { .. } | ToCoord::Ready { .. } => {}
                },
                // A lost control connection alone is only a suspicion (the
                // worker may still be draining); the lease makes the call.
                Ok(Event::Lost { .. }) | Ok(Event::Msg { .. }) => {}
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    att.outcome = Err(EngineError::Transport(
                        "coordinator event channel closed".into(),
                    ));
                    break;
                }
            }
        }

        // Opportunistic drain: parts and deltas already queued behind the
        // break still count toward the restore point and the sink logs.
        while let Ok(ev) = ev_rx.try_recv() {
            if let Event::Msg { gen: g, msg, .. } = ev {
                if g != gen {
                    continue;
                }
                match msg {
                    ToCoord::Report { report, .. } => att.reports.push(report),
                    ToCoord::Heartbeat { emitted, .. } => advance(&mut att.offsets, emitted),
                    _ => {}
                }
            }
        }
        att.delivered_seen = hb_sinks.values().sum();
        att
    }
}

/// Move each reported source offset forward; reports arrive out of order
/// across heartbeats and `Done`, and an offset never moves back within an
/// attempt.
fn advance(offsets: &mut [u64], reported: Vec<(usize, u64)>) {
    for (inst, v) in reported {
        if let Some(o) = offsets.get_mut(inst) {
            *o = (*o).max(v);
        }
    }
}

/// Handshake, deploy and start one fleet: wait for every worker's Hello,
/// send each the deploy message with every peer's data address, wait for
/// every Ready, then fire Start. Returns the control writers.
fn launch(gen: usize, ev_rx: &Receiver<Event>, mut deploy: DeploySpec) -> Result<Vec<TcpStream>> {
    let k = deploy.workers;
    let deadline = Instant::now() + HANDSHAKE_GRACE;
    let mut writers: Vec<Option<TcpStream>> = (0..k).map(|_| None).collect();
    deploy.peers = vec![String::new(); k];
    await_all(
        ev_rx,
        gen,
        k,
        deadline,
        "dialed in",
        "handshake",
        |msg, writer| {
            let ToCoord::Hello { worker, data_addr } = msg else {
                return None;
            };
            let slot = writers.get_mut(worker).filter(|w| w.is_none())?;
            *slot = writer;
            deploy.peers[worker] = data_addr;
            Some(worker)
        },
    )?;
    let mut writers = writers
        .into_iter()
        .enumerate()
        .map(|(w, writer)| {
            writer.ok_or_else(|| EngineError::WorkerLost {
                worker: w,
                detail: "no control writer after hello".into(),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let deploy = ToWorker::Deploy(Box::new(deploy));
    for (w, stream) in writers.iter_mut().enumerate() {
        send_json(stream, &deploy).map_err(|e| io_err(&format!("deploy to worker {w}"), e))?;
    }
    await_all(
        ev_rx,
        gen,
        k,
        deadline,
        "became ready",
        "deployment",
        |msg, _| {
            let ToCoord::Ready { worker } = msg else {
                return None;
            };
            Some(worker)
        },
    )?;
    for (w, stream) in writers.iter_mut().enumerate() {
        send_json(stream, &ToWorker::Start).map_err(|e| io_err(&format!("start worker {w}"), e))?;
    }
    Ok(writers)
}

/// Wait until each of `k` workers of generation `gen` has sent a message
/// `accept` takes (it returns the sender's worker id), before `deadline`.
/// `did` and `phase` name the wait in its errors.
fn await_all(
    ev_rx: &Receiver<Event>,
    gen: usize,
    k: usize,
    deadline: Instant,
    did: &str,
    phase: &str,
    mut accept: impl FnMut(ToCoord, Option<TcpStream>) -> Option<usize>,
) -> Result<()> {
    let mut seen = vec![false; k];
    let mut pending = k;
    while pending > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(EngineError::Transport(format!(
                "{pending} worker(s) never {did} within {HANDSHAKE_GRACE:?}"
            )));
        }
        match ev_rx.recv_timeout(left.min(Duration::from_millis(50))) {
            Ok(Event::Msg {
                gen: g,
                msg,
                writer,
            }) if g == gen => {
                if let Some(w) = accept(msg, writer).filter(|&w| w < k && !seen[w]) {
                    seen[w] = true;
                    pending -= 1;
                }
            }
            Ok(Event::Lost { gen: g, worker }) if g == gen => {
                return Err(EngineError::WorkerLost {
                    worker: worker.unwrap_or(k),
                    detail: format!("control connection lost during {phase}"),
                });
            }
            Ok(_) | Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                return Err(EngineError::Transport(
                    "coordinator event channel closed".into(),
                ));
            }
        }
    }
    Ok(())
}

/// One thread accepting control connections forever; each connection gets a
/// reader thread that tags messages with the generation current at accept
/// time, so a late frame from a killed fleet cannot corrupt the next
/// attempt.
fn spawn_control_acceptor(
    listener: TcpListener,
    generation: Arc<AtomicUsize>,
    ev_tx: Sender<Event>,
) {
    std::thread::spawn(move || loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        stream.set_nodelay(true).ok();
        let gen = generation.load(Ordering::SeqCst);
        let ev_tx = ev_tx.clone();
        std::thread::spawn(move || {
            let mut writer = stream.try_clone().ok();
            let mut reader = stream;
            let mut worker = None;
            loop {
                match recv_json::<_, ToCoord>(&mut reader) {
                    Ok(Some(msg)) => {
                        if let ToCoord::Hello { worker: w, .. } = &msg {
                            worker = Some(*w);
                        }
                        if ev_tx
                            .send(Event::Msg {
                                gen,
                                msg,
                                writer: writer.take(),
                            })
                            .is_err()
                        {
                            return;
                        }
                    }
                    Ok(None) | Err(_) => {
                        let _ = ev_tx.send(Event::Lost { gen, worker });
                        return;
                    }
                }
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation_catches_bad_knobs() {
        let mut cfg = DistributedConfig {
            worker_bin: vec!["worker".into()],
            ..DistributedConfig::default()
        };
        assert!(cfg.validate().is_ok());
        cfg.workers = 0;
        assert!(matches!(cfg.validate(), Err(EngineError::InvalidConfig(_))));
        cfg.workers = 2;
        cfg.worker_bin.clear();
        assert!(matches!(cfg.validate(), Err(EngineError::InvalidConfig(_))));
        cfg.worker_bin = vec!["worker".into()];
        cfg.lease_timeout_ms = cfg.heartbeat_ms;
        assert!(matches!(cfg.validate(), Err(EngineError::InvalidConfig(_))));
    }

    #[test]
    fn wire_messages_roundtrip() {
        let deploy = DeploySpec {
            spec: "seeded:1".into(),
            attempt: 2,
            workers: 3,
            assignment: vec![0, 1, 2, 0],
            peers: vec![
                "127.0.0.1:1".into(),
                "127.0.0.1:2".into(),
                "127.0.0.1:3".into(),
            ],
            restore: vec![(1, vec![1, 2, 3])],
            run: RunConfig::default(),
            mode: DeliveryMode::ExactlyOnce,
            ckpt_interval: 64,
            epoch_ns: 42,
            heartbeat_ms: 20,
            drop_data_after_ms: Some(50),
            trace_every: 0,
        };
        let mut buf = Vec::new();
        send_json(&mut buf, &ToWorker::Deploy(Box::new(deploy))).unwrap();
        send_json(&mut buf, &ToWorker::Start).unwrap();
        let mut r = std::io::Cursor::new(buf);
        match recv_json::<_, ToWorker>(&mut r).unwrap().unwrap() {
            ToWorker::Deploy(d) => {
                assert_eq!(d.spec, "seeded:1");
                assert_eq!(d.assignment, vec![0, 1, 2, 0]);
                assert_eq!(d.restore, vec![(1, vec![1, 2, 3])]);
                assert_eq!(d.drop_data_after_ms, Some(50));
            }
            other => panic!("expected deploy, got {other:?}"),
        }
        assert!(matches!(
            recv_json::<_, ToWorker>(&mut r).unwrap().unwrap(),
            ToWorker::Start
        ));

        let hb = ToCoord::Heartbeat {
            worker: 1,
            emitted: vec![(0, 128)],
            sinks: vec![(5, 64)],
            snapshots: vec![(0, InstanceSnapshot::default())],
        };
        let mut buf = Vec::new();
        send_json(&mut buf, &hb).unwrap();
        let mut r = std::io::Cursor::new(buf);
        match recv_json::<_, ToCoord>(&mut r).unwrap().unwrap() {
            ToCoord::Heartbeat {
                worker,
                emitted,
                sinks,
                snapshots,
            } => {
                assert_eq!(worker, 1);
                assert_eq!(emitted, vec![(0, 128)]);
                assert_eq!(sinks, vec![(5, 64)]);
                assert_eq!(snapshots.len(), 1);
            }
            other => panic!("expected heartbeat, got {other:?}"),
        }
    }

    #[test]
    fn every_dialed_connection_is_expected_by_its_host() {
        for (seed, k) in [(0, 2), (1, 2), (2, 3), (0, 1)] {
            let (plan, _) = testplan::build(seed, 64, 0).unwrap();
            let assignment = assign(&plan, k);
            let mut dialed = vec![0usize; k];
            for me in 0..k {
                for (inst, host) in remote_targets(&plan, &assignment, me) {
                    assert_ne!(host, me);
                    assert_eq!(assignment[inst], host);
                    let has_edge = plan.instances.iter().any(|from| {
                        assignment[from.id] == me
                            && plan.out_routes[from.id]
                                .iter()
                                .any(|r| r.targets.iter().any(|t| t.instance == inst))
                    });
                    assert!(has_edge, "worker {me} dials {inst} without an edge into it");
                    dialed[host] += 1;
                }
            }
            for (me, &dials) in dialed.iter().enumerate() {
                assert_eq!(inbound_connections(&plan, &assignment, k, me), dials);
            }
        }
    }

    #[test]
    fn dialing_rejects_a_missing_peer_address() {
        let (plan, _) = testplan::build(0, 64, 0).unwrap();
        let n = plan.instance_count();
        let assignment = assign(&plan, 2);
        // Peer list too short: worker 1 unreachable.
        let res = dial_remote_targets(
            remote_targets(&plan, &assignment, 0),
            &mut vec![None; n],
            &["127.0.0.1:9".to_string()],
            4,
            0,
        );
        assert!(matches!(res.err(), Some(EngineError::Transport(_))));
    }

    /// The schema check sits behind the decoder: a frame that is well formed
    /// on the wire but carries the wrong types for its channel is counted,
    /// and fails the worker with the typed error.
    #[test]
    fn decoded_frame_violating_its_channel_schema_is_reported() {
        use crate::value::{Tuple, Value};
        let (plan, _) = testplan::build(0, 64, 0).unwrap();
        let check = WireSchemaCheck::from_plan(&plan);
        // Instance 2 is `keep[0]`; its channels carry (Int, Int).
        let good = Tuple::new(vec![Value::Int(1), Value::Int(2)]);
        let bad = Tuple::new(vec![Value::Int(1), Value::str("two")]);
        let mut stream = Vec::new();
        for msg in [
            Message::Batch(crate::message::Batch::new(vec![good.clone(), bad.clone()])),
            Message::Batch(crate::message::Batch::new(vec![good])),
            Message::Watermark(7),
            Message::Batch(crate::message::Batch::new(vec![bad])),
        ] {
            let mut frame = vec![0u8; FRAME_PREFIX_BYTES];
            encode_frame(&mut frame, 2, 0, &msg);
            write_prefixed(&mut stream, &mut frame).unwrap();
        }
        let mut r = stream.as_slice();
        assert!(check.to_error(1).is_none());
        while let Some(we) = recv_envelope(&mut r).unwrap() {
            check.observe(&we);
        }
        match check.to_error(1) {
            Some(EngineError::WireSchemaViolation {
                worker,
                violations,
                first,
            }) => {
                assert_eq!((worker, violations), (1, 2));
                assert!(first.contains("instance 2 channel 0"), "{first}");
            }
            other => panic!("expected a wire schema violation, got {other:?}"),
        }
    }
}
