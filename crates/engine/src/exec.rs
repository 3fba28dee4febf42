//! The execution core: the per-attempt worker loops of every backend.
//!
//! One "attempt" spawns a thread per operator chain (see
//! [`crate::chaining`]; an unchained instance is a chain of one) and runs
//! it to completion (or failure) in one of two loops: a source's, or
//! [`ChainWorker`]'s, which runs every other chain, sinks included, takes
//! its channels' frames through [`Inputs`] and sends its output on, or,
//! for a sink, into the delivery log. The loops carry the full protocol
//! stack — micro-batching, watermarks, aligned Chandy–Lamport barriers,
//! the overload-escalation ladder — and are used by three drivers:
//!
//! * [`crate::runtime::ThreadedRuntime`] runs every instance in-process
//!   with barriers off (`ckpt_interval: 0`), through [`run_local_attempt`];
//! * [`crate::fault::FtRuntime`] runs every instance in-process with
//!   barriers on, through [`run_local_attempt`], once per restart;
//! * the distributed worker (see [`crate::distributed`]) runs only the
//!   instances placed on it, over a transport whose remote endpoints
//!   serialize frames onto TCP connections.
//!
//! The loops are transport-agnostic: downstream edges are plain
//! `Sender<Envelope>` handed out by a [`Transport`], and everything an
//! attempt reports — checkpoint parts, sink deliveries, per-instance
//! counters — flows through in-process reporter channels that the driver
//! either drains locally or forwards over the wire. [`assemble`] turns the
//! sink logs and counters into the [`RunResult`] all three drivers return.

use crate::batch::{EdgeBatcher, FlushReason};
use crate::error::{EngineError, Result};
use crate::fault::FaultInjector;
use crate::message::{FrameTrace, Message};
use crate::operator::{OpKind, OperatorInstance};
use crate::physical::{PhysicalInstance, PhysicalPlan};
use crate::pressure::{PressureGauge, PressureLevel, Shedder};
use crate::runtime::{Envelope, OperatorStats, RunConfig, RunResult, SourceFactory};
use crate::telemetry::Probe;
use crate::transport::{SenderTable, Transport};
use crate::value::Tuple;
use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use pdsp_telemetry::{FlightEventKind, RunTelemetry, SpanKind, TraceContext};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Time base for `emit_ns` / latency stamps.
///
/// Single-process runs measure against a local [`Instant`]; distributed
/// runs measure against a coordinator-chosen UNIX-epoch origin shipped in
/// the deploy message, so a tuple stamped on one worker and delivered on
/// another still yields a meaningful end-to-end latency (bounded by clock
/// skew between processes on the same host — the deployment this runtime
/// targets).
#[derive(Debug, Clone, Copy)]
pub(crate) enum RunClock {
    /// Nanoseconds since a local run start.
    Local(Instant),
    /// Nanoseconds since the given UNIX-epoch origin (ns).
    Epoch(u64),
}

impl RunClock {
    /// Current stamp in nanoseconds under this clock.
    pub(crate) fn now_ns(&self) -> u64 {
        match self {
            RunClock::Local(t0) => t0.elapsed().as_nanos() as u64,
            RunClock::Epoch(origin) => SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0)
                .saturating_sub(*origin),
        }
    }
}

/// What a sink delivered, in delivery order: every delivery's latency and
/// the rows among the first `capture_limit`. Sinks report it as deltas that
/// the supervisor appends to one log per sink; it is never snapshotted.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct SinkState {
    pub(crate) captured: Vec<Tuple>,
    pub(crate) latencies: Vec<u64>,
}

impl SinkState {
    /// Deliveries recorded.
    pub(crate) fn delivered(&self) -> u64 {
        self.latencies.len() as u64
    }

    /// Cut the log back to its first `count` deliveries. A log shorter than
    /// `count` cannot be reconciled with the checkpoint that counts it.
    pub(crate) fn truncate(&mut self, count: u64) -> Result<()> {
        if count > self.delivered() {
            return Err(EngineError::Checkpoint(format!(
                "sink log holds {} deliveries but its checkpoint counts {count}",
                self.delivered()
            )));
        }
        // Row i of `captured` is delivery i, so both cut at `count`.
        self.latencies.truncate(count as usize);
        self.captured.truncate(count as usize);
        Ok(())
    }
}

/// What an instance reports to its supervisor, in the order it happened: a
/// sink's delta always precedes the checkpoint part that counts it.
#[derive(Debug, Serialize, Deserialize)]
pub(crate) enum Report {
    /// `(checkpoint id, instance id, state bytes)`: one instance's part.
    Part(u64, usize, Vec<u8>),
    /// What sink instance `.0` delivered since its previous report.
    Delivered(usize, SinkState),
}

/// Final counters of one finished instance, folded per logical node into
/// [`OperatorStats`]. Serializable: distributed workers ship them to the
/// coordinator in their `Done` report.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct InstanceStats {
    pub(crate) node: usize,
    pub(crate) tuples_in: u64,
    pub(crate) tuples_out: u64,
    pub(crate) shed: u64,
    pub(crate) late: u64,
}

/// The checkpoint part of a source or a sink: its position — offset or
/// delivered count — in decimal digits.
pub(crate) fn encode_position(position: u64) -> Vec<u8> {
    position.to_string().into_bytes()
}

/// Inverse of [`encode_position`]; `0` without a snapshot.
pub(crate) fn decode_position(bytes: Option<&Vec<u8>>, what: &str) -> Result<u64> {
    bytes.map_or(Ok(0), |b| {
        let text = String::from_utf8_lossy(b);
        text.parse()
            .map_err(|_| EngineError::Checkpoint(format!("{what} restore: '{text}'")))
    })
}

/// What a chain takes from its [`Inputs`].
#[derive(Debug, PartialEq)]
enum Event {
    /// A data frame: the input port of its channel, its tuples and its
    /// trace.
    Data(usize, Vec<Tuple>, Option<FrameTrace>),
    /// The watermark minimum advanced: fire it and forward it.
    Watermark(i64),
    /// A channel closed and released the watermark minimum while another is
    /// still open: fire it, but do not forward it.
    Released(i64),
    /// Every open channel delivered barrier `id`: take checkpoint `id`.
    Checkpoint(u64),
}

/// The input side of a chain head, per input channel: barrier alignment,
/// the watermark minimum and end-of-stream close-out. Under exactly-once a
/// channel that delivered a barrier is blocked until the barrier aligns,
/// and the frames it sends meanwhile — batches included — are buffered
/// whole and replayed in arrival order, which keeps exactly-once blocking
/// correct at batch granularity. A closed channel counts as having
/// delivered every barrier (its prefix is fully processed, so the snapshot
/// stays consistent) and no longer holds the watermark back.
struct Inputs {
    /// Input port of each channel.
    ports: Vec<usize>,
    exactly_once: bool,
    /// Newest watermark of each channel; `i64::MAX` once it closed.
    watermarks: Vec<i64>,
    /// The minimum over `watermarks`, as last handed out.
    watermark: i64,
    closed: Vec<bool>,
    open: usize,
    blocked: Vec<bool>,
    pending: Vec<VecDeque<Envelope>>,
    /// Checkpoint id -> the channels that delivered its barrier.
    barriers: BTreeMap<u64, Vec<bool>>,
    /// Events an end of stream released, handed out before anything else.
    released: VecDeque<Event>,
}

impl Inputs {
    /// The input side of a head whose channel `c` feeds port `ports[c]`.
    fn new(ports: Vec<usize>, exactly_once: bool) -> Self {
        let n = ports.len();
        Inputs {
            ports,
            exactly_once,
            watermarks: vec![i64::MIN; n],
            watermark: i64::MIN,
            closed: vec![false; n],
            open: n,
            blocked: vec![false; n],
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            barriers: BTreeMap::new(),
            released: VecDeque::new(),
        }
    }

    /// The next event, or `None` once every channel has closed. Buffered
    /// frames of unblocked channels go first, then what `recv` takes from
    /// the shared receiver.
    fn next(&mut self, mut recv: impl FnMut() -> Result<Envelope>) -> Result<Option<Event>> {
        loop {
            if let Some(event) = self.released.pop_front() {
                return Ok(Some(event));
            }
            if self.open == 0 {
                return Ok(None);
            }
            let replay = (0..self.pending.len())
                .filter(|&c| !self.blocked[c])
                .find_map(|c| self.pending[c].pop_front());
            let env = match replay {
                Some(env) => env,
                None => recv()?,
            };
            let c = env.channel;
            if self.blocked[c] {
                self.pending[c].push_back(env);
                continue;
            }
            let (tuples, trace) = match env.msg {
                Message::Data(t) => (vec![t], None),
                Message::Batch(b) => (b.tuples, b.trace),
                Message::Watermark(wm) => match self.observe(c, wm) {
                    Some(w) => return Ok(Some(Event::Watermark(w))),
                    None => continue,
                },
                Message::Barrier(id) => {
                    let n = self.ports.len();
                    self.barriers.entry(id).or_insert_with(|| vec![false; n])[c] = true;
                    if self.aligned(id) {
                        self.complete(id);
                        return Ok(Some(Event::Checkpoint(id)));
                    }
                    self.blocked[c] = self.exactly_once;
                    continue;
                }
                Message::Eos => {
                    self.closed[c] = true;
                    self.open -= 1;
                    let done: Vec<u64> = self
                        .barriers
                        .keys()
                        .copied()
                        .filter(|&id| self.aligned(id))
                        .collect();
                    for id in done {
                        self.complete(id);
                        self.released.push_back(Event::Checkpoint(id));
                    }
                    if let Some(w) = self.observe(c, i64::MAX).filter(|_| self.open > 0) {
                        self.released.push_back(Event::Released(w));
                    }
                    continue;
                }
            };
            return Ok(Some(Event::Data(self.ports[c], tuples, trace)));
        }
    }

    /// Record watermark `wm` of channel `c`; the new minimum if it advanced.
    fn observe(&mut self, c: usize, wm: i64) -> Option<i64> {
        self.watermarks[c] = self.watermarks[c].max(wm);
        let min = self.watermarks.iter().copied().min().unwrap_or(i64::MIN);
        (min > self.watermark).then(|| {
            self.watermark = min;
            min
        })
    }

    /// Whether every channel delivered barrier `id` or closed.
    fn aligned(&self, id: u64) -> bool {
        let seen = &self.barriers[&id];
        seen.iter().zip(&self.closed).all(|(&s, &c)| s || c)
    }

    /// Checkpoint `id` is taken: forget it and unblock every channel.
    fn complete(&mut self, id: u64) {
        self.barriers.remove(&id);
        self.blocked.fill(false);
    }
}

/// Smallest source hand-off, in tuples. The hand-off holds one frame
/// (`batch_size` tuples) so that a saturated source reads ahead — and, as
/// `emit_ns` is stamped before it, adds queueing — by one frame only; but a
/// reader and a worker that are both fast trade a wake-up each time it runs
/// full or dry, and below about a hundred tuples those wake-ups set the
/// source's rate (`batch_size: 1` ran WC/SG/SD at 26–40 k tuples/s on a
/// one-tuple hand-off, 120–550 k on this one).
const HANDOFF_MIN_TUPLES: usize = 128;

/// A source worker's inbox: the user's iterator, which may block inside
/// `next()` for as long as it likes, is pulled by a reader thread that
/// stamps `emit_ns` and hands tuples over a bounded queue of one frame
/// (`batch_size` tuples, at least [`HANDOFF_MIN_TUPLES`]). The source
/// worker then receives like any operator ([`EdgeBatcher::next_input`]): a
/// burst drains as one batch and is flushed when the hand-off runs dry,
/// while a full hand-off pushes the worker's backpressure on into the
/// iterator. Offsets, fault triggers and `tuples_out` count what the worker
/// takes out, never what the reader has read ahead.
pub(crate) struct SourceFeed {
    pub(crate) rx: mpsc::Receiver<Tuple>,
    reader: JoinHandle<()>,
}

impl SourceFeed {
    /// Start reading instance `index` of `factory` from tuple `skip` on.
    pub(crate) fn spawn(
        factory: Arc<dyn SourceFactory>,
        index: usize,
        parallelism: usize,
        skip: u64,
        clock: RunClock,
        batch_size: usize,
    ) -> Self {
        let (tx, rx) = mpsc::sync_channel(batch_size.max(HANDOFF_MIN_TUPLES));
        let reader = std::thread::spawn(move || {
            let iter = factory.instance_iter(index, parallelism);
            for mut tuple in iter.skip(skip as usize) {
                tuple.emit_ns = clock.now_ns();
                if tx.send(tuple).is_err() {
                    // The source worker failed and dropped the feed.
                    return;
                }
            }
        });
        SourceFeed { rx, reader }
    }

    /// Call once `rx` reports closed: joins the reader and re-raises a
    /// panic of the user's iterator on the calling source worker, whose
    /// join then names the source node and instance. A worker that fails
    /// instead just drops the feed — the reader may be asleep inside
    /// `next()` and exits on its next failed send.
    pub(crate) fn finish(self) {
        if let Err(payload) = self.reader.join() {
            std::panic::resume_unwind(payload);
        }
    }
}

/// Fixed parameters of one attempt.
pub(crate) struct ExecSettings {
    /// Underlying runtime configuration (batching, capacities, overload).
    pub(crate) run: RunConfig,
    /// Block already-delivered barrier channels until the checkpoint
    /// completes (exactly-once semantics).
    pub(crate) exactly_once: bool,
    /// Source barrier cadence in tuples; `0` injects no barriers, so no
    /// checkpoint is ever taken.
    pub(crate) ckpt_interval: u64,
}

/// Reporter channels one attempt writes into. Always in-process: the
/// in-process drivers drain them after the join; the distributed worker
/// forwards them to the coordinator as they arrive (so checkpoint parts
/// survive a later SIGKILL of the worker).
#[derive(Clone)]
pub(crate) struct Reporters {
    /// Checkpoint parts and sink deliveries, on one FIFO channel.
    pub(crate) coord_tx: Sender<Report>,
    /// Counters of every finished instance.
    pub(crate) stats_tx: Sender<InstanceStats>,
}

/// The receiving ends of [`Reporters`].
pub(crate) struct Reports {
    pub(crate) coord: Receiver<Report>,
    pub(crate) stats: Receiver<InstanceStats>,
}

impl Reporters {
    /// Unbounded reporter channels, so reporting never blocks a worker.
    pub(crate) fn unbounded() -> (Reporters, Reports) {
        let (coord_tx, coord) = unbounded();
        let (stats_tx, stats) = unbounded();
        (Reporters { coord_tx, stats_tx }, Reports { coord, stats })
    }
}

/// One spawned instance: `(instance id, logical node, worker thread)`.
pub(crate) type InstanceHandle = (usize, usize, JoinHandle<Result<()>>);

/// Spawn the worker threads of one attempt, one per chain head.
///
/// When `local` is `Some`, only the instances it contains are spawned (the
/// distributed placement case) — their downstream edges may then resolve to
/// remote proxy senders through `transport`. Source instances publish their
/// running offset in `emitted_counters`, starting at the restored one, so
/// the supervisor can account replay after a failure.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spawn_instances(
    plan: &PhysicalPlan,
    sources: &[Arc<dyn SourceFactory>],
    local: Option<&HashSet<usize>>,
    transport: &dyn Transport,
    receivers: &mut [Option<Receiver<Envelope>>],
    settings: &ExecSettings,
    injector: Option<FaultInjector>,
    restore: &HashMap<usize, Vec<u8>>,
    emitted_counters: &Arc<Vec<AtomicU64>>,
    clock: RunClock,
    reporters: &Reporters,
    tel: Option<&RunTelemetry>,
    restarted: bool,
) -> Result<Vec<InstanceHandle>> {
    let source_nodes = plan.logical.sources();
    if sources.len() != source_nodes.len() {
        return Err(EngineError::Execution(format!(
            "plan has {} source nodes but {} source factories were supplied",
            source_nodes.len(),
            sources.len()
        )));
    }
    let exactly_once = settings.exactly_once;
    let ckpt_interval = settings.ckpt_interval;
    let batch_size = settings.run.batch_size;
    let mut handles = Vec::new();
    let probe_for = |inst: &PhysicalInstance| {
        let probe = Probe::for_instance(tel, inst.id, inst.node, inst.index).with_trace(
            tel,
            &plan.logical.nodes[inst.node].name,
            clock,
        );
        if restarted {
            probe.restart();
        }
        probe
    };
    let heads = plan.chain_heads();
    let sinks = plan.logical.sinks();

    for inst in &plan.instances {
        if let Some(mine) = local {
            if !mine.contains(&inst.id) {
                continue;
            }
        }
        // A chain runs in its head's thread; sources and sinks head
        // chains of one.
        if heads[inst.id] != inst.id {
            continue;
        }
        let members = plan.chain(inst.id);
        let node = &plan.logical.nodes[inst.node];
        let routes = plan.out_routes[*members.last().expect("a chain has a head")].clone();
        let downstream = transport.downstream_for(&routes)?;
        let batcher = EdgeBatcher::new(routes, downstream, batch_size);
        let injector = injector.clone();
        let inst_id = inst.id;
        let lnode = inst.node;
        let index = inst.index;
        let restore_bytes = restore.get(&inst.id).cloned();
        let probe = probe_for(inst);

        match &node.kind {
            OpKind::Source { .. } => {
                let src_pos = source_nodes
                    .iter()
                    .position(|&s| s == inst.node)
                    .ok_or_else(|| {
                        EngineError::Execution(format!(
                            "instance {} references node {} which is not a source",
                            inst.id, inst.node
                        ))
                    })?;
                let factory = Arc::clone(&sources[src_pos]);
                let parallelism = node.parallelism;
                let wm_interval = settings.run.watermark_interval.max(1) as u64;
                let lateness = settings.run.watermark_lateness_ms;
                let stats_tx = reporters.stats_tx.clone();
                let coord_tx = reporters.coord_tx.clone();
                let counter = Arc::clone(emitted_counters);
                let start_offset = decode_position(restore_bytes.as_ref(), "source offset")?;
                let worker = std::thread::spawn(move || -> Result<()> {
                    let mut batcher = batcher;
                    let mut max_et = i64::MIN;
                    let mut emitted = start_offset;
                    counter[inst_id].store(emitted, Ordering::SeqCst);
                    let feed = SourceFeed::spawn(
                        factory,
                        index,
                        parallelism,
                        start_offset,
                        clock,
                        batch_size,
                    );
                    while let Some(tuple) = batcher.next_input(&feed.rx, &probe)? {
                        if let Some(inj) = &injector {
                            inj.check(lnode, index, emitted - start_offset)?;
                        }
                        max_et = max_et.max(tuple.event_time);
                        // Head sampling keys off the absolute source offset,
                        // so a restarted attempt re-traces the same tuples.
                        let traced = probe.trace_sample(emitted);
                        emitted += 1;
                        counter[inst_id].store(emitted, Ordering::SeqCst);
                        if traced {
                            let ctx = probe.trace_source(tuple.emit_ns);
                            batcher.set_active_trace(ctx.map(|c| (c, tuple.emit_ns)));
                        }
                        batcher.scatter(&probe, tuple)?;
                        if traced {
                            batcher.set_active_trace(None);
                        }
                        probe.tuples_out(1);
                        if ckpt_interval > 0 && emitted.is_multiple_of(ckpt_interval) {
                            let id = emitted / ckpt_interval;
                            let ck0 = probe.now_if();
                            let _ =
                                coord_tx.send(Report::Part(id, inst_id, encode_position(emitted)));
                            // Flushing before the barrier pins the barrier to
                            // a batch boundary: every tuple up to `emitted`
                            // precedes it on channel.
                            let barrier = Message::Barrier(id);
                            batcher.flush_then_broadcast(&probe, barrier, FlushReason::Marker)?;
                            if let Some(t0) = ck0 {
                                probe.checkpoint(t0.elapsed().as_nanos() as u64);
                                probe.event(
                                    FlightEventKind::BarrierInjected,
                                    format!("barrier {id} at offset {emitted}"),
                                );
                            }
                        }
                        if emitted.is_multiple_of(wm_interval) {
                            let wm = max_et.saturating_sub(lateness);
                            let wm = Message::Watermark(wm);
                            batcher.flush_then_broadcast(&probe, wm, FlushReason::Marker)?;
                        }
                    }
                    feed.finish();
                    batcher.flush_then_broadcast(&probe, Message::Eos, FlushReason::Eos)?;
                    let _ = stats_tx.send(InstanceStats {
                        node: lnode,
                        tuples_in: emitted,
                        tuples_out: emitted,
                        ..InstanceStats::default()
                    });
                    Ok(())
                });
                handles.push((lnode, index, worker));
            }
            _ => {
                // A sink runs no operator: its log takes what its channels
                // deliver. Otherwise the head's probe is `probe` and the
                // other members get theirs.
                let sink = sinks.contains(&inst.node);
                let mut chain = Vec::new();
                for (pos, &m) in members.iter().enumerate().filter(|_| !sink) {
                    let pi = &plan.instances[m];
                    let member_probe = if pos == 0 {
                        probe.clone()
                    } else {
                        probe_for(pi)
                    };
                    // A tail member's port is its link's; the head's ports
                    // are its channels'.
                    let port = members[..pos]
                        .last()
                        .and_then(|&prev| plan.chain_next[prev])
                        .map_or(0, |link| link.port);
                    let state = restore.get(&m).map(Vec::as_slice);
                    chain.push(Member::new(plan, pi, port, member_probe, settings, state)?);
                }
                let output = if sink {
                    // A sink's checkpoint state is its count, as a source's
                    // is its offset.
                    let restored = decode_position(restore_bytes.as_ref(), "sink count")?;
                    Output::Log(Delivery {
                        inst: *inst,
                        clock,
                        capture_limit: settings.run.capture_limit as u64,
                        restored,
                        count: restored,
                        delta: SinkState::default(),
                    })
                } else {
                    Output::Routes(batcher)
                };
                let what = if sink { "sink" } else { "operator" };
                let overload = &settings.run.overload;
                let worker = ChainWorker {
                    lost: format!("{what} '{}' lost its input channels", node.name),
                    inputs: Inputs::new(plan.channel_ports[inst.id].clone(), exactly_once),
                    rx: receivers
                        .get_mut(inst.id)
                        .and_then(Option::take)
                        .ok_or_else(|| {
                            EngineError::Execution(format!(
                                "internal routing error: no receiver for instance {inst_id}"
                            ))
                        })?,
                    gauge: (overload.enabled && !sink)
                        .then(|| PressureGauge::new(overload, settings.run.frame_capacity())),
                    shedder: Shedder::new(
                        overload.shed_policy.clone(),
                        overload.seed,
                        inst_id as u64,
                    ),
                    shed_fraction: 0.0,
                    batch_size,
                    batch_growth: overload.batch_growth,
                    members: chain,
                    output,
                    probe,
                    injector,
                    reporters: reporters.clone(),
                };
                handles.push((lnode, index, std::thread::spawn(move || worker.run())));
            }
        }
    }
    Ok(handles)
}

/// Where a chain's last member sends its outputs.
enum Output {
    /// Downstream, through the chain's edge batcher.
    Routes(EdgeBatcher),
    /// Into a sink's delivery log.
    Log(Delivery),
}

impl Output {
    /// Send `out` on, continuing `ctx` when the batch it came from was
    /// traced; `out` keeps its capacity.
    fn emit(
        &mut self,
        out: &mut Vec<Tuple>,
        ctx: Option<TraceContext>,
        probe: &Probe,
        injector: Option<&FaultInjector>,
    ) -> Result<()> {
        match self {
            Output::Routes(batcher) => {
                batcher.set_active_trace(ctx.map(|c| (c, probe.trace_now())));
                for t in out.drain(..) {
                    batcher.scatter(probe, t)?;
                }
                batcher.set_active_trace(None);
                Ok(())
            }
            Output::Log(log) => log.deliver(out, ctx, probe, injector),
        }
    }

    /// Flush, then send `msg` on every route; a sink forwards nothing.
    fn broadcast(&mut self, msg: Message, reason: FlushReason, probe: &Probe) -> Result<()> {
        match self {
            // Flush-then-forward keeps a marker at a batch boundary: every
            // tuple before it reaches every downstream channel first.
            Output::Routes(batcher) => batcher.flush_then_broadcast(probe, msg, reason),
            Output::Log(_) => Ok(()),
        }
    }

    /// Finish checkpoint `id` after the members reported their parts: pass
    /// the barrier on, or report the sink's count.
    fn checkpoint(&mut self, id: u64, probe: &Probe, coord_tx: &Sender<Report>) -> Result<()> {
        match self {
            Output::Routes(_) => self.broadcast(Message::Barrier(id), FlushReason::Marker, probe),
            Output::Log(log) => {
                // The delta goes first, so the supervisor always holds
                // every delivery a part counts.
                log.report(coord_tx);
                report_part(probe, coord_tx, log.inst.id, id, || {
                    Ok(encode_position(log.count))
                })
            }
        }
    }
}

/// A sink's delivery log: what it delivered since its last report, and its
/// count, restored from its checkpoint part.
struct Delivery {
    inst: PhysicalInstance,
    clock: RunClock,
    capture_limit: u64,
    /// The count this attempt started from.
    restored: u64,
    count: u64,
    delta: SinkState,
}

impl Delivery {
    /// Deliver `frame`'s tuples (it keeps its capacity), continuing `ctx`.
    /// A traced frame gets a `Deliver` span.
    fn deliver(
        &mut self,
        frame: &mut Vec<Tuple>,
        ctx: Option<TraceContext>,
        probe: &Probe,
        injector: Option<&FaultInjector>,
    ) -> Result<()> {
        if frame.is_empty() {
            return Ok(());
        }
        // A frame's tuples all arrive at one instant, so delivery time is
        // stamped once per frame.
        let now = self.clock.now_ns();
        probe.tuples_in(frame.len() as u64);
        if ctx.is_some() {
            probe.trace_active(ctx);
        }
        for t in frame.drain(..) {
            if let Some(inj) = injector {
                inj.check(self.inst.node, self.inst.index, self.count - self.restored)?;
            }
            let latency = now.saturating_sub(t.emit_ns);
            self.delta.latencies.push(latency);
            probe.latency_ns(latency);
            if self.count < self.capture_limit {
                self.delta.captured.push(t);
            }
            self.count += 1;
        }
        if let Some(c) = ctx {
            probe.trace_span(c, SpanKind::Deliver, now, self.clock.now_ns());
        }
        Ok(())
    }

    /// Hand the deliveries since the last report to the supervisor.
    fn report(&mut self, coord_tx: &Sender<Report>) {
        let delta = std::mem::take(&mut self.delta);
        let _ = coord_tx.send(Report::Delivered(self.inst.id, delta));
    }
}

/// The worker of one chain: its input side, its operator members in the
/// order they process a batch (none for a sink) and its output.
struct ChainWorker {
    /// The error a lost input channel raises.
    lost: String,
    inputs: Inputs,
    rx: Receiver<Envelope>,
    members: Vec<Member>,
    output: Output,
    /// The head's probe.
    probe: Probe,
    /// The overload ladder over the input queue; a sink has none.
    gauge: Option<PressureGauge>,
    shedder: Shedder,
    /// The share of the head's input the gauge last asked to shed.
    shed_fraction: f64,
    batch_size: usize,
    batch_growth: usize,
    injector: Option<FaultInjector>,
    reporters: Reporters,
}

impl ChainWorker {
    /// Run the chain to the end of its input, then report its counters. A
    /// sink reports its deliveries whatever the outcome, so the supervisor
    /// holds them even when the attempt fails.
    fn run(mut self) -> Result<()> {
        let outcome = self.drain();
        if let Output::Log(log) = &mut self.output {
            log.report(&self.reporters.coord_tx);
        }
        outcome?;
        for m in &self.members {
            let _ = self.reporters.stats_tx.send(m.stats());
        }
        if let Output::Log(log) = &self.output {
            let _ = self.reporters.stats_tx.send(InstanceStats {
                node: log.inst.node,
                tuples_in: log.count,
                ..InstanceStats::default()
            });
        }
        Ok(())
    }

    /// Take events until every channel closed, then flush the chain and
    /// send end of stream on.
    fn drain(&mut self) -> Result<()> {
        loop {
            let wait = self.probe.now_if();
            let (output, rx, probe, lost) = (&mut self.output, &self.rx, &self.probe, &self.lost);
            let event = self.inputs.next(|| {
                let env = match output {
                    Output::Routes(batcher) => batcher.next_input(rx, probe)?,
                    // A sink has nothing to flush before it blocks.
                    Output::Log(_) => rx.recv().ok(),
                };
                env.ok_or_else(|| EngineError::Execution(lost.clone()))
            })?;
            let Some(event) = event else { break };
            let work = self.probe.mark_idle(wait);
            for m in self.members.iter().skip(1) {
                m.probe.mark_idle(wait);
            }
            // The queue depth takes the channel lock: read it only for the
            // probe or the overload gauge.
            let depth = if self.probe.enabled() || self.gauge.is_some() {
                self.rx.len()
            } else {
                0
            };
            if self.probe.enabled() {
                self.probe.queue_depth(depth);
            }
            if let (Some(g), Output::Routes(batcher)) = (&self.gauge, &mut self.output) {
                // Escalation ladder: rung from the bounded input queue's
                // occupancy: batches grow above the normal rung, and the
                // shed rung sheds (the fraction is 0 below it).
                let level = g.level(depth);
                self.probe.pressure(level as u64);
                let normal = level == PressureLevel::Normal;
                let growth = if normal { 1 } else { self.batch_growth };
                batcher.set_max(self.batch_size * growth);
                self.shed_fraction = g.shed_fraction(depth);
            }
            let tail_busy = match event {
                Event::Data(port, tuples, trace) => {
                    // Queue span: sender flush (or, distributed, local
                    // re-stamp at the receiving acceptor) → dequeue here.
                    let ctx = trace.map(|ft| {
                        let t_deq = self.probe.trace_now();
                        self.probe
                            .trace_span(ft.ctx, SpanKind::Queue, ft.sent_ns, t_deq)
                    });
                    self.take(port, tuples, ctx, None, None)?
                }
                Event::Watermark(w) => {
                    let signal = Some(Signal::Watermark(w));
                    let tail_busy = self.take(0, Vec::new(), None, signal, signal)?;
                    let wm = Message::Watermark(w);
                    self.output
                        .broadcast(wm, FlushReason::Marker, &self.probe)?;
                    tail_busy
                }
                // The head fires without forwarding the watermark, so the
                // members after it take the results as data only.
                Event::Released(w) => {
                    self.take(0, Vec::new(), None, Some(Signal::Watermark(w)), None)?
                }
                Event::Checkpoint(id) => {
                    for m in &self.members {
                        m.report_part(&self.reporters.coord_tx, id)?;
                    }
                    let coord_tx = &self.reporters.coord_tx;
                    self.output.checkpoint(id, &self.probe, coord_tx)?;
                    Duration::ZERO
                }
            };
            for m in &self.members {
                m.window_state();
            }
            self.probe.mark_busy(work.map(|t0| t0 + tail_busy));
        }
        let signal = Some(Signal::Flush);
        self.take(0, Vec::new(), None, signal, signal)?;
        for m in &self.members {
            m.window_state();
        }
        self.output
            .broadcast(Message::Eos, FlushReason::Eos, &self.probe)?;
        if self.gauge.is_some() {
            // The queue is drained: report the gauge at rest so post-run
            // alarm evaluation sees recovery, not the last mid-storm level.
            self.probe.pressure(PressureLevel::Normal as u64);
        }
        Ok(())
    }

    /// Run one input through the chain and emit what comes out: the head
    /// takes `input` on `port` and fires `head`, each later member takes its
    /// predecessor's whole output and fires `tail`, and the last member's
    /// outputs go to the output. Returns the time the later members spent,
    /// which is theirs and not the head's. A sink has no members, so `input`
    /// itself is delivered.
    fn take(
        &mut self,
        port: usize,
        mut input: Vec<Tuple>,
        ctx: Option<TraceContext>,
        head: Option<Signal>,
        tail: Option<Signal>,
    ) -> Result<Duration> {
        let injector = self.injector.as_ref();
        let mut tail_busy = Duration::ZERO;
        let Some((first, rest)) = self.members.split_first_mut() else {
            self.output.emit(&mut input, ctx, &self.probe, injector)?;
            return Ok(tail_busy);
        };
        let shed = (self.shed_fraction > 0.0).then_some((&mut self.shedder, self.shed_fraction));
        let mut ctx = first.step(port, input, ctx, head, injector, shed)?;
        let mut prev = &mut first.out;
        for m in rest {
            if prev.is_empty() && tail.is_none() {
                return Ok(tail_busy);
            }
            // The buffer left behind is sized for a batch like this one.
            let input = std::mem::replace(prev, Vec::with_capacity(prev.len()));
            let t0 = m.probe.now_if();
            let taken = ctx.or(m.carry.take());
            ctx = m.step(m.port, input, taken, tail, injector, None)?;
            if ctx.is_none() {
                m.carry = taken;
            }
            tail_busy += m.probe.mark_busy(t0);
            prev = &mut m.out;
        }
        self.output.emit(prev, ctx, &self.probe, injector)?;
        Ok(tail_busy)
    }
}

/// What a chain member fires after taking its input.
#[derive(Clone, Copy)]
enum Signal {
    /// The combined input watermark advanced.
    Watermark(i64),
    /// End of all input.
    Flush,
}

/// One operator instance of a chain: its state, counters and probe. The
/// head takes frames from the chain's input channels; every later member
/// takes the previous member's outputs, in the same thread.
struct Member {
    op: Box<dyn OperatorInstance>,
    inst_id: usize,
    node: usize,
    index: usize,
    /// Input port of the chain link feeding this member (unused by the
    /// head, whose ports are its channels').
    port: usize,
    probe: Probe,
    n_in: u64,
    n_out: u64,
    n_shed: u64,
    /// Context of the last traced batch this member took, consumed when a
    /// later pane fire emits results.
    window_ctx: Option<TraceContext>,
    /// Outputs of the last step, until the next member or the batcher
    /// takes them.
    out: Vec<Tuple>,
    /// Context of a traced batch this tail member turned into nothing,
    /// continued by its next batch, as the frame builder of the channel a
    /// link replaces keeps a trace for the tuples that follow it.
    carry: Option<TraceContext>,
}

impl Member {
    fn new(
        plan: &PhysicalPlan,
        inst: &PhysicalInstance,
        port: usize,
        probe: Probe,
        settings: &ExecSettings,
        restore: Option<&[u8]>,
    ) -> Result<Self> {
        let mut op = plan.logical.nodes[inst.node].kind.instantiate();
        if settings.run.overload.allowed_lateness_ms > 0 {
            op.set_allowed_lateness(settings.run.overload.allowed_lateness_ms);
        }
        if let Some(b) = restore {
            op.restore(b)?;
        }
        Ok(Member {
            op,
            inst_id: inst.id,
            node: inst.node,
            index: inst.index,
            port,
            probe,
            n_in: 0,
            n_out: 0,
            n_shed: 0,
            window_ctx: None,
            out: Vec::new(),
            carry: None,
        })
    }

    /// Take `input` on `port` (dropping what `shed` picks), then fire
    /// `signal`; the outputs go to `self.out`, which must be empty, and the
    /// trace context they continue is returned. A traced input gets a
    /// `Process` span on this member. An armed injector observes every
    /// tuple, so the batch is then unrolled to keep fault points at tuple
    /// granularity.
    fn step(
        &mut self,
        port: usize,
        input: Vec<Tuple>,
        ctx: Option<TraceContext>,
        signal: Option<Signal>,
        injector: Option<&FaultInjector>,
        mut shed: Option<(&mut Shedder, f64)>,
    ) -> Result<Option<TraceContext>> {
        let mut out = std::mem::take(&mut self.out);
        let mut ctx = ctx;
        if !input.is_empty() {
            let t0 = if ctx.is_some() {
                self.probe.trace_now()
            } else {
                0
            };
            let len = input.len();
            if let Some(inj) = injector {
                for (i, t) in input.into_iter().enumerate() {
                    inj.check(self.node, self.index, self.n_in)?;
                    self.n_in += 1;
                    self.probe.tuples_in(1);
                    if let Some((shedder, fraction)) = shed.as_mut() {
                        if shedder.should_shed(*fraction, &t, i, len) {
                            self.n_shed += 1;
                            self.probe.shed(1);
                            continue;
                        }
                    }
                    self.op.on_tuple(port, t, &mut out)?;
                }
            } else {
                self.n_in += len as u64;
                self.probe.tuples_in(len as u64);
                let kept = match shed {
                    Some((shedder, fraction)) => {
                        let kept: Vec<Tuple> = input
                            .into_iter()
                            .enumerate()
                            .filter(|(i, t)| !shedder.should_shed(fraction, t, *i, len))
                            .map(|(_, t)| t)
                            .collect();
                        let dropped = (len - kept.len()) as u64;
                        self.n_shed += dropped;
                        self.probe.shed(dropped);
                        kept
                    }
                    None => input,
                };
                self.op.on_batch(port, kept, &mut out)?;
            }
            // Process span: taken → outputs ready.
            if let Some(c) = ctx {
                let c = self
                    .probe
                    .trace_span(c, SpanKind::Process, t0, self.probe.trace_now());
                self.probe.trace_active(Some(c));
                self.window_ctx = Some(c);
                ctx = Some(c);
            }
        }
        if let Some(signal) = signal {
            let before = out.len();
            match signal {
                Signal::Watermark(w) => self.op.on_watermark(w, &mut out),
                Signal::Flush => self.op.on_flush(&mut out),
            }
            let fired = out.len() - before;
            if fired > 0 {
                if let Signal::Watermark(w) = signal {
                    self.probe.event(
                        FlightEventKind::PaneFired,
                        format!("watermark {w}: {fired} results"),
                    );
                }
                // Pane results continue the last traced batch's context
                // (window residency shows as a gap on the critical path).
                let wctx = self.window_ctx.take();
                ctx = ctx.or(wctx);
            }
        }
        self.n_out += out.len() as u64;
        self.probe.tuples_out(out.len() as u64);
        if out.is_empty() {
            ctx = None;
        }
        self.out = out;
        Ok(ctx)
    }

    /// Report this member's part of checkpoint `id`.
    fn report_part(&self, coord_tx: &Sender<Report>, id: u64) -> Result<()> {
        report_part(&self.probe, coord_tx, self.inst_id, id, || {
            self.op.snapshot()
        })
    }

    /// Publish the window counters to the probe.
    fn window_state(&self) {
        if self.probe.enabled() {
            self.probe
                .window_state(self.op.panes_fired(), self.op.late_events());
        }
    }

    fn stats(&self) -> InstanceStats {
        InstanceStats {
            node: self.node,
            tuples_in: self.n_in,
            tuples_out: self.n_out,
            shed: self.n_shed,
            late: self.op.late_events(),
        }
    }
}

/// Report instance `inst`'s part of checkpoint `id`, encoded by `snapshot`
/// (the probe's event names the node and instance), timed on `probe`.
fn report_part(
    probe: &Probe,
    coord_tx: &Sender<Report>,
    inst: usize,
    id: u64,
    snapshot: impl FnOnce() -> Result<Vec<u8>>,
) -> Result<()> {
    let ck0 = probe.now_if();
    let _ = coord_tx.send(Report::Part(id, inst, snapshot()?));
    if let Some(t0) = ck0 {
        probe.checkpoint(t0.elapsed().as_nanos() as u64);
        probe.event(
            FlightEventKind::CheckpointCompleted,
            format!("checkpoint {id}"),
        );
    }
    Ok(())
}

/// One optional entry per instance id.
pub(crate) type Slots<T> = Vec<Option<T>>;

/// The input channels of the instances that receive on one (not sources,
/// not chain tail members), only those in `local` when it is given: bounded
/// to `frame_capacity` frames, senders and receivers indexed by instance id.
pub(crate) fn input_channels(
    plan: &PhysicalPlan,
    local: Option<&HashSet<usize>>,
    frame_capacity: usize,
) -> (Slots<Sender<Envelope>>, Slots<Receiver<Envelope>>) {
    (0..plan.instance_count())
        .map(|i| {
            let hosted = local.is_none_or(|mine| mine.contains(&i));
            if hosted && plan.input_channel_count[i] > 0 {
                let (tx, rx) = bounded(frame_capacity);
                (Some(tx), Some(rx))
            } else {
                (None, None)
            }
        })
        .unzip()
}

/// Everything one attempt reported back to its supervisor.
pub(crate) struct Attempt {
    /// `Err` holds the root cause of a failed attempt.
    pub(crate) outcome: std::result::Result<(), EngineError>,
    /// Checkpoint parts and sink deliveries, in the order they were sent.
    pub(crate) reports: Vec<Report>,
    /// Counters of every instance that finished.
    pub(crate) op_stats: Vec<InstanceStats>,
    /// The source offsets this attempt reached, indexed by instance id; an
    /// instance that reported nothing keeps the position it was restored to.
    pub(crate) offsets: Vec<u64>,
    /// Sink deliveries this attempt was seen to make, reported or not (the
    /// distributed heartbeat count; `0` where every delivery is reported).
    pub(crate) delivered_seen: u64,
}

/// Run one attempt of the whole plan in this process: every instance over a
/// [`SenderTable`], joined before the reports are drained. `Err` is a
/// non-retryable setup failure; a worker failure is [`Attempt::outcome`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_local_attempt(
    plan: &PhysicalPlan,
    sources: &[Arc<dyn SourceFactory>],
    settings: &ExecSettings,
    injector: Option<FaultInjector>,
    restore: &HashMap<usize, Vec<u8>>,
    start: Instant,
    tel: Option<&RunTelemetry>,
    restarted: bool,
) -> Result<Attempt> {
    let emitted: Arc<Vec<AtomicU64>> = Arc::new(
        (0..plan.instance_count())
            .map(|_| AtomicU64::new(0))
            .collect(),
    );
    let (senders, mut receivers) = input_channels(plan, None, settings.run.frame_capacity());
    let transport = SenderTable {
        senders,
        kind: "local",
    };
    let (reporters, reports) = Reporters::unbounded();
    let handles = spawn_instances(
        plan,
        sources,
        None,
        &transport,
        &mut receivers,
        settings,
        injector,
        restore,
        &emitted,
        RunClock::Local(start),
        &reporters,
        tel,
        restarted,
    )?;
    // Drop the driver's copies so receivers see disconnects if a worker dies.
    drop(reporters);
    drop(transport);
    let outcome = match join_instances(handles, tel) {
        Some(e) => Err(e),
        None => Ok(()),
    };
    Ok(Attempt {
        outcome,
        reports: reports.coord.iter().collect(),
        op_stats: reports.stats.iter().collect(),
        offsets: emitted.iter().map(|c| c.load(Ordering::SeqCst)).collect(),
        delivered_seen: 0,
    })
}

/// Fold a successful run into a [`RunResult`]: counters per logical node,
/// `tuples_in` from the source instances' `offsets` (indexed by instance
/// id), and the sink logs concatenated in instance order, each in delivery
/// order, so which rows a `capture_limit` keeps does not depend on thread
/// scheduling.
pub(crate) fn assemble(
    plan: &PhysicalPlan,
    capture_limit: usize,
    logs: BTreeMap<usize, SinkState>,
    op_stats: &[InstanceStats],
    offsets: &[u64],
    start: Instant,
) -> RunResult {
    let mut operator_stats: Vec<OperatorStats> = plan
        .logical
        .nodes
        .iter()
        .map(|node| OperatorStats {
            node: node.id,
            name: node.name.clone(),
            ..OperatorStats::default()
        })
        .collect();
    for s in op_stats {
        let slot = &mut operator_stats[s.node];
        slot.tuples_in += s.tuples_in;
        slot.tuples_out += s.tuples_out;
        slot.shed += s.shed;
        slot.late += s.late;
    }
    let mut result = RunResult {
        sink_tuples: Vec::new(),
        latencies_ns: Vec::new(),
        tuples_out: 0,
        tuples_in: plan.source_instances().iter().map(|&i| offsets[i]).sum(),
        elapsed: Duration::ZERO,
        operator_stats,
    };
    for log in logs.into_values() {
        let room = capture_limit.saturating_sub(result.sink_tuples.len());
        result.tuples_out += log.delivered();
        result
            .sink_tuples
            .extend(log.captured.into_iter().take(room));
        result.latencies_ns.extend(log.latencies);
    }
    result.elapsed = start.elapsed();
    result
}

/// Join an attempt's worker threads, record failures in the flight
/// recorder, and reduce them to the root-cause error (channel-disconnect
/// cascades rank behind the panic or fault that started them).
pub(crate) fn join_instances(
    handles: Vec<InstanceHandle>,
    tel: Option<&RunTelemetry>,
) -> Option<EngineError> {
    let mut errors: Vec<EngineError> = Vec::new();
    for (node, instance, h) in handles {
        match h.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                if let Some(t) = tel {
                    let kind = match &e {
                        EngineError::FaultInjected { .. } => FlightEventKind::FaultInjected,
                        _ => FlightEventKind::WorkerFailed,
                    };
                    t.recorder.record(kind, node, instance, e.to_string());
                }
                errors.push(e);
            }
            Err(payload) => {
                let cause = panic_cause(&*payload);
                if let Some(t) = tel {
                    t.recorder.record(
                        FlightEventKind::WorkerPanicked,
                        node,
                        instance,
                        cause.clone(),
                    );
                }
                errors.push(EngineError::WorkerPanicked {
                    node,
                    instance,
                    cause,
                });
            }
        }
    }
    pick_root_error(errors)
}

/// One worker dying tears down its neighbours through channel disconnects,
/// so several workers usually fail at once. The panic or injected fault
/// that started the cascade is the root cause; generic channel-disconnect
/// `Execution` errors are downstream symptoms and rank last.
fn pick_root_error(errors: Vec<EngineError>) -> Option<EngineError> {
    fn rank(e: &EngineError) -> u8 {
        match e {
            EngineError::WorkerPanicked { .. } | EngineError::FaultInjected { .. } => 0,
            EngineError::Execution(_) => 2,
            _ => 1,
        }
    }
    errors.into_iter().fold(None, |best, e| match best {
        None => Some(e),
        Some(b) if rank(&e) < rank(&b) => Some(e),
        Some(b) => Some(b),
    })
}

/// Extract a human-readable message from a panic payload (the payloads
/// `panic!` produces are `&str` or `String`; anything else is opaque).
fn panic_cause(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::message::Batch;
    use crate::value::Value;
    use Event::{Checkpoint, Released};
    use Message::{Barrier, Eos, Watermark};

    /// What [`Inputs`] over `channels` channels, channel c on port c, hands
    /// out for `script`'s `(channel, message)` pairs, until the script runs
    /// dry or every channel has closed.
    fn events(channels: usize, exactly_once: bool, script: Vec<(usize, Message)>) -> Vec<Event> {
        let mut inputs = Inputs::new((0..channels).collect(), exactly_once);
        let mut script = script.into_iter();
        let mut recv = || match script.next() {
            Some((channel, msg)) => Ok(Envelope { channel, msg }),
            None => Err(EngineError::Execution("script ran dry".into())),
        };
        let mut out = Vec::new();
        while let Ok(Some(event)) = inputs.next(&mut recv) {
            out.push(event);
        }
        out
    }

    fn row(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    /// A frame of `values` on `channel`, and the event it becomes.
    fn frame(channel: usize, values: &[i64]) -> (usize, Message) {
        let batch = Batch::new(values.iter().map(|&v| row(v)).collect());
        (channel, Message::Batch(batch))
    }

    fn data(channel: usize, values: &[i64]) -> Event {
        Event::Data(channel, values.iter().map(|&v| row(v)).collect(), None)
    }

    #[test]
    fn barriers_align_once_every_open_channel_delivered() {
        let script = vec![
            (0, Barrier(1)),
            (1, Barrier(1)),
            frame(2, &[1]),
            (2, Barrier(1)),
        ];
        assert_eq!(events(3, false, script), [data(2, &[1]), Checkpoint(1)]);
        // A closed channel counts as having delivered.
        assert_eq!(
            events(2, false, vec![(1, Eos), (0, Barrier(1))]),
            [Checkpoint(1)]
        );
        // A close completes every outstanding id, in order.
        let script = vec![(0, Barrier(2)), (0, Barrier(1)), (1, Eos)];
        assert_eq!(events(2, false, script), [Checkpoint(1), Checkpoint(2)]);
        // At-least-once: a fast channel delivers barrier 2 before the slow
        // one delivers barrier 1, and nothing blocks it meanwhile.
        let script = vec![
            (0, Barrier(1)),
            (0, Barrier(2)),
            frame(0, &[7]),
            (1, Barrier(1)),
            (1, Barrier(2)),
        ];
        let expected = [data(0, &[7]), Checkpoint(1), Checkpoint(2)];
        assert_eq!(events(2, false, script), expected);
    }

    #[test]
    fn exactly_once_replays_a_blocked_channel_whole_and_in_order() {
        // Channel 0 delivers barrier 1 first; what it sends until channel 1
        // delivers the barrier waits, frames whole and markers in place.
        let script = vec![
            (0, Barrier(1)),
            frame(0, &[1, 2]),
            (0, Watermark(5)),
            (0, Message::Data(row(3))),
            (1, Watermark(7)),
            frame(1, &[9]),
            (1, Barrier(1)),
        ];
        let expected = [
            data(1, &[9]),
            Checkpoint(1),
            data(0, &[1, 2]),
            Event::Watermark(5),
            data(0, &[3]),
        ];
        assert_eq!(events(2, true, script), expected);
    }

    #[test]
    fn end_of_stream_completes_a_barrier_another_channel_delivered() {
        let script = vec![(0, Barrier(1)), frame(0, &[1]), frame(1, &[2]), (1, Eos)];
        let expected = [data(1, &[2]), Checkpoint(1), data(0, &[1])];
        assert_eq!(events(2, true, script), expected);
    }

    #[test]
    fn the_watermark_is_the_channel_minimum_and_never_regresses() {
        let script = vec![
            (0, Watermark(100)),
            (1, Watermark(50)),
            (0, Watermark(200)),
            (1, Watermark(150)),
        ];
        let expected = [Event::Watermark(50), Event::Watermark(150)];
        assert_eq!(events(2, false, script), expected);
        let script = vec![
            (0, Watermark(100)),
            (0, Watermark(90)),
            (0, Watermark(100)),
            (0, Watermark(101)),
        ];
        let expected = [Event::Watermark(100), Event::Watermark(101)];
        assert_eq!(events(1, false, script), expected);
    }

    #[test]
    fn closing_releases_the_watermark_until_the_last_channel_closes() {
        // The last close releases nothing and ends the input: the frame
        // after it is never taken.
        let script = vec![
            (0, Watermark(500)),
            (1, Watermark(600)),
            (2, Eos),
            (0, Eos),
            (1, Eos),
            frame(0, &[1]),
        ];
        assert_eq!(events(3, false, script), [Released(500), Released(600)]);
    }

    #[test]
    fn epoch_clock_is_monotone_against_its_origin() {
        let origin = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_nanos() as u64;
        let clock = RunClock::Epoch(origin);
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
        // A fresh origin yields small offsets (well under an hour).
        assert!(a < 3_600_000_000_000_000);
    }

    /// A sink's checkpoint part is its delivered count, reported after the
    /// deliveries it counts, so checkpoint bytes do not grow with output. At
    /// p = 2 the sink has two channels and aligns barriers exactly-once.
    #[test]
    fn sink_parts_are_counts_that_do_not_grow_with_output() {
        use crate::{builder::PlanBuilder, runtime::VecSource, value::*};
        for p in [1, 2] {
            let logical = PlanBuilder::new()
                .source("src", Schema::of(&[FieldType::Int]), p)
                .sink("sink")
                .build()
                .unwrap();
            let plan = PhysicalPlan::expand(&logical).unwrap();
            let sink = plan.sink_instances()[0];
            // Rows 1 024..5 120 with a barrier every 64 tuples per source:
            // the sources resume at 1 024 together and the sink at 1 024,
            // so every count the sink reports has four digits and the part
            // sizes compare like for like.
            let rows = (0..5_120)
                .map(|i| Tuple::new(vec![Value::Int(i)]))
                .collect();
            let mut restore: HashMap<usize, Vec<u8>> = plan
                .source_instances()
                .into_iter()
                .map(|src| (src, encode_position(1_024 / p as u64)))
                .collect();
            restore.insert(sink, encode_position(1_024));
            let settings = ExecSettings {
                run: RunConfig::default(),
                exactly_once: true,
                ckpt_interval: 64,
            };
            let attempt = run_local_attempt(
                &plan,
                &[VecSource::new(rows)],
                &settings,
                None,
                &restore,
                Instant::now(),
                None,
                true,
            )
            .unwrap();
            attempt.outcome.unwrap();
            let (mut delivered, mut parts) = (1_024, Vec::new());
            for report in attempt.reports {
                match report {
                    Report::Delivered(_, delta) => delivered += delta.delivered(),
                    Report::Part(id, inst, bytes) if inst == sink => {
                        let count = decode_position(Some(&bytes), "sink count").unwrap();
                        assert_eq!(
                            count,
                            id * 64 * p as u64,
                            "p={p}: part {id} counts its barrier"
                        );
                        assert_eq!(count, delivered, "p={p}: part {id} follows its deliveries");
                        parts.push(bytes);
                    }
                    Report::Part(..) => {}
                }
            }
            assert_eq!((delivered, parts.len()), (5_120, 64 / p), "p={p}");
            assert!(parts.last().unwrap().len() <= parts[0].len());
        }
    }
}
