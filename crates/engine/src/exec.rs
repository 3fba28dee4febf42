//! The execution core: the per-attempt worker loops of every backend.
//!
//! One "attempt" spawns a thread per operator chain (see
//! [`crate::chaining`]; an unchained instance is a chain of one) and runs
//! it to completion (or failure). The loops here carry the full protocol
//! stack — micro-batching, watermarks, aligned Chandy–Lamport barriers, the
//! overload-escalation ladder — and are used by three drivers:
//!
//! * [`crate::runtime::ThreadedRuntime`] runs every instance in-process
//!   with barriers off (`ckpt_interval: 0`), through [`run_local_attempt`];
//! * [`crate::fault::FtRuntime`] runs every instance in-process with
//!   barriers on, through [`run_local_attempt`], once per restart;
//! * the distributed worker (see [`crate::distributed`]) runs only the
//!   instances placed on it, over a mesh transport whose remote endpoints
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
use crate::message::{Message, WatermarkTracker};
use crate::operator::{OpKind, OperatorInstance};
use crate::physical::{PhysicalInstance, PhysicalPlan, RouterState};
use crate::pressure::{PressureGauge, PressureLevel, Shedder};
use crate::runtime::{Envelope, OperatorStats, RunConfig, RunResult, SourceFactory};
use crate::telemetry::Probe;
use crate::transport::{LocalTransport, Transport};
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

/// Aligns checkpoint barriers across an instance's input channels. A
/// channel at EOS counts as having delivered every barrier (its prefix is
/// fully processed, so the snapshot stays consistent).
pub(crate) struct BarrierAligner {
    channels: usize,
    received: HashMap<u64, Vec<bool>>,
    closed: Vec<bool>,
}

impl BarrierAligner {
    pub(crate) fn new(channels: usize) -> Self {
        BarrierAligner {
            channels,
            received: HashMap::new(),
            closed: vec![false; channels],
        }
    }

    fn is_complete(&self, id: u64) -> bool {
        let Some(seen) = self.received.get(&id) else {
            return false;
        };
        (0..self.channels).all(|c| seen[c] || self.closed[c])
    }

    /// Record a barrier; returns true when checkpoint `id` just completed.
    pub(crate) fn barrier(&mut self, id: u64, channel: usize) -> bool {
        let seen = self
            .received
            .entry(id)
            .or_insert_with(|| vec![false; self.channels]);
        seen[channel] = true;
        let complete = self.is_complete(id);
        if complete {
            self.received.remove(&id);
        }
        complete
    }

    /// A channel reached EOS; returns ids (ascending) completed by it.
    pub(crate) fn close(&mut self, channel: usize) -> Vec<u64> {
        self.closed[channel] = true;
        let mut done: Vec<u64> = self
            .received
            .keys()
            .copied()
            .filter(|&id| self.is_complete(id))
            .collect();
        done.sort_unstable();
        for id in &done {
            self.received.remove(id);
        }
        done
    }
}

/// What [`next_envelope`] produced.
pub(crate) enum Polled {
    /// A processable envelope (possibly replayed from a pending buffer).
    Frame(Envelope),
    /// The received envelope was buffered (blocked channel); call again.
    Buffered,
    /// All input senders disconnected.
    Lost,
}

/// Pull the next processable envelope: buffered envelopes of unblocked
/// channels first, then whatever `recv` takes from the shared receiver
/// (`Ok(None)` = disconnected) — [`EdgeBatcher::next_input`] for a worker
/// with out-edges, a plain blocking receive for a sink. Frames — batches
/// included — are buffered whole when their channel is blocked, which is
/// what keeps exactly-once blocking correct at batch granularity.
pub(crate) fn next_envelope(
    blocked: &[bool],
    pending: &mut [VecDeque<Envelope>],
    recv: impl FnOnce() -> Result<Option<Envelope>>,
) -> Result<Polled> {
    for (c, queue) in pending.iter_mut().enumerate() {
        if !blocked[c] {
            if let Some(env) = queue.pop_front() {
                return Ok(Polled::Frame(env));
            }
        }
    }
    Ok(match recv()? {
        Some(env) if blocked[env.channel] => {
            pending[env.channel].push_back(env);
            Polled::Buffered
        }
        Some(env) => Polled::Frame(env),
        None => Polled::Lost,
    })
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
        let route_meta = routes;
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
                    let mut router = RouterState::new(route_meta.len());
                    let mut batcher = EdgeBatcher::new(&route_meta, batch_size);
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
                    while let Some(tuple) =
                        batcher.next_input(&feed.rx, &route_meta, &downstream, &probe)?
                    {
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
                        batcher.scatter(&route_meta, &downstream, &mut router, &probe, tuple)?;
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
                            batcher.flush_then_broadcast(
                                &route_meta,
                                &downstream,
                                &probe,
                                Message::Barrier(id),
                                FlushReason::Marker,
                            )?;
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
                            batcher.flush_then_broadcast(
                                &route_meta,
                                &downstream,
                                &probe,
                                Message::Watermark(wm),
                                FlushReason::Marker,
                            )?;
                        }
                    }
                    feed.finish();
                    batcher.flush_then_broadcast(
                        &route_meta,
                        &downstream,
                        &probe,
                        Message::Eos,
                        FlushReason::Eos,
                    )?;
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
            OpKind::Sink => {
                let rx = take_receiver(receivers, inst.id)?;
                let channels = plan.input_channel_count[inst.id];
                let stats_tx = reporters.stats_tx.clone();
                let coord_tx = reporters.coord_tx.clone();
                let capture_limit = settings.run.capture_limit as u64;
                let name = node.name.clone();
                // A sink's checkpoint state is its count, as a source's is its offset.
                let restored = decode_position(restore_bytes.as_ref(), "sink count")?;
                let worker = std::thread::spawn(move || -> Result<()> {
                    let mut count = restored;
                    // Deliveries since the last report.
                    let mut delta = SinkState::default();
                    let report = |delta: &mut SinkState| {
                        let _ = coord_tx.send(Report::Delivered(inst_id, std::mem::take(delta)));
                    };
                    // The delta goes first, so the supervisor always holds
                    // every delivery a part counts.
                    let checkpoint = |id: u64, count: u64, delta: &mut SinkState| {
                        report(delta);
                        report_part(&probe, &coord_tx, inst_id, id, || {
                            Ok(encode_position(count))
                        })
                    };
                    let mut aligner = BarrierAligner::new(channels);
                    let mut blocked = vec![false; channels];
                    let mut pending: Vec<VecDeque<Envelope>> =
                        (0..channels).map(|_| VecDeque::new()).collect();
                    let mut closed = 0usize;
                    let mut seen_this_attempt = 0u64;
                    while closed < channels {
                        let wait = probe.now_if();
                        // Sinks send nothing downstream, so there is nothing
                        // to flush before blocking.
                        let recv = || Ok(rx.recv().ok());
                        let env = match next_envelope(&blocked, &mut pending, recv)? {
                            Polled::Frame(env) => env,
                            Polled::Lost => {
                                // Upstream died: hand what was delivered to
                                // the supervisor before erroring.
                                report(&mut delta);
                                return Err(EngineError::Execution(format!(
                                    "sink '{name}' lost its input channels"
                                )));
                            }
                            Polled::Buffered => continue,
                        };
                        let work = probe.mark_idle(wait);
                        if probe.enabled() {
                            probe.queue_depth(rx.len());
                        }
                        // A frame's tuples all arrive at one instant, so
                        // delivery time is stamped once per frame.
                        let deliver =
                            |t: Tuple, now: u64, count: &mut u64, delta: &mut SinkState| {
                                let latency = now.saturating_sub(t.emit_ns);
                                delta.latencies.push(latency);
                                probe.latency_ns(latency);
                                if *count < capture_limit {
                                    delta.captured.push(t);
                                }
                                *count += 1;
                            };
                        match env.msg {
                            Message::Data(t) => {
                                if let Some(inj) = &injector {
                                    if let Err(e) = inj.check(lnode, index, seen_this_attempt) {
                                        report(&mut delta);
                                        return Err(e);
                                    }
                                }
                                seen_this_attempt += 1;
                                let now = clock.now_ns();
                                probe.tuples_in(1);
                                deliver(t, now, &mut count, &mut delta);
                            }
                            Message::Batch(b) => {
                                let now = clock.now_ns();
                                probe.tuples_in(b.len() as u64);
                                // Queue span: sender flush (or, distributed,
                                // local re-stamp at the receiving acceptor) →
                                // sink dequeue.
                                let tctx = b.trace.map(|ft| {
                                    probe.trace_span(ft.ctx, SpanKind::Queue, ft.sent_ns, now)
                                });
                                if let Some(c) = tctx {
                                    probe.trace_active(Some(c));
                                }
                                for t in b.tuples {
                                    if let Some(inj) = &injector {
                                        if let Err(e) = inj.check(lnode, index, seen_this_attempt) {
                                            report(&mut delta);
                                            return Err(e);
                                        }
                                    }
                                    seen_this_attempt += 1;
                                    deliver(t, now, &mut count, &mut delta);
                                }
                                if let Some(ctx) = tctx {
                                    probe.trace_span(ctx, SpanKind::Deliver, now, clock.now_ns());
                                }
                            }
                            Message::Watermark(_) => {}
                            Message::Barrier(id) => {
                                if aligner.barrier(id, env.channel) {
                                    checkpoint(id, count, &mut delta)?;
                                    blocked.iter_mut().for_each(|b| *b = false);
                                } else if exactly_once {
                                    blocked[env.channel] = true;
                                }
                            }
                            Message::Eos => {
                                closed += 1;
                                blocked[env.channel] = false;
                                for id in aligner.close(env.channel) {
                                    checkpoint(id, count, &mut delta)?;
                                    blocked.iter_mut().for_each(|b| *b = false);
                                }
                            }
                        }
                        probe.mark_busy(work);
                    }
                    report(&mut delta);
                    let _ = stats_tx.send(InstanceStats {
                        node: lnode,
                        tuples_in: count,
                        ..InstanceStats::default()
                    });
                    Ok(())
                });
                handles.push((lnode, index, worker));
            }
            _ => {
                // The head's probe is `probe`; the other members get theirs.
                let mut chain = Vec::with_capacity(members.len());
                for (pos, &m) in members.iter().enumerate() {
                    let pi = &plan.instances[m];
                    let member_probe = if pos == 0 {
                        probe.clone()
                    } else {
                        probe_for(pi)
                    };
                    // A tail member's port is its link's; the head's
                    // ports are its channels'.
                    let port = members[..pos]
                        .last()
                        .and_then(|&prev| plan.chain_next[prev])
                        .map_or(0, |link| link.port);
                    chain.push(Member::new(
                        plan,
                        pi,
                        port,
                        member_probe,
                        settings,
                        restore.get(&m).map(Vec::as_slice),
                    )?);
                }
                let rx = take_receiver(receivers, inst.id)?;
                let channels = plan.input_channel_count[inst.id];
                let ports = plan.channel_ports[inst.id].clone();
                let name = node.name.clone();
                let stats_tx = reporters.stats_tx.clone();
                let coord_tx = reporters.coord_tx.clone();
                let overload = settings.run.overload.clone();
                let gauge = overload
                    .enabled
                    .then(|| PressureGauge::new(&overload, settings.run.frame_capacity()));
                let mut shedder =
                    Shedder::new(overload.shed_policy.clone(), overload.seed, inst.id as u64);
                let worker = std::thread::spawn(move || -> Result<()> {
                    let injector = injector.as_ref();
                    let mut router = RouterState::new(route_meta.len());
                    let mut batcher = EdgeBatcher::new(&route_meta, batch_size);
                    let mut tracker = WatermarkTracker::new(channels);
                    let mut aligner = BarrierAligner::new(channels);
                    let mut blocked = vec![false; channels];
                    let mut pending: Vec<VecDeque<Envelope>> =
                        (0..channels).map(|_| VecDeque::new()).collect();
                    let mut closed = 0usize;
                    let mut shed_fraction = 0.0f64;
                    // Scatter the last member's outputs downstream (its
                    // buffer keeps its capacity), continuing `ctx` when the
                    // batch they came from was traced.
                    let mut emit = |batcher: &mut EdgeBatcher,
                                    chain: &mut [Member],
                                    ctx: Option<TraceContext>|
                     -> Result<()> {
                        let out = &mut chain.last_mut().expect("a chain has a head").out;
                        batcher.set_active_trace(ctx.map(|c| (c, probe.trace_now())));
                        for t in out.drain(..) {
                            batcher.scatter(&route_meta, &downstream, &mut router, &probe, t)?;
                        }
                        batcher.set_active_trace(None);
                        Ok(())
                    };
                    while closed < channels {
                        let wait = probe.now_if();
                        let recv = || batcher.next_input(&rx, &route_meta, &downstream, &probe);
                        let env = match next_envelope(&blocked, &mut pending, recv)? {
                            Polled::Frame(env) => env,
                            Polled::Lost => {
                                return Err(EngineError::Execution(format!(
                                    "operator '{name}' lost its input channels"
                                )));
                            }
                            Polled::Buffered => continue,
                        };
                        let work = probe.mark_idle(wait);
                        for m in &chain[1..] {
                            m.probe.mark_idle(wait);
                        }
                        // The queue depth takes the channel lock: read it
                        // only for the probe or the overload gauge.
                        let depth = if probe.enabled() || gauge.is_some() {
                            rx.len()
                        } else {
                            0
                        };
                        if probe.enabled() {
                            probe.queue_depth(depth);
                        }
                        if let Some(g) = &gauge {
                            // Escalation ladder: rung from the bounded input
                            // queue's occupancy.
                            let level = g.level(depth);
                            probe.pressure(level as u64);
                            match level {
                                PressureLevel::Normal => {
                                    batcher.set_max(batch_size);
                                    shed_fraction = 0.0;
                                }
                                PressureLevel::Batch => {
                                    batcher.set_max(batch_size * overload.batch_growth);
                                    shed_fraction = 0.0;
                                }
                                PressureLevel::Shed => {
                                    batcher.set_max(batch_size * overload.batch_growth);
                                    shed_fraction = g.shed_fraction(depth);
                                }
                            }
                        }
                        // Time the tail members spent, which is theirs and
                        // not the head's.
                        let mut tail_busy = Duration::ZERO;
                        let shed = (shed_fraction > 0.0).then_some((&mut shedder, shed_fraction));
                        match env.msg {
                            Message::Data(t) => {
                                let port = ports[env.channel];
                                let ctx =
                                    chain[0].step(port, vec![t], None, None, injector, shed)?;
                                let ctx = cascade(&mut chain, ctx, None, injector, &mut tail_busy)?;
                                emit(&mut batcher, &mut chain, ctx)?;
                            }
                            Message::Batch(b) => {
                                let port = ports[env.channel];
                                // Queue span: sender flush → dequeue here.
                                let ctx = b.trace.map(|ft| {
                                    let t_deq = clock.now_ns();
                                    probe.trace_span(ft.ctx, SpanKind::Queue, ft.sent_ns, t_deq)
                                });
                                let ctx =
                                    chain[0].step(port, b.tuples, ctx, None, injector, shed)?;
                                let ctx = cascade(&mut chain, ctx, None, injector, &mut tail_busy)?;
                                emit(&mut batcher, &mut chain, ctx)?;
                            }
                            Message::Watermark(wm) => {
                                if let Some(w) = tracker.observe(env.channel, wm) {
                                    let signal = Some(Signal::Watermark(w));
                                    let ctx = chain[0].step(
                                        0,
                                        Vec::new(),
                                        None,
                                        signal,
                                        injector,
                                        None,
                                    )?;
                                    let ctx =
                                        cascade(&mut chain, ctx, signal, injector, &mut tail_busy)?;
                                    emit(&mut batcher, &mut chain, ctx)?;
                                    batcher.flush_then_broadcast(
                                        &route_meta,
                                        &downstream,
                                        &probe,
                                        Message::Watermark(w),
                                        FlushReason::Marker,
                                    )?;
                                }
                            }
                            Message::Barrier(id) => {
                                if aligner.barrier(id, env.channel) {
                                    for m in &chain {
                                        m.report_part(&coord_tx, id)?;
                                    }
                                    // Flush-then-forward keeps the barrier at
                                    // a batch boundary: all pre-checkpoint
                                    // tuples reach every downstream channel
                                    // before the barrier does.
                                    batcher.flush_then_broadcast(
                                        &route_meta,
                                        &downstream,
                                        &probe,
                                        Message::Barrier(id),
                                        FlushReason::Marker,
                                    )?;
                                    blocked.iter_mut().for_each(|b| *b = false);
                                } else if exactly_once {
                                    blocked[env.channel] = true;
                                }
                            }
                            Message::Eos => {
                                closed += 1;
                                blocked[env.channel] = false;
                                for id in aligner.close(env.channel) {
                                    for m in &chain {
                                        m.report_part(&coord_tx, id)?;
                                    }
                                    batcher.flush_then_broadcast(
                                        &route_meta,
                                        &downstream,
                                        &probe,
                                        Message::Barrier(id),
                                        FlushReason::Marker,
                                    )?;
                                    blocked.iter_mut().for_each(|b| *b = false);
                                }
                                if let Some(w) = tracker.close_channel(env.channel) {
                                    if closed < channels {
                                        // The head fires without forwarding
                                        // the watermark, so the members after
                                        // it take the results as data only.
                                        let ctx = chain[0].step(
                                            0,
                                            Vec::new(),
                                            None,
                                            Some(Signal::Watermark(w)),
                                            injector,
                                            None,
                                        )?;
                                        let ctx = cascade(
                                            &mut chain,
                                            ctx,
                                            None,
                                            injector,
                                            &mut tail_busy,
                                        )?;
                                        emit(&mut batcher, &mut chain, ctx)?;
                                    }
                                }
                            }
                        }
                        for m in &chain {
                            m.window_state();
                        }
                        probe.mark_busy(work.map(|t0| t0 + tail_busy));
                    }
                    let signal = Some(Signal::Flush);
                    let mut tail_busy = Duration::ZERO;
                    let ctx = chain[0].step(0, Vec::new(), None, signal, injector, None)?;
                    let ctx = cascade(&mut chain, ctx, signal, injector, &mut tail_busy)?;
                    for m in &chain {
                        m.window_state();
                    }
                    emit(&mut batcher, &mut chain, ctx)?;
                    batcher.flush_then_broadcast(
                        &route_meta,
                        &downstream,
                        &probe,
                        Message::Eos,
                        FlushReason::Eos,
                    )?;
                    if gauge.is_some() {
                        // The queue is drained: report the gauge at rest so
                        // post-run alarm evaluation sees recovery, not the
                        // last mid-storm level.
                        probe.pressure(PressureLevel::Normal as u64);
                    }
                    for m in &chain {
                        let _ = stats_tx.send(m.stats());
                    }
                    Ok(())
                });
                handles.push((lnode, index, worker));
            }
        }
    }
    Ok(handles)
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

/// Pass the head's outputs, continuing `ctx`, through the other members
/// of `chain`, each taking the whole batch and then firing `signal` before
/// the next; returns the context the last member's outputs continue. Their
/// time is added to `tail_busy`.
fn cascade(
    chain: &mut [Member],
    mut ctx: Option<TraceContext>,
    signal: Option<Signal>,
    injector: Option<&FaultInjector>,
    tail_busy: &mut Duration,
) -> Result<Option<TraceContext>> {
    for j in 1..chain.len() {
        let (before, after) = chain.split_at_mut(j);
        let prev = &mut before[j - 1].out;
        if prev.is_empty() && signal.is_none() {
            return Ok(None);
        }
        // The buffer left behind is sized for a batch like this one.
        let input = std::mem::replace(prev, Vec::with_capacity(prev.len()));
        let m = &mut after[0];
        let t0 = m.probe.now_if();
        let taken = ctx.or(m.carry.take());
        ctx = m.step(m.port, input, taken, signal, injector, None)?;
        if ctx.is_none() {
            m.carry = taken;
        }
        *tail_busy += m.probe.mark_busy(t0);
    }
    Ok(ctx)
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
/// [`LocalTransport`], joined before the reports are drained. `Err` is a
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
    let (senders, mut receivers): (Vec<_>, Vec<_>) = (0..plan.instance_count())
        .map(|_| {
            let (tx, rx) = bounded::<Envelope>(settings.run.frame_capacity());
            (tx, Some(rx))
        })
        .unzip();
    let transport = LocalTransport::new(senders);
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

/// Take an instance's receiver out of the shared table exactly once.
fn take_receiver(
    receivers: &mut [Option<Receiver<Envelope>>],
    id: usize,
) -> Result<Receiver<Envelope>> {
    receivers.get_mut(id).and_then(Option::take).ok_or_else(|| {
        EngineError::Execution(format!(
            "internal routing error: receiver for instance {id} missing or already taken"
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligner_completes_when_all_channels_deliver() {
        let mut a = BarrierAligner::new(3);
        assert!(!a.barrier(1, 0));
        assert!(!a.barrier(1, 1));
        assert!(a.barrier(1, 2));
    }

    #[test]
    fn aligner_counts_closed_channels_as_delivered() {
        let mut a = BarrierAligner::new(2);
        assert!(a.close(1).is_empty());
        assert!(a.barrier(1, 0), "closed channel no longer constrains");
    }

    #[test]
    fn aligner_close_completes_outstanding_ids_in_order() {
        let mut a = BarrierAligner::new(2);
        assert!(!a.barrier(2, 0));
        assert!(!a.barrier(1, 0));
        assert_eq!(a.close(1), vec![1, 2]);
    }

    #[test]
    fn aligner_tracks_multiple_outstanding_ids() {
        // At-least-once: a fast channel delivers barrier 2 before the slow
        // one delivers barrier 1.
        let mut a = BarrierAligner::new(2);
        assert!(!a.barrier(1, 0));
        assert!(!a.barrier(2, 0));
        assert!(a.barrier(1, 1));
        assert!(a.barrier(2, 1));
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
    /// deliveries it counts, so checkpoint bytes do not grow with output.
    #[test]
    fn sink_parts_are_counts_that_do_not_grow_with_output() {
        use crate::{builder::PlanBuilder, runtime::VecSource, value::*};
        let logical = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int]), 1)
            .sink("sink")
            .build()
            .unwrap();
        let plan = PhysicalPlan::expand(&logical).unwrap();
        let (src, sink) = (plan.source_instances()[0], plan.sink_instances()[0]);
        // Rows 1 024..5 120 with a barrier every 64: source and sink resume
        // at 1 024, so every count the sink reports has four digits and the
        // part sizes compare like for like.
        let rows = (0..5_120)
            .map(|i| Tuple::new(vec![Value::Int(i)]))
            .collect();
        let start = encode_position(1_024);
        let restore = HashMap::from([(src, start.clone()), (sink, start)]);
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
                    assert_eq!(count, id * 64, "part {id} counts its barrier");
                    assert_eq!(count, delivered, "part {id} follows its deliveries");
                    parts.push(bytes);
                }
                Report::Part(..) => {}
            }
        }
        assert_eq!((delivered, parts.len()), (5_120, 64));
        assert!(parts.last().unwrap().len() <= parts[0].len());
    }
}
