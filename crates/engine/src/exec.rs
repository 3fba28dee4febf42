//! Shared per-attempt execution loops.
//!
//! One "attempt" spawns a thread per physical instance and runs it to
//! completion (or failure). The loops here carry the full protocol stack —
//! micro-batching, watermarks, aligned Chandy–Lamport barriers, the
//! overload-escalation ladder — and are used by two drivers:
//!
//! * [`crate::fault::FtRuntime`] runs every instance in-process over a
//!   [`crate::transport::LocalTransport`];
//! * the distributed worker (see [`crate::distributed`]) runs only the
//!   instances placed on it, over a mesh transport whose remote endpoints
//!   serialize frames onto TCP connections.
//!
//! The loops are transport-agnostic: downstream edges are plain
//! `Sender<Envelope>` handed out by a [`Transport`], and everything an
//! attempt reports — checkpoint parts, sink states, per-instance counters —
//! flows through in-process reporter channels that the driver either drains
//! locally or forwards over the wire.

use crate::batch::{EdgeBatcher, FlushReason};
use crate::error::{EngineError, Result};
use crate::fault::FaultInjector;
use crate::message::{Message, WatermarkTracker};
use crate::operator::{OpKind, OperatorInstance};
use crate::physical::{PhysicalPlan, RouterState};
use crate::pressure::{PressureGauge, PressureLevel, Shedder};
use crate::runtime::SourceFactory;
use crate::runtime::{panic_cause, pick_root_error, take_receiver, Envelope, RunConfig};
use crate::telemetry::Probe;
use crate::transport::Transport;
use crate::value::Tuple;
use crossbeam_channel::{Receiver, Sender};
use pdsp_telemetry::{FlightEventKind, RunTelemetry, SpanKind, TraceContext};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

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

/// Sink-side state captured in checkpoints (and, at-least-once, carried
/// across restarts from the failure-time partial).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct SinkState {
    pub(crate) captured: Vec<Tuple>,
    pub(crate) latencies: Vec<u64>,
    pub(crate) total: u64,
}

/// Serialize a snapshot payload (checkpoint part, source offset, …).
pub(crate) fn encode<T: Serialize>(value: &T, what: &str) -> Result<Vec<u8>> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| EngineError::Checkpoint(format!("{what} snapshot: {e}")))
}

/// Inverse of [`encode`].
pub(crate) fn decode<T: serde::Deserialize>(bytes: &[u8], what: &str) -> Result<T> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| EngineError::Checkpoint(format!("{what} snapshot not utf-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| EngineError::Checkpoint(format!("{what} restore: {e}")))
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
    /// Source barrier cadence in tuples.
    pub(crate) ckpt_interval: u64,
}

/// Reporter channels one attempt writes into. Always in-process: the
/// fault-tolerant runtime drains them after the join; the distributed
/// worker forwards them to the coordinator as they arrive (so checkpoint
/// parts survive a later SIGKILL of the worker).
#[derive(Clone)]
pub(crate) struct Reporters {
    /// `(checkpoint id, instance id, state bytes)` parts.
    pub(crate) coord_tx: Sender<(u64, usize, Vec<u8>)>,
    /// Final (on success) or partial (on failure) sink states by instance.
    pub(crate) sink_tx: Sender<(usize, SinkState)>,
    /// `(logical node, in, out, shed, late)` per finished instance.
    pub(crate) stats_tx: Sender<(usize, u64, u64, u64, u64)>,
}

/// One spawned instance: `(instance id, logical node, worker thread)`.
pub(crate) type InstanceHandle = (usize, usize, JoinHandle<Result<()>>);

/// Spawn the worker threads of one attempt.
///
/// When `local` is `Some`, only the instances it contains are spawned (the
/// distributed placement case) — their downstream edges may then resolve to
/// remote proxy senders through `transport`. `emitted_counters` is shared
/// across attempts: source instances publish their running offset there so
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
    let exactly_once = settings.exactly_once;
    let ckpt_interval = settings.ckpt_interval;
    let batch_size = settings.run.batch_size;
    let mut handles = Vec::new();

    for inst in &plan.instances {
        if let Some(mine) = local {
            if !mine.contains(&inst.id) {
                continue;
            }
        }
        let node = &plan.logical.nodes[inst.node];
        let routes = plan.out_routes[inst.id].clone();
        let downstream = transport.downstream_for(&routes)?;
        let route_meta = routes;
        let injector = injector.clone();
        let inst_id = inst.id;
        let lnode = inst.node;
        let index = inst.index;
        let restore_bytes = restore.get(&inst.id).cloned();
        let probe = Probe::for_instance(tel, inst.id, inst.node, inst.index)
            .with_trace(tel, &node.name, clock);
        if restarted {
            probe.restart();
        }

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
                let start_offset = restore_bytes
                    .as_deref()
                    .map(|b| decode::<u64>(b, "source offset"))
                    .transpose()?
                    .unwrap_or(0);
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
                                coord_tx.send((id, inst_id, encode(&emitted, "source offset")?));
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
                    let _ = stats_tx.send((lnode, emitted, emitted, 0, 0));
                    Ok(())
                });
                handles.push((lnode, index, worker));
            }
            OpKind::Sink => {
                let rx = take_receiver(receivers, inst.id)?;
                let channels = plan.input_channel_count[inst.id];
                let sink_tx = reporters.sink_tx.clone();
                let stats_tx = reporters.stats_tx.clone();
                let coord_tx = reporters.coord_tx.clone();
                let capture_limit = settings.run.capture_limit;
                let name = node.name.clone();
                let worker = std::thread::spawn(move || -> Result<()> {
                    let mut st = match restore_bytes.as_deref() {
                        Some(b) => decode::<SinkState>(b, "sink")?,
                        None => SinkState::default(),
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
                                // Upstream died: hand the partial state to
                                // the supervisor before erroring.
                                let _ = sink_tx.send((inst_id, st));
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
                        let deliver = |t: Tuple, now: u64, st: &mut SinkState| {
                            let latency = now.saturating_sub(t.emit_ns);
                            st.latencies.push(latency);
                            probe.latency_ns(latency);
                            st.total += 1;
                            if st.captured.len() < capture_limit {
                                st.captured.push(t);
                            }
                        };
                        match env.msg {
                            Message::Data(t) => {
                                if let Some(inj) = &injector {
                                    if let Err(e) = inj.check(lnode, index, seen_this_attempt) {
                                        let _ = sink_tx.send((inst_id, st));
                                        return Err(e);
                                    }
                                }
                                seen_this_attempt += 1;
                                let now = clock.now_ns();
                                probe.tuples_in(1);
                                deliver(t, now, &mut st);
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
                                            let _ = sink_tx.send((inst_id, st));
                                            return Err(e);
                                        }
                                    }
                                    seen_this_attempt += 1;
                                    deliver(t, now, &mut st);
                                }
                                if let Some(ctx) = tctx {
                                    probe.trace_span(ctx, SpanKind::Deliver, now, clock.now_ns());
                                }
                            }
                            Message::Watermark(_) => {}
                            Message::Barrier(id) => {
                                if aligner.barrier(id, env.channel) {
                                    let ck0 = probe.now_if();
                                    let _ = coord_tx.send((id, inst_id, encode(&st, "sink")?));
                                    if let Some(t0) = ck0 {
                                        probe.checkpoint(t0.elapsed().as_nanos() as u64);
                                        probe.event(
                                            FlightEventKind::CheckpointCompleted,
                                            format!("sink checkpoint {id}"),
                                        );
                                    }
                                    blocked.iter_mut().for_each(|b| *b = false);
                                } else if exactly_once {
                                    blocked[env.channel] = true;
                                }
                            }
                            Message::Eos => {
                                closed += 1;
                                blocked[env.channel] = false;
                                for id in aligner.close(env.channel) {
                                    let ck0 = probe.now_if();
                                    let _ = coord_tx.send((id, inst_id, encode(&st, "sink")?));
                                    if let Some(t0) = ck0 {
                                        probe.checkpoint(t0.elapsed().as_nanos() as u64);
                                        probe.event(
                                            FlightEventKind::CheckpointCompleted,
                                            format!("sink checkpoint {id} (at EOS)"),
                                        );
                                    }
                                    blocked.iter_mut().for_each(|b| *b = false);
                                }
                            }
                        }
                        probe.mark_busy(work);
                    }
                    let _ = stats_tx.send((lnode, st.total, 0, 0, 0));
                    let _ = sink_tx.send((inst_id, st));
                    Ok(())
                });
                handles.push((lnode, index, worker));
            }
            kind => {
                let mut op = kind.instantiate();
                if settings.run.overload.allowed_lateness_ms > 0 {
                    op.set_allowed_lateness(settings.run.overload.allowed_lateness_ms);
                }
                if let Some(b) = restore_bytes.as_deref() {
                    op.restore(b)?;
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
                    let mut router = RouterState::new(route_meta.len());
                    let mut batcher = EdgeBatcher::new(&route_meta, batch_size);
                    let mut tracker = WatermarkTracker::new(channels);
                    let mut aligner = BarrierAligner::new(channels);
                    let mut blocked = vec![false; channels];
                    let mut pending: Vec<VecDeque<Envelope>> =
                        (0..channels).map(|_| VecDeque::new()).collect();
                    let mut out = Vec::new();
                    let mut closed = 0usize;
                    let (mut n_in, mut n_out, mut n_shed) = (0u64, 0u64, 0u64);
                    let mut shed_fraction = 0.0f64;
                    // Context of the last traced frame absorbed by a windowed
                    // operator, consumed when a later pane fire emits results.
                    let mut window_ctx: Option<TraceContext> = None;
                    let checkpoint =
                        |op: &dyn OperatorInstance, id: u64, probe: &Probe| -> Result<()> {
                            let ck0 = probe.now_if();
                            let _ = coord_tx.send((id, inst_id, op.snapshot()?));
                            if let Some(t0) = ck0 {
                                probe.checkpoint(t0.elapsed().as_nanos() as u64);
                                probe.event(
                                    FlightEventKind::CheckpointCompleted,
                                    format!("operator checkpoint {id}"),
                                );
                            }
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
                        let depth = rx.len();
                        if probe.enabled() {
                            probe.queue_depth(depth);
                        }
                        if let Some(g) = &gauge {
                            // Escalation ladder: rung from the bounded input
                            // queue's occupancy — identical to the threaded
                            // runtime, so the overload books balance
                            // regardless of where the instance runs.
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
                        match env.msg {
                            Message::Data(t) => {
                                if let Some(inj) = &injector {
                                    inj.check(lnode, index, n_in)?;
                                }
                                n_in += 1;
                                probe.tuples_in(1);
                                if shed_fraction > 0.0
                                    && shedder.should_shed(shed_fraction, &t, 0, 1)
                                {
                                    n_shed += 1;
                                    probe.shed(1);
                                    probe.mark_busy(work);
                                    continue;
                                }
                                out.clear();
                                op.on_tuple(ports[env.channel], t, &mut out)?;
                                n_out += out.len() as u64;
                                probe.tuples_out(out.len() as u64);
                                for t in out.drain(..) {
                                    batcher.scatter(
                                        &route_meta,
                                        &downstream,
                                        &mut router,
                                        &probe,
                                        t,
                                    )?;
                                }
                            }
                            Message::Batch(b) => {
                                let port = ports[env.channel];
                                let frame_len = b.tuples.len();
                                let ftrace = b.trace;
                                let t_deq = if ftrace.is_some() { clock.now_ns() } else { 0 };
                                out.clear();
                                if injector.is_some() {
                                    // Fault triggers count individual tuples,
                                    // so an armed injector must observe each
                                    // one — the batch is unrolled to keep
                                    // fault points at tuple granularity.
                                    for (i, t) in b.tuples.into_iter().enumerate() {
                                        if let Some(inj) = &injector {
                                            inj.check(lnode, index, n_in)?;
                                        }
                                        n_in += 1;
                                        probe.tuples_in(1);
                                        if shed_fraction > 0.0
                                            && shedder.should_shed(shed_fraction, &t, i, frame_len)
                                        {
                                            n_shed += 1;
                                            probe.shed(1);
                                            continue;
                                        }
                                        op.on_tuple(port, t, &mut out)?;
                                    }
                                } else {
                                    n_in += frame_len as u64;
                                    probe.tuples_in(frame_len as u64);
                                    let tuples = if shed_fraction > 0.0 {
                                        let mut kept = Vec::with_capacity(frame_len);
                                        let mut dropped = 0u64;
                                        for (i, t) in b.tuples.into_iter().enumerate() {
                                            if shedder.should_shed(shed_fraction, &t, i, frame_len)
                                            {
                                                dropped += 1;
                                            } else {
                                                kept.push(t);
                                            }
                                        }
                                        n_shed += dropped;
                                        probe.shed(dropped);
                                        kept
                                    } else {
                                        b.tuples
                                    };
                                    op.on_batch(port, tuples, &mut out)?;
                                }
                                n_out += out.len() as u64;
                                probe.tuples_out(out.len() as u64);
                                // Queue span: sender flush → dequeue here;
                                // Process span: dequeue → outputs ready.
                                let out_ctx = ftrace.map(|ft| {
                                    let ctx = probe.trace_span(
                                        ft.ctx,
                                        SpanKind::Queue,
                                        ft.sent_ns,
                                        t_deq,
                                    );
                                    let done = probe.trace_now();
                                    (probe.trace_span(ctx, SpanKind::Process, t_deq, done), done)
                                });
                                if let Some((c, _)) = out_ctx {
                                    probe.trace_active(Some(c));
                                    window_ctx = Some(c);
                                }
                                batcher.set_active_trace(out_ctx);
                                for t in out.drain(..) {
                                    batcher.scatter(
                                        &route_meta,
                                        &downstream,
                                        &mut router,
                                        &probe,
                                        t,
                                    )?;
                                }
                                batcher.set_active_trace(None);
                            }
                            Message::Watermark(wm) => {
                                if let Some(w) = tracker.observe(env.channel, wm) {
                                    out.clear();
                                    op.on_watermark(w, &mut out);
                                    n_out += out.len() as u64;
                                    probe.tuples_out(out.len() as u64);
                                    if !out.is_empty() {
                                        probe.event(
                                            FlightEventKind::PaneFired,
                                            format!("watermark {w}: {} results", out.len()),
                                        );
                                    }
                                    // Pane results continue the last traced
                                    // frame's context (window residency shows
                                    // as a gap on the critical path).
                                    let wctx = if out.is_empty() {
                                        None
                                    } else {
                                        window_ctx.take()
                                    };
                                    batcher.set_active_trace(wctx.map(|c| (c, probe.trace_now())));
                                    for t in out.drain(..) {
                                        batcher.scatter(
                                            &route_meta,
                                            &downstream,
                                            &mut router,
                                            &probe,
                                            t,
                                        )?;
                                    }
                                    batcher.set_active_trace(None);
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
                                    checkpoint(&*op, id, &probe)?;
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
                                    checkpoint(&*op, id, &probe)?;
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
                                        out.clear();
                                        op.on_watermark(w, &mut out);
                                        n_out += out.len() as u64;
                                        probe.tuples_out(out.len() as u64);
                                        let wctx = if out.is_empty() {
                                            None
                                        } else {
                                            window_ctx.take()
                                        };
                                        batcher
                                            .set_active_trace(wctx.map(|c| (c, probe.trace_now())));
                                        for t in out.drain(..) {
                                            batcher.scatter(
                                                &route_meta,
                                                &downstream,
                                                &mut router,
                                                &probe,
                                                t,
                                            )?;
                                        }
                                        batcher.set_active_trace(None);
                                    }
                                }
                            }
                        }
                        if probe.enabled() {
                            probe.window_state(op.panes_fired(), op.late_events());
                        }
                        probe.mark_busy(work);
                    }
                    out.clear();
                    op.on_flush(&mut out);
                    n_out += out.len() as u64;
                    probe.tuples_out(out.len() as u64);
                    if probe.enabled() {
                        probe.window_state(op.panes_fired(), op.late_events());
                    }
                    let wctx = if out.is_empty() {
                        None
                    } else {
                        window_ctx.take()
                    };
                    batcher.set_active_trace(wctx.map(|c| (c, probe.trace_now())));
                    for t in out.drain(..) {
                        batcher.scatter(&route_meta, &downstream, &mut router, &probe, t)?;
                    }
                    batcher.set_active_trace(None);
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
                    let _ = stats_tx.send((lnode, n_in, n_out, n_shed, op.late_events()));
                    Ok(())
                });
                handles.push((lnode, index, worker));
            }
        }
    }
    Ok(handles)
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

    #[test]
    fn sink_state_round_trips_through_snapshot_codec() {
        let st = SinkState {
            captured: vec![Tuple::new(vec![crate::value::Value::Int(7)])],
            latencies: vec![42],
            total: 1,
        };
        let bytes = encode(&st, "sink").unwrap();
        let back: SinkState = decode(&bytes, "sink").unwrap();
        assert_eq!(back.total, 1);
        assert_eq!(back.latencies, vec![42]);
        assert_eq!(back.captured.len(), 1);
    }
}
