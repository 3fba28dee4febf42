//! Micro-batch builders for the outgoing edges of one worker.
//!
//! Every worker that sends data downstream owns one `EdgeBatcher`: a
//! per-(route, target) set of tuple builders. Data tuples are *scattered*
//! into the builder their partitioner selects; a builder is flushed as one
//! [`Batch`] frame when it reaches
//! `RunConfig::batch_size` tuples ([`FlushReason::Size`]), when the worker
//! is about to wait for input ([`FlushReason::Linger`]), immediately before
//! any marker — watermark, checkpoint barrier — is broadcast on the same
//! edges ([`FlushReason::Marker`]), and at end of stream
//! ([`FlushReason::Eos`]).
//!
//! **The idle rule.** No worker parks on its input while a builder holds
//! tuples. `EdgeBatcher::next_input` is the only way a worker that owns a
//! batcher receives: it takes what is already queued without blocking, and
//! only when the inbox is empty flushes every builder and then blocks.
//! A busy worker therefore still fills frames to `batch_size` — its inbox is
//! never empty — while a paced one forwards each burst as soon as it has
//! consumed it; no timer is involved. Sources follow the same rule: their
//! inbox is the hand-off a reader thread feeds from the user's (possibly
//! blocking) iterator (`exec::SourceFeed`).
//!
//! Flushing before every marker is the correctness keystone: each channel
//! still sees exactly the tuples that preceded a marker *before* that
//! marker, so watermark accounting and Chandy–Lamport barrier alignment
//! behave identically to a tuple-at-a-time data plane, and checkpoints
//! align at batch boundaries by construction.
//!
//! With `batch_size == 1` the batcher bypasses the builders entirely and
//! sends `Message::Data` frames — bit-for-bit the per-tuple data plane.

use crate::error::{EngineError, Result};
use crate::message::{Batch, FrameTrace, Message};
use crate::physical::{OutRoute, RouteTargets, RouterState};
use crate::runtime::Envelope;
use crate::telemetry::Probe;
use crate::value::Tuple;
use crossbeam_channel::Sender;
use pdsp_telemetry::{SpanKind, TraceContext};
use std::sync::mpsc;

pub use pdsp_telemetry::FlushReason;

/// Every sender of an [`Inbox`] is gone and it has drained.
pub(crate) struct Closed;

/// What a worker waits on — an operator's envelope channel or a source's
/// tuple hand-off — reduced to the two receives the idle rule needs.
pub(crate) trait Inbox {
    type Item;
    /// Take an item that is already queued; `Ok(None)` when none is.
    fn poll(&self) -> std::result::Result<Option<Self::Item>, Closed>;
    /// Block until an item arrives.
    fn wait(&self) -> std::result::Result<Self::Item, Closed>;
}

impl<T> Inbox for crossbeam_channel::Receiver<T> {
    type Item = T;

    fn poll(&self) -> std::result::Result<Option<T>, Closed> {
        match self.try_recv() {
            Ok(item) => Ok(Some(item)),
            Err(crossbeam_channel::TryRecvError::Empty) => Ok(None),
            Err(crossbeam_channel::TryRecvError::Disconnected) => Err(Closed),
        }
    }

    fn wait(&self) -> std::result::Result<T, Closed> {
        self.recv().map_err(|_| Closed)
    }
}

impl<T> Inbox for mpsc::Receiver<T> {
    type Item = T;

    fn poll(&self) -> std::result::Result<Option<T>, Closed> {
        match self.try_recv() {
            Ok(item) => Ok(Some(item)),
            Err(mpsc::TryRecvError::Empty) => Ok(None),
            Err(mpsc::TryRecvError::Disconnected) => Err(Closed),
        }
    }

    fn wait(&self) -> std::result::Result<T, Closed> {
        self.recv().map_err(|_| Closed)
    }
}

/// Per-destination micro-batch builders for one worker's out-edges, with
/// the routes, senders and partitioner state they serve.
pub(crate) struct EdgeBatcher {
    routes: Vec<OutRoute>,
    /// `downstream[route][target]` delivers into that target's channel.
    downstream: Vec<Vec<Sender<Envelope>>>,
    router: RouterState,
    max: usize,
    /// `builders[route][target]` accumulates tuples bound for that slot.
    builders: Vec<Vec<Vec<Tuple>>>,
    /// Trace context applied to tuples scattered while it is set: the
    /// runtime brackets a traced frame's outputs with
    /// [`EdgeBatcher::set_active_trace`]. The `u64` is the clock stamp at
    /// which the context became active (start of the buffered interval).
    active: Option<(TraceContext, u64)>,
    /// `pending[route][target]`: trace adopted by that builder — set by the
    /// first traced tuple pushed into it, cleared on flush. The frame is
    /// stamped with this context so one traced tuple marks its whole frame.
    pending: Vec<Vec<Option<(TraceContext, u64)>>>,
}

fn disconnected() -> EngineError {
    EngineError::Execution("downstream disconnected".into())
}

impl EdgeBatcher {
    /// Builders for `routes`, sending through `downstream` (one sender per
    /// route target) and flushing at `max` tuples.
    pub(crate) fn new(
        routes: Vec<OutRoute>,
        downstream: Vec<Vec<Sender<Envelope>>>,
        max: usize,
    ) -> Self {
        EdgeBatcher {
            router: RouterState::new(routes.len()),
            max: max.max(1),
            builders: routes
                .iter()
                .map(|r| r.targets.iter().map(|_| Vec::new()).collect())
                .collect(),
            active: None,
            pending: routes
                .iter()
                .map(|r| r.targets.iter().map(|_| None).collect())
                .collect(),
            routes,
            downstream,
        }
    }

    /// Set (or clear) the trace context adopted by builders receiving
    /// tuples from now on. The runtime sets this immediately before
    /// scattering a traced frame's outputs and clears it after.
    pub(crate) fn set_active_trace(&mut self, trace: Option<(TraceContext, u64)>) {
        self.active = trace;
    }

    /// Retarget the flush bound (adaptive batching under pressure). Builders
    /// already above the new bound flush on their next push.
    pub(crate) fn set_max(&mut self, max: usize) {
        self.max = max.max(1);
    }

    /// Route `tuple` through every out-edge partitioner into the selected
    /// builders, flushing any builder that reaches the size bound. With
    /// `batch_size == 1` this sends a `Message::Data` frame directly.
    ///
    /// The tuple is cloned only when it has more than one destination
    /// (multiple out-edges or broadcast partitioning); the final
    /// destination always receives the original by move.
    pub(crate) fn scatter(&mut self, probe: &Probe, tuple: Tuple) -> Result<()> {
        let Some(last) = self.routes.len().checked_sub(1) else {
            return Ok(());
        };
        for ri in 0..last {
            match self.router.select(ri, &self.routes[ri], &tuple) {
                RouteTargets::One(ti) => self.push(probe, ri, ti, tuple.clone())?,
                RouteTargets::All => {
                    for ti in 0..self.routes[ri].targets.len() {
                        self.push(probe, ri, ti, tuple.clone())?;
                    }
                }
            }
        }
        match self.router.select(last, &self.routes[last], &tuple) {
            RouteTargets::One(ti) => self.push(probe, last, ti, tuple),
            RouteTargets::All => {
                let fanout = self.routes[last].targets.len();
                for ti in 0..fanout.saturating_sub(1) {
                    self.push(probe, last, ti, tuple.clone())?;
                }
                match fanout.checked_sub(1) {
                    Some(ti) => self.push(probe, last, ti, tuple),
                    None => Ok(()),
                }
            }
        }
    }

    fn push(&mut self, probe: &Probe, ri: usize, ti: usize, tuple: Tuple) -> Result<()> {
        // The direct-send shortcut is only safe when nothing is buffered
        // for this slot: adaptive batching can shrink the bound back to 1
        // while the builder still holds tuples from a larger bound, and a
        // direct send would overtake them (reordering the edge).
        // `Message::Data` frames carry no trace slot, so a `batch_size == 1`
        // data plane is untraced by design.
        if self.max == 1 && self.builders[ri][ti].is_empty() {
            self.downstream[ri][ti]
                .send(Envelope {
                    channel: self.routes[ri].targets[ti].channel,
                    msg: Message::Data(tuple),
                })
                .map_err(|_| disconnected())?;
            probe.batch_out(1, FlushReason::Size);
            return Ok(());
        }
        let builder = &mut self.builders[ri][ti];
        if builder.capacity() == 0 {
            builder.reserve_exact(self.max);
        }
        builder.push(tuple);
        if let Some(active) = self.active {
            let slot = &mut self.pending[ri][ti];
            if slot.is_none() {
                *slot = Some(active);
            }
        }
        if builder.len() >= self.max {
            self.flush_one(probe, ri, ti, FlushReason::Size)?;
        }
        Ok(())
    }

    fn flush_one(
        &mut self,
        probe: &Probe,
        ri: usize,
        ti: usize,
        reason: FlushReason,
    ) -> Result<()> {
        let builder = &mut self.builders[ri][ti];
        if builder.is_empty() {
            return Ok(());
        }
        let tuples = std::mem::replace(builder, Vec::with_capacity(self.max));
        probe.batch_out(tuples.len() as u64, reason);
        // A traced builder closes its buffered interval here: the `Batch`
        // span covers adoption → flush (size/linger residency in this
        // builder), and the frame carries the continuation context.
        let trace = self.pending[ri][ti].take().map(|(ctx, t0)| {
            let now = probe.trace_now();
            FrameTrace {
                ctx: probe.trace_span(ctx, SpanKind::Batch, t0, now),
                sent_ns: now,
                wire_ns: 0,
            }
        });
        self.downstream[ri][ti]
            .send(Envelope {
                channel: self.routes[ri].targets[ti].channel,
                msg: Message::Batch(Batch { tuples, trace }),
            })
            .map_err(|_| disconnected())
    }

    /// The idle rule: the next item of `inbox`, flushing every builder
    /// before — and only before — blocking for it. `Ok(None)` when the
    /// inbox is closed; `Err` when a flush found downstream disconnected.
    pub(crate) fn next_input<I: Inbox>(
        &mut self,
        inbox: &I,
        probe: &Probe,
    ) -> Result<Option<I::Item>> {
        match inbox.poll() {
            Ok(Some(item)) => return Ok(Some(item)),
            Ok(None) => {}
            Err(Closed) => return Ok(None),
        }
        self.flush_all(probe, FlushReason::Linger)?;
        Ok(inbox.wait().ok())
    }

    /// Flush every non-empty builder (about to wait, markers, EOS).
    pub(crate) fn flush_all(&mut self, probe: &Probe, reason: FlushReason) -> Result<()> {
        // No `max == 1` shortcut here: the bound can shrink to 1 at runtime
        // (adaptive batching) while builders still hold tuples from a larger
        // bound, and those must drain. With a static max of 1 the builders
        // are always empty, so the loop is free.
        for ri in 0..self.builders.len() {
            for ti in 0..self.builders[ri].len() {
                self.flush_one(probe, ri, ti, reason)?;
            }
        }
        Ok(())
    }

    /// Flush every pending builder, then send `msg` to every target of every
    /// route — the only way markers enter a channel, so each channel's tuple
    /// prefix before a marker is exactly the pre-marker emission order.
    pub(crate) fn flush_then_broadcast(
        &mut self,
        probe: &Probe,
        msg: Message,
        reason: FlushReason,
    ) -> Result<()> {
        self.flush_all(probe, reason)?;
        for (route, senders) in self.routes.iter().zip(&self.downstream) {
            for (target, tx) in route.targets.iter().zip(senders) {
                tx.send(Envelope {
                    channel: target.channel,
                    msg: msg.clone(),
                })
                .map_err(|_| disconnected())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::ChannelRef;
    use crate::plan::Partitioning;
    use crate::value::Value;
    use crossbeam_channel::unbounded;

    fn route_to(targets: usize, partitioning: Partitioning) -> OutRoute {
        OutRoute {
            edge_index: 0,
            partitioning,
            targets: (0..targets)
                .map(|i| ChannelRef {
                    instance: i,
                    channel: 0,
                    port: 0,
                })
                .collect(),
        }
    }

    fn tuple(i: i64) -> Tuple {
        Tuple::new(vec![Value::Int(i)])
    }

    fn drain(rx: &crossbeam_channel::Receiver<Envelope>) -> Vec<Message> {
        let mut out = Vec::new();
        while let Ok(env) = rx.try_recv() {
            out.push(env.msg);
        }
        out
    }

    #[test]
    fn size_bound_flushes_full_batches() {
        let routes = vec![route_to(1, Partitioning::Forward)];
        let (tx, rx) = unbounded();
        let downstream = vec![vec![tx]];
        let mut b = EdgeBatcher::new(routes, downstream, 4);
        let probe = Probe::default();
        for i in 0..10 {
            b.scatter(&probe, tuple(i)).unwrap();
        }
        // 10 tuples at max 4: two full frames sent, two tuples pending.
        let sizes: Vec<usize> = drain(&rx)
            .into_iter()
            .map(|msg| match msg {
                Message::Batch(batch) => batch.len(),
                other => panic!("expected batch, got {other:?}"),
            })
            .collect();
        assert_eq!(sizes, vec![4, 4]);
        b.flush_all(&probe, FlushReason::Eos).unwrap();
        match rx.try_recv().unwrap().msg {
            Message::Batch(batch) => assert_eq!(batch.len(), 2),
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn batch_size_one_sends_plain_data_frames() {
        let routes = vec![route_to(1, Partitioning::Forward)];
        let (tx, rx) = unbounded();
        let downstream = vec![vec![tx]];
        let mut b = EdgeBatcher::new(routes, downstream, 1);
        let probe = Probe::default();
        b.scatter(&probe, tuple(7)).unwrap();
        assert!(matches!(rx.try_recv().unwrap().msg, Message::Data(_)));
    }

    #[test]
    fn marker_flush_precedes_marker_on_every_channel() {
        let routes = vec![route_to(2, Partitioning::Hash(vec![0]))];
        let (tx0, rx0) = unbounded();
        let (tx1, rx1) = unbounded();
        let downstream = vec![vec![tx0, tx1]];
        let mut b = EdgeBatcher::new(routes, downstream, 64);
        let probe = Probe::default();
        for i in 0..10 {
            b.scatter(&probe, tuple(i)).unwrap();
        }
        b.flush_then_broadcast(&probe, Message::Watermark(9), FlushReason::Marker)
            .unwrap();
        let mut total = 0usize;
        for rx in [rx0, rx1] {
            let frames: Vec<Message> = drain(&rx);
            // Partial batch first, watermark strictly after it.
            assert!(matches!(frames.last(), Some(Message::Watermark(9))));
            for f in &frames[..frames.len() - 1] {
                match f {
                    Message::Batch(batch) => total += batch.len(),
                    other => panic!("expected batch before marker, got {other:?}"),
                }
            }
        }
        assert_eq!(total, 10, "hash scatter loses nothing");
    }

    #[test]
    fn partial_output_is_forwarded_before_the_next_blocking_receive() {
        // An operator's loop in miniature: one input frame on a channel that
        // stays open and empty afterwards, three outputs at a bound of 64.
        let routes = vec![route_to(1, Partitioning::Forward)];
        let (down_tx, down_rx) = unbounded();
        let downstream = vec![vec![down_tx]];
        let (in_tx, in_rx) = unbounded::<Vec<i64>>();
        in_tx.send(vec![1, 2, 3]).unwrap();
        std::thread::scope(|s| {
            let worker = s.spawn(move || {
                let mut b = EdgeBatcher::new(routes, downstream, 64);
                let probe = Probe::default();
                let mut frames = 0;
                while let Some(frame) = b.next_input(&in_rx, &probe).unwrap() {
                    frames += 1;
                    for i in frame {
                        b.scatter(&probe, tuple(i)).unwrap();
                    }
                }
                frames
            });
            // The partial batch arrives while `in_tx` is still open, i.e.
            // while the worker is parked in its second receive; the timeout
            // is only how a broken rule fails instead of hanging.
            let env = down_rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("partial batch flushed before blocking");
            match env.msg {
                Message::Batch(batch) => assert_eq!(batch.len(), 3),
                other => panic!("expected batch, got {other:?}"),
            }
            drop(in_tx);
            assert_eq!(worker.join().unwrap(), 1);
        });
    }

    #[test]
    fn broadcast_partitioning_replicates_into_every_builder() {
        let routes = vec![route_to(3, Partitioning::Broadcast)];
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..3).map(|_| unbounded()).unzip();
        let downstream = vec![txs];
        let mut b = EdgeBatcher::new(routes, downstream, 2);
        let probe = Probe::default();
        for i in 0..2 {
            b.scatter(&probe, tuple(i)).unwrap();
        }
        for rx in rxs {
            match rx.try_recv().unwrap().msg {
                Message::Batch(batch) => assert_eq!(batch.len(), 2),
                other => panic!("expected batch, got {other:?}"),
            }
        }
    }
}
