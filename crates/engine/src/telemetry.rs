//! Telemetry glue between the runtimes and `pdsp-telemetry`.
//!
//! [`telemetry_for_plan`] builds a [`RunTelemetry`] whose registry has one
//! shard per physical instance (in instance-id order), and the
//! crate-private `Probe` is the per-worker handle the runtimes thread into
//! their loops: every method is an inlined no-op when telemetry is off, so
//! the uninstrumented hot path stays untouched.

use crate::exec::RunClock;
use crate::physical::PhysicalPlan;
use pdsp_telemetry::{
    FlightEventKind, FlightRecorder, FlushReason, InstanceMetrics, MetricsRegistry, RunTelemetry,
    Span, SpanKind, SpanRing, TelemetryConfig, TraceBook, TraceContext,
};
use std::cell::Cell;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Build per-run telemetry state sized to `plan`: one metrics shard per
/// physical instance, labelled with the logical operator name and hosted on
/// the `local` node (the threaded runtime runs in-process).
pub fn telemetry_for_plan(app: &str, plan: &PhysicalPlan, config: TelemetryConfig) -> RunTelemetry {
    let mut registry = MetricsRegistry::new(app);
    for inst in &plan.instances {
        registry.register(
            plan.logical.nodes[inst.node].name.clone(),
            inst.index,
            "local",
        );
    }
    RunTelemetry::new(registry, config)
}

/// Cheap per-worker telemetry handle. Cloned into each worker thread;
/// disabled probes carry `None` and compile down to branches on a local —
/// the uninstrumented hot path pays only a branch per call.
///
/// A default-constructed probe is disabled and every method is a no-op:
///
/// ```
/// use pdsp_engine::telemetry::Probe;
/// use pdsp_telemetry::FlushReason;
///
/// let probe = Probe::default();
/// assert!(!probe.enabled());
/// probe.tuples_in(10);
/// probe.batch_out(64, FlushReason::Size); // recorded nowhere, costs a branch
/// assert!(probe.now_if().is_none());
/// ```
#[derive(Clone, Default)]
pub struct Probe {
    metrics: Option<Arc<InstanceMetrics>>,
    recorder: Option<Arc<FlightRecorder>>,
    node: usize,
    instance: usize,
    tracer: Option<Tracer>,
    /// Trace context of the frame currently being processed by this worker
    /// (attached to flight-recorder events for crash correlation). `Cell`
    /// because probes are per-thread: cloning a probe into a worker thread
    /// gives that thread its own active slot.
    active: Cell<Option<TraceContext>>,
}

/// Span-recording half of a probe; present only when the run was started
/// with `TelemetryConfig::trace_every > 0`.
#[derive(Clone)]
struct Tracer {
    book: Arc<TraceBook>,
    ring: Arc<SpanRing>,
    op: Arc<str>,
    site: Arc<str>,
    clock: RunClock,
}

impl Probe {
    /// Probe for physical instance `id`, or a disabled probe when `tel` is
    /// `None`.
    pub fn for_instance(
        tel: Option<&RunTelemetry>,
        id: usize,
        node: usize,
        instance: usize,
    ) -> Self {
        match tel {
            Some(t) => Probe {
                metrics: Some(t.registry.instance(id)),
                recorder: Some(Arc::clone(&t.recorder)),
                node,
                instance,
                tracer: None,
                active: Cell::new(None),
            },
            None => Probe::default(),
        }
    }

    /// Attach span recording to this probe (no-op when the run's telemetry
    /// has tracing disabled). Registers a fresh span ring with the trace
    /// book; the returned probe must be owned by exactly one worker thread —
    /// the ring is single-writer.
    pub(crate) fn with_trace(
        mut self,
        tel: Option<&RunTelemetry>,
        op: &str,
        clock: RunClock,
    ) -> Self {
        if let Some(book) = tel.and_then(|t| t.trace.as_ref()) {
            self.tracer = Some(Tracer {
                ring: book.ring(),
                op: op.into(),
                site: book.site().into(),
                book: Arc::clone(book),
                clock,
            });
        }
        self
    }

    /// Whether this probe records anywhere.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// Whether this probe records spans.
    #[inline]
    pub fn trace_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Current run-clock stamp in nanoseconds; `0` when tracing is off (the
    /// untraced hot path must not pay for clock reads).
    #[inline]
    pub(crate) fn trace_now(&self) -> u64 {
        match &self.tracer {
            Some(t) => t.clock.now_ns(),
            None => 0,
        }
    }

    /// Head-sampling decision for source sequence number `seq`: true for
    /// every `trace_every`-th tuple when tracing is on.
    #[inline]
    pub(crate) fn trace_sample(&self, seq: u64) -> bool {
        match &self.tracer {
            Some(t) => seq.is_multiple_of(t.book.sample_every()),
            None => false,
        }
    }

    /// Start a new trace at this source: allocates a trace id, records the
    /// root `Source` span at `now_ns`, and returns the context downstream
    /// frames should carry.
    pub(crate) fn trace_source(&self, now_ns: u64) -> Option<TraceContext> {
        let t = self.tracer.as_ref()?;
        let trace = t.book.next_trace_id();
        let id = t.book.next_span_id();
        t.ring.push(Span {
            trace,
            id,
            parent: None,
            kind: SpanKind::Source,
            op: t.op.to_string(),
            site: t.site.to_string(),
            instance: self.instance,
            start_ns: now_ns,
            end_ns: now_ns,
        });
        Some(TraceContext { trace, parent: id })
    }

    /// Record a span of `kind` over `[start_ns, end_ns]` chained onto `ctx`
    /// and return the context continuing from the new span. Identity when
    /// tracing is off.
    pub(crate) fn trace_span(
        &self,
        ctx: TraceContext,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
    ) -> TraceContext {
        let Some(t) = &self.tracer else {
            return ctx;
        };
        let id = t.book.next_span_id();
        t.ring.push(Span {
            trace: ctx.trace,
            id,
            parent: Some(ctx.parent),
            kind,
            op: t.op.to_string(),
            site: t.site.to_string(),
            instance: self.instance,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        TraceContext {
            trace: ctx.trace,
            parent: id,
        }
    }

    /// Set the trace context flight-recorder events from this worker are
    /// attributed to (the frame currently being processed).
    #[inline]
    pub(crate) fn trace_active(&self, ctx: Option<TraceContext>) {
        if self.tracer.is_some() {
            self.active.set(ctx);
        }
    }

    /// Count `n` tuples received by this instance.
    #[inline]
    pub fn tuples_in(&self, n: u64) {
        if let Some(m) = &self.metrics {
            m.add_tuples_in(n);
        }
    }

    /// Count `n` tuples emitted by this instance.
    #[inline]
    pub fn tuples_out(&self, n: u64) {
        if let Some(m) = &self.metrics {
            m.add_tuples_out(n);
        }
    }

    /// Record one flushed outgoing micro-batch (size in tuples + trigger).
    #[inline]
    pub fn batch_out(&self, tuples: u64, reason: FlushReason) {
        if let Some(m) = &self.metrics {
            m.record_batch(tuples, reason);
        }
    }

    /// Record the current input queue length (backpressure proxy).
    #[inline]
    pub fn queue_depth(&self, depth: usize) {
        if let Some(m) = &self.metrics {
            m.observe_queue_depth(depth as u64);
        }
    }

    /// Record one end-to-end latency observation in nanoseconds.
    #[inline]
    pub fn latency_ns(&self, ns: u64) {
        if let Some(m) = &self.metrics {
            m.record_latency_ns(ns);
        }
    }

    /// Overwrite the cumulative fired-pane and late-tuple counts.
    #[inline]
    pub fn window_state(&self, fires: u64, late: u64) {
        if let Some(m) = &self.metrics {
            m.set_window_fires(fires);
            m.set_late_tuples(late);
        }
    }

    /// Count `n` tuples dropped by the load-shedding rung.
    #[inline]
    pub fn shed(&self, n: u64) {
        if let Some(m) = &self.metrics {
            m.add_shed(n);
        }
    }

    /// Record the current overload-escalation rung (0/1/2).
    #[inline]
    pub fn pressure(&self, level: u64) {
        if let Some(m) = &self.metrics {
            m.set_pressure(level);
        }
    }

    /// Record one completed checkpoint and its duration.
    #[inline]
    pub fn checkpoint(&self, ns: u64) {
        if let Some(m) = &self.metrics {
            m.record_checkpoint(ns);
        }
    }

    /// Count one recovery-driven restart of this instance.
    #[inline]
    pub fn restart(&self) {
        if let Some(m) = &self.metrics {
            m.add_restart();
        }
    }

    /// `Instant::now()` only when enabled — the disabled hot path must not
    /// pay for clock reads.
    #[inline]
    pub fn now_if(&self) -> Option<Instant> {
        self.metrics.as_ref().map(|_| Instant::now())
    }

    /// Account the time since `since` as idle (waiting for input) and
    /// return the processing start time.
    #[inline]
    pub fn mark_idle(&self, since: Option<Instant>) -> Option<Instant> {
        match (&self.metrics, since) {
            (Some(m), Some(t0)) => {
                let now = Instant::now();
                m.add_idle_ns(now.duration_since(t0).as_nanos() as u64);
                Some(now)
            }
            _ => None,
        }
    }

    /// Account the time since `since` as busy (processing a message) and
    /// return it; zero when disabled.
    #[inline]
    pub fn mark_busy(&self, since: Option<Instant>) -> Duration {
        match (&self.metrics, since) {
            (Some(m), Some(t0)) => {
                let busy = t0.elapsed();
                m.add_busy_ns(busy.as_nanos() as u64);
                busy
            }
            _ => Duration::ZERO,
        }
    }

    /// Record a flight-recorder event attributed to this worker, tagged
    /// with the active trace context when tracing is on.
    pub fn event(&self, kind: FlightEventKind, detail: impl Into<String>) {
        if let Some(r) = &self.recorder {
            r.record_traced(kind, self.node, self.instance, detail, self.active.get());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::value::{FieldType, Schema};

    #[test]
    fn registry_matches_physical_instances() {
        let plan = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int]), 2)
            .sink("sink")
            .build()
            .unwrap();
        let phys = PhysicalPlan::expand(&plan).unwrap();
        let tel = telemetry_for_plan("WC", &phys, TelemetryConfig::default());
        assert_eq!(tel.registry.len(), phys.instance_count());
        let snaps = tel.registry.snapshot();
        assert_eq!(snaps[0].operator, "src");
        assert_eq!(snaps[0].node, "local");
        assert!(snaps.iter().any(|s| s.operator == "sink"));
    }

    #[test]
    fn disabled_probe_is_inert() {
        let p = Probe::default();
        assert!(!p.enabled());
        p.tuples_in(1);
        p.tuples_out(1);
        p.queue_depth(9);
        p.latency_ns(5);
        assert!(p.now_if().is_none());
        assert!(p.mark_idle(None).is_none());
        p.mark_busy(None);
        p.event(FlightEventKind::PaneFired, "nothing");
    }
}
