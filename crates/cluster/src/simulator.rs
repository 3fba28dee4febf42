//! Discrete-event execution simulator.
//!
//! The simulator pushes *batches* of tuples through a
//! [`pdsp_engine::PhysicalPlan`] placed on a [`Cluster`]:
//!
//! * arrivals at sources follow a Poisson process at the configured event
//!   rate (the paper models data as Poisson, §4);
//! * each batch is serviced on one core of the instance's node — cores are
//!   shared among the instances placed there, so over-subscription queues
//!   naturally and under-parallelized stateful operators saturate exactly
//!   like real deployments;
//! * routing reuses the engine's partitioning semantics at batch
//!   granularity (hash/rebalance pick one downstream instance per batch,
//!   broadcast replicates);
//! * crossing a node boundary pays per-hop latency plus wire time at the
//!   slower NIC of the two nodes;
//! * windowed operators thin the stream by their firing rate and push the
//!   batch's effective emit time back by the expected window residency —
//!   the paper's end-to-end latency includes window time.
//!
//! The latency recorded at sinks is therefore queueing + service +
//! network + coordination + window residency, the same composition the
//! paper describes.

use crate::costs::CostParams;
use crate::failure::{FailureModel, RecoveryEvent, ScriptedFailure};
use crate::hardware::Cluster;
use crate::placement::{Placement, PlacementStrategy};
use crate::rates;
use pdsp_engine::error::{EngineError, Result};
use pdsp_engine::operator::OpKind;
use pdsp_engine::physical::PhysicalPlan;
use pdsp_engine::plan::{LogicalPlan, Partitioning};
use pdsp_engine::window::WindowPolicy;
use pdsp_metrics::{LatencyRecorder, MeasurementProtocol, RunSummary};
use pdsp_telemetry::{
    FlightEvent, FlightEventKind, HistogramSnapshot, InstanceSnapshot, Span, SpanId, SpanKind,
    TelemetryConfig, TelemetryTimeline, TimelineSample, TraceContext, TraceId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulation configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// Event rate per source node, tuples/second (paper Table 3 range:
    /// 10 .. 4,000,000).
    pub event_rate: f64,
    /// Simulated stream duration in milliseconds.
    pub duration_ms: u64,
    /// Batch granularity: how many batches per simulated second per source
    /// instance (higher = finer queueing resolution, more events).
    pub batches_per_second: f64,
    /// RNG seed; every run is fully deterministic given the seed.
    pub seed: u64,
    /// Placement strategy.
    pub placement: PlacementStrategy,
    /// Cost constants.
    pub costs: CostParams,
    /// Estimated distinct keys per keyed operator (drives count-window
    /// residency: windows fill at the per-key rate).
    pub keys: usize,
    /// Key skew for hash-partitioned edges: `None`/`Some(0.0)` = uniform;
    /// `Some(s)` routes batches to downstream instances Zipf(s)-distributed,
    /// concentrating load on hot instances — the paper's Zipf data
    /// distribution option (§4) surfacing as partitioning imbalance.
    pub key_skew: Option<f64>,
    /// Node-failure model; `None` simulates a failure-free cluster.
    #[serde(default)]
    pub failure: Option<FailureModel>,
    /// Modeled transport micro-batch size: how many tuples share one frame
    /// on inter-instance channels. Mirrors the engine's
    /// `RunConfig::batch_size`; per-frame framing cost amortizes across the
    /// batch (see [`CostParams::effective_serialize_ns`]). `1` reproduces
    /// the historical tuple-at-a-time numbers exactly; `0` (the value old
    /// serialized configs deserialize to) is treated as `1`.
    #[serde(default)]
    pub transport_batch: usize,
}

fn default_transport_batch() -> usize {
    1
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            event_rate: 100_000.0,
            duration_ms: 10_000,
            batches_per_second: 200.0,
            seed: 42,
            placement: PlacementStrategy::CoreWeighted,
            costs: CostParams::default(),
            keys: 64,
            key_skew: None,
            failure: None,
            transport_batch: default_transport_batch(),
        }
    }
}

impl SimConfig {
    /// Check the configuration can drive a simulation at all; failures
    /// surface as typed errors instead of NaN latencies or hangs.
    pub fn validate(&self) -> Result<()> {
        if self.event_rate <= 0.0 || !self.event_rate.is_finite() {
            return Err(EngineError::InvalidConfig(
                "event_rate must be positive and finite".into(),
            ));
        }
        if self.duration_ms == 0 {
            return Err(EngineError::InvalidConfig(
                "duration_ms must be at least 1".into(),
            ));
        }
        if self.batches_per_second <= 0.0 || !self.batches_per_second.is_finite() {
            return Err(EngineError::InvalidConfig(
                "batches_per_second must be positive and finite".into(),
            ));
        }
        if self.keys == 0 {
            return Err(EngineError::InvalidConfig("keys must be at least 1".into()));
        }
        if let Some(s) = self.key_skew {
            if s < 0.0 || !s.is_finite() {
                return Err(EngineError::InvalidConfig(
                    "key_skew must be non-negative and finite".into(),
                ));
            }
        }
        if self.costs.serialize_marginal_ns < 0.0
            || self.costs.serialize_marginal_ns > self.costs.serialize_ns_per_tuple
        {
            return Err(EngineError::InvalidConfig(
                "serialize_marginal_ns must lie in [0, serialize_ns_per_tuple]".into(),
            ));
        }
        Ok(())
    }
}

/// Result of one simulated execution.
#[derive(Debug)]
pub struct SimResult {
    /// Latency distribution at sinks (ms).
    pub latency: LatencyRecorder,
    /// Tuples generated at sources.
    pub tuples_in: u64,
    /// Tuples delivered at sinks.
    pub tuples_out: u64,
    /// Simulated duration in seconds.
    pub sim_seconds: f64,
    /// Fraction of instance-pairs whose channel crosses nodes.
    pub cross_node_fraction: f64,
    /// Node failures applied during the run, with their modeled recovery.
    pub recoveries: Vec<RecoveryEvent>,
    /// Per-instance telemetry timeline; `Some` only for
    /// [`Simulator::run_instrumented`] runs. Uses the exact snapshot schema
    /// the threaded runtime emits, so simulated and threaded runs are
    /// directly comparable.
    pub timeline: Option<TelemetryTimeline>,
    /// Trace spans recorded on *virtual* time, in the same schema the
    /// engine's tracer emits (site `"sim"`), sorted by start time.
    /// Non-empty only for [`Simulator::run_instrumented`] runs with
    /// `TelemetryConfig::trace_every > 0`.
    pub spans: Vec<Span>,
}

impl SimResult {
    /// Summarize into the common run-summary shape.
    pub fn summary(&self) -> RunSummary {
        RunSummary::from_recorder(
            &self.latency,
            self.tuples_in,
            self.tuples_out,
            self.sim_seconds,
        )
    }
}

#[derive(Debug, Clone, Copy)]
struct Batch {
    /// Expected tuples in this batch (fractional after thinning).
    tuples: f64,
    /// Effective source-emit time (ns); window residency pushes it back.
    emit_ns: f64,
    /// Trace context carried by sampled batches in instrumented runs.
    trace: Option<TraceContext>,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time_ns: f64,
    seq: u64,
    instance: usize,
    batch: Batch,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time_ns == other.time_ns && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time_ns
            .total_cmp(&other.time_ns)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Per-logical-node derived parameters, precomputed before the event loop.
#[derive(Debug, Clone)]
struct NodeModel {
    /// Output tuples per input tuple.
    selectivity: f64,
    /// Service demand per tuple at 1 GHz, before node clock scaling.
    cpu_ns_per_tuple: f64,
    /// State factor (coordination).
    state_factor: f64,
    /// Window residency to add to results, ns.
    window_residency_ns: f64,
    /// Whether this is a UDO (higher jitter).
    is_udo: bool,
    /// Schema width (for wire bytes).
    out_width: usize,
}

/// Telemetry accumulator for one instrumented simulation: the simulator's
/// single-threaded analogue of the engine's `MetricsRegistry` + sampler,
/// producing the same [`TimelineSample`] schema keyed on simulated time.
struct SimTelemetry {
    app: String,
    interval_ms: u64,
    next_sample_ns: f64,
    /// Largest simulated timestamp observed (events drain past
    /// `duration_ms` when queues are backed up).
    horizon_ns: f64,
    operator: Vec<String>,
    instance_idx: Vec<usize>,
    node_label: Vec<String>,
    tuples_in: Vec<f64>,
    tuples_out: Vec<f64>,
    busy_ns: Vec<f64>,
    queue: Vec<u64>,
    queue_max: Vec<u64>,
    restarts: Vec<u64>,
    latency: Vec<HistogramSnapshot>,
    samples: Vec<TimelineSample>,
    events: Vec<FlightEvent>,
    /// Head-sampling period for virtual-time traces (0 = tracing off).
    trace_every: u64,
    next_trace: u64,
    next_span: u64,
    spans: Vec<Span>,
}

impl SimTelemetry {
    fn new(
        app: &str,
        phys: &PhysicalPlan,
        placement: &Placement,
        cluster: &Cluster,
        interval_ms: u64,
        trace_every: u64,
    ) -> Self {
        let n = phys.instance_count();
        let mut tel = SimTelemetry {
            app: app.to_string(),
            interval_ms,
            next_sample_ns: interval_ms as f64 * 1e6,
            horizon_ns: 0.0,
            operator: Vec::with_capacity(n),
            instance_idx: Vec::with_capacity(n),
            node_label: Vec::with_capacity(n),
            tuples_in: vec![0.0; n],
            tuples_out: vec![0.0; n],
            busy_ns: vec![0.0; n],
            queue: vec![0; n],
            queue_max: vec![0; n],
            restarts: vec![0; n],
            latency: vec![HistogramSnapshot::new(); n],
            samples: Vec::new(),
            events: Vec::new(),
            trace_every,
            next_trace: 1,
            next_span: 1,
            spans: Vec::new(),
        };
        for (i, inst) in phys.instances.iter().enumerate() {
            let node = placement.node_of[i];
            tel.operator
                .push(phys.logical.nodes[inst.node].name.clone());
            tel.instance_idx.push(inst.index);
            tel.node_label
                .push(format!("node{node}:{}", cluster.nodes[node].node_type.name));
        }
        tel.events.push(FlightEvent {
            t_ms: 0,
            kind: FlightEventKind::RunStarted,
            node: 0,
            instance: 0,
            detail: format!("{n} simulated instances"),
            trace: None,
        });
        tel
    }

    /// Start a sampled trace at a source arrival: records the root `Source`
    /// span on virtual time and returns the context the batch carries.
    fn trace_source(&mut self, op: &str, instance: usize, t_ns: f64) -> Option<TraceContext> {
        if self.trace_every == 0 {
            return None;
        }
        let trace = TraceId(self.next_trace);
        self.next_trace += 1;
        let id = SpanId(self.next_span);
        self.next_span += 1;
        let at = t_ns.max(0.0) as u64;
        self.spans.push(Span {
            trace,
            id,
            parent: None,
            kind: SpanKind::Source,
            op: op.to_string(),
            site: "sim".to_string(),
            instance,
            start_ns: at,
            end_ns: at,
        });
        Some(TraceContext { trace, parent: id })
    }

    /// Record a virtual-time span of `kind` over `[start_ns, end_ns]`
    /// chained onto `ctx`, returning the continuing context.
    fn trace_span(
        &mut self,
        ctx: TraceContext,
        kind: SpanKind,
        op: &str,
        instance: usize,
        start_ns: f64,
        end_ns: f64,
    ) -> TraceContext {
        let id = SpanId(self.next_span);
        self.next_span += 1;
        let s = start_ns.max(0.0) as u64;
        self.spans.push(Span {
            trace: ctx.trace,
            id,
            parent: Some(ctx.parent),
            kind,
            op: op.to_string(),
            site: "sim".to_string(),
            instance,
            start_ns: s,
            end_ns: (end_ns.max(0.0) as u64).max(s),
        });
        TraceContext {
            trace: ctx.trace,
            parent: id,
        }
    }

    /// Instantaneous queue depth: backlog wait time divided by the service
    /// time of the batch at the head — "how many batches' worth of work is
    /// queued ahead of a new arrival".
    fn observe_queue(&mut self, inst: usize, depth: u64) {
        self.queue[inst] = depth;
        self.queue_max[inst] = self.queue_max[inst].max(depth);
    }

    fn touch(&mut self, ns: f64) {
        self.horizon_ns = self.horizon_ns.max(ns);
    }

    fn service(&mut self, inst: usize, tuples: f64, service_ns: f64) {
        self.tuples_in[inst] += tuples;
        self.busy_ns[inst] += service_ns;
    }

    fn emit(&mut self, inst: usize, tuples: f64) {
        self.tuples_out[inst] += tuples;
    }

    fn sink(&mut self, inst: usize, lat_ns: f64, tuples: f64) {
        self.tuples_out[inst] += tuples;
        self.latency[inst].record(lat_ns.max(0.0) as u64);
    }

    fn failure(&mut self, rec: &RecoveryEvent, placement: &Placement) {
        let at_ms = rec.at_ms.max(0.0) as u64;
        self.events.push(FlightEvent {
            t_ms: at_ms,
            kind: FlightEventKind::FaultInjected,
            node: 0,
            instance: 0,
            detail: format!("cluster node {} failed", rec.node),
            trace: None,
        });
        self.events.push(FlightEvent {
            t_ms: at_ms,
            kind: FlightEventKind::RecoveryStarted,
            node: 0,
            instance: 0,
            detail: format!(
                "restoring {:.0} state bytes, recovery {:.1} ms",
                rec.state_bytes, rec.recovery_ms
            ),
            trace: None,
        });
        for (i, &node) in placement.node_of.iter().enumerate() {
            if node == rec.node {
                self.restarts[i] += 1;
            }
        }
    }

    /// Emit boundary samples for every interval crossed before `now_ns`.
    fn advance(&mut self, now_ns: f64) {
        self.horizon_ns = self.horizon_ns.max(now_ns);
        while self.next_sample_ns <= now_ns {
            let sample = self.snapshot_at(self.next_sample_ns);
            self.samples.push(sample);
            self.next_sample_ns += self.interval_ms as f64 * 1e6;
        }
    }

    fn snapshot_at(&self, t_ns: f64) -> TimelineSample {
        let instances = (0..self.operator.len())
            .map(|i| {
                let busy = self.busy_ns[i].min(t_ns);
                InstanceSnapshot {
                    app: self.app.clone(),
                    operator: self.operator[i].clone(),
                    instance: self.instance_idx[i],
                    node: self.node_label[i].clone(),
                    tuples_in: self.tuples_in[i].round() as u64,
                    tuples_out: self.tuples_out[i].round() as u64,
                    late_tuples: 0,
                    window_fires: 0,
                    queue_depth: self.queue[i],
                    queue_depth_max: self.queue_max[i],
                    busy_ns: busy as u64,
                    idle_ns: (t_ns - busy).max(0.0) as u64,
                    checkpoints: 0,
                    checkpoint_ns: 0,
                    restarts: self.restarts[i],
                    latency: self.latency[i].clone(),
                    ..Default::default()
                }
            })
            .collect();
        TimelineSample {
            t_ms: (t_ns / 1e6).round() as u64,
            instances,
        }
    }

    fn finish(mut self, experiment_id: &str, duration_ms: u64) -> TelemetryTimeline {
        let end_ns = self.horizon_ns.max(duration_ms as f64 * 1e6);
        let tuples_out: u64 = self.latency.iter().map(|h| h.count).sum();
        let final_sample = self.snapshot_at(end_ns);
        self.events.push(FlightEvent {
            t_ms: final_sample.t_ms,
            kind: FlightEventKind::RunFinished,
            node: 0,
            instance: 0,
            detail: format!("{tuples_out} sink batches delivered"),
            trace: None,
        });
        self.samples.push(final_sample);
        TelemetryTimeline {
            experiment_id: experiment_id.to_string(),
            app: self.app,
            backend: "simulated".to_string(),
            interval_ms: self.interval_ms,
            samples: self.samples,
            events: self.events,
        }
    }
}

/// The execution simulator for one cluster.
#[derive(Debug, Clone)]
pub struct Simulator {
    cluster: Cluster,
    config: SimConfig,
}

impl Simulator {
    /// Create a simulator for `cluster` under `config`.
    pub fn new(cluster: Cluster, config: SimConfig) -> Self {
        Simulator { cluster, config }
    }

    /// The cluster being simulated.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Simulate one execution of `plan`.
    pub fn run(&self, plan: &LogicalPlan) -> Result<SimResult> {
        let phys = PhysicalPlan::expand(plan)?;
        let placement = Placement::compute(&phys, &self.cluster, self.config.placement);
        self.run_placed(&phys, &placement)
    }

    /// Simulate one execution of `plan` with telemetry: the result carries a
    /// [`TelemetryTimeline`] sampled every `config.interval_ms` of
    /// *simulated* time, in the same schema the threaded runtime emits.
    pub fn run_instrumented(
        &self,
        plan: &LogicalPlan,
        app: &str,
        experiment_id: &str,
        config: &TelemetryConfig,
    ) -> Result<SimResult> {
        let phys = PhysicalPlan::expand(plan)?;
        let placement = Placement::compute(&phys, &self.cluster, self.config.placement);
        let mut tel = SimTelemetry::new(
            app,
            &phys,
            &placement,
            &self.cluster,
            config.interval_ms.max(1),
            config.trace_every,
        );
        let mut result = self.run_placed_inner(&phys, &placement, Some(&mut tel))?;
        let mut spans = std::mem::take(&mut tel.spans);
        spans.sort_by_key(|s| (s.start_ns, s.id));
        result.spans = spans;
        result.timeline = Some(tel.finish(experiment_id, self.config.duration_ms));
        Ok(result)
    }

    /// Simulate with an explicit placement.
    pub fn run_placed(&self, phys: &PhysicalPlan, placement: &Placement) -> Result<SimResult> {
        self.run_placed_inner(phys, placement, None)
    }

    fn run_placed_inner(
        &self,
        phys: &PhysicalPlan,
        placement: &Placement,
        mut tel: Option<&mut SimTelemetry>,
    ) -> Result<SimResult> {
        let plan = &phys.logical;
        let cfg = &self.config;
        cfg.validate()?;
        let costs = &cfg.costs;
        // Per-tuple serialization under the modeled transport batch; at
        // `transport_batch == 1` this is `serialize_ns_per_tuple` exactly.
        let eff_serialize_ns = costs.effective_serialize_ns(cfg.transport_batch);
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);

        // Failure schedule: deterministic, drawn from a dedicated RNG
        // stream so enabling failures does not perturb arrival/jitter draws.
        let failure_model = cfg.failure.as_ref();
        let mut failure_queue: std::collections::VecDeque<ScriptedFailure> = match failure_model {
            Some(fm) => {
                fm.validate(self.cluster.nodes.len())?;
                fm.schedule(self.cluster.nodes.len(), cfg.duration_ms as f64, cfg.seed)
                    .into()
            }
            None => Default::default(),
        };
        let mut recoveries: Vec<RecoveryEvent> = Vec::new();

        let schemas = plan.schemas()?;
        let source_nodes = plan.sources();
        let source_rates = vec![cfg.event_rate; source_nodes.len()];
        let node_rates = rates::propagate(plan, &source_rates)?;

        // Per-logical-node models.
        let models: Vec<NodeModel> = plan
            .nodes
            .iter()
            .map(|n| {
                let profile = n.kind.cost_profile();
                let residency_ns = match &n.kind {
                    // A session's contents wait on average half the session
                    // span plus the full gap before the watermark closes it.
                    OpKind::SessionWindow { gap_ms, .. } => {
                        (*gap_ms as f64 + costs.watermark_delay_ms) * 1e6
                    }
                    OpKind::WindowAggregate { window, .. } => {
                        let half = (window.length as f64 + window.slide as f64) / 2.0;
                        match window.policy {
                            WindowPolicy::Time => (half + costs.watermark_delay_ms) * 1e6,
                            WindowPolicy::Count => {
                                // Windows fill at the per-key rate.
                                let in_rate = node_rates[n.id].input_rate.max(1e-3);
                                let per_key = in_rate / cfg.keys.max(1) as f64;
                                (half / per_key.max(1e-6)) * 1e9
                            }
                        }
                    }
                    _ => 0.0,
                };
                // Cap residency at the simulated duration: a window that
                // never fills within the run contributes at most the run.
                let max_ns = cfg.duration_ms as f64 * 1e6;
                NodeModel {
                    selectivity: profile.selectivity.clamp(0.0, 64.0),
                    cpu_ns_per_tuple: profile.cpu_ns_per_tuple,
                    state_factor: profile.state_factor,
                    window_residency_ns: residency_ns.min(max_ns),
                    is_udo: matches!(n.kind, OpKind::Udo { .. }),
                    out_width: schemas[n.id].width().max(1),
                }
            })
            .collect();

        // Per-logical-node heterogeneity multiplier on coordination:
        // instances spanning nodes of differing clock speed pay progress-
        // alignment overhead (O5/O7 mechanism).
        let hetero_mult: Vec<f64> = plan
            .nodes
            .iter()
            .map(|n| {
                let clocks: Vec<f64> = phys.node_instances[n.id]
                    .iter()
                    .map(|&i| self.cluster.nodes[placement.node_of[i]].node_type.clock_ghz)
                    .collect();
                let (min, max) = clocks.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &c| {
                    (lo.min(c), hi.max(c))
                });
                if min.is_finite() && min > 0.0 {
                    1.0 + costs.hetero_coord_penalty * (max / min - 1.0)
                } else {
                    1.0
                }
            })
            .collect();

        // Per-node core availability.
        let mut core_free: Vec<Vec<f64>> = self
            .cluster
            .nodes
            .iter()
            .map(|n| vec![0.0f64; n.node_type.cores])
            .collect();
        // An operator instance is single-threaded: its batches serialize on
        // the instance even when the node has idle cores.
        let mut inst_free: Vec<f64> = vec![0.0; phys.instance_count()];
        // Cumulative tuples processed per instance — proxies the snapshot
        // state a failed node must restore.
        let mut inst_tuples: Vec<f64> = vec![0.0; phys.instance_count()];

        // Per-instance round-robin cursors (one per out-route).
        let mut rr: Vec<Vec<usize>> = phys
            .out_routes
            .iter()
            .map(|routes| vec![0usize; routes.len()])
            .collect();

        // Zipf CDFs for skewed hash routing, cached per fan-out degree.
        let mut zipf_cdfs: std::collections::HashMap<usize, Vec<f64>> =
            std::collections::HashMap::new();
        let skew = cfg.key_skew.filter(|&s| s > 0.0);

        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq: u64 = 0;

        // Generate source arrivals: Poisson per source instance.
        let duration_ns = cfg.duration_ms as f64 * 1e6;
        let mut tuples_in = 0.0f64;
        for (si, &src) in source_nodes.iter().enumerate() {
            let instances = &phys.node_instances[src];
            let rate_per_inst = source_rates[si] / instances.len() as f64;
            let batch_tuples = (rate_per_inst / cfg.batches_per_second).max(1.0);
            let mean_gap_ns = batch_tuples / rate_per_inst * 1e9;
            for &inst in instances {
                let mut t = 0.0f64;
                // Head sampling mirrors the engine tracer: every
                // `trace_every`-th arrival per source instance roots a trace.
                let mut emitted: u64 = 0;
                loop {
                    // Exponential inter-arrival.
                    let u: f64 = rng.gen_range(1e-12..1.0);
                    t += -mean_gap_ns * u.ln();
                    if t >= duration_ns {
                        break;
                    }
                    tuples_in += batch_tuples;
                    let trace = match tel.as_deref_mut() {
                        Some(st)
                            if st.trace_every > 0 && emitted.is_multiple_of(st.trace_every) =>
                        {
                            st.trace_source(&plan.nodes[src].name, phys.instances[inst].index, t)
                        }
                        _ => None,
                    };
                    emitted += 1;
                    heap.push(Reverse(Event {
                        time_ns: t,
                        seq,
                        instance: inst,
                        batch: Batch {
                            tuples: batch_tuples,
                            emit_ns: t,
                            trace,
                        },
                    }));
                    seq += 1;
                }
            }
        }

        let mut latency = LatencyRecorder::new(200_000);
        let mut tuples_out = 0.0f64;
        let mut chained_in = vec![false; phys.instance_count()];
        for link in phys.chain_next.iter().flatten() {
            chained_in[link.instance] = true;
        }
        let sink_set: Vec<bool> = {
            let mut v = vec![false; phys.instance_count()];
            for s in phys.sink_instances() {
                v[s] = true;
            }
            v
        };

        // Guard against runaway event counts from fan-out plans.
        let max_events: u64 = 4_000_000;
        let mut processed: u64 = 0;

        while let Some(Reverse(ev)) = heap.pop() {
            processed += 1;
            if processed > max_events {
                return Err(EngineError::Execution(
                    "simulation exceeded event budget".into(),
                ));
            }
            if let Some(t) = tel.as_deref_mut() {
                t.advance(ev.time_ns);
            }
            // Apply node failures that are due. The failed node's cores and
            // instances freeze for the modeled recovery interval; queued
            // batches then drain, producing the post-failure latency spike.
            while failure_queue
                .front()
                .is_some_and(|f| f.at_ms * 1e6 <= ev.time_ns)
            {
                let f = failure_queue.pop_front().expect("front checked");
                let fm = failure_model.expect("failures only scheduled with a model");
                let mut state_bytes = 0.0f64;
                for (i, pinst) in phys.instances.iter().enumerate() {
                    if placement.node_of[i] == f.node {
                        let m = &models[pinst.node];
                        state_bytes += inst_tuples[i]
                            * m.state_factor
                            * m.out_width as f64
                            * costs.bytes_per_field;
                    }
                }
                let recovery_ms = fm.recovery_ms(state_bytes, costs);
                let until = f.at_ms * 1e6 + recovery_ms * 1e6;
                for slot in &mut core_free[f.node] {
                    *slot = slot.max(until);
                }
                for (i, free) in inst_free.iter_mut().enumerate() {
                    if placement.node_of[i] == f.node {
                        *free = free.max(until);
                    }
                }
                recoveries.push(RecoveryEvent {
                    at_ms: f.at_ms,
                    node: f.node,
                    recovery_ms,
                    state_bytes: state_bytes * fm.state_scale,
                });
                if let Some(t) = tel.as_deref_mut() {
                    t.failure(recoveries.last().expect("just pushed"), placement);
                }
            }
            let inst = &phys.instances[ev.instance];
            let lnode = inst.node;
            let model = &models[lnode];
            let node_id = placement.node_of[ev.instance];
            let hw = &self.cluster.nodes[node_id].node_type;

            // ---- Service on one core of the node ----
            let parallelism = plan.nodes[lnode].parallelism;
            let in_channels = phys.input_channel_count[ev.instance] as f64;
            let out_targets: usize = phys.out_routes[ev.instance]
                .iter()
                .map(|r| r.targets.len())
                .sum();
            // A chained member is handed its input in its head's thread:
            // nothing to serialize, no channel to poll.
            let serialize_ns = if chained_in[ev.instance] {
                0.0
            } else {
                eff_serialize_ns
            };
            let per_tuple_ns =
                (model.cpu_ns_per_tuple + costs.framework_ns_per_tuple + serialize_ns)
                    / hw.clock_ghz
                    + costs.channel_poll_ns * in_channels
                    + costs.coordination_ns(model.state_factor, parallelism) * hetero_mult[lnode];
            let sigma = if model.is_udo {
                costs.udo_jitter_std
            } else {
                costs.jitter_std
            };
            // Lognormal jitter with unit mean.
            let z: f64 = {
                // Box-Muller from two uniforms.
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            };
            let jitter = (sigma * z - sigma * sigma / 2.0).exp();
            let fanout_cost = costs.shuffle_batch_overhead_ns * (1.0 + 0.05 * out_targets as f64);
            let service_ns = ev.batch.tuples * per_tuple_ns * jitter
                + if out_targets > 0 { fanout_cost } else { 0.0 };

            // Pick the earliest-free core on the node; the instance itself
            // must also be free (single-threaded instances).
            let cores = &mut core_free[node_id];
            let (core_idx, &free) = cores
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .ok_or_else(|| {
                    EngineError::InvalidConfig(format!(
                        "cluster node {node_id} has no cores to run instance {}",
                        ev.instance
                    ))
                })?;
            let start = ev.time_ns.max(free).max(inst_free[ev.instance]);
            let done = start + service_ns;
            cores[core_idx] = done;
            inst_free[ev.instance] = done;
            inst_tuples[ev.instance] += ev.batch.tuples;
            if let Some(t) = tel.as_deref_mut() {
                let backlog = (start - ev.time_ns).max(0.0);
                let depth = if service_ns > 0.0 {
                    (backlog / service_ns).round() as u64
                } else {
                    0
                };
                t.observe_queue(ev.instance, depth);
                t.service(ev.instance, ev.batch.tuples, service_ns);
                t.touch(done);
            }
            // Virtual-time span chain for sampled batches: channel wait then
            // service, in the engine tracer's Queue/Process/Deliver schema.
            let mut out_trace = None;
            if let (Some(st), Some(ctx)) = (tel.as_deref_mut(), ev.batch.trace) {
                let op = &plan.nodes[lnode].name;
                let kind = if sink_set[ev.instance] {
                    SpanKind::Deliver
                } else {
                    SpanKind::Process
                };
                let c = st.trace_span(ctx, SpanKind::Queue, op, inst.index, ev.time_ns, start);
                out_trace = Some(st.trace_span(c, kind, op, inst.index, start, done));
            }

            // ---- Operator semantics ----
            let mut out_batch = ev.batch;
            out_batch.trace = out_trace;
            out_batch.tuples *= model.selectivity;
            out_batch.emit_ns -= model.window_residency_ns;
            if out_batch.tuples < 1e-6 {
                continue;
            }

            if sink_set[ev.instance] {
                // Latency of this batch's representative tuple.
                let lat_ns = (done - out_batch.emit_ns).max(0.0);
                latency.record_ms(lat_ns / 1e6);
                tuples_out += out_batch.tuples;
                if let Some(t) = tel.as_deref_mut() {
                    t.sink(ev.instance, lat_ns, out_batch.tuples);
                }
                continue;
            }

            // ---- Routing ----
            // A chain link hands the batch on at once, wherever the next
            // member is placed: no hop, no wire time.
            if let Some(link) = phys.chain_next[ev.instance] {
                if let Some(t) = tel.as_deref_mut() {
                    t.emit(ev.instance, out_batch.tuples);
                }
                heap.push(Reverse(Event {
                    time_ns: done,
                    seq,
                    instance: link.instance,
                    batch: out_batch,
                }));
                seq += 1;
            }
            for (ri, route) in phys.out_routes[ev.instance].iter().enumerate() {
                let pick_targets: Vec<usize> = match &route.partitioning {
                    Partitioning::Forward => vec![0],
                    Partitioning::Broadcast => (0..route.targets.len()).collect(),
                    Partitioning::Rebalance => {
                        let i = rr[ev.instance][ri] % route.targets.len();
                        rr[ev.instance][ri] += 1;
                        vec![i]
                    }
                    Partitioning::Hash(_) => {
                        // Batches stand in for key ranges: uniform by
                        // default, Zipf-weighted under key skew (hot key
                        // ranges land on hot instances).
                        let n = route.targets.len();
                        let pick = match skew {
                            None => rng.gen_range(0..n),
                            Some(s) => {
                                let cdf = zipf_cdfs.entry(n).or_insert_with(|| {
                                    let mut acc = 0.0;
                                    let mut cdf: Vec<f64> = (1..=n)
                                        .map(|k| {
                                            acc += (k as f64).powf(-s);
                                            acc
                                        })
                                        .collect();
                                    let total = acc;
                                    for c in &mut cdf {
                                        *c /= total;
                                    }
                                    cdf
                                });
                                let u: f64 = rng.gen_range(0.0..1.0);
                                cdf.partition_point(|&c| c < u).min(n - 1)
                            }
                        };
                        vec![pick]
                    }
                };
                for ti in pick_targets {
                    let target = route.targets[ti];
                    if let Some(t) = tel.as_deref_mut() {
                        t.emit(ev.instance, out_batch.tuples);
                    }
                    let dst_node = placement.node_of[target.instance];
                    let mut arrive = done;
                    let mut tb = out_batch;
                    if dst_node != node_id {
                        let dst = &self.cluster.nodes[dst_node];
                        let gbps = hw.nic_gbps.min(dst.node_type.nic_gbps);
                        let bytes =
                            out_batch.tuples * model.out_width as f64 * costs.bytes_per_field;
                        arrive += costs.network_hop_ns + costs.wire_ns(bytes, gbps);
                        if self.cluster.nodes[node_id].rack != dst.rack {
                            arrive += costs.inter_rack_extra_ns;
                        }
                        // Cross-node hop: a `Net` span covering hop latency
                        // plus wire time, op `wire` like the engine's.
                        if let (Some(st), Some(ctx)) = (tel.as_deref_mut(), tb.trace) {
                            tb.trace = Some(st.trace_span(
                                ctx,
                                SpanKind::Net,
                                "wire",
                                inst.index,
                                done,
                                arrive,
                            ));
                        }
                    }
                    heap.push(Reverse(Event {
                        time_ns: arrive,
                        seq,
                        instance: target.instance,
                        batch: tb,
                    }));
                    seq += 1;
                }
            }
        }

        Ok(SimResult {
            latency,
            tuples_in: tuples_in.round() as u64,
            tuples_out: tuples_out.round() as u64,
            sim_seconds: cfg.duration_ms as f64 / 1e3,
            cross_node_fraction: placement.cross_node_fraction(phys),
            recoveries,
            timeline: None,
            spans: Vec::new(),
        })
    }

    /// The paper's protocol: three runs (different seeds), mean of medians.
    pub fn measure(&self, plan: &LogicalPlan) -> Result<f64> {
        let proto = MeasurementProtocol::default();
        let mut err = None;
        let result = proto.measure(|run| {
            let mut sim = self.clone();
            sim.config.seed = self.config.seed.wrapping_add(run as u64 * 7919);
            match sim.run(plan) {
                Ok(r) => r.summary(),
                Err(e) => {
                    err = Some(e);
                    RunSummary {
                        p50_latency_ms: 0.0,
                        p90_latency_ms: 0.0,
                        p99_latency_ms: 0.0,
                        mean_latency_ms: 0.0,
                        throughput_in: 0.0,
                        throughput_out: 0.0,
                        tuples_out: 0,
                        tuples_in: 0,
                    }
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        Ok(result.mean_of_median_latency_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsp_engine::agg::AggFunc;
    use pdsp_engine::expr::Predicate;
    use pdsp_engine::value::{FieldType, Schema};
    use pdsp_engine::window::WindowSpec;
    use pdsp_engine::PlanBuilder;

    fn linear_plan(p: usize) -> LogicalPlan {
        PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int, FieldType::Double]), 2)
            .filter("f", Predicate::True, 0.8)
            .set_parallelism(1, p)
            .sink("sink")
            .build()
            .unwrap()
    }

    fn quick_config() -> SimConfig {
        SimConfig {
            event_rate: 50_000.0,
            duration_ms: 2_000,
            batches_per_second: 100.0,
            ..SimConfig::default()
        }
    }

    #[test]
    fn unit_transport_batch_is_bit_identical_to_legacy_model() {
        // `transport_batch: 1` (the default) must reproduce the pre-batching
        // cost model exactly, regardless of the marginal split — Figures 3/4
        // shapes depend on it.
        let mut skewed = quick_config();
        skewed.costs.serialize_marginal_ns = 10.0;
        let base = Simulator::new(Cluster::homogeneous_m510(10), quick_config());
        let alt = Simulator::new(Cluster::homogeneous_m510(10), skewed);
        let a = base.run(&linear_plan(4)).unwrap();
        let b = alt.run(&linear_plan(4)).unwrap();
        assert_eq!(a.latency.median(), b.latency.median());
        assert_eq!(a.tuples_out, b.tuples_out);
    }

    #[test]
    fn transport_batching_reduces_modeled_service_time() {
        let batched = SimConfig {
            transport_batch: 64,
            ..quick_config()
        };
        let r1 = Simulator::new(Cluster::homogeneous_m510(10), quick_config())
            .run(&linear_plan(4))
            .unwrap();
        let r64 = Simulator::new(Cluster::homogeneous_m510(10), batched)
            .run(&linear_plan(4))
            .unwrap();
        assert!(
            r64.latency.median().unwrap() < r1.latency.median().unwrap(),
            "amortized framing must lower modeled latency: {:?} vs {:?}",
            r64.latency.median(),
            r1.latency.median()
        );
        assert_eq!(r64.tuples_out, r1.tuples_out, "batching changes no counts");
    }

    #[test]
    fn zero_transport_batch_acts_as_tuple_at_a_time() {
        // Old serialized configs deserialize the missing field to 0; that
        // must behave exactly like the explicit legacy value 1.
        let zero = SimConfig {
            transport_batch: 0,
            ..quick_config()
        };
        let a = Simulator::new(Cluster::homogeneous_m510(10), zero)
            .run(&linear_plan(2))
            .unwrap();
        let b = Simulator::new(Cluster::homogeneous_m510(10), quick_config())
            .run(&linear_plan(2))
            .unwrap();
        assert_eq!(a.latency.median(), b.latency.median());
    }

    #[test]
    fn chain_links_pay_no_hop_or_transfer() {
        // src -> f1 -> f2 -> sink, one instance each, round-robin over four
        // nodes. Chained, f2 runs on f1's node and f1 hands it its batches in
        // its own thread; over a rebalance the two are separate tasks on
        // different nodes, and each batch pays a hop, wire time and
        // serialization.
        let plan = |link: Partitioning| {
            PlanBuilder::new()
                .source("src", Schema::of(&[FieldType::Int, FieldType::Double]), 1)
                .filter("f1", Predicate::True, 1.0)
                .chain(
                    "f2",
                    OpKind::Filter {
                        predicate: Predicate::True,
                        selectivity: 1.0,
                    },
                    Some(link),
                )
                .sink("sink")
                .build()
                .unwrap()
        };
        let config = SimConfig {
            placement: PlacementStrategy::RoundRobin,
            ..quick_config()
        };
        let sim = Simulator::new(Cluster::homogeneous_m510(4), config.clone());
        let chained = sim.run(&plan(Partitioning::Forward)).unwrap();
        let hopped = sim.run(&plan(Partitioning::Rebalance)).unwrap();
        assert_eq!(chained.tuples_out, hopped.tuples_out);
        let saved_ms = hopped.latency.median().unwrap() - chained.latency.median().unwrap();
        assert!(
            saved_ms >= config.costs.network_hop_ns / 1e6,
            "the link saves at least one hop: {saved_ms} ms"
        );
    }

    #[test]
    fn simulation_is_deterministic_given_seed() {
        let sim = Simulator::new(Cluster::homogeneous_m510(10), quick_config());
        let a = sim.run(&linear_plan(4)).unwrap();
        let b = sim.run(&linear_plan(4)).unwrap();
        assert_eq!(a.latency.median(), b.latency.median());
        assert_eq!(a.tuples_out, b.tuples_out);
    }

    #[test]
    fn selectivity_thins_output() {
        let sim = Simulator::new(Cluster::homogeneous_m510(10), quick_config());
        let r = sim.run(&linear_plan(4)).unwrap();
        let ratio = r.tuples_out as f64 / r.tuples_in as f64;
        assert!(
            (ratio - 0.8).abs() < 0.05,
            "filter selectivity 0.8, observed {ratio}"
        );
    }

    #[test]
    fn latencies_are_positive_and_finite() {
        let sim = Simulator::new(Cluster::homogeneous_m510(10), quick_config());
        let r = sim.run(&linear_plan(2)).unwrap();
        let m = r.latency.median().unwrap();
        assert!(m > 0.0 && m.is_finite());
    }

    #[test]
    fn window_residency_dominates_windowed_latency() {
        let plain = linear_plan(4);
        let windowed = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int, FieldType::Double]), 2)
            .window_agg_keyed("agg", WindowSpec::tumbling_time(1000), AggFunc::Avg, 1, 0)
            .set_parallelism(1, 4)
            .sink("sink")
            .build()
            .unwrap();
        let sim = Simulator::new(Cluster::homogeneous_m510(10), quick_config());
        let lp = sim.run(&plain).unwrap().latency.median().unwrap();
        let lw = sim.run(&windowed).unwrap().latency.median().unwrap();
        assert!(
            lw > lp + 400.0,
            "1s tumbling window must add ~500ms residency: plain {lp}, windowed {lw}"
        );
    }

    #[test]
    fn underparallelized_join_saturates() {
        // A join at parallelism 1 under 50k ev/s cannot keep up; latency
        // must blow up relative to parallelism 8.
        fn join_plan(p: usize) -> LogicalPlan {
            let mut b = PlanBuilder::new();
            let s1 = b.add_node(
                "s1",
                pdsp_engine::OpKind::Source {
                    schema: Schema::of(&[FieldType::Int]),
                },
                2,
            );
            let s2 = b.add_node(
                "s2",
                pdsp_engine::OpKind::Source {
                    schema: Schema::of(&[FieldType::Int]),
                },
                2,
            );
            b.join("j", s1, s2, WindowSpec::tumbling_time(500), 0, 0)
                .set_parallelism(2, p)
                .sink("sink")
                .build()
                .unwrap()
        }
        let sim = Simulator::new(Cluster::homogeneous_m510(10), quick_config());
        let l1 = sim.run(&join_plan(1)).unwrap().latency.median().unwrap();
        let l8 = sim.run(&join_plan(8)).unwrap().latency.median().unwrap();
        assert!(
            l1 > 3.0 * l8,
            "join p=1 should saturate: p1 {l1} ms vs p8 {l8} ms"
        );
    }

    #[test]
    fn faster_cluster_is_faster_for_cpu_bound_work() {
        // c6525_25g (2.2 GHz, 25G NIC, 16 cores) vs m510 (2.0 GHz, 10G, 8).
        let plan = linear_plan(8);
        let cfg = quick_config();
        let slow = Simulator::new(Cluster::homogeneous_m510(10), cfg.clone());
        let fast = Simulator::new(Cluster::c6525_25g(10), cfg);
        let ls = slow.run(&plan).unwrap().latency.median().unwrap();
        let lf = fast.run(&plan).unwrap().latency.median().unwrap();
        assert!(
            lf < ls * 1.05,
            "c6525 {lf} ms should not lose to m510 {ls} ms"
        );
    }

    #[test]
    fn measure_averages_three_seeds() {
        let sim = Simulator::new(Cluster::homogeneous_m510(10), quick_config());
        let m = sim.measure(&linear_plan(4)).unwrap();
        assert!(m > 0.0 && m.is_finite());
    }

    #[test]
    fn cross_rack_clusters_pay_extra_transfer_latency() {
        let plan = linear_plan(8);
        let cfg = quick_config();
        let single = Simulator::new(Cluster::homogeneous_m510(10), cfg.clone());
        let multi = Simulator::new(Cluster::homogeneous_m510(10).with_racks(5), cfg);
        let ls = single.run(&plan).unwrap().latency.median().unwrap();
        let lm = multi.run(&plan).unwrap().latency.median().unwrap();
        assert!(
            lm > ls,
            "5-rack deployment must be slower than single-rack: {ls:.2} vs {lm:.2}"
        );
    }

    #[test]
    fn key_skew_degrades_parallel_latency() {
        // Under heavy skew most batches hit one instance, so a keyed
        // operator at p=8 behaves closer to p=1 than under uniform keys.
        let plan = PlanBuilder::new()
            .source("src", Schema::of(&[FieldType::Int, FieldType::Double]), 2)
            .window_agg_keyed("agg", WindowSpec::tumbling_time(200), AggFunc::Sum, 1, 0)
            .set_parallelism(1, 8)
            .sink("sink")
            .build()
            .unwrap();
        let mut cfg = quick_config();
        cfg.event_rate = 1_500_000.0; // ~2 busy cores of aggregation demand
        let uniform = Simulator::new(Cluster::homogeneous_m510(10), cfg.clone());
        cfg.key_skew = Some(1.5);
        let skewed = Simulator::new(Cluster::homogeneous_m510(10), cfg);
        let lu = uniform.run(&plan).unwrap().latency.median().unwrap();
        let ls = skewed.run(&plan).unwrap().latency.median().unwrap();
        assert!(
            ls > lu * 1.1,
            "skewed keys must hurt: uniform {lu:.1} ms vs skewed {ls:.1} ms"
        );
    }

    #[test]
    fn scripted_failure_records_recovery_and_raises_tail_latency() {
        let plan = linear_plan(8);
        let clean_cfg = quick_config();
        let mut failing_cfg = clean_cfg.clone();
        failing_cfg.failure = Some(crate::failure::FailureModel {
            failures: vec![crate::failure::ScriptedFailure {
                at_ms: 1_000.0,
                node: 0,
            }],
            detection_timeout_ms: 200.0,
            checkpoint_interval_ms: 500.0,
            ..crate::failure::FailureModel::default()
        });
        let clean = Simulator::new(Cluster::homogeneous_m510(4), clean_cfg)
            .run(&plan)
            .unwrap();
        let failing = Simulator::new(Cluster::homogeneous_m510(4), failing_cfg)
            .run(&plan)
            .unwrap();
        assert!(clean.recoveries.is_empty());
        assert_eq!(failing.recoveries.len(), 1);
        let rec = &failing.recoveries[0];
        assert_eq!(rec.node, 0);
        assert!(
            rec.recovery_ms >= 200.0 + 250.0,
            "detection + half interval"
        );
        // Batches queued behind the frozen node drain late: the failing
        // run's worst latency must show the spike.
        let lc = clean.latency.percentile(99.0).unwrap();
        let lf = failing.latency.percentile(99.0).unwrap();
        assert!(
            lf > lc,
            "p99 with failure {lf:.1} ms must exceed failure-free {lc:.1} ms"
        );
    }

    #[test]
    fn mttf_failures_are_deterministic_given_seed() {
        let mut cfg = quick_config();
        cfg.failure = Some(crate::failure::FailureModel {
            mttf_ms: Some(1_500.0),
            ..crate::failure::FailureModel::default()
        });
        let sim = Simulator::new(Cluster::homogeneous_m510(4), cfg);
        let a = sim.run(&linear_plan(4)).unwrap();
        let b = sim.run(&linear_plan(4)).unwrap();
        assert!(!a.recoveries.is_empty(), "MTTF 1.5s over 2s draws failures");
        assert_eq!(a.recoveries.len(), b.recoveries.len());
        assert_eq!(a.latency.median(), b.latency.median());
    }

    #[test]
    fn instrumented_run_produces_timeline_without_perturbing_results() {
        let sim = Simulator::new(Cluster::homogeneous_m510(10), quick_config());
        let r = sim
            .run_instrumented(
                &linear_plan(4),
                "WC",
                "exp-sim-1",
                &TelemetryConfig::default(),
            )
            .unwrap();
        let tl = r
            .timeline
            .as_ref()
            .expect("instrumented run has a timeline");
        assert_eq!(tl.backend, "simulated");
        assert_eq!(tl.experiment_id, "exp-sim-1");
        assert_eq!(tl.app, "WC");
        assert!(!tl.samples.is_empty());
        let last = tl.final_sample().unwrap();
        assert!(last.instances.iter().any(|i| i.tuples_out > 0));
        assert!(last.instances.iter().all(|i| i.node.starts_with("node")));
        assert!(tl.final_latency().count > 0, "sink latencies recorded");
        assert!(
            tl.events
                .iter()
                .any(|e| e.kind == pdsp_telemetry::FlightEventKind::RunFinished),
            "run end is logged"
        );
        // Telemetry must not perturb the simulation itself: same seed, same
        // numbers as the uninstrumented run.
        let plain = sim.run(&linear_plan(4)).unwrap();
        assert!(plain.timeline.is_none());
        assert_eq!(plain.latency.median(), r.latency.median());
        assert_eq!(plain.tuples_out, r.tuples_out);
    }

    #[test]
    fn instrumented_traces_assemble_with_full_critical_paths() {
        let sim = Simulator::new(Cluster::homogeneous_m510(10), quick_config());
        let cfg = TelemetryConfig {
            trace_every: 64,
            ..TelemetryConfig::default()
        };
        let r = sim
            .run_instrumented(&linear_plan(4), "WC", "exp-sim-t", &cfg)
            .unwrap();
        assert!(!r.spans.is_empty(), "sampled run records spans");
        let trees = pdsp_telemetry::assemble(r.spans.clone());
        let paths: Vec<_> = trees
            .iter()
            .filter_map(pdsp_telemetry::critical_path)
            .collect();
        assert!(!paths.is_empty(), "sampled traces reach the sink");
        for cp in &paths {
            let sum: u64 = cp.segments.iter().map(|s| s.ns).sum();
            assert_eq!(sum, cp.total_ns, "segments cover the whole path");
        }
        // Tracing must not perturb the simulation: same seed, same numbers.
        let plain = sim.run(&linear_plan(4)).unwrap();
        assert_eq!(plain.latency.median(), r.latency.median());
        assert!(plain.spans.is_empty());
        // Tracing off: instrumented runs record no spans.
        let untraced = sim
            .run_instrumented(
                &linear_plan(4),
                "WC",
                "exp-sim-u",
                &TelemetryConfig::default(),
            )
            .unwrap();
        assert!(untraced.spans.is_empty());
    }

    #[test]
    fn cross_node_sim_traces_carry_net_spans() {
        // Force cross-node traffic with a tiny 2-node cluster and high
        // parallelism; sampled traces must include wire hops.
        let sim = Simulator::new(Cluster::homogeneous_m510(2), quick_config());
        let cfg = TelemetryConfig {
            trace_every: 32,
            ..TelemetryConfig::default()
        };
        let r = sim
            .run_instrumented(&linear_plan(8), "WC", "exp-sim-n", &cfg)
            .unwrap();
        assert!(
            r.spans.iter().any(|s| s.kind == SpanKind::Net),
            "cross-node hops record Net spans"
        );
        assert!(r.spans.iter().all(|s| s.site == "sim"));
    }

    #[test]
    fn instrumented_failure_run_logs_fault_events_and_restarts() {
        let mut cfg = quick_config();
        cfg.failure = Some(crate::failure::FailureModel {
            failures: vec![crate::failure::ScriptedFailure {
                at_ms: 1_000.0,
                node: 0,
            }],
            ..crate::failure::FailureModel::default()
        });
        let sim = Simulator::new(Cluster::homogeneous_m510(4), cfg);
        let r = sim
            .run_instrumented(
                &linear_plan(8),
                "WC",
                "exp-sim-2",
                &TelemetryConfig::default(),
            )
            .unwrap();
        let tl = r.timeline.unwrap();
        assert!(tl
            .events
            .iter()
            .any(|e| e.kind == pdsp_telemetry::FlightEventKind::FaultInjected));
        assert!(tl
            .events
            .iter()
            .any(|e| e.kind == pdsp_telemetry::FlightEventKind::RecoveryStarted));
        let last = tl.final_sample().unwrap();
        assert!(
            last.instances.iter().any(|i| i.restarts > 0),
            "instances on the failed node register a restart"
        );
    }

    #[test]
    fn invalid_sim_config_is_rejected() {
        let sim = Simulator::new(
            Cluster::homogeneous_m510(4),
            SimConfig {
                event_rate: 0.0,
                ..quick_config()
            },
        );
        assert!(matches!(
            sim.run(&linear_plan(2)),
            Err(EngineError::InvalidConfig(_))
        ));
        let sim = Simulator::new(
            Cluster::homogeneous_m510(4),
            SimConfig {
                keys: 0,
                ..quick_config()
            },
        );
        assert!(sim.run(&linear_plan(2)).is_err());
    }

    #[test]
    fn event_budget_guards_against_explosion() {
        // Broadcast into high parallelism from high batch counts must be
        // caught, not hang.
        let mut cfg = quick_config();
        cfg.batches_per_second = 2000.0;
        cfg.duration_ms = 20_000;
        let mut plan = linear_plan(64);
        plan.edges[0].partitioning = Partitioning::Broadcast;
        plan.edges[1].partitioning = Partitioning::Broadcast;
        let sim = Simulator::new(Cluster::homogeneous_m510(10), cfg);
        // Either completes within budget or errors cleanly — must not hang.
        let _ = sim.run(&plan);
    }
}
