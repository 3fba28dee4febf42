//! Sampled distributed tracing: span schema, lock-free per-writer span
//! rings, trace assembly, critical-path decomposition, and exporters.
//!
//! The design is Dapper-style head sampling: sources stamp every Nth tuple
//! with a [`TraceContext`]; each data-plane stage (batcher linger, channel
//! queue wait, operator processing, wire serialize, network transfer, sink
//! delivery) records one [`Span`] per traced *frame* into a single-writer
//! [`SpanRing`], chaining `parent` pointers so the coordinator can
//! reassemble the causal tree after the run. The same schema is emitted by
//! the discrete-event simulator on virtual time, which is what makes
//! predicted-vs-measured per-edge comparison possible.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::cell::UnsafeCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Identifies one sampled end-to-end trace.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TraceId(pub u64);

/// Identifies one span within a run; unique across processes because each
/// [`TraceBook`] allocates from a disjoint id range (see
/// [`TraceBook::new`]).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SpanId(pub u64);

/// The causal context carried by tuples and batch frames: which trace they
/// belong to and the span id of the most recent upstream stage, which
/// becomes the `parent` of the next span recorded downstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceContext {
    /// The trace this tuple/frame belongs to.
    pub trace: TraceId,
    /// The most recent upstream span; parent of the next recorded span.
    pub parent: SpanId,
}

/// What a span measures. Labels are part of the exporter golden contract —
/// do not rename without updating the golden tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// Root span stamped at the source when a tuple is sampled.
    Source,
    /// Time the first traced tuple of a frame waited in the edge batcher
    /// before the frame flushed (size/linger/marker).
    Batch,
    /// Enqueue→dequeue wait on an inter-instance channel.
    Queue,
    /// Operator processing of the traced frame.
    Process,
    /// Wire framing: flush→TCP write, including the forwarder proxy queue.
    Serialize,
    /// TCP write→remote decode on a cross-process hop.
    Net,
    /// Sink delivery/capture of the traced frame.
    Deliver,
}

impl SpanKind {
    /// Stable lowercase label used in exports and reports.
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Source => "source",
            SpanKind::Batch => "batch",
            SpanKind::Queue => "queue",
            SpanKind::Process => "process",
            SpanKind::Serialize => "serialize",
            SpanKind::Net => "net",
            SpanKind::Deliver => "deliver",
        }
    }
}

/// One recorded interval, the unit every runtime and the simulator share.
///
/// Timestamps are nanoseconds on the run's clock: monotonic-from-start for
/// threaded runs, UNIX-epoch for distributed runs (comparable across
/// processes on one host), virtual time for simulated runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// Unique id of this span.
    pub id: SpanId,
    /// Causal parent (the upstream stage), `None` for the source root.
    #[serde(default)]
    pub parent: Option<SpanId>,
    /// What this span measures.
    pub kind: SpanKind,
    /// Operator name that recorded the span (`"wire"` for transport spans
    /// recorded by the network acceptor).
    pub op: String,
    /// Process label: `"local"`, `"worker0"`, `"sim"`, …
    pub site: String,
    /// Operator instance index that recorded the span.
    pub instance: usize,
    /// Interval start, ns.
    pub start_ns: u64,
    /// Interval end, ns.
    pub end_ns: u64,
}

impl Span {
    /// Span duration in nanoseconds (0 if the interval is inverted).
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A lock-free bounded span ring with exactly one writer thread.
///
/// # Safety contract
///
/// `push` may be called from **one** thread only (the owning instance /
/// acceptor thread). `drain` may only be called after that writer has
/// quiesced — in practice after the thread was joined, which establishes
/// the necessary happens-before edge. The head counter is still
/// release/acquire ordered so the contract is cheap to uphold.
pub struct SpanRing {
    slots: Box<[UnsafeCell<Option<Span>>]>,
    head: AtomicUsize,
}

// SAFETY: interior mutability is confined by the single-writer /
// drain-after-join contract documented on the type; the Release store in
// `push` paired with the Acquire load in `drain` orders slot writes before
// the head they publish.
unsafe impl Send for SpanRing {}
unsafe impl Sync for SpanRing {}

impl std::fmt::Debug for SpanRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRing")
            .field("capacity", &self.slots.len())
            .field("recorded", &self.head.load(Ordering::Relaxed))
            .finish()
    }
}

impl SpanRing {
    /// Create a ring keeping the most recent `capacity` spans.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let slots: Vec<UnsafeCell<Option<Span>>> =
            (0..cap).map(|_| UnsafeCell::new(None)).collect();
        SpanRing {
            slots: slots.into_boxed_slice(),
            head: AtomicUsize::new(0),
        }
    }

    /// Record a span. Single-writer: see the type-level safety contract.
    pub fn push(&self, span: Span) {
        let i = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[i % self.slots.len()];
        // SAFETY: only the owning writer thread calls `push`, and `drain`
        // runs only after this thread quiesces (type-level contract).
        unsafe { *slot.get() = Some(span) };
        self.head.store(i + 1, Ordering::Release);
    }

    /// Total spans ever recorded (including any that wrapped out).
    pub fn recorded(&self) -> usize {
        self.head.load(Ordering::Acquire)
    }

    /// Take the retained spans in insertion order. Only valid after the
    /// writer thread has quiesced (see the type-level safety contract).
    pub fn drain(&self) -> Vec<Span> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len();
        let kept = head.min(cap);
        let mut out = Vec::with_capacity(kept);
        for k in 0..kept {
            let idx = if head <= cap { k } else { (head + k) % cap };
            // SAFETY: the writer has quiesced (type-level contract), so no
            // concurrent writes race with this read.
            let span = unsafe { (*self.slots[idx].get()).take() };
            if let Some(s) = span {
                out.push(s);
            }
        }
        out
    }
}

/// Per-process trace state: sampling rate, span-id allocation, and the set
/// of single-writer rings registered by instance and acceptor threads.
#[derive(Debug)]
pub struct TraceBook {
    site: String,
    sample_every: u64,
    capacity: usize,
    rings: Mutex<Vec<Arc<SpanRing>>>,
    next_id: AtomicU64,
}

impl TraceBook {
    /// Create a book for one process. `site` labels every span recorded
    /// here (`"local"`, `"worker1"`, `"sim"`); `sample_every` is the 1/N
    /// head-sampling rate; `id_base` must differ per process in a
    /// distributed run — ids are allocated from `id_base << 48` up, so
    /// spans from different workers never collide.
    pub fn new(site: impl Into<String>, sample_every: u64, capacity: usize, id_base: u64) -> Self {
        TraceBook {
            site: site.into(),
            sample_every: sample_every.max(1),
            capacity: capacity.max(1),
            rings: Mutex::new(Vec::new()),
            next_id: AtomicU64::new((id_base << 48) | 1),
        }
    }

    /// The process label stamped on spans recorded here.
    pub fn site(&self) -> &str {
        &self.site
    }

    /// The 1/N head-sampling rate.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Register a new single-writer ring (one per instance or acceptor
    /// thread).
    pub fn ring(&self) -> Arc<SpanRing> {
        let ring = Arc::new(SpanRing::new(self.capacity));
        self.rings.lock().push(Arc::clone(&ring));
        ring
    }

    /// Allocate a process-unique span id.
    pub fn next_span_id(&self) -> SpanId {
        SpanId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Allocate a process-unique trace id (same id space as spans).
    pub fn next_trace_id(&self) -> TraceId {
        TraceId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Collect every retained span, sorted by start time. Only valid once
    /// all writer threads have been joined.
    pub fn drain(&self) -> Vec<Span> {
        let rings = self.rings.lock();
        let mut out: Vec<Span> = rings.iter().flat_map(|r| r.drain()).collect();
        out.sort_by_key(|s| (s.start_ns, s.id));
        out
    }
}

/// All spans of one trace, sorted by start time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceTree {
    /// The trace these spans belong to.
    pub trace: TraceId,
    /// Member spans, sorted by `(start_ns, id)`.
    pub spans: Vec<Span>,
}

impl TraceTree {
    /// The root span: the `source` span if present, else the earliest.
    pub fn root(&self) -> Option<&Span> {
        self.spans
            .iter()
            .find(|s| s.kind == SpanKind::Source)
            .or_else(|| self.spans.first())
    }

    /// The terminal span: the latest-ending `deliver` span if present.
    pub fn sink(&self) -> Option<&Span> {
        self.spans
            .iter()
            .filter(|s| s.kind == SpanKind::Deliver)
            .max_by_key(|s| s.end_ns)
    }

    /// Whether spans were recorded by more than one process.
    pub fn is_cross_process(&self) -> bool {
        let first = match self.spans.first() {
            Some(s) => &s.site,
            None => return false,
        };
        self.spans.iter().any(|s| &s.site != first)
    }

    /// Whether the trace crossed the network (a nonempty `net` span).
    pub fn has_net_span(&self) -> bool {
        self.spans
            .iter()
            .any(|s| s.kind == SpanKind::Net && s.dur_ns() > 0)
    }

    /// Whether the trace is complete: a source root and a sink delivery.
    pub fn is_complete(&self) -> bool {
        self.spans.iter().any(|s| s.kind == SpanKind::Source) && self.sink().is_some()
    }

    /// Verify the parent pointers form a forest (no cycles, every parent
    /// either in-tree or absent). Used by the property tests.
    pub fn is_acyclic(&self) -> bool {
        let by_id: BTreeMap<SpanId, &Span> = self.spans.iter().map(|s| (s.id, s)).collect();
        for start in &self.spans {
            let mut hops = 0usize;
            let mut cur = start.parent;
            while let Some(pid) = cur {
                if pid == start.id || hops > self.spans.len() {
                    return false;
                }
                hops += 1;
                cur = by_id.get(&pid).and_then(|s| s.parent);
            }
        }
        true
    }
}

/// Group raw spans into per-trace trees, sorted by trace id.
pub fn assemble(spans: Vec<Span>) -> Vec<TraceTree> {
    let mut by_trace: BTreeMap<TraceId, Vec<Span>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().push(s);
    }
    by_trace
        .into_iter()
        .map(|(trace, mut spans)| {
            spans.sort_by_key(|s| (s.start_ns, s.id));
            TraceTree { trace, spans }
        })
        .collect()
}

/// One labeled slice of a critical path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Human-readable segment label, e.g. `op:count` or `net:split→count`.
    pub label: String,
    /// Time attributed to this segment, ns.
    pub ns: u64,
}

/// Critical-path decomposition of one trace: the causal chain from source
/// to sink, with uncovered intervals surfaced as explicit `gap:` segments
/// so the segment durations sum exactly to the end-to-end latency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CriticalPath {
    /// The decomposed trace.
    pub trace: TraceId,
    /// End-to-end latency (source emit → sink delivery), ns.
    pub total_ns: u64,
    /// Ordered segments; durations sum to `total_ns` exactly.
    pub segments: Vec<Segment>,
}

/// Compute the critical path of a trace by walking parent pointers from
/// the sink delivery back to the source root. Returns `None` for
/// incomplete traces (no source root or no sink delivery reachable).
pub fn critical_path(tree: &TraceTree) -> Option<CriticalPath> {
    let by_id: BTreeMap<SpanId, &Span> = tree.spans.iter().map(|s| (s.id, s)).collect();
    let sink = tree.sink()?;
    // Walk sink → root.
    let mut chain: Vec<&Span> = vec![sink];
    let mut cur = sink.parent;
    let mut hops = 0usize;
    while let Some(pid) = cur {
        if hops > tree.spans.len() {
            return None; // cycle guard
        }
        hops += 1;
        match by_id.get(&pid) {
            Some(s) => {
                chain.push(s);
                cur = s.parent;
            }
            None => break, // parent recorded on a ring that wrapped; stop
        }
    }
    chain.reverse();
    if chain.first()?.kind != SpanKind::Source {
        return None;
    }

    // Sender/receiver operator names for transport segments: the nearest
    // chain element before/after that carries a real operator name.
    let n = chain.len();
    let carries_op = |s: &Span| {
        matches!(
            s.kind,
            SpanKind::Source | SpanKind::Process | SpanKind::Deliver
        )
    };
    let mut from_op: Vec<&str> = vec![""; n];
    let mut last = "";
    for (i, s) in chain.iter().enumerate() {
        from_op[i] = last;
        if carries_op(s) {
            last = &s.op;
        } else if s.kind == SpanKind::Batch {
            // The batcher runs in the sender's thread; its op IS the sender.
            last = &s.op;
        }
    }
    let mut to_op: Vec<&str> = vec![""; n];
    let mut next = "";
    for (i, s) in chain.iter().enumerate().rev() {
        to_op[i] = next;
        if carries_op(s) || s.kind == SpanKind::Queue {
            next = &s.op;
        }
    }

    let label = |i: usize, s: &Span| -> String {
        match s.kind {
            SpanKind::Source => format!("source:{}", s.op),
            SpanKind::Batch => format!("batch:{}", s.op),
            SpanKind::Queue => format!("queue:{}→{}", from_op[i], s.op),
            SpanKind::Serialize => format!("serialize:{}→{}", from_op[i], to_op[i]),
            SpanKind::Net => format!("net:{}→{}", from_op[i], to_op[i]),
            SpanKind::Process => format!("op:{}", s.op),
            SpanKind::Deliver => format!("sink:{}", s.op),
        }
    };

    let start = chain[0].start_ns;
    let total = chain[n - 1].end_ns.saturating_sub(start);
    let mut segments = Vec::with_capacity(2 * n);
    let mut cursor = start;
    for (i, s) in chain.iter().enumerate() {
        if s.start_ns > cursor {
            segments.push(Segment {
                label: format!("gap:{}", if s.op == "wire" { to_op[i] } else { &s.op }),
                ns: s.start_ns - cursor,
            });
            cursor = s.start_ns;
        }
        if s.end_ns > cursor {
            segments.push(Segment {
                label: label(i, s),
                ns: s.end_ns - cursor,
            });
            cursor = s.end_ns;
        }
    }
    Some(CriticalPath {
        trace: tree.trace,
        total_ns: total,
        segments,
    })
}

/// Aggregated attribution across many traces' critical paths.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Attribution {
    /// Number of complete traces aggregated.
    pub traces: usize,
    /// Mean end-to-end latency across those traces, ns.
    pub mean_total_ns: f64,
    /// Per-label mean attributed time (ns) and share of the mean total,
    /// sorted descending by mean time.
    pub segments: Vec<AttributedSegment>,
}

/// One aggregated segment of an [`Attribution`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttributedSegment {
    /// Segment label (shared with [`Segment::label`]).
    pub label: String,
    /// Mean time attributed per trace, ns.
    pub mean_ns: f64,
    /// Fraction of mean end-to-end latency.
    pub share: f64,
}

impl Attribution {
    /// The label eating the most latency, if any traces were aggregated.
    pub fn dominant(&self) -> Option<&str> {
        self.segments.first().map(|s| s.label.as_str())
    }
}

/// Aggregate the critical paths of all complete traces.
pub fn attribute(trees: &[TraceTree]) -> Attribution {
    let paths: Vec<CriticalPath> = trees.iter().filter_map(critical_path).collect();
    let count = paths.len();
    if count == 0 {
        return Attribution {
            traces: 0,
            mean_total_ns: 0.0,
            segments: Vec::new(),
        };
    }
    let mut sums: BTreeMap<String, u64> = BTreeMap::new();
    let mut total: u64 = 0;
    for p in &paths {
        total += p.total_ns;
        for seg in &p.segments {
            *sums.entry(seg.label.clone()).or_default() += seg.ns;
        }
    }
    let mean_total = total as f64 / count as f64;
    let mut segments: Vec<AttributedSegment> = sums
        .into_iter()
        .map(|(label, ns)| {
            let mean = ns as f64 / count as f64;
            AttributedSegment {
                label,
                mean_ns: mean,
                share: if mean_total > 0.0 {
                    mean / mean_total
                } else {
                    0.0
                },
            }
        })
        .collect();
    segments.sort_by(|a, b| b.mean_ns.total_cmp(&a.mean_ns).then(a.label.cmp(&b.label)));
    Attribution {
        traces: count,
        mean_total_ns: mean_total,
        segments,
    }
}

/// A persisted bundle of spans for one run, keyed like timelines are.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSet {
    /// Experiment id shared with the run record and telemetry timeline.
    pub experiment_id: String,
    /// Application name.
    pub app: String,
    /// Backend that produced the spans (`threaded`, `distributed`, …).
    pub backend: String,
    /// Head-sampling rate the run used.
    pub sample_every: u64,
    /// All collected spans.
    pub spans: Vec<Span>,
}

/// Export spans as Chrome trace-event JSON (load in `chrome://tracing` or
/// Perfetto). Events are complete (`ph:"X"`), timestamps in microseconds,
/// sorted ascending; `pid` is the process site, `tid` is
/// `operator[instance]`.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut sorted: Vec<&Span> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.start_ns, s.id));
    let events: Vec<serde_json::Value> = sorted
        .iter()
        .map(|s| {
            serde_json::json!({
                "name": s.kind.label(),
                "cat": "pdsp",
                "ph": "X",
                "ts": s.start_ns as f64 / 1000.0,
                "dur": s.dur_ns() as f64 / 1000.0,
                "pid": s.site,
                "tid": format!("{}[{}]", s.op, s.instance),
                "args": {
                    "trace": s.trace.0,
                    "span": s.id.0,
                    "parent": s.parent.map(|p| p.0),
                },
            })
        })
        .collect();
    serde_json::to_string(&serde_json::json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }))
    .expect("chrome trace serialization cannot fail")
}

/// Render a human-readable latency attribution report.
pub fn attribution_report(trees: &[TraceTree]) -> String {
    let attr = attribute(trees);
    let assembled = trees.len();
    let cross = trees.iter().filter(|t| t.is_cross_process()).count();
    let netted = trees.iter().filter(|t| t.has_net_span()).count();
    let mut out = String::new();
    out.push_str(&format!(
        "traces: {assembled} assembled, {} complete, {cross} cross-process, {netted} with network spans\n",
        attr.traces
    ));
    if attr.traces == 0 {
        out.push_str("no complete source→sink traces; nothing to attribute\n");
        return out;
    }
    out.push_str(&format!(
        "mean end-to-end latency: {:.3} ms\n",
        attr.mean_total_ns / 1e6
    ));
    out.push_str(&format!(
        "{:<32} {:>12} {:>8}\n",
        "segment", "mean µs", "share"
    ));
    for seg in &attr.segments {
        out.push_str(&format!(
            "{:<32} {:>12.1} {:>7.1}%\n",
            seg.label,
            seg.mean_ns / 1000.0,
            seg.share * 100.0
        ));
    }
    if let Some(dom) = attr.dominant() {
        out.push_str(&format!("dominant segment: {dom}\n"));
    }
    out
}

/// Render a predicted-vs-measured per-segment comparison of two
/// attributions (measured run vs. simulator on the same plan).
pub fn compare_report(measured: &Attribution, predicted: &Attribution) -> String {
    let mut labels: Vec<&str> = measured.segments.iter().map(|s| s.label.as_str()).collect();
    for s in &predicted.segments {
        if !labels.contains(&s.label.as_str()) {
            labels.push(&s.label);
        }
    }
    let find = |a: &Attribution, l: &str| -> Option<f64> {
        a.segments.iter().find(|s| s.label == l).map(|s| s.mean_ns)
    };
    let mut out = String::new();
    out.push_str(&format!(
        "measured: {} traces, mean {:.3} ms | predicted: {} traces, mean {:.3} ms\n",
        measured.traces,
        measured.mean_total_ns / 1e6,
        predicted.traces,
        predicted.mean_total_ns / 1e6
    ));
    out.push_str(&format!(
        "{:<32} {:>13} {:>13} {:>9}\n",
        "segment", "measured µs", "predicted µs", "delta"
    ));
    for l in labels {
        let m = find(measured, l);
        let p = find(predicted, l);
        let delta = match (m, p) {
            (Some(m), Some(p)) if m > 0.0 => format!("{:+.1}%", (p - m) / m * 100.0),
            _ => "—".to_string(),
        };
        out.push_str(&format!(
            "{:<32} {:>13} {:>13} {:>9}\n",
            l,
            m.map_or("—".into(), |v| format!("{:.1}", v / 1000.0)),
            p.map_or("—".into(), |v| format!("{:.1}", v / 1000.0)),
            delta
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        trace: u64,
        id: u64,
        parent: Option<u64>,
        kind: SpanKind,
        op: &str,
        range: (u64, u64),
    ) -> Span {
        Span {
            trace: TraceId(trace),
            id: SpanId(id),
            parent: parent.map(SpanId),
            kind,
            op: op.into(),
            site: "local".into(),
            instance: 0,
            start_ns: range.0,
            end_ns: range.1,
        }
    }

    fn linear_trace() -> Vec<Span> {
        vec![
            span(1, 10, None, SpanKind::Source, "src", (0, 0)),
            span(1, 11, Some(10), SpanKind::Batch, "src", (0, 100)),
            span(1, 12, Some(11), SpanKind::Queue, "count", (100, 250)),
            span(1, 13, Some(12), SpanKind::Process, "count", (250, 900)),
            span(1, 14, Some(13), SpanKind::Batch, "count", (910, 1000)),
            span(1, 15, Some(14), SpanKind::Queue, "sink", (1000, 1100)),
            span(1, 16, Some(15), SpanKind::Deliver, "sink", (1100, 1200)),
        ]
    }

    #[test]
    fn ring_keeps_most_recent_spans_in_order() {
        let ring = SpanRing::new(4);
        for i in 0..6u64 {
            ring.push(span(
                1,
                i,
                None,
                SpanKind::Process,
                "op",
                (i * 10, i * 10 + 5),
            ));
        }
        let spans = ring.drain();
        assert_eq!(spans.len(), 4);
        let ids: Vec<u64> = spans.iter().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![2, 3, 4, 5], "oldest two wrapped out");
        assert_eq!(ring.recorded(), 6);
    }

    #[test]
    fn book_allocates_disjoint_id_ranges_per_process() {
        let a = TraceBook::new("worker0", 64, 16, 1);
        let b = TraceBook::new("worker1", 64, 16, 2);
        for _ in 0..100 {
            assert_ne!(a.next_span_id(), b.next_span_id());
        }
    }

    #[test]
    fn critical_path_segments_sum_exactly_to_end_to_end() {
        let trees = assemble(linear_trace());
        assert_eq!(trees.len(), 1);
        assert!(trees[0].is_acyclic());
        assert!(trees[0].is_complete());
        let cp = critical_path(&trees[0]).expect("complete trace");
        assert_eq!(cp.total_ns, 1200);
        let sum: u64 = cp.segments.iter().map(|s| s.ns).sum();
        assert_eq!(sum, cp.total_ns, "gap segments make the sum exact");
        assert!(
            cp.segments.iter().any(|s| s.label == "gap:count"),
            "the 900→910 hole surfaces as a gap: {:?}",
            cp.segments
        );
        assert!(cp.segments.iter().any(|s| s.label == "queue:src→count"));
        assert!(cp.segments.iter().any(|s| s.label == "op:count"));
        assert!(cp.segments.iter().any(|s| s.label == "sink:sink"));
    }

    #[test]
    fn transport_segments_name_both_endpoints() {
        let mut spans = linear_trace();
        // Replace the second hop with a cross-process serialize+net pair.
        spans.truncate(4); // keep through op:count
        spans.push(span(1, 20, Some(13), SpanKind::Batch, "count", (910, 1000)));
        let mut ser = span(1, 21, Some(20), SpanKind::Serialize, "wire", (1000, 1040));
        ser.site = "worker0".into();
        spans.push(ser);
        let mut net = span(1, 22, Some(21), SpanKind::Net, "wire", (1040, 1090));
        net.site = "worker1".into();
        spans.push(net);
        spans.push(span(1, 23, Some(22), SpanKind::Queue, "sink", (1090, 1110)));
        spans.push(span(
            1,
            24,
            Some(23),
            SpanKind::Deliver,
            "sink",
            (1110, 1200),
        ));
        let trees = assemble(spans);
        assert!(trees[0].is_cross_process());
        assert!(trees[0].has_net_span());
        let cp = critical_path(&trees[0]).unwrap();
        let labels: Vec<&str> = cp.segments.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"serialize:count→sink"), "{labels:?}");
        assert!(labels.contains(&"net:count→sink"), "{labels:?}");
        let sum: u64 = cp.segments.iter().map(|s| s.ns).sum();
        assert_eq!(sum, cp.total_ns);
    }

    #[test]
    fn incomplete_traces_are_excluded_from_attribution() {
        let mut spans = linear_trace();
        spans.extend(vec![
            // Trace 2 never reached a sink.
            span(2, 30, None, SpanKind::Source, "src", (0, 0)),
            span(2, 31, Some(30), SpanKind::Batch, "src", (0, 80)),
        ]);
        let trees = assemble(spans);
        assert_eq!(trees.len(), 2);
        let attr = attribute(&trees);
        assert_eq!(attr.traces, 1);
        assert!(attr.mean_total_ns > 0.0);
        let share_sum: f64 = attr.segments.iter().map(|s| s.share).sum();
        assert!(
            (share_sum - 1.0).abs() < 1e-9,
            "shares sum to 1: {share_sum}"
        );
    }

    #[test]
    fn chrome_export_is_valid_sorted_json() {
        let json = chrome_trace_json(&linear_trace());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = v["traceEvents"].as_array().unwrap();
        assert_eq!(events.len(), 7);
        let ts: Vec<f64> = events.iter().map(|e| e["ts"].as_f64().unwrap()).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]), "monotonic ts: {ts:?}");
        for e in events {
            assert_eq!(e["ph"], "X");
            assert_eq!(e["cat"], "pdsp");
        }
    }

    #[test]
    fn compare_report_lists_deltas() {
        let trees = assemble(linear_trace());
        let measured = attribute(&trees);
        let mut predicted = measured.clone();
        for s in &mut predicted.segments {
            s.mean_ns *= 1.10;
        }
        let report = compare_report(&measured, &predicted);
        assert!(report.contains("+10.0%"), "{report}");
        assert!(report.contains("op:count"));
    }
}
