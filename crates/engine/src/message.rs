//! In-flight messages between physical operator instances.
//!
//! The data plane is *micro-batched*: senders accumulate tuples into
//! per-destination [`Batch`] frames and flush them when a frame is full
//! (`RunConfig::batch_size`), before they wait for input, and at marker
//! boundaries (see `crate::batch`).
//! Markers — watermarks, checkpoint barriers, end-of-stream — are always
//! preceded by a flush of every pending batch on the same edge, so the
//! channel-order invariants the watermark and checkpoint protocols rely on
//! are identical to a tuple-at-a-time data plane.

use crate::value::Tuple;
use pdsp_telemetry::TraceContext;
use serde::{Deserialize, Serialize};

/// Trace context stamped on a sampled [`Batch`] frame.
///
/// Tracing is frame-granular: when the head sampler selects a source tuple,
/// the frame that eventually carries it (and every downstream frame its
/// outputs travel in) is stamped with the trace id and the span that
/// produced the frame, so receivers can chain queue/process spans onto the
/// sender's. Distributed forwarders overwrite `wire_ns` just before the
/// frame hits the socket, splitting the sender→receiver interval into
/// serialize and network spans.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameTrace {
    /// Trace id plus the sender-side span this frame continues from.
    pub ctx: TraceContext,
    /// Clock stamp (run clock, ns) when the frame was flushed by the sender.
    pub sent_ns: u64,
    /// Clock stamp (ns) when a distributed forwarder serialized the frame
    /// onto the wire; `0` for in-process edges.
    #[serde(default)]
    pub wire_ns: u64,
}

/// A micro-batch of tuples travelling as one frame on a dataflow channel.
///
/// Batches amortize the per-message channel cost (enqueue/dequeue, wakeup)
/// across `tuples.len()` tuples; receivers process the whole frame in a
/// tight loop. A batch is never empty and never spans a marker: every
/// tuple in it precedes (in channel order) whatever marker follows.
///
/// ```
/// use pdsp_engine::message::Batch;
/// use pdsp_engine::Tuple;
/// use pdsp_engine::Value;
///
/// let batch = Batch::new(vec![
///     Tuple::new(vec![Value::Int(1)]),
///     Tuple::new(vec![Value::Int(2)]),
/// ]);
/// assert_eq!(batch.len(), 2);
/// let total: i64 = batch
///     .tuples
///     .iter()
///     .map(|t| t.values[0].as_f64().unwrap() as i64)
///     .sum();
/// assert_eq!(total, 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Batch {
    /// The batched tuples, in sender emission order.
    pub tuples: Vec<Tuple>,
    /// Trace context when the frame carries a head-sampled tuple; `None`
    /// (the overwhelmingly common case) for untraced frames.
    #[serde(default)]
    pub trace: Option<FrameTrace>,
}

impl Batch {
    /// Wrap a vector of tuples as one (untraced) frame.
    pub fn new(tuples: Vec<Tuple>) -> Self {
        Batch {
            tuples,
            trace: None,
        }
    }

    /// Number of tuples in the frame.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the frame carries no tuples (never sent by the engine).
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }
}

/// A message on a dataflow channel. Distributed runs ship these very frames
/// across worker boundaries in the binary layout of [`crate::wire`];
/// in-process channels move them untouched. The serde derives are for
/// tooling that wants a frame as JSON (the benches compare the two
/// encodings); the data plane does not use them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// A single data tuple (the `batch_size == 1` framing).
    Data(Tuple),
    /// A micro-batch of data tuples (the `batch_size > 1` framing).
    Batch(Batch),
    /// Event-time watermark (ms): no tuple with event time < wm follows on
    /// this channel.
    Watermark(i64),
    /// Checkpoint barrier (Chandy–Lamport / Flink style): all tuples of
    /// checkpoint `id` precede it on this channel. Operators align barriers
    /// across inputs, snapshot their state, then forward the barrier.
    Barrier(u64),
    /// End of stream on this channel.
    Eos,
}
