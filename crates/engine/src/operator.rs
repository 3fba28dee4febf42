//! Logical operator kinds and their runtime instances.
//!
//! [`OpKind`] is the *description* living in a logical plan; calling
//! [`OpKind::instantiate`] creates one [`OperatorInstance`] holding the
//! per-instance state for a physical instance. Keying is expressed through
//! hash-partitioned edges plus the operator's own key field (Flink's
//! `keyBy` collapses into the edge), so there is no standalone key-by
//! operator.

use crate::agg::AggFunc;
use crate::error::{EngineError, Result};
use crate::expr::{Predicate, ScalarExpr};
use crate::state::JoinState;
use crate::udo::{CostProfile, UdoRef};
use crate::value::{FieldType, Schema, Tuple, Value};
use crate::window::{KeyedWindower, WindowSpec};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The kind of a logical operator.
#[derive(Clone)]
pub enum OpKind {
    /// Stream source; tuples are injected by the runtime's source drivers.
    Source {
        /// Schema of emitted tuples.
        schema: Schema,
    },
    /// Predicate filter.
    Filter {
        /// Tuples failing the predicate are dropped.
        predicate: Predicate,
        /// Estimated selectivity in (0,1]; drives the simulator and the
        /// rule-based parallelism enumerator.
        selectivity: f64,
    },
    /// Per-tuple projection/transformation.
    Map {
        /// One expression per output field.
        exprs: Vec<ScalarExpr>,
    },
    /// Splits a string field on whitespace, one output tuple per token
    /// (the flatMap of Word Count).
    FlatMapSplit {
        /// Index of the string field to split.
        field: usize,
    },
    /// Windowed aggregation, optionally keyed.
    WindowAggregate {
        /// Window specification.
        window: WindowSpec,
        /// Aggregation function.
        func: AggFunc,
        /// Field to aggregate.
        agg_field: usize,
        /// Grouping key field (`None` = global window).
        key_field: Option<usize>,
    },
    /// Keyed session-window aggregation: sessions close after `gap_ms` of
    /// per-key inactivity (Flink's third window type; an expressiveness
    /// extension beyond the paper's tumbling/sliding set).
    SessionWindow {
        /// Inactivity gap in event-time ms.
        gap_ms: u64,
        /// Aggregation function.
        func: AggFunc,
        /// Field to aggregate.
        agg_field: usize,
        /// Grouping key field (`None` = global sessions).
        key_field: Option<usize>,
    },
    /// Windowed two-input equi-join (port 0 = left, port 1 = right).
    Join {
        /// Join window.
        window: WindowSpec,
        /// Key field on the left input.
        left_key: usize,
        /// Key field on the right input.
        right_key: usize,
    },
    /// Merge of multiple inputs with identical schemas.
    Union,
    /// User-defined operator.
    Udo {
        /// Shared factory creating per-instance state.
        factory: UdoRef,
    },
    /// Terminal sink; the runtime collects tuples and latency here.
    Sink,
}

impl fmt::Debug for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpKind::Source { schema } => write!(f, "Source(w={})", schema.width()),
            OpKind::Filter { selectivity, .. } => write!(f, "Filter(sel={selectivity:.2})"),
            OpKind::Map { exprs } => write!(f, "Map({} exprs)", exprs.len()),
            OpKind::FlatMapSplit { field } => write!(f, "FlatMapSplit(f{field})"),
            OpKind::WindowAggregate { window, func, .. } => {
                write!(f, "WindowAgg({func}, {window})")
            }
            OpKind::SessionWindow { gap_ms, func, .. } => {
                write!(f, "SessionWindow({func}, gap={gap_ms}ms)")
            }
            OpKind::Join { window, .. } => write!(f, "Join({window})"),
            OpKind::Union => write!(f, "Union"),
            OpKind::Udo { factory } => write!(f, "Udo({})", factory.name()),
            OpKind::Sink => write!(f, "Sink"),
        }
    }
}

/// Serializable tag identifying an operator family; used by the document
/// store and the ML featurizer (plans with closures/UDO factories cannot be
/// serialized whole).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpTag {
    /// Source operator.
    Source,
    /// Filter operator.
    Filter,
    /// Map operator.
    Map,
    /// Flat-map operator.
    FlatMap,
    /// Windowed aggregation.
    WindowAggregate,
    /// Session-window aggregation.
    SessionWindow,
    /// Windowed join.
    Join,
    /// Union.
    Union,
    /// User-defined operator.
    Udo,
    /// Sink.
    Sink,
}

impl OpTag {
    /// All tags, in featurizer one-hot order.
    pub const ALL: [OpTag; 10] = [
        OpTag::Source,
        OpTag::Filter,
        OpTag::Map,
        OpTag::FlatMap,
        OpTag::WindowAggregate,
        OpTag::SessionWindow,
        OpTag::Join,
        OpTag::Union,
        OpTag::Udo,
        OpTag::Sink,
    ];

    /// Position in [`OpTag::ALL`] (for one-hot encodings).
    pub fn index(self) -> usize {
        OpTag::ALL.iter().position(|&t| t == self).expect("in ALL")
    }
}

impl OpKind {
    /// The serializable tag of this kind.
    pub fn tag(&self) -> OpTag {
        match self {
            OpKind::Source { .. } => OpTag::Source,
            OpKind::Filter { .. } => OpTag::Filter,
            OpKind::Map { .. } => OpTag::Map,
            OpKind::FlatMapSplit { .. } => OpTag::FlatMap,
            OpKind::WindowAggregate { .. } => OpTag::WindowAggregate,
            OpKind::SessionWindow { .. } => OpTag::SessionWindow,
            OpKind::Join { .. } => OpTag::Join,
            OpKind::Union => OpTag::Union,
            OpKind::Udo { .. } => OpTag::Udo,
            OpKind::Sink => OpTag::Sink,
        }
    }

    /// Number of input ports this operator expects (sources have 0; unions
    /// accept any positive number, reported as 1 here and validated
    /// separately).
    pub fn input_ports(&self) -> usize {
        match self {
            OpKind::Source { .. } => 0,
            OpKind::Join { .. } => 2,
            _ => 1,
        }
    }

    /// Upper bound on the parallelism at which this operator still
    /// computes the sequential answer, or `None` when any degree is fine.
    /// Global (un-keyed) aggregations and UDOs that declare
    /// `requires_global_view` must see the whole stream, so only one
    /// instance makes sense; `with_uniform_parallelism` and the
    /// enumeration strategies clamp to this bound.
    pub fn max_useful_parallelism(&self) -> Option<usize> {
        match self {
            OpKind::WindowAggregate {
                key_field: None, ..
            }
            | OpKind::SessionWindow {
                key_field: None, ..
            } => Some(1),
            OpKind::Udo { factory } if factory.properties().requires_global_view => Some(1),
            _ => None,
        }
    }

    /// Output schema given input schemas (one per port).
    pub fn output_schema(&self, inputs: &[Schema]) -> Result<Schema> {
        match self {
            OpKind::Source { schema } => Ok(schema.clone()),
            OpKind::Filter { .. } | OpKind::Union => inputs
                .first()
                .cloned()
                .ok_or_else(|| EngineError::InvalidPlan("operator has no input".into())),
            OpKind::Map { exprs } => {
                let input = inputs
                    .first()
                    .ok_or_else(|| EngineError::InvalidPlan("map has no input".into()))?;
                for e in exprs {
                    if let Some(max) = e.max_field() {
                        if max >= input.width() {
                            return Err(EngineError::FieldOutOfBounds {
                                index: max,
                                width: input.width(),
                            });
                        }
                    }
                }
                // Expression output types are dynamic; report Double for
                // arithmetic, original type for field refs.
                let fields = exprs
                    .iter()
                    .enumerate()
                    .map(|(i, e)| {
                        let ty = match e {
                            ScalarExpr::Field(idx) => input.fields[*idx].ty,
                            ScalarExpr::Literal(v) => v.field_type(),
                            _ => FieldType::Double,
                        };
                        crate::value::Field::new(format!("m{i}"), ty)
                    })
                    .collect();
                Ok(Schema::new(fields))
            }
            OpKind::FlatMapSplit { field } => {
                let input = inputs
                    .first()
                    .ok_or_else(|| EngineError::InvalidPlan("flatmap has no input".into()))?;
                if *field >= input.width() {
                    return Err(EngineError::FieldOutOfBounds {
                        index: *field,
                        width: input.width(),
                    });
                }
                Ok(Schema::of(&[FieldType::Str]))
            }
            OpKind::WindowAggregate { key_field, .. } | OpKind::SessionWindow { key_field, .. } => {
                let input = inputs
                    .first()
                    .ok_or_else(|| EngineError::InvalidPlan("window agg has no input".into()))?;
                let mut fields = Vec::new();
                if let Some(k) = key_field {
                    if *k >= input.width() {
                        return Err(EngineError::FieldOutOfBounds {
                            index: *k,
                            width: input.width(),
                        });
                    }
                    fields.push(crate::value::Field::new("key", input.fields[*k].ty));
                }
                fields.push(crate::value::Field::new("window_end", FieldType::Timestamp));
                fields.push(crate::value::Field::new("agg", FieldType::Double));
                Ok(Schema::new(fields))
            }
            OpKind::Join { .. } => {
                if inputs.len() != 2 {
                    return Err(EngineError::InvalidPlan(format!(
                        "join needs 2 inputs, got {}",
                        inputs.len()
                    )));
                }
                let mut fields = inputs[0].fields.clone();
                fields.extend(inputs[1].fields.iter().cloned());
                Ok(Schema::new(fields))
            }
            OpKind::Udo { factory } => {
                let input = inputs
                    .first()
                    .ok_or_else(|| EngineError::InvalidPlan("udo has no input".into()))?;
                Ok(factory.output_schema(input))
            }
            OpKind::Sink => inputs
                .first()
                .cloned()
                .ok_or_else(|| EngineError::InvalidPlan("sink has no input".into())),
        }
    }

    /// Default [`CostProfile`] for the simulator. UDOs report their own;
    /// built-ins use a calibrated table (see `pdsp-cluster::costs` for the
    /// rationale behind the constants).
    pub fn cost_profile(&self) -> CostProfile {
        // Costs are per-tuple nanoseconds on a 1 GHz reference core and are
        // calibrated to Flink-like per-record overheads (state access,
        // (de)serialization, timer services): stateless operators sit in the
        // hundreds of ns, windowed aggregation in the low microseconds, and
        // windowed joins in the tens of microseconds.
        match self {
            OpKind::Source { .. } => CostProfile::stateless(500.0, 1.0),
            OpKind::Filter { selectivity, .. } => CostProfile::stateless(400.0, *selectivity),
            OpKind::Map { exprs } => {
                CostProfile::stateless(400.0 + 150.0 * exprs.len() as f64, 1.0)
            }
            OpKind::FlatMapSplit { .. } => CostProfile::stateless(1_800.0, 6.0),
            OpKind::WindowAggregate { window, .. } => {
                // Sliding windows touch more panes; selectivity is the
                // firing rate (results per input tuple).
                let fire_rate = 1.0 / window.slide.max(1) as f64;
                CostProfile::stateful(
                    2_600.0 + 45.0 * window.panes_per_window() as f64,
                    fire_rate,
                    1.0,
                )
            }
            OpKind::SessionWindow { gap_ms, .. } => {
                // Sessions fire roughly once per burst; estimate one result
                // per ~10 inputs and gap-scaled state cost.
                CostProfile::stateful(2_800.0 + 0.5 * (*gap_ms as f64).sqrt(), 0.1, 1.2)
            }
            OpKind::Join { window, .. } => {
                let extent = window.length as f64;
                CostProfile::stateful(25_000.0 + 30.0 * extent.sqrt(), 0.8, 2.2)
            }
            OpKind::Union => CostProfile::stateless(200.0, 1.0),
            OpKind::Udo { factory } => factory.cost_profile(),
            OpKind::Sink => CostProfile::stateless(300.0, 1.0),
        }
    }

    /// Instantiate per-instance runtime state.
    pub fn instantiate(&self) -> Box<dyn OperatorInstance> {
        match self {
            OpKind::Source { .. } => Box::new(PassThrough),
            OpKind::Filter { predicate, .. } => Box::new(FilterInstance {
                predicate: predicate.clone(),
            }),
            OpKind::Map { exprs } => Box::new(MapInstance {
                exprs: exprs.clone(),
            }),
            OpKind::FlatMapSplit { field } => Box::new(FlatMapSplitInstance { field: *field }),
            OpKind::WindowAggregate {
                window,
                func,
                agg_field,
                key_field,
            } => Box::new(WindowAggInstance {
                windower: KeyedWindower::new(*window, *func, key_field.is_some()),
                agg_field: *agg_field,
                key_field: *key_field,
            }),
            OpKind::SessionWindow {
                gap_ms,
                func,
                agg_field,
                key_field,
            } => Box::new(SessionAggInstance {
                windower: crate::window::SessionWindower::new(*gap_ms, *func, key_field.is_some()),
                agg_field: *agg_field,
                key_field: *key_field,
            }),
            OpKind::Join {
                window,
                left_key,
                right_key,
            } => Box::new(JoinInstance {
                state: JoinState::new(*window, *left_key, *right_key),
            }),
            OpKind::Union => Box::new(PassThrough),
            OpKind::Udo { factory } => Box::new(UdoInstance {
                inner: factory.create(),
            }),
            OpKind::Sink => Box::new(PassThrough),
        }
    }
}

/// Runtime state of one physical operator instance.
pub trait OperatorInstance: Send {
    /// Process a tuple arriving on `port`, appending outputs to `out`.
    fn on_tuple(&mut self, port: usize, tuple: Tuple, out: &mut Vec<Tuple>) -> Result<()>;

    /// Process a whole micro-batch arriving on `port`, appending outputs to
    /// `out`. The default loops [`OperatorInstance::on_tuple`]; operators
    /// with a cheaper batch path override it.
    fn on_batch(&mut self, port: usize, tuples: Vec<Tuple>, out: &mut Vec<Tuple>) -> Result<()> {
        for t in tuples {
            self.on_tuple(port, t, out)?;
        }
        Ok(())
    }

    /// Observe the combined input watermark (event-time ms).
    fn on_watermark(&mut self, _watermark: i64, _out: &mut Vec<Tuple>) {}

    /// End of all inputs: flush buffered state.
    fn on_flush(&mut self, _out: &mut Vec<Tuple>) {}

    /// Serialize mutable state for a checkpoint. Stateless operators
    /// return an empty snapshot; UDOs are not snapshotted (their state is
    /// opaque — a documented limitation of checkpoint recovery).
    fn snapshot(&self) -> Result<Vec<u8>> {
        Ok(Vec::new())
    }

    /// Restore state captured by [`OperatorInstance::snapshot`].
    fn restore(&mut self, _bytes: &[u8]) -> Result<()> {
        Ok(())
    }

    /// Tuples this instance dropped as late (behind the watermark).
    fn late_events(&self) -> u64 {
        0
    }

    /// Window results fired so far (telemetry; 0 for non-windowed
    /// operators).
    fn panes_fired(&self) -> u64 {
        0
    }

    /// Configure watermark-aware allowed lateness (event-time ms). No-op
    /// for operators without a notion of lateness.
    fn set_allowed_lateness(&mut self, _ms: i64) {}
}

/// Identity operator (source/sink/union runtime bodies).
struct PassThrough;

impl OperatorInstance for PassThrough {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        out.push(tuple);
        Ok(())
    }
}

struct FilterInstance {
    predicate: Predicate,
}

impl OperatorInstance for FilterInstance {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        if self.predicate.eval(&tuple)? {
            out.push(tuple);
        }
        Ok(())
    }
}

struct MapInstance {
    exprs: Vec<ScalarExpr>,
}

impl OperatorInstance for MapInstance {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        let values = self
            .exprs
            .iter()
            .map(|e| e.eval(&tuple))
            .collect::<Result<Vec<_>>>()?;
        out.push(Tuple {
            values,
            event_time: tuple.event_time,
            emit_ns: tuple.emit_ns,
        });
        Ok(())
    }
}

struct FlatMapSplitInstance {
    field: usize,
}

impl OperatorInstance for FlatMapSplitInstance {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        let text = tuple
            .values
            .get(self.field)
            .ok_or(EngineError::FieldOutOfBounds {
                index: self.field,
                width: tuple.width(),
            })?;
        if let Some(s) = text.as_str() {
            for word in s.split_whitespace() {
                out.push(Tuple {
                    values: vec![Value::str(word)],
                    event_time: tuple.event_time,
                    emit_ns: tuple.emit_ns,
                });
            }
        }
        Ok(())
    }
}

/// Window results as `[key,] window_end, value` tuples (an empty window
/// reports 0).
fn emit_window_results(results: Vec<crate::window::WindowResult>, out: &mut Vec<Tuple>) {
    for r in results {
        let mut values = Vec::with_capacity(3);
        if let Some(k) = r.key {
            values.push(k);
        }
        values.push(Value::Timestamp(r.window_end));
        values.push(Value::Double(r.value.unwrap_or(0.0)));
        out.push(Tuple {
            values,
            event_time: r.event_time,
            emit_ns: r.emit_ns,
        });
    }
}

struct WindowAggInstance {
    windower: KeyedWindower,
    agg_field: usize,
    key_field: Option<usize>,
}

impl OperatorInstance for WindowAggInstance {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        let v = tuple
            .values
            .get(self.agg_field)
            .ok_or(EngineError::FieldOutOfBounds {
                index: self.agg_field,
                width: tuple.width(),
            })?
            .as_f64()
            .unwrap_or(1.0); // strings aggregate as presence (count-style)
        let key = self.key_field.and_then(|k| tuple.values.get(k));
        let mut results = Vec::new();
        self.windower.push(key, v, &tuple, &mut results);
        emit_window_results(results, out);
        Ok(())
    }

    fn on_watermark(&mut self, watermark: i64, out: &mut Vec<Tuple>) {
        let mut results = Vec::new();
        self.windower.on_watermark(watermark, &mut results);
        emit_window_results(results, out);
    }

    fn on_flush(&mut self, out: &mut Vec<Tuple>) {
        let mut results = Vec::new();
        self.windower.flush(&mut results);
        emit_window_results(results, out);
    }

    fn snapshot(&self) -> Result<Vec<u8>> {
        self.windower.snapshot()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        self.windower.restore(bytes)
    }

    fn late_events(&self) -> u64 {
        self.windower.late_events()
    }

    fn panes_fired(&self) -> u64 {
        self.windower.panes_fired()
    }

    fn set_allowed_lateness(&mut self, ms: i64) {
        self.windower.set_allowed_lateness(ms);
    }
}

struct SessionAggInstance {
    windower: crate::window::SessionWindower,
    agg_field: usize,
    key_field: Option<usize>,
}

impl OperatorInstance for SessionAggInstance {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        let v = tuple
            .values
            .get(self.agg_field)
            .ok_or(EngineError::FieldOutOfBounds {
                index: self.agg_field,
                width: tuple.width(),
            })?
            .as_f64()
            .unwrap_or(1.0);
        let key = self.key_field.and_then(|k| tuple.values.get(k));
        let mut results = Vec::new();
        self.windower.push(key, v, &tuple, &mut results);
        emit_window_results(results, out);
        Ok(())
    }

    fn on_watermark(&mut self, watermark: i64, out: &mut Vec<Tuple>) {
        let mut results = Vec::new();
        self.windower.on_watermark(watermark, &mut results);
        emit_window_results(results, out);
    }

    fn on_flush(&mut self, out: &mut Vec<Tuple>) {
        let mut results = Vec::new();
        self.windower.flush(&mut results);
        emit_window_results(results, out);
    }

    fn snapshot(&self) -> Result<Vec<u8>> {
        self.windower.snapshot()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        self.windower.restore(bytes)
    }

    fn late_events(&self) -> u64 {
        self.windower.late_events()
    }

    fn panes_fired(&self) -> u64 {
        self.windower.panes_fired()
    }

    fn set_allowed_lateness(&mut self, ms: i64) {
        self.windower.set_allowed_lateness(ms);
    }
}

struct JoinInstance {
    state: JoinState,
}

impl OperatorInstance for JoinInstance {
    fn on_tuple(&mut self, port: usize, tuple: Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        self.state.on_tuple(port.min(1), tuple, out);
        Ok(())
    }

    fn on_watermark(&mut self, watermark: i64, _out: &mut Vec<Tuple>) {
        self.state.on_watermark(watermark);
    }

    fn snapshot(&self) -> Result<Vec<u8>> {
        self.state.snapshot()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        self.state.restore(bytes)
    }

    fn late_events(&self) -> u64 {
        self.state.late_events()
    }

    fn set_allowed_lateness(&mut self, ms: i64) {
        self.state.set_allowed_lateness(ms);
    }
}

struct UdoInstance {
    inner: Box<dyn crate::udo::Udo>,
}

impl OperatorInstance for UdoInstance {
    fn on_tuple(&mut self, port: usize, tuple: Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        self.inner.on_tuple(port, tuple, out);
        Ok(())
    }

    fn on_batch(&mut self, port: usize, tuples: Vec<Tuple>, out: &mut Vec<Tuple>) -> Result<()> {
        self.inner.on_batch(port, tuples, out);
        Ok(())
    }

    fn on_watermark(&mut self, watermark: i64, out: &mut Vec<Tuple>) {
        self.inner.on_watermark(watermark, out);
    }

    fn on_flush(&mut self, out: &mut Vec<Tuple>) {
        self.inner.on_flush(out);
    }
}

/// Serializable summary of an operator for storage and featurization.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OpDescriptor {
    /// Operator family.
    pub tag: OpTag,
    /// UDO name if applicable.
    pub udo_name: Option<String>,
    /// Selectivity estimate.
    pub selectivity: f64,
    /// CPU cost (ns/tuple at 1 GHz).
    pub cpu_ns_per_tuple: f64,
    /// State factor.
    pub state_factor: f64,
    /// Window spec if windowed.
    pub window: Option<WindowSpec>,
}

impl OpDescriptor {
    /// Build from an [`OpKind`].
    pub fn of(kind: &OpKind) -> Self {
        let cost = kind.cost_profile();
        OpDescriptor {
            tag: kind.tag(),
            udo_name: match kind {
                OpKind::Udo { factory } => Some(factory.name().to_string()),
                _ => None,
            },
            selectivity: cost.selectivity,
            cpu_ns_per_tuple: cost.cpu_ns_per_tuple,
            state_factor: cost.state_factor,
            window: match kind {
                OpKind::WindowAggregate { window, .. } | OpKind::Join { window, .. } => {
                    Some(*window)
                }
                _ => None,
            },
        }
    }
}

/// Convenience: wrap a UDO factory into an OpKind.
pub fn udo_op(factory: Arc<dyn crate::udo::UdoFactory>) -> OpKind {
    OpKind::Udo { factory }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    #[test]
    fn filter_instance_drops_non_matching() {
        let kind = OpKind::Filter {
            predicate: Predicate::cmp(0, CmpOp::Gt, Value::Int(5)),
            selectivity: 0.5,
        };
        let mut inst = kind.instantiate();
        let mut out = Vec::new();
        inst.on_tuple(0, Tuple::new(vec![Value::Int(3)]), &mut out)
            .unwrap();
        inst.on_tuple(0, Tuple::new(vec![Value::Int(7)]), &mut out)
            .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values[0], Value::Int(7));
    }

    #[test]
    fn map_instance_projects() {
        let kind = OpKind::Map {
            exprs: vec![
                ScalarExpr::Field(1),
                ScalarExpr::Add(
                    Box::new(ScalarExpr::Field(0)),
                    Box::new(ScalarExpr::Literal(Value::Int(1))),
                ),
            ],
        };
        let mut inst = kind.instantiate();
        let mut out = Vec::new();
        inst.on_tuple(
            0,
            Tuple::new(vec![Value::Int(10), Value::str("a")]),
            &mut out,
        )
        .unwrap();
        assert_eq!(out[0].values[0], Value::str("a"));
        assert_eq!(out[0].values[1], Value::Double(11.0));
    }

    #[test]
    fn flatmap_splits_words() {
        let kind = OpKind::FlatMapSplit { field: 0 };
        let mut inst = kind.instantiate();
        let mut out = Vec::new();
        inst.on_tuple(
            0,
            Tuple::new(vec![Value::str("the quick brown fox")]),
            &mut out,
        )
        .unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(out[2].values[0], Value::str("brown"));
    }

    #[test]
    fn window_agg_instance_keyed_count() {
        let kind = OpKind::WindowAggregate {
            window: WindowSpec::tumbling_count(2),
            func: AggFunc::Sum,
            agg_field: 1,
            key_field: Some(0),
        };
        let mut inst = kind.instantiate();
        let mut out = Vec::new();
        for (k, v) in [(1, 10), (1, 20), (2, 5)] {
            inst.on_tuple(0, Tuple::new(vec![Value::Int(k), Value::Int(v)]), &mut out)
                .unwrap();
        }
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values[0], Value::Int(1));
        assert_eq!(out[0].values[2], Value::Double(30.0));
    }

    #[test]
    fn join_output_schema_concatenates() {
        let kind = OpKind::Join {
            window: WindowSpec::tumbling_time(100),
            left_key: 0,
            right_key: 0,
        };
        let left = Schema::of(&[FieldType::Int, FieldType::Str]);
        let right = Schema::of(&[FieldType::Int, FieldType::Double]);
        let out = kind.output_schema(&[left, right]).unwrap();
        assert_eq!(out.width(), 4);
    }

    #[test]
    fn window_agg_output_schema_keyed_vs_global() {
        let input = Schema::of(&[FieldType::Str, FieldType::Double]);
        let keyed = OpKind::WindowAggregate {
            window: WindowSpec::tumbling_count(5),
            func: AggFunc::Avg,
            agg_field: 1,
            key_field: Some(0),
        };
        assert_eq!(
            keyed
                .output_schema(std::slice::from_ref(&input))
                .unwrap()
                .width(),
            3
        );
        let global = OpKind::WindowAggregate {
            window: WindowSpec::tumbling_count(5),
            func: AggFunc::Avg,
            agg_field: 1,
            key_field: None,
        };
        assert_eq!(global.output_schema(&[input]).unwrap().width(), 2);
    }

    #[test]
    fn map_schema_rejects_out_of_bounds() {
        let kind = OpKind::Map {
            exprs: vec![ScalarExpr::Field(5)],
        };
        let input = Schema::of(&[FieldType::Int]);
        assert!(kind.output_schema(&[input]).is_err());
    }

    #[test]
    fn cost_profiles_rank_operators_sensibly() {
        let filter = OpKind::Filter {
            predicate: Predicate::True,
            selectivity: 0.5,
        }
        .cost_profile();
        let join = OpKind::Join {
            window: WindowSpec::tumbling_time(500),
            left_key: 0,
            right_key: 0,
        }
        .cost_profile();
        assert!(join.cpu_ns_per_tuple > filter.cpu_ns_per_tuple);
        assert!(join.state_factor > filter.state_factor);
    }

    #[test]
    fn op_tag_indices_are_dense() {
        for (i, tag) in OpTag::ALL.iter().enumerate() {
            assert_eq!(tag.index(), i);
        }
    }

    #[test]
    fn descriptor_captures_udo_name() {
        use crate::udo::{CostProfile, FnUdo};
        let udo = FnUdo::new(
            "scorer",
            CostProfile::stateful(900.0, 1.0, 1.5),
            |s: &Schema| s.clone(),
            |t: Tuple, out: &mut Vec<Tuple>| out.push(t),
        );
        let kind = OpKind::Udo { factory: udo };
        let d = OpDescriptor::of(&kind);
        assert_eq!(d.udo_name.as_deref(), Some("scorer"));
        assert_eq!(d.cpu_ns_per_tuple, 900.0);
    }
}
