//! Hot-key-splitting support: the downstream merge stage.
//!
//! [`crate::plan::Partitioning::HashSplit`] spreads a skewed key's traffic
//! over several pre-aggregator instances; each produces *partial* window
//! results for that key. [`WindowMergeUdo`] is the second half of the
//! pattern: hash-partitioned on the key, it recombines the partials per
//! (key, window end) and emits one merged result once the watermark passes
//! the window end — so the `split -> pre-aggregate -> merge` pipeline
//! computes the same per-key windows as an unsplit keyed aggregation.
//!
//! ```text
//! upstream --HashSplit([k], s)--> WindowAggregate(keyed) --Hash([0])--> merge
//! ```
//!
//! Only functions whose finished values are re-mergeable participate:
//! `Sum`/`Count` add, `Min`/`Max` take the extremum. `Avg`/`Mean` finished
//! values cannot be merged without the partial counts, and count-policy
//! windows have per-instance window ends (cumulative per-key tuple counts),
//! so both are rejected at construction.

use crate::agg::AggFunc;
use crate::operator::OpKind;
use crate::udo::{CostProfile, Udo, UdoFactory, UdoProperties};
use crate::value::{FieldType, KeyMap, KeyValue, Schema, Tuple, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Merge function for finished partial window values.
fn merge_value(func: AggFunc, a: f64, b: f64) -> f64 {
    match func {
        AggFunc::Sum | AggFunc::Count => a + b,
        AggFunc::Min => a.min(b),
        AggFunc::Max => a.max(b),
        AggFunc::Avg | AggFunc::Mean => unreachable!("rejected at construction"),
    }
}

/// Whether finished values of `func` can be merged associatively.
pub fn is_mergeable(func: AggFunc) -> bool {
    !matches!(func, AggFunc::Avg | AggFunc::Mean)
}

#[derive(Debug, Clone)]
struct Partial {
    value: f64,
    max_emit_ns: u64,
    max_event_time: i64,
}

/// Factory for the hot-key-split merge stage (see module docs).
pub struct WindowMergeFactory {
    func: AggFunc,
    keyed: bool,
}

/// One merge instance: buffers partials per (window end, key) and releases
/// them when the watermark passes the window end.
///
/// Flush-before-marker framing plus the min-across-channels watermark
/// tracker guarantee every partial for a window ending at `W` arrives before
/// this instance's combined watermark reaches `W`, so a watermark-released
/// merge is complete. A partial arriving *behind* the watermark (an upstream
/// late update under `allowed_lateness`) is forwarded immediately as a late
/// update rather than buffered — never dropped silently.
pub struct WindowMergeUdo {
    func: AggFunc,
    keyed: bool,
    /// window_end -> key -> merged partial; the BTreeMap lets watermark
    /// release drain a window-end prefix, and keys are sorted at emission
    /// so one instance's output order is reproducible.
    pending: BTreeMap<i64, KeyMap<Partial>>,
    watermark: i64,
}

/// Drain one window end's partials in a deterministic (key-sorted) order.
fn drain_sorted(keys: KeyMap<Partial>) -> Vec<(KeyValue, Partial)> {
    let mut v: Vec<(KeyValue, Partial)> = keys.into_iter().collect();
    v.sort_by(|(a, _), (b, _)| format!("{:?}", a.0).cmp(&format!("{:?}", b.0)));
    v
}

impl WindowMergeUdo {
    fn emit(&self, window_end: i64, key: &KeyValue, p: &Partial, out: &mut Vec<Tuple>) {
        let mut values = Vec::with_capacity(3);
        if self.keyed {
            values.push(key.0.clone());
        }
        values.push(Value::Timestamp(window_end));
        values.push(Value::Double(p.value));
        out.push(Tuple {
            values,
            event_time: p.max_event_time,
            emit_ns: p.max_emit_ns,
        });
    }
}

impl Udo for WindowMergeUdo {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        // Input layout mirrors WindowAggregate output: [key,] window_end, agg.
        let (key, end_idx) = if self.keyed {
            let Some(k) = tuple.values.first().cloned() else {
                return;
            };
            (k, 1)
        } else {
            (Value::Int(0), 0)
        };
        let Some(window_end) = tuple.values.get(end_idx).and_then(|v| match v {
            Value::Timestamp(t) => Some(*t),
            other => other.as_f64().map(|f| f as i64),
        }) else {
            return;
        };
        let Some(value) = tuple.values.get(end_idx + 1).and_then(|v| v.as_f64()) else {
            return;
        };
        let partial = Partial {
            value,
            max_emit_ns: tuple.emit_ns,
            max_event_time: tuple.event_time,
        };
        if window_end <= self.watermark {
            // Late partial (upstream allowed-lateness re-fire): pass it
            // through as a late update for the consumer to reconcile.
            self.emit(window_end, &KeyValue(key), &partial, out);
            return;
        }
        let func = self.func;
        self.pending
            .entry(window_end)
            .or_default()
            .entry(KeyValue(key))
            .and_modify(|p| {
                p.value = merge_value(func, p.value, partial.value);
                p.max_emit_ns = p.max_emit_ns.max(partial.max_emit_ns);
                p.max_event_time = p.max_event_time.max(partial.max_event_time);
            })
            .or_insert(partial);
    }

    fn on_watermark(&mut self, watermark: i64, out: &mut Vec<Tuple>) {
        self.watermark = self.watermark.max(watermark);
        // Windows ending at or below the watermark are complete: all their
        // partials were framed before the markers that advanced it here.
        let still_open = self.pending.split_off(&self.watermark.saturating_add(1));
        let ready = std::mem::replace(&mut self.pending, still_open);
        for (end, keys) in ready {
            for (key, p) in drain_sorted(keys) {
                self.emit(end, &key, &p, out);
            }
        }
    }

    fn on_flush(&mut self, out: &mut Vec<Tuple>) {
        let all = std::mem::take(&mut self.pending);
        for (end, keys) in all {
            for (key, p) in drain_sorted(keys) {
                self.emit(end, &key, &p, out);
            }
        }
    }
}

impl UdoFactory for WindowMergeFactory {
    fn name(&self) -> &str {
        "window-merge"
    }

    fn create(&self) -> Box<dyn Udo> {
        Box::new(WindowMergeUdo {
            func: self.func,
            keyed: self.keyed,
            pending: BTreeMap::new(),
            watermark: i64::MIN,
        })
    }

    fn cost_profile(&self) -> CostProfile {
        // Merging is one map update per partial: far cheaper than the
        // windowed pre-aggregation it complements.
        CostProfile::stateful(900.0, 1.0, 0.8)
    }

    fn output_schema(&self, input: &Schema) -> Schema {
        input.clone()
    }

    fn properties(&self) -> UdoProperties {
        UdoProperties {
            stateful: true,
            keyed_state_field: if self.keyed { Some(0) } else { None },
            merges_hot_key_splits: true,
            ..UdoProperties::default()
        }
    }
}

/// Build the merge operator for a hot-key-split pre-aggregation producing
/// `[key,] window_end, agg` tuples with the given (time-policy, mergeable)
/// function.
///
/// # Panics
/// Panics when `func` is not mergeable from finished values (`Avg`/`Mean`):
/// constructing an incorrect merge is a plan-authoring bug, caught eagerly.
pub fn window_merge_udo(func: AggFunc, keyed: bool) -> OpKind {
    assert!(
        is_mergeable(func),
        "{func} partials cannot be merged from finished values; \
         pre-aggregate with Sum/Count/Min/Max instead"
    );
    OpKind::Udo {
        factory: Arc::new(WindowMergeFactory { func, keyed }),
    }
}

/// Schema helper: the merge stage echoes its input layout
/// (`[key,] window_end, agg`).
pub fn merge_output_schema(key_ty: Option<FieldType>) -> Schema {
    let mut fields = Vec::new();
    if let Some(ty) = key_ty {
        fields.push(crate::value::Field::new("key", ty));
    }
    fields.push(crate::value::Field::new("window_end", FieldType::Timestamp));
    fields.push(crate::value::Field::new("agg", FieldType::Double));
    Schema::new(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partial(key: i64, end: i64, v: f64) -> Tuple {
        let mut t = Tuple::new(vec![
            Value::Int(key),
            Value::Timestamp(end),
            Value::Double(v),
        ]);
        t.event_time = end - 1;
        t
    }

    fn make(func: AggFunc) -> Box<dyn Udo> {
        WindowMergeFactory { func, keyed: true }.create()
    }

    #[test]
    fn partials_merge_per_key_and_window() {
        let mut m = make(AggFunc::Sum);
        let mut out = Vec::new();
        m.on_tuple(0, partial(1, 100, 3.0), &mut out);
        m.on_tuple(0, partial(1, 100, 4.0), &mut out);
        m.on_tuple(0, partial(2, 100, 7.0), &mut out);
        m.on_tuple(0, partial(1, 200, 1.0), &mut out);
        assert!(out.is_empty(), "nothing released before the watermark");
        m.on_watermark(100, &mut out);
        assert_eq!(out.len(), 2, "both keys' windows at end=100 released");
        let k1 = out
            .iter()
            .find(|t| t.values[0] == Value::Int(1))
            .expect("key 1");
        assert_eq!(k1.values[2], Value::Double(7.0), "3 + 4 merged");
        m.on_flush(&mut out);
        assert_eq!(out.len(), 3, "flush drains the end=200 window");
    }

    #[test]
    fn min_max_merge_take_extrema() {
        let mut m = make(AggFunc::Min);
        let mut out = Vec::new();
        m.on_tuple(0, partial(1, 100, 5.0), &mut out);
        m.on_tuple(0, partial(1, 100, 2.0), &mut out);
        m.on_flush(&mut out);
        assert_eq!(out[0].values[2], Value::Double(2.0));
    }

    #[test]
    fn late_partial_passes_through_as_late_update() {
        let mut m = make(AggFunc::Sum);
        let mut out = Vec::new();
        m.on_watermark(500, &mut out);
        m.on_tuple(0, partial(1, 100, 9.0), &mut out);
        assert_eq!(out.len(), 1, "late partial forwarded, not dropped");
        assert_eq!(out[0].values[2], Value::Double(9.0));
    }

    #[test]
    fn split_plus_merge_equals_unsplit_sum() {
        // Partition one key's tuples over 3 "pre-aggregators" by hand; the
        // merged totals must equal the single-instance aggregation.
        let values: Vec<f64> = (1..=30).map(|i| i as f64).collect();
        let partials: Vec<f64> = (0..3)
            .map(|s| values.iter().skip(s).step_by(3).sum())
            .collect();
        let mut m = make(AggFunc::Sum);
        let mut out = Vec::new();
        for p in &partials {
            m.on_tuple(0, partial(1, 100, *p), &mut out);
        }
        m.on_watermark(100, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values[2], Value::Double(values.iter().sum()));
    }

    #[test]
    #[should_panic(expected = "cannot be merged")]
    fn avg_merge_is_rejected() {
        let _ = window_merge_udo(AggFunc::Avg, true);
    }

    #[test]
    fn factory_declares_merge_property() {
        let f = WindowMergeFactory {
            func: AggFunc::Sum,
            keyed: true,
        };
        let p = f.properties();
        assert!(p.merges_hot_key_splits);
        assert_eq!(p.keyed_state_field, Some(0));
        assert!(p.bounded_state);
    }
}
