//! Keyed operator state: the symmetric-hash join buffer.
//!
//! Joins in PDSP-Bench queries are windowed equi-joins (Figure 2's 2-way
//! join; synthetic structures go up to 6-way via chained binary joins). The
//! buffer retains each side's tuples for the window extent and probes the
//! opposite side on arrival.

use crate::error::Result;
use crate::value::{KeyMap, KeyValue, Row, Tuple};
use crate::window::{decode_snapshot, WindowPolicy, WindowSpec};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One side of a symmetric hash join.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
struct JoinSide {
    /// key -> buffered tuples (oldest first).
    buckets: KeyMap<VecDeque<Tuple>>,
    /// Total buffered tuples across keys (state-size accounting).
    len: usize,
}

impl JoinSide {
    /// Buffer `tuple` under its field `key_idx`, which the caller checked
    /// exists; the key is cloned only for a key not yet buffered.
    fn insert(&mut self, key_idx: usize, tuple: Tuple, max_per_key: Option<usize>) {
        let key = &tuple.values[key_idx];
        let bucket = match self.buckets.get_mut(key) {
            Some(bucket) => bucket,
            None => self.buckets.entry(KeyValue(key.clone())).or_default(),
        };
        bucket.push_back(tuple);
        self.len += 1;
        if let Some(cap) = max_per_key {
            while bucket.len() > cap {
                bucket.pop_front();
                self.len -= 1;
            }
        }
    }

    fn evict_older_than(&mut self, min_event_time: i64) {
        let mut evicted = 0usize;
        self.buckets.retain(|_, bucket| {
            while bucket
                .front()
                .is_some_and(|t| t.event_time < min_event_time)
            {
                bucket.pop_front();
                evicted += 1;
            }
            !bucket.is_empty()
        });
        self.len -= evicted;
    }
}

/// Windowed symmetric hash join state for one physical join instance.
///
/// * Time policy: tuples `l`, `r` join when `|l.event_time - r.event_time|
///   < length` (interval-join semantics); state is evicted by watermark.
/// * Count policy: each side retains the last `length` tuples per key.
#[derive(Debug)]
pub struct JoinState {
    spec: WindowSpec,
    left_key: usize,
    right_key: usize,
    left: JoinSide,
    right: JoinSide,
    /// Highest watermark observed (time policy); tuples older than the
    /// eviction horizon behind it are unjoinable and counted late.
    watermark: i64,
    /// Extra event-time slack before a behind-watermark tuple counts late.
    allowed_lateness: i64,
    /// Tuples discarded as unjoinable: key field missing, or arrived behind
    /// the eviction horizon (their partners are already gone). Accounted,
    /// never silent.
    late: u64,
}

impl JoinState {
    /// Create join state over the given window and key fields.
    pub fn new(spec: WindowSpec, left_key: usize, right_key: usize) -> Self {
        JoinState {
            spec,
            left_key,
            right_key,
            left: JoinSide::default(),
            right: JoinSide::default(),
            watermark: i64::MIN,
            allowed_lateness: 0,
            late: 0,
        }
    }

    /// Accept time-policy tuples up to `ms` behind the eviction horizon
    /// before discarding them as late. Configuration, not checkpointed.
    pub fn set_allowed_lateness(&mut self, ms: i64) {
        self.allowed_lateness = ms.max(0);
    }

    /// Tuples discarded as unjoinable (missing key field or behind the
    /// eviction horizon).
    pub fn late_events(&self) -> u64 {
        self.late
    }

    /// Total buffered tuples on both sides.
    pub fn buffered(&self) -> usize {
        self.left.len + self.right.len
    }

    /// Process a tuple arriving on `port` (0 = left, 1 = right); pushes
    /// concatenated join results into `out`.
    pub fn on_tuple(&mut self, port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        let key_idx = if port == 0 {
            self.left_key
        } else {
            self.right_key
        };
        let Some(key) = tuple.values.get(key_idx) else {
            self.late += 1; // key field missing: tuple cannot participate
            return;
        };
        if self.spec.policy == WindowPolicy::Time && self.watermark > i64::MIN {
            // Behind the eviction horizon (minus any allowance): every
            // possible partner has been evicted, so buffering or probing is
            // pointless — account and discard.
            let horizon = self
                .watermark
                .saturating_sub(self.spec.length as i64)
                .saturating_sub(self.allowed_lateness);
            if tuple.event_time < horizon {
                self.late += 1;
                return;
            }
        }

        // Probe the opposite side.
        let probe = if port == 0 { &self.right } else { &self.left };
        if let Some(bucket) = probe.buckets.get(key) {
            for other in bucket {
                if self.spec.policy == WindowPolicy::Time {
                    let dt = (tuple.event_time - other.event_time).unsigned_abs();
                    if dt >= self.spec.length {
                        continue;
                    }
                }
                let (l, r) = if port == 0 {
                    (&tuple, other)
                } else {
                    (other, &tuple)
                };
                let mut values = Row::with_capacity(l.values.len() + r.values.len());
                values.extend_from_slice(&l.values);
                values.extend_from_slice(&r.values);
                out.push(Tuple {
                    values,
                    event_time: l.event_time.max(r.event_time),
                    emit_ns: l.emit_ns.max(r.emit_ns),
                });
            }
        }

        // Insert into own side.
        let max_per_key = match self.spec.policy {
            WindowPolicy::Count => Some(self.spec.length as usize),
            WindowPolicy::Time => None,
        };
        let side = if port == 0 {
            &mut self.left
        } else {
            &mut self.right
        };
        side.insert(key_idx, tuple, max_per_key);
    }

    /// Watermark: evict time-window state that can no longer join.
    pub fn on_watermark(&mut self, watermark: i64) {
        if self.spec.policy == WindowPolicy::Time {
            self.watermark = self.watermark.max(watermark);
            let horizon = watermark
                .saturating_sub(self.spec.length as i64)
                .saturating_sub(self.allowed_lateness);
            self.left.evict_older_than(horizon);
            self.right.evict_older_than(horizon);
        }
    }

    /// Serialize both join buffers for a checkpoint (the spec and key
    /// fields travel with the plan, not the snapshot).
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        let snap = JoinSnapshot {
            left: self.left.clone(),
            right: self.right.clone(),
            watermark: self.watermark,
            late: self.late,
        };
        serde_json::to_string(&snap)
            .map(String::into_bytes)
            .map_err(|e| crate::error::EngineError::Checkpoint(format!("join snapshot: {e}")))
    }

    /// Replace both join buffers with a previously captured snapshot.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        let snap: JoinSnapshot = decode_snapshot(bytes, "join")?;
        self.left = snap.left;
        self.right = snap.right;
        self.watermark = snap.watermark;
        self.late = snap.late;
        Ok(())
    }
}

/// Dynamic portion of [`JoinState`] captured by checkpoints.
#[derive(Serialize, Deserialize)]
struct JoinSnapshot {
    left: JoinSide,
    right: JoinSide,
    watermark: i64,
    late: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn t(key: i64, et: i64) -> Tuple {
        let mut t = Tuple::new(vec![Value::Int(key), Value::Int(et * 10)]);
        t.event_time = et;
        t
    }

    #[test]
    fn matching_keys_join_within_window() {
        let mut j = JoinState::new(WindowSpec::tumbling_time(100), 0, 0);
        let mut out = Vec::new();
        j.on_tuple(0, t(1, 10), &mut out);
        assert!(out.is_empty(), "nothing buffered on right yet");
        j.on_tuple(1, t(1, 20), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values.len(), 4, "concatenated width");
        assert_eq!(out[0].event_time, 20);
    }

    #[test]
    fn non_matching_keys_do_not_join() {
        let mut j = JoinState::new(WindowSpec::tumbling_time(100), 0, 0);
        let mut out = Vec::new();
        j.on_tuple(0, t(1, 10), &mut out);
        j.on_tuple(1, t(2, 20), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn time_window_bounds_join_distance() {
        let mut j = JoinState::new(WindowSpec::tumbling_time(50), 0, 0);
        let mut out = Vec::new();
        j.on_tuple(0, t(1, 0), &mut out);
        j.on_tuple(1, t(1, 49), &mut out);
        assert_eq!(out.len(), 1, "within window");
        j.on_tuple(1, t(1, 50), &mut out);
        assert_eq!(out.len(), 1, "exactly window length apart: no join");
    }

    #[test]
    fn watermark_evicts_expired_state() {
        let mut j = JoinState::new(WindowSpec::tumbling_time(50), 0, 0);
        let mut out = Vec::new();
        j.on_tuple(0, t(1, 0), &mut out);
        assert_eq!(j.buffered(), 1);
        j.on_watermark(100);
        assert_eq!(j.buffered(), 0);
        j.on_tuple(1, t(1, 40), &mut out);
        assert!(out.is_empty(), "left side was evicted");
    }

    #[test]
    fn count_window_caps_per_key_buffer() {
        let mut j = JoinState::new(WindowSpec::tumbling_count(2), 0, 0);
        let mut out = Vec::new();
        j.on_tuple(0, t(1, 1), &mut out);
        j.on_tuple(0, t(1, 2), &mut out);
        j.on_tuple(0, t(1, 3), &mut out); // evicts et=1
        j.on_tuple(1, t(1, 4), &mut out);
        assert_eq!(out.len(), 2, "joins with the 2 retained left tuples");
        assert_eq!(j.buffered(), 3);
    }

    #[test]
    fn multiple_matches_produce_cross_product() {
        let mut j = JoinState::new(WindowSpec::tumbling_time(1000), 0, 0);
        let mut out = Vec::new();
        j.on_tuple(0, t(7, 1), &mut out);
        j.on_tuple(0, t(7, 2), &mut out);
        j.on_tuple(0, t(7, 3), &mut out);
        j.on_tuple(1, t(7, 4), &mut out);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn join_key_fields_can_differ_per_side() {
        // Left keys on field 1, right keys on field 0.
        let mut j = JoinState::new(WindowSpec::tumbling_time(1000), 1, 0);
        let mut out = Vec::new();
        let mut left = Tuple::new(vec![Value::str("x"), Value::Int(5)]);
        left.event_time = 1;
        j.on_tuple(0, left, &mut out);
        let mut right = Tuple::new(vec![Value::Int(5), Value::str("y")]);
        right.event_time = 2;
        j.on_tuple(1, right, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn snapshot_restore_resumes_join_buffers() {
        let mut j = JoinState::new(WindowSpec::tumbling_time(1000), 0, 0);
        let mut out = Vec::new();
        j.on_tuple(0, t(7, 1), &mut out);
        j.on_tuple(0, t(7, 2), &mut out);
        let bytes = j.snapshot().unwrap();

        let mut r = JoinState::new(WindowSpec::tumbling_time(1000), 0, 0);
        r.restore(&bytes).unwrap();
        assert_eq!(r.buffered(), 2);
        r.on_tuple(1, t(7, 3), &mut out);
        assert_eq!(out.len(), 2, "restored left side joins with new right");
    }

    #[test]
    fn unjoinable_tuples_are_counted_not_silent() {
        let mut j = JoinState::new(WindowSpec::tumbling_time(50), 0, 0);
        let mut out = Vec::new();
        // Key field missing.
        let mut narrow = Tuple::new(vec![]);
        narrow.event_time = 1;
        j.on_tuple(0, narrow, &mut out);
        assert_eq!(j.late_events(), 1);
        // Behind the eviction horizon: partners are gone.
        j.on_watermark(100);
        j.on_tuple(1, t(1, 40), &mut out);
        assert_eq!(j.late_events(), 2);
        assert_eq!(j.buffered(), 0, "late tuple was not buffered");
        // Allowed lateness widens the horizon.
        let mut k = JoinState::new(WindowSpec::tumbling_time(50), 0, 0);
        k.set_allowed_lateness(20);
        k.on_watermark(100);
        k.on_tuple(1, t(1, 40), &mut out);
        assert_eq!(k.late_events(), 0);
        assert_eq!(k.buffered(), 1);
    }

    #[test]
    fn snapshot_restore_preserves_late_count() {
        let mut j = JoinState::new(WindowSpec::tumbling_time(50), 0, 0);
        let mut out = Vec::new();
        j.on_watermark(100);
        j.on_tuple(0, t(1, 10), &mut out);
        assert_eq!(j.late_events(), 1);
        let bytes = j.snapshot().unwrap();
        let mut r = JoinState::new(WindowSpec::tumbling_time(50), 0, 0);
        r.restore(&bytes).unwrap();
        assert_eq!(r.late_events(), 1);
        // The restored watermark still gates new arrivals.
        r.on_tuple(0, t(1, 10), &mut out);
        assert_eq!(r.late_events(), 2);
    }

    #[test]
    fn emit_ns_propagates_max() {
        let mut j = JoinState::new(WindowSpec::tumbling_time(1000), 0, 0);
        let mut out = Vec::new();
        let mut a = t(1, 1);
        a.emit_ns = 100;
        let mut b = t(1, 2);
        b.emit_ns = 300;
        j.on_tuple(0, a, &mut out);
        j.on_tuple(1, b, &mut out);
        assert_eq!(out[0].emit_ns, 300);
    }
}
