//! Window specifications and window state machines.
//!
//! PDSP-Bench enumerates window *type* (sliding, tumbling) and *policy*
//! (count-based, time-based) independently, with window durations of
//! 250-3000 ms, lengths of 5-1000 tuples and slide ratios of 0.3-0.7
//! (Table 3). A tumbling window is represented as a sliding window whose
//! slide equals its length, which the assigner exploits.

use crate::agg::{Accumulator, AggFunc};
use crate::error::{EngineError, Result};
use crate::value::{KeyMap, KeyValue, Tuple, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Window type: tumbling (non-overlapping) or sliding (overlapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WindowKind {
    /// Non-overlapping; slide == length.
    Tumbling,
    /// Overlapping; slide < length.
    Sliding,
}

/// Window policy: what "length" counts — tuples or milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WindowPolicy {
    /// Length/slide measured in tuples per key.
    Count,
    /// Length/slide measured in event-time milliseconds.
    Time,
}

/// A fully specified window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct WindowSpec {
    /// Count or time policy.
    pub policy: WindowPolicy,
    /// Window length (tuples or ms according to policy).
    pub length: u64,
    /// Slide (tuples or ms). `slide == length` means tumbling.
    pub slide: u64,
}

impl WindowSpec {
    /// Tumbling count window of `length` tuples.
    pub fn tumbling_count(length: u64) -> Self {
        WindowSpec {
            policy: WindowPolicy::Count,
            length,
            slide: length,
        }
    }

    /// Sliding count window.
    pub fn sliding_count(length: u64, slide: u64) -> Self {
        WindowSpec {
            policy: WindowPolicy::Count,
            length,
            slide,
        }
    }

    /// Tumbling time window of `length_ms`.
    pub fn tumbling_time(length_ms: u64) -> Self {
        WindowSpec {
            policy: WindowPolicy::Time,
            length: length_ms,
            slide: length_ms,
        }
    }

    /// Sliding time window.
    pub fn sliding_time(length_ms: u64, slide_ms: u64) -> Self {
        WindowSpec {
            policy: WindowPolicy::Time,
            length: length_ms,
            slide: slide_ms,
        }
    }

    /// Derived window kind.
    pub fn kind(&self) -> WindowKind {
        if self.slide >= self.length {
            WindowKind::Tumbling
        } else {
            WindowKind::Sliding
        }
    }

    /// Number of panes a sliding window spans (1 for tumbling).
    pub fn panes_per_window(&self) -> u64 {
        self.length.div_ceil(self.slide.max(1))
    }

    /// Whether the spec is structurally valid (non-zero, slide <= length).
    pub fn is_valid(&self) -> bool {
        self.length > 0 && self.slide > 0 && self.slide <= self.length
    }
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let unit = match self.policy {
            WindowPolicy::Count => "tuples",
            WindowPolicy::Time => "ms",
        };
        write!(
            f,
            "{:?} {:?} len={} {} slide={}",
            self.kind(),
            self.policy,
            self.length,
            unit,
            self.slide
        )
    }
}

/// One fired window result.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResult {
    /// Grouping key (`None` for global windows).
    pub key: Option<Value>,
    /// Window end: event-time ms for time windows, cumulative per-key tuple
    /// count for count windows.
    pub window_end: i64,
    /// Aggregate value (`None` when the aggregated window was empty).
    pub value: Option<f64>,
    /// Number of tuples aggregated.
    pub count: u64,
    /// Latest `emit_ns` among contributing tuples — the window result
    /// inherits it so sink latency covers the full pipeline.
    pub emit_ns: u64,
    /// Latest event time among contributing tuples.
    pub event_time: i64,
}

/// A pre-aggregated run of one key's tuples: a time pane covers `pane`
/// ms of event time, a count pane `pane` consecutive tuples. Windows are
/// merges of whole panes.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Pane {
    acc: Accumulator,
    max_emit_ns: u64,
    max_event_time: i64,
}

impl Pane {
    fn new(func: AggFunc) -> Self {
        Pane {
            acc: Accumulator::new(func),
            max_emit_ns: 0,
            max_event_time: i64::MIN,
        }
    }

    fn push(&mut self, value: f64, tuple: &Tuple) {
        self.acc.push(value);
        self.max_emit_ns = self.max_emit_ns.max(tuple.emit_ns);
        self.max_event_time = self.max_event_time.max(tuple.event_time);
    }

    fn merge(&mut self, other: &Pane) {
        self.acc.merge(&other.acc);
        self.max_emit_ns = self.max_emit_ns.max(other.max_emit_ns);
        self.max_event_time = self.max_event_time.max(other.max_event_time);
    }

    fn result(&self, key: Option<Value>, window_end: i64) -> WindowResult {
        WindowResult {
            key,
            window_end,
            value: self.acc.finish(),
            count: self.acc.count(),
            emit_ns: self.max_emit_ns,
            event_time: self.max_event_time,
        }
    }
}

/// Per-key time-window state: panes plus the fire cursor (end of the next
/// window to fire), preventing duplicate firings across watermarks.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct TimeKeyState {
    panes: BTreeMap<i64, Pane>,
    next_end: Option<i64>,
}

/// Per-key count-window state: the panes of the current window, oldest
/// first, the back one possibly still filling.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct CountKeyState {
    panes: VecDeque<Pane>,
    /// Tuples this key has seen.
    seen: u64,
}

const fn gcd(a: u64, b: u64) -> u64 {
    let (mut a, mut b) = (a, b);
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The key of global (un-keyed) windows.
static GLOBAL_KEY: Value = Value::Int(0);

/// Keyed (or global) window aggregation state machine.
///
/// Count windows fire synchronously on tuple arrival; time windows fire when
/// the watermark passes a window end. Both pre-aggregate into panes of
/// gcd(length, slide) units, so a tuple costs one accumulator update and a
/// fire merges `length / pane` panes rather than refolding the window's
/// contents; a tumbling count window is one running accumulator per key.
pub struct KeyedWindower {
    spec: WindowSpec,
    func: AggFunc,
    /// Pane size in ms or tuples: gcd(length, slide), so pane boundaries
    /// align exactly with every window start *and* end even when the length
    /// is not a multiple of the slide (ratios like 0.3/0.7 in Table 3).
    pane: u64,
    /// Time policy: key -> pane/cursor state.
    time_state: KeyMap<TimeKeyState>,
    /// Count policy: key -> panes of the current window.
    count_state: KeyMap<CountKeyState>,
    keyed: bool,
    /// Highest watermark observed; time-policy tuples behind it are late.
    watermark: i64,
    /// Tuples up to this many ms behind the watermark are still accepted
    /// (re-firing their windows as late updates); 0 restores the strict
    /// drop-at-watermark rule. Configuration, not checkpointed.
    allowed_lateness: i64,
    /// Late (dropped) tuple count.
    late_events: u64,
    /// Window results fired so far (telemetry counter; not checkpointed —
    /// a restored instance counts fires since restore).
    fired: u64,
}

impl KeyedWindower {
    /// Create a windower. `keyed == false` aggregates the whole stream.
    pub fn new(spec: WindowSpec, func: AggFunc, keyed: bool) -> Self {
        KeyedWindower {
            spec,
            func,
            pane: gcd(spec.length.max(1), spec.slide.max(1)),
            time_state: KeyMap::default(),
            count_state: KeyMap::default(),
            keyed,
            watermark: i64::MIN,
            allowed_lateness: 0,
            late_events: 0,
            fired: 0,
        }
    }

    /// Accept time-policy tuples up to `ms` behind the watermark. An
    /// accepted late tuple re-fires every window covering it at the next
    /// watermark — a *late update* carrying the late tuple plus any
    /// not-yet-expired panes, mirroring Flink's allowed-lateness semantics.
    /// Tuples later than the bound are still dropped and counted late.
    pub fn set_allowed_lateness(&mut self, ms: i64) {
        self.allowed_lateness = ms.max(0);
    }

    /// Tuples dropped because they arrived behind the watermark (time
    /// policy only; count windows have no notion of lateness), beyond any
    /// allowed lateness.
    pub fn late_events(&self) -> u64 {
        self.late_events
    }

    /// Window results fired so far.
    pub fn panes_fired(&self) -> u64 {
        self.fired
    }

    /// The window spec.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Ingest one (key, value) pair; count windows may fire immediately.
    /// The key is cloned only when it is first seen or a window fires.
    pub fn push(
        &mut self,
        key: Option<&Value>,
        value: f64,
        tuple: &Tuple,
        out: &mut Vec<WindowResult>,
    ) {
        let key = match key {
            Some(k) if self.keyed => k,
            _ => &GLOBAL_KEY,
        };
        match self.spec.policy {
            WindowPolicy::Time => {
                if tuple.event_time < self.watermark.saturating_sub(self.allowed_lateness) {
                    self.late_events += 1;
                    return;
                }
                self.push_time(key, value, tuple)
            }
            WindowPolicy::Count => self.push_count(key, value, tuple, out),
        }
    }

    fn push_time(&mut self, key: &Value, value: f64, tuple: &Tuple) {
        let pane_ms = self.pane as i64;
        let pane_start = tuple.event_time.div_euclid(pane_ms) * pane_ms;
        let func = self.func;
        // A tuple behind the watermark here is late-but-allowed (the drop
        // check already passed): its windows may have fired, so the cursor
        // must rewind to re-fire them as late updates.
        let is_late = tuple.event_time < self.watermark;
        let state = match self.time_state.get_mut(key) {
            Some(state) => state,
            None => self.time_state.entry(KeyValue(key.clone())).or_default(),
        };
        state
            .panes
            .entry(pane_start)
            .or_insert_with(|| Pane::new(func))
            .push(value, tuple);
        if is_late {
            // Earliest window end covering this pane: smallest k*slide +
            // length with k*slide > pane_start - length.
            let length = self.spec.length as i64;
            let slide = self.spec.slide as i64;
            let k_min = (pane_start - length).div_euclid(slide) + 1;
            let earliest_end = k_min * slide + length;
            state.next_end = Some(state.next_end.map_or(earliest_end, |c| c.min(earliest_end)));
        }
    }

    fn push_count(&mut self, key: &Value, value: f64, tuple: &Tuple, out: &mut Vec<WindowResult>) {
        let length = self.spec.length;
        let slide = self.spec.slide.max(1);
        let panes_per_window = (length / self.pane) as usize;
        let func = self.func;
        let state = match self.count_state.get_mut(key) {
            Some(state) => state,
            None => self.count_state.entry(KeyValue(key.clone())).or_default(),
        };
        if state
            .panes
            .back()
            .is_none_or(|p| p.acc.count() >= self.pane)
        {
            state.panes.push_back(Pane::new(func));
        }
        state
            .panes
            .back_mut()
            .expect("a pane was just ensured")
            .push(value, tuple);
        // Keep the panes of the newest `length` tuples.
        if state.panes.len() > panes_per_window {
            state.panes.pop_front();
        }
        state.seen += 1;
        // Fire once a full window exists and `slide` tuples have arrived,
        // then every `slide` tuples. Both counts are multiples of the pane
        // size, so at a fire every pane held is complete.
        let first = length.max(slide);
        if state.seen >= first && (state.seen - first).is_multiple_of(slide) {
            let mut window = Pane::new(func);
            for pane in &state.panes {
                window.merge(pane);
            }
            self.fired += 1;
            out.push(window.result(self.keyed.then(|| key.clone()), state.seen as i64));
        }
    }

    /// Advance the watermark (event-time ms); fires all complete time
    /// windows. No-op for count windows.
    pub fn on_watermark(&mut self, watermark: i64, out: &mut Vec<WindowResult>) {
        if self.spec.policy != WindowPolicy::Time {
            return;
        }
        self.watermark = self.watermark.max(watermark);
        let fired_before = out.len();
        let slide = self.spec.slide as i64;
        let length = self.spec.length as i64;
        let keyed = self.keyed;
        let func = self.func;
        // Smallest window end strictly above the watermark (i128 dodges
        // overflow at the i64 extremes). The per-key cursor must never
        // advance past it: an accepted out-of-order tuple always belongs
        // to windows ending above the watermark, and a cursor beyond them
        // would expire its pane without ever firing it.
        let first_end_above = {
            let wm = self.watermark;
            let k = (wm as i128 - length as i128).div_euclid(slide as i128) + 1;
            (k * slide as i128 + length as i128).clamp(i64::MIN as i128, i64::MAX as i128) as i64
        };
        for (key, state) in self.time_state.iter_mut() {
            let Some((&first_pane, _)) = state.panes.iter().next() else {
                continue;
            };
            // Earliest window end covering the first pane: smallest
            // k*slide + length with k*slide > first_pane - length.
            let k_min = (first_pane - length).div_euclid(slide) + 1;
            let earliest_end = k_min * slide + length;
            let mut next_end = state.next_end.map_or(earliest_end, |c| c.max(earliest_end));
            while watermark >= next_end && !state.panes.is_empty() {
                let w_start = next_end - length;
                let mut window = Pane::new(func);
                for (_, pane) in state.panes.range(w_start..next_end) {
                    window.merge(pane);
                }
                if window.acc.count() > 0 {
                    out.push(window.result(keyed.then(|| key.0.clone()), next_end));
                }
                // `next_end` saturates rather than wrapping when flushed
                // with watermark == i64::MAX.
                next_end = next_end.saturating_add(slide);
                // Panes entirely before the next window's start are dead.
                let next_start = next_end - length;
                let expired: Vec<i64> = state.panes.range(..next_start).map(|(k, _)| *k).collect();
                for k in expired {
                    state.panes.remove(&k);
                }
            }
            state.next_end = Some(next_end.min(first_end_above));
        }
        self.time_state.retain(|_, s| !s.panes.is_empty());
        self.fired += (out.len() - fired_before) as u64;
    }

    /// Flush at end-of-stream: fire all remaining time windows.
    pub fn flush(&mut self, out: &mut Vec<WindowResult>) {
        self.on_watermark(i64::MAX, out);
    }

    /// Number of live keys (for state-size accounting).
    pub fn key_count(&self) -> usize {
        match self.spec.policy {
            WindowPolicy::Time => self.time_state.len(),
            WindowPolicy::Count => self.count_state.len(),
        }
    }

    /// Pane size, gcd of length and slide: ms for time windows, tuples
    /// for count windows.
    pub fn pane_ms(&self) -> i64 {
        self.pane as i64
    }

    /// Serialize the dynamic state (panes, watermark, late count) for a
    /// checkpoint. The spec/func/keyed configuration travels with the
    /// plan, not the snapshot.
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        let snap = WindowerSnapshot {
            time_state: self.time_state.clone(),
            count_state: self.count_state.clone(),
            watermark: self.watermark,
            late_events: self.late_events,
        };
        serde_json::to_string(&snap)
            .map(String::into_bytes)
            .map_err(|e| EngineError::Checkpoint(format!("windower snapshot: {e}")))
    }

    /// Replace the dynamic state with a previously captured snapshot.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        let snap: WindowerSnapshot = decode_snapshot(bytes, "windower")?;
        self.time_state = snap.time_state;
        self.count_state = snap.count_state;
        self.watermark = snap.watermark;
        self.late_events = snap.late_events;
        Ok(())
    }
}

/// Dynamic portion of [`KeyedWindower`] captured by checkpoints.
#[derive(Serialize, Deserialize)]
struct WindowerSnapshot {
    time_state: KeyMap<TimeKeyState>,
    count_state: KeyMap<CountKeyState>,
    watermark: i64,
    late_events: u64,
}

/// Shared snapshot decoding: UTF-8 then JSON, with a labelled error.
pub(crate) fn decode_snapshot<T: serde::Deserialize>(bytes: &[u8], what: &str) -> Result<T> {
    let text = std::str::from_utf8(bytes)
        .map_err(|e| EngineError::Checkpoint(format!("{what} snapshot not utf-8: {e}")))?;
    serde_json::from_str(text).map_err(|e| EngineError::Checkpoint(format!("{what} restore: {e}")))
}

/// Session-window state for one key.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct SessionState {
    acc: Accumulator,
    start_et: i64,
    last_et: i64,
    max_emit_ns: u64,
}

/// Keyed session windows: a session groups events whose gaps stay below
/// `gap_ms`; a session fires once the watermark passes `last event + gap`.
///
/// Session windows extend the paper's tumbling/sliding vocabulary with the
/// third standard Flink window type, so generated workloads can cover
/// activity-burst analytics (an expressiveness extension over Table 3).
pub struct SessionWindower {
    gap_ms: i64,
    func: AggFunc,
    keyed: bool,
    sessions: KeyMap<SessionState>,
    /// Events that arrived behind the watermark and were dropped.
    late_events: u64,
    watermark: i64,
    /// Events up to this many ms behind the watermark are still accepted
    /// (opening or extending a session that fires as a late update); 0
    /// restores the strict rule. Configuration, not checkpointed.
    allowed_lateness: i64,
    /// Sessions fired so far (telemetry counter; not checkpointed).
    fired: u64,
}

impl SessionWindower {
    /// Session windows with the given inactivity gap (ms).
    pub fn new(gap_ms: u64, func: AggFunc, keyed: bool) -> Self {
        SessionWindower {
            gap_ms: gap_ms.max(1) as i64,
            func,
            keyed,
            sessions: KeyMap::default(),
            late_events: 0,
            watermark: i64::MIN,
            allowed_lateness: 0,
            fired: 0,
        }
    }

    /// Accept events up to `ms` behind the watermark; a late-accepted event
    /// opens (or extends) a session that fires as a late update at the next
    /// watermark. Events later than the bound stay dropped and counted.
    pub fn set_allowed_lateness(&mut self, ms: i64) {
        self.allowed_lateness = ms.max(0);
    }

    /// The inactivity gap in ms.
    pub fn gap_ms(&self) -> i64 {
        self.gap_ms
    }

    /// Number of dropped late events.
    pub fn late_events(&self) -> u64 {
        self.late_events
    }

    /// Sessions fired so far.
    pub fn panes_fired(&self) -> u64 {
        self.fired
    }

    /// Live (unfired) sessions.
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    fn fire(key: Option<Value>, s: &SessionState, out: &mut Vec<WindowResult>) {
        out.push(WindowResult {
            key,
            window_end: s.last_et + 1,
            value: s.acc.finish(),
            count: s.acc.count(),
            emit_ns: s.max_emit_ns,
            event_time: s.last_et,
        });
    }

    /// Ingest one (key, value) pair; a gap larger than `gap_ms` closes the
    /// previous session for that key immediately.
    pub fn push(
        &mut self,
        key: Option<&Value>,
        value: f64,
        tuple: &Tuple,
        out: &mut Vec<WindowResult>,
    ) {
        if tuple.event_time < self.watermark.saturating_sub(self.allowed_lateness) {
            self.late_events += 1;
            return;
        }
        let key = match key {
            Some(k) if self.keyed => k,
            _ => &GLOBAL_KEY,
        };
        let fresh = SessionState {
            acc: Accumulator::new(self.func),
            start_et: tuple.event_time,
            last_et: tuple.event_time,
            max_emit_ns: 0,
        };
        let state = match self.sessions.get_mut(key) {
            Some(state) => {
                if tuple.event_time - state.last_et > self.gap_ms {
                    // Gap exceeded: close the old session, start fresh.
                    self.fired += 1;
                    Self::fire(self.keyed.then(|| key.clone()), state, out);
                    *state = fresh;
                }
                state
            }
            None => self.sessions.entry(KeyValue(key.clone())).or_insert(fresh),
        };
        state.acc.push(value);
        state.last_et = state.last_et.max(tuple.event_time);
        state.max_emit_ns = state.max_emit_ns.max(tuple.emit_ns);
    }

    /// Advance the watermark; sessions inactive past the gap fire.
    pub fn on_watermark(&mut self, watermark: i64, out: &mut Vec<WindowResult>) {
        self.watermark = self.watermark.max(watermark);
        let gap = self.gap_ms;
        let keyed = self.keyed;
        let expired: Vec<KeyValue> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.last_et.saturating_add(gap) <= watermark)
            .map(|(k, _)| k.clone())
            .collect();
        for k in expired {
            if let Some(s) = self.sessions.remove(&k) {
                self.fired += 1;
                Self::fire(keyed.then(|| k.0.clone()), &s, out);
            }
        }
    }

    /// Fire everything (end of stream).
    pub fn flush(&mut self, out: &mut Vec<WindowResult>) {
        self.on_watermark(i64::MAX, out);
    }

    /// Event-time length of the currently open session for a key (tests /
    /// introspection).
    pub fn session_span(&self, key: &Value) -> Option<i64> {
        self.sessions.get(key).map(|s| s.last_et - s.start_et)
    }

    /// Serialize the open sessions, watermark and late count for a
    /// checkpoint.
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        let snap = SessionSnapshot {
            sessions: self.sessions.clone(),
            watermark: self.watermark,
            late_events: self.late_events,
        };
        serde_json::to_string(&snap)
            .map(String::into_bytes)
            .map_err(|e| EngineError::Checkpoint(format!("session snapshot: {e}")))
    }

    /// Replace the dynamic state with a previously captured snapshot.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<()> {
        let snap: SessionSnapshot = decode_snapshot(bytes, "session windower")?;
        self.sessions = snap.sessions;
        self.watermark = snap.watermark;
        self.late_events = snap.late_events;
        Ok(())
    }
}

/// Dynamic portion of [`SessionWindower`] captured by checkpoints.
#[derive(Serialize, Deserialize)]
struct SessionSnapshot {
    sessions: KeyMap<SessionState>,
    watermark: i64,
    late_events: u64,
}

#[cfg(test)]
mod session_tests {
    use super::*;

    fn t(et: i64) -> Tuple {
        let mut t = Tuple::new(vec![Value::Int(0)]);
        t.event_time = et;
        t
    }

    #[test]
    fn events_within_gap_form_one_session() {
        let mut w = SessionWindower::new(100, AggFunc::Count, false);
        let mut out = Vec::new();
        for et in [0, 50, 120, 180] {
            w.push(None, 1.0, &t(et), &mut out);
        }
        assert!(out.is_empty());
        w.flush(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].count, 4);
    }

    #[test]
    fn gap_exceeded_closes_session_inline() {
        let mut w = SessionWindower::new(100, AggFunc::Sum, false);
        let mut out = Vec::new();
        w.push(None, 1.0, &t(0), &mut out);
        w.push(None, 2.0, &t(50), &mut out);
        w.push(None, 10.0, &t(500), &mut out); // gap 450 > 100
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, Some(3.0));
        w.flush(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].value, Some(10.0));
    }

    #[test]
    fn watermark_fires_inactive_sessions_only() {
        let mut w = SessionWindower::new(100, AggFunc::Count, true);
        let mut out = Vec::new();
        let (a, b) = (Value::str("a"), Value::str("b"));
        w.push(Some(&a), 1.0, &t(0), &mut out);
        w.push(Some(&b), 1.0, &t(450), &mut out);
        w.on_watermark(200, &mut out);
        assert_eq!(out.len(), 1, "only key a is inactive past the gap");
        assert_eq!(out[0].key, Some(Value::str("a")));
        assert_eq!(w.open_sessions(), 1);
    }

    #[test]
    fn late_events_are_counted_and_dropped() {
        let mut w = SessionWindower::new(100, AggFunc::Count, false);
        let mut out = Vec::new();
        w.push(None, 1.0, &t(1_000), &mut out);
        w.on_watermark(900, &mut out);
        w.push(None, 1.0, &t(500), &mut out); // behind the watermark
        assert_eq!(w.late_events(), 1);
        w.flush(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].count, 1, "late event did not join the session");
    }

    #[test]
    fn snapshot_restore_resumes_open_sessions() {
        let mut w = SessionWindower::new(100, AggFunc::Count, true);
        let mut out = Vec::new();
        let k = Value::str("a");
        w.push(Some(&k), 1.0, &t(0), &mut out);
        w.push(Some(&k), 1.0, &t(50), &mut out);
        let bytes = w.snapshot().unwrap();
        let mut r = SessionWindower::new(100, AggFunc::Count, true);
        r.restore(&bytes).unwrap();
        assert_eq!(r.open_sessions(), 1);
        r.push(Some(&k), 1.0, &t(120), &mut out);
        r.flush(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].count, 3, "session continued across restore");
    }

    #[test]
    fn session_span_tracks_extent() {
        let mut w = SessionWindower::new(100, AggFunc::Count, true);
        let mut out = Vec::new();
        let k = Value::Int(7);
        w.push(Some(&k), 1.0, &t(10), &mut out);
        w.push(Some(&k), 1.0, &t(90), &mut out);
        assert_eq!(w.session_span(&k), Some(80));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple_at(et: i64) -> Tuple {
        let mut t = Tuple::new(vec![Value::Int(0)]);
        t.event_time = et;
        t
    }

    #[test]
    fn spec_kind_derivation() {
        assert_eq!(WindowSpec::tumbling_count(10).kind(), WindowKind::Tumbling);
        assert_eq!(WindowSpec::sliding_count(10, 5).kind(), WindowKind::Sliding);
        assert_eq!(WindowSpec::tumbling_time(500).kind(), WindowKind::Tumbling);
    }

    #[test]
    fn spec_validity() {
        assert!(WindowSpec::tumbling_count(5).is_valid());
        assert!(!WindowSpec::sliding_count(5, 0).is_valid());
        assert!(!WindowSpec::sliding_count(0, 1).is_valid());
        assert!(!WindowSpec {
            policy: WindowPolicy::Count,
            length: 5,
            slide: 6
        }
        .is_valid());
    }

    #[test]
    fn tumbling_count_window_fires_every_n() {
        let mut w = KeyedWindower::new(WindowSpec::tumbling_count(3), AggFunc::Sum, false);
        let mut out = Vec::new();
        for i in 1..=7 {
            w.push(None, i as f64, &tuple_at(i), &mut out);
        }
        // Fires at tuples 3 and 6.
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].value, Some(1.0 + 2.0 + 3.0));
        assert_eq!(out[1].value, Some(4.0 + 5.0 + 6.0));
    }

    #[test]
    fn sliding_count_window_overlap() {
        let mut w = KeyedWindower::new(WindowSpec::sliding_count(4, 2), AggFunc::Sum, false);
        let mut out = Vec::new();
        for i in 1..=8 {
            w.push(None, i as f64, &tuple_at(i), &mut out);
        }
        // First fire at tuple 4 (1+2+3+4), then every 2: [3..6], [5..8].
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].value, Some(10.0));
        assert_eq!(out[1].value, Some(3.0 + 4.0 + 5.0 + 6.0));
        assert_eq!(out[2].value, Some(5.0 + 6.0 + 7.0 + 8.0));
    }

    #[test]
    fn keyed_count_windows_are_independent() {
        let mut w = KeyedWindower::new(WindowSpec::tumbling_count(2), AggFunc::Count, true);
        let mut out = Vec::new();
        let (ka, kb) = (Value::str("a"), Value::str("b"));
        w.push(Some(&ka), 1.0, &tuple_at(1), &mut out);
        w.push(Some(&kb), 1.0, &tuple_at(2), &mut out);
        assert!(out.is_empty());
        w.push(Some(&ka), 1.0, &tuple_at(3), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].key, Some(Value::str("a")));
    }

    #[test]
    fn tumbling_time_window_fires_on_watermark() {
        let mut w = KeyedWindower::new(WindowSpec::tumbling_time(100), AggFunc::Sum, false);
        let mut out = Vec::new();
        w.push(None, 1.0, &tuple_at(10), &mut out);
        w.push(None, 2.0, &tuple_at(50), &mut out);
        w.push(None, 4.0, &tuple_at(120), &mut out);
        assert!(out.is_empty());
        w.on_watermark(99, &mut out);
        assert!(out.is_empty(), "window [0,100) not complete at wm=99");
        w.on_watermark(100, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, Some(3.0));
        assert_eq!(out[0].window_end, 100);
        w.flush(&mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].value, Some(4.0));
    }

    #[test]
    fn sliding_time_window_counts_overlaps() {
        // length 100, slide 50: tuple at t=60 is in [0,100) and [50,150).
        let mut w = KeyedWindower::new(WindowSpec::sliding_time(100, 50), AggFunc::Count, false);
        let mut out = Vec::new();
        w.push(None, 1.0, &tuple_at(60), &mut out);
        w.flush(&mut out);
        let containing: Vec<i64> = out
            .iter()
            .filter(|r| r.count > 0)
            .map(|r| r.window_end)
            .collect();
        assert_eq!(containing, vec![100, 150]);
    }

    #[test]
    fn time_window_results_carry_latest_emit_ns() {
        let mut w = KeyedWindower::new(WindowSpec::tumbling_time(100), AggFunc::Sum, false);
        let mut out = Vec::new();
        let mut t1 = tuple_at(10);
        t1.emit_ns = 111;
        let mut t2 = tuple_at(20);
        t2.emit_ns = 222;
        w.push(None, 1.0, &t1, &mut out);
        w.push(None, 1.0, &t2, &mut out);
        w.flush(&mut out);
        assert_eq!(out[0].emit_ns, 222);
    }

    #[test]
    fn watermark_is_idempotent() {
        let mut w = KeyedWindower::new(WindowSpec::tumbling_time(100), AggFunc::Sum, false);
        let mut out = Vec::new();
        w.push(None, 5.0, &tuple_at(10), &mut out);
        w.on_watermark(200, &mut out);
        w.on_watermark(200, &mut out);
        w.on_watermark(300, &mut out);
        assert_eq!(out.len(), 1, "window must fire exactly once");
    }

    #[test]
    fn negative_event_times_align_correctly() {
        // div_euclid keeps panes aligned for negative timestamps.
        let mut w = KeyedWindower::new(WindowSpec::tumbling_time(100), AggFunc::Count, false);
        let mut out = Vec::new();
        w.push(None, 1.0, &tuple_at(-50), &mut out);
        w.flush(&mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].window_end, 0); // window [-100, 0)
    }

    #[test]
    fn late_time_tuples_are_dropped_and_counted() {
        let mut w = KeyedWindower::new(WindowSpec::tumbling_time(100), AggFunc::Count, false);
        let mut out = Vec::new();
        w.push(None, 1.0, &tuple_at(150), &mut out);
        w.on_watermark(120, &mut out);
        // Behind the watermark: dropped.
        w.push(None, 1.0, &tuple_at(90), &mut out);
        assert_eq!(w.late_events(), 1);
        // At/ahead of the watermark: accepted.
        w.push(None, 1.0, &tuple_at(130), &mut out);
        assert_eq!(w.late_events(), 1);
        w.flush(&mut out);
        let total: u64 = out.iter().map(|r| r.count).sum();
        assert_eq!(total, 2, "only the on-time tuples are aggregated");
    }

    #[test]
    fn out_of_order_pane_behind_the_cursor_still_fires() {
        // Regression: a tuple ahead of the stream initializes the firing
        // cursor; an out-of-order tuple that is NOT late (still at/above
        // the watermark) then opens an earlier pane. That pane's window
        // must fire rather than expire silently.
        let mut w = KeyedWindower::new(WindowSpec::tumbling_time(100), AggFunc::Count, false);
        let mut out = Vec::new();
        w.push(None, 1.0, &tuple_at(150), &mut out);
        // Watermark far behind: nothing fires, nothing is late yet.
        w.on_watermark(10, &mut out);
        assert!(out.is_empty());
        // Out of order but at the watermark: accepted into window [0, 100).
        w.push(None, 1.0, &tuple_at(10), &mut out);
        assert_eq!(w.late_events(), 0);
        w.flush(&mut out);
        let total: u64 = out.iter().map(|r| r.count).sum();
        assert_eq!(total, 2, "the out-of-order tuple is aggregated, not lost");
        assert_eq!(out.len(), 2, "both windows fired");
    }

    #[test]
    fn allowed_lateness_accepts_and_refires_as_late_update() {
        let mut w = KeyedWindower::new(WindowSpec::tumbling_time(100), AggFunc::Count, false);
        w.set_allowed_lateness(50);
        let mut out = Vec::new();
        w.push(None, 1.0, &tuple_at(10), &mut out);
        w.on_watermark(120, &mut out);
        assert_eq!(out.len(), 1, "window [0,100) fired on time");
        // 30ms behind the bound 120-50=70: accepted, re-fires [0,100).
        w.push(None, 1.0, &tuple_at(90), &mut out);
        assert_eq!(w.late_events(), 0);
        w.on_watermark(120, &mut out);
        assert_eq!(out.len(), 2, "late update re-fired the window");
        assert_eq!(out[1].window_end, 100);
        assert_eq!(out[1].count, 1, "update carries the late tuple");
        // Beyond the bound: still dropped and counted.
        w.push(None, 1.0, &tuple_at(60), &mut out);
        assert_eq!(w.late_events(), 1);
        w.flush(&mut out);
        let total: u64 = out.iter().map(|r| r.count).sum();
        assert_eq!(total, 2, "accounting: 3 in = 2 contributed + 1 late");
    }

    #[test]
    fn allowed_lateness_zero_matches_strict_behaviour() {
        let mut strict = KeyedWindower::new(WindowSpec::sliding_time(100, 50), AggFunc::Sum, true);
        let mut zeroed = KeyedWindower::new(WindowSpec::sliding_time(100, 50), AggFunc::Sum, true);
        zeroed.set_allowed_lateness(0);
        let key = Value::str("k");
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for w in [(&mut strict, &mut a), (&mut zeroed, &mut b)] {
            let (win, out) = w;
            for et in [10, 160, 60, 90, 200] {
                win.push(Some(&key), et as f64, &tuple_at(et), out);
                win.on_watermark(et - 40, out);
            }
            win.flush(out);
        }
        assert_eq!(a, b);
        assert_eq!(strict.late_events(), zeroed.late_events());
    }

    #[test]
    fn session_allowed_lateness_admits_late_session() {
        let mut w = SessionWindower::new(100, AggFunc::Count, false);
        w.set_allowed_lateness(200);
        let mut out = Vec::new();
        w.push(None, 1.0, &tuple_at(1_000), &mut out);
        w.on_watermark(900, &mut out);
        // 100ms behind the watermark but inside the allowance.
        w.push(None, 1.0, &tuple_at(800), &mut out);
        assert_eq!(w.late_events(), 0);
        // Far beyond the allowance: dropped.
        w.push(None, 1.0, &tuple_at(100), &mut out);
        assert_eq!(w.late_events(), 1);
        w.flush(&mut out);
        let total: u64 = out.iter().map(|r| r.count).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn count_policy_ignores_watermarks() {
        let mut w = KeyedWindower::new(WindowSpec::tumbling_count(5), AggFunc::Sum, false);
        let mut out = Vec::new();
        w.push(None, 1.0, &tuple_at(1), &mut out);
        w.on_watermark(i64::MAX, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn panes_per_window() {
        assert_eq!(WindowSpec::sliding_time(100, 30).panes_per_window(), 4);
        assert_eq!(WindowSpec::tumbling_time(100).panes_per_window(), 1);
    }

    #[test]
    fn snapshot_restore_resumes_time_windows_identically() {
        let spec = WindowSpec::sliding_time(100, 50);
        let mut reference = KeyedWindower::new(spec, AggFunc::Sum, true);
        let mut out_ref = Vec::new();
        let key = Value::str("k");
        for et in [10, 60, 110, 170] {
            reference.push(Some(&key), et as f64, &tuple_at(et), &mut out_ref);
        }
        reference.on_watermark(100, &mut out_ref);

        // Rebuild a second windower from the midpoint snapshot, then feed
        // both the same tail; outputs must match exactly.
        let mut original = KeyedWindower::new(spec, AggFunc::Sum, true);
        let mut scratch = Vec::new();
        for et in [10, 60, 110, 170] {
            original.push(Some(&key), et as f64, &tuple_at(et), &mut scratch);
        }
        original.on_watermark(100, &mut scratch);
        let bytes = original.snapshot().unwrap();
        let mut restored = KeyedWindower::new(spec, AggFunc::Sum, true);
        restored.restore(&bytes).unwrap();

        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for w in [reference, restored]
            .iter_mut()
            .zip([&mut out_a, &mut out_b])
        {
            let (win, out) = w;
            win.push(Some(&key), 230.0, &tuple_at(230), out);
            win.flush(out);
        }
        assert_eq!(out_a, out_b);
        assert!(!out_a.is_empty());
    }

    #[test]
    fn snapshot_restore_preserves_count_buffers_and_late_count() {
        let mut w = KeyedWindower::new(WindowSpec::tumbling_count(3), AggFunc::Sum, false);
        let mut out = Vec::new();
        w.push(None, 1.0, &tuple_at(1), &mut out);
        w.push(None, 2.0, &tuple_at(2), &mut out);
        let bytes = w.snapshot().unwrap();
        let mut r = KeyedWindower::new(WindowSpec::tumbling_count(3), AggFunc::Sum, false);
        r.restore(&bytes).unwrap();
        r.push(None, 3.0, &tuple_at(3), &mut out);
        assert_eq!(out.len(), 1, "restored buffer completes the window");
        assert_eq!(out[0].value, Some(6.0));
    }

    #[test]
    fn restore_rejects_garbage() {
        let mut w = KeyedWindower::new(WindowSpec::tumbling_count(3), AggFunc::Sum, false);
        assert!(w.restore(b"not json").is_err());
        assert!(w.restore(&[0xff, 0xfe]).is_err());
    }
}
