//! Property tests for window correctness: the pane-based time and count
//! windowers must agree with a brute-force reference implementation on
//! arbitrary event sequences, window specs, and watermark schedules.

use pdsp_engine::agg::AggFunc;
use pdsp_engine::value::{Tuple, Value};
use pdsp_engine::window::{KeyedWindower, WindowResult, WindowSpec};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap, VecDeque};

/// A late tuple within the allowed-lateness bound must re-fire only the
/// sliding windows that actually cover its event time — panes it does not
/// touch stay quiet.
#[test]
fn sliding_late_update_refires_only_covering_windows() {
    // Sliding 100/50, allowed lateness 300. A late update re-fires the
    // windows covering the late tuple *plus* any windows still holding
    // not-yet-expired on-time panes, so the watermark below is pushed far
    // enough (301 > last window end 300) to drain and expire every on-time
    // pane before the late tuple arrives — what re-fires after that must
    // cover the late tuple and nothing else.
    let mut w = KeyedWindower::new(WindowSpec::sliding_time(100, 50), AggFunc::Sum, false);
    w.set_allowed_lateness(300);
    let tuple_at = |et: i64| {
        let mut t = Tuple::new(vec![Value::Int(0), Value::Double(1.0)]);
        t.event_time = et;
        t
    };
    let mut out = Vec::new();
    // On-time data in panes 150 and 200; all covering windows end by 300.
    w.push(None, 10.0, &tuple_at(160), &mut out);
    w.push(None, 20.0, &tuple_at(210), &mut out);
    w.on_watermark(301, &mut out);
    out.clear();
    // Late tuple at 90: within the bound (301 - 300 = 1 <= 90).
    w.push(None, 1.0, &tuple_at(90), &mut out);
    w.on_watermark(310, &mut out);
    assert!(!out.is_empty(), "late tuple within bound must re-fire");
    // Windows covering event-time 90: ends 100 and 150 only.
    for r in &out {
        assert!(
            r.window_end == 100 || r.window_end == 150,
            "window end {} re-fired but does not cover the late tuple",
            r.window_end
        );
    }
}

/// Brute-force reference: enumerate all windows [k*slide, k*slide+len) that
/// contain at least one event and aggregate their contents directly.
fn reference_time_windows(
    events: &[(i64, f64)],
    spec: WindowSpec,
    func: AggFunc,
) -> BTreeMap<i64, (f64, u64)> {
    let len = spec.length as i64;
    let slide = spec.slide as i64;
    let mut out = BTreeMap::new();
    if events.is_empty() {
        return out;
    }
    let min_t = events.iter().map(|&(t, _)| t).min().unwrap();
    let max_t = events.iter().map(|&(t, _)| t).max().unwrap();
    let k_lo = (min_t - len).div_euclid(slide);
    let k_hi = max_t.div_euclid(slide) + 1;
    for k in k_lo..=k_hi {
        let start = k * slide;
        let end = start + len;
        let contents: Vec<f64> = events
            .iter()
            .filter(|&&(t, _)| t >= start && t < end)
            .map(|&(_, v)| v)
            .collect();
        if contents.is_empty() {
            continue;
        }
        let agg = match func {
            AggFunc::Sum => contents.iter().sum(),
            AggFunc::Count => contents.len() as f64,
            AggFunc::Min => contents.iter().copied().fold(f64::INFINITY, f64::min),
            AggFunc::Max => contents.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            AggFunc::Avg | AggFunc::Mean => contents.iter().sum::<f64>() / contents.len() as f64,
        };
        out.insert(end, (agg, contents.len() as u64));
    }
    out
}

/// Two windowers fed the same keyed input fire the same result sequence:
/// keyed state iterates in an order fixed by what was inserted, not by a
/// per-map random seed.
#[test]
fn keyed_time_windows_fire_in_a_reproducible_order() {
    let run = || {
        let mut w = KeyedWindower::new(WindowSpec::sliding_time(300, 100), AggFunc::Sum, true);
        let mut out = Vec::new();
        for i in 0..5_000i64 {
            let key = Value::str(format!("k{}", (i * 7919) % 257));
            let mut t = Tuple::new(vec![key.clone(), Value::Int(i)]);
            t.event_time = i;
            w.push(Some(&key), i as f64, &t, &mut out);
            if i % 50 == 49 {
                w.on_watermark(i, &mut out);
            }
        }
        w.flush(&mut out);
        out
    };
    let first = run();
    assert!(first.len() > 10_000, "many keys fire per watermark");
    assert_eq!(first, run());
}

/// Brute-force reference for count windows: per key (or for the whole
/// stream), the first window fires once `max(length, slide)` tuples have
/// arrived and then every `slide` tuples, aggregating the last `length`
/// tuples from scratch. Returns (key, window_end, value, count, emit_ns).
fn reference_count_windows(
    events: &[(i64, f64)],
    spec: WindowSpec,
    func: AggFunc,
    keyed: bool,
) -> Vec<(Option<i64>, i64, f64, u64, u64)> {
    let (length, slide) = (spec.length as usize, spec.slide as usize);
    let first = length.max(slide);
    let mut history: HashMap<i64, VecDeque<(f64, u64)>> = HashMap::new();
    let mut seen: HashMap<i64, usize> = HashMap::new();
    let mut out = Vec::new();
    for (i, &(k, v)) in events.iter().enumerate() {
        let group = if keyed { k } else { 0 };
        let h = history.entry(group).or_default();
        h.push_back((v, i as u64));
        if h.len() > length {
            h.pop_front();
        }
        let n = seen.entry(group).or_default();
        *n += 1;
        if *n < first || !(*n - first).is_multiple_of(slide) {
            continue;
        }
        let values: Vec<f64> = h.iter().map(|&(v, _)| v).collect();
        let sum = values.iter().fold(0.0, |a, &b| a + b);
        let agg = match func {
            AggFunc::Sum => sum,
            AggFunc::Count => values.len() as f64,
            AggFunc::Min => values.iter().copied().fold(f64::INFINITY, f64::min),
            AggFunc::Max => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            AggFunc::Avg | AggFunc::Mean => sum / values.len() as f64,
        };
        let emit_ns = h.iter().map(|&(_, e)| e).max().unwrap_or(0);
        out.push((
            keyed.then_some(k),
            *n as i64,
            agg,
            values.len() as u64,
            emit_ns,
        ));
    }
    out
}

fn run_windower(
    events: &[(i64, f64)],
    spec: WindowSpec,
    func: AggFunc,
    watermark_every: usize,
) -> BTreeMap<i64, (f64, u64)> {
    let mut w = KeyedWindower::new(spec, func, false);
    let mut results = Vec::new();
    for (i, &(t, v)) in events.iter().enumerate() {
        let mut tuple = Tuple::new(vec![Value::Double(v)]);
        tuple.event_time = t;
        w.push(None, v, &tuple, &mut results);
        // Periodic watermarks at the running max event time (events are fed
        // in sorted order below, so nothing is late).
        if watermark_every > 0 && (i + 1) % watermark_every == 0 {
            w.on_watermark(t, &mut results);
        }
    }
    w.flush(&mut results);
    results
        .into_iter()
        .map(|r| (r.window_end, (r.value.unwrap(), r.count)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pane-based tumbling/sliding time windows match the brute-force
    /// reference for every aggregate function, any length/slide combination
    /// (including non-divisible ratios), and any watermark cadence.
    #[test]
    fn time_windows_match_reference(
        mut times in prop::collection::vec(0i64..5_000, 1..120),
        length in 1u64..400,
        slide_pct in 10u64..=100,
        func_idx in 0usize..6,
        wm_every in 0usize..10,
    ) {
        times.sort_unstable();
        let slide = ((length * slide_pct) / 100).max(1);
        let spec = WindowSpec::sliding_time(length, slide);
        let func = AggFunc::ALL[func_idx];
        // Values derived from times, deterministic.
        let events: Vec<(i64, f64)> = times
            .iter()
            .map(|&t| (t, ((t * 7919) % 997) as f64 / 10.0))
            .collect();

        let got = run_windower(&events, spec, func, wm_every);
        let want = reference_time_windows(&events, spec, func);

        prop_assert_eq!(got.len(), want.len(), "window count");
        for (end, (w_val, w_count)) in &want {
            let (g_val, g_count) = got
                .get(end)
                .unwrap_or_else(|| panic!("missing window ending at {end}"));
            prop_assert_eq!(g_count, w_count, "count of window {}", end);
            prop_assert!(
                (g_val - w_val).abs() <= 1e-9 * (1.0 + w_val.abs()),
                "window {}: got {}, want {}", end, g_val, w_val
            );
        }
    }

    /// Pane-based count windows match the brute-force reference for
    /// tumbling and sliding specs, keyed and global, every aggregate
    /// function: bit-exact for tumbling windows and for Count/Min/Max,
    /// within 1e-9 relative for sliding Sum/Avg (panes are summed first,
    /// then merged, which may round the last ulp differently).
    #[test]
    fn count_windows_match_reference(
        values in prop::collection::vec(-1_000.0f64..1_000.0, 1..400),
        keys in prop::collection::vec(0i64..4, 400),
        length in 1u64..60,
        slide_pct in 1u64..=100,
        func_idx in 0usize..6,
        keyed_flag in 0u8..2,
    ) {
        let slide = ((length * slide_pct) / 100).max(1);
        let spec = WindowSpec::sliding_count(length, slide);
        let func = AggFunc::ALL[func_idx];
        let keyed = keyed_flag == 1;
        let events: Vec<(i64, f64)> = keys.iter().copied().zip(values.iter().copied()).collect();

        let mut w = KeyedWindower::new(spec, func, keyed);
        let mut got: Vec<WindowResult> = Vec::new();
        for (i, &(k, v)) in events.iter().enumerate() {
            let key = Value::Int(k);
            let mut tuple = Tuple::new(vec![key.clone(), Value::Double(v)]);
            tuple.event_time = i as i64;
            tuple.emit_ns = i as u64;
            w.push(Some(&key), v, &tuple, &mut got);
        }
        let want = reference_count_windows(&events, spec, func, keyed);

        prop_assert_eq!(got.len(), want.len(), "fire count");
        let exact = slide == length
            || matches!(func, AggFunc::Count | AggFunc::Min | AggFunc::Max);
        for (g, (key, end, value, count, emit_ns)) in got.iter().zip(&want) {
            prop_assert_eq!(&g.key, &key.map(Value::Int), "key");
            prop_assert_eq!(g.window_end, *end, "window end");
            prop_assert_eq!(g.count, *count, "count of window {}", end);
            prop_assert_eq!(g.emit_ns, *emit_ns, "emit_ns of window {}", end);
            prop_assert_eq!(g.event_time, *emit_ns as i64, "event time of window {}", end);
            let g_val = g.value.unwrap();
            if exact {
                prop_assert_eq!(g_val.to_bits(), value.to_bits(),
                    "window {}: got {}, want {}", end, g_val, value);
            } else {
                prop_assert!(
                    (g_val - value).abs() <= 1e-9 * (1.0 + value.abs()),
                    "window {}: got {}, want {}", end, g_val, value
                );
            }
        }
    }

    /// Late-tuple accounting: the windower's `late_events` counter must
    /// equal an independently tracked count of tuples behind the
    /// allowed-lateness bound at push time — every dropped-late tuple is
    /// counted, and accepted-late tuples (within the bound) never are.
    /// With strict semantics (lateness 0) the books must balance exactly:
    /// each fed tuple either lands in a fired tumbling window or in the
    /// late counter, never both, never neither.
    #[test]
    fn late_drops_are_exactly_counted(
        times in prop::collection::vec(0i64..3_000, 1..150),
        wm_every in 1usize..8,
        lateness_idx in 0usize..3,
    ) {
        let lateness = [0i64, 50, 400][lateness_idx];
        let spec = WindowSpec::tumbling_time(100);
        let mut w = KeyedWindower::new(spec, AggFunc::Count, false);
        w.set_allowed_lateness(lateness);
        let mut results = Vec::new();
        // Mirror of the windower's drop rule, tracked independently.
        let mut wm = i64::MIN;
        let mut expected_dropped = 0u64;
        for (i, &t) in times.iter().enumerate() {
            if t < wm.saturating_sub(lateness) {
                expected_dropped += 1;
            }
            let mut tuple = Tuple::new(vec![Value::Double(1.0)]);
            tuple.event_time = t;
            w.push(None, 1.0, &tuple, &mut results);
            if (i + 1) % wm_every == 0 {
                wm = wm.max(t);
                w.on_watermark(wm, &mut results);
            }
        }
        prop_assert_eq!(
            w.late_events(), expected_dropped,
            "late counter disagrees with independently tracked drops"
        );
        if lateness == 0 {
            // No re-fires under strict semantics, so summing emitted
            // counts is exact: fed == emitted + dropped.
            w.flush(&mut results);
            let emitted: u64 = results.iter().map(|r| r.count).sum();
            prop_assert_eq!(
                emitted + w.late_events(), times.len() as u64,
                "every tuple must be windowed or counted late (emitted {}, late {})",
                emitted, w.late_events()
            );
        }
    }

    /// Keyed windows are exactly the union of per-key global windows.
    #[test]
    fn keyed_windows_decompose_by_key(
        mut times in prop::collection::vec(0i64..2_000, 1..80),
        keys in prop::collection::vec(0i64..4, 80),
        length in 10u64..200,
    ) {
        times.sort_unstable();
        let spec = WindowSpec::tumbling_time(length);
        let events: Vec<(i64, i64)> = times
            .iter()
            .zip(&keys)
            .map(|(&t, &k)| (t, k))
            .collect();

        // Keyed run.
        let mut keyed = KeyedWindower::new(spec, AggFunc::Count, true);
        let mut keyed_results = Vec::new();
        for &(t, k) in &events {
            let mut tuple = Tuple::new(vec![Value::Int(k)]);
            tuple.event_time = t;
            keyed.push(Some(&Value::Int(k)), 1.0, &tuple, &mut keyed_results);
        }
        keyed.flush(&mut keyed_results);

        // Per-key reference.
        for key in 0..4i64 {
            let per_key: Vec<(i64, f64)> = events
                .iter()
                .filter(|&&(_, k)| k == key)
                .map(|&(t, _)| (t, 1.0))
                .collect();
            let want = reference_time_windows(&per_key, spec, AggFunc::Count);
            let got: BTreeMap<i64, u64> = keyed_results
                .iter()
                .filter(|r| r.key == Some(Value::Int(key)))
                .map(|r| (r.window_end, r.count))
                .collect();
            prop_assert_eq!(got.len(), want.len(), "key {}", key);
            for (end, (_, count)) in &want {
                prop_assert_eq!(got.get(end), Some(count), "key {} window {}", key, end);
            }
        }
    }
}
