//! The correctness reference: what every operator must have counted and
//! what the sink must have received, computed from the generated inputs
//! alone — no engine code runs here.
//!
//! * Word count: a word seen `c` times fires its tumbling count(100) window
//!   `⌊c/100⌋` times, with window ends 100, 200, … and value 100.
//! * Ad analytics: the engine's time join is an interval join — a paid
//!   impression and a click of the same ad join when their event times are
//!   less than 1 s apart — so the join cardinality of an ad is the number
//!   of such pairs, and its CTR operator reports once per 16 joined tuples.

use crate::pacing::Pool;
use crate::workloads::Job;
use pdsp_engine::runtime::RunResult;
use pdsp_engine::{Tuple, Value};
use std::collections::BTreeMap;

/// Window length of both word-count plans.
const WC_WINDOW: u64 = 100;
/// `paid-impressions` keeps impressions costing more than this.
const AD_MIN_COST: f64 = 0.05;
/// Join window of the ad plan, ms.
const AD_JOIN_MS: i64 = 1_000;
/// The CTR operator reports every this many joined tuples per ad.
const AD_EMIT_EVERY: u64 = 16;

/// Expected outcome of one rep.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Expected {
    /// `(tuples_in, tuples_out)` per operator name of the authored plan.
    pub operators: BTreeMap<String, (u64, u64)>,
    /// Results per key (word, or ad id) at the sink.
    pub results: BTreeMap<String, u64>,
}

impl Expected {
    /// Total tuples the sink must receive.
    pub fn tuples_out(&self) -> u64 {
        self.results.values().sum()
    }

    fn op(&mut self, name: &str, tuples_in: u64, tuples_out: u64) {
        self.operators
            .insert(name.to_string(), (tuples_in, tuples_out));
    }
}

/// Occurrences of every whitespace-separated word of field 0 in the first
/// `n` tuples of the cycled pool: whole passes are counted once and scaled.
fn word_counts(pool: &Pool, n: u64) -> BTreeMap<&str, u64> {
    let len = pool.tuples.len() as u64;
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    let passes = [
        (&pool.tuples[..], n / len),
        (&pool.tuples[..(n % len) as usize], 1),
    ];
    for (tuples, times) in passes {
        if times == 0 {
            continue;
        }
        for t in tuples {
            for w in t.values[0].as_str().unwrap_or_default().split_whitespace() {
                *counts.entry(w).or_default() += times;
            }
        }
    }
    counts
}

/// Pairs `(a, b)` with `|a − b| < within`, both slices ascending.
fn pairs_within(a: &[i64], b: &[i64], within: i64) -> u64 {
    let (mut lo, mut hi, mut pairs) = (0, 0, 0u64);
    for &t in a {
        while lo < b.len() && b[lo] <= t - within {
            lo += 1;
        }
        while hi < b.len() && b[hi] < t + within {
            hi += 1;
        }
        pairs += (hi - lo) as u64;
    }
    pairs
}

/// The reference for `n` tuples per source fed from `pools`.
pub fn expected(job: Job, pools: &[std::sync::Arc<Pool>], n: u64) -> Expected {
    let mut e = Expected::default();
    match job {
        Job::WordCountApp | Job::KeyedWordCount => {
            let counts = word_counts(&pools[0], n);
            let words: u64 = counts.values().sum();
            for (w, c) in counts {
                if c >= WC_WINDOW {
                    e.results.insert(w.to_string(), c / WC_WINDOW);
                }
            }
            let results = e.tuples_out();
            if job == Job::WordCountApp {
                e.op("sentences", n, n);
                e.op("split", n, words);
            } else {
                e.op("words", n, n);
            }
            e.op("count", words, results);
            e.op("sink", results, 0);
        }
        Job::AdAnalyticsApp => {
            let mut imps: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
            let mut clicks: BTreeMap<i64, Vec<i64>> = BTreeMap::new();
            let mut paid = 0u64;
            for i in 0..n {
                let (imp, at) = pools[0].at(i);
                if imp.values[2].as_f64().is_some_and(|c| c > AD_MIN_COST) {
                    paid += 1;
                    let ad = imp.values[0].as_i64().expect("ad id");
                    imps.entry(ad).or_default().push(at);
                }
                let (click, at) = pools[1].at(i);
                let ad = click.values[0].as_i64().expect("ad id");
                clicks.entry(ad).or_default().push(at);
            }
            let mut joined = 0u64;
            for (ad, times) in &imps {
                let pairs = clicks
                    .get(ad)
                    .map_or(0, |c| pairs_within(times, c, AD_JOIN_MS));
                joined += pairs;
                if pairs >= AD_EMIT_EVERY {
                    e.results.insert(ad.to_string(), pairs / AD_EMIT_EVERY);
                }
            }
            let reports = e.tuples_out();
            e.op("impressions", n, n);
            e.op("clicks", n, n);
            e.op("paid-impressions", n, paid);
            e.op("imp-click-join", paid + n, joined);
            e.op("ctr", joined, reports);
            e.op("sink", reports, 0);
        }
    }
    e
}

/// Check a rep's counters — sink total, and in/out of every operator —
/// against the reference, and that nothing was shed or dropped late.
pub fn check_counts(expected: &Expected, result: &RunResult) -> Result<(), String> {
    if result.tuples_out != expected.tuples_out() {
        return Err(format!(
            "sink received {} tuples, reference says {}",
            result.tuples_out,
            expected.tuples_out()
        ));
    }
    if result.total_shed() + result.total_late() > 0 {
        return Err(format!(
            "{} tuples shed, {} dropped late",
            result.total_shed(),
            result.total_late()
        ));
    }
    for s in &result.operator_stats {
        let want = expected.operators.get(&s.name);
        if want != Some(&(s.tuples_in, s.tuples_out)) {
            return Err(format!(
                "operator '{}' counted in/out {}/{}, reference says {want:?}",
                s.name, s.tuples_in, s.tuples_out
            ));
        }
    }
    Ok(())
}

/// Check the sink tuples the warm-up rep captured. When the capture is
/// complete the number of results per key must equal the reference; a
/// capture cut short at the limit must stay within it. Word count results
/// are checked exactly (window ends 100, 200, … and value 100); of an ad
/// report only the range of the rate, which depends on how the two sources
/// interleave.
pub fn check_captured(job: Job, expected: &Expected, sink: &[Tuple]) -> Result<(), String> {
    let mut seen: BTreeMap<String, Vec<&Tuple>> = BTreeMap::new();
    for t in sink {
        let key = match t.values.first() {
            Some(Value::Str(s)) => s.to_string(),
            Some(Value::Int(i)) => i.to_string(),
            other => return Err(format!("result with key {other:?}")),
        };
        seen.entry(key).or_default().push(t);
    }
    let complete = sink.len() as u64 == expected.tuples_out();
    for (key, tuples) in &seen {
        let (got, want) = (
            tuples.len() as u64,
            expected.results.get(key).copied().unwrap_or(0),
        );
        if got > want || (complete && got != want) {
            return Err(format!(
                "key '{key}' has {got} results, reference says {want}"
            ));
        }
    }
    if complete && seen.len() != expected.results.len() {
        return Err(format!(
            "{} keys captured, reference says {}",
            seen.len(),
            expected.results.len()
        ));
    }
    for (key, tuples) in seen {
        match job {
            Job::WordCountApp | Job::KeyedWordCount => {
                let mut ends: Vec<i64> = Vec::with_capacity(tuples.len());
                for t in &tuples {
                    match t.values.as_slice() {
                        [_, Value::Timestamp(end), Value::Double(v)] if *v == WC_WINDOW as f64 => {
                            ends.push(*end)
                        }
                        other => return Err(format!("malformed count result {other:?}")),
                    }
                }
                ends.sort_unstable();
                let want = (1..=tuples.len() as i64).map(|k| k * WC_WINDOW as i64);
                if !ends.iter().copied().eq(want) {
                    return Err(format!("window ends of '{key}' are not 100, 200, …"));
                }
            }
            Job::AdAnalyticsApp => {
                for t in &tuples {
                    match t.values.as_slice() {
                        [_, Value::Double(ctr)] if (0.0..=1.0).contains(ctr) => {}
                        other => return Err(format!("malformed CTR report {other:?}")),
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn pairs_within_counts_strictly_inside_the_interval() {
        // |a - b| < 10: (0,5) (0,9) (20,11)... brute force agrees.
        let a = [0i64, 20, 21, 40];
        let b = [5i64, 9, 10, 11, 30, 31, 50];
        let brute = a
            .iter()
            .flat_map(|x| b.iter().map(move |y| (x - y).abs()))
            .filter(|d| *d < 10)
            .count() as u64;
        assert_eq!(pairs_within(&a, &b, 10), brute);
        assert_eq!(pairs_within(&[0], &[10], 10), 0, "exactly the window apart");
        assert_eq!(pairs_within(&[], &b, 10), 0);
    }

    #[test]
    fn word_counts_scale_whole_passes_and_add_the_prefix() {
        let pool = Pool::new(vec![
            Tuple::at(vec![Value::str("a b")], 0),
            Tuple::at(vec![Value::str("a c")], 1),
            Tuple::at(vec![Value::str("c c")], 2),
        ]);
        // 7 tuples = two passes + the first tuple.
        let counts = word_counts(&pool, 7);
        assert_eq!(counts["a"], 2 * 2 + 1);
        assert_eq!(counts["b"], 2 + 1);
        assert_eq!(counts["c"], 2 * 3);
    }

    #[test]
    fn word_count_reference_matches_a_hand_count() {
        let sentence = (0..100).map(|_| "x").collect::<Vec<_>>().join(" ");
        let pool = Arc::new(Pool::new(vec![
            Tuple::at(vec![Value::str(&sentence)], 0),
            Tuple::at(vec![Value::str("y")], 1),
        ]));
        let e = expected(Job::WordCountApp, &[pool], 5); // x*300, y*2
        assert_eq!(e.results.get("x"), Some(&3));
        assert_eq!(e.results.get("y"), None);
        assert_eq!(e.operators["split"], (5, 302));
        assert_eq!(e.operators["count"], (302, 3));
        assert_eq!(e.operators["sink"], (3, 0));

        let result = |end: i64| {
            Tuple::at(
                vec![Value::str("x"), Value::Timestamp(end), Value::Double(100.0)],
                0,
            )
        };
        let good = [result(200), result(100), result(300)];
        assert_eq!(check_captured(Job::WordCountApp, &e, &good), Ok(()));
        let dup = [result(200), result(100), result(200)];
        assert!(check_captured(Job::WordCountApp, &e, &dup).is_err());
        // A capture cut short at the limit is a prefix, per key, of the whole.
        assert_eq!(check_captured(Job::WordCountApp, &e, &good[..2]), Ok(()));
        assert!(check_captured(Job::WordCountApp, &e, &[result(300), result(100)]).is_err());
        let four = [result(100), result(200), result(300), result(400)];
        assert!(check_captured(Job::WordCountApp, &e, &four).is_err());
    }

    #[test]
    fn ad_reference_counts_interval_pairs_of_paid_impressions() {
        let imp = |ad: i64, cost: f64, t: i64| {
            Tuple::at(vec![Value::Int(ad), Value::Int(0), Value::Double(cost)], t)
        };
        let click =
            |ad: i64, t: i64| Tuple::at(vec![Value::Int(ad), Value::Int(1), Value::Int(0)], t);
        // Ad 1: 4 paid impressions x 4 clicks, all within 1 s = 16 pairs.
        // Ad 2: impression too cheap. Ad 3: click 1 s away.
        let imps = Pool::new(vec![
            imp(1, 1.0, 0),
            imp(1, 1.0, 1),
            imp(1, 1.0, 2),
            imp(1, 1.0, 3),
            imp(2, 0.01, 4),
            imp(3, 1.0, 5),
        ]);
        let clicks = Pool::new(vec![
            click(1, 0),
            click(1, 10),
            click(1, 20),
            click(1, 30),
            click(2, 40),
            click(3, 1_005),
        ]);
        let e = expected(Job::AdAnalyticsApp, &[Arc::new(imps), Arc::new(clicks)], 6);
        assert_eq!(e.operators["paid-impressions"], (6, 5));
        assert_eq!(e.operators["imp-click-join"], (11, 16));
        assert_eq!(e.operators["ctr"], (16, 1));
        assert_eq!(e.results.get("1"), Some(&1));
        assert_eq!(e.results.len(), 1);
    }
}
