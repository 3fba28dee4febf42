//! The load generator: a `SourceFactory` that feeds a fixed, pre-generated
//! pool of tuples to the engine, either flat out against backpressure
//! (closed loop, *drain*) or on a schedule fixed before the rep starts
//! (open loop, *paced*).
//!
//! Paced: `per_tick` tuples fall due on each 1 ms tick. The iterator sleeps
//! until the tick is due, never slows down, and when it is late — because
//! the engine pushed back or the thread was descheduled — it releases the
//! overdue ticks flat out. It logs `release − due` for every tick, which is
//! the only way a reader can tell whether the schedule or the engine set
//! the rate of a rep.

use pdsp_engine::runtime::SourceFactory;
use pdsp_engine::Tuple;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A fixed pool of tuples with ascending event times. Streams longer than
/// the pool cycle through it, shifting event time by `span_ms` per cycle so
/// it stays monotone while the harness holds a bounded amount of input.
pub struct Pool {
    /// The tuples, in emission order.
    pub tuples: Vec<Tuple>,
    /// Event-time length of one pass, in ms (greater than the last tuple's
    /// event time).
    pub span_ms: i64,
}

impl Pool {
    /// Wrap generated tuples; the span is one past the last event time.
    pub fn new(tuples: Vec<Tuple>) -> Self {
        let span_ms = tuples.last().map_or(1, |t| t.event_time + 1);
        Pool { tuples, span_ms }
    }

    /// The pool tuple behind the `i`-th tuple of the endless cycled stream,
    /// and the event time it carries there.
    pub fn at(&self, i: u64) -> (&Tuple, i64) {
        let len = self.tuples.len() as u64;
        let t = &self.tuples[(i % len) as usize];
        (t, t.event_time + (i / len) as i64 * self.span_ms)
    }

    /// The `i`-th tuple of the endless cycled stream.
    pub fn get(&self, i: u64) -> Tuple {
        let (t, event_time) = self.at(i);
        Tuple {
            event_time,
            ..t.clone()
        }
    }
}

/// How much one source offers in one rep, and how fast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Feed {
    /// Tuples the source emits before end of stream.
    pub total: u64,
    /// Tuples due per 1 ms tick; 0 drains flat out.
    pub per_tick: u64,
}

impl Feed {
    /// Closed loop: `total` tuples as fast as backpressure allows.
    pub fn drain(total: u64) -> Self {
        Feed { total, per_tick: 0 }
    }

    /// Open loop: `rate_tps / 1000` tuples per tick for `millis` ticks.
    pub fn paced(rate_tps: u64, millis: u64) -> Self {
        let per_tick = (rate_tps / 1000).max(1);
        Feed {
            total: per_tick * millis,
            per_tick,
        }
    }
}

/// Builds (or hands out) the pool of one source.
pub type MakePool = Box<dyn Fn() -> Arc<Pool> + Send + Sync>;

/// The `SourceFactory` adapter. The pool is asked for on first use, so a
/// process that resolves a plan without hosting its source pays nothing.
/// A paced source writes its tick log — `release − due` of every tick, ns,
/// one per line, in tick order — to `tick_log` when its stream ends: a file,
/// because the source may live in a worker process.
pub struct PooledSource {
    pool: OnceLock<Arc<Pool>>,
    make: MakePool,
    feed: Feed,
    tick_log: PathBuf,
}

impl PooledSource {
    /// Source feeding `feed` from the pool `make` returns.
    pub fn new(make: MakePool, feed: Feed, tick_log: PathBuf) -> Arc<Self> {
        Arc::new(PooledSource {
            pool: OnceLock::new(),
            make,
            feed,
            tick_log,
        })
    }

    /// Source over an already generated pool.
    pub fn ready(pool: Arc<Pool>, feed: Feed, tick_log: PathBuf) -> Arc<Self> {
        Self::new(Box::new(move || Arc::clone(&pool)), feed, tick_log)
    }
}

/// Tick log of source `index` of a rep whose logs share `prefix`.
pub fn tick_log_path(prefix: &str, index: usize) -> PathBuf {
    PathBuf::from(format!("{prefix}-{index}.txt"))
}

/// Read a tick log back (tick order) and remove it; empty if the source
/// never wrote one.
pub fn take_tick_log(path: &Path) -> Vec<u64> {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    let _ = std::fs::remove_file(path);
    text.lines().filter_map(|l| l.parse().ok()).collect()
}

impl SourceFactory for PooledSource {
    fn instance_iter(
        &self,
        _instance_index: usize,
        parallelism: usize,
    ) -> Box<dyn Iterator<Item = Tuple> + Send> {
        // One client per source: every workload runs its sources at
        // parallelism 1, so the schedule belongs to exactly one thread.
        assert_eq!(parallelism, 1, "benchmark sources are not partitioned");
        let pool = Arc::clone(self.pool.get_or_init(|| (self.make)()));
        Box::new(PooledIter {
            pool,
            feed: self.feed,
            emitted: 0,
            start: None,
            lags_ns: Vec::new(),
            tick_log: Some(self.tick_log.clone()),
        })
    }
}

struct PooledIter {
    pool: Arc<Pool>,
    feed: Feed,
    emitted: u64,
    /// Set when the first tuple is asked for: tick `k` is due `k` ms later.
    start: Option<Instant>,
    lags_ns: Vec<u64>,
    /// Taken when the log is written, so that it is written once.
    tick_log: Option<PathBuf>,
}

impl Iterator for PooledIter {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.emitted == self.feed.total {
            self.finish();
            return None;
        }
        if self.feed.per_tick > 0 && self.emitted.is_multiple_of(self.feed.per_tick) {
            let tick = self.emitted / self.feed.per_tick;
            let due = *self.start.get_or_insert_with(Instant::now) + Duration::from_millis(tick);
            let wait = due.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            let lag = Instant::now().saturating_duration_since(due);
            self.lags_ns.push(lag.as_nanos() as u64);
        }
        let t = self.pool.get(self.emitted);
        self.emitted += 1;
        Some(t)
    }
}

impl PooledIter {
    fn finish(&mut self) {
        let Some(path) = self.tick_log.take() else {
            return;
        };
        if self.feed.per_tick == 0 {
            return;
        }
        let text: String = self.lags_ns.iter().map(|l| format!("{l}\n")).collect();
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("cannot write tick log {}: {e}", path.display());
        }
    }
}

/// Why the engine, not the schedule, set the rate of a paced rep, if it
/// did: more than a tenth of one source's ticks (`lags_ns`, tick order)
/// were released over 1 ms late, or its last tick over 50 ms late.
pub fn unsustained(lags_ns: &[u64]) -> Option<String> {
    let mut sorted = lags_ns.to_vec();
    sorted.sort_unstable();
    let p90 = crate::stats::percentile(&sorted, 90.0);
    let last = lags_ns.last().copied().unwrap_or(0);
    if p90 > 1_000_000 {
        Some(format!("generator lag p90 {:.2} ms", p90 as f64 / 1e6))
    } else if last > 50_000_000 {
        Some(format!("final generator lag {:.1} ms", last as f64 / 1e6))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsp_engine::Value;

    fn pool(n: i64) -> Arc<Pool> {
        Arc::new(Pool::new(
            (0..n)
                .map(|i| Tuple::at(vec![Value::Int(i)], i * 3))
                .collect(),
        ))
    }

    /// A tick log of this test's own (tests run on parallel threads).
    fn log(test: &str) -> PathBuf {
        std::fs::create_dir_all("out").unwrap();
        tick_log_path(&format!("out/test-{test}"), 0)
    }

    #[test]
    fn paced_source_releases_exactly_rate_per_tick() {
        let path = log("rate");
        let feed = Feed::paced(25_000, 40);
        assert_eq!((feed.per_tick, feed.total), (25, 1000));
        let src = PooledSource::ready(pool(64), feed, path.clone());
        let t0 = Instant::now();
        let mut released_at = Vec::new();
        for _ in src.instance_iter(0, 1) {
            released_at.push(t0.elapsed());
        }
        assert_eq!(released_at.len(), 1000);
        // One lag entry per tick, and tuple k*25 is never released before
        // tick k is due (k ms after the first, minus the loop's own start).
        assert_eq!(take_tick_log(&path).len(), 40);
        assert!(!path.exists(), "the log is taken, not copied");
        for k in 1..40u64 {
            let first_of_tick = released_at[(k * 25) as usize];
            assert!(
                first_of_tick + Duration::from_micros(500) >= Duration::from_millis(k),
                "tick {k} released early at {first_of_tick:?}"
            );
        }
        assert!(t0.elapsed() >= Duration::from_millis(39));
    }

    #[test]
    fn event_times_stay_monotone_across_pool_cycles() {
        let path = log("monotone");
        let src = PooledSource::ready(pool(10), Feed::drain(35), path.clone());
        let times: Vec<i64> = src.instance_iter(0, 1).map(|t| t.event_time).collect();
        assert_eq!(times.len(), 35);
        assert!(times.windows(2).all(|w| w[0] < w[1]), "{times:?}");
        // Pool span is 28 ms (last event time 27, plus one).
        assert_eq!(times[10], 28);
        assert_eq!(times[34], 3 * 28 + 4 * 3);
        assert!(!path.exists(), "a drain rep has no ticks to log");
    }

    /// Feed 1 000 tuples/s for `millis` ms to a consumer that stays away
    /// for 200 ms before asking for tuple number `hold_at`; the tick log.
    fn held(test: &str, millis: u64, hold_at: usize) -> Vec<u64> {
        let path = log(test);
        let src = PooledSource::ready(pool(16), Feed::paced(1_000, millis), path.clone());
        for (i, _) in src.instance_iter(0, 1).enumerate() {
            if i + 2 == hold_at {
                std::thread::sleep(Duration::from_millis(200));
            }
        }
        take_tick_log(&path)
    }

    #[test]
    fn a_200_ms_hold_shows_in_the_lag_log_and_marks_the_rep_unsustained() {
        // The engine pushing back looks, to the adapter, like a consumer
        // that does not come back for the next tuple. Early in a 1 s
        // schedule the hold makes a fifth of the ticks late ...
        let lags = held("hold-early", 1_000, 10);
        assert_eq!(lags.len(), 1_000);
        let max = *lags.iter().max().unwrap();
        assert!(max >= 190_000_000, "hold missing from the log: {max} ns");
        let why = unsustained(&lags).expect("a fifth of the ticks were late");
        assert!(why.contains("p90"), "{why}");
        // ... and before its last tick it leaves that tick 200 ms late.
        let lags = held("hold-late", 300, 300);
        assert!(*lags.last().unwrap() >= 190_000_000, "{:?}", lags.last());
        assert!(unsustained(&lags).is_some());
    }

    #[test]
    fn a_schedule_with_under_a_tenth_of_its_ticks_late_is_sustained() {
        let mut lags = vec![20_000; 4_000];
        assert_eq!(unsustained(&lags), None);
        lags[100..450].fill(5_000_000);
        assert_eq!(unsustained(&lags), None);
        lags[100..550].fill(5_000_000);
        let why = unsustained(&lags).expect("over a tenth of the ticks were late");
        assert!(why.contains("p90"), "{why}");
        // A last tick over 50 ms late means a backlog was left at the end.
        let mut lags = vec![20_000; 4_000];
        lags[3_999] = 60_000_000;
        let why = unsustained(&lags).expect("the last tick was 60 ms late");
        assert!(why.contains("final"), "{why}");
    }

    #[test]
    fn lazy_pool_is_built_once_and_the_log_has_one_line_per_tick() {
        let path = log("lazy");
        let built = Arc::new(std::sync::Mutex::new(0));
        let counter = Arc::clone(&built);
        let src = PooledSource::new(
            Box::new(move || {
                *counter.lock().unwrap() += 1;
                Arc::new(Pool::new(vec![Tuple::at(vec![Value::Int(1)], 0)]))
            }),
            Feed::paced(2_000, 5),
            path.clone(),
        );
        assert_eq!(*built.lock().unwrap(), 0, "resolving costs nothing");
        assert_eq!(src.instance_iter(0, 1).count(), 10);
        assert_eq!(src.instance_iter(0, 1).count(), 10);
        assert_eq!(*built.lock().unwrap(), 1);
        assert_eq!(take_tick_log(&path).len(), 5);
    }
}
