//! Overload detection and the escalation ladder.
//!
//! Every operator worker owns a [`PressureGauge`] derived from the
//! occupancy of its bounded input channel — the same queue the telemetry
//! layer samples as `queue_depth`. The gauge maps occupancy onto an
//! escalation ladder:
//!
//! 1. **Normal** — bounded channels provide natural backpressure; nothing
//!    else happens.
//! 2. **Batch** — adaptive batching: the worker grows its outgoing batch
//!    size, trading per-tuple latency for amortized framing cost so the
//!    operator can drain faster. Its inbox is not empty, so the idle rule
//!    (`crate::batch`) does not cut the larger frames short.
//! 3. **Shed** — policy-driven load shedding: a configured fraction of
//!    incoming tuples is dropped *with full accounting* (the `shed`
//!    counter), preserving the invariant
//!    `tuples_in == tuples_fed + shed` at every operator. Nothing is ever
//!    dropped silently.
//!
//! The ladder is off by default ([`OverloadConfig::default`] disables it),
//! so an unconfigured run is bit-for-bit the pre-overload engine.

use crate::error::{EngineError, Result};
use crate::value::Tuple;
use serde::{Deserialize, Serialize};

/// Which tuples to drop when the ladder reaches the shedding rung.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShedPolicy {
    /// Drop each tuple independently with the current shed probability
    /// (seeded, deterministic per instance).
    Random,
    /// Drop all tuples of a pseudo-randomly selected key subset: the hash
    /// of the given fields decides, so a key is either fully kept or fully
    /// shed while pressure persists. Degrades some keys completely instead
    /// of all keys partially — the right trade for per-key aggregates.
    PerKey(Vec<usize>),
    /// Drop the oldest tuples of each arriving frame (head-of-frame drop):
    /// under sustained overload the head of the queue is the stalest data.
    DropOldest,
}

/// Escalation rung derived from input-queue occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PressureLevel {
    /// Below every threshold: natural backpressure only.
    Normal = 0,
    /// Above the batching threshold: adaptive batching engaged.
    Batch = 1,
    /// Above the shedding threshold: load shedding engaged.
    Shed = 2,
}

/// Configuration of the overload-resilience ladder.
///
/// The default is fully disabled; every run without explicit overload
/// configuration behaves exactly like the pre-overload engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverloadConfig {
    /// Master switch for the escalation ladder. `false` (default) keeps the
    /// engine's behaviour bit-for-bit identical to a build without the
    /// ladder.
    pub enabled: bool,
    /// Input-queue occupancy (fraction of frame capacity, 0..=1) at which
    /// adaptive batching engages.
    pub batch_threshold: f64,
    /// Occupancy at which load shedding engages. Must be >= the batching
    /// threshold.
    pub shed_threshold: f64,
    /// Shedding policy once the shed rung is reached.
    pub shed_policy: ShedPolicy,
    /// Shed fraction at 100% occupancy; the actual fraction ramps linearly
    /// from 0 at `shed_threshold` to this value at full occupancy.
    pub max_shed_fraction: f64,
    /// Multiplier applied to the configured batch size while at or above
    /// the batching rung.
    pub batch_growth: usize,
    /// Watermark-aware allowed lateness in event-time ms: windowed
    /// operators accept tuples up to this far behind the watermark and
    /// re-fire the affected windows (late updates) instead of dropping.
    /// Tuples later than the bound still count as `late`. Applied even when
    /// `enabled` is false (it is a semantic knob, not a ladder rung);
    /// the default of 0 preserves the historical drop-at-watermark rule.
    pub allowed_lateness_ms: i64,
    /// Seed for the deterministic shedding decisions (mixed with the
    /// instance id so parallel instances shed independently).
    pub seed: u64,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            enabled: false,
            batch_threshold: 0.5,
            shed_threshold: 0.85,
            shed_policy: ShedPolicy::Random,
            max_shed_fraction: 0.8,
            batch_growth: 4,
            allowed_lateness_ms: 0,
            seed: 0x5eed,
        }
    }
}

impl OverloadConfig {
    /// Enabled ladder with default thresholds.
    pub fn enabled() -> Self {
        OverloadConfig {
            enabled: true,
            ..OverloadConfig::default()
        }
    }

    /// Check the configuration for values that would make the ladder
    /// misbehave (called from `RunConfig::validate`).
    pub fn validate(&self) -> Result<()> {
        let frac = |name: &str, v: f64| {
            if !(0.0..=1.0).contains(&v) {
                Err(EngineError::InvalidConfig(format!(
                    "overload.{name} must be in [0, 1], got {v}"
                )))
            } else {
                Ok(())
            }
        };
        frac("batch_threshold", self.batch_threshold)?;
        frac("shed_threshold", self.shed_threshold)?;
        frac("max_shed_fraction", self.max_shed_fraction)?;
        if self.shed_threshold < self.batch_threshold {
            return Err(EngineError::InvalidConfig(
                "overload.shed_threshold must be >= overload.batch_threshold (shedding is a \
                 later rung than batching)"
                    .into(),
            ));
        }
        if self.batch_growth == 0 {
            return Err(EngineError::InvalidConfig(
                "overload.batch_growth must be at least 1".into(),
            ));
        }
        if self.allowed_lateness_ms < 0 {
            return Err(EngineError::InvalidConfig(
                "overload.allowed_lateness_ms must be non-negative".into(),
            ));
        }
        Ok(())
    }
}

/// Maps input-queue occupancy onto the escalation ladder for one worker.
#[derive(Debug, Clone)]
pub struct PressureGauge {
    batch_at: f64,
    shed_at: f64,
    max_shed: f64,
    capacity: f64,
}

impl PressureGauge {
    /// Gauge for a worker whose bounded input channel holds `frame_capacity`
    /// frames.
    pub fn new(config: &OverloadConfig, frame_capacity: usize) -> Self {
        PressureGauge {
            batch_at: config.batch_threshold,
            shed_at: config.shed_threshold,
            max_shed: config.max_shed_fraction,
            capacity: frame_capacity.max(1) as f64,
        }
    }

    /// Occupancy in [0, 1] for a queue length.
    pub fn occupancy(&self, queue_len: usize) -> f64 {
        (queue_len as f64 / self.capacity).min(1.0)
    }

    /// Ladder rung for a queue length.
    pub fn level(&self, queue_len: usize) -> PressureLevel {
        let occ = self.occupancy(queue_len);
        if occ >= self.shed_at {
            PressureLevel::Shed
        } else if occ >= self.batch_at {
            PressureLevel::Batch
        } else {
            PressureLevel::Normal
        }
    }

    /// Fraction of input to shed at a queue length: 0 below the shed rung,
    /// ramping linearly to `max_shed_fraction` at full occupancy.
    pub fn shed_fraction(&self, queue_len: usize) -> f64 {
        let occ = self.occupancy(queue_len);
        if occ < self.shed_at {
            return 0.0;
        }
        let span = (1.0 - self.shed_at).max(f64::EPSILON);
        (self.max_shed * (occ - self.shed_at) / span).min(self.max_shed)
    }
}

/// SplitMix64: tiny, seedable, dependency-free generator for shedding
/// decisions. Statistical quality is ample for drop sampling and the
/// sequence is deterministic per seed, which keeps chaos runs reproducible.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f64 in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-worker shedding decision engine. Deterministic given the seed, so a
/// chaos run with a fixed `--seed` sheds the exact same tuples every time.
#[derive(Debug, Clone)]
pub struct Shedder {
    policy: ShedPolicy,
    rng: SplitMix64,
    key_salt: u64,
}

impl Shedder {
    /// Shedder for one worker; `instance_salt` (e.g. the physical instance
    /// id) decorrelates parallel instances.
    pub fn new(policy: ShedPolicy, seed: u64, instance_salt: u64) -> Self {
        Shedder {
            policy,
            rng: SplitMix64(mix64(seed ^ mix64(instance_salt))),
            key_salt: mix64(seed.wrapping_add(instance_salt)),
        }
    }

    /// Decide whether to shed `tuple` at the given fraction. `index` is the
    /// tuple's position within its arriving frame and `frame_len` the frame
    /// size (used by [`ShedPolicy::DropOldest`]).
    pub fn should_shed(
        &mut self,
        fraction: f64,
        tuple: &Tuple,
        index: usize,
        frame_len: usize,
    ) -> bool {
        if fraction <= 0.0 {
            return false;
        }
        match &self.policy {
            ShedPolicy::Random => self.rng.next_f64() < fraction,
            ShedPolicy::PerKey(fields) => {
                let h = mix64(tuple.key_hash(fields) ^ self.key_salt);
                // Map the key hash to [0, 1): keys below the fraction are
                // shed in full.
                ((h >> 11) as f64 / (1u64 << 53) as f64) < fraction
            }
            ShedPolicy::DropOldest => {
                // The head of the frame is the oldest data in the queue.
                let drop_n = (fraction * frame_len as f64).round() as usize;
                index < drop_n
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn cfg() -> OverloadConfig {
        OverloadConfig::enabled()
    }

    #[test]
    fn default_config_is_disabled_and_valid() {
        let c = OverloadConfig::default();
        assert!(!c.enabled);
        c.validate().unwrap();
    }

    #[test]
    fn validation_rejects_inverted_thresholds() {
        let c = OverloadConfig {
            batch_threshold: 0.9,
            shed_threshold: 0.5,
            ..cfg()
        };
        assert!(c.validate().is_err());
        let c = OverloadConfig {
            max_shed_fraction: 1.5,
            ..cfg()
        };
        assert!(c.validate().is_err());
        let c = OverloadConfig {
            batch_growth: 0,
            ..cfg()
        };
        assert!(c.validate().is_err());
        let c = OverloadConfig {
            allowed_lateness_ms: -1,
            ..cfg()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    fn gauge_maps_occupancy_to_rungs() {
        let g = PressureGauge::new(&cfg(), 100);
        assert_eq!(g.level(0), PressureLevel::Normal);
        assert_eq!(g.level(49), PressureLevel::Normal);
        assert_eq!(g.level(50), PressureLevel::Batch);
        assert_eq!(g.level(84), PressureLevel::Batch);
        assert_eq!(g.level(85), PressureLevel::Shed);
        assert_eq!(g.level(1000), PressureLevel::Shed);
    }

    #[test]
    fn shed_fraction_ramps_from_threshold_to_max() {
        let g = PressureGauge::new(&cfg(), 100);
        assert_eq!(g.shed_fraction(84), 0.0);
        let at_threshold = g.shed_fraction(85);
        let near_full = g.shed_fraction(99);
        let full = g.shed_fraction(100);
        assert!(at_threshold < near_full, "{at_threshold} < {near_full}");
        assert!((full - 0.8).abs() < 1e-9, "caps at max_shed_fraction");
    }

    #[test]
    fn random_shedding_matches_fraction_statistically() {
        let mut s = Shedder::new(ShedPolicy::Random, 7, 0);
        let t = Tuple::new(vec![Value::Int(1)]);
        let n = 20_000;
        let shed = (0..n).filter(|_| s.should_shed(0.3, &t, 0, 1)).count() as f64;
        let rate = shed / n as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed shed rate {rate}");
    }

    #[test]
    fn per_key_shedding_is_all_or_nothing_per_key() {
        let mut s = Shedder::new(ShedPolicy::PerKey(vec![0]), 11, 3);
        let mut kept = 0usize;
        let mut shed = 0usize;
        for key in 0..200i64 {
            let t = Tuple::new(vec![Value::Int(key)]);
            let first = s.should_shed(0.5, &t, 0, 1);
            for _ in 0..5 {
                assert_eq!(
                    s.should_shed(0.5, &t, 0, 1),
                    first,
                    "key {key} must be consistently kept or shed"
                );
            }
            if first {
                shed += 1;
            } else {
                kept += 1;
            }
        }
        assert!(kept > 50 && shed > 50, "kept={kept} shed={shed}");
    }

    #[test]
    fn drop_oldest_sheds_frame_head() {
        let mut s = Shedder::new(ShedPolicy::DropOldest, 1, 0);
        let t = Tuple::new(vec![Value::Int(1)]);
        let decisions: Vec<bool> = (0..10).map(|i| s.should_shed(0.3, &t, i, 10)).collect();
        assert_eq!(
            decisions,
            vec![true, true, true, false, false, false, false, false, false, false]
        );
    }

    #[test]
    fn shedding_is_deterministic_per_seed() {
        let t = Tuple::new(vec![Value::Int(9)]);
        let run = |seed| {
            let mut s = Shedder::new(ShedPolicy::Random, seed, 2);
            (0..64)
                .map(|_| s.should_shed(0.5, &t, 0, 1))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds shed differently");
    }
}
