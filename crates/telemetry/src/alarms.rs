//! Threshold alarms over instance snapshots.
//!
//! An [`AlarmMonitor`] is fed successive snapshot vectors (from the sampler
//! or at run end) and tracks which overload conditions are currently
//! *firing*: sustained pressure escalation, shed fraction above threshold,
//! or late fraction above threshold. Alarms resolve themselves when the
//! condition clears — for rate-style conditions (shed/late fraction) the
//! monitor differences consecutive evaluations so a burst early in a run
//! does not pin the alarm for its whole tail.
//!
//! The chaos bench uses the monitor as a pass/fail gate: a scenario that
//! *ends* with firing alarms never recovered from its hazard.

use crate::snapshot::InstanceSnapshot;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What condition an alarm watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AlarmKind {
    /// The instance sits at the shedding rung of the escalation ladder.
    Pressure,
    /// Shed fraction of input since the previous evaluation exceeds the
    /// configured threshold.
    ShedFraction,
    /// Late fraction of input since the previous evaluation exceeds the
    /// configured threshold.
    LateFraction,
    /// A distributed worker has been silent for more than the configured
    /// number of heartbeat intervals (its lease is about to expire or has
    /// expired). For this kind, `operator` is `"worker"` and `instance` is
    /// the worker id.
    HeartbeatGap,
}

impl AlarmKind {
    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            AlarmKind::Pressure => "pressure",
            AlarmKind::ShedFraction => "shed_fraction",
            AlarmKind::LateFraction => "late_fraction",
            AlarmKind::HeartbeatGap => "heartbeat_gap",
        }
    }
}

/// Thresholds for raising alarms.
///
/// Defaults are deliberately tolerant: transient rung-1 batching is the
/// ladder working as designed and never alarms; only the shedding rung and
/// double-digit shed/late fractions do.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlarmConfig {
    /// Raise [`AlarmKind::Pressure`] when an instance's pressure gauge is at
    /// or above this rung (2 = shedding).
    pub pressure_level: u64,
    /// Raise [`AlarmKind::ShedFraction`] when shed / input over the last
    /// interval exceeds this fraction.
    pub shed_fraction: f64,
    /// Raise [`AlarmKind::LateFraction`] when late / input over the last
    /// interval exceeds this fraction.
    pub late_fraction: f64,
    /// Raise [`AlarmKind::HeartbeatGap`] when a worker has missed this many
    /// consecutive heartbeat intervals.
    pub heartbeat_gap_intervals: u64,
}

impl Default for AlarmConfig {
    fn default() -> Self {
        AlarmConfig {
            pressure_level: 2,
            shed_fraction: 0.10,
            late_fraction: 0.25,
            heartbeat_gap_intervals: 3,
        }
    }
}

/// One currently-firing alarm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Alarm {
    /// Watched condition.
    pub kind: AlarmKind,
    /// Logical operator name.
    pub operator: String,
    /// Parallel instance index.
    pub instance: usize,
    /// Observed value that crossed the threshold (rung for pressure,
    /// fraction for the rate alarms).
    pub value: f64,
    /// Configured threshold it crossed.
    pub threshold: f64,
}

#[derive(Debug, Clone, Copy, Default)]
struct Baseline {
    tuples_in: u64,
    shed: u64,
    late: u64,
}

/// Stateful alarm evaluator (see module docs).
#[derive(Debug, Default)]
pub struct AlarmMonitor {
    config: AlarmConfig,
    baselines: HashMap<(String, usize), Baseline>,
    heartbeats: HashMap<usize, u64>,
    firing: Vec<Alarm>,
}

impl AlarmMonitor {
    /// Create a monitor with the given thresholds.
    pub fn new(config: AlarmConfig) -> Self {
        AlarmMonitor {
            config,
            baselines: HashMap::new(),
            heartbeats: HashMap::new(),
            firing: Vec::new(),
        }
    }

    /// Thresholds in effect.
    pub fn config(&self) -> &AlarmConfig {
        &self.config
    }

    /// Evaluate one snapshot vector; returns the alarms firing *now*.
    ///
    /// Rate alarms compare against the counters seen at the previous
    /// evaluation, so calling this once per sampling interval yields
    /// per-interval fractions. The first evaluation of an instance uses a
    /// zero baseline (whole-run fractions).
    pub fn evaluate(&mut self, snapshots: &[InstanceSnapshot]) -> &[Alarm] {
        let mut firing = Vec::new();
        for s in snapshots {
            let key = (s.operator.clone(), s.instance);
            let base = self.baselines.get(&key).copied().unwrap_or_default();
            let d_in = s.tuples_in.saturating_sub(base.tuples_in);
            let d_shed = s.shed_tuples.saturating_sub(base.shed);
            let d_late = s.late_tuples.saturating_sub(base.late);
            if s.pressure >= self.config.pressure_level {
                firing.push(Alarm {
                    kind: AlarmKind::Pressure,
                    operator: s.operator.clone(),
                    instance: s.instance,
                    value: s.pressure as f64,
                    threshold: self.config.pressure_level as f64,
                });
            }
            if d_in > 0 {
                let shed_frac = d_shed as f64 / d_in as f64;
                if shed_frac > self.config.shed_fraction {
                    firing.push(Alarm {
                        kind: AlarmKind::ShedFraction,
                        operator: s.operator.clone(),
                        instance: s.instance,
                        value: shed_frac,
                        threshold: self.config.shed_fraction,
                    });
                }
                let late_frac = d_late as f64 / d_in as f64;
                if late_frac > self.config.late_fraction {
                    firing.push(Alarm {
                        kind: AlarmKind::LateFraction,
                        operator: s.operator.clone(),
                        instance: s.instance,
                        value: late_frac,
                        threshold: self.config.late_fraction,
                    });
                }
            }
            self.baselines.insert(
                key,
                Baseline {
                    tuples_in: s.tuples_in,
                    shed: s.shed_tuples,
                    late: s.late_tuples,
                },
            );
        }
        // Heartbeat alarms are evaluated on their own cadence
        // ([`AlarmMonitor::evaluate_heartbeats`]); carry them over.
        firing.extend(
            self.firing
                .iter()
                .filter(|a| a.kind == AlarmKind::HeartbeatGap)
                .cloned(),
        );
        self.firing = firing;
        &self.firing
    }

    /// Record that `worker` heartbeated during heartbeat interval
    /// `interval` (intervals count up from run start; the coordinator
    /// derives them as `elapsed / heartbeat_period`).
    pub fn note_heartbeat(&mut self, worker: usize, interval: u64) {
        let e = self.heartbeats.entry(worker).or_insert(interval);
        *e = (*e).max(interval);
    }

    /// Forget `worker` (it finished cleanly or was already declared dead),
    /// resolving any heartbeat-gap alarm it raised.
    pub fn clear_heartbeat(&mut self, worker: usize) {
        self.heartbeats.remove(&worker);
        self.firing
            .retain(|a| !(a.kind == AlarmKind::HeartbeatGap && a.instance == worker));
    }

    /// Re-evaluate heartbeat gaps as of heartbeat interval
    /// `current_interval`: any noted worker silent for at least
    /// `heartbeat_gap_intervals` intervals raises [`AlarmKind::HeartbeatGap`]
    /// (with `operator == "worker"` and the worker id as `instance`).
    /// Returns all alarms firing now, heartbeat and snapshot alike.
    pub fn evaluate_heartbeats(&mut self, current_interval: u64) -> &[Alarm] {
        self.firing.retain(|a| a.kind != AlarmKind::HeartbeatGap);
        let mut workers: Vec<(usize, u64)> =
            self.heartbeats.iter().map(|(&w, &at)| (w, at)).collect();
        workers.sort_unstable_by_key(|&(w, _)| w);
        for (worker, last) in workers {
            let gap = current_interval.saturating_sub(last);
            if gap >= self.config.heartbeat_gap_intervals {
                self.firing.push(Alarm {
                    kind: AlarmKind::HeartbeatGap,
                    operator: "worker".into(),
                    instance: worker,
                    value: gap as f64,
                    threshold: self.config.heartbeat_gap_intervals as f64,
                });
            }
        }
        &self.firing
    }

    /// Alarms firing as of the last [`AlarmMonitor::evaluate`] call.
    pub fn firing(&self) -> &[Alarm] {
        &self.firing
    }

    /// `true` when no alarm fired at the last evaluation.
    pub fn all_clear(&self) -> bool {
        self.firing.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(
        operator: &str,
        tuples_in: u64,
        shed: u64,
        late: u64,
        pressure: u64,
    ) -> InstanceSnapshot {
        InstanceSnapshot {
            operator: operator.into(),
            tuples_in,
            shed_tuples: shed,
            late_tuples: late,
            pressure,
            ..Default::default()
        }
    }

    #[test]
    fn quiet_run_never_alarms() {
        let mut m = AlarmMonitor::new(AlarmConfig::default());
        assert!(m.evaluate(&[snap("op", 1_000, 0, 0, 0)]).is_empty());
        assert!(m.evaluate(&[snap("op", 2_000, 0, 0, 1)]).is_empty());
        assert!(m.all_clear());
    }

    #[test]
    fn pressure_alarm_raises_and_resolves() {
        let mut m = AlarmMonitor::new(AlarmConfig::default());
        let firing = m.evaluate(&[snap("op", 100, 0, 0, 2)]);
        assert_eq!(firing.len(), 1);
        assert_eq!(firing[0].kind, AlarmKind::Pressure);
        assert!(m.evaluate(&[snap("op", 200, 0, 0, 0)]).is_empty());
        assert!(m.all_clear());
    }

    #[test]
    fn rate_alarms_use_per_interval_deltas() {
        let mut m = AlarmMonitor::new(AlarmConfig::default());
        // Interval 1: 400 shed of 1000 in — fires.
        let firing = m.evaluate(&[snap("op", 1_000, 400, 0, 0)]);
        assert_eq!(firing.len(), 1);
        assert_eq!(firing[0].kind, AlarmKind::ShedFraction);
        assert!(firing[0].value > 0.10);
        // Interval 2: 1000 more in, no new shed — the cumulative counter
        // alone would still read 40%/2=20%, but the delta is 0%.
        assert!(m.evaluate(&[snap("op", 2_000, 400, 0, 0)]).is_empty());
    }

    #[test]
    fn late_fraction_alarm() {
        let mut m = AlarmMonitor::new(AlarmConfig::default());
        let firing = m.evaluate(&[snap("win", 100, 0, 60, 0)]);
        assert_eq!(firing.len(), 1);
        assert_eq!(firing[0].kind, AlarmKind::LateFraction);
        assert_eq!(firing[0].kind.label(), "late_fraction");
    }

    #[test]
    fn heartbeat_gap_raises_after_silence_and_resolves_on_renewal() {
        let mut m = AlarmMonitor::new(AlarmConfig::default());
        m.note_heartbeat(0, 1);
        m.note_heartbeat(1, 1);
        assert!(
            m.evaluate_heartbeats(2).is_empty(),
            "one interval of silence is fine"
        );
        m.note_heartbeat(1, 4);
        let firing = m.evaluate_heartbeats(4).to_vec();
        assert_eq!(firing.len(), 1, "only the silent worker alarms");
        assert_eq!(firing[0].kind, AlarmKind::HeartbeatGap);
        assert_eq!(firing[0].kind.label(), "heartbeat_gap");
        assert_eq!(firing[0].operator, "worker");
        assert_eq!(firing[0].instance, 0);
        assert_eq!(firing[0].value, 3.0);
        // The worker comes back: the alarm resolves.
        m.note_heartbeat(0, 5);
        assert!(m.evaluate_heartbeats(5).is_empty());
    }

    #[test]
    fn heartbeat_alarms_survive_snapshot_evaluation() {
        let mut m = AlarmMonitor::new(AlarmConfig::default());
        m.note_heartbeat(2, 0);
        assert_eq!(m.evaluate_heartbeats(10).len(), 1);
        // A snapshot pass must not silently resolve a dead worker.
        let firing = m.evaluate(&[snap("op", 100, 0, 0, 0)]);
        assert_eq!(firing.len(), 1);
        assert_eq!(firing[0].kind, AlarmKind::HeartbeatGap);
        // Declaring the worker done clears it.
        m.clear_heartbeat(2);
        assert!(m.firing().is_empty());
        assert!(m.all_clear());
    }
}
