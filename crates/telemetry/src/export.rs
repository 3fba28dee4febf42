//! Exporters: Prometheus text exposition and JSON-lines snapshots.
//!
//! Both formats are covered by golden tests; treat any change to metric
//! names, label sets (`app`, `operator`, `instance`, `node`), or JSON field
//! names as a breaking schema change.

use crate::snapshot::{InstanceSnapshot, TelemetryTimeline};
use serde::Serialize;

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn labels(s: &InstanceSnapshot) -> String {
    format!(
        "app=\"{}\",operator=\"{}\",instance=\"{}\",node=\"{}\"",
        escape_label(&s.app),
        escape_label(&s.operator),
        s.instance,
        escape_label(&s.node)
    )
}

struct Metric {
    name: &'static str,
    help: &'static str,
    kind: &'static str,
    value: fn(&InstanceSnapshot) -> Option<f64>,
}

const METRICS: &[Metric] = &[
    Metric {
        name: "pdsp_tuples_in_total",
        help: "Tuples received by the operator instance.",
        kind: "counter",
        value: |s| Some(s.tuples_in as f64),
    },
    Metric {
        name: "pdsp_tuples_out_total",
        help: "Tuples emitted by the operator instance.",
        kind: "counter",
        value: |s| Some(s.tuples_out as f64),
    },
    Metric {
        name: "pdsp_late_tuples_total",
        help: "Tuples dropped as too late for their window.",
        kind: "counter",
        value: |s| Some(s.late_tuples as f64),
    },
    Metric {
        name: "pdsp_window_fires_total",
        help: "Window panes fired.",
        kind: "counter",
        value: |s| Some(s.window_fires as f64),
    },
    Metric {
        name: "pdsp_queue_depth",
        help: "Input queue length at sample time (backpressure proxy).",
        kind: "gauge",
        value: |s| Some(s.queue_depth as f64),
    },
    Metric {
        name: "pdsp_queue_depth_max",
        help: "Maximum observed input queue length.",
        kind: "gauge",
        value: |s| Some(s.queue_depth_max as f64),
    },
    Metric {
        name: "pdsp_busy_fraction",
        help: "Fraction of observed time spent processing.",
        kind: "gauge",
        value: |s| Some(s.busy_fraction()),
    },
    Metric {
        name: "pdsp_checkpoints_total",
        help: "Checkpoints completed.",
        kind: "counter",
        value: |s| Some(s.checkpoints as f64),
    },
    Metric {
        name: "pdsp_checkpoint_seconds_total",
        help: "Time spent taking checkpoints.",
        kind: "counter",
        value: |s| Some(s.checkpoint_ns as f64 / 1e9),
    },
    Metric {
        name: "pdsp_restarts_total",
        help: "Times the instance was restarted by recovery.",
        kind: "counter",
        value: |s| Some(s.restarts as f64),
    },
    Metric {
        name: "pdsp_batches_out_total",
        help: "Outgoing micro-batches flushed downstream.",
        kind: "counter",
        value: |s| Some(s.batches_out as f64),
    },
    Metric {
        name: "pdsp_flush_size_total",
        help: "Batches flushed on reaching the size bound.",
        kind: "counter",
        value: |s| Some(s.flush_size as f64),
    },
    Metric {
        name: "pdsp_flush_linger_total",
        help: "Batches flushed because the worker was about to wait for input.",
        kind: "counter",
        value: |s| Some(s.flush_linger as f64),
    },
    Metric {
        name: "pdsp_flush_marker_total",
        help: "Batches flushed ahead of a watermark or barrier.",
        kind: "counter",
        value: |s| Some(s.flush_marker as f64),
    },
    Metric {
        name: "pdsp_flush_eos_total",
        help: "Batches flushed by the end-of-stream drain.",
        kind: "counter",
        value: |s| Some(s.flush_eos as f64),
    },
    Metric {
        name: "pdsp_batch_size_p50",
        help: "Median flushed batch size in tuples.",
        kind: "gauge",
        value: |s| (!s.batch_size.is_empty()).then(|| s.batch_size.quantile(0.5) as f64),
    },
    Metric {
        name: "pdsp_latency_p50_ms",
        help: "Median end-to-end latency (sink instances).",
        kind: "gauge",
        value: |s| (!s.latency.is_empty()).then(|| s.latency.quantile(0.5) as f64 / 1e6),
    },
    Metric {
        name: "pdsp_latency_p99_ms",
        help: "99th-percentile end-to-end latency (sink instances).",
        kind: "gauge",
        value: |s| (!s.latency.is_empty()).then(|| s.latency.quantile(0.99) as f64 / 1e6),
    },
    Metric {
        name: "pdsp_shed_tuples_total",
        help: "Tuples dropped by the load-shedding rung of the overload ladder.",
        kind: "counter",
        value: |s| Some(s.shed_tuples as f64),
    },
    Metric {
        name: "pdsp_pressure",
        help: "Overload-escalation rung (0 normal, 1 batching, 2 shedding).",
        kind: "gauge",
        value: |s| Some(s.pressure as f64),
    },
];

/// Format a float the Prometheus way: integral values without a trailing
/// `.0`, everything else with full precision.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render a set of instance snapshots in Prometheus text exposition format.
pub fn prometheus_text(snapshots: &[InstanceSnapshot]) -> String {
    let mut out = String::new();
    for m in METRICS {
        let lines: Vec<String> = snapshots
            .iter()
            .filter_map(|s| {
                (m.value)(s).map(|v| format!("{}{{{}}} {}", m.name, labels(s), fmt_value(v)))
            })
            .collect();
        if lines.is_empty() {
            continue;
        }
        out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
        out.push_str(&format!("# TYPE {} {}\n", m.name, m.kind));
        for l in &lines {
            out.push_str(l);
            out.push('\n');
        }
    }
    out
}

#[derive(Serialize)]
struct SampleLine {
    experiment_id: String,
    app: String,
    backend: String,
    t_ms: u64,
    instances: Vec<InstanceSnapshot>,
}

/// Render a timeline as JSON-lines: one object per sample, each carrying the
/// experiment id so lines remain self-describing when streams are merged.
pub fn json_lines(timeline: &TelemetryTimeline) -> String {
    let mut out = String::new();
    for s in &timeline.samples {
        let line = SampleLine {
            experiment_id: timeline.experiment_id.clone(),
            app: timeline.app.clone(),
            backend: timeline.backend.clone(),
            t_ms: s.t_ms,
            instances: s.instances.clone(),
        };
        out.push_str(&serde_json::to_string(&line).expect("serialize sample"));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::TimelineSample;

    fn snap() -> InstanceSnapshot {
        InstanceSnapshot {
            app: "WC".into(),
            operator: "count".into(),
            instance: 3,
            node: "local".into(),
            tuples_in: 100,
            tuples_out: 90,
            ..Default::default()
        }
    }

    #[test]
    fn prometheus_labels_and_escaping() {
        let mut s = snap();
        s.operator = "we\"ird".into();
        let text = prometheus_text(&[s]);
        assert!(text.contains("operator=\"we\\\"ird\""));
        assert!(text.contains("pdsp_tuples_in_total{app=\"WC\",operator=\"we\\\"ird\",instance=\"3\",node=\"local\"} 100"));
    }

    #[test]
    fn latency_metrics_omitted_when_empty() {
        let text = prometheus_text(&[snap()]);
        assert!(!text.contains("pdsp_latency_p50_ms{"));
    }

    #[test]
    fn json_lines_one_object_per_sample() {
        let t = TelemetryTimeline {
            experiment_id: "exp-9".into(),
            app: "WC".into(),
            backend: "simulated".into(),
            interval_ms: 100,
            samples: vec![
                TimelineSample {
                    t_ms: 100,
                    instances: vec![snap()],
                },
                TimelineSample {
                    t_ms: 200,
                    instances: vec![snap()],
                },
            ],
            events: vec![],
        };
        let out = json_lines(&t);
        assert_eq!(out.lines().count(), 2);
        for line in out.lines() {
            let v: serde_json::Value = serde_json::from_str(line).unwrap();
            assert_eq!(v["experiment_id"].as_str(), Some("exp-9"));
            assert!(v["instances"][0]["operator"].as_str().is_some());
        }
    }
}
