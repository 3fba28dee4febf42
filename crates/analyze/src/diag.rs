//! The diagnostics framework: codes, severities, spans, and reports.
//!
//! Every lint finding is a [`Diagnostic`] carrying a stable `PB0xx` code,
//! a severity, a span anchoring it to a plan node or edge, a message, and
//! an optional suggestion. A [`Report`] collects the diagnostics for one
//! plan and renders them for humans (aligned text) or machines (JSON).

use pdsp_engine::plan::NodeId;
use serde::{Map, Serialize, Value};
use std::fmt;

/// Severity of a diagnostic.
///
/// `Error` means parallel execution computes a different answer than
/// sequential execution (or the plan cannot run safely at all) — the
/// controller's deploy gate refuses these. `Warning` marks risks that
/// degrade a long-running deployment (unbounded state, replay duplicating
/// effects, backpressure hazards). `Hint` is informational.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: worth knowing, safe to deploy.
    Hint,
    /// Risky: deployable, but expect trouble at scale or over time.
    Warning,
    /// Incorrect: parallel results diverge from sequential ones.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
            Severity::Hint => write!(f, "hint"),
        }
    }
}

impl Serialize for Severity {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

/// Stable diagnostic codes (the PB0xx table in DESIGN.md).
///
/// PB00x: key-flow; PB01x: exactly-once safety; PB02x: state bounds;
/// PB03x: backpressure/deadlock hazards; PB04x: plan-cost smells;
/// PB05x: overload/skew hazards; PB06x: schema/type flow.
///
/// The string form is the stable interface — exact-match it in tooling;
/// the enum variant names may be renamed:
///
/// ```
/// use pdsp_analyze::analyze;
/// use pdsp_engine::expr::{CmpOp, Predicate};
/// use pdsp_engine::operator::OpKind;
/// use pdsp_engine::plan::Partitioning;
/// use pdsp_engine::value::{FieldType, Schema, Value};
/// use pdsp_engine::PlanBuilder;
///
/// // A rebalance edge between equal-parallelism stateless stages breaks
/// // an otherwise chainable forward edge: PB041.
/// let plan = PlanBuilder::new()
///     .source("src", Schema::of(&[FieldType::Int]), 2)
///     .filter("pos", Predicate::cmp(0, CmpOp::Gt, Value::Int(0)), 0.5)
///     .set_parallelism(1, 2)
///     .chain(
///         "small",
///         OpKind::Filter {
///             predicate: Predicate::cmp(0, CmpOp::Lt, Value::Int(100)),
///             selectivity: 0.5,
///         },
///         Some(Partitioning::Rebalance),
///     )
///     .set_parallelism(2, 2)
///     .sink("out")
///     .build()
///     .unwrap();
/// let report = analyze("example", &plan).unwrap();
/// assert!(report
///     .diagnostics
///     .iter()
///     .any(|d| d.code.as_str() == "PB041"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// PB001: keyed window/session aggregate input not partitioned on key.
    KeyedAggPartition,
    /// PB002: join input side not partitioned on its join key.
    JoinSidePartition,
    /// PB003: keyed-state UDO input not partitioned on its declared key.
    KeyedUdoPartition,
    /// PB004: global (whole-stream) operator sees only a partition.
    GlobalOpSplit,
    /// PB005: global operator replicated via broadcast (duplicated output).
    GlobalOpReplicated,
    /// PB007: stateful UDO with undeclared keying on partitioned input.
    UndeclaredStatefulPartition,
    /// PB011: non-deterministic UDO inside a recoverable region.
    NonDeterministicUdo,
    /// PB012: side-effecting UDO; replay duplicates external effects.
    SideEffectingUdo,
    /// PB013: UDO state is not covered by checkpoint snapshots.
    UnsnapshottedUdoState,
    /// PB014: multi-input operator downstream of un-snapshottable state.
    MultiInputAfterOpaqueState,
    /// PB021: UDO declares unbounded state growth.
    UnboundedUdoState,
    /// PB022: keyed state grows with key cardinality (no eviction).
    KeyedStateGrowth,
    /// PB023: sliding window maintains an excessive number of panes.
    PaneExplosion,
    /// PB031: diamond mixing broadcast and non-broadcast branches.
    BroadcastRebalanceDiamond,
    /// PB032: broadcast into a high-parallelism operator.
    BroadcastFanOut,
    /// PB033: edge expands into an excessive number of channels.
    ChannelExplosion,
    /// PB041: rebalance edge breaking an otherwise chainable forward edge.
    ForwardChainBreak,
    /// PB042: high-parallelism region funneling into a parallelism-1 op.
    FunnelBottleneck,
    /// PB043: parallelism jump too steep between adjacent operators.
    ParallelismCliff,
    /// PB051: keyed stateful operator vulnerable to hot-key skew.
    SkewVulnerableKeyedOp,
    /// PB053: event-time window merging independent streams without
    /// lateness tolerance.
    LatenessHazard,
    /// PB061: a field reference outside the inferred input schema.
    UnknownField,
    /// PB062: an operator input of a type it cannot process.
    InputTypeMismatch,
    /// PB063: numeric aggregate over a non-numeric field.
    NonNumericAggregate,
    /// PB064: keying/hash-partitioning on a `Double` field.
    DoubleKey,
    /// PB065: time-based window over a stream with no `Timestamp` field.
    EventTimeUntyped,
    /// PB067: union branches with incompatible schemas.
    UnionSchemaMismatch,
    /// PB068: opaque UDO schema; downstream findings downgraded.
    OpaqueUdoSchema,
    /// PB069: constant predicate from a cross-type-class comparison.
    ConstantPredicate,
}

impl Code {
    /// The stable "PB0xx" string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::KeyedAggPartition => "PB001",
            Code::JoinSidePartition => "PB002",
            Code::KeyedUdoPartition => "PB003",
            Code::GlobalOpSplit => "PB004",
            Code::GlobalOpReplicated => "PB005",
            Code::UndeclaredStatefulPartition => "PB007",
            Code::NonDeterministicUdo => "PB011",
            Code::SideEffectingUdo => "PB012",
            Code::UnsnapshottedUdoState => "PB013",
            Code::MultiInputAfterOpaqueState => "PB014",
            Code::UnboundedUdoState => "PB021",
            Code::KeyedStateGrowth => "PB022",
            Code::PaneExplosion => "PB023",
            Code::BroadcastRebalanceDiamond => "PB031",
            Code::BroadcastFanOut => "PB032",
            Code::ChannelExplosion => "PB033",
            Code::ForwardChainBreak => "PB041",
            Code::FunnelBottleneck => "PB042",
            Code::ParallelismCliff => "PB043",
            Code::SkewVulnerableKeyedOp => "PB051",
            Code::LatenessHazard => "PB053",
            Code::UnknownField => "PB061",
            Code::InputTypeMismatch => "PB062",
            Code::NonNumericAggregate => "PB063",
            Code::DoubleKey => "PB064",
            Code::EventTimeUntyped => "PB065",
            Code::UnionSchemaMismatch => "PB067",
            Code::OpaqueUdoSchema => "PB068",
            Code::ConstantPredicate => "PB069",
        }
    }

    /// Default severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            Code::KeyedAggPartition
            | Code::JoinSidePartition
            | Code::KeyedUdoPartition
            | Code::GlobalOpSplit
            | Code::NonDeterministicUdo => Severity::Error,
            Code::GlobalOpReplicated
            | Code::UndeclaredStatefulPartition
            | Code::SideEffectingUdo
            | Code::MultiInputAfterOpaqueState
            | Code::UnboundedUdoState
            | Code::PaneExplosion
            | Code::BroadcastRebalanceDiamond
            | Code::BroadcastFanOut
            | Code::FunnelBottleneck => Severity::Warning,
            Code::UnsnapshottedUdoState
            | Code::KeyedStateGrowth
            | Code::ChannelExplosion
            | Code::ForwardChainBreak
            | Code::ParallelismCliff
            | Code::SkewVulnerableKeyedOp
            | Code::LatenessHazard => Severity::Hint,
            Code::UnknownField
            | Code::InputTypeMismatch
            | Code::NonNumericAggregate
            | Code::UnionSchemaMismatch => Severity::Error,
            Code::DoubleKey | Code::ConstantPredicate => Severity::Warning,
            Code::EventTimeUntyped | Code::OpaqueUdoSchema => Severity::Hint,
        }
    }

    /// Every stable code, in PB-number order — the `--explain` index.
    pub const ALL: [Code; 29] = [
        Code::KeyedAggPartition,
        Code::JoinSidePartition,
        Code::KeyedUdoPartition,
        Code::GlobalOpSplit,
        Code::GlobalOpReplicated,
        Code::UndeclaredStatefulPartition,
        Code::NonDeterministicUdo,
        Code::SideEffectingUdo,
        Code::UnsnapshottedUdoState,
        Code::MultiInputAfterOpaqueState,
        Code::UnboundedUdoState,
        Code::KeyedStateGrowth,
        Code::PaneExplosion,
        Code::BroadcastRebalanceDiamond,
        Code::BroadcastFanOut,
        Code::ChannelExplosion,
        Code::ForwardChainBreak,
        Code::FunnelBottleneck,
        Code::ParallelismCliff,
        Code::SkewVulnerableKeyedOp,
        Code::LatenessHazard,
        Code::UnknownField,
        Code::InputTypeMismatch,
        Code::NonNumericAggregate,
        Code::DoubleKey,
        Code::EventTimeUntyped,
        Code::UnionSchemaMismatch,
        Code::OpaqueUdoSchema,
        Code::ConstantPredicate,
    ];

    /// Look a code up by its stable string form ("PB061"), case-insensitive.
    pub fn parse(s: &str) -> Option<Code> {
        let s = s.trim().to_ascii_uppercase();
        Code::ALL.into_iter().find(|c| c.as_str() == s)
    }

    /// One-paragraph explanation of what the code means — the `--explain`
    /// body, kept next to the enum so adding a code without documenting it
    /// fails to compile.
    pub fn explanation(self) -> &'static str {
        match self {
            Code::KeyedAggPartition => {
                "A keyed window/session aggregate receives input that is not hash-partitioned \
                 on its key field, so tuples of the same key land on different parallel \
                 instances and each computes a partial, wrong aggregate."
            }
            Code::JoinSidePartition => {
                "One input side of an equi-join is not hash-partitioned on its join key at \
                 parallelism > 1; matching keys land on different instances and the join \
                 silently drops matches."
            }
            Code::KeyedUdoPartition => {
                "A UDO declaring keyed state receives input not partitioned on its declared \
                 key field, splitting per-key state across instances."
            }
            Code::GlobalOpSplit => {
                "A whole-stream (global) operator runs at parallelism > 1 with partitioned \
                 input, so each instance sees only a slice of the stream."
            }
            Code::GlobalOpReplicated => {
                "A global operator is replicated via broadcast: every instance computes the \
                 full answer and downstream receives it multiple times."
            }
            Code::UndeclaredStatefulPartition => {
                "A stateful UDO without declared keying receives partitioned input; whether \
                 its state is partition-safe is unknowable to the analyzer."
            }
            Code::NonDeterministicUdo => {
                "A non-deterministic UDO sits inside a recoverable region: replay after a \
                 failure recomputes different values than the lost originals."
            }
            Code::SideEffectingUdo => {
                "A side-effecting UDO inside a recoverable region duplicates its external \
                 effects on replay (at-least-once re-execution)."
            }
            Code::UnsnapshottedUdoState => {
                "A UDO carries state that checkpoint snapshots cannot capture; recovery \
                 silently resets it."
            }
            Code::MultiInputAfterOpaqueState => {
                "A multi-input operator consumes output influenced by un-snapshottable state; \
                 post-recovery replays can interleave differently."
            }
            Code::UnboundedUdoState => {
                "A UDO declares state that grows without bound; a long-running deployment \
                 eventually exhausts memory."
            }
            Code::KeyedStateGrowth => {
                "Keyed state grows with key cardinality and nothing evicts old keys."
            }
            Code::PaneExplosion => {
                "A sliding window's length/slide ratio maintains an excessive number of \
                 concurrent panes per key."
            }
            Code::BroadcastRebalanceDiamond => {
                "A diamond mixes broadcast and non-broadcast branches; reconvergence sees \
                 duplicated tuples from one side."
            }
            Code::BroadcastFanOut => {
                "Broadcast into a high-parallelism operator multiplies every tuple by the \
                 downstream parallelism."
            }
            Code::ChannelExplosion => {
                "One edge expands into an excessive number of physical channels \
                 (upstream x downstream instances)."
            }
            Code::ForwardChainBreak => {
                "A rebalance edge between equal-parallelism stateless stages breaks an \
                 otherwise chainable forward edge, costing a channel hop."
            }
            Code::FunnelBottleneck => {
                "A high-parallelism region funnels into a parallelism-1 operator that becomes \
                 the whole plan's throughput ceiling."
            }
            Code::ParallelismCliff => {
                "Adjacent operators differ steeply in parallelism; the cliff edge is a \
                 repartitioning hotspot."
            }
            Code::SkewVulnerableKeyedOp => {
                "A keyed stateful operator is vulnerable to hot-key skew: one hot key pins \
                 its whole load on a single instance."
            }
            Code::LatenessHazard => {
                "An event-time window merges independently progressing streams without \
                 allowed lateness; the slower stream's stragglers are dropped."
            }
            Code::UnknownField => {
                "An operator references a field index outside its inferred input schema (a \
                 predicate, map expression, aggregate/key field, join key, or hash-partition \
                 field). At runtime this is an out-of-bounds access: the tuple is dropped or \
                 the worker fails."
            }
            Code::InputTypeMismatch => {
                "An operator input has a type it cannot process: a string split over a \
                 non-string field (emits nothing), arithmetic over a string operand (runtime \
                 type error), or equi-join keys from different type classes (never match)."
            }
            Code::NonNumericAggregate => {
                "A numeric aggregate (sum/avg/min/max) runs over a string field. The engine \
                 coerces strings to presence (1.0), so the output is a well-formed number \
                 that measures nothing."
            }
            Code::DoubleKey => {
                "Grouping or hash-partitioning keys on a Double field: NaN never compares \
                 equal to itself (NaN groups leak per tuple) and hashing bit patterns splits \
                 0.0 from -0.0. Key on an integer or string representation instead."
            }
            Code::EventTimeUntyped => {
                "A time-based window consumes a stream whose schema carries no \
                 Timestamp-typed field. Event time rides on out-of-band tuple metadata, so \
                 this still runs — but the schema offers no provenance for where event time \
                 comes from."
            }
            Code::UnionSchemaMismatch => {
                "Union branches carry structurally different schemas (width or field types \
                 differ); downstream operators read fields whose meaning depends on which \
                 branch a tuple came from."
            }
            Code::OpaqueUdoSchema => {
                "A UDO declares its output schema Opaque: inference continues with the \
                 factory's unverified claim and downgrades every downstream schema finding \
                 to a hint, since its premise might be wrong."
            }
            Code::ConstantPredicate => {
                "A filter compares a field against a literal from a different type class \
                 (string vs numeric). Cross-class comparisons never hold, so the predicate \
                 is constant: Eq never matches, Ne always does."
            }
        }
    }

    /// One-line remediation — the `--explain` footer.
    pub fn remediation(self) -> &'static str {
        match self {
            Code::KeyedAggPartition => "hash-partition the aggregate's input on its key field",
            Code::JoinSidePartition => "hash-partition each join input on its own join key",
            Code::KeyedUdoPartition => "hash-partition the UDO input on its declared key field",
            Code::GlobalOpSplit => "run the global operator at parallelism 1",
            Code::GlobalOpReplicated => "replace the broadcast edge with a funnel to one instance",
            Code::UndeclaredStatefulPartition => {
                "declare keyed_state_field in UdoProperties, or force parallelism 1"
            }
            Code::NonDeterministicUdo => "make the UDO deterministic or move it past the sink",
            Code::SideEffectingUdo => "make the effect idempotent or gate it on exactly-once",
            Code::UnsnapshottedUdoState => "implement snapshot/restore in the UDO",
            Code::MultiInputAfterOpaqueState => "snapshot the upstream state or remove the merge",
            Code::UnboundedUdoState => "declare bounded_state and implement eviction",
            Code::KeyedStateGrowth => "add TTL/eviction for idle keys",
            Code::PaneExplosion => "increase the slide or decrease the window length",
            Code::BroadcastRebalanceDiamond => "use the same partitioning on both branches",
            Code::BroadcastFanOut => "reduce downstream parallelism or drop the broadcast",
            Code::ChannelExplosion => "reduce parallelism on one side of the edge",
            Code::ForwardChainBreak => "use Forward partitioning so the pair can chain",
            Code::FunnelBottleneck => "raise the bottleneck operator's parallelism",
            Code::ParallelismCliff => "smooth the parallelism change over adjacent operators",
            Code::SkewVulnerableKeyedOp => "cap hot-key load with the overload config (shedding)",
            Code::LatenessHazard => "set overload.allowed_lateness_ms to tolerate stragglers",
            Code::UnknownField => "fix the field index or widen the source schema",
            Code::InputTypeMismatch => "align the field's declared type with the operator",
            Code::NonNumericAggregate => "aggregate a numeric field, or use Count",
            Code::DoubleKey => "key on an Int/Str field (e.g. a quantized id) instead",
            Code::EventTimeUntyped => "add a Timestamp field documenting the event-time source",
            Code::UnionSchemaMismatch => "map both branches to one shared schema before the union",
            Code::OpaqueUdoSchema => "declare the real output schema (SchemaPolicy::Declared)",
            Code::ConstantPredicate => "compare against a literal of the field's own type",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl Serialize for Code {
    fn to_json_value(&self) -> Value {
        Value::String(self.as_str().into())
    }
}

/// What a diagnostic anchors to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Span {
    /// The whole plan.
    Plan,
    /// One operator node.
    Node {
        /// Node id.
        id: NodeId,
        /// Node name.
        name: String,
    },
    /// One edge (identified by endpoints and downstream port).
    Edge {
        /// Upstream node id.
        from: NodeId,
        /// Downstream node id.
        to: NodeId,
        /// Downstream input port.
        port: usize,
    },
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Plan => write!(f, "plan"),
            Span::Node { id, name } => write!(f, "node {id} '{name}'"),
            Span::Edge { from, to, port } => write!(f, "edge {from}->{to}:{port}"),
        }
    }
}

impl Serialize for Span {
    fn to_json_value(&self) -> Value {
        let mut m = Map::new();
        match self {
            Span::Plan => {
                m.insert("kind".into(), Value::String("plan".into()));
            }
            Span::Node { id, name } => {
                m.insert("kind".into(), Value::String("node".into()));
                m.insert("id".into(), id.to_json_value());
                m.insert("name".into(), Value::String(name.clone()));
            }
            Span::Edge { from, to, port } => {
                m.insert("kind".into(), Value::String("edge".into()));
                m.insert("from".into(), from.to_json_value());
                m.insert("to".into(), to.to_json_value());
                m.insert("port".into(), port.to_json_value());
            }
        }
        Value::Object(m)
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable code.
    pub code: Code,
    /// Severity (usually the code's default, occasionally downgraded).
    pub severity: Severity,
    /// Where in the plan.
    pub span: Span,
    /// What is wrong.
    pub message: String,
    /// How to fix it, when the fix is mechanical.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// A diagnostic at the code's default severity.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
            suggestion: None,
        }
    }

    /// Attach a suggestion.
    pub fn with_suggestion(mut self, suggestion: impl Into<String>) -> Self {
        self.suggestion = Some(suggestion.into());
        self
    }

    /// Override the default severity (e.g. a non-determinism finding
    /// downgraded to a warning when nothing stateful consumes the output).
    pub fn with_severity(mut self, severity: Severity) -> Self {
        self.severity = severity;
        self
    }
}

impl Serialize for Diagnostic {
    fn to_json_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("code".into(), self.code.to_json_value());
        m.insert("severity".into(), self.severity.to_json_value());
        m.insert("span".into(), self.span.to_json_value());
        m.insert("message".into(), Value::String(self.message.clone()));
        m.insert(
            "suggestion".into(),
            match &self.suggestion {
                Some(s) => Value::String(s.clone()),
                None => Value::Null,
            },
        );
        Value::Object(m)
    }
}

/// The analyzer's output for one plan.
#[derive(Debug, Clone)]
pub struct Report {
    /// Label of the analyzed plan (application acronym, query structure).
    pub plan: String,
    /// Diagnostics, most severe first.
    pub diagnostics: Vec<Diagnostic>,
}

impl Serialize for Report {
    fn to_json_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("plan".into(), Value::String(self.plan.clone()));
        m.insert(
            "diagnostics".into(),
            Value::Array(self.diagnostics.iter().map(|d| d.to_json_value()).collect()),
        );
        Value::Object(m)
    }
}

impl Report {
    /// Build a report, sorting diagnostics by descending severity, then
    /// code, then span position.
    pub fn new(plan: impl Into<String>, mut diagnostics: Vec<Diagnostic>) -> Self {
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| a.code.as_str().cmp(b.code.as_str()))
                .then_with(|| format!("{}", a.span).cmp(&format!("{}", b.span)))
        });
        Report {
            plan: plan.into(),
            diagnostics,
        }
    }

    /// Number of error-severity diagnostics.
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity diagnostics.
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of hints.
    pub fn hints(&self) -> usize {
        self.count(Severity::Hint)
    }

    fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// No errors and no warnings (hints allowed).
    pub fn is_clean(&self) -> bool {
        self.errors() == 0 && self.warnings() == 0
    }

    /// All codes present, in report order.
    pub fn codes(&self) -> Vec<Code> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// True when the report contains the given code.
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Short status label: "clean" or "2 errors, 1 warning, 3 hints"
    /// (zero-count classes omitted).
    pub fn status_label(&self) -> String {
        let (e, w, h) = (self.errors(), self.warnings(), self.hints());
        if e == 0 && w == 0 && h == 0 {
            return "clean".into();
        }
        let plural = |n: usize, word: &str| {
            if n == 1 {
                format!("1 {word}")
            } else {
                format!("{n} {word}s")
            }
        };
        let mut parts = Vec::new();
        if e > 0 {
            parts.push(plural(e, "error"));
        }
        if w > 0 {
            parts.push(plural(w, "warning"));
        }
        if h > 0 {
            parts.push(plural(h, "hint"));
        }
        parts.join(", ")
    }

    /// Human-readable rendering (one block per diagnostic).
    pub fn render(&self) -> String {
        let mut out = format!("{}: {}\n", self.plan, self.status_label());
        for d in &self.diagnostics {
            out.push_str(&format!(
                "  {} {:7} [{}] {}\n",
                d.code, d.severity, d.span, d.message
            ));
            if let Some(s) = &d.suggestion {
                out.push_str(&format!("        suggestion: {s}\n"));
            }
        }
        out
    }

    /// Machine-readable JSON rendering.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|_| "{}".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_error_highest() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Hint);
    }

    #[test]
    fn report_sorts_and_counts() {
        let r = Report::new(
            "t",
            vec![
                Diagnostic::new(Code::ForwardChainBreak, Span::Plan, "hint"),
                Diagnostic::new(
                    Code::KeyedAggPartition,
                    Span::Node {
                        id: 1,
                        name: "agg".into(),
                    },
                    "error",
                ),
                Diagnostic::new(Code::UnboundedUdoState, Span::Plan, "warn"),
            ],
        );
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 1);
        assert_eq!(r.hints(), 1);
        assert_eq!(r.diagnostics[0].severity, Severity::Error);
        assert!(!r.is_clean());
        assert_eq!(r.status_label(), "1 error, 1 warning, 1 hint");
    }

    #[test]
    fn clean_report_label() {
        let r = Report::new("t", vec![]);
        assert!(r.is_clean());
        assert_eq!(r.status_label(), "clean");
    }

    #[test]
    fn json_rendering_uses_stable_codes() {
        let r = Report::new(
            "wc",
            vec![Diagnostic::new(
                Code::KeyedAggPartition,
                Span::Edge {
                    from: 0,
                    to: 1,
                    port: 0,
                },
                "bad partition",
            )
            .with_suggestion("hash on the key")],
        );
        let json = r.to_json();
        assert!(json.contains("\"PB001\""), "{json}");
        assert!(json.contains("\"error\""), "{json}");
        assert!(json.contains("hash on the key"), "{json}");
    }

    #[test]
    fn render_includes_code_and_span() {
        let r = Report::new(
            "sg",
            vec![Diagnostic::new(
                Code::UnsnapshottedUdoState,
                Span::Node {
                    id: 2,
                    name: "median".into(),
                },
                "state is opaque to checkpoints",
            )],
        );
        let text = r.render();
        assert!(text.contains("PB013"));
        assert!(text.contains("node 2 'median'"));
    }
}
