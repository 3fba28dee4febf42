//! Whole-plan schema inference and type-flow analysis.
//!
//! [`SchemaFlow::infer`] performs an abstract interpretation of a
//! [`LogicalPlan`] over the schema domain: every operator gets a transfer
//! function from its input schemas to its output schema, every edge gets
//! the schema of the stream crossing it, and every way the plan can
//! violate its own typing is recorded as a [`SchemaIssue`] instead of an
//! error. Inference is *tolerant*: it substitutes best-effort fallbacks
//! and keeps walking, so a single typo'd field index yields one precise
//! issue rather than an opaque abort.
//!
//! This is the engine's only schema inference. Its consumers:
//!
//! * [`LogicalPlan::validate`] refuses the first full-severity
//!   [`IssueKind::UnknownField`] (a field read past its schema fails
//!   inside a worker otherwise) and returns the flow it checked;
//! * `pdsp-analyze`'s type-flow pass maps issues onto stable `PB06x`
//!   diagnostic codes (and the deploy gate refuses plans whose issues are
//!   error-class);
//! * [`crate::physical::PhysicalPlan::expand`] persists the per-edge
//!   schemas of that validated flow so the distributed wire layer can
//!   validate frames against them (`RunConfig::check_schemas`), and the
//!   simulator sizes each operator's output tuples from them.
//!
//! UDOs are closed boxes; their factories bridge inference via
//! [`UdoFactory::output_schema`](crate::udo::UdoFactory::output_schema)
//! under a declared [`SchemaPolicy`]. The `Opaque` policy keeps inference
//! running on the claimed schema but marks everything downstream *tainted*
//! — consumers downgrade findings on tainted spans to hints, since their
//! premise is unverified.

use crate::expr::{CmpOp, Predicate, ScalarExpr};
use crate::operator::OpKind;
use crate::plan::{LogicalPlan, NodeId, Partitioning};
use crate::udo::SchemaPolicy;
use crate::value::{Field, FieldType, Schema};
use crate::window::WindowPolicy;
use std::fmt;

/// What a schema issue anchors to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueAt {
    /// An operator node.
    Node(NodeId),
    /// An edge, by index into [`LogicalPlan::edges`].
    Edge(usize),
}

/// The kind of typing violation found by inference. Each kind maps 1:1 to
/// a stable `PB06x` diagnostic code in `pdsp-analyze`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IssueKind {
    /// A field index outside the input schema (PB061, error).
    UnknownField,
    /// An operator input of a type it cannot process — string-split over a
    /// non-string field, arithmetic over a string operand, equi-join keys
    /// of incomparable types (PB062, error).
    TypeMismatch,
    /// A numeric aggregate over a string field: `as_f64` yields `None`
    /// and the aggregate silently counts presence instead (PB063, error).
    NonNumericAggregate,
    /// Keying or hash-partitioning on a `Double` field: NaN never compares
    /// equal (so NaN groups leak), and bit-pattern hashing splits `0.0`
    /// from `-0.0` (PB064, warning).
    DoubleKey,
    /// A time-based window consumes a stream with no `Timestamp`-typed
    /// field: event time rides only on out-of-band tuple metadata, so the
    /// schema offers no provenance for it (PB065, hint).
    EventTimeUntyped,
    /// Union inputs with structurally different schemas (PB067, error).
    UnionSchemaMismatch,
    /// Inference crossed a UDO declared `SchemaPolicy::Opaque`; everything
    /// downstream is tainted (PB068, hint).
    OpaqueUdo,
    /// A comparison between incomparable type classes (string vs numeric):
    /// the predicate is constant — `==` never matches, `!=` always does
    /// (PB069, warning).
    ConstantPredicate,
}

impl IssueKind {
    /// True when this kind invalidates results (the error class a deploy
    /// gate must refuse); warnings and hints return false.
    pub fn is_error(self) -> bool {
        matches!(
            self,
            IssueKind::UnknownField
                | IssueKind::TypeMismatch
                | IssueKind::NonNumericAggregate
                | IssueKind::UnionSchemaMismatch
        )
    }
}

impl fmt::Display for IssueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IssueKind::UnknownField => "unknown-field",
            IssueKind::TypeMismatch => "type-mismatch",
            IssueKind::NonNumericAggregate => "non-numeric-aggregate",
            IssueKind::DoubleKey => "double-key",
            IssueKind::EventTimeUntyped => "event-time-untyped",
            IssueKind::UnionSchemaMismatch => "union-schema-mismatch",
            IssueKind::OpaqueUdo => "opaque-udo",
            IssueKind::ConstantPredicate => "constant-predicate",
        };
        f.write_str(s)
    }
}

/// One typing violation, anchored to a node or edge.
#[derive(Debug, Clone)]
pub struct SchemaIssue {
    /// What went wrong.
    pub kind: IssueKind,
    /// Where.
    pub at: IssueAt,
    /// Human-readable description naming fields and types.
    pub message: String,
    /// The field read past its schema; `Some` exactly for
    /// [`IssueKind::UnknownField`].
    pub out_of_bounds: Option<FieldRead>,
    /// The issue sits downstream of an `Opaque` UDO: its premise is an
    /// unverified schema claim, so consumers report it as a hint.
    pub downgraded: bool,
}

/// A read of field `index` by `reader` from a schema `width` fields wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldRead {
    /// What reads the field (`"predicate"`, `"left join key"`, ...).
    pub reader: &'static str,
    /// The field read.
    pub index: usize,
    /// Width of the schema read from.
    pub width: usize,
}

/// The result of schema inference over one plan.
#[derive(Debug, Clone)]
pub struct SchemaFlow {
    /// Inferred output schema per node (best-effort; complete even for
    /// broken plans).
    pub node_output: Vec<Schema>,
    /// Inferred schema per edge (index-aligned with
    /// [`LogicalPlan::edges`]): the output schema of the edge's upstream
    /// node.
    pub edge: Vec<Schema>,
    /// Per-node taint: true when the node's schema (transitively) rests on
    /// an `Opaque` UDO's unverified claim.
    pub tainted: Vec<bool>,
    /// Every typing violation found, in plan-walk order.
    pub issues: Vec<SchemaIssue>,
}

/// String vs numeric type class; cross-class comparisons are constant and
/// cross-class arithmetic fails at runtime.
fn is_stringy(ty: FieldType) -> bool {
    ty == FieldType::Str
}

/// An [`IssueKind::UnknownField`] issue: `reader` reads field `index` of
/// an input schema `width` fields wide.
fn unknown_field(
    at: IssueAt,
    reader: &'static str,
    index: usize,
    width: usize,
    downgraded: bool,
) -> SchemaIssue {
    SchemaIssue {
        kind: IssueKind::UnknownField,
        at,
        message: format!(
            "{reader} reads field {index} but the input schema has only {width} field(s)"
        ),
        out_of_bounds: Some(FieldRead {
            reader,
            index,
            width,
        }),
        downgraded,
    }
}

/// Static result type of a scalar expression over `input`, plus any typing
/// issues it raises (out-of-bounds field refs, string arithmetic).
fn expr_type(
    expr: &ScalarExpr,
    input: &Schema,
    node: NodeId,
    issues: &mut Vec<SchemaIssue>,
    downgraded: bool,
) -> FieldType {
    match expr {
        ScalarExpr::Field(i) => match input.fields.get(*i) {
            Some(f) => f.ty,
            None => {
                issues.push(unknown_field(
                    IssueAt::Node(node),
                    "expression",
                    *i,
                    input.width(),
                    downgraded,
                ));
                FieldType::Double
            }
        },
        ScalarExpr::Literal(v) => v.field_type(),
        ScalarExpr::Add(a, b)
        | ScalarExpr::Sub(a, b)
        | ScalarExpr::Mul(a, b)
        | ScalarExpr::Div(a, b) => {
            for side in [a, b] {
                let ty = expr_type(side, input, node, issues, downgraded);
                if is_stringy(ty) {
                    issues.push(SchemaIssue {
                        kind: IssueKind::TypeMismatch,
                        at: IssueAt::Node(node),
                        message: "arithmetic over a string operand always fails at runtime".into(),
                        out_of_bounds: None,
                        downgraded,
                    });
                }
            }
            FieldType::Double
        }
    }
}

/// Check a filter predicate against `input`: out-of-bounds field refs and
/// constant cross-class comparisons.
fn check_predicate(
    pred: &Predicate,
    input: &Schema,
    node: NodeId,
    issues: &mut Vec<SchemaIssue>,
    downgraded: bool,
) {
    match pred {
        Predicate::True => {}
        Predicate::Compare { field, op, literal } => match input.fields.get(*field) {
            None => issues.push(unknown_field(
                IssueAt::Node(node),
                "predicate",
                *field,
                input.width(),
                downgraded,
            )),
            Some(f) if is_stringy(f.ty) != is_stringy(literal.field_type()) => {
                let outcome = if *op == CmpOp::Ne {
                    "always true"
                } else {
                    "never true"
                };
                issues.push(SchemaIssue {
                    kind: IssueKind::ConstantPredicate,
                    at: IssueAt::Node(node),
                    message: format!(
                        "comparing {} field '{}' {op} {} literal is {outcome}: cross-class \
                         comparisons never match",
                        f.ty,
                        f.name,
                        literal.field_type()
                    ),
                    out_of_bounds: None,
                    downgraded,
                });
            }
            Some(_) => {}
        },
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            check_predicate(a, input, node, issues, downgraded);
            check_predicate(b, input, node, issues, downgraded);
        }
        Predicate::Not(p) => check_predicate(p, input, node, issues, downgraded),
    }
}

/// Check a key-like field reference (aggregate key, join key, UDO keyed
/// state, hash-partition field): bounds, then the `Double` hazard. Returns
/// the field's type when resolvable.
fn check_key_field(
    idx: usize,
    input: &Schema,
    at: IssueAt,
    role: &'static str,
    issues: &mut Vec<SchemaIssue>,
    downgraded: bool,
) -> Option<FieldType> {
    match input.fields.get(idx) {
        None => {
            issues.push(unknown_field(at, role, idx, input.width(), downgraded));
            None
        }
        Some(f) => {
            if f.ty == FieldType::Double {
                issues.push(SchemaIssue {
                    kind: IssueKind::DoubleKey,
                    at,
                    message: format!(
                        "{role} groups on double field '{}': NaN keys never compare equal and \
                         0.0/-0.0 hash apart, so grouping is unreliable",
                        f.name
                    ),
                    out_of_bounds: None,
                    downgraded,
                });
            }
            Some(f.ty)
        }
    }
}

impl SchemaFlow {
    /// Infer schemas for every node and edge of `plan`, collecting typing
    /// issues along the way. Fails only on structurally broken plans
    /// (cycles); semantic breakage becomes [`SchemaIssue`]s.
    pub fn infer(plan: &LogicalPlan) -> crate::error::Result<SchemaFlow> {
        let topo = plan.topo_order()?;
        let n = plan.nodes.len();
        let mut node_output: Vec<Schema> = vec![Schema::default(); n];
        let mut tainted = vec![false; n];
        let mut issues: Vec<SchemaIssue> = Vec::new();

        for &id in &topo {
            let node = &plan.nodes[id];
            // Input schemas in port order (ports are dense per validate()).
            let mut ins: Vec<(usize, Schema)> = plan
                .in_edges(id)
                .iter()
                .map(|e| (e.port, node_output[e.from].clone()))
                .collect();
            ins.sort_by_key(|(p, _)| *p);
            let in_tainted = plan.in_edges(id).iter().any(|e| tainted[e.from]);
            tainted[id] = in_tainted;
            let dg = in_tainted;
            let first = ins.first().map(|(_, s)| s.clone()).unwrap_or_default();

            node_output[id] = match &node.kind {
                OpKind::Source { schema } => schema.clone(),
                OpKind::Filter { predicate, .. } => {
                    check_predicate(predicate, &first, id, &mut issues, dg);
                    first
                }
                OpKind::Map { exprs } => {
                    let fields = exprs
                        .iter()
                        .enumerate()
                        .map(|(i, e)| {
                            let ty = expr_type(e, &first, id, &mut issues, dg);
                            let name = match e {
                                ScalarExpr::Field(idx) => first
                                    .fields
                                    .get(*idx)
                                    .map(|f| f.name.clone())
                                    .unwrap_or_else(|| format!("m{i}")),
                                _ => format!("m{i}"),
                            };
                            Field::new(name, ty)
                        })
                        .collect();
                    Schema::new(fields)
                }
                OpKind::FlatMapSplit { field } => {
                    match first.fields.get(*field) {
                        None => issues.push(unknown_field(
                            IssueAt::Node(id),
                            "split",
                            *field,
                            first.width(),
                            dg,
                        )),
                        Some(f) if f.ty != FieldType::Str => issues.push(SchemaIssue {
                            kind: IssueKind::TypeMismatch,
                            at: IssueAt::Node(id),
                            message: format!(
                                "split over {} field '{}': non-string inputs produce no output \
                                 tuples at all",
                                f.ty, f.name
                            ),
                            out_of_bounds: None,
                            downgraded: dg,
                        }),
                        Some(_) => {}
                    }
                    Schema::new(vec![Field::new("token", FieldType::Str)])
                }
                OpKind::WindowAggregate {
                    window,
                    func,
                    agg_field,
                    key_field,
                } => {
                    self::check_aggregate(
                        &first,
                        id,
                        *agg_field,
                        *func,
                        window.policy == WindowPolicy::Time,
                        &mut issues,
                        dg,
                    );
                    aggregate_output(&first, *key_field, id, &mut issues, dg)
                }
                OpKind::SessionWindow {
                    func,
                    agg_field,
                    key_field,
                    ..
                } => {
                    // Sessions are inherently event-time windows.
                    self::check_aggregate(&first, id, *agg_field, *func, true, &mut issues, dg);
                    aggregate_output(&first, *key_field, id, &mut issues, dg)
                }
                OpKind::Join {
                    left_key,
                    right_key,
                    ..
                } => {
                    let left = ins.iter().find(|(p, _)| *p == 0).map(|(_, s)| s.clone());
                    let right = ins.iter().find(|(p, _)| *p == 1).map(|(_, s)| s.clone());
                    let lt = left.as_ref().and_then(|s| {
                        check_key_field(
                            *left_key,
                            s,
                            IssueAt::Node(id),
                            "left join key",
                            &mut issues,
                            dg,
                        )
                    });
                    let rt = right.as_ref().and_then(|s| {
                        check_key_field(
                            *right_key,
                            s,
                            IssueAt::Node(id),
                            "right join key",
                            &mut issues,
                            dg,
                        )
                    });
                    if let (Some(lt), Some(rt)) = (lt, rt) {
                        if is_stringy(lt) != is_stringy(rt) {
                            issues.push(SchemaIssue {
                                kind: IssueKind::TypeMismatch,
                                at: IssueAt::Node(id),
                                message: format!(
                                    "equi-join compares {lt} against {rt}: cross-class keys \
                                     never match, the join emits nothing"
                                ),
                                out_of_bounds: None,
                                downgraded: dg,
                            });
                        }
                    }
                    let mut fields = left.map(|s| s.fields).unwrap_or_default();
                    fields.extend(right.map(|s| s.fields).unwrap_or_default());
                    Schema::new(fields)
                }
                OpKind::Union => {
                    for (p, s) in ins.iter().skip(1) {
                        let mismatch = s.width() != first.width()
                            || s.fields
                                .iter()
                                .zip(&first.fields)
                                .any(|(a, b)| a.ty != b.ty);
                        if mismatch {
                            issues.push(SchemaIssue {
                                kind: IssueKind::UnionSchemaMismatch,
                                at: IssueAt::Node(id),
                                message: format!(
                                    "union input on port {p} has schema {} but port {} has {}: \
                                     branches must agree field-for-field",
                                    render(s),
                                    ins[0].0,
                                    render(&first)
                                ),
                                out_of_bounds: None,
                                downgraded: dg,
                            });
                        }
                    }
                    first
                }
                OpKind::Udo { factory } => {
                    let props = factory.properties();
                    if let Some(k) = props.keyed_state_field {
                        check_key_field(
                            k,
                            &first,
                            IssueAt::Node(id),
                            "UDO keyed state",
                            &mut issues,
                            dg,
                        );
                    }
                    match props.schema_policy {
                        SchemaPolicy::Declared => factory.output_schema(&first),
                        SchemaPolicy::Opaque => {
                            issues.push(SchemaIssue {
                                kind: IssueKind::OpaqueUdo,
                                at: IssueAt::Node(id),
                                message: format!(
                                    "UDO '{}' declares its output schema opaque: inference \
                                     continues on the claimed schema, downstream findings are \
                                     downgraded to hints",
                                    factory.name()
                                ),
                                out_of_bounds: None,
                                downgraded: false,
                            });
                            tainted[id] = true;
                            factory.output_schema(&first)
                        }
                    }
                }
                OpKind::Sink => first,
            };
        }

        // Edge schemas + partitioning-field checks.
        let mut edge = Vec::with_capacity(plan.edges.len());
        for (ei, e) in plan.edges.iter().enumerate() {
            let schema = node_output[e.from].clone();
            if let Partitioning::Hash(fields) = &e.partitioning {
                for &f in fields {
                    check_key_field(
                        f,
                        &schema,
                        IssueAt::Edge(ei),
                        "hash partitioning",
                        &mut issues,
                        tainted[e.from],
                    );
                }
            }
            edge.push(schema);
        }

        Ok(SchemaFlow {
            node_output,
            edge,
            tainted,
            issues,
        })
    }

    /// True when no full-severity error-class issue was found (downgraded
    /// issues don't count: their premise is an unverified opaque claim).
    pub fn is_clean(&self) -> bool {
        !self
            .issues
            .iter()
            .any(|i| i.kind.is_error() && !i.downgraded)
    }

    /// True when every node and every edge carries a non-empty schema —
    /// the completeness invariant the workload generator asserts.
    pub fn is_complete(&self) -> bool {
        self.node_output.iter().all(|s| s.width() > 0) && self.edge.iter().all(|s| s.width() > 0)
    }
}

/// Aggregate-input checks shared by window and session aggregation: the
/// aggregated field must exist and (except under `Count`) be numeric, and
/// time-based windows want a `Timestamp` field for event-time provenance.
fn check_aggregate(
    input: &Schema,
    node: NodeId,
    agg_field: usize,
    func: crate::agg::AggFunc,
    time_based: bool,
    issues: &mut Vec<SchemaIssue>,
    downgraded: bool,
) {
    match input.fields.get(agg_field) {
        None => issues.push(unknown_field(
            IssueAt::Node(node),
            "aggregate",
            agg_field,
            input.width(),
            downgraded,
        )),
        Some(f) if is_stringy(f.ty) && func != crate::agg::AggFunc::Count => {
            issues.push(SchemaIssue {
                kind: IssueKind::NonNumericAggregate,
                at: IssueAt::Node(node),
                message: format!(
                    "{func} over string field '{}': strings aggregate as presence (1.0), \
                     producing numbers that look valid but mean nothing",
                    f.name
                ),
                out_of_bounds: None,
                downgraded,
            });
        }
        Some(_) => {}
    }
    if time_based && !input.fields.iter().any(|f| f.ty == FieldType::Timestamp) {
        issues.push(SchemaIssue {
            kind: IssueKind::EventTimeUntyped,
            at: IssueAt::Node(node),
            message: "time-based window over a stream with no timestamp field: event time rides \
                      only on out-of-band tuple metadata"
                .into(),
            out_of_bounds: None,
            downgraded,
        });
    }
}

/// Output schema of a (keyed) window/session aggregate, with key checks.
fn aggregate_output(
    input: &Schema,
    key_field: Option<usize>,
    node: NodeId,
    issues: &mut Vec<SchemaIssue>,
    downgraded: bool,
) -> Schema {
    let mut fields = Vec::with_capacity(3);
    if let Some(k) = key_field {
        let ty = check_key_field(
            k,
            input,
            IssueAt::Node(node),
            "aggregate key",
            issues,
            downgraded,
        )
        .unwrap_or(FieldType::Int);
        fields.push(Field::new("key", ty));
    }
    fields.push(Field::new("window_end", FieldType::Timestamp));
    fields.push(Field::new("agg", FieldType::Double));
    Schema::new(fields)
}

/// Compact `[name:type, ...]` rendering for issue messages.
fn render(s: &Schema) -> String {
    let inner: Vec<String> = s
        .fields
        .iter()
        .map(|f| format!("{}:{}", f.name, f.ty))
        .collect();
    format!("[{}]", inner.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::AggFunc;
    use crate::udo::{CostProfile, Udo, UdoFactory, UdoProperties};
    use crate::value::{Tuple, Value};
    use crate::window::WindowSpec;
    use crate::PlanBuilder;

    fn named(fields: &[(&str, FieldType)]) -> Schema {
        Schema::new(
            fields
                .iter()
                .map(|&(n, ty)| Field::new(n, ty))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn clean_plan_infers_complete_edges() {
        let plan = PlanBuilder::new()
            .source(
                "s",
                named(&[("id", FieldType::Int), ("v", FieldType::Double)]),
                1,
            )
            .window_agg_keyed("agg", WindowSpec::tumbling_count(4), AggFunc::Sum, 1, 0)
            .sink("k")
            .build()
            .unwrap();
        let flow = SchemaFlow::infer(&plan).unwrap();
        assert!(flow.is_clean(), "{:?}", flow.issues);
        assert!(flow.is_complete());
        assert_eq!(flow.edge.len(), plan.edges.len());
        // Edge into the sink carries [key, window_end, agg].
        assert_eq!(flow.edge[1].width(), 3);
        assert_eq!(flow.edge[1].fields[1].ty, FieldType::Timestamp);

        // A global window drops the key column: [window_end, agg].
        let global = PlanBuilder::new()
            .source(
                "s",
                named(&[("word", FieldType::Str), ("v", FieldType::Double)]),
                1,
            )
            .window_agg_global("agg", WindowSpec::tumbling_count(5), AggFunc::Avg, 1)
            .sink("k")
            .build()
            .unwrap();
        assert_eq!(
            SchemaFlow::infer(&global).unwrap().node_output[1].width(),
            2
        );

        // A join concatenates its left and right inputs.
        let mut b = PlanBuilder::new();
        let left = b.add_node(
            "l",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int, FieldType::Str]),
            },
            1,
        );
        let right = b.add_node(
            "r",
            OpKind::Source {
                schema: Schema::of(&[FieldType::Int, FieldType::Double]),
            },
            1,
        );
        let join = b.add_node(
            "j",
            OpKind::Join {
                window: WindowSpec::tumbling_time(100),
                left_key: 0,
                right_key: 0,
            },
            1,
        );
        let sink = b.add_node("k", OpKind::Sink, 1);
        b.add_edge(left, join, 0, Partitioning::Hash(vec![0]));
        b.add_edge(right, join, 1, Partitioning::Hash(vec![0]));
        b.add_edge(join, sink, 0, Partitioning::Rebalance);
        let flow = SchemaFlow::infer(&b.build().unwrap()).unwrap();
        assert_eq!(flow.node_output[join].width(), 4);
    }

    #[test]
    fn out_of_bounds_predicate_is_unknown_field() {
        let plan = PlanBuilder::new()
            .source("s", named(&[("id", FieldType::Int)]), 1)
            .filter("f", Predicate::cmp(7, CmpOp::Gt, Value::Int(0)), 0.5)
            .sink("k")
            .build_unchecked();
        let flow = SchemaFlow::infer(&plan).unwrap();
        assert!(flow
            .issues
            .iter()
            .any(|i| i.kind == IssueKind::UnknownField));
        assert!(!flow.is_clean());

        // So is a map expression reading past the schema.
        let plan = PlanBuilder::new()
            .source("s", named(&[("id", FieldType::Int)]), 1)
            .map("m", vec![ScalarExpr::Field(5)])
            .sink("k")
            .build_unchecked();
        let flow = SchemaFlow::infer(&plan).unwrap();
        let issue = &flow.issues[0];
        assert_eq!(issue.kind, IssueKind::UnknownField);
        assert_eq!(
            issue.out_of_bounds,
            Some(FieldRead {
                reader: "expression",
                index: 5,
                width: 1
            })
        );
    }

    #[test]
    fn string_aggregate_flagged_unless_count() {
        let mk = |func| {
            PlanBuilder::new()
                .source("s", named(&[("word", FieldType::Str)]), 1)
                .window_agg_keyed("agg", WindowSpec::tumbling_count(4), func, 0, 0)
                .sink("k")
                .build_unchecked()
        };
        let avg = SchemaFlow::infer(&mk(AggFunc::Avg)).unwrap();
        assert!(avg
            .issues
            .iter()
            .any(|i| i.kind == IssueKind::NonNumericAggregate));
        let count = SchemaFlow::infer(&mk(AggFunc::Count)).unwrap();
        assert!(!count
            .issues
            .iter()
            .any(|i| i.kind == IssueKind::NonNumericAggregate));
    }

    #[test]
    fn double_key_hazard_on_agg_and_edge() {
        let plan = PlanBuilder::new()
            .source(
                "s",
                named(&[("price", FieldType::Double), ("v", FieldType::Double)]),
                1,
            )
            .window_agg_keyed("agg", WindowSpec::tumbling_count(4), AggFunc::Sum, 1, 0)
            .set_parallelism(1, 4)
            .sink("k")
            .build()
            .unwrap();
        let flow = SchemaFlow::infer(&plan).unwrap();
        let doubles: Vec<_> = flow
            .issues
            .iter()
            .filter(|i| i.kind == IssueKind::DoubleKey)
            .collect();
        // Once at the aggregate's key, once at the hash edge.
        assert!(doubles.len() >= 2, "{doubles:?}");
        assert!(flow.is_clean(), "double keys are warnings, not errors");
    }

    #[test]
    fn union_schema_mismatch() {
        let mut b = PlanBuilder::new();
        let a = b.add_node(
            "a",
            OpKind::Source {
                schema: named(&[("x", FieldType::Int)]),
            },
            1,
        );
        let c = b.add_node(
            "b",
            OpKind::Source {
                schema: named(&[("x", FieldType::Str)]),
            },
            1,
        );
        let u = b.add_node("u", OpKind::Union, 1);
        let k = b.add_node("k", OpKind::Sink, 1);
        b.add_edge(a, u, 0, Partitioning::Rebalance);
        b.add_edge(c, u, 1, Partitioning::Rebalance);
        b.add_edge(u, k, 0, Partitioning::Rebalance);
        let flow = SchemaFlow::infer(&b.build_unchecked()).unwrap();
        assert!(flow
            .issues
            .iter()
            .any(|i| i.kind == IssueKind::UnionSchemaMismatch));
        assert!(!flow.is_clean());
    }

    struct OpaqueUdo;
    impl Udo for OpaqueUdo {
        fn on_tuple(&mut self, _p: usize, t: Tuple, out: &mut Vec<Tuple>) {
            out.push(t);
        }
    }
    struct OpaqueFactory;
    impl UdoFactory for OpaqueFactory {
        fn name(&self) -> &str {
            "opaque"
        }
        fn create(&self) -> Box<dyn Udo> {
            Box::new(OpaqueUdo)
        }
        fn cost_profile(&self) -> CostProfile {
            CostProfile::stateless(100.0, 1.0)
        }
        fn output_schema(&self, _input: &Schema) -> Schema {
            Schema::of(&[FieldType::Int, FieldType::Str])
        }
        fn properties(&self) -> UdoProperties {
            UdoProperties {
                schema_policy: SchemaPolicy::Opaque,
                ..UdoProperties::default()
            }
        }
    }

    #[test]
    fn opaque_udo_taints_and_downgrades_downstream() {
        let plan = PlanBuilder::new()
            .source("s", named(&[("id", FieldType::Int)]), 1)
            .udo("op", std::sync::Arc::new(OpaqueFactory))
            // Field 5 is out of bounds of the claimed [Int, Str] schema,
            // but the claim is unverified: downgraded finding.
            .filter("f", Predicate::cmp(5, CmpOp::Gt, Value::Int(0)), 0.5)
            .sink("k")
            .build_unchecked();
        let flow = SchemaFlow::infer(&plan).unwrap();
        assert!(flow.issues.iter().any(|i| i.kind == IssueKind::OpaqueUdo));
        let unknown = flow
            .issues
            .iter()
            .find(|i| i.kind == IssueKind::UnknownField)
            .expect("finding still produced");
        assert!(unknown.downgraded, "downstream finding is downgraded");
        assert!(flow.is_clean(), "downgraded errors don't fail the plan");
        assert!(flow.tainted[2] && flow.tainted[3]);
    }

    #[test]
    fn constant_predicate_cross_class() {
        let plan = PlanBuilder::new()
            .source("s", named(&[("id", FieldType::Int)]), 1)
            .filter("f", Predicate::cmp(0, CmpOp::Lt, Value::str("zzz")), 0.5)
            .sink("k")
            .build()
            .unwrap();
        let flow = SchemaFlow::infer(&plan).unwrap();
        assert!(flow
            .issues
            .iter()
            .any(|i| i.kind == IssueKind::ConstantPredicate));
        assert!(flow.is_clean(), "constant predicates are warnings");
    }

    #[test]
    fn split_over_non_string_is_type_mismatch() {
        let plan = PlanBuilder::new()
            .source("s", named(&[("id", FieldType::Int)]), 1)
            .flat_map_split("split", 0)
            .sink("k")
            .build_unchecked();
        let flow = SchemaFlow::infer(&plan).unwrap();
        assert!(flow
            .issues
            .iter()
            .any(|i| i.kind == IssueKind::TypeMismatch));
    }
}
