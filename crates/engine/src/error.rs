//! Engine error types.

use std::fmt;

/// Convenience alias used throughout the engine.
pub type Result<T> = std::result::Result<T, EngineError>;

/// All errors that plan construction, validation, physical expansion, or
/// execution can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The logical plan contains a cycle (dataflow graphs must be DAGs).
    CyclicPlan,
    /// An edge references a node id that does not exist.
    UnknownNode(usize),
    /// An operator received a tuple whose arity does not match its schema.
    SchemaMismatch {
        /// Name of the operator that rejected the tuple.
        operator: String,
        /// Expected number of fields.
        expected: usize,
        /// Observed number of fields.
        actual: usize,
    },
    /// A forward edge connects operators with different parallelism.
    ForwardParallelismMismatch {
        /// Upstream operator name.
        from: String,
        /// Downstream operator name.
        to: String,
        /// Upstream parallelism.
        from_parallelism: usize,
        /// Downstream parallelism.
        to_parallelism: usize,
    },
    /// A hash edge references a key field outside the upstream schema.
    InvalidKeyField {
        /// Operator whose output is being partitioned.
        operator: String,
        /// Offending field index.
        field: usize,
        /// Width of the upstream schema.
        schema_width: usize,
    },
    /// Plan has no source operator.
    NoSource,
    /// Plan has no sink operator.
    NoSink,
    /// Parallelism of zero was requested.
    ZeroParallelism(String),
    /// An expression referenced a field outside the tuple.
    FieldOutOfBounds {
        /// Referenced index.
        index: usize,
        /// Tuple width.
        width: usize,
    },
    /// A plan operator reads a field past its input schema: the refusal of
    /// [`crate::plan::LogicalPlan::validate`], where
    /// [`EngineError::FieldOutOfBounds`] is the one of a running operator.
    FieldPastSchema {
        /// The operator that reads the field.
        operator: String,
        /// What in the operator reads it (`"predicate"`, `"left join key"`, ...).
        reader: &'static str,
        /// Referenced index.
        index: usize,
        /// Width of the operator's input schema.
        width: usize,
    },
    /// A comparison between incompatible value types.
    TypeError(String),
    /// A join operator was wired with the wrong number of inputs.
    JoinArity {
        /// Operator name.
        operator: String,
        /// Number of input edges found.
        inputs: usize,
    },
    /// Runtime failure (worker panic, channel disconnect).
    Execution(String),
    /// Plan validation failed with a free-form reason.
    InvalidPlan(String),
    /// A worker thread panicked; `cause` carries the panic payload when it
    /// was a string.
    WorkerPanicked {
        /// Logical node id of the panicking instance.
        node: usize,
        /// Instance index within the node.
        instance: usize,
        /// Panic message (or a placeholder for non-string payloads).
        cause: String,
    },
    /// A fault injector deliberately killed an operator instance.
    FaultInjected {
        /// Logical node id of the killed instance.
        node: usize,
        /// Instance index within the node.
        instance: usize,
    },
    /// A source operator has incoming edges.
    SourceHasInputs {
        /// Operator name.
        operator: String,
        /// Number of input edges found.
        inputs: usize,
    },
    /// A union operator was wired with fewer than two inputs.
    UnionArity {
        /// Operator name.
        operator: String,
        /// Number of input edges found.
        inputs: usize,
    },
    /// A single-input operator was wired with the wrong number of inputs.
    OperatorArity {
        /// Operator name.
        operator: String,
        /// Number of input edges found.
        inputs: usize,
    },
    /// A non-sink operator has no consumers (its output is dropped).
    DanglingOperator {
        /// Operator name.
        operator: String,
    },
    /// A keyed operator (keyed window aggregate, session window, or
    /// keyed-state UDO) at parallelism > 1 receives input that is not
    /// hash-partitioned on its key, so parallel results would diverge from
    /// sequential execution.
    KeyedPartitionMismatch {
        /// Operator name.
        operator: String,
        /// The key field the operator groups on.
        key_field: usize,
        /// Debug rendering of the offending edge partitioning.
        partitioning: String,
    },
    /// A join input side at parallelism > 1 is not hash-partitioned on
    /// that side's join key.
    JoinPartitionMismatch {
        /// Operator name.
        operator: String,
        /// "left" or "right".
        side: String,
        /// The join key field on that side.
        key_field: usize,
        /// Debug rendering of the offending edge partitioning.
        partitioning: String,
    },
    /// The static plan analyzer refused a deployment (controller deploy
    /// gate): the plan carries error-severity diagnostics.
    AnalysisRejected {
        /// Workload label of the refused deployment.
        workload: String,
        /// Number of error-severity diagnostics.
        errors: usize,
        /// First denied diagnostic, rendered.
        first: String,
    },
    /// Wire-level schema validation (`RunConfig::check_schemas`) caught
    /// frames whose tuples do not match the inferred schema of the edge
    /// they crossed.
    WireSchemaViolation {
        /// Worker id that observed the violations.
        worker: usize,
        /// Number of mismatched tuples seen.
        violations: u64,
        /// First violation, rendered (instance/channel plus tuple vs schema).
        first: String,
    },
    /// A runtime or fault-tolerance configuration value is unusable.
    InvalidConfig(String),
    /// State snapshot or restore failed (serialization error, missing
    /// checkpoint part).
    Checkpoint(String),
    /// A network-transport operation failed (connect, frame read/write,
    /// handshake) in the distributed runtime.
    Transport(String),
    /// The coordinator lost a worker process: its heartbeat lease expired,
    /// its control connection dropped, or it reported a failure.
    WorkerLost {
        /// Worker id assigned at spawn.
        worker: usize,
        /// What the failure detector observed.
        detail: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::CyclicPlan => write!(f, "logical plan contains a cycle"),
            EngineError::UnknownNode(id) => write!(f, "edge references unknown node {id}"),
            EngineError::SchemaMismatch {
                operator,
                expected,
                actual,
            } => write!(
                f,
                "operator '{operator}' expected tuples of width {expected}, got {actual}"
            ),
            EngineError::ForwardParallelismMismatch {
                from,
                to,
                from_parallelism,
                to_parallelism,
            } => write!(
                f,
                "forward edge {from} -> {to} requires equal parallelism \
                 ({from_parallelism} != {to_parallelism})"
            ),
            EngineError::InvalidKeyField {
                operator,
                field,
                schema_width,
            } => write!(
                f,
                "hash partitioning on '{operator}' uses field {field} but schema width is {schema_width}"
            ),
            EngineError::NoSource => write!(f, "plan has no source operator"),
            EngineError::NoSink => write!(f, "plan has no sink operator"),
            EngineError::ZeroParallelism(name) => {
                write!(f, "operator '{name}' has parallelism 0")
            }
            EngineError::FieldOutOfBounds { index, width } => {
                write!(f, "expression references field {index} in tuple of width {width}")
            }
            EngineError::FieldPastSchema {
                operator,
                reader,
                index,
                width,
            } => write!(
                f,
                "operator '{operator}': {reader} reads field {index} but the input schema has only {width} field(s)"
            ),
            EngineError::TypeError(msg) => write!(f, "type error: {msg}"),
            EngineError::JoinArity { operator, inputs } => {
                write!(f, "join operator '{operator}' requires 2 inputs, found {inputs}")
            }
            EngineError::Execution(msg) => write!(f, "execution failed: {msg}"),
            EngineError::InvalidPlan(msg) => write!(f, "invalid plan: {msg}"),
            EngineError::WorkerPanicked {
                node,
                instance,
                cause,
            } => write!(
                f,
                "worker for node {node} instance {instance} panicked: {cause}"
            ),
            EngineError::FaultInjected { node, instance } => {
                write!(f, "injected fault killed node {node} instance {instance}")
            }
            EngineError::SourceHasInputs { operator, inputs } => {
                write!(f, "source '{operator}' has {inputs} inputs, expected 0")
            }
            EngineError::UnionArity { operator, inputs } => {
                write!(f, "union '{operator}' has {inputs} inputs, needs at least 2")
            }
            EngineError::OperatorArity { operator, inputs } => {
                write!(f, "operator '{operator}' has {inputs} inputs, expected 1")
            }
            EngineError::DanglingOperator { operator } => {
                write!(f, "non-sink operator '{operator}' has no consumers")
            }
            EngineError::KeyedPartitionMismatch {
                operator,
                key_field,
                partitioning,
            } => write!(
                f,
                "keyed operator '{operator}' (key field {key_field}) at parallelism > 1 \
                 receives {partitioning}-partitioned input; hash-partition on the key to \
                 keep parallel results equal to sequential ones"
            ),
            EngineError::JoinPartitionMismatch {
                operator,
                side,
                key_field,
                partitioning,
            } => write!(
                f,
                "join '{operator}' {side} input (key field {key_field}) at parallelism > 1 \
                 receives {partitioning}-partitioned input; matching keys would land on \
                 different instances"
            ),
            EngineError::AnalysisRejected {
                workload,
                errors,
                first,
            } => write!(
                f,
                "static analysis rejected deployment of '{workload}': {errors} error(s); \
                 first: {first}"
            ),
            EngineError::WireSchemaViolation {
                worker,
                violations,
                first,
            } => write!(
                f,
                "wire schema check failed on worker {worker}: {violations} mismatched \
                 tuple(s); first: {first}"
            ),
            EngineError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            EngineError::Checkpoint(msg) => write!(f, "checkpoint failure: {msg}"),
            EngineError::Transport(msg) => write!(f, "transport failure: {msg}"),
            EngineError::WorkerLost { worker, detail } => {
                write!(f, "worker {worker} lost: {detail}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_operator_names() {
        let err = EngineError::ForwardParallelismMismatch {
            from: "filter".into(),
            to: "agg".into(),
            from_parallelism: 2,
            to_parallelism: 4,
        };
        let text = err.to_string();
        assert!(text.contains("filter"));
        assert!(text.contains("agg"));
        assert!(text.contains('2'));
        assert!(text.contains('4'));
    }

    #[test]
    fn errors_are_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&EngineError::CyclicPlan);
    }

    #[test]
    fn display_is_distinct_per_variant() {
        let variants = [
            EngineError::CyclicPlan.to_string(),
            EngineError::NoSource.to_string(),
            EngineError::NoSink.to_string(),
            EngineError::UnknownNode(3).to_string(),
            EngineError::ZeroParallelism("x".into()).to_string(),
        ];
        for (i, a) in variants.iter().enumerate() {
            for b in variants.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
