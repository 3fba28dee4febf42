//! User-defined operators (UDOs).
//!
//! The real-world applications in PDSP-Bench (Table 2) mix standard SPS
//! operators with custom logic — outlier scoring, sentiment classification,
//! toll accounting, … The paper's observation O3 hinges on the distinction:
//! standard operators scale predictably, UDOs carry state/coordination costs
//! that make scaling non-linear. A UDO therefore also publishes a
//! [`CostProfile`] that the cluster simulator uses in place of the built-in
//! operator cost table.

use crate::value::{Schema, Tuple};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Simulation-facing cost description of an operator.
///
/// Units are chosen so built-in operators and UDOs are directly comparable:
/// `cpu_ns_per_tuple` is the per-tuple service demand on a 1 GHz reference
/// core (the simulator divides by the node's clock), `selectivity` is the
/// expected output/input tuple ratio, and `state_factor` scales the
/// parallelism-coordination overhead (stateful operators pay more for
/// synchronization as instances multiply — the mechanism behind O2/O3).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostProfile {
    /// Per-tuple CPU demand in nanoseconds on a 1 GHz reference core.
    pub cpu_ns_per_tuple: f64,
    /// Expected output tuples per input tuple.
    pub selectivity: f64,
    /// Relative statefulness in [0, ~4]: 0 = stateless map/filter,
    /// 1 = windowed aggregation, 2+ = join-like or heavily stateful UDO.
    pub state_factor: f64,
}

impl CostProfile {
    /// A stateless operator profile.
    pub fn stateless(cpu_ns_per_tuple: f64, selectivity: f64) -> Self {
        CostProfile {
            cpu_ns_per_tuple,
            selectivity,
            state_factor: 0.0,
        }
    }

    /// A stateful operator profile.
    pub fn stateful(cpu_ns_per_tuple: f64, selectivity: f64, state_factor: f64) -> Self {
        CostProfile {
            cpu_ns_per_tuple,
            selectivity,
            state_factor,
        }
    }
}

/// How much the schema-inference pass may trust a UDO's declared
/// [`UdoFactory::output_schema`].
///
/// Inference cannot look inside a UDO closure, so the factory's schema
/// declaration is the only bridge across it. The policy states how firm
/// that bridge is: `Declared` is a verified contract (a pass-through UDO
/// declares it by returning its input schema), and `Opaque` is the escape
/// hatch for operators whose output layout genuinely depends on runtime
/// data — inference keeps going with the claimed schema, but every
/// downstream schema finding is downgraded to a hint because its premise
/// is unverified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchemaPolicy {
    /// `output_schema` is a verified contract: inference trusts it fully
    /// and downstream findings keep their full severity.
    Declared,
    /// `output_schema` is a best-effort claim. Inference continues with it
    /// but marks everything downstream as tainted, downgrading later
    /// schema findings to hints.
    Opaque,
}

/// Statically declared semantic properties of a UDO.
///
/// The engine cannot look inside a UDO closure, so correctness-relevant
/// facts (is the state keyed? does the operator need to see the whole
/// stream?) must be declared by the factory. `LogicalPlan::validate` and
/// the `pdsp-analyze` lint passes consume these declarations; the defaults
/// are the optimistic stateless-pure-function reading, so factories with
/// interesting semantics should override [`UdoFactory::properties`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UdoProperties {
    /// Output depends only on input order and content (no clocks, RNGs, or
    /// external reads). Non-deterministic UDOs break checkpoint replay.
    pub deterministic: bool,
    /// The operator writes to the outside world (files, sockets, ...);
    /// replay after recovery duplicates those effects.
    pub side_effecting: bool,
    /// The operator keeps mutable cross-tuple state. Defaults to the cost
    /// profile's view (`state_factor > 0`).
    pub stateful: bool,
    /// State is partitioned by this input field: tuples sharing the field
    /// value must be routed to the same instance for parallel execution to
    /// match sequential execution.
    pub keyed_state_field: Option<usize>,
    /// The operator must observe the complete stream (global top-k,
    /// global distinct-count): only parallelism 1 (or broadcast
    /// replication) computes the sequential answer.
    pub requires_global_view: bool,
    /// Per-instance state is an approximation whose output quality is
    /// acceptable under any input partitioning (e.g. a per-partition
    /// median baseline standing in for the global one). Suppresses the
    /// partitioning lints that `stateful` would otherwise trigger.
    pub partition_tolerant: bool,
    /// State size is bounded (ring buffer, windowed eviction, TTL).
    /// `false` means state grows with the input and will eventually
    /// exhaust memory in a long-running deployment.
    pub bounded_state: bool,
    /// How firmly the factory's [`UdoFactory::output_schema`] may be
    /// trusted by schema inference (see [`SchemaPolicy`]).
    pub schema_policy: SchemaPolicy,
}

impl Default for UdoProperties {
    fn default() -> Self {
        UdoProperties {
            deterministic: true,
            side_effecting: false,
            stateful: false,
            keyed_state_field: None,
            requires_global_view: false,
            partition_tolerant: false,
            bounded_state: true,
            schema_policy: SchemaPolicy::Declared,
        }
    }
}

/// One running instance of a user-defined operator.
///
/// Implementations hold per-instance state; the engine creates one via
/// [`UdoFactory::create`] for every parallel instance.
pub trait Udo: Send {
    /// Process one input tuple from the given input port.
    fn on_tuple(&mut self, port: usize, tuple: Tuple, out: &mut Vec<Tuple>);

    /// Process a whole micro-batch from the given input port. The default
    /// loops [`Udo::on_tuple`]; override when a batch can be processed more
    /// cheaply.
    fn on_batch(&mut self, port: usize, tuples: Vec<Tuple>, out: &mut Vec<Tuple>) {
        for t in tuples {
            self.on_tuple(port, t, out);
        }
    }

    /// Observe a watermark (event-time ms). Default: ignore.
    fn on_watermark(&mut self, _watermark: i64, _out: &mut Vec<Tuple>) {}

    /// End-of-stream: flush any buffered state. Default: nothing.
    fn on_flush(&mut self, _out: &mut Vec<Tuple>) {}
}

/// Factory for a user-defined operator: describes it (name, schema, cost)
/// and creates per-instance state.
pub trait UdoFactory: Send + Sync {
    /// Stable operator name (appears in plans, features, and reports).
    fn name(&self) -> &str;

    /// Create one instance's state.
    fn create(&self) -> Box<dyn Udo>;

    /// Cost profile for the simulator and rule-based enumerator.
    fn cost_profile(&self) -> CostProfile;

    /// Output schema given the input schema.
    fn output_schema(&self, input: &Schema) -> Schema;

    /// Declared semantic properties. The default derives `stateful` from
    /// the cost profile and assumes a deterministic, effect-free,
    /// bounded-state operator with no keying requirement; override for
    /// anything more interesting.
    fn properties(&self) -> UdoProperties {
        UdoProperties {
            stateful: self.cost_profile().state_factor > 0.0,
            ..UdoProperties::default()
        }
    }
}

/// Shared handle to a UDO factory, cloneable into every plan copy.
pub type UdoRef = Arc<dyn UdoFactory>;

impl fmt::Debug for dyn UdoFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Udo({})", self.name())
    }
}

/// A stateless UDO defined by a plain function — convenient for map-like
/// custom logic in applications and tests.
pub struct FnUdo<F> {
    name: String,
    cost: CostProfile,
    out_schema_fn: fn(&Schema) -> Schema,
    f: F,
}

impl<F> FnUdo<F>
where
    F: Fn(Tuple, &mut Vec<Tuple>) + Send + Sync + Clone + 'static,
{
    /// Build a function-backed UDO factory.
    pub fn new(
        name: impl Into<String>,
        cost: CostProfile,
        out_schema_fn: fn(&Schema) -> Schema,
        f: F,
    ) -> Arc<Self> {
        Arc::new(FnUdo {
            name: name.into(),
            cost,
            out_schema_fn,
            f,
        })
    }
}

struct FnUdoInstance<F> {
    f: F,
}

impl<F> Udo for FnUdoInstance<F>
where
    F: Fn(Tuple, &mut Vec<Tuple>) + Send,
{
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        (self.f)(tuple, out);
    }
}

impl<F> UdoFactory for FnUdo<F>
where
    F: Fn(Tuple, &mut Vec<Tuple>) + Send + Sync + Clone + 'static,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn create(&self) -> Box<dyn Udo> {
        Box::new(FnUdoInstance { f: self.f.clone() })
    }

    fn cost_profile(&self) -> CostProfile {
        self.cost
    }

    fn output_schema(&self, input: &Schema) -> Schema {
        (self.out_schema_fn)(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{FieldType, Value};

    #[test]
    fn fn_udo_roundtrip() {
        let udo = FnUdo::new(
            "double-it",
            CostProfile::stateless(100.0, 1.0),
            |s: &Schema| s.clone(),
            |t: Tuple, out: &mut Vec<Tuple>| {
                let v = t.values[0].as_f64().unwrap() * 2.0;
                out.push(Tuple::new(vec![Value::Double(v)]));
            },
        );
        assert_eq!(udo.name(), "double-it");
        let mut inst = udo.create();
        let mut out = Vec::new();
        inst.on_tuple(0, Tuple::new(vec![Value::Int(21)]), &mut out);
        assert_eq!(out[0].values[0], Value::Double(42.0));
    }

    #[test]
    fn instances_are_independent() {
        // Each create() yields independent state; verify via a counting UDO.
        struct Counter {
            n: u64,
        }
        impl Udo for Counter {
            fn on_tuple(&mut self, _p: usize, _t: Tuple, out: &mut Vec<Tuple>) {
                self.n += 1;
                out.push(Tuple::new(vec![Value::Int(self.n as i64)]));
            }
        }
        struct CounterFactory;
        impl UdoFactory for CounterFactory {
            fn name(&self) -> &str {
                "counter"
            }
            fn create(&self) -> Box<dyn Udo> {
                Box::new(Counter { n: 0 })
            }
            fn cost_profile(&self) -> CostProfile {
                CostProfile::stateful(200.0, 1.0, 1.0)
            }
            fn output_schema(&self, _input: &Schema) -> Schema {
                Schema::of(&[FieldType::Int])
            }
        }
        let f = CounterFactory;
        let (mut a, mut b) = (f.create(), f.create());
        let mut out = Vec::new();
        a.on_tuple(0, Tuple::new(vec![]), &mut out);
        a.on_tuple(0, Tuple::new(vec![]), &mut out);
        b.on_tuple(0, Tuple::new(vec![]), &mut out);
        assert_eq!(out[1].values[0], Value::Int(2));
        assert_eq!(out[2].values[0], Value::Int(1), "b has fresh state");
    }

    #[test]
    fn default_properties_derive_statefulness_from_cost() {
        let pure = FnUdo::new(
            "pure",
            CostProfile::stateless(10.0, 1.0),
            |s: &Schema| s.clone(),
            |t: Tuple, out: &mut Vec<Tuple>| out.push(t),
        );
        assert!(!pure.properties().stateful);
        assert!(pure.properties().deterministic);
        assert!(pure.properties().bounded_state);
        let heavy = FnUdo::new(
            "heavy",
            CostProfile::stateful(10.0, 1.0, 2.0),
            |s: &Schema| s.clone(),
            |t: Tuple, out: &mut Vec<Tuple>| out.push(t),
        );
        assert!(heavy.properties().stateful);
        assert_eq!(heavy.properties().keyed_state_field, None);
    }

    #[test]
    fn cost_profile_constructors() {
        let s = CostProfile::stateless(10.0, 0.5);
        assert_eq!(s.state_factor, 0.0);
        let f = CostProfile::stateful(10.0, 1.0, 2.0);
        assert_eq!(f.state_factor, 2.0);
    }
}
