//! Fraud Detection (FD) — the DSPBench finance application: a first-order
//! Markov model over per-account transaction-type sequences scores how
//! improbable each new transaction is; improbable sequences are flagged.

use crate::common::{named_schema, AppConfig, Application, BuiltApp, ClosureStream};
use crate::registry::AppInfo;
use pdsp_engine::expr::{CmpOp, Predicate};
use pdsp_engine::udo::{CostProfile, Udo, UdoFactory, UdoProperties};
use pdsp_engine::value::{FieldType, Row, Schema, Tuple, Value};
use pdsp_engine::PlanBuilder;
use std::collections::HashMap;
use std::sync::Arc;

/// Transaction types the model distinguishes.
pub const TXN_TYPES: usize = 5;

/// Markov-model fraud scorer: score = -log P(next | prev) under a
/// per-account transition model learned online (Laplace-smoothed counts).
pub struct FraudScorer;

struct ScorerState {
    /// account -> (last_type, transition counts).
    accounts: HashMap<i64, (usize, [[u32; TXN_TYPES]; TXN_TYPES])>,
}

impl Udo for ScorerState {
    fn on_tuple(&mut self, _port: usize, tuple: Tuple, out: &mut Vec<Tuple>) {
        // Input: [account, txn_type, amount].
        let (Some(account), Some(txn)) = (
            tuple.values.first().and_then(Value::as_i64),
            tuple.values.get(1).and_then(Value::as_i64),
        ) else {
            return;
        };
        let txn = (txn as usize).min(TXN_TYPES - 1);
        let entry = self
            .accounts
            .entry(account)
            .or_insert((txn, [[0u32; TXN_TYPES]; TXN_TYPES]));
        let (prev, counts) = (entry.0, &mut entry.1);
        let row_total: u32 = counts[prev].iter().sum();
        // Laplace-smoothed transition probability.
        let p = (counts[prev][txn] as f64 + 1.0) / (row_total as f64 + TXN_TYPES as f64);
        let score = -p.ln();
        counts[prev][txn] += 1;
        entry.0 = txn;
        out.push(Tuple {
            values: Row::from([
                Value::Int(account),
                Value::Int(txn as i64),
                tuple.values.get(2).cloned().unwrap_or(Value::Double(0.0)),
                Value::Double(score),
            ]),
            event_time: tuple.event_time,
            emit_ns: tuple.emit_ns,
        });
    }
}

impl UdoFactory for FraudScorer {
    fn name(&self) -> &str {
        "markov-fraud-scorer"
    }
    fn create(&self) -> Box<dyn Udo> {
        Box::new(ScorerState {
            accounts: HashMap::new(),
        })
    }
    fn cost_profile(&self) -> CostProfile {
        CostProfile::stateful(22_000.0, 1.0, 2.0)
    }
    fn output_schema(&self, _input: &Schema) -> Schema {
        named_schema(&[
            ("account", FieldType::Int),
            ("txn_type", FieldType::Int),
            ("amount", FieldType::Double),
            ("fraud_score", FieldType::Double),
        ])
    }
    fn properties(&self) -> UdoProperties {
        // A fixed-size Markov transition matrix per account id (input
        // field 0); the plan hash-partitions on it.
        UdoProperties {
            stateful: true,
            keyed_state_field: Some(0),
            ..UdoProperties::default()
        }
    }
}

/// The Fraud Detection application.
pub struct FraudDetection;

impl Application for FraudDetection {
    fn info(&self) -> AppInfo {
        AppInfo {
            acronym: "FD",
            name: "Fraud Detection",
            area: "Finance",
            description: "Markov-model scoring of per-account transaction sequences",
            uses_udo: true,
            sources: 1,
        }
    }

    fn build(&self, config: &AppConfig) -> BuiltApp {
        use rand::Rng;
        // [account, txn_type, amount]
        let schema = named_schema(&[
            ("account", FieldType::Int),
            ("txn_type", FieldType::Int),
            ("amount", FieldType::Double),
        ]);
        let source = ClosureStream::new(schema.clone(), config, |i, rng| {
            let account = (i % 100) as i64;
            // Regular accounts cycle types 0->1->2 predictably; 1% of
            // events jump to a random type (potential fraud).
            let txn = if rng.gen_bool(0.01) {
                rng.gen_range(0..TXN_TYPES as i64)
            } else {
                (i / 100 % 3) as i64
            };
            Row::from([
                Value::Int(account),
                Value::Int(txn),
                Value::Double(rng.gen_range(1.0..5_000.0)),
            ])
        });
        let plan = PlanBuilder::new()
            .source("transactions", schema, 1)
            .chain(
                "score",
                pdsp_engine::operator::udo_op(Arc::new(FraudScorer)),
                Some(pdsp_engine::Partitioning::Hash(vec![0])),
            )
            .filter(
                "suspicious",
                Predicate::cmp(3, CmpOp::Gt, Value::Double(1.55)),
                0.05,
            )
            .sink("sink")
            .build()
            .expect("fraud detection plan is valid");
        BuiltApp {
            plan,
            sources: vec![source],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdsp_engine::physical::PhysicalPlan;
    use pdsp_engine::runtime::{RunConfig, ThreadedRuntime};

    fn feed(s: &mut ScorerState, account: i64, txn: i64) -> f64 {
        let mut out = Vec::new();
        s.on_tuple(
            0,
            Tuple::new(vec![
                Value::Int(account),
                Value::Int(txn),
                Value::Double(10.0),
            ]),
            &mut out,
        );
        out[0].values[3].as_f64().unwrap()
    }

    #[test]
    fn learned_transitions_score_low() {
        let mut s = ScorerState {
            accounts: HashMap::new(),
        };
        // Train the 0 -> 1 -> 0 -> 1 ... alternation; the last fed type is
        // 1 (i = 99), so the learned continuation is 0.
        for i in 0..100 {
            feed(&mut s, 1, i % 2);
        }
        let usual = feed(&mut s, 1, 0);
        // Now at state 0; jumping to type 4 was never observed.
        let unusual = feed(&mut s, 1, 4);
        assert!(
            unusual > usual * 2.0,
            "surprise txn {unusual} should dominate usual {usual}"
        );
    }

    #[test]
    fn accounts_have_independent_models() {
        let mut s = ScorerState {
            accounts: HashMap::new(),
        };
        for _ in 0..50 {
            feed(&mut s, 1, 0); // account 1 always 0->0
        }
        // Account 2's first self-loop is unlearned: higher surprise.
        let a1 = feed(&mut s, 1, 0);
        let a2 = feed(&mut s, 2, 0);
        assert!(a2 > a1);
    }

    #[test]
    fn runs_end_to_end_with_low_flag_rate() {
        let cfg = AppConfig {
            total_tuples: 10_000,
            ..AppConfig::default()
        };
        let built = FraudDetection.build(&cfg);
        let phys = PhysicalPlan::expand(&built.plan).unwrap();
        let res = ThreadedRuntime::new(RunConfig::default())
            .run(&phys, &built.sources)
            .unwrap();
        let rate = res.tuples_out as f64 / res.tuples_in as f64;
        assert!(rate < 0.30, "most traffic is legitimate, flagged {rate}");
        assert!(res.tuples_out > 0, "injected anomalies must be flagged");
    }
}
