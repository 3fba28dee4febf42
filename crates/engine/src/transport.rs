//! Pluggable data-plane transport.
//!
//! Every runtime hands its worker loops a set of [`Sender`] endpoints, one
//! per downstream physical instance. Where those senders deliver is the
//! transport's business: a [`SenderTable`] labelled "local" returns the
//! real in-process channel senders (the threaded and fault-tolerant
//! runtimes), while a distributed worker's table, labelled "tcp", returns
//! proxy senders for remote instances, whose frames are serialized onto a
//! TCP connection to the worker hosting the target instance. The worker
//! loops — and the [`crate::batch::EdgeBatcher`] hot path — are transport
//! agnostic: they only ever see `Sender<Envelope>`.

use crate::error::{EngineError, Result};
use crate::physical::OutRoute;
use crate::runtime::Envelope;
use crossbeam_channel::Sender;

/// A source of per-instance delivery endpoints. See the module docs.
pub(crate) trait Transport: Send + Sync {
    /// Sender delivering into `instance`'s input queue, wherever that
    /// instance lives.
    fn sender(&self, instance: usize) -> Option<Sender<Envelope>>;

    /// Label for diagnostics ("local", "tcp").
    fn kind(&self) -> &'static str;

    /// Materialize the per-route downstream sender matrix for one
    /// instance's out-routes — the shape the worker loops and
    /// [`crate::batch::EdgeBatcher`] consume.
    fn downstream_for(&self, routes: &[OutRoute]) -> Result<Vec<Vec<Sender<Envelope>>>> {
        let mut downstream = Vec::with_capacity(routes.len());
        for r in routes {
            let mut txs = Vec::with_capacity(r.targets.len());
            for t in r.targets.iter() {
                let tx = self.sender(t.instance).ok_or_else(|| {
                    EngineError::Execution(format!(
                        "internal routing error: {} transport has no endpoint for instance {}",
                        self.kind(),
                        t.instance
                    ))
                })?;
                txs.push(tx);
            }
            downstream.push(txs);
        }
        Ok(downstream)
    }
}

/// Transport over a table of senders indexed by instance id, `None` where
/// an instance has no endpoint. Dropping the transport drops the engine's
/// copies of the senders, so receivers observe disconnects when workers die.
pub(crate) struct SenderTable {
    pub(crate) senders: Vec<Option<Sender<Envelope>>>,
    pub(crate) kind: &'static str,
}

impl Transport for SenderTable {
    fn sender(&self, instance: usize) -> Option<Sender<Envelope>> {
        self.senders.get(instance).and_then(Option::clone)
    }

    fn kind(&self) -> &'static str {
        self.kind
    }
}
