//! Driver helpers for RS-Paxos clusters.

use std::ops::{Deref, DerefMut};

use paxos::Cluster;
use simnet::{NetworkConfig, NodeId};

use crate::service::{RsConfig, RsService};

/// An RS-Paxos storage cluster under simulation: a [`Cluster`] of
/// [`RsService`] replicas (every driver helper is the shared one) built
/// from an [`RsConfig`].
pub struct RsCluster(Cluster<RsService>);

impl RsCluster {
    /// Build a θ(m, n) storage cluster of `n` replicas.
    pub fn new(n: usize, cfg: RsConfig, net: NetworkConfig, seed: u64) -> Self {
        assert!(n >= cfg.m, "need at least m replicas");
        RsCluster(Cluster::with_service(
            n,
            RsService::new(&cfg, n),
            cfg.core(),
            net,
            seed,
        ))
    }

    /// Restart a crashed replica slot (a replacement instance taking over
    /// the same shard index; it recovers the log via catch-up).
    pub fn restart(&mut self, id: NodeId) {
        self.0.restart_pristine(id);
    }
}

impl Deref for RsCluster {
    type Target = Cluster<RsService>;

    fn deref(&self) -> &Cluster<RsService> {
        &self.0
    }
}

impl DerefMut for RsCluster {
    fn deref_mut(&mut self) -> &mut Cluster<RsService> {
        &mut self.0
    }
}
