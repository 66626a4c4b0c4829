//! Driver helpers for RS-Paxos clusters.

use std::ops::{Deref, DerefMut};

use paxos::Cluster;
use simnet::NetworkConfig;

use crate::service::{RsConfig, RsService};

/// An RS-Paxos storage cluster under simulation: a [`Cluster`] of
/// [`RsService`] replicas (every driver helper is the shared one) built
/// from an [`RsConfig`]. A replacement instance taking over a crashed
/// slot's shard index is [`Cluster::restart_pristine`]; it recovers the
/// log via catch-up.
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
