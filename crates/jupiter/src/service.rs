//! Service deployment specifications.

use quorum::{solve::node_failure_pr, QuorumRule};
use spot_market::InstanceType;
use spot_model::ON_DEMAND_FP;

/// What kind of distributed service is being bid for.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceSpec {
    /// Human-readable name (reports only).
    pub name: String,
    /// The instance type every replica runs on.
    pub instance_type: InstanceType,
    /// Node count of the on-demand baseline deployment (the paper uses 5).
    pub baseline_nodes: usize,
    /// The quorum rule of the replication protocol.
    pub quorum: QuorumRule,
    /// Acceptable availability slack ε (constraint 10); the paper suggests
    /// 1e-6.
    pub epsilon: f64,
    /// The instance-type pools replicas may be placed in. Empty (the
    /// default) means the single-type deployment `[instance_type]`, the
    /// paper's setup. With ≥2 types the optimizer chooses a *type mix*
    /// per zone.
    pub pool_types: Vec<InstanceType>,
    /// Minimum capacity-weighted fleet strength (Σ
    /// [`InstanceType::capacity_weight`] over chosen replicas) a decision
    /// must reach. `0` disables the constraint; the auto-scaler re-targets
    /// this each interval from observed load.
    pub min_strength: u32,
    /// Prefer spreading replicas across *zones* when selecting pools.
    /// Off by default: the cheapest pools are taken outright. The replay
    /// framework turns it on under `BidEra::CapacityReclaim`, where
    /// same-zone pools share capacity crunches and cross-zone pools have
    /// independent interruption processes. With one pool per zone both
    /// orders pick the same pools.
    pub diversify: bool,
}

impl ServiceSpec {
    /// The paper's distributed lock service: 5 × `m1.small`, majority
    /// quorums (tolerates 2 failures).
    pub fn lock_service() -> Self {
        ServiceSpec {
            name: "lock-service".into(),
            instance_type: InstanceType::M1Small,
            baseline_nodes: 5,
            quorum: QuorumRule::Majority,
            epsilon: 1e-6,
            pool_types: Vec::new(),
            min_strength: 0,
            diversify: false,
        }
    }

    /// The paper's erasure-coded storage service: 5 × `m3.large`,
    /// RS-Paxos θ(3,5) quorums (tolerates 1 failure).
    pub fn storage_service() -> Self {
        ServiceSpec {
            name: "storage-service".into(),
            instance_type: InstanceType::M3Large,
            baseline_nodes: 5,
            quorum: QuorumRule::RsPaxos { m: 3 },
            epsilon: 1e-6,
            pool_types: Vec::new(),
            min_strength: 0,
            diversify: false,
        }
    }

    /// Open `types` as placement pools (builder style). The first listed
    /// type becomes the nominal `instance_type` for single-type fallbacks.
    pub fn with_pools(mut self, types: &[InstanceType]) -> Self {
        assert!(!types.is_empty(), "need at least one pool type");
        self.instance_type = types[0];
        self.pool_types = types.to_vec();
        self
    }

    /// Require a capacity-weighted fleet strength of at least `strength`
    /// (builder style).
    pub fn with_min_strength(mut self, strength: u32) -> Self {
        self.min_strength = strength;
        self
    }

    /// Toggle zone-diversified pool selection (builder style); see
    /// [`ServiceSpec::diversify`].
    pub fn with_diversify(mut self, diversify: bool) -> Self {
        self.diversify = diversify;
        self
    }

    /// The effective pool list: `pool_types`, or `[instance_type]` when no
    /// pools were opened.
    pub fn pools(&self) -> Vec<InstanceType> {
        if self.pool_types.is_empty() {
            vec![self.instance_type]
        } else {
            self.pool_types.clone()
        }
    }

    /// Whether this spec is heterogeneous (≥2 pool types or a strength
    /// floor): its replays record the per-type fleet series and name the
    /// price and bid series by zone and type, and `repro` replays it on
    /// the mixed-type market.
    pub fn is_hetero(&self) -> bool {
        self.pool_types.len() > 1 || self.min_strength > 0
    }

    /// The availability of the on-demand baseline — the right-hand side of
    /// constraint (10): `baseline_nodes` on-demand instances, each failing
    /// with the paper's `FP⁰` = [`ON_DEMAND_FP`]. For the lock service this
    /// is the paper's 0.9999901494.
    pub fn baseline_availability(&self) -> f64 {
        let k = self.quorum.quorum_size(self.baseline_nodes);
        quorum::threshold_availability(&vec![ON_DEMAND_FP; self.baseline_nodes], k)
    }

    /// The availability a spot deployment must reach (baseline − ε).
    pub fn availability_target(&self) -> f64 {
        self.baseline_availability() - self.epsilon
    }

    /// The per-node failure-probability target for an `n`-node spot
    /// deployment (Fig. 3, line 4), or `None` if `n` cannot reach the
    /// target under this quorum rule.
    pub fn node_fp_target(&self, n: usize) -> Option<f64> {
        if n < self.quorum.min_nodes() {
            return None;
        }
        let k = self.quorum.quorum_size(n);
        if k > n {
            return None;
        }
        node_failure_pr(n, k, self.availability_target()).filter(|p| *p > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_service_baseline_matches_paper() {
        let spec = ServiceSpec::lock_service();
        let a = spec.baseline_availability();
        assert!((a - 0.9999901494).abs() < 1e-9, "got {a}");
    }

    #[test]
    fn storage_service_is_less_available_than_lock() {
        // θ(3,5) tolerates one failure: availability below the lock
        // service's at the same per-node FP.
        let lock = ServiceSpec::lock_service().baseline_availability();
        let store = ServiceSpec::storage_service().baseline_availability();
        assert!(store < lock);
        assert!(store > 0.999, "still highly available: {store}");
    }

    #[test]
    fn node_fp_targets() {
        let spec = ServiceSpec::lock_service();
        // With 5 nodes, the per-node FP target sits just above 0.01 (the
        // ε slack loosens the baseline's 0.01 slightly).
        let p5 = spec.node_fp_target(5).unwrap();
        assert!((0.01..0.012).contains(&p5), "got {p5}");
        // More nodes, looser target.
        let p7 = spec.node_fp_target(7).unwrap();
        assert!(p7 > p5);
        // Fewer nodes, tighter.
        let p3 = spec.node_fp_target(3).unwrap();
        assert!(p3 < p5);
    }

    #[test]
    fn storage_spec_minimum_nodes() {
        let spec = ServiceSpec::storage_service();
        assert_eq!(spec.node_fp_target(2), None, "below m=3");
        assert!(spec.node_fp_target(3).is_some());
    }
}
