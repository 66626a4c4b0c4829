//! Scenario fixtures shared by the integration suites: the synthetic
//! markets and protocol clusters the tests previously each hand-rolled.

use jupiter::{ExtraStrategy, ModelStore, ServiceSpec};
use obs::Obs;
use paxos::{Cluster, LockService, ReplicaConfig};
use replay::{RepairConfig, Replay, ReplayConfig, ReplayResult};
use simnet::NetworkConfig;
use spot_market::{InstanceType, Market, MarketConfig};
use storage::{RsCluster, RsConfig};

/// A small paper-parameterized market: `weeks` of history across the
/// first `zones` availability zones, m1.small only.
pub fn quick_market(seed: u64, weeks: u64, zones: usize) -> Market {
    let mut cfg = MarketConfig::paper(seed, weeks * 7 * 24 * 60);
    cfg.zones.truncate(zones.max(1));
    cfg.types = vec![InstanceType::M1Small];
    Market::generate(cfg)
}

/// A day-granularity market for property tests; `zones` is clamped to
/// the 2–8 range the replay engine is exercised at.
pub fn market_days(seed: u64, zones: usize, days: u64) -> Market {
    let mut cfg = MarketConfig::paper(seed, days * 24 * 60);
    cfg.zones.truncate(zones.clamp(2, 8));
    cfg.types = vec![InstanceType::M1Small];
    Market::generate(cfg)
}

/// A day-granularity heterogeneous market: the paper-parameterized
/// per-type price processes ([`MarketConfig::hetero_paper`]) across all
/// four instance types, with `zones` clamped to the 2–8 range.
pub fn hetero_market_days(seed: u64, zones: usize, days: u64) -> Market {
    let mut cfg = MarketConfig::hetero_paper(seed, days * 24 * 60);
    cfg.zones.truncate(zones.clamp(2, 8));
    Market::generate(cfg)
}

/// A `n`-replica Paxos lock-service cluster on the default WAN model,
/// with the given replica configuration (pass
/// [`ReplicaConfig::default`] unless the test needs otherwise).
pub fn lock_cluster(n: usize, cfg: ReplicaConfig, seed: u64) -> Cluster<LockService> {
    Cluster::new(n, LockService::new(), cfg, NetworkConfig::default(), seed)
}

/// A θ(m, n) RS-Paxos storage cluster on the default WAN model.
pub fn storage_cluster(n: usize, cfg: RsConfig, seed: u64) -> RsCluster {
    RsCluster::new(n, cfg, NetworkConfig::default(), seed)
}

/// Two replays of the same kill-prone lock-service deployment over
/// `market` — repair off and under `repair` — through one shared frozen
/// kernel store, so the boundary decisions are byte-identical and every
/// difference between the pair is the repair controller's doing. The
/// strategy is the Extra(0, 0.02) razor-thin heuristic, which bids at
/// the spot price and reliably takes mid-interval out-of-bid kills.
/// `obs` instruments the repairing replay (`repair.*`, `replay.*`).
pub fn repair_pair(
    market: &Market,
    eval_start: u64,
    interval_hours: u64,
    repair: RepairConfig,
    obs: &Obs,
) -> (ReplayResult, ReplayResult) {
    let spec = ServiceSpec::lock_service();
    let config = ReplayConfig::new(eval_start, market.horizon(), interval_hours);
    let store = ModelStore::new();
    let off = Replay::new(market, &spec, config)
        .store(&store)
        .run(ExtraStrategy::new(0, 0.02));
    let repaired = Replay::new(market, &spec, config)
        .repair(repair)
        .store(&store)
        .obs(obs)
        .run(ExtraStrategy::new(0, 0.02));
    (off, repaired)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markets_are_seed_deterministic() {
        let a = quick_market(3, 1, 4);
        let b = quick_market(3, 1, 4);
        assert_eq!(a.zones(), b.zones());
        assert_eq!(a.horizon(), b.horizon());
        let z = a.zones()[0];
        let ty = InstanceType::M1Small;
        for minute in [0, 100, 1_000] {
            assert_eq!(
                a.trace(z, ty).price_at(minute),
                b.trace(z, ty).price_at(minute)
            );
        }
    }

    #[test]
    fn clamped_zone_counts() {
        assert_eq!(market_days(1, 0, 1).zones().len(), 2);
        assert_eq!(market_days(1, 100, 1).zones().len(), 8);
    }

    #[test]
    fn repair_pair_differs_only_by_the_controller() {
        let market = quick_market(21, 2, 8);
        let (obs, _clock) = Obs::simulated();
        let (off, hybrid) = repair_pair(
            &market,
            7 * 24 * 60,
            3,
            RepairConfig::hybrid(),
            &obs,
        );
        // Same boundary decisions: identical interval grid and targets.
        assert_eq!(off.intervals.len(), hybrid.intervals.len());
        for (a, b) in off.intervals.iter().zip(&hybrid.intervals) {
            assert_eq!(a.start, b.start);
            assert_eq!(a.group_size, b.group_size);
        }
        // The controller only ever adds uptime.
        assert!(hybrid.up_minutes >= off.up_minutes);
        assert!(hybrid.degraded_minutes <= off.degraded_minutes);
    }
}
