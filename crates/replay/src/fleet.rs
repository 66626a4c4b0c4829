//! Multi-group deployments: the paper scales service *performance* by
//! "launching multiple Paxos groups" (§3.2) — each group is an
//! independent quorum over its own spot instances, while all groups trade
//! in the same market.
//!
//! Groups share zones (failure independence is required *within* a group,
//! not across groups), so out-of-bid events correlate across groups —
//! when a zone's price spikes, every group loses its instance there at
//! once. The fleet accounting surfaces both the per-group view and the
//! correlated aggregate ("all groups up"), which is the availability a
//! sharded service presents when every shard must answer.

use jupiter::{BiddingStrategy, ServiceSpec};
use obs::Obs;
use spot_market::{Market, Price, Termination};

use crate::lifecycle::{Replay, ReplayConfig};
use crate::results::ReplayResult;

/// The outcome of replaying `groups` identical service groups.
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// Per-group replays (all identical under a deterministic strategy —
    /// kept separate so heterogeneous strategies can be compared).
    pub groups: Vec<ReplayResult>,
    /// Fraction of evaluated minutes with *every* group at quorum.
    pub all_up_availability: f64,
    /// Total fleet cost.
    pub total_cost: Price,
}

/// Replay `groups` independent groups of `spec` under the same strategy
/// construction, in the same market.
///
/// `make_strategy(group_index)` builds each group's strategy; identical
/// strategies produce identical bid schedules (and therefore perfectly
/// correlated failures — the honest model for same-zone deployments).
/// Each group's replay records into the shared `obs`, and the fleet level
/// adds a counter for instances that died in the same minute they were
/// granted (bids that only just covered the request-time price).
pub fn fleet_replay<S, F>(
    market: &Market,
    spec: &ServiceSpec,
    groups: usize,
    config: ReplayConfig,
    mut make_strategy: F,
    obs: &Obs,
) -> FleetResult
where
    S: BiddingStrategy,
    F: FnMut(usize) -> S,
{
    assert!(groups >= 1, "a fleet needs at least one group");
    let results: Vec<ReplayResult> = (0..groups)
        .map(|g| {
            Replay::new(market, spec, config)
                .obs(obs)
                .run(make_strategy(g))
        })
        .collect();

    obs.counter("fleet.granted_and_killed_same_minute")
        .add(count_zero_lifetime(&results) as u64);

    let window = results[0].window_minutes;
    let all_up = aggregate_all_up(&results, obs);
    let total_cost = results.iter().map(|r| r.total_cost).sum();
    FleetResult {
        all_up_availability: all_up as f64 / window.max(1) as f64,
        total_cost,
        groups: results,
    }
}

/// Instances that were provider-killed in the very minute they were
/// granted (the bid only just covered the request-time price). Recorded
/// as `fleet.granted_and_killed_same_minute` — in release builds too,
/// since a fleet that burns whole instance-grants for zero runtime is an
/// accounting signal, not a debugging aid.
pub(crate) fn count_zero_lifetime(results: &[ReplayResult]) -> usize {
    results
        .iter()
        .flat_map(|r| &r.instances)
        .filter(|i| i.termination == Termination::Provider && i.ended_at <= i.granted_at)
        .count()
}

/// Aggregate availability: with identical deterministic schedules the
/// groups' up/down timelines coincide, so "all up" equals the minimum
/// per-interval uptime; computed interval-by-interval to stay exact for
/// heterogeneous strategies too.
///
/// A group with no interval at a position counts as *down* for it
/// (`fleet.interval_missing_group`). A group whose interval at that
/// position starts at a different minute is only counted
/// (`fleet.interval_misaligned`); its uptime still enters the minimum, so
/// for misaligned schedules the aggregate is an approximation, not a
/// bound.
pub(crate) fn aggregate_all_up(results: &[ReplayResult], obs: &Obs) -> u64 {
    let missing_group = obs.counter("fleet.interval_missing_group");
    let misaligned = obs.counter("fleet.interval_misaligned");
    let Some(reference) = results.first() else {
        return 0;
    };
    let mut all_up = 0u64;
    for (i, iv) in reference.intervals.iter().enumerate() {
        let mut up = u64::MAX;
        for r in results {
            match r.intervals.get(i) {
                None => {
                    missing_group.inc();
                    up = 0;
                }
                Some(x) => {
                    if x.start != iv.start {
                        misaligned.inc();
                    }
                    up = up.min(x.up_minutes);
                }
            }
        }
        all_up += up;
    }
    all_up
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::InstanceRecord;
    use crate::results::IntervalOutcome;
    use jupiter::{ExtraStrategy, JupiterStrategy};
    use spot_market::{InstanceType, MarketConfig};

    /// A hand-built group result with the given interval starts/uptimes.
    fn synthetic(starts_ups: &[(u64, u64)], records: Vec<InstanceRecord>) -> ReplayResult {
        ReplayResult {
            strategy: "synthetic".into(),
            total_cost: Price::ZERO,
            window_minutes: 720,
            up_minutes: starts_ups.iter().map(|&(_, u)| u).sum(),
            degraded_minutes: 0,
            on_demand_cost: Price::ZERO,
            instances: records,
            intervals: starts_ups
                .iter()
                .map(|&(start, up)| IntervalOutcome {
                    start,
                    group_size: 5,
                    quorum: 3,
                    cost_upper_bound: Price::ZERO,
                    up_minutes: up,
                    degraded_minutes: 0,
                    max_live: 5,
                    kills: 0,
                })
                .collect(),
            metrics: None,
            series: Vec::new(),
            alerts: Vec::new(),
            audit: Vec::new(),
        }
    }

    #[test]
    fn missing_intervals_count_as_down_and_are_recorded_in_release() {
        // Group b stops reporting after its first interval: the fleet is
        // down for the unreported stretch, and the drop is *counted*
        // (this accounting used to be debug_assert-only, i.e. silently
        // absent from release builds).
        let a = synthetic(&[(0, 360), (360, 300)], vec![]);
        let b = synthetic(&[(0, 100)], vec![]);
        let (obs, _clock) = Obs::simulated();
        let up = aggregate_all_up(&[a, b], &obs);
        assert_eq!(up, 100, "min(360,100) + nothing for the missing interval");
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("fleet.interval_missing_group"), Some(1));
        assert_eq!(snap.counter("fleet.interval_misaligned"), Some(0));
    }

    #[test]
    fn misaligned_interval_starts_are_recorded() {
        let a = synthetic(&[(0, 360), (360, 360)], vec![]);
        let b = synthetic(&[(0, 360), (300, 200)], vec![]);
        let (obs, _clock) = Obs::simulated();
        let up = aggregate_all_up(&[a, b], &obs);
        assert_eq!(up, 360 + 200);
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("fleet.interval_misaligned"), Some(1));
    }

    #[test]
    fn killed_in_grant_minute_counter_regression() {
        let zone = spot_market::topology::all_zones()[0];
        let record = |granted_at: u64, ended_at: u64, termination| InstanceRecord {
            zone,
            instance_type: spot_market::InstanceType::M1Small,
            bid: Price::from_dollars(0.01),
            granted_at,
            running_from: granted_at,
            ended_at,
            termination,
            on_demand: false,
            cost: Price::ZERO,
        };
        let results = vec![
            synthetic(
                &[(0, 360)],
                vec![
                    record(10, 10, Termination::Provider), // zero lifetime
                    record(20, 80, Termination::Provider),
                    record(30, 30, Termination::User), // boundary churn, not a kill
                ],
            ),
            synthetic(&[(0, 360)], vec![record(5, 5, Termination::Provider)]),
        ];
        assert_eq!(count_zero_lifetime(&results), 2);
    }

    fn market() -> Market {
        let mut cfg = MarketConfig::paper(19, 2 * 7 * 24 * 60);
        cfg.zones.truncate(8);
        cfg.types = vec![InstanceType::M1Small];
        Market::generate(cfg)
    }

    #[test]
    fn identical_groups_cost_linearly_and_correlate() {
        let m = market();
        let spec = ServiceSpec::lock_service();
        let config = ReplayConfig::new(7 * 24 * 60, 10 * 24 * 60, 6);
        let (obs, _clock) = Obs::simulated();
        let one = fleet_replay(&m, &spec, 1, config, |_| ExtraStrategy::new(0, 0.2), &obs);
        let three = fleet_replay(&m, &spec, 3, config, |_| ExtraStrategy::new(0, 0.2), &obs);
        // Deterministic strategies: every group identical.
        assert_eq!(three.total_cost, one.total_cost * 3);
        assert!((three.all_up_availability - one.all_up_availability).abs() < 1e-12);
        assert_eq!(three.groups.len(), 3);
        // … so no accounting anomaly is counted on a real replay.
        let snap = obs.metrics.snapshot();
        for name in [
            "fleet.granted_and_killed_same_minute",
            "fleet.interval_misaligned",
            "fleet.interval_missing_group",
        ] {
            assert_eq!(snap.counter(name), Some(0), "{name}");
        }
    }

    #[test]
    fn mixed_fleet_is_limited_by_its_weakest_group() {
        let m = market();
        let spec = ServiceSpec::lock_service();
        let config = ReplayConfig::new(7 * 24 * 60, 10 * 24 * 60, 6);
        // Group 0 runs Jupiter; group 1 runs the flaky heuristic.
        let strategies: Vec<Box<dyn BiddingStrategy>> = vec![
            Box::new(JupiterStrategy::new()),
            Box::new(ExtraStrategy::new(0, 0.1)),
        ];
        let mut iter = strategies.into_iter();
        let off = Obs::disabled();
        let fleet = fleet_replay(&m, &spec, 2, config, |_| iter.next().expect("two"), &off);
        let weakest = fleet
            .groups
            .iter()
            .map(|g| g.availability())
            .fold(f64::INFINITY, f64::min);
        assert!(
            fleet.all_up_availability <= weakest + 1e-12,
            "all-up {} > weakest group {}",
            fleet.all_up_availability,
            weakest
        );
    }
}
