//! Result structures for replayed experiments.

use spot_market::{InstanceType, Price, Termination, Zone};

/// One instance's full life, for audit and billing.
#[derive(Clone, Debug)]
pub struct InstanceRecord {
    /// Zone the instance ran in.
    pub zone: Zone,
    /// The instance-type pool it ran in.
    pub instance_type: InstanceType,
    /// The bid it was held at.
    pub bid: Price,
    /// Minute the spot request was granted (billing starts here).
    pub granted_at: u64,
    /// Minute the instance finished booting and joined the service.
    pub running_from: u64,
    /// Minute it stopped (out-of-bid kill, boundary replacement, or end
    /// of replay).
    pub ended_at: u64,
    /// Who terminated it.
    pub termination: Termination,
    /// Whether this was an on-demand fallback instance launched by the
    /// repair controller (billed hourly at the fixed on-demand price,
    /// never killed by the provider) rather than a spot instance.
    pub on_demand: bool,
    /// The billed charge.
    pub cost: Price,
}

/// Per-interval bookkeeping.
#[derive(Clone, Debug)]
pub struct IntervalOutcome {
    /// Interval start minute (within the evaluation window).
    pub start: u64,
    /// Number of instances the decision called for.
    pub group_size: usize,
    /// Quorum size for that group.
    pub quorum: usize,
    /// Sum of bids (the optimization objective for this interval).
    pub cost_upper_bound: Price,
    /// Minutes within this interval with a quorum running.
    pub up_minutes: u64,
    /// Minutes within this interval with fewer live instances than the
    /// decided group size (the quorum may still hold while degraded).
    pub degraded_minutes: u64,
    /// The largest number of simultaneously live instances observed
    /// within the interval — never exceeds `group_size`, repair included.
    pub max_live: usize,
    /// Out-of-bid kills during the interval.
    pub kills: usize,
}

/// The outcome of one strategy replay.
#[derive(Clone, Debug)]
pub struct ReplayResult {
    /// Strategy display name.
    pub strategy: String,
    /// Total billed cost over the evaluation window.
    pub total_cost: Price,
    /// Evaluation window length in minutes.
    pub window_minutes: u64,
    /// Minutes with a quorum of the active group running.
    pub up_minutes: u64,
    /// Minutes spent below the decided group strength (see
    /// [`IntervalOutcome::degraded_minutes`]) — the repair controller's
    /// objective.
    pub degraded_minutes: u64,
    /// Proactive migrations whose replacement was running by the
    /// reclamation deadline (capacity era, Migrate policy; 0 elsewhere).
    pub drains: u64,
    /// Migrations whose replacement came up after the deadline.
    pub late_drains: u64,
    /// The share of [`Self::total_cost`] billed to on-demand fallback
    /// instances ([`Price::ZERO`] whenever repair never escalated).
    pub on_demand_cost: Price,
    /// All instance lifetimes.
    pub instances: Vec<InstanceRecord>,
    /// Per-interval details.
    pub intervals: Vec<IntervalOutcome>,
}

impl ReplayResult {
    /// Measured availability: fraction of evaluated minutes with a quorum
    /// up.
    pub fn availability(&self) -> f64 {
        if self.window_minutes == 0 {
            return 1.0;
        }
        self.up_minutes as f64 / self.window_minutes as f64
    }

    /// Downtime over the window, in minutes.
    pub fn downtime_minutes(&self) -> u64 {
        self.window_minutes - self.up_minutes
    }

    /// Total out-of-bid kills.
    pub fn total_kills(&self) -> usize {
        self.intervals.iter().map(|i| i.kills).sum()
    }

    /// The spot share of the bill (total minus on-demand fallback
    /// charges).
    pub fn spot_cost(&self) -> Price {
        self.total_cost - self.on_demand_cost
    }

    /// The bill reconciled per `(zone, instance-type)` pool, in zone/type
    /// ordinal order — every billed cent is attributed to exactly one
    /// pool, so the values sum to [`Self::total_cost`].
    pub fn cost_by_pool(&self) -> Vec<((Zone, InstanceType), Price)> {
        let mut pools: Vec<((Zone, InstanceType), Price)> = Vec::new();
        for rec in &self.instances {
            let key = (rec.zone, rec.instance_type);
            match pools.iter_mut().find(|(k, _)| *k == key) {
                Some((_, cost)) => *cost += rec.cost,
                None => pools.push((key, rec.cost)),
            }
        }
        pools.sort_by_key(|((z, ty), _)| (z.ordinal(), ty.ordinal()));
        pools
    }

    /// Mean group size across intervals.
    pub(crate) fn mean_group_size(&self) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        self.intervals
            .iter()
            .map(|i| i.group_size as f64)
            .sum::<f64>()
            / self.intervals.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_market::topology::all_zones;

    fn result(window: u64, up: u64) -> ReplayResult {
        ReplayResult {
            strategy: "test".into(),
            total_cost: Price::from_dollars(1.0),
            window_minutes: window,
            up_minutes: up,
            degraded_minutes: 0,
            drains: 0,
            late_drains: 0,
            on_demand_cost: Price::ZERO,
            instances: vec![],
            intervals: vec![
                IntervalOutcome {
                    start: 0,
                    group_size: 5,
                    quorum: 3,
                    cost_upper_bound: Price::ZERO,
                    up_minutes: up.min(window / 2),
                    degraded_minutes: 0,
                    max_live: 5,
                    kills: 2,
                },
                IntervalOutcome {
                    start: window / 2,
                    group_size: 7,
                    quorum: 4,
                    cost_upper_bound: Price::ZERO,
                    up_minutes: up.saturating_sub(window / 2),
                    degraded_minutes: 0,
                    max_live: 7,
                    kills: 1,
                },
            ],
        }
    }

    #[test]
    fn availability_and_downtime() {
        let r = result(1_000, 900);
        assert!((r.availability() - 0.9).abs() < 1e-12);
        assert_eq!(r.downtime_minutes(), 100);
        assert_eq!(r.total_kills(), 3);
        assert!((r.mean_group_size() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn cost_splits_into_spot_and_on_demand() {
        let mut r = result(1_000, 900);
        assert_eq!(r.spot_cost(), r.total_cost);
        r.on_demand_cost = Price::from_dollars(0.25);
        r.total_cost = Price::from_dollars(1.0);
        assert_eq!(r.spot_cost(), Price::from_dollars(0.75));
    }

    #[test]
    fn empty_window_counts_as_available() {
        let mut r = result(1_000, 1_000);
        r.window_minutes = 0;
        r.up_minutes = 0;
        assert_eq!(r.availability(), 1.0);
    }

    #[test]
    fn instance_record_fields_round_trip() {
        let zone = all_zones()[0];
        let rec = InstanceRecord {
            zone,
            instance_type: InstanceType::M1Small,
            bid: Price::from_dollars(0.01),
            granted_at: 5,
            running_from: 10,
            ended_at: 100,
            termination: Termination::Provider,
            on_demand: false,
            cost: Price::from_dollars(0.02),
        };
        assert_eq!(rec.zone, zone);
        assert!(rec.granted_at < rec.running_from);
    }
}
