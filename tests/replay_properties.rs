//! System-level property tests: accounting invariants of the trace-replay
//! engine under randomized markets and strategies.

use proptest::prelude::*;
use spot_jupiter::jupiter::{ExtraStrategy, JupiterStrategy, ServiceSpec};
use spot_jupiter::obs::{AuditKind, Obs};
use spot_jupiter::replay::lifecycle::DECISION_LEAD;
use spot_jupiter::replay::{RepairConfig, Replay, ReplayConfig};
use spot_jupiter::spot_market::{BidEra, InstanceType, Price, Termination};
use test_util::{derive_seed, hetero_market_days, market_days as market};

proptest! {
    // Each case replays several simulated days; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn replay_accounting_invariants(
        seed in any::<u64>(),
        zones in 4usize..8,
        extra in 0usize..3,
        portion in 0.05f64..0.4,
        interval in 1u64..12,
    ) {
        let m = market(seed, zones, 6);
        let spec = ServiceSpec::lock_service();
        let train = 3 * 24 * 60;
        let config = ReplayConfig::new(train, 6 * 24 * 60, interval);
        let r = Replay::new(&m, &spec, config).run(ExtraStrategy::new(extra, portion));

        // Window accounting.
        prop_assert_eq!(r.window_minutes, 3 * 24 * 60);
        prop_assert!(r.up_minutes <= r.window_minutes);

        // Interval accounting: up time bounded by interval length; the
        // intervals tile the window.
        let mut covered = 0;
        for (i, iv) in r.intervals.iter().enumerate() {
            let end = r
                .intervals
                .get(i + 1)
                .map(|n| n.start)
                .unwrap_or(config.eval_end);
            prop_assert!(iv.up_minutes <= end - iv.start, "interval overflow");
            covered += end - iv.start;
        }
        prop_assert_eq!(covered, r.window_minutes);
        let interval_up: u64 = r.intervals.iter().map(|i| i.up_minutes).sum();
        prop_assert_eq!(interval_up, r.up_minutes);

        // Instance records: lifetimes ordered and inside the horizon; the
        // total cost is exactly the sum of the per-instance charges.
        let mut total = spot_jupiter::spot_market::Price::ZERO;
        for rec in &r.instances {
            prop_assert!(rec.granted_at <= rec.ended_at);
            prop_assert!(rec.ended_at <= config.eval_end);
            total += rec.cost;
        }
        prop_assert_eq!(total, r.total_cost);

        // Determinism: the same inputs replay identically.
        let r2 = Replay::new(&m, &spec, config).run(ExtraStrategy::new(extra, portion));
        prop_assert_eq!(r.total_cost, r2.total_cost);
        prop_assert_eq!(r.up_minutes, r2.up_minutes);
        prop_assert_eq!(r.instances.len(), r2.instances.len());
    }

    #[test]
    fn repair_accounting_invariants(
        seed in any::<u64>(),
        zones in 4usize..8,
        portion in 0.01f64..0.2,
        interval in 2u64..9,
        hybrid in any::<bool>(),
    ) {
        // The repair controller's books under randomized churny markets:
        // every charge is attributed exactly once (total = spot + on-demand,
        // summed from the per-instance records), the fleet never exceeds
        // the decided group size even while repairing, and the repair
        // counters reconcile with the replay's death counters.
        let m = market(seed, zones, 6);
        let spec = ServiceSpec::lock_service();
        let config = ReplayConfig::new(3 * 24 * 60, 6 * 24 * 60, interval);
        let repair = if hybrid { RepairConfig::hybrid() } else { RepairConfig::reactive() };
        let (obs, _clock) = Obs::simulated();
        let r = Replay::new(&m, &spec, config)
            .repair(repair)
            .obs(&obs)
            .run(ExtraStrategy::new(0, portion));

        // No double-billing: the ledger splits exactly into spot and
        // on-demand charges, record by record.
        let mut spot = Price::ZERO;
        let mut on_demand = Price::ZERO;
        for rec in &r.instances {
            if rec.on_demand {
                on_demand += rec.cost;
            } else {
                spot += rec.cost;
            }
        }
        prop_assert_eq!(spot + on_demand, r.total_cost);
        prop_assert_eq!(on_demand, r.on_demand_cost);
        prop_assert_eq!(spot, r.spot_cost());
        if !hybrid {
            prop_assert_eq!(r.on_demand_cost, Price::ZERO);
            prop_assert!(r.instances.iter().all(|rec| !rec.on_demand));
        }

        // The fleet never exceeds the configured group size: repair
        // refills toward the interval's decided strength, never past it.
        for iv in &r.intervals {
            prop_assert!(
                iv.max_live <= iv.group_size,
                "interval at {}: {} live > group {}",
                iv.start, iv.max_live, iv.group_size
            );
            prop_assert!(iv.degraded_minutes <= r.window_minutes);
        }
        let degraded: u64 = r.intervals.iter().map(|i| i.degraded_minutes).sum();
        prop_assert_eq!(degraded, r.degraded_minutes);

        // Counter reconciliation: with repair active every out-of-bid
        // death is detected (in-window at the repair cursor or counted
        // too-late at the interval edge), and replacements never exceed
        // detections.
        let snap = obs.metrics.snapshot();
        let deaths = snap.counter("replay.death.out_of_bid").unwrap_or(0);
        let detected = snap.counter("repair.deaths_detected").unwrap_or(0);
        prop_assert_eq!(detected, deaths);
        let spot_repl = snap.counter("repair.spot_replacements").unwrap_or(0);
        let od_launch = snap.counter("repair.on_demand_launches").unwrap_or(0);
        prop_assert!(spot_repl + od_launch <= detected,
            "replacements {} exceed detected deaths {}", spot_repl + od_launch, detected);
        prop_assert_eq!(snap.counter("repair.degraded_minutes").unwrap_or(0), r.degraded_minutes);
        if !hybrid {
            prop_assert_eq!(snap.counter("repair.on_demand_launches").unwrap_or(0), 0);
        }
    }

    #[test]
    fn hetero_billing_decomposes_by_pool(
        seed in any::<u64>(),
        zones in 4usize..8,
        min_strength in 5u32..11,
        hybrid in any::<bool>(),
    ) {
        // The heterogeneous-fleet ledger: charges split exactly into
        // per-(zone, type) pools and into spot vs on-demand with no
        // double billing; every instance ran in a declared pool; every
        // boundary decision reaches the strength floor; and (repair off)
        // the capacity-weighted live fleet never exceeds the strength
        // the boundary decision bought.
        let m = hetero_market_days(seed, zones, 6);
        let pools = [InstanceType::M1Small, InstanceType::M3Large];
        let spec = ServiceSpec::lock_service()
            .with_pools(&pools)
            .with_min_strength(min_strength);
        let config = ReplayConfig::new(3 * 24 * 60, 6 * 24 * 60, 6);
        let repair = if hybrid { RepairConfig::hybrid() } else { RepairConfig::off() };
        let (obs, _clock) = Obs::simulated();
        let r = Replay::new(&m, &spec, config)
            .repair(repair)
            .obs(&obs)
            .run(JupiterStrategy::new());

        // total = Σ per-(zone, type) pool charges = Σ spot + Σ on-demand.
        let pooled = r
            .cost_by_pool()
            .iter()
            .fold(Price::ZERO, |acc, &(_, c)| acc + c);
        prop_assert_eq!(pooled, r.total_cost);
        let mut spot = Price::ZERO;
        let mut on_demand = Price::ZERO;
        for rec in &r.instances {
            prop_assert!(
                pools.contains(&rec.instance_type),
                "instance billed to undeclared pool {:?}", rec.instance_type
            );
            if rec.on_demand {
                on_demand += rec.cost;
            } else {
                spot += rec.cost;
            }
        }
        prop_assert_eq!(spot + on_demand, r.total_cost);
        prop_assert_eq!(on_demand, r.on_demand_cost);

        // The audited boundary decisions are the strength targets the
        // launch pass worked toward (instances carry over boundaries, so
        // grant times can't reconstruct the decision).
        let audits = obs.audit.snapshot();
        for (i, iv) in r.intervals.iter().enumerate() {
            let end = r
                .intervals
                .get(i + 1)
                .map(|n| n.start)
                .unwrap_or(config.eval_end);
            let decided: u32 = audits
                .iter()
                .filter(|a| a.at_minute == iv.start.saturating_sub(DECISION_LEAD))
                .filter_map(|a| match &a.kind {
                    AuditKind::BidSelection {
                        capacity_weight, ..
                    } => Some(*capacity_weight as u32),
                    _ => None,
                })
                .sum();
            prop_assert!(
                decided >= min_strength,
                "interval at {}: decided strength {} below floor {}",
                iv.start, decided, min_strength
            );
            if !hybrid {
                // Sweep the interval's live set: capacity-weighted peak
                // occupancy never exceeds the decided strength (deltas
                // sort negatives first, so boundary swaps don't
                // double-count). The next boundary's decision fires
                // `DECISION_LEAD` minutes early and its grants overlap
                // this interval's tail — those belong to the next
                // interval's books, so clip them out.
                let mut events: Vec<(u64, i64)> = Vec::new();
                for rec in r.instances.iter().filter(|rec| {
                    rec.running_from < rec.ended_at
                        && rec.running_from < end
                        && rec.ended_at > iv.start
                        && rec.granted_at < end.saturating_sub(DECISION_LEAD)
                }) {
                    let w = i64::from(rec.instance_type.capacity_weight());
                    events.push((rec.running_from.max(iv.start), w));
                    events.push((rec.ended_at.min(end), -w));
                }
                events.sort_unstable();
                let (mut live, mut peak) = (0i64, 0i64);
                for (_, delta) in events {
                    live += delta;
                    peak = peak.max(live);
                }
                prop_assert!(
                    peak <= i64::from(decided),
                    "interval at {}: live strength {} exceeds decided {}",
                    iv.start, peak, decided
                );
            }
        }
    }

    #[test]
    fn spot_launches_land_in_free_pools(
        seed in any::<u64>(),
        zones in 4usize..8,
        min_strength in 5u32..11,
        portion in 0.01f64..0.1,
    ) {
        // Fleet occupancy by (zone, type) under hybrid repair on
        // two-type markets: a spot instance never starts in a pool that
        // another instance, spot or on-demand, already holds. On-demand
        // fallbacks are exempt as launches — several may share the
        // on-demand pool, and a top-up does not wait for its pool to
        // free. Thin bids keep the repair walk busy.
        let m = hetero_market_days(seed, zones, 6);
        let spec = ServiceSpec::lock_service()
            .with_pools(&[InstanceType::M1Small, InstanceType::M3Large])
            .with_min_strength(min_strength);
        let config = ReplayConfig::new(3 * 24 * 60, 6 * 24 * 60, 6);
        let r = Replay::new(&m, &spec, config)
            .repair(RepairConfig::hybrid())
            .run(ExtraStrategy::new(0, portion));

        // Each interval's books, as in `hetero_billing_decomposes_by_pool`:
        // a record holds its pool over its lifetime clipped to the
        // interval, and the next boundary's launches (granted
        // `DECISION_LEAD` early) belong to the next interval.
        for (i, iv) in r.intervals.iter().enumerate() {
            let end = r
                .intervals
                .get(i + 1)
                .map(|n| n.start)
                .unwrap_or(config.eval_end);
            let held: Vec<_> = r
                .instances
                .iter()
                .filter(|rec| rec.granted_at < end.saturating_sub(DECISION_LEAD))
                .map(|rec| (rec, rec.granted_at.max(iv.start), rec.ended_at.min(end)))
                .filter(|&(_, from, to)| from < to)
                .collect();
            for (a, &(spot, from, _)) in held.iter().enumerate() {
                if spot.on_demand {
                    continue;
                }
                for (b, &(other, other_from, other_to)) in held.iter().enumerate() {
                    // A top-up launched in the same minute as a spot
                    // replacement came after it.
                    let before = other_from < from || (other_from == from && !other.on_demand);
                    prop_assert!(
                        a == b
                            || (spot.zone, spot.instance_type) != (other.zone, other.instance_type)
                            || !(before && from < other_to),
                        "interval at {}: {:?} started in a pool {:?} holds",
                        iv.start, spot, other
                    );
                }
            }
        }
    }

    #[test]
    fn capacity_era_invariants(
        seed in any::<u64>(),
        zones in 4usize..8,
        interval in 2u64..9,
    ) {
        // The capacity regime's contract under randomized markets: kills
        // follow the hidden capacity process (announced, never silent),
        // the books reconcile record by record, the slot accounting never
        // exceeds the decided group even mid-drain, and the replay is
        // deterministic.
        let m = market(seed, zones, 6);
        let spec = ServiceSpec::lock_service();
        let config = ReplayConfig::new(3 * 24 * 60, 6 * 24 * 60, interval)
            .with_era(BidEra::CapacityReclaim);
        let run = |repair: RepairConfig| {
            let (obs, _clock) = Obs::simulated();
            Replay::new(&m, &spec, config)
                .repair(repair)
                .obs(&obs)
                .run(ExtraStrategy::new(0, 0.1))
        };
        let r = run(RepairConfig::migrate());

        // Billing reconciles record by record; the migration policy's
        // spot-only fallback never bills on-demand, so the drain window
        // (victim billed to its kill, replacement from its grant) is the
        // only deliberate overlap in the ledger.
        let mut total = Price::ZERO;
        for rec in &r.instances {
            prop_assert!(rec.granted_at <= rec.ended_at);
            prop_assert!(!rec.on_demand, "migration billed an on-demand instance");
            total += rec.cost;
        }
        prop_assert_eq!(total, r.total_cost);
        prop_assert_eq!(r.on_demand_cost, Price::ZERO);

        // The slot books never exceed the decided group even while a
        // drained victim and its replacement overlap.
        for iv in &r.intervals {
            prop_assert!(
                iv.max_live <= iv.group_size,
                "interval at {}: {} live > group {}",
                iv.start, iv.max_live, iv.group_size
            );
        }

        // Kill provenance: every provider kill is a reclamation the
        // market announced exactly `lead` minutes ahead — notices precede
        // reclamations by the configured lead, and no kill lands
        // unannounced.
        for rec in r.instances.iter().filter(|r| r.termination == Termination::Provider) {
            prop_assert_eq!(
                m.next_reclaim_at(rec.zone, rec.instance_type, rec.ended_at, rec.ended_at + 1),
                Some(rec.ended_at),
                "kill at {} is not a reclamation of its pool", rec.ended_at
            );
            let lead = m.capacity(rec.zone, rec.instance_type).lead();
            let announced = m
                .notices_in(rec.ended_at.saturating_sub(lead), rec.ended_at + 1)
                .iter()
                .any(|n| {
                    n.zone == rec.zone
                        && n.instance_type == rec.instance_type
                        && n.deadline == rec.ended_at
                        && n.at_minute + lead == rec.ended_at
                });
            prop_assert!(announced, "unannounced reclamation at {}", rec.ended_at);
        }

        // Deterministic replay: equal inputs, equal books.
        let again = run(RepairConfig::migrate());
        prop_assert_eq!(r.total_cost, again.total_cost);
        prop_assert_eq!(r.up_minutes, again.up_minutes);
        prop_assert_eq!(r.degraded_minutes, again.degraded_minutes);
        prop_assert_eq!(r.instances.len(), again.instances.len());
    }

    #[test]
    fn higher_extra_portion_never_hurts_availability(
        seed in any::<u64>(),
    ) {
        // Bidding a larger margin over the spot price weakly improves
        // availability in an identical market (same zones chosen: the
        // zone pick of Extra depends only on spot prices, not the
        // portion).
        let m = market(seed, 6, 5);
        let spec = ServiceSpec::lock_service();
        let config = ReplayConfig::new(2 * 24 * 60, 5 * 24 * 60, 3);
        let low = Replay::new(&m, &spec, config).run(ExtraStrategy::new(0, 0.05));
        let high = Replay::new(&m, &spec, config).run(ExtraStrategy::new(0, 0.6));
        prop_assert!(
            high.availability() >= low.availability() - 1e-12,
            "higher bids reduced availability: {} vs {}",
            high.availability(),
            low.availability()
        );
    }
}

/// Fixed-seed regression: at equal seeds the proactive-migration policy
/// never loses availability to reactive repair under the capacity regime
/// — the advance notice is strictly more information, and the controller
/// must turn it into at-worst-equal degraded time. A fixed derived seed
/// stream (not proptest randomness) keeps the comparison reproducible:
/// pool-occupancy interactions make per-seed dominance an empirical
/// regression bar, not a theorem, so a printed seed must re-run exactly.
#[test]
fn migration_never_loses_to_reactive_at_equal_seeds() {
    let base = 0xC0FFEE;
    let spec = ServiceSpec::lock_service();
    let mut drains_total = 0usize;
    for i in 0..10u64 {
        let seed = derive_seed(derive_seed(base, 0xE1A), i);
        let m = market(seed, 6, 6);
        let config =
            ReplayConfig::new(3 * 24 * 60, 6 * 24 * 60, 3).with_era(BidEra::CapacityReclaim);
        let run = |repair: RepairConfig, obs: &Obs| {
            Replay::new(&m, &spec, config)
                .repair(repair)
                .obs(obs)
                .run(ExtraStrategy::new(0, 0.1))
        };
        let reactive = run(RepairConfig::reactive(), &Obs::disabled());
        let (obs, _clock) = Obs::simulated();
        let migrate = run(RepairConfig::migrate(), &obs);
        assert!(
            migrate.degraded_minutes <= reactive.degraded_minutes,
            "seed {seed:#x}: migrate degraded {} > reactive {}",
            migrate.degraded_minutes,
            reactive.degraded_minutes
        );
        assert!(
            migrate.up_minutes >= reactive.up_minutes,
            "seed {seed:#x}: migrate up {} < reactive {}",
            migrate.up_minutes,
            reactive.up_minutes
        );
        // Billing overlap beyond reactive's books is bounded by the drain
        // windows: the victim runs (and bills) to its kill while the
        // replacement already bills from its early grant — and nothing
        // else double-bills.
        drains_total += obs
            .audit
            .snapshot()
            .iter()
            .filter(|r| {
                matches!(&r.kind, AuditKind::Migration { action, .. } if action == "drained")
            })
            .count();
    }
    assert!(
        drains_total >= 1,
        "ten capacity-era markets produced no successful pre-deadline drain"
    );
}
