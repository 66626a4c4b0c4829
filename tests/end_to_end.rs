//! Cross-crate integration tests: the full pipeline from synthetic market
//! through failure model, bidding, replay accounting and the live
//! services.

use spot_jupiter::jupiter::{BiddingFramework, ExtraStrategy, JupiterStrategy, ServiceSpec};
use spot_jupiter::replay::experiments::{self, Scale};
use spot_jupiter::replay::lifecycle::{on_demand_baseline_cost, snapshots_at, Replay};
use spot_jupiter::replay::ReplayConfig;
use spot_jupiter::spot_market::{InstanceType, Termination};
use test_util::quick_market;

#[test]
fn jupiter_beats_heuristics_on_the_paper_metric() {
    // The paper's central comparison at smoke scale: Jupiter must keep
    // near-baseline availability at a fraction of the baseline cost, and
    // dominate Extra(2,0.2) on availability.
    let market = quick_market(77, 3, 10);
    let spec = ServiceSpec::lock_service();
    let train = 2 * 7 * 24 * 60;
    let config = ReplayConfig::new(train, 3 * 7 * 24 * 60, 6);

    let jupiter = Replay::new(&market, &spec, config).run(JupiterStrategy::new());
    let extra0 = Replay::new(&market, &spec, config).run(ExtraStrategy::new(0, 0.2));
    let extra2 = Replay::new(&market, &spec, config).run(ExtraStrategy::new(2, 0.2));
    let baseline = on_demand_baseline_cost(&market, &spec, config);

    assert!(
        jupiter.availability() >= 0.9999,
        "Jupiter availability {}",
        jupiter.availability()
    );
    assert!(
        jupiter.total_cost.as_dollars() < 0.5 * baseline.as_dollars(),
        "Jupiter {} vs baseline {}",
        jupiter.total_cost,
        baseline
    );
    assert!(
        jupiter.availability() > extra0.availability(),
        "Jupiter must beat Extra(0,0.2) on availability"
    );
    assert!(
        jupiter.availability() > extra2.availability(),
        "Jupiter must beat Extra(2,0.2) on availability"
    );
    assert!(
        extra2.availability() > extra0.availability(),
        "two spare instances must help availability"
    );
    assert!(
        extra2.total_cost > extra0.total_cost,
        "two spare instances must cost more"
    );
}

#[test]
fn storage_and_lock_specs_diverge_as_in_the_paper() {
    // θ(3,5) tolerates one failure, majority five tolerates two — so at
    // identical markets the storage service needs more reliable bids.
    let lock = ServiceSpec::lock_service();
    let store = ServiceSpec::storage_service();
    let lock_target = lock.node_fp_target(5).expect("feasible");
    let store_target = store.node_fp_target(5).expect("feasible");
    assert!(
        store_target < lock_target,
        "storage per-node FP target {store_target} must be stricter than lock {lock_target}"
    );
}

#[test]
fn billing_invariants_hold_across_a_replay() {
    let market = quick_market(11, 2, 8);
    let spec = ServiceSpec::lock_service();
    let config = ReplayConfig::new(7 * 24 * 60, 2 * 7 * 24 * 60, 3);
    let r = Replay::new(&market, &spec, config).run(ExtraStrategy::new(0, 0.1));
    for rec in &r.instances {
        // Out-of-bid kills end at a minute where the price exceeds the bid.
        if rec.termination == Termination::Provider {
            let price = market.price(rec.zone, InstanceType::M1Small, rec.ended_at);
            assert!(
                price > rec.bid,
                "{}: kill without price excursion",
                rec.zone.name()
            );
        }
        // Nobody is billed more than bid × started-hours (bids cap the
        // hourly charge under EC2 rules only in expectation — but never
        // above the trace max within the lifetime).
        if rec.ended_at > rec.granted_at {
            let max_price = market
                .trace(rec.zone, InstanceType::M1Small)
                .max_price_in(rec.granted_at, rec.ended_at);
            let hours = (rec.ended_at - rec.granted_at).div_ceil(60);
            assert!(rec.cost <= max_price * hours, "{:?}", rec);
        }
    }
}

#[test]
fn experiments_are_deterministic() {
    let a = experiments::fig4(&Scale::quick(5));
    let b = experiments::fig4(&Scale::quick(5));
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.bid, y.bid);
        assert_eq!(x.measured, y.measured);
    }
}

#[test]
fn decision_respects_all_constraints() {
    // Every bid Jupiter emits is ≥ the current spot price (constraint 9
    // implies instances actually start) and < the zone's on-demand price
    // (§4.2's cap), and the implied equal-FP availability meets the
    // target.
    let market = quick_market(31, 4, 12);
    let ty = InstanceType::M1Small;
    let spec = ServiceSpec::lock_service();
    let mut fw = BiddingFramework::new(spec.clone(), JupiterStrategy::new());
    let now = market.horizon() - 1;
    for &zone in market.zones() {
        fw.observe(zone, ty, market.trace(zone, ty), 0..market.horizon());
    }
    let snapshots = snapshots_at(&market, &[ty], now);
    let decision = fw.decide(&snapshots, 360);
    assert!(decision.n() > 0, "feasible at this scale");
    for pb in &decision.bids {
        let (zone, bid) = (pb.zone, pb.bid);
        let snap = snapshots
            .iter()
            .find(|s| s.zone == zone)
            .expect("snapshot");
        assert!(bid >= snap.spot_price, "{}: bid below spot", zone.name());
        assert!(
            bid < ty.on_demand_price(zone.region),
            "{}: bid at or above on-demand",
            zone.name()
        );
        // And the model agrees the bid meets the per-node target.
        let target = spec.node_fp_target(decision.n()).expect("target");
        let fp = fw.model(zone, pb.instance_type).expect("trained").estimate_fp(
            bid,
            snap.spot_price,
            snap.sojourn_age,
            360,
        );
        assert!(
            fp <= target + 1e-9,
            "{}: fp {fp} > target {target}",
            zone.name()
        );
    }
}

#[test]
fn sweep_has_all_series() {
    let [rows] = experiments::replay(&Scale::quick(3), [experiments::lock_sweep]);
    let strategies: std::collections::HashSet<&str> =
        rows.iter().map(|r| r.strategy.as_str()).collect();
    assert!(strategies.contains("Jupiter"));
    assert!(strategies.contains("Extra(0,0.2)"));
    assert!(strategies.contains("Extra(2,0.2)"));
    assert!(strategies.contains("Baseline"));
    // One row per (interval, strategy) + the baseline.
    assert_eq!(rows.len(), 3 + 1);
}
