//! The mid-interval repair controller, side by side with the paper's
//! fixed-interval baseline: replay the same kill-prone lock-service
//! deployment with repair off, with spot-only reactive rebids, and with
//! the hybrid policy that escalates to on-demand fallbacks when the spot
//! market cannot refill the quorum.
//!
//! Boundary decisions come from the same frozen per-zone kernels in every
//! cell, so the three rows differ only in what happens *between*
//! boundaries: out-of-bid kills either stand until the next boundary
//! (off), are answered with backoff-paced rebids (reactive), or are
//! topped up from on-demand (hybrid). The printout shows the controller's
//! ledger — degraded minutes, rebids, backoff waits, on-demand minutes —
//! next to the cost/availability outcome.
//!
//! ```text
//! cargo run --release --example repair_controller
//! ```

use spot_jupiter::jupiter::{ExtraStrategy, ServiceSpec};
use spot_jupiter::obs::Obs;
use spot_jupiter::replay::scenario::{Scenario, SweepSpec};
use spot_jupiter::replay::{RepairConfig, Replay};
use spot_jupiter::spot_market::{InstanceType, Market, MarketConfig};

fn main() {
    // 3 training weeks + 2 evaluation weeks, 10 zones. The razor-thin
    // Extra(0, 0.02) margin bids barely above the spot price, so
    // mid-interval kills are plentiful — the regime repair exists for.
    let train = 3 * 7 * 24 * 60;
    let eval = 2 * 7 * 24 * 60;
    let mut cfg = MarketConfig::paper(2015, train + eval);
    cfg.zones.truncate(10);
    cfg.types = vec![InstanceType::M1Small];
    let market = Market::generate(cfg);
    let spec = ServiceSpec::lock_service();

    let scenario = Scenario::new(market, train, train + eval);
    let interval_hours = 6u64;
    let sweep = SweepSpec::new(spec.clone())
        .strategy(|_| Box::new(ExtraStrategy::new(0, 0.02)))
        .intervals(vec![interval_hours])
        .repairs(vec![
            RepairConfig::off(),
            RepairConfig::reactive(),
            RepairConfig::hybrid(),
        ]);

    println!(
        "lock service, 2 evaluated weeks, {interval_hours} h interval, {} zones, \
         thin-margin Extra(0, 0.02) bids\n",
        scenario.market().zones().len()
    );
    println!(
        "{:<10} {:>10} {:>11} {:>13} {:>10} {:>7}",
        "repair", "cost ($)", "od cost ($)", "availability", "degraded", "kills"
    );
    let cells = scenario.run(&sweep);
    for cell in &cells {
        let r = &cell.result;
        println!(
            "{:<10} {:>10.2} {:>11.2} {:>13.6} {:>8} m {:>7}",
            cell.repair.label(),
            r.total_cost.as_dollars(),
            r.on_demand_cost.as_dollars(),
            r.availability(),
            r.degraded_minutes,
            r.total_kills()
        );
    }

    let baseline = scenario.baseline_cost(&spec);
    println!("\non-demand baseline: ${:.2}", baseline.as_dollars());

    // The controller's ledger: the hybrid cell replayed alone with its own
    // `Obs`, on the kernels the sweep fitted.
    let (obs, _clock) = Obs::simulated();
    Replay::new(scenario.market(), &spec, scenario.config(interval_hours))
        .repair(RepairConfig::hybrid())
        .store(scenario.store())
        .obs(&obs)
        .run(ExtraStrategy::new(0, 0.02));
    let snap = obs.metrics.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    println!("\nhybrid controller ledger:");
    println!("  deaths detected     {:>6}", counter("repair.deaths_detected"));
    println!("  rebids issued       {:>6}", counter("repair.rebids"));
    println!("  spot replacements   {:>6}", counter("repair.spot_replacements"));
    println!("  backoff waits       {:>6}", counter("repair.backoff_waits"));
    println!("  on-demand launches  {:>6}", counter("repair.on_demand_launches"));
    println!("  on-demand minutes   {:>6}", counter("repair.on_demand_minutes"));
    println!("  too late to repair  {:>6}", counter("repair.too_late"));

    let off = &cells[0].result;
    let hybrid = &cells[2].result;
    println!(
        "\nrepair shrank degraded time {} -> {} minutes at ${:.2} extra cost \
         (baseline would cost ${:.2})",
        off.degraded_minutes,
        hybrid.degraded_minutes,
        (hybrid.total_cost - off.total_cost).as_dollars(),
        baseline.as_dollars()
    );
}
