//! A miniature of Figures 6/7: replay the lock service over the market
//! under Jupiter and the Extra heuristics, and print the cost/availability
//! trade-off that is the paper's core result — plus the observability
//! layer's view of each replay (bids, deaths by cause, decision timing).
//!
//! The comparison is one declarative [`SweepSpec`] run by the scenario
//! engine: the engine shares one trained kernel per zone across all three
//! strategy cells (watch `model_store.fits_performed` stay at the zone
//! count) and folds each cell's private metrics registry into the
//! scenario registry under a `cell.{strategy}.{interval}h.` prefix.
//!
//! ```text
//! cargo run --release --example strategy_comparison
//! ```

use spot_jupiter::jupiter::{ExtraStrategy, JupiterStrategy, ServiceSpec};
use spot_jupiter::obs::{MetricsSnapshot, Obs};
use spot_jupiter::replay::scenario::{Scenario, SweepSpec};
use spot_jupiter::spot_market::{InstanceType, Market, MarketConfig};

fn main() {
    // 4 training weeks + 2 evaluation weeks, 12 zones.
    let train = 4 * 7 * 24 * 60;
    let eval = 2 * 7 * 24 * 60;
    let mut cfg = MarketConfig::paper(2015, train + eval);
    cfg.zones.truncate(12);
    cfg.types = vec![InstanceType::M1Small];
    let market = Market::generate(cfg);
    let spec = ServiceSpec::lock_service();

    // The whole comparison is one sweep: the cells share the market and
    // the per-zone kernels through the scenario; each cell gets a private
    // Obs (handed to the strategy factory, so Jupiter's decision metrics
    // stay separable per cell).
    let (obs, _clock) = Obs::simulated();
    let scenario = Scenario::new(market, train, train + eval).with_obs(obs.clone());
    let interval_hours = 6u64;
    let sweep = SweepSpec::new(spec.clone())
        .strategy(|o| Box::new(JupiterStrategy::new().with_obs(o.clone())))
        .strategy(|_| Box::new(ExtraStrategy::new(0, 0.2)))
        .strategy(|_| Box::new(ExtraStrategy::new(2, 0.2)))
        .intervals(vec![interval_hours]);

    println!(
        "lock service, 2 evaluated weeks, {interval_hours} h bidding interval, {} zones\n",
        scenario.market().zones().len()
    );
    println!(
        "{:<14} {:>10} {:>13} {:>16} {:>7}",
        "strategy", "cost ($)", "availability", "downtime (min)", "kills"
    );
    let cells = scenario.run(&sweep);
    let mut snapshots: Vec<(String, MetricsSnapshot)> = Vec::new();
    for cell in &cells {
        let r = &cell.result;
        println!(
            "{:<14} {:>10.2} {:>13.6} {:>16} {:>7}",
            r.strategy,
            r.total_cost.as_dollars(),
            r.availability(),
            r.downtime_minutes(),
            r.total_kills()
        );
        snapshots.push((
            r.strategy.clone(),
            r.metrics
                .clone()
                .expect("cells of an observed scenario carry metrics"),
        ));
    }
    println!(
        "{:<14} {:>10.2} {:>13.6} {:>16} {:>7}",
        "Baseline",
        scenario.baseline_cost(&spec).as_dollars(),
        spec.baseline_availability(),
        "-",
        0
    );

    println!("\n== observability: what each strategy actually did ==");
    println!(
        "{:<14} {:>6} {:>9} {:>10} {:>9} {:>8} {:>13}",
        "strategy", "bids", "granted", "oob death", "boundary", "end", "same-minute"
    );
    for (name, snap) in &snapshots {
        println!(
            "{:<14} {:>6} {:>9} {:>10} {:>9} {:>8} {:>13}",
            name,
            snap.counter("replay.bids_placed").unwrap_or(0),
            snap.counter_family("replay.granted."),
            snap.counter("replay.death.out_of_bid").unwrap_or(0),
            snap.counter("replay.death.boundary").unwrap_or(0),
            snap.counter("replay.death.end_of_replay").unwrap_or(0),
            snap.counter("replay.same_minute_death").unwrap_or(0),
        );
    }

    println!("\n== observability: decision-making cost (Jupiter only) ==");
    let jupiter = &snapshots[0].1;
    // Interpolated quantile estimates smooth over the power-of-two
    // bucket bounds (`p50`/`p95` report the raw bucket upper bound).
    if let Some(h) = jupiter.histogram("jupiter.decide_micros") {
        println!(
            "decide():   {} calls, p50 {:.1} µs, p90 {:.1} µs, p99 {:.1} µs, max {} µs",
            h.count, h.p50_est, h.p90_est, h.p99_est, h.max
        );
    }
    if let Some(h) = jupiter.histogram("jupiter.forecast_micros") {
        println!(
            "forecast(): {} calls, p50 {:.1} µs, p90 {:.1} µs, p99 {:.1} µs, max {} µs",
            h.count, h.p50_est, h.p90_est, h.p99_est, h.max
        );
    }
    println!(
        "candidates: {} node counts evaluated, {} feasible",
        jupiter.counter("jupiter.candidates_evaluated").unwrap_or(0),
        jupiter.counter("jupiter.candidates_feasible").unwrap_or(0),
    );

    println!("\n== observability: the scenario registry ==");
    let combined = obs.metrics.snapshot();
    println!(
        "{} counters from {} cells in one registry; bids across all: {}; \
         kernels fitted {} / reused {}",
        combined.counters.len(),
        cells.len(),
        snapshots
            .iter()
            .map(|(name, _)| combined
                .counter(&format!("cell.{name}.{interval_hours}h.replay.bids_placed"))
                .unwrap_or(0))
            .sum::<u64>(),
        combined.counter("model_store.fits_performed").unwrap_or(0),
        combined.counter("model_store.fits_reused").unwrap_or(0),
    );
    for (name, value) in &combined.counters {
        if name.starts_with("cell.") && name.ends_with(".bids_placed") {
            println!("  {name} {value}");
        }
    }

    println!(
        "\nThe paper's claim, in miniature: only the failure-model-driven\n\
         bids hold the availability level, and they do so at a fraction of\n\
         the on-demand cost. Extra(0,p) is cheap but fails; Extra(2,p)\n\
         buys availability with two more instances and still falls short."
    );
}
