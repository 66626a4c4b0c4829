//! A miniature of Figures 6/7: replay the lock service over the market
//! under Jupiter and the Extra heuristics, and print the cost/availability
//! trade-off that is the paper's core result — plus the observability
//! layer's view of each replay (bids, deaths by cause, decision timing).
//!
//! The comparison is one declarative [`SweepSpec`] run by the scenario
//! engine: the engine shares one trained kernel per zone across all three
//! strategy cells (watch `model_store.fits_performed` stay at the zone
//! count) and every cell adds its counters into the scenario's one
//! registry. The per-strategy ledger replays each strategy again with an
//! `Obs` of its own, on the scenario's kernels.
//!
//! ```text
//! cargo run --release --example strategy_comparison
//! ```

use spot_jupiter::jupiter::{BiddingStrategy, ExtraStrategy, JupiterStrategy, ServiceSpec};
use spot_jupiter::obs::Obs;
use spot_jupiter::replay::scenario::{Scenario, SweepSpec};
use spot_jupiter::replay::Replay;
use spot_jupiter::spot_market::{InstanceType, Market, MarketConfig};

/// The compared strategies; the first records its decisions into `obs`.
fn strategy(i: usize, obs: &Obs) -> Box<dyn BiddingStrategy> {
    match i {
        0 => Box::new(JupiterStrategy::new().with_obs(obs.clone())),
        1 => Box::new(ExtraStrategy::new(0, 0.2)),
        _ => Box::new(ExtraStrategy::new(2, 0.2)),
    }
}

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
    // the per-zone kernels through the scenario, and record into its
    // registry.
    let (obs, _clock) = Obs::simulated();
    let scenario = Scenario::new(market, train, train + eval).with_obs(obs.clone());
    let interval_hours = 6u64;
    let sweep = SweepSpec::new(spec.clone())
        .strategy(|o| strategy(0, o))
        .strategy(|o| strategy(1, o))
        .strategy(|o| strategy(2, o))
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
    }
    println!(
        "{:<14} {:>10.2} {:>13.6} {:>16} {:>7}",
        "Baseline",
        scenario.baseline_cost(&spec).as_dollars(),
        spec.baseline_availability(),
        "-",
        0
    );

    println!("\n== observability: the scenario registry ==");
    let combined = obs.metrics.snapshot();
    println!(
        "{} counters from {} cells in one registry; bids across all: {}; \
         kernels fitted {} / reused {}",
        combined.counters.len(),
        cells.len(),
        combined.counter("replay.bids_placed").unwrap_or(0),
        combined.counter("model_store.fits_performed").unwrap_or(0),
        combined.counter("model_store.fits_reused").unwrap_or(0),
    );

    // Each strategy once more, alone with its own `Obs`, on the kernels
    // the sweep fitted.
    let ledgers: Vec<(String, Obs)> = (0..cells.len())
        .map(|i| {
            let (own, _clock) = Obs::simulated();
            let r = Replay::new(scenario.market(), &spec, scenario.config(interval_hours))
                .store(scenario.store())
                .obs(&own)
                .run(strategy(i, &own));
            (r.strategy, own)
        })
        .collect();
    println!("\n== observability: what each strategy actually did ==");
    println!(
        "{:<14} {:>6} {:>9} {:>10} {:>9} {:>8} {:>13}",
        "strategy", "bids", "granted", "oob death", "boundary", "end", "same-minute"
    );
    for (name, own) in &ledgers {
        let snap = own.metrics.snapshot();
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
    let jupiter = ledgers[0].1.metrics.snapshot();
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

    println!(
        "\nThe paper's claim, in miniature: only the failure-model-driven\n\
         bids hold the availability level, and they do so at a fraction of\n\
         the on-demand cost. Extra(0,p) is cheap but fails; Extra(2,p)\n\
         buys availability with two more instances and still falls short."
    );
}
