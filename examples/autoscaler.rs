//! Auto-scaler demo: replay a heterogeneous m1.small + m3.large fleet
//! under a diurnal load curve and print where the capacity came from.
//!
//! ```text
//! cargo run --release --example autoscaler
//! ```

use spot_jupiter::jupiter::{JupiterStrategy, ServiceSpec};
use spot_jupiter::obs::Obs;
use spot_jupiter::replay::experiments::{diurnal_rate, PER_STRENGTH_THROUGHPUT};
use spot_jupiter::replay::{demand_series, AutoScaler, AutoscaleConfig, Replay, ReplayConfig};
use spot_jupiter::spot_market::{InstanceType, Market, MarketConfig};

fn main() {
    // Ten days of per-type market history across four zones: five train
    // days, five evaluation days.
    let mut cfg = MarketConfig::hetero_paper(2014, 10 * 24 * 60);
    cfg.zones.truncate(4);
    let market = Market::generate(cfg);
    let train = 5 * 24 * 60;

    let pools = [InstanceType::M1Small, InstanceType::M3Large];
    let spec = ServiceSpec::lock_service().with_pools(&pools);
    println!(
        "service: {} over {{{}}}, diurnal load {:.0}..{:.0} req/s",
        spec.name,
        pools.map(|t| t.api_name()).join(", "),
        diurnal_rate(0.0),
        diurnal_rate(43_200.0),
    );

    // The controller re-targets the fleet's serving strength at every
    // 3-hour bidding boundary from the sampled demand curve; Jupiter then
    // buys that strength from whichever (zone, type) pools are cheapest.
    let demand = demand_series(diurnal_rate, train, market.horizon(), 60, PER_STRENGTH_THROUGHPUT);
    let mut scaler = AutoScaler::new(
        AutoscaleConfig {
            min_strength: 4,
            max_strength: 24,
            ..AutoscaleConfig::default()
        },
        demand,
    );
    let (obs, _clock) = Obs::simulated();
    let config = ReplayConfig::new(train, market.horizon(), 3);
    let result = Replay::new(&market, &spec, config)
        .autoscaler(&mut scaler)
        .obs(&obs)
        .run(JupiterStrategy::new());

    println!("\nper-pool allocation:");
    println!(
        "{:<18} {:<10} {:>7} {:>10} {:>12} {:>10}",
        "zone", "type", "weight", "instances", "node-hours", "cost ($)"
    );
    for ((zone, ty), cost) in result.cost_by_pool() {
        let in_pool = result
            .instances
            .iter()
            .filter(|rec| rec.zone == zone && rec.instance_type == ty);
        let (mut launched, mut minutes) = (0u64, 0u64);
        for rec in in_pool {
            launched += 1;
            minutes += rec.ended_at - rec.granted_at;
        }
        println!(
            "{:<18} {:<10} {:>7} {:>10} {:>12.1} {:>10.2}",
            zone.name(),
            ty.api_name(),
            ty.capacity_weight(),
            launched,
            minutes as f64 / 60.0,
            cost.as_dollars()
        );
    }

    let (outs, ins) = scaler.scale_events();
    println!(
        "\navailability {:.6}, total ${:.2} ({} scale-outs, {} scale-ins, final target {})",
        result.availability(),
        result.total_cost.as_dollars(),
        outs,
        ins,
        scaler.target()
    );
}
