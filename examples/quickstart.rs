//! Quickstart: train the failure models on synthetic market history and
//! make one Jupiter bidding decision.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use spot_jupiter::jupiter::{BiddingFramework, JupiterStrategy, ServiceSpec};
use spot_jupiter::replay::lifecycle::snapshots_at;
use spot_jupiter::spot_market::{InstanceType, Market, MarketConfig};

fn main() {
    // Two months of history across the paper's 17 availability zones.
    let market = Market::generate(MarketConfig::paper(2014, 60 * 24 * 60));
    let ty = InstanceType::M1Small;
    let spec = ServiceSpec::lock_service();
    println!(
        "service: {} ({} × {} on-demand, availability target {:.10})",
        spec.name,
        spec.baseline_nodes,
        ty.api_name(),
        spec.availability_target()
    );

    // One failure model per zone, trained from the full history.
    let mut fw = BiddingFramework::new(spec, JupiterStrategy::new());
    let now = market.horizon() - 1;
    for &zone in market.zones() {
        fw.observe(zone, ty, market.trace(zone, ty), 0..market.horizon());
    }
    let snapshots = snapshots_at(&market, &[ty], now);

    // Bid for the next 6-hour interval.
    let decision = fw.decide(&snapshots, 360);
    println!("\nJupiter picked {} zones:", decision.n());
    println!(
        "{:<18} {:>10} {:>10} {:>12}",
        "zone", "spot", "bid", "on-demand"
    );
    for pb in &decision.bids {
        let snap = snapshots
            .iter()
            .find(|s| s.zone == pb.zone)
            .expect("snapshot");
        println!(
            "{:<18} {:>10} {:>10} {:>12}",
            pb.zone.name(),
            snap.spot_price,
            pb.bid,
            ty.on_demand_price(pb.zone.region)
        );
    }
    let od5 = ty.on_demand_price(market.zones()[0].region) * 5;
    println!(
        "\ncost upper bound: ${:.4}/h  (5 on-demand nodes: ${:.4}/h)",
        decision.cost_upper_bound().as_dollars(),
        od5.as_dollars()
    );
}
