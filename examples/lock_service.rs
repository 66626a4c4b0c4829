//! The feasibility demo (§5.4, service level): run the *actual* Paxos
//! lock service while Jupiter bids for its spot instances — out-of-bid
//! kills crash live replicas, replacements join through Paxos view
//! change, and a closed-loop client measures what the users would see.
//!
//! ```text
//! cargo run --release --example lock_service
//! ```

use spot_jupiter::jupiter::JupiterStrategy;
use spot_jupiter::obs::Obs;
use spot_jupiter::replay::service_level::{lock_service_replay, ServiceReplayConfig};
use spot_jupiter::spot_market::{InstanceType, Market, MarketConfig};

fn main() {
    // Four weeks of training history + a 12-hour evaluated window.
    let train = 4 * 7 * 24 * 60;
    let window = 12 * 60;
    let mut cfg = MarketConfig::paper(7, train + window + 60);
    cfg.types = vec![InstanceType::M1Small];
    let market = Market::generate(cfg);

    println!("replaying a 12-hour market window against a live Paxos lock service…");
    let out = lock_service_replay(
        &market,
        JupiterStrategy::new(),
        ServiceReplayConfig {
            eval_start: train,
            window_minutes: window,
            interval_hours: 3,
            seed: 99,
        },
        &Obs::disabled(),
    );

    println!("\n— service-level outcome —");
    println!("lock ops completed:   {}", out.ops_completed);
    println!("ops unfinished:       {}", out.ops_unfinished);
    println!(
        "mean latency:         {:.0} ms (simulated)",
        out.mean_latency_ms
    );
    println!("max latency:          {} ms", out.max_latency_ms);
    println!("within 5 s SLA:       {:.2}%", 100.0 * out.sla_fraction);
    println!("view changes:         {}", out.reconfigs);
    println!("out-of-bid crashes:   {}", out.crashes);
    println!("agreed log prefix:    {} entries", out.agreed_log_len);
    println!(
        "\nThe replicas crashed by the market never broke agreement: every\n\
         surviving replica applied the identical command sequence."
    );
}
