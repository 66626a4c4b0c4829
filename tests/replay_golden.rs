//! Whole-result golden for the replay loop: one FNV-1a-64 digest per run
//! over everything a replay hands back — the accounting (`strategy`,
//! `total_cost`, `up_minutes`, `degraded_minutes`, `on_demand_cost`,
//! every instance record, every interval outcome), the metric key set
//! and values (Prometheus text), every series sample, the audit log and
//! the alerts — across the era / repair / pool / scaler / schedule /
//! store axes at once.
//!
//! The digests were recorded at commit 763eb9e (the nine `replay_*`
//! wrappers over `replay_core`), before the loop was split into phases.
//! To reproduce them there, put this file into that tree with each
//! `Replay::new(m, spec, config)…run(strategy)` chain spelled as the
//! wrapper it replaced and run `cargo test --offline --test
//! replay_golden`:
//!
//! | chain here                                  | call at 763eb9e |
//! |---------------------------------------------|-----------------|
//! | `.obs(o)`                                   | `replay_strategy_observed(m, spec, strategy, config, o)` |
//! | `.repair(r).obs(o)` / `.repair(r).store(s).obs(o)` | `replay_repair_stored(m, spec, strategy, config, r, s, o)` with `s = &ModelStore::with_obs(o.clone())` where none is given |
//! | `.autoscaler(a).obs(o)`                     | `replay_autoscale_stored(m, spec, strategy, config, RepairConfig::off(), \|_\| 180, &ModelStore::with_obs(o.clone()), a, o)` |
//! | `.adaptive(a).obs(o)`                       | `replay_adaptive_stored(m, spec, strategy, config, a, &ModelStore::with_obs(o.clone()), o)` |
//!
//! Host wall-clock samples cannot be pinned: histograms keep only their
//! sample count, and `*_micros` series only their point count.

use spot_jupiter::jupiter::{
    ExtraStrategy, FeedbackStrategy, JupiterStrategy, ModelStore, ServiceSpec,
};
use spot_jupiter::obs::{self, Obs};
use spot_jupiter::replay::experiments::{diurnal_rate, PER_STRENGTH_THROUGHPUT};
use spot_jupiter::replay::{
    demand_series, AdaptiveConfig, AutoScaler, AutoscaleConfig, RepairConfig, Replay, ReplayConfig,
    ReplayResult,
};
use spot_jupiter::spot_market::{BidEra, InstanceType, Market, MarketConfig};

const DAY: u64 = 24 * 60;
/// Two training weeks, three evaluation days.
const EVAL_START: u64 = 14 * DAY;
const EVAL_END: u64 = 17 * DAY;

const WANT: [u64; 7] = [
    0x9f2e6fb3b533ddd6, // Jupiter, 6 h, plain
    0xb241375a365b96c3, // Extra(0,0.02), 3 h, hybrid repair
    0xbbf41edb1a94be1d, // Feedback, 3 h, capacity era + migrate
    0xd86f5d6d46245580, // Jupiter, 3 h, {m1.small, m3.large} + auto-scaler
    0xa0e0658abc8f3d0b, // Jupiter, adaptive schedule
    0x4d11de425b2b4df5, // Extra(0,0.2), 12 h, reactive, shared store: first run
    0x4a2ed26a5cf52ae3, // … second run on the same store and registry
];

fn market(hetero: bool) -> Market {
    let mut cfg = if hetero {
        MarketConfig::hetero_paper(2014, EVAL_END)
    } else {
        MarketConfig::paper(2014, EVAL_END)
    };
    cfg.zones.truncate(8);
    if !hetero {
        cfg.types = vec![InstanceType::M1Small];
    }
    Market::generate(cfg)
}

fn config(hours: u64) -> ReplayConfig {
    ReplayConfig::new(EVAL_START, EVAL_END, hours)
}

fn digest(r: &ReplayResult) -> u64 {
    let mut metrics = r.metrics.clone().expect("metrics enabled");
    for (_, h) in &mut metrics.histograms {
        *h = obs::HistogramSummary {
            count: h.count,
            ..Default::default()
        };
    }
    let (timed, series): (Vec<_>, Vec<_>) = r
        .series
        .iter()
        .cloned()
        .partition(|s| s.name.ends_with("_micros"));
    let timed: Vec<_> = timed.iter().map(|s| (&s.name, s.points.len())).collect();
    let text = format!(
        "{:?}\n{:?}\n{}{}{}{}",
        (
            &r.strategy,
            r.total_cost,
            r.up_minutes,
            r.degraded_minutes,
            r.on_demand_cost,
            &r.instances,
            &r.intervals
        ),
        timed,
        obs::export::prometheus_text(&metrics),
        obs::export::samples_jsonl(&series),
        obs::audit_jsonl(&r.audit),
        obs::alerts_jsonl(&r.alerts),
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn whole_result_digests_match_the_pre_refactor_loop() {
    let m = market(false);
    let spec = ServiceSpec::lock_service();
    let mut got = Vec::new();

    let (o, _clock) = Obs::simulated();
    let r = Replay::new(&m, &spec, config(6))
        .obs(&o)
        .run(JupiterStrategy::new().with_obs(o.clone()));
    got.push(digest(&r));

    let (o, _clock) = Obs::simulated();
    let r = Replay::new(&m, &spec, config(3))
        .repair(RepairConfig::hybrid())
        .obs(&o)
        .run(ExtraStrategy::new(0, 0.02));
    got.push(digest(&r));

    let (o, _clock) = Obs::simulated();
    let r = Replay::new(&m, &spec, config(3).with_era(BidEra::CapacityReclaim))
        .repair(RepairConfig::migrate())
        .obs(&o)
        .run(FeedbackStrategy::new());
    got.push(digest(&r));

    let hetero = market(true);
    let pools = [InstanceType::M1Small, InstanceType::M3Large];
    let hetero_spec = ServiceSpec::lock_service().with_pools(&pools);
    let demand = demand_series(
        diurnal_rate,
        EVAL_START,
        EVAL_END,
        60,
        PER_STRENGTH_THROUGHPUT,
    );
    let mut scaler = AutoScaler::new(
        AutoscaleConfig {
            min_strength: 4,
            max_strength: 24,
            ..AutoscaleConfig::default()
        },
        demand,
    );
    let (o, _clock) = Obs::simulated();
    let r = Replay::new(&hetero, &hetero_spec, config(3))
        .autoscaler(&mut scaler)
        .obs(&o)
        .run(JupiterStrategy::new().with_obs(o.clone()));
    got.push(digest(&r));

    let (o, _clock) = Obs::simulated();
    let r = Replay::new(&m, &spec, config(1))
        .adaptive(AdaptiveConfig::default())
        .obs(&o)
        .run(JupiterStrategy::new().with_obs(o.clone()));
    got.push(digest(&r));

    let (o, _clock) = Obs::simulated();
    let store = ModelStore::with_obs(o.clone());
    for _ in 0..2 {
        let r = Replay::new(&m, &spec, config(12))
            .repair(RepairConfig::reactive())
            .store(&store)
            .obs(&o)
            .run(ExtraStrategy::new(0, 0.2));
        got.push(digest(&r));
    }

    assert_eq!(got, WANT, "got {got:#018x?}");
}
