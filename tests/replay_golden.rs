//! Whole-result golden for the replay loop: one FNV-1a-64 digest per run
//! over the accounting the replay hands back (`strategy`, `total_cost`,
//! `up_minutes`, `degraded_minutes`, `on_demand_cost`, every instance
//! record, every interval outcome) and everything it recorded into the
//! run's `Obs` — the metric key set and values (`name value` per counter,
//! `name count` per histogram), every series (`SeriesSnapshot::to_json`),
//! the audit log and the alerts — across the era / repair / pool / scaler
//! / schedule / store axes at once.
//!
//! The accounting these digests pin was first recorded at commit 763eb9e
//! (the nine `replay_*` wrappers over `replay_core`), before the loop was
//! split into phases; the table below maps each chain here to the call
//! there. The values themselves were re-keyed at 4fda18e, the last tree
//! with the Prometheus / JSON-lines exporters the digest used to
//! serialise through and with the instruments no reader named: this
//! `digest`, run there with those instruments filtered out of its input
//! by name, gives these seven values (recorded twice, equal; the filter
//! list and the patch are in CHANGES.md, PR 18). Here nothing is
//! filtered — the names no longer exist.
//!
//! To reproduce the 763eb9e recording, put the pre-PR-18 form of this
//! file into that tree with each `Replay::new(m, spec, config)…run(strategy)`
//! chain spelled as the wrapper it replaced and run `cargo test --offline
//! --test replay_golden`:
//!
//! | chain here                                  | call at 763eb9e |
//! |---------------------------------------------|-----------------|
//! | `.obs(o)`                                   | `replay_strategy_observed(m, spec, strategy, config, o)` |
//! | `.repair(r).obs(o)` / `.repair(r).store(s).obs(o)` | `replay_repair_stored(m, spec, strategy, config, r, s, o)` with `s = &ModelStore::with_obs(o.clone())` where none is given |
//! | `.autoscaler(a).obs(o)`                     | `replay_autoscale_stored(m, spec, strategy, config, RepairConfig::off(), \|_\| 180, &ModelStore::with_obs(o.clone()), a, o)` |
//! | `config(None)` … `.obs(o)`                   | `replay_adaptive_stored(m, spec, strategy, config, a, &ModelStore::with_obs(o.clone()), o)` with `a` that tree's default adaptive parameters (constants in `replay::adaptive` since PR 19) |
//!
//! Host wall-clock samples cannot be pinned: histograms keep only their
//! sample count, and `*_micros` series only their point count.

use spot_jupiter::jupiter::{
    ExtraStrategy, FeedbackStrategy, JupiterStrategy, ModelStore, ServiceSpec,
};
use spot_jupiter::obs::{self, Obs};
use spot_jupiter::replay::experiments::{diurnal_rate, PER_STRENGTH_THROUGHPUT};
use spot_jupiter::replay::{
    demand_series, AutoScaler, AutoscaleConfig, RepairConfig, Replay, ReplayConfig,
    ReplayResult,
};
use spot_jupiter::spot_market::{BidEra, InstanceType, Market, MarketConfig};

const DAY: u64 = 24 * 60;
/// Two training weeks, three evaluation days.
const EVAL_START: u64 = 14 * DAY;
const EVAL_END: u64 = 17 * DAY;

const WANT: [u64; 7] = [
    0xa841b8811cd2b6ff, // Jupiter, 6 h, plain
    0x16856ecaaf6cc9cb, // Extra(0,0.02), 3 h, hybrid repair
    0x3a51d8dbd3343da3, // Feedback, 3 h, capacity era + migrate
    0xaf86387c205fc509, // Jupiter, 3 h, {m1.small, m3.large} + auto-scaler
    0xea34d5930f453420, // Jupiter, adaptive schedule
    0x76130dd0f03898a9, // Extra(0,0.2), 12 h, reactive, shared store: first run
    0x1b61de9b26b1bd84, // … second run on the same store and registry
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

fn config(hours: impl Into<Option<u64>>) -> ReplayConfig {
    ReplayConfig::new(EVAL_START, EVAL_END, hours)
}

/// The digest of `r` and of what its replay recorded into `o`.
fn digest(r: &ReplayResult, o: &Obs) -> u64 {
    use std::fmt::Write as _;
    let metrics = o.metrics.snapshot();
    let mut text = format!(
        "{:?}\n",
        (
            &r.strategy,
            r.total_cost,
            r.up_minutes,
            r.degraded_minutes,
            r.on_demand_cost,
            &r.instances,
            &r.intervals
        )
    );
    for (name, v) in &metrics.counters {
        writeln!(text, "{name} {v}").unwrap();
    }
    for (name, h) in &metrics.histograms {
        writeln!(text, "{name} {}", h.count).unwrap();
    }
    for s in &o.series.snapshot() {
        if s.name.ends_with("_micros") {
            writeln!(text, "{} {}", s.name, s.points.len()).unwrap();
        } else {
            writeln!(text, "{}", s.to_json()).unwrap();
        }
    }
    let (audit, alerts) = (o.audit.snapshot(), o.alerts.snapshot());
    text.push_str(&obs::json_lines(&audit, obs::AuditRecord::to_json));
    text.push_str(&obs::json_lines(&alerts, obs::AlertEvent::to_json));
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
    got.push(digest(&r, &o));

    let (o, _clock) = Obs::simulated();
    let r = Replay::new(&m, &spec, config(3))
        .repair(RepairConfig::hybrid())
        .obs(&o)
        .run(ExtraStrategy::new(0, 0.02));
    got.push(digest(&r, &o));

    let (o, _clock) = Obs::simulated();
    let r = Replay::new(&m, &spec, config(3).with_era(BidEra::CapacityReclaim))
        .repair(RepairConfig::migrate())
        .obs(&o)
        .run(FeedbackStrategy::new());
    got.push(digest(&r, &o));

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
        },
        demand,
    );
    let (o, _clock) = Obs::simulated();
    let r = Replay::new(&hetero, &hetero_spec, config(3))
        .autoscaler(&mut scaler)
        .obs(&o)
        .run(JupiterStrategy::new().with_obs(o.clone()));
    got.push(digest(&r, &o));

    let (o, _clock) = Obs::simulated();
    let r = Replay::new(&m, &spec, config(None))
        .obs(&o)
        .run(JupiterStrategy::new().with_obs(o.clone()));
    got.push(digest(&r, &o));

    let (o, _clock) = Obs::simulated();
    let store = ModelStore::with_obs(o.clone());
    for _ in 0..2 {
        let r = Replay::new(&m, &spec, config(12))
            .repair(RepairConfig::reactive())
            .store(&store)
            .obs(&o)
            .run(ExtraStrategy::new(0, 0.2));
        got.push(digest(&r, &o));
    }

    assert_eq!(got, WANT, "got {got:#018x?}");
}
