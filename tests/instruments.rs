//! The instrument inventory: every counter, histogram and series name
//! the workspace records, with who reads it. One observed run per writer
//! family collects the names (zones, instance types and message kinds
//! normalised away) and the set must equal [`INVENTORY`] exactly — so a
//! signal added without a reader fails here, and so does a reader whose
//! signal was dropped.
//!
//! A reader is something that *names* the signal: a test assertion, a
//! golden's name filter, a benchmark probe, a `repro` line or chart, a
//! `ci.sh` grep, an example. Dumps of whatever exists (`Obs::to_json`,
//! the `--metrics-out` histogram table, the report's all-counters table,
//! `tests/replay_golden.rs`'s whole-registry digest) are not readers.

use std::collections::BTreeSet;

use spot_jupiter::jupiter::{ExtraStrategy, JupiterStrategy, ModelStore, ServiceSpec};
use spot_jupiter::obs::Obs;
use spot_jupiter::replay::experiments::{diurnal_rate, PER_STRENGTH_THROUGHPUT};
use spot_jupiter::replay::service_level::{
    lock_service_replay, storage_service_replay, ServiceReplayConfig,
};
use spot_jupiter::replay::{
    demand_series, AutoScaler, AutoscaleConfig, RepairConfig, Replay, ReplayConfig,
};
use spot_jupiter::simnet::{NetworkConfig, SimTime};
use spot_jupiter::spot_market::{BidEra, InstanceType, Market, MarketConfig};
use spot_jupiter::workload::{
    run_lock_workload, run_storage_workload, ArrivalProcess, WorkloadSpec,
};
use test_util::{hetero_market_days, market_days};

/// `(name, kind, reader)`, sorted by name then kind.
const INVENTORY: &[(&str, &str, &str)] = &[
    ("jupiter.candidates_evaluated", "counter", "benchmark REGISTRY_COUNTERS; jupiter algorithm.rs test"),
    ("jupiter.candidates_feasible", "counter", "examples/strategy_comparison.rs"),
    ("jupiter.decide_micros", "histogram", "benchmark jupiter.decide_calls; examples/strategy_comparison.rs"),
    ("jupiter.decide_micros", "series", "repro report chart \"Bidding decision latency\""),
    ("jupiter.forecast_micros", "histogram", "jupiter algorithm.rs test; examples/strategy_comparison.rs"),
    ("jupiter.forecasts_computed", "counter", "benchmark REGISTRY_COUNTERS; jupiter algorithm.rs test"),
    ("jupiter.forward_evolution_micros", "histogram", "jupiter algorithm.rs test"),
    ("jupiter.fp_cache_hits", "counter", "benchmark fp_cache_hit_ratio; replay audit `fp_cache_hit`"),
    ("jupiter.fp_cache_misses", "counter", "benchmark fp_cache_hit_ratio; jupiter algorithm.rs test"),
    ("migrate.launched", "counter", "benchmark REGISTRY_COUNTERS"),
    ("model_store.fit_micros", "histogram", "jupiter store.rs test"),
    ("model_store.fits_performed", "counter", "benchmark REGISTRY_COUNTERS; replay scenario.rs tests"),
    ("model_store.fits_reused", "counter", "benchmark REGISTRY_COUNTERS; replay scenario.rs tests"),
    ("notice.emitted", "counter", "replay lifecycle.rs capacity-era test"),
    ("paxos.elections_started", "counter", "benchmark REGISTRY_COUNTERS; consensus_golden metrics_part"),
    ("paxos.leadership_acquired", "counter", "consensus_golden metrics_part; paxos tests/cluster.rs"),
    ("paxos.msg_recv.{kind}", "counter", "consensus_golden metrics_part; repro metrics line"),
    ("paxos.msg_sent.{kind}", "counter", "benchmark paxos.* ratios; consensus_golden metrics_part"),
    ("paxos.phase1_micros", "histogram", "consensus_golden metrics_part"),
    ("paxos.phase2_micros", "histogram", "consensus_golden metrics_part; paxos tests/cluster.rs"),
    ("paxos.reads_deferred", "counter", "consensus_golden lock local reads"),
    ("paxos.reads_local", "counter", "consensus_golden lock local reads"),
    ("pool.fleet.{type}", "series", "repro hetero table; ci.sh grep"),
    ("pool.strength", "series", "repro hetero table"),
    ("repair.backoff_waits", "counter", "examples/repair_controller.rs"),
    ("repair.deaths_detected", "counter", "tests/replay_properties.rs; replay scenario.rs test"),
    ("repair.degraded_minutes", "counter", "tests/replay_properties.rs"),
    ("repair.degraded_minutes", "series", "repro report chart \"Repair controller\""),
    ("repair.on_demand_launches", "counter", "tests/replay_properties.rs"),
    ("repair.on_demand_minutes", "counter", "examples/repair_controller.rs"),
    ("repair.rebids", "counter", "benchmark REGISTRY_COUNTERS"),
    ("repair.rebids", "series", "repro report chart \"Repair controller\""),
    ("repair.spot_replacements", "counter", "tests/replay_properties.rs"),
    ("repair.too_late", "counter", "examples/repair_controller.rs"),
    ("replay.bid.{zone}", "series", "repro report zone charts"),
    ("replay.bid.{zone}.{type}", "series", "repro report zone charts (heterogeneous runs)"),
    ("replay.bids_placed", "counter", "benchmark REGISTRY_COUNTERS; repro metrics line"),
    ("replay.death.boundary", "counter", "benchmark replay.deaths; examples/strategy_comparison.rs"),
    ("replay.death.end_of_replay", "counter", "benchmark replay.deaths; examples/strategy_comparison.rs"),
    ("replay.death.out_of_bid", "counter", "benchmark replay.deaths; tests/replay_properties.rs"),
    ("replay.deaths", "series", "repro report chart \"Fleet size and out-of-bid kills\""),
    ("replay.fleet_size", "series", "repro report chart \"Fleet size and out-of-bid kills\""),
    ("replay.granted.{zone}", "counter", "examples/strategy_comparison.rs"),
    ("replay.interval_availability", "series", "repro report chart \"Service availability\""),
    ("replay.interval_cost_upper_dollars", "series", "repro report chart \"Cost upper bound\""),
    ("replay.price.{zone}", "series", "repro report zone charts"),
    ("replay.price.{zone}.{type}", "series", "repro report zone charts (heterogeneous runs)"),
    ("replay.same_minute_death", "counter", "examples/strategy_comparison.rs"),
    ("service.crashes", "series", "consensus_golden lock market replay (`service.` filter)"),
    ("service.fleet_size", "series", "consensus_golden lock market replay (`service.` filter)"),
    ("service.reconfigs", "series", "consensus_golden lock market replay (`service.` filter)"),
    ("slo.request_latency.alerts_fired", "counter", "consensus_golden lock market replay (`slo.request_latency.` filter)"),
    ("slo.request_latency.availability", "counter", "consensus_golden lock market replay (`slo.request_latency.` filter)"),
    ("slo.request_latency.budget_remaining", "counter", "consensus_golden lock market replay (`slo.request_latency.` filter)"),
    ("storage.elections_started", "counter", "consensus_golden metrics_part"),
    ("storage.leadership_acquired", "counter", "consensus_golden metrics_part and store chaos"),
    ("storage.msg_recv.{kind}", "counter", "consensus_golden metrics_part"),
    ("storage.msg_sent.{kind}", "counter", "benchmark storage.msgs_per_commit; consensus_golden metrics_part"),
    ("storage.phase1_micros", "histogram", "consensus_golden metrics_part"),
    ("storage.phase2_micros", "histogram", "consensus_golden metrics_part"),
    ("storage.reads_reconstructed", "counter", "consensus_golden store chaos"),
    ("trace.commit_latency_p50_micros", "counter", "consensus_golden folded_trace_part; repro metrics line"),
    ("trace.commit_latency_p99_micros", "counter", "consensus_golden folded_trace_part; repro metrics line"),
    ("trace.incomplete", "counter", "consensus_golden folded_trace_part"),
    ("trace.ops", "counter", "consensus_golden folded_trace_part; repro metrics line"),
    ("trace.orphan_spans", "counter", "consensus_golden folded_trace_part; repro metrics line"),
];

const DAY: u64 = 24 * 60;
const EVAL_START: u64 = 14 * DAY;
const EVAL_END: u64 = 17 * DAY;

/// `name` with the zone, the instance type and the message kind replaced
/// by `{zone}`, `{type}` and `{kind}`.
fn normalise(name: &str, market: &Market) -> String {
    let mut out = name.to_owned();
    for zone in market.zones() {
        out = out.replace(&zone.to_string(), "{zone}");
    }
    for ty in InstanceType::ALL {
        out = out.replace(ty.api_name(), "{type}");
    }
    for family in [".msg_sent.", ".msg_recv."] {
        if let Some(at) = out.find(family) {
            out.truncate(at + family.len());
            out.push_str("{kind}");
        }
    }
    out
}

/// Add every name `obs` holds to `into`.
fn collect(obs: &Obs, market: &Market, into: &mut BTreeSet<(String, &'static str)>) {
    let snapshot = obs.metrics.snapshot();
    for (name, _) in &snapshot.counters {
        into.insert((normalise(name, market), "counter"));
    }
    for (name, _) in &snapshot.histograms {
        into.insert((normalise(name, market), "histogram"));
    }
    for series in obs.series.snapshot() {
        into.insert((normalise(&series.name, market), "series"));
    }
}

#[test]
fn every_recorded_signal_is_in_the_inventory_with_a_reader() {
    let mut got = BTreeSet::new();
    let lock = ServiceSpec::lock_service();

    // Market replay with hybrid repair, twice over one store so a kernel
    // is reused.
    let market = market_days(2014, 8, 17);
    let (obs, _clock) = Obs::simulated();
    let store = ModelStore::with_obs(obs.clone());
    for _ in 0..2 {
        Replay::new(&market, &lock, ReplayConfig::new(EVAL_START, EVAL_END, 3))
            .repair(RepairConfig::hybrid())
            .store(&store)
            .obs(&obs)
            .run(ExtraStrategy::new(0, 0.02));
    }
    collect(&obs, &market, &mut got);

    // Capacity-era migration over two instance types, auto-scaled.
    let hetero = hetero_market_days(2014, 8, 17);
    let pools = [InstanceType::M1Small, InstanceType::M3Large];
    let demand = demand_series(diurnal_rate, EVAL_START, EVAL_END, 60, PER_STRENGTH_THROUGHPUT);
    let mut scaler = AutoScaler::new(
        AutoscaleConfig {
            min_strength: 4,
            max_strength: 24,
        },
        demand,
    );
    let (obs, _clock) = Obs::simulated();
    Replay::new(
        &hetero,
        &lock.clone().with_pools(&pools),
        ReplayConfig::new(EVAL_START, EVAL_END, 3).with_era(BidEra::CapacityReclaim),
    )
    .repair(RepairConfig::migrate())
    .autoscaler(&mut scaler)
    .obs(&obs)
    .run(JupiterStrategy::new().with_obs(obs.clone()));
    collect(&obs, &hetero, &mut got);

    // The two live services under the market.
    let service = ServiceReplayConfig {
        eval_start: EVAL_START,
        window_minutes: 4 * 60,
        interval_hours: 2,
        seed: 7,
    };
    let (obs, _clock) = Obs::simulated();
    lock_service_replay(
        &market,
        JupiterStrategy::new().with_obs(obs.clone()),
        service,
        &obs,
    );
    collect(&obs, &market, &mut got);

    let mut cfg = MarketConfig::paper(41, EVAL_START + 5 * 60);
    cfg.zones.truncate(8);
    cfg.types = vec![InstanceType::M3Large];
    let store_market = Market::generate(cfg);
    let (obs, _clock) = Obs::simulated();
    storage_service_replay(
        &store_market,
        JupiterStrategy {
            max_nodes: Some(5),
            ..JupiterStrategy::new()
        }
        .with_obs(obs.clone()),
        service,
        &obs,
    );
    collect(&obs, &store_market, &mut got);

    // The workload engine on both services, at `tests/workload.rs`'s
    // smallest size.
    let spec = WorkloadSpec {
        arrivals: ArrivalProcess::Poisson { rate_per_sec: 40.0 },
        horizon: SimTime::from_secs(5),
        sessions: 16,
        population: 200,
        trace_every: 4,
        ..WorkloadSpec::default()
    };
    let (obs, _clock) = Obs::simulated();
    run_lock_workload(&spec, NetworkConfig::default(), &obs);
    collect(&obs, &market, &mut got);
    let (obs, _clock) = Obs::simulated();
    run_storage_workload(&spec, NetworkConfig::default(), &obs);
    collect(&obs, &market, &mut got);

    for &(name, _, reader) in INVENTORY {
        assert!(!reader.is_empty(), "{name} names no reader");
    }
    let want: BTreeSet<(String, &str)> = INVENTORY
        .iter()
        .map(|&(name, kind, _)| (name.to_owned(), kind))
        .collect();
    assert_eq!(want.len(), INVENTORY.len(), "duplicate inventory row");
    let unread: Vec<_> = got.difference(&want).collect();
    let unwritten: Vec<_> = want.difference(&got).collect();
    assert!(
        unread.is_empty() && unwritten.is_empty(),
        "recorded but not in INVENTORY (give it a reader or delete it): {unread:#?}\n\
         in INVENTORY but never recorded: {unwritten:#?}"
    );
}
