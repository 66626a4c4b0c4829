//! The option inventory: every field of every config struct, destructured
//! without `..`, so adding a field without coming here is error E0027.
//!
//! The rule (DESIGN.md "Options"): a config field stays when something
//! that compiles gives it a second value — a non-test caller,
//! `benchmark/src`, or a test that needs the other value to reach
//! behaviour production also reaches. Otherwise it is a `const` beside
//! the code that reads it. Each field below is followed by the two places
//! that give it different values. A field marked ONE VALUE holds a single
//! value everywhere today; the comment says what keeps it a field (the
//! frozen `benchmark/` surface names it, or DESIGN.md lists its group as
//! out of scope) — it is the next one to fold when that reason goes.

use spot_jupiter::jupiter::{ExhaustiveSolver, ExtraStrategy, JupiterStrategy, ServiceSpec};
use spot_jupiter::obs::SloSpec;
use spot_jupiter::paxos::ReplicaConfig;
use spot_jupiter::replay::service_level::ServiceReplayConfig;
use spot_jupiter::replay::{AutoscaleConfig, RepairConfig, ReplayConfig};
use spot_jupiter::simnet::{ChaosPlan, NetworkConfig, SimTime};
use spot_jupiter::spot_market::MarketConfig;
use spot_jupiter::spot_model::FailureModelConfig;
use spot_jupiter::storage::RsConfig;
use spot_jupiter::workload::WorkloadSpec;

#[test]
fn every_config_field_is_inventoried() {
    let ReplicaConfig {
        quorum: _,
        // `Majority` by default (lock service); `RsPaxos { m }` in `RsConfig::core()`
        compact_after: _,
        // `Some(4096)` by default; `None` in `RsConfig::core()` (the store cannot snapshot)
        batch_max_ops: _,
        // 1 by default (`lock_service_replay`); 8 in `repro workload` and
        // benchmark/src/serving_wl.rs
        batch_delay: _,
        // 5 ms by default; 20 ms in test-util's `run_lock_chaos_batched` (tests/chaos.rs
        // sweeps c, d)
        pipeline: _,
        // 0 by default (benchmark `lock_serving`); 4 in `repro workload`'s batching section
        obs: _,
        // disabled by default; the caller's `Obs` in `run_lock_workload` /
        // `lock_service_replay`
    } = ReplicaConfig::default();

    let RsConfig {
        m: _,
        // ONE VALUE (3, the paper's θ(3, 5)): benchmark/src/serving_wl.rs names it in its
        // literal
        batch_max_ops: _,
        // 1 by default (`storage_service_replay`); 8 in `repro workload` and benchmark
        // `store_serving`
        batch_delay: _,
        // 5 ms by default; 20 ms in test-util's `run_storage_chaos_batched` (tests/chaos.rs
        // sweep b)
        pipeline: _,
        // 0 by default (benchmark `store_serving`); 2 in test-util's
        // `run_storage_chaos_batched`
        obs: _,
        // disabled by default; the caller's `Obs` in `run_storage_workload` /
        // `storage_service_replay`
    } = RsConfig::default();

    let WorkloadSpec {
        arrivals: _,
        // Poisson 1000 / 200 / 120 req/s across `repro workload`'s sections
        horizon: _,
        // 20 s vs 10 s (`repro --quick workload` lock vs store section)
        sessions: _,
        // 512 vs 128 (`repro workload` lock vs store section)
        population: _,
        // 1 000 000 vs 100 000 (`repro workload` lock vs store section)
        read_fraction: _,
        // ONE VALUE (0.5): benchmark/src/serving_wl.rs names it in its literal
        seed: _,
        // `--seed` in repro and the benchmark; 0x6020 / 0x6025 in tests/consensus_golden.rs
        sla: _,
        // ONE VALUE (800 ms): benchmark/src/serving_wl.rs names it in its literal
        replicas: _,
        // ONE VALUE (5): benchmark/src/serving_wl.rs names it in its literal
        batch_max_ops: _,
        // 8 vs 1 (`repro workload`: "lock batch=8" vs "lock batch=1 pipeline=4")
        pipeline: _,
        // 0 by default; 4 in `repro workload`'s batching section
        trace_every: _,
        // 64 by default (`repro workload`); 0 in tests/workload.rs, 4 in tests/instruments.rs
        start_at: _,
        // ONE VALUE (3 s): benchmark/src/serving_wl.rs names it in its literal
        drain_grace: _,
        // 120 s by default (`repro workload`); 60 s in benchmark/src/serving_wl.rs
    } = WorkloadSpec::default();

    let NetworkConfig {
        min_latency: _,
        // 20 ms by default; 1 ms in benchmark/src/probes.rs and `NetworkConfig::ideal()`
        max_latency: _,
        // 80 ms by default; 3 ms in benchmark/src/probes.rs
        drop_probability: _,
        // 0.001 by default; 0.0 in benchmark/src/probes.rs
    } = NetworkConfig::default();

    let MarketConfig {
        seed: _,
        // `--seed` in repro and the benchmark
        zones: _,
        // all 17 in `MarketConfig::paper`; truncated to 8 by `Scale::quick` and benchmark
        // `bid_replay`
        types: _,
        // m1.small + m3.large in `paper`; one type in `Scale::market`
        horizon_minutes: _,
        // `Scale::horizon_minutes()`: 3 weeks under `--quick`, 24 at paper scale
        gen_params: _,
        // ONE VALUE (`GenParams::default()`): `GenParams` is out of scope (DESIGN.md
        // "Options")
        type_params: _,
        // empty in `paper`; m1.medium + m3.large overrides in `hetero_paper`
        type_startup_extra: _,
        // empty in `paper`; 1–2 min surcharges in `hetero_paper`
    } = MarketConfig::paper(0, 1);

    let RepairConfig {
        policy: _,
        // `off()` / `reactive()` / `hybrid()` / `migrate()`: the repair axis of `repro repair`
        // / `era`
    } = RepairConfig::off();

    let AutoscaleConfig {
        min_strength: _,
        // 5 by default; 4 in `experiments::autoscale_report`
        max_strength: _,
        // 64 by default; 24 in `experiments::autoscale_report`
    } = AutoscaleConfig::default();

    let ReplayConfig {
        eval_start: _,
        // `Scale::train_minutes()`: 2 weeks under `--quick`, 13 at paper scale
        eval_end: _,
        // `Scale::horizon_minutes()`
        interval_hours: _,
        // the paper's 1 / 3 / 6 / 9 / 12 h sweep (`SweepSpec::intervals`); `None` (the §5.5
        // adaptive schedule) in `experiments::ablation_adaptive`
        era: _,
        // `Bidding` by default; `CapacityReclaim` in `experiments::era_sweep` and benchmark
        // `controller_sweep`
    } = ReplayConfig::new(0, 1, 1);

    let ServiceSpec {
        name: _,
        // "lock-service" in `lock_service()`; "storage-service" in `storage_service()`
        instance_type: _,
        // m1.small in `lock_service()`; m3.large in `storage_service()`
        baseline_nodes: _,
        // ONE VALUE (5): the paper's n⁰ of Eq. 8–10, a problem input, out of scope
        // (DESIGN.md "Options")
        quorum: _,
        // `Majority` in `lock_service()`; `RsPaxos { m: 3 }` in `storage_service()`
        epsilon: _,
        // 1e-6 in both constructors; 1e-3 and 2e-2 in jupiter exhaustive.rs's proptest,
        // whose 2–4-zone markets carry a decision only under a looser target
        pool_types: _,
        // empty by default; m1.small + m3.large in `experiments::autoscale_report`
        min_strength: _,
        // 0 by default; the auto-scaler's target every boundary (`Run::decide`)
        diversify: _,
        // false by default; true under `BidEra::CapacityReclaim` (`Replay::run`)
    } = ServiceSpec::lock_service();

    let JupiterStrategy {
        estimator: _,
        // `Expectation` in `JupiterStrategy::new()`; `Absorbing` in
        // `JupiterStrategy::absorbing()` (`experiments::ablation_estimator_replay`)
        obs: _,
        // disabled by default; the caller's `Obs` in repro's `observed_replays`,
        // `experiments::autoscale_report` and benchmark `bid_replay`
    } = JupiterStrategy::new();

    let ExtraStrategy {
        extra_nodes: _,
        // 0 vs 2: `Extra(0, 0.2)` and `Extra(2, 0.2)` in `experiments::interval_sweep`
        extra_portion: _,
        // 0.2 in `experiments::interval_sweep`; 0.1 in `experiments::fig5`
    } = ExtraStrategy::new(0, 0.2);

    let ExhaustiveSolver {
        max_levels_per_zone: _,
        // 12 by default; 8 in `experiments::ablation_greedy_vs_exact`
    } = ExhaustiveSolver::default();

    let FailureModelConfig {
        forecast: _,
        // ONE VALUE (`ForecastConfig::default()`): benchmark/src/probes.rs builds the
        // struct with `FailureModelConfig::default()`, and `ForecastConfig` is out of
        // scope (DESIGN.md "Options")
    } = FailureModelConfig::default();

    let ServiceReplayConfig {
        eval_start: _,
        // 2 weeks in `repro metrics` / `report`; 4 in examples/lock_service.rs
        window_minutes: _,
        // 2 h in `repro report`, 4 h in `repro metrics`; 12 h in examples/lock_service.rs
        interval_hours: _,
        // 2 in repro; 3 in examples/lock_service.rs
        seed: _,
        // `--seed` in repro; 99 in examples/lock_service.rs
    } = ServiceReplayConfig {
        eval_start: 0,
        window_minutes: 1,
        interval_hours: 1,
        seed: 0,
    };

    let SloSpec {
        name: _,
        // "availability" (`paper_availability`, market replay); "request_latency"
        // (`request_latency`)
        window_minutes: _,
        // the evaluation window in `Replay::run`; 60 in `workload::engine`
    } = SloSpec::paper_availability(1);

    let ChaosPlan {
        nodes: _,
        // ONE VALUE (5): describes the cluster under test, out of scope (DESIGN.md "Options")
        duration: _,
        // 60 s in tests/chaos.rs; 45 s / 30 s in test-util's chaos tests
        events: _,
        // 16 (`lock_plan`) vs 12 (`storage_plan`) in tests/chaos.rs
        max_down: _,
        // 2 in `ChaosPlan::lock_service`; 1 in `storage_service` (θ(3,5) tolerates one)
        partitions: _,
        // true in `lock_service`; false in `storage_service` (a 2|3 split stalls θ(3,5))
    } = ChaosPlan::lock_service(SimTime::ZERO, 0);
}
