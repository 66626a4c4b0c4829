//! The benchmark's definition — workloads, end-to-end metrics with their
//! bounds, per-layer metrics — in one place. `BENCHMARK.json` at the
//! repository root is [`benchmark_json`] written out; a unit test keeps
//! the committed file and these tables identical.

/// Seconds one run measures (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The command the driver runs from the repository root; it appends
/// `--workload … --seed … --seconds … --trace …`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

use crate::json_string;
use Better::{Higher, Lower};

/// One named set of inputs.
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why it exists: what it stresses and what it must not see.
    pub why: &'static str,
}

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The JSON spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `old`, as a share of `old`
    /// (negative when it improved).
    pub fn worsening(self, old: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - old) / old,
            Better::Higher => (old - new) / old,
        }
    }
}

/// A metric a user of the system sees; reported by every workload.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Computed inside the simulation, so one seed always gives the same
    /// value; the others are host measurements.
    pub simulated: bool,
}

/// A metric of one layer, read from the traced run; no bound.
pub struct PerLayer {
    /// `layer.metric` name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

/// The five workloads.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "bid_replay",
        why: "Jupiter re-bids every 3 h over 8 zones: spot-model forecasts and jupiter decide do almost all the work, replay lifecycle almost none",
    },
    Workload {
        name: "controller_sweep",
        why: "54 model-free cells (Extra/Feedback x interval x repair x era) over 17 zones: replay lifecycle, repair, migration and billing dominate; a forecast speed-up must not move it",
    },
    Workload {
        name: "lock_serving",
        why: "open-loop 1000 req/s on the 5-replica Paxos lock service, tiny payloads, no faults: simnet dispatch, paxos replica and the workload engine; erasure and spot-model idle",
    },
    Workload {
        name: "store_serving",
        why: "open-loop 200 req/s of 4 KiB / 64 KiB objects, half reads, on the RS-Paxos store: erasure coding and storage shard fan-out do the work; a codec gain shows here, not in lock_serving",
    },
    Workload {
        name: "lock_failover",
        why: "open-loop 200 req/s while the Paxos leader is crashed four times and rebooted: elections, catch-up, snapshot install and timers dominate; requests due while no leader exists are counted",
    },
];

/// What a workload reports for a simulated end-to-end metric it has no
/// notion of (a request latency in a market replay, a cost in a serving
/// run). The contract makes every run print every end-to-end metric and
/// none may be 0, so the slot holds this constant, which no change moves.
pub const NOT_APPLICABLE: f64 = 1.0;

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        simulated: false,
    }
}

const fn simulated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        simulated: true,
        ..host(name, unit, better, bound)
    }
}

/// The end-to-end metrics; `README.md` says what each measures on which
/// workload. The acceptance procedure takes a metric's spread over runs
/// at *different* seeds and wants it under a third of the bound, so a
/// simulated metric's bound follows how much the seed moves it, not how
/// well one seed repeats (that is exact, and checked on every run).
pub const END_TO_END: [EndToEnd; 10] = [
    host("setup_s", "s", Lower, 0.25),
    host("ops_per_s", "1/s", Higher, 0.25),
    host("peak_rss_mb", "MiB", Lower, 0.22),
    simulated("availability_ppm", "ppm", Higher, 0.03),
    simulated("cost_vs_ondemand", "ratio", Lower, 0.25),
    simulated("degraded_minutes", "min", Lower, 0.20),
    simulated("latency_sim_ms_p50", "sim_ms", Lower, 0.01),
    simulated("latency_sim_ms_p99", "sim_ms", Lower, 0.25),
    simulated("failover_sim_ms_max", "sim_ms", Lower, 0.18),
    simulated("max_rate_within_sla_per_s", "1/s", Higher, 0.01),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// The per-layer metrics, all printed by every traced run. Probes of a
/// layer's public functions are fixed-size and run in every workload;
/// counts read from the `obs` registry are 0 on workloads that leave the
/// layer idle.
pub const PER_LAYER: [PerLayer; 46] = [
    // Operations failed / attempted in the traced pass (0 on every sized
    // workload; the result line's `failed` carries the untraced count).
    layer("outcome.failed_share", "ratio", Lower),
    // spot-market -> setup_s everywhere, ops_per_s on controller_sweep.
    layer("spot-market.generate_us_per_zone_week", "us", Lower),
    layer("spot-market.out_of_bid_ns_per_query", "ns", Lower),
    // spot-model -> ops_per_s on bid_replay; predicted no change on controller_sweep.
    layer("spot-model.kernel_fit_us", "us", Lower),
    layer("spot-model.kernel_states", "count", Lower),
    layer("spot-model.forecast_us_p50", "us", Lower),
    layer("spot-model.min_bid_us_p50", "us", Lower),
    layer("quorum.node_failure_pr_us", "us", Lower),
    // jupiter -> ops_per_s on bid_replay.
    layer("jupiter.decide_ms_p50", "ms", Lower),
    layer("jupiter.decide_ms_p95", "ms", Lower),
    layer("jupiter.decide_calls", "count", Lower),
    layer("jupiter.forecasts_computed", "count", Lower),
    layer("jupiter.candidates_evaluated", "count", Lower),
    layer("jupiter.fp_cache_hit_ratio", "ratio", Higher),
    layer("jupiter.forecast_share_of_decide", "ratio", Lower),
    layer("model_store.fits_performed", "count", Lower),
    layer("model_store.fits_reused", "count", Higher),
    // replay -> ops_per_s on controller_sweep.
    layer("replay.cell_ms_p50", "ms", Lower),
    layer("replay.us_per_interval", "us", Lower),
    layer("replay.bids_placed", "count", Lower),
    layer("replay.deaths", "count", Lower),
    layer("repair.rebids", "count", Lower),
    layer("migrate.launched", "count", Lower),
    layer("replay.sweep_over_sum_of_cells", "ratio", Lower),
    // simnet -> ops_per_s on the three serving workloads.
    layer("simnet.ns_per_event", "ns", Lower),
    layer("simnet.msgs_delivered", "count", Lower),
    layer("simnet.host_ms_per_sim_s_p50", "ms", Lower),
    layer("simnet.host_ms_per_sim_s_max", "ms", Lower),
    // paxos -> ops_per_s on lock_serving; availability_ppm on lock_failover.
    layer("paxos.msgs_per_commit", "count", Lower),
    layer("paxos.heartbeat_share", "ratio", Lower),
    layer("paxos.accepts_per_commit", "count", Lower),
    layer("paxos.elections_started", "count", Lower),
    layer("paxos.catchup_msgs", "count", Lower),
    // storage / erasure -> ops_per_s on store_serving; no change on lock_serving.
    layer("storage.msgs_per_commit", "count", Lower),
    layer("storage.host_us_per_put", "us", Lower),
    layer("storage.host_us_per_get", "us", Lower),
    layer("erasure.encode_mb_s", "MB/s", Higher),
    layer("erasure.reconstruct_mb_s", "MB/s", Higher),
    // workload -> setup_s on lock_serving.
    layer("workload.arrival_ns_per_request", "ns", Lower),
    // obs: no end-to-end metric with tracing off; bounds what in-program tracing may cost.
    layer("obs.disabled_ns_per_op", "ns", Lower),
    layer("obs.enabled_ns_per_op", "ns", Lower),
    layer("obs.traced_over_untraced", "ratio", Lower),
    // host: do two run sets describe the same machine, and one core or more?
    layer("host.calibration_ns", "ns", Lower),
    layer("host.cpu_s_per_wall_s", "ratio", Lower),
    layer("host.pass_wall_ms", "ms", Lower),
    layer("host.span_self_over_wall", "ratio", Lower),
];

/// `BENCHMARK.json`, exactly the keys the builder's contract prescribes.
pub fn benchmark_json() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|s| json_string(s)).collect();
    let paths: Vec<String> = PATHS.iter().map(|s| json_string(s)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\": {}, \"why\": {}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.label()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better.label())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        paths.join(", "),
        list(workloads),
        list(end_to_end),
        list(per_layer),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
        let entries = obj.as_object().expect("object");
        &entries
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("key {key}"))
            .1
    }

    fn keys(obj: &Value) -> Vec<&str> {
        obj.as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(ok)
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    #[test]
    fn emitted_json_parses_back_to_the_tables() {
        let root = serde_json::parse_value(&benchmark_json()).expect("valid JSON");
        assert_eq!(
            keys(&root),
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let strings = |v: &Value| -> Vec<String> {
            v.as_array()
                .unwrap()
                .iter()
                .map(|s| s.as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(strings(field(&root, "command")), COMMAND);
        assert_eq!(strings(field(&root, "paths")), PATHS);
        assert_eq!(field(&root, "run_seconds").as_u64(), Some(RUN_SECONDS));

        let workloads = field(&root, "workloads").as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (got, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(keys(got), ["name", "why"]);
            assert_eq!(field(got, "name").as_str(), Some(want.name));
            assert_eq!(field(got, "why").as_str(), Some(want.why));
        }
        let end_to_end = field(&root, "end_to_end").as_array().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (got, want) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(keys(got), ["name", "unit", "better", "bound"]);
            assert_eq!(field(got, "name").as_str(), Some(want.name));
            assert_eq!(field(got, "unit").as_str(), Some(want.unit));
            assert_eq!(field(got, "better").as_str(), Some(want.better.label()));
            assert_eq!(field(got, "bound").as_f64(), Some(want.bound));
        }
        let per_layer = field(&root, "per_layer").as_array().unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (got, want) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(keys(got), ["name", "unit", "better"]);
            assert_eq!(field(got, "name").as_str(), Some(want.name));
            assert_eq!(field(got, "unit").as_str(), Some(want.unit));
            assert_eq!(field(got, "better").as_str(), Some(want.better.label()));
        }
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() <= 64 * 1024);
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "bad name {n}");
        }
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        for m in &END_TO_END {
            assert!(valid_unit(m.unit), "unit of {}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "bound of {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_unit(m.unit), "unit of {}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn committed_benchmark_json_is_the_emitted_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `benchmark --emit-spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
    }
}
