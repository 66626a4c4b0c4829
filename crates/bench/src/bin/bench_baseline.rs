//! `bench-baseline` — the perf-baseline pipeline behind `ci.sh`.
//!
//! Criterion answers "how fast is this function"; this binary answers
//! "did the build get slower or do different work than the committed
//! baseline". It runs a fixed set of smoke-scale targets, records wall
//! time plus the key `obs` registry counters for each, and either writes
//! the result (`record`) or diffs it against a committed baseline
//! (`compare`):
//!
//! ```text
//! bench-baseline record  [--out PATH]                # default BENCH_replay.json
//! bench-baseline compare [--baseline PATH] [--threshold FRAC] [--strict]
//! ```
//!
//! `compare` re-runs the targets and reports two kinds of drift:
//!
//! * **wall-time regressions** — current > baseline × (1 + threshold);
//!   threshold defaults to 0.75 (smoke runs on shared CI hardware are
//!   noisy; the default only catches step-change regressions).
//! * **counter drift** — the work counters are deterministic (fixed
//!   seeds), so *any* mismatch means the build does different work than
//!   the baseline: an algorithm change that should be acknowledged by
//!   re-recording, or an accidental behavior change.
//!
//! Exit status is 0 unless `--strict` is set, in which case any drift
//! fails the run. Re-record with `bench-baseline record` after an
//! intentional perf or behavior change.

use std::time::Instant;

use bench::bench_market;
use jupiter::{ExtraStrategy, JupiterStrategy, ServiceSpec};
use obs::{Obs, TraceContext};
use replay::service_level::{lock_service_replay_observed, ServiceReplayConfig};
use replay::{fleet_replay, RepairConfig, Replay, ReplayConfig, Scenario, SweepSpec};

const DEFAULT_BASELINE: &str = "BENCH_replay.json";
const DEFAULT_THRESHOLD: f64 = 0.75;
const FORMAT_VERSION: u64 = 1;

/// One target's measurement: wall time and its key work counters.
struct TargetResult {
    name: &'static str,
    wall_ms: f64,
    counters: Vec<(String, u64)>,
}

/// Counters whose prefix is in `keep`, in snapshot (sorted) order.
fn key_counters(obs: &Obs, keep: &[&str]) -> Vec<(String, u64)> {
    obs.metrics
        .snapshot()
        .counters
        .into_iter()
        .filter(|(name, _)| keep.iter().any(|p| name.starts_with(p)))
        .collect()
}

fn run_target(name: &'static str, keep: &[&str], f: impl FnOnce(&Obs)) -> TargetResult {
    let (obs, _clock) = Obs::simulated();
    let t0 = Instant::now();
    f(&obs);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    TargetResult {
        name,
        wall_ms,
        counters: key_counters(&obs, keep),
    }
}

/// The smoke-scale target set. Fixed seeds end to end: the counters are
/// deterministic, only the wall times vary run to run. With
/// `only = Some(name)` every other target is skipped entirely (used by
/// the CI gate to run the trace-overhead guard strict on its own).
fn run_all(only: Option<&str>) -> Vec<TargetResult> {
    let train = 2 * 7 * 24 * 60;
    let eval = 7 * 24 * 60;
    let want = |name: &str| only.is_none_or(|o| o == name);
    let mut out = Vec::new();

    if want("market_generate") {
        out.push(run_target("market_generate", &["market."], |obs| {
            let market = bench_market(3, 8);
            obs.counter("market.zones").add(market.zones().len() as u64);
            obs.counter("market.minutes").add(market.horizon());
        }));
    }
    if want("jupiter_replay") {
        out.push(run_target(
            "jupiter_replay",
            &["replay.bids_placed", "replay.death.", "jupiter.", "model_store.", "slo."],
            |obs| {
                let market = bench_market(3, 8);
                let spec = ServiceSpec::lock_service();
                let result = Replay::new(&market, &spec, ReplayConfig::new(train, train + eval, 6))
                    .obs(obs)
                    .run(JupiterStrategy::new().with_obs(obs.clone()));
                assert!(result.window_minutes > 0);
            },
        ));
    }
    // The repair controller on a kill-prone heuristic: the compared
    // counters pin how many deaths the controller saw, how many spot
    // rebids vs on-demand escalations it answered with, and the
    // degraded-minute total — a drift in any of them means the repair
    // path does different work than the committed baseline.
    if want("repair_replay") {
        out.push(run_target(
            "repair_replay",
            &["replay.bids_placed", "replay.death.", "repair.", "slo."],
            |obs| {
                let market = bench_market(3, 8);
                let spec = ServiceSpec::lock_service();
                let result = Replay::new(&market, &spec, ReplayConfig::new(train, train + eval, 6))
                    .repair(RepairConfig::hybrid())
                    .obs(obs)
                    .run(ExtraStrategy::new(0, 0.2));
                assert!(result.window_minutes > 0);
            },
        ));
    }
    // The scenario engine's training-reuse guarantee, as a compared
    // counter pair: a 2-strategy × 2-interval grid over 8 zones must
    // fit exactly 8 kernels (one per zone) and reuse them for the
    // other 3 cells. A regression that re-introduces per-cell
    // training shows up as `model_store.*` drift.
    if want("scenario_sweep") {
        out.push(run_target("scenario_sweep", &["model_store."], |obs| {
            let market = bench_market(3, 8);
            let scenario = Scenario::new(market, train, train + eval).with_obs(obs.clone());
            let sweep = SweepSpec::new(ServiceSpec::lock_service())
                .strategy(|o| Box::new(JupiterStrategy::new().with_obs(o.clone())))
                .strategy(|_| Box::new(ExtraStrategy::new(0, 0.2)))
                .intervals(vec![6, 12]);
            let cells = scenario.run(&sweep);
            assert_eq!(cells.len(), 4);
        }));
    }
    if want("fleet_replay") {
        out.push(run_target(
            "fleet_replay",
            &["fleet.", "replay.bids_placed"],
            |obs| {
                let market = bench_market(3, 8);
                let spec = ServiceSpec::lock_service();
                let fleet = fleet_replay(
                    &market,
                    &spec,
                    2,
                    ReplayConfig::new(train, train + eval, 6),
                    |_| JupiterStrategy::new(),
                    obs,
                );
                assert_eq!(fleet.groups.len(), 2);
            },
        ));
    }
    // The tracer is live here (`Obs::simulated`), so the replay also
    // publishes `trace.*` counters: per-operation commit latency
    // assembled from the causal spans (exact p50/p99) plus orphan and
    // incompleteness counts. All of them are deterministic, so the
    // compare pins the *traced* behavior of the protocol, not just
    // its message counts.
    if want("lock_service_replay") {
        out.push(run_target(
            "lock_service_replay",
            &["paxos.msg_sent.", "paxos.elections_started", "service.", "slo.", "trace."],
            |obs| {
                let market = bench_market(3, 8);
                let service = lock_service_replay_observed(
                    &market,
                    JupiterStrategy::new().with_obs(obs.clone()),
                    ServiceReplayConfig {
                        eval_start: train,
                        window_minutes: 4 * 60,
                        interval_hours: 2,
                        sla_ms: 5_000,
                        seed: 4242,
                    },
                    obs,
                );
                assert!(service.ops_completed > 0);
            },
        ));
    }
    // The request-level workload engine at headline scale: ≥100k
    // open-loop lock-service requests (batched leader, 512 sessions)
    // plus a smaller batched RS-Paxos storage run. The pinned counters
    // are the request-level SLO figures themselves — request/completion
    // totals, p50/p99 scheduled→completion latency in µs, and the SLO
    // availability in ppm — so any change to batching, pipelining, or
    // the arrival streams shows up as counter drift, and a latency
    // regression fails compare outright.
    if want("workload_replay") {
        out.push(run_target(
            "workload_replay",
            &["workload.", "workload_store."],
            |obs| {
                use simnet::{NetworkConfig, SimTime};
                use workload::{run_lock_workload, run_storage_workload, ArrivalProcess, WorkloadSpec};
                let lock_spec = WorkloadSpec {
                    arrivals: ArrivalProcess::Poisson {
                        rate_per_sec: 1_000.0,
                    },
                    horizon: SimTime::from_secs(110),
                    sessions: 512,
                    population: 1_000_000,
                    seed: 2014,
                    batch_max_ops: 8,
                    ..WorkloadSpec::default()
                };
                let lock = run_lock_workload(&lock_spec, NetworkConfig::default(), obs);
                assert!(
                    lock.requests >= 100_000,
                    "headline workload must sustain 100k requests (got {})",
                    lock.requests
                );
                assert_eq!(lock.completed, lock.requests, "workload failed to drain");
                let store_spec = WorkloadSpec {
                    arrivals: ArrivalProcess::Poisson { rate_per_sec: 200.0 },
                    horizon: SimTime::from_secs(10),
                    sessions: 128,
                    population: 100_000,
                    seed: 2014,
                    batch_max_ops: 8,
                    ..WorkloadSpec::default()
                };
                let store = run_storage_workload(&store_spec, NetworkConfig::default(), obs);
                assert_eq!(store.completed, store.requests, "store workload failed to drain");
            },
        ));
    }
    // The heterogeneous-pool auto-scaled replay: a two-type market, the
    // mixed-pool lock service, and the load-driven auto-scaler
    // re-targeting fleet strength every 3 h against the diurnal demand
    // curve. The pinned counters are the scaling decisions themselves
    // (`autoscale.scale_out/scale_in/hold`) plus the bid volume and
    // death counts — drift in any of them means the controller or the
    // typed optimizer path does different work than the baseline.
    if want("hetero_replay") {
        out.push(run_target(
            "hetero_replay",
            &["replay.bids_placed", "replay.death.", "autoscale.", "model_store."],
            |obs| {
                use replay::experiments::{diurnal_rate, PER_STRENGTH_THROUGHPUT};
                use replay::{demand_series, AutoScaler, AutoscaleConfig};
                use spot_market::{InstanceType, Market, MarketConfig};
                let mut cfg = MarketConfig::hetero_paper(8, train + eval);
                cfg.zones.truncate(8);
                let market = Market::generate(cfg);
                let spec = ServiceSpec::lock_service()
                    .with_pools(&[InstanceType::M1Small, InstanceType::M3Large]);
                let demand = demand_series(
                    diurnal_rate,
                    train,
                    train + eval,
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
                let result = Replay::new(&market, &spec, ReplayConfig::new(train, train + eval, 3))
                    .autoscaler(&mut scaler)
                    .obs(obs)
                    .run(JupiterStrategy::new().with_obs(obs.clone()));
                assert!(result.window_minutes > 0);
                let (outs, _ins) = scaler.scale_events();
                assert!(outs >= 1, "diurnal demand must force a scale-out");
            },
        ));
    }
    // The capacity-era migration replay: the same kill-prone heuristic
    // as `repair_replay`, but under the capacity-reclaim regime with the
    // proactive-migration controller answering interruption notices. The
    // pinned counters are the signal-handling totals (`notice.*`) and
    // the drain outcomes (`migrate.*`) — all seeded, so drift in any of
    // them means the notice plumbing or the drain/fallback controller
    // changed behavior.
    if want("era_replay") {
        out.push(run_target(
            "era_replay",
            &["replay.bids_placed", "replay.death.", "notice.", "migrate."],
            |obs| {
                use spot_market::BidEra;
                let market = bench_market(3, 8);
                let spec = ServiceSpec::lock_service();
                let config =
                    ReplayConfig::new(train, train + eval, 6).with_era(BidEra::CapacityReclaim);
                let result = Replay::new(&market, &spec, config)
                    .repair(RepairConfig::migrate())
                    .obs(obs)
                    .run(ExtraStrategy::new(0, 0.2));
                assert!(result.window_minutes > 0);
            },
        ));
    }
    // Satellite guard: "disabled tracing is free". A tight loop of
    // inert span opens/closes and causal instants on a *disabled*
    // handle must stay in the low-nanosecond range per op — if the
    // disabled path ever grows an allocation or a lock, the per-op
    // cost jumps by orders of magnitude and the in-bench assertion
    // (plus the wall-time compare) fails the strict CI run. A short
    // enabled pass pins the recorded-event count as a deterministic
    // counter so compare also notices event-shape drift.
    if want("trace_overhead") {
        out.push(run_target("trace_overhead", &["trace_bench."], |obs| {
            const OPS: u64 = 4_000_000;
            let disabled = Obs::disabled();
            let t0 = Instant::now();
            for i in 0..OPS {
                let tctx = TraceContext {
                    trace_id: i | 1,
                    span_id: 0,
                };
                let span = disabled.trace.span_open_causal("bench.op", tctx, &[]);
                disabled.trace.event_causal("bench.mark", span.context(), &[]);
                disabled.trace.span_close(span, "bench.op", &[]);
            }
            let ns_per_op = t0.elapsed().as_nanos() as u64 / OPS;
            assert!(
                ns_per_op < 200,
                "disabled tracing costs {ns_per_op} ns/op (expected ~free)"
            );
            obs.counter("trace_bench.ops").add(OPS);
            let (enabled, _clock) = Obs::simulated();
            for i in 0..1_000u64 {
                let tctx = TraceContext {
                    trace_id: i + 1,
                    span_id: 0,
                };
                let span = enabled.trace.span_open_causal("bench.op", tctx, &[]);
                enabled.trace.event_causal("bench.mark", span.context(), &[]);
                enabled.trace.span_close(span, "bench.op", &[]);
            }
            obs.counter("trace_bench.recorded")
                .add(enabled.trace.events().len() as u64);
        }));
    }
    // Satellite guard: "disabled monitors are free". Every watchdog
    // observe and SLO sample on a disabled alert sink must short-circuit
    // on one boolean — the in-bench assertion fails the strict CI run if
    // the disabled path ever grows a lock or an allocation. A short
    // enabled pass drives a deterministic outage through the SLO tracker
    // so compare also pins the alert count.
    if want("monitor_overhead") {
        out.push(run_target("monitor_overhead", &["monitor_bench."], |obs| {
            use obs::{AlertSink, FleetDeficitWatchdog, LivenessWatchdog, SloSpec, SloTracker};
            const OPS: u64 = 2_000_000;
            let sink = AlertSink::disabled();
            let mut liveness = LivenessWatchdog::new(sink.clone(), 30_000_000);
            let mut fleet = FleetDeficitWatchdog::new(sink.clone());
            let mut slo = SloTracker::new(SloSpec::paper_availability(60), sink);
            let t0 = Instant::now();
            for i in 0..OPS {
                liveness.observe(i, 1);
                fleet.observe(i, 3, 5, 3, &[]);
                slo.record(i, 1.0, 1.0);
            }
            // Three observes per iteration; the bound is per iteration.
            let ns_per_op = t0.elapsed().as_nanos() as u64 / OPS;
            assert!(
                ns_per_op < 200,
                "disabled monitors cost {ns_per_op} ns/op (expected ~free)"
            );
            obs.counter("monitor_bench.ops").add(OPS);
            let enabled = AlertSink::new(64);
            let mut tracker =
                SloTracker::new(SloSpec::paper_availability(24 * 60), enabled.clone());
            for m in 0..600 {
                tracker.record(m, 1.0, 1.0);
            }
            for m in 600..660 {
                tracker.record(m, 0.0, 1.0);
            }
            obs.counter("monitor_bench.alerts").add(enabled.len() as u64);
        }));
    }
    out
}

// ---- JSON in/out --------------------------------------------------------

fn to_json(targets: &[TargetResult]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"version\": {FORMAT_VERSION},\n"));
    out.push_str("  \"targets\": {\n");
    for (i, t) in targets.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\n      \"wall_ms\": {:.3},\n      \"counters\": {{",
            t.name, t.wall_ms
        ));
        for (j, (name, v)) in t.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n        \"{name}\": {v}"));
        }
        out.push_str("\n      }\n    }");
        if i + 1 < targets.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  }\n}\n");
    out
}

struct BaselineTarget {
    name: String,
    wall_ms: f64,
    counters: Vec<(String, u64)>,
}

struct Baseline {
    targets: Vec<BaselineTarget>,
}

fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let root = serde_json::parse_value(text).map_err(|e| e.to_string())?;
    let obj = root.as_object().ok_or("baseline root is not an object")?;
    let version = obj
        .iter()
        .find(|(k, _)| k == "version")
        .and_then(|(_, v)| v.as_u64())
        .ok_or("missing version")?;
    if version != FORMAT_VERSION {
        return Err(format!("unsupported baseline version {version}"));
    }
    let targets = obj
        .iter()
        .find(|(k, _)| k == "targets")
        .and_then(|(_, v)| v.as_object())
        .ok_or("missing targets object")?;
    let mut out = Vec::new();
    for (name, tv) in targets {
        let t = tv.as_object().ok_or("target is not an object")?;
        let wall_ms = t
            .iter()
            .find(|(k, _)| k == "wall_ms")
            .and_then(|(_, v)| v.as_f64())
            .ok_or_else(|| format!("{name}: missing wall_ms"))?;
        let counters: Vec<(String, u64)> = t
            .iter()
            .find(|(k, _)| k == "counters")
            .and_then(|(_, v)| v.as_object())
            .map(|entries| {
                entries
                    .iter()
                    .filter_map(|(k, v)| v.as_u64().map(|u| (k.clone(), u)))
                    .collect()
            })
            .unwrap_or_default();
        out.push(BaselineTarget {
            name: name.clone(),
            wall_ms,
            counters,
        });
    }
    Ok(Baseline { targets: out })
}

// ---- comparison ---------------------------------------------------------

/// Diff current against baseline. Returns the number of regressions.
fn compare(baseline: &Baseline, current: &[TargetResult], threshold: f64) -> usize {
    let mut issues = 0;
    for t in current {
        let Some(base) = baseline.targets.iter().find(|b| b.name == t.name) else {
            println!("  NEW     {:<22} {:>9.1} ms (not in baseline — re-record)", t.name, t.wall_ms);
            issues += 1;
            continue;
        };
        let ratio = t.wall_ms / base.wall_ms.max(1e-9);
        if ratio > 1.0 + threshold {
            println!(
                "  SLOWER  {:<22} {:>9.1} ms vs {:>9.1} ms baseline ({:+.0}%)",
                t.name,
                t.wall_ms,
                base.wall_ms,
                (ratio - 1.0) * 100.0
            );
            issues += 1;
        } else {
            println!(
                "  ok      {:<22} {:>9.1} ms vs {:>9.1} ms baseline ({:+.0}%)",
                t.name,
                t.wall_ms,
                base.wall_ms,
                (ratio - 1.0) * 100.0
            );
        }
        // Counter drift: deterministic seeds, so exact equality expected.
        for (name, base_v) in &base.counters {
            match t.counters.iter().find(|(n, _)| n == name) {
                Some((_, cur_v)) if cur_v == base_v => {}
                Some((_, cur_v)) => {
                    println!("  DRIFT   {:<22} {name}: {cur_v} vs {base_v} baseline", t.name);
                    issues += 1;
                }
                None => {
                    println!("  MISSING {:<22} {name}: gone (baseline {base_v})", t.name);
                    issues += 1;
                }
            }
        }
        for (name, cur_v) in &t.counters {
            if !base.counters.iter().any(|(n, _)| n == name) {
                println!("  NEW     {:<22} {name}: {cur_v} (not in baseline)", t.name);
                issues += 1;
            }
        }
    }
    for base in &baseline.targets {
        if !current.iter().any(|t| t.name == base.name) {
            println!("  MISSING {}: target no longer runs", base.name);
            issues += 1;
        }
    }
    issues
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "record".into());

    match mode.as_str() {
        "record" => {
            let out = flag_value(&args, "--out").unwrap_or_else(|| DEFAULT_BASELINE.into());
            println!("bench-baseline: recording smoke targets → {out}");
            let targets = run_all(None);
            for t in &targets {
                println!(
                    "  {:<22} {:>9.1} ms, {} counters",
                    t.name,
                    t.wall_ms,
                    t.counters.len()
                );
            }
            if let Err(e) = std::fs::write(&out, to_json(&targets)) {
                eprintln!("cannot write {out}: {e}");
                std::process::exit(1);
            }
        }
        "compare" => {
            let path = flag_value(&args, "--baseline").unwrap_or_else(|| DEFAULT_BASELINE.into());
            let threshold = flag_value(&args, "--threshold")
                .and_then(|s| s.parse::<f64>().ok())
                .unwrap_or(DEFAULT_THRESHOLD);
            let strict = args.iter().any(|a| a == "--strict");
            // `--only TARGET` restricts both the run and the baseline
            // side of the diff to one target.
            let only = flag_value(&args, "--only");
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("cannot read baseline {path}: {e}");
                    std::process::exit(1);
                }
            };
            let mut baseline = match parse_baseline(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("bad baseline {path}: {e}");
                    std::process::exit(1);
                }
            };
            if let Some(o) = only.as_deref() {
                baseline.targets.retain(|t| t.name == o);
            }
            println!(
                "bench-baseline: comparing against {path} (threshold {:.0}%{}{})",
                threshold * 100.0,
                if strict { ", strict" } else { "" },
                only.as_deref()
                    .map(|o| format!(", only {o}"))
                    .unwrap_or_default()
            );
            let current = run_all(only.as_deref());
            let issues = compare(&baseline, &current, threshold);
            if issues == 0 {
                println!("bench-baseline: no drift");
            } else {
                println!(
                    "bench-baseline: {issues} issue(s){}",
                    if strict {
                        ""
                    } else {
                        " (non-fatal; pass --strict to fail the build, \
                         or re-record after an intentional change)"
                    }
                );
                if strict {
                    std::process::exit(3);
                }
            }
        }
        other => {
            eprintln!("unknown mode `{other}` (expected `record` or `compare`)");
            std::process::exit(2);
        }
    }
}
