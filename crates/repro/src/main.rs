//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--quick] [--seed N] [--metrics-out PATH] [--report-out PATH] \
//!       [all|fig1|table1|fig4|fig5|fig6|fig7|fig8|fig9|headline|repair|ablations|ablation-g|calibration|metrics|report|workload|hetero|era]
//! ```
//!
//! By default runs at the paper's scale (13 training weeks, 11 evaluation
//! weeks, 17 availability zones, interval sweep {1,3,6,9,12} h), which
//! takes a few minutes in release mode; `--quick` shrinks everything for a
//! smoke run. An unknown flag or target, a flag without its value, a seed
//! that is not an unsigned integer, or a second target word prints the
//! usage line and exits 2 with nothing on stdout.
//!
//! Every table goes through the one renderer in [`table`]: the replayed
//! cells of every figure are `replay::experiments::Row`s, and a figure's
//! table is a list of `(header, width, field)` columns over them. The
//! tables one command prints declare their cells to one evaluation plan
//! (`replay::experiments::replay`), so a cell two tables share replays
//! once.
//!
//! `--metrics-out PATH` runs an instrumented pass — a Jupiter market
//! replay plus a short service-level Paxos replay, both recording into a
//! shared [`obs::Obs`] — and dumps the metrics registry and trace ring as
//! JSON to `PATH`. With no explicit target it runs only that pass
//! (`metrics` target).
//!
//! The `workload` target is the request-level extension: seeded
//! open-loop replays (Poisson arrivals over hundreds of window-1
//! sessions) against the Paxos lock service and the RS-Paxos store,
//! reporting scheduled-arrival→completion latency quantiles and an
//! SLO-based availability, plus a batched-vs-unbatched comparison at a
//! reference load that saturates the unbatched accept pipeline.
//!
//! The `report` target runs a recorded Jupiter replay and renders the
//! time series (spot price vs. bid, per-interval cost and availability,
//! fleet size) into a self-contained HTML file — inline SVG, no external
//! assets — at `--report-out PATH` (default `report.html`).
//!
//! Stdout is a function of the seed and the scale alone:
//! `tests/golden.rs` pins the quick-scale output byte for byte.
#![forbid(unsafe_code)]
#![deny(clippy::too_many_lines)]

use std::time::Instant;

use obs::Obs;
use replay::experiments::{self, Row, Scale};
use replay::service_level::ServiceReplayOutcome;
use replay::{RepairConfig, ReplayResult};
use table::{fixed, left, right, strategy, AVAILABILITY, COST, KILLS};

mod report;
mod table;

const USAGE: &str = "usage: repro [--quick] [--seed N] [--metrics-out PATH] [--report-out PATH] \
    [all|fig1|table1|fig4|fig5|fig6|fig7|fig8|fig9|headline|repair|ablations|ablation-g\
    |calibration|metrics|report|workload|hetero|era]";

/// The command line, checked.
struct Args {
    quick: bool,
    seed: u64,
    metrics_out: Option<String>,
    report_out: Option<String>,
    target: Option<String>,
}

/// The one flag reader: every word is a known flag, a flag's value, or
/// the single target.
fn parse_args(mut words: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        seed: 2014,
        metrics_out: None,
        report_out: None,
        target: None,
    };
    while let Some(word) = words.next() {
        let mut value = || words.next().ok_or(format!("{word} needs a value"));
        match word.as_str() {
            "--quick" => args.quick = true,
            "--seed" => {
                let v = value()?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed needs an unsigned integer, got '{v}'"))?;
            }
            "--metrics-out" => args.metrics_out = Some(value()?),
            "--report-out" => args.report_out = Some(value()?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            _ if args.target.is_some() => return Err(format!("second target '{word}'")),
            _ => args.target = Some(word),
        }
    }
    Ok(args)
}

fn usage_exit(problem: &str) -> ! {
    eprintln!("{problem}\n{USAGE}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| usage_exit(&e));
    let seed = args.seed;
    let default_target = if args.metrics_out.is_some() {
        "metrics"
    } else {
        "all"
    };
    let what = args.target.as_deref().unwrap_or(default_target);

    let scale = if args.quick {
        Scale::quick(seed)
    } else {
        Scale::paper(seed)
    };
    eprintln!(
        "# scale: train {}w, eval {}w, {} zones, intervals {:?}, seed {}",
        scale.train_weeks, scale.eval_weeks, scale.zones, scale.intervals, seed
    );

    let t0 = Instant::now();
    match what {
        "all" => {
            let [fig5_rows, lock, storage, repair_rows, estimators, adaptive, fixed_once] =
                experiments::replay(
                    &scale,
                    [
                        experiments::fig5,
                        experiments::lock_sweep,
                        experiments::storage_sweep,
                        experiments::repair_sweep,
                        experiments::ablation_estimator_replay,
                        experiments::ablation_adaptive,
                        experiments::ablation_fixed_once,
                    ],
                );
            table1();
            fig1(seed);
            fig4(&scale);
            fig5(&fig5_rows);
            sweep_table(LOCK, &lock);
            sweep_table(STORAGE, &storage);
            headline(&lock, &storage);
            repair(&repair_rows);
            ablations(&scale, &estimators, &adaptive, &fixed_once);
        }
        "table1" => table1(),
        "fig1" => fig1(seed),
        "fig4" => fig4(&scale),
        "fig5" => fig5(&experiments::replay(&scale, [experiments::fig5])[0]),
        "fig6" | "fig7" => sweep_table(
            LOCK,
            &experiments::replay(&scale, [experiments::lock_sweep])[0],
        ),
        "fig8" | "fig9" => sweep_table(
            STORAGE,
            &experiments::replay(&scale, [experiments::storage_sweep])[0],
        ),
        "headline" => {
            let [lock, storage] = experiments::replay(
                &scale,
                [experiments::lock_sweep, experiments::storage_sweep],
            );
            headline(&lock, &storage);
        }
        "repair" => repair(&experiments::replay(&scale, [experiments::repair_sweep])[0]),
        "hetero" => hetero(
            &scale,
            &experiments::replay(&scale, [experiments::hetero_sweep])[0],
        ),
        "era" => era(&experiments::replay(&scale, [experiments::era_sweep])[0]),
        "ablations" => {
            let [estimators, adaptive, fixed_once] = experiments::replay(
                &scale,
                [
                    experiments::ablation_estimator_replay,
                    experiments::ablation_adaptive,
                    experiments::ablation_fixed_once,
                ],
            );
            ablations(&scale, &estimators, &adaptive, &fixed_once);
        }
        "ablation-g" => {
            ablation_g(&experiments::replay(&scale, [experiments::ablation_fixed_once])[0])
        }
        "calibration" => calibration(&scale),
        "workload" => workload_target(args.quick, seed),
        "metrics" => {} // instrumented pass runs below
        "report" => report_pass(seed, args.report_out.as_deref().unwrap_or("report.html")),
        other => usage_exit(&format!("unknown target '{other}'")),
    }
    if what == "metrics" || args.metrics_out.is_some() {
        metrics_pass(seed, args.metrics_out.as_deref().unwrap_or("metrics.json"));
    }
    eprintln!("# done in {:.1?}", t0.elapsed());
}

fn write_or_exit(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// What `report` and `--metrics-out` both record: a short service-level
/// Paxos replay (the first `service_hours` of the evaluation window) and
/// a Jupiter market replay at a 6 h interval, over one quick market (2
/// training weeks, `eval_days` of evaluation, 8 zones) into one [`Obs`]
/// on simulated time.
///
/// The service replay runs first: the shared `ManualClock` is monotone,
/// and the market replay stamps market-minute time (~1e12 µs), which
/// would clamp the service replay's sim-millisecond spans to zero length
/// (every trace latency would read 0).
fn observed_replays(
    seed: u64,
    eval_days: u64,
    service_hours: u64,
    repair: RepairConfig,
) -> (Obs, ServiceReplayOutcome, ReplayResult) {
    use jupiter::{JupiterStrategy, ServiceSpec};
    use replay::service_level::{lock_service_replay, ServiceReplayConfig};
    use replay::{Replay, ReplayConfig};
    use spot_market::{InstanceType, Market, MarketConfig};

    let (obs, _clock) = Obs::simulated();
    let train = 2 * 7 * 24 * 60;
    let eval = eval_days * 24 * 60;
    let mut cfg = MarketConfig::paper(seed, train + eval);
    cfg.zones.truncate(8);
    cfg.types = vec![InstanceType::M1Small];
    let market = Market::generate(cfg);

    let service = lock_service_replay(
        &market,
        JupiterStrategy::new().with_obs(obs.clone()),
        ServiceReplayConfig {
            eval_start: train,
            window_minutes: service_hours * 60,
            interval_hours: 2,
            seed,
        },
        &obs,
    )
    .expect("Jupiter deploys an initial fleet on this market");
    let spec = ServiceSpec::lock_service();
    let replayed = Replay::new(&market, &spec, ReplayConfig::new(train, train + eval, 6))
        .repair(repair)
        .obs(&obs)
        .run(JupiterStrategy::new().with_obs(obs.clone()));
    (obs, service, replayed)
}

/// The `report` target: a recorded Jupiter market replay (series enabled,
/// mid-interval repair on so the repair series exist) plus a short traced
/// service-level Paxos replay, rendered into a self-contained HTML file
/// with inline SVG charts, alert-annotated cost/availability charts, the
/// decision audit timeline, per-operation trace Gantts, and a
/// critical-path attribution table. The trace ring is exported as
/// Chrome-trace JSON next to the report; the audit log and fired alerts
/// as versioned JSONL.
fn report_pass(seed: u64, path: &str) {
    use obs::{chrome_trace_json, json_lines, AlertEvent, AuditRecord};

    println!("\n== Report pass: recorded Jupiter replay → {path} ==");
    let (obs, service, result) = observed_replays(seed, 7, 2, RepairConfig::hybrid());
    println!(
        "service replay: {} ops traced ({} crashes)",
        service.ops_completed, service.crashes
    );

    let subtitle = format!(
        "Jupiter lock-service replay — seed {seed}, 2 training weeks, 1 evaluation week, \
         8 zones, 6 h bidding interval, hybrid repair. Time axis in market hours."
    );
    let series = obs.series.snapshot();
    let html = report::render_replay_report(&subtitle, &result, &obs, &series);
    write_or_exit(path, &html);
    // No byte count: the decide-latency chart's tick labels are host time.
    println!(
        "report written to {path}: {} charts, {} series",
        report::chart_count(&html),
        series.len()
    );
    let events = obs.trace.events();
    let trace_path = format!("{path}.trace.json");
    write_or_exit(&trace_path, chrome_trace_json(&events));
    println!(
        "trace exported to {trace_path} ({} events; load in chrome://tracing or Perfetto)",
        events.len()
    );
    let audit = obs.audit.snapshot();
    let audit_path = format!("{path}.audit.jsonl");
    write_or_exit(&audit_path, json_lines(&audit, AuditRecord::to_json));
    println!(
        "audit log exported to {audit_path} ({} records)",
        audit.len()
    );
    let alerts = obs.alerts.snapshot();
    let alerts_path = format!("{path}.alerts.jsonl");
    write_or_exit(&alerts_path, json_lines(&alerts, AlertEvent::to_json));
    println!("alerts exported to {alerts_path} ({} fired)", alerts.len());
}

/// The instrumented pass behind `--metrics-out`: a Jupiter market replay
/// (bids, grants, terminations by cause, per-interval cost/availability)
/// plus a short service-level Paxos replay (per-kind message counts,
/// elections, quorum-wait spans), all into one shared [`obs::Obs`] driven
/// by simulated time. The registry and trace ring are dumped as JSON.
fn metrics_pass(seed: u64, path: &str) {
    println!("\n== Instrumented pass: market replay + service-level Paxos replay ==");
    let (obs, service, replayed) = observed_replays(seed, 3, 4, RepairConfig::off());
    println!(
        "service replay:  {} ops, {} crashes, {} reconfigs",
        service.ops_completed, service.crashes, service.reconfigs
    );
    println!(
        "market replay:   cost ${:.2}, availability {:.6}, {} kills",
        replayed.total_cost.as_dollars(),
        replayed.availability(),
        replayed.total_kills()
    );

    let snap = obs.metrics.snapshot();
    println!(
        "paxos messages:  {} sent / {} received",
        snap.counter_family("paxos.msg_sent."),
        snap.counter_family("paxos.msg_recv.")
    );
    println!(
        "bids placed:     {}",
        snap.counter("replay.bids_placed").unwrap_or(0)
    );
    println!(
        "traced ops:      {} complete, {} orphan spans; commit latency p50 {} µs / p99 {} µs",
        snap.counter("trace.ops").unwrap_or(0),
        snap.counter("trace.orphan_spans").unwrap_or(0),
        snap.counter("trace.commit_latency_p50_micros").unwrap_or(0),
        snap.counter("trace.commit_latency_p99_micros").unwrap_or(0),
    );
    println!();
    table::print(
        &snap.histograms,
        &[
            left("histogram (µs)", 44, |(name, _)| name.clone()),
            right("count", 9, |(_, h)| h.count.to_string()),
            right("p50", 12, |(_, h)| fixed(h.p50_est, 1)),
            right("p90", 12, |(_, h)| fixed(h.p90_est, 1)),
            right("p99", 12, |(_, h)| fixed(h.p99_est, 1)),
        ],
    );
    write_or_exit(path, obs.to_json());
    println!("metrics dumped to {path}");
}

fn table1() {
    println!("\n== Table 1: Amazon EC2 regions and availability zones ==");
    table::print(
        &experiments::table1(),
        &[
            left("Region", 16, |r| r.0.into()),
            left("Location", 12, |r| r.1.into()),
            right("AZs", 5, |r| r.2.to_string()),
        ],
    );
}

fn fig1(seed: u64) {
    println!("\n== Figure 1: spot price history (us-east-1a m1.small, 2 h) ==");
    // One row per price change.
    let mut changes = experiments::fig1_series(seed);
    changes.dedup_by_key(|&mut (_, price)| price);
    table::print(
        &changes,
        &[
            right("minute", 6, |(minute, _)| minute.to_string()),
            right("price", 9, |(_, price)| price.to_string()),
        ],
    );
}

fn fig4(scale: &Scale) {
    println!("\n== Figure 4: measured out-of-bid failure probability at target 0.01 ==");
    table::print(
        &experiments::fig4(scale),
        &[
            left("zone", 18, |r| r.zone.name()),
            left("type", 10, |r| r.instance_type.api_name().into()),
            right("bid", 10, |r| r.bid.map_or("-".into(), |b| b.to_string())),
            right("estimated", 10, |r| fixed(r.estimated, 6)),
            right("measured", 10, |r| fixed(r.measured, 6)),
        ],
    );
}

fn fig5(rows: &[Row]) {
    println!("\n== Figure 5: one-week cost under different bidding strategies ==");
    table::print(
        rows,
        &[
            table::SERVICE,
            strategy("strategy", 14),
            table::cost(10),
            AVAILABILITY,
        ],
    );
}

const LOCK: &str = "Figure 6/7 — lock service";
const STORAGE: &str = "Figure 8/9 — storage service";

fn sweep_table(title: &str, rows: &[Row]) {
    println!("\n== {title}: cost and availability vs bidding interval ==");
    table::print(
        rows,
        &[
            table::INTERVAL,
            strategy("strategy", 14),
            COST,
            AVAILABILITY,
            KILLS,
        ],
    );
}

/// The four-column table of Ablations C and G and the auto-scaler: a
/// label `width` wide, then cost, availability and kills.
fn outcome_table(label: &'static str, width: usize, rows: &[Row]) {
    table::print(rows, &[strategy(label, width), COST, AVAILABILITY, KILLS]);
}

fn headline(lock: &[Row], storage: &[Row]) {
    println!("\n== Headline: Jupiter cost reduction vs on-demand baseline ==");
    for (service, rows, paper) in [
        ("lock service:   ", lock, "81.23%"),
        ("storage service:", storage, "85.32%"),
    ] {
        let h = experiments::headline(rows);
        let sla = if h.met_sla {
            "SLA met"
        } else {
            "SLA MISSED — most-available fallback"
        };
        println!(
            "{service} {:.2}% (best interval {} h, {sla}; paper: {paper})",
            h.reduction_pct, h.best_interval
        );
    }
}

fn repair(rows: &[Row]) {
    let (baseline, rows) = rows.split_first().expect("the baseline leads");
    println!(
        "\n== Repair-policy sweep: mid-interval rebids and on-demand fallback (lock service) =="
    );
    table::print(
        rows,
        &[
            table::INTERVAL,
            strategy("strategy", 14),
            table::REPAIR,
            COST,
            table::OD_COST,
            AVAILABILITY,
            table::DEGRADED,
            KILLS,
        ],
    );
    println!(
        "on-demand baseline: ${:.2} (every repairing cell must undercut it)",
        baseline.cost.as_dollars()
    );
}

/// The `era` target: the interruption-regime race. The same storage
/// deployment replayed under the bidding era (out-of-bid kills) and the
/// capacity-reclaim era (hidden capacity processes with advance notices),
/// with reactive repair racing the proactive-migration controller in each.
fn era(rows: &[Row]) {
    let (baseline, rows) = rows.split_first().expect("the baseline leads");
    println!(
        "\n== Interruption eras: reactive repair vs proactive migration ({} h interval) ==",
        rows[0].interval_hours
    );
    table::print(
        rows,
        &[
            table::ERA,
            table::REPAIR,
            strategy("strategy", 12),
            COST,
            AVAILABILITY,
            table::DEGRADED,
            KILLS,
            table::DRAINS,
            table::LATE_DRAINS,
        ],
    );
    println!(
        "on-demand baseline: ${:.2} (every cell must undercut it)",
        baseline.cost.as_dollars()
    );
}

/// The `hetero` target: the heterogeneous-pool strategy race (Jupiter vs
/// the feedback controller vs Extra over single-type and mixed pools at a
/// shared strength floor) followed by the auto-scaler experiment (diurnal
/// demand, load-tracked fleet strength vs peak provisioning).
fn hetero(scale: &Scale, rows: &[Row]) {
    let (baseline, rows) = rows.split_first().expect("the baseline leads");
    println!(
        "\n== Heterogeneous pools: strategy race at strength ≥ {} ({} h interval) ==",
        experiments::hetero_sweep(scale)[0].service.min_strength,
        rows[0].interval_hours
    );
    table::print(
        rows,
        &[
            strategy("strategy", 12),
            table::POOLS,
            COST,
            AVAILABILITY,
            KILLS,
            table::NODES,
        ],
    );
    println!(
        "on-demand baseline: ${:.2} (every cell must undercut it)",
        baseline.cost.as_dollars()
    );

    let r = experiments::autoscale_report(scale);
    println!(
        "\n== Auto-scaler: diurnal demand vs peak provisioning (mixed pool, 3 h boundaries) =="
    );
    outcome_table("fleet", 26, &r.rows());
    println!(
        "on-demand baseline: ${:.2}; scale-outs {}, scale-ins {}",
        r.baseline_cost.as_dollars(),
        r.scale_outs,
        r.scale_ins
    );
    let scale_decisions = r
        .obs
        .audit
        .snapshot()
        .iter()
        .filter(|rec| rec.kind.label() == "scale_decision")
        .count();
    println!("audited scale decisions: {scale_decisions}");
    println!("\nper-type fleet series (points, peak, final):");
    // Headerless: name, points, peak, final.
    let cols = [
        left("", 25, |s: &&obs::SeriesSnapshot| format!("  {}", s.name)),
        right("", 6, |s| s.points.len().to_string()),
        right("", 8, |s| fixed(s.max().unwrap_or(0.0).max(0.0), 1)),
        right("", 8, |s| fixed(s.last().unwrap_or(0.0), 1)),
    ];
    let series = r.obs.series.snapshot();
    let per_type: Vec<_> = (series.iter())
        .filter(|s| s.name.starts_with("pool.fleet."))
        .collect();
    table::print_rows(&per_type, &cols);
    // The strength series is a target, not a fleet: no final value.
    if let Some(strength) = series.iter().find(|s| s.name == "pool.strength") {
        table::print_rows(&[strength], &cols[..3]);
    }
}

fn ablation_g(rows: &[Row]) {
    println!("\n== Ablation G: one-shot fixed bids (Andrzejak-style) vs online re-bidding ==");
    outcome_table("strategy", 26, rows);
}

/// Ablations A–G; C, D and G print the rows the plan replayed for them.
fn ablations(scale: &Scale, estimators: &[Row], adaptive: &[Row], fixed_once: &[Row]) {
    println!("\n== Ablation A: expectation (Eq. 5) vs absorbing failure estimates ==");
    let rows = experiments::ablation_estimator(scale);
    let n = rows.len().max(1) as f64;
    let exp_mean: f64 = rows.iter().map(|r| r.expectation_fp).sum::<f64>() / n;
    let abs_mean: f64 = rows.iter().map(|r| r.absorbing_fp).sum::<f64>() / n;
    let kill_rate: f64 = rows.iter().filter(|r| r.killed).count() as f64 / n;
    let frac_mean: f64 = rows.iter().map(|r| r.realized_fraction).sum::<f64>() / n;
    println!("samples:                  {}", rows.len());
    println!("mean expectation FP:      {exp_mean:.6}  (predicts time-fraction)");
    println!("mean absorbing FP:        {abs_mean:.6}  (predicts kill prob.)");
    println!("realized kill rate:       {kill_rate:.6}");
    println!("realized OOB fraction:    {frac_mean:.6}");

    println!("\n== Ablation B: greedy (Fig. 3) vs exact NLP optimum, 7-zone instances ==");
    table::print(
        &experiments::ablation_greedy_vs_exact(scale),
        &[
            right("minute", 10, |r| r.minute.to_string()),
            right("greedy ($)", 12, |r| fixed(r.greedy_cost.as_dollars(), 4)),
            right("exact ($)", 12, |r| fixed(r.exact_cost.as_dollars(), 4)),
            right("ratio", 8, |r| {
                let ratio = r.greedy_cost.as_dollars() / r.exact_cost.as_dollars().max(1e-9);
                fixed(ratio, 3)
            }),
        ],
    );

    println!("\n== Ablation C: expectation vs absorbing Jupiter, 6 h replay ==");
    outcome_table("strategy", 14, estimators);

    println!("\n== Ablation D: adaptive bidding interval (§5.5 extension) ==");
    table::print(
        adaptive,
        &[
            left("schedule", 22, |r| match r.interval_hours {
                0 => r.strategy.clone(), // the adaptive schedule
                h => format!("{} fixed {h}h", r.strategy),
            }),
            COST,
            AVAILABILITY,
            table::MEAN_INTERVAL,
        ],
    );

    println!("\n== Ablation E: weighted voting (Eq. 11) vs simple majority ==");
    table::print(
        &experiments::ablation_weighted_voting(),
        &[
            left("failure profile", 42, |r| format!("{:?}", r.profile)),
            right("majority", 12, |r| fixed(r.majority, 8)),
            right("weighted", 12, |r| fixed(r.weighted, 8)),
        ],
    );

    ablation_g(fixed_once);

    println!("\n== Ablation F: model mismatch (semi-Markov vs banded AR(1) market) ==");
    table::print(
        &experiments::ablation_model_mismatch(scale),
        &[
            left("process", 14, |r| r.process.clone()),
            right("predicted", 12, |r| fixed(r.mean_predicted, 6)),
            right("realized", 12, |r| fixed(r.mean_realized, 6)),
            right("abs error", 12, |r| fixed(r.mean_abs_error, 6)),
            right("kill rate", 10, |r| fixed(r.kill_rate, 4)),
        ],
    );
}

/// The `workload` target: request-level open-loop replays.
///
/// Three passes, all seeded and bit-deterministic:
///
/// 1. the headline lock-service run — ≥100k requests at full scale
///    (1000 req/s Poisson over 512 sessions, batch 8, unbounded
///    pipeline), the request-level counterpart of the paper's
///    fleet-level availability;
/// 2. a smaller RS-Paxos storage run with batched shard proposals;
/// 3. a batched-vs-unbatched comparison at a reference load chosen to
///    saturate a depth-4 accept pipeline without batching (capacity
///    ≈ pipeline/commit-RTT ≈ 40 req/s) but not with it (≈ 320 req/s):
///    batching must win on p99 or something regressed.
///
/// Everything printed derives from sim time and fixed seeds.
fn workload_target(quick: bool, seed: u64) {
    use simnet::{NetworkConfig, SimTime};
    use workload::{run_lock_workload, run_storage_workload, ArrivalProcess, WorkloadSpec};

    // Every section is the header plus its configurations.
    type Run<'a> = (&'a str, &'a workload::WorkloadReport);
    let section = |title: &str, runs: &[Run]| {
        println!("\n== Workload: {title} ==");
        table::print(
            runs,
            &[
                left("configuration", 28, |(name, _)| name.to_string()),
                right("requests", 9, |(_, r)| r.requests.to_string()),
                right("done", 9, |(_, r)| r.completed.to_string()),
                right("rexmit", 7, |(_, r)| r.retransmits.to_string()),
                right("p50 (ms)", 9, |(_, r)| {
                    r.latency_p50.as_millis().to_string()
                }),
                right("p99 (ms)", 9, |(_, r)| {
                    r.latency_p99.as_millis().to_string()
                }),
                right("slo avail", 12, |(_, r)| {
                    fixed(r.availability_ppm as f64 / 1e6, 6)
                }),
                right("alerts", 7, |(_, r)| r.slo_alerts_fired.to_string()),
            ],
        );
    };

    // Poisson arrivals at batch 8; the sections differ in rate, length,
    // session count and key population.
    let spec = |rate_per_sec: f64, secs: u64, sessions: usize, population: u64| WorkloadSpec {
        arrivals: ArrivalProcess::Poisson { rate_per_sec },
        horizon: SimTime::from_secs(secs),
        sessions,
        population,
        seed,
        batch_max_ops: 8,
        ..WorkloadSpec::default()
    };

    let lock_spec = spec(1_000.0, if quick { 20 } else { 110 }, 512, 1_000_000);
    let lock = run_lock_workload(&lock_spec, NetworkConfig::default(), &Obs::disabled());
    section(
        "request-level open-loop replay (lock service)",
        &[("lock batch=8", &lock)],
    );

    let store_spec = spec(200.0, if quick { 10 } else { 50 }, 128, 100_000);
    let store = run_storage_workload(&store_spec, NetworkConfig::default(), &Obs::disabled());
    section(
        "request-level open-loop replay (storage service)",
        &[("storage batch=8", &store)],
    );

    let batched_ref = WorkloadSpec {
        pipeline: 4,
        ..spec(120.0, 20, 64, 50_000)
    };
    let reference = WorkloadSpec {
        batch_max_ops: 1,
        ..batched_ref.clone()
    };
    let unbatched = run_lock_workload(&reference, NetworkConfig::default(), &Obs::disabled());
    let batched = run_lock_workload(&batched_ref, NetworkConfig::default(), &Obs::disabled());
    section(
        "batching at a pipeline-saturating reference load",
        &[
            ("lock batch=1 pipeline=4", &unbatched),
            ("lock batch=8 pipeline=4", &batched),
        ],
    );
    let speedup = unbatched.latency_p99.as_millis() as f64
        / (batched.latency_p99.as_millis() as f64).max(1.0);
    println!("batching p99 speedup at reference load: {speedup:.1}x");
}

fn calibration(scale: &Scale) {
    println!("\n== Model calibration: walk-forward backtests per zone ==");
    table::print(
        &experiments::calibration(scale),
        &[
            left("zone", 18, |(zone, _, _)| zone.name()),
            left("bid rule", 16, |(_, rule, _)| rule.to_string()),
            right("samples", 8, |(_, _, r)| r.samples.to_string()),
            right("predicted", 11, |(_, _, r)| fixed(r.mean_predicted, 6)),
            right("realized", 11, |(_, _, r)| fixed(r.mean_realized, 6)),
            right("abs err", 10, |(_, _, r)| fixed(r.mean_abs_error, 6)),
            right("kill rate", 10, |(_, _, r)| fixed(r.kill_rate, 4)),
        ],
    );
}
