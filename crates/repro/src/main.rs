//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--quick] [--seed N] [--metrics-out PATH] [--report-out PATH] \
//!       [all|fig1|table1|fig4|fig5|fig6|fig7|fig8|fig9|headline|repair|ablations|calibration|metrics|report|workload|hetero|era]
//! ```
//!
//! By default runs at the paper's scale (13 training weeks, 11 evaluation
//! weeks, 17 availability zones, interval sweep {1,3,6,9,12} h), which
//! takes a few minutes in release mode; `--quick` shrinks everything for a
//! smoke run.
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
//! reference load that saturates the unbatched accept pipeline. Its
//! stdout is deterministic for a given seed, so CI diffs it across
//! thread counts.
//!
//! The `report` target runs a recorded Jupiter replay and renders the
//! time series (spot price vs. bid, per-interval cost and availability,
//! fleet size) into a self-contained HTML file — inline SVG, no external
//! assets — at `--report-out PATH` (default `report.html`).

use std::env;
use std::time::Instant;

use replay::experiments::{self, Scale, SweepRow};

mod report;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(2014);
    let metrics_out = args
        .iter()
        .position(|a| a == "--metrics-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let report_out = args
        .iter()
        .position(|a| a == "--report-out")
        .and_then(|i| args.get(i + 1))
        .cloned();
    // Flag values must not be mistaken for the target word.
    let value_positions: Vec<Option<usize>> =
        vec![seed_pos(&args), metrics_out_pos(&args), report_out_pos(&args)];
    let what = args
        .iter()
        .enumerate()
        .find(|(i, a)| !a.starts_with("--") && !value_positions.contains(&Some(*i)))
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| {
            if metrics_out.is_some() {
                "metrics".into()
            } else {
                "all".into()
            }
        });

    let scale = if quick {
        Scale::quick(seed)
    } else {
        Scale::paper(seed)
    };
    eprintln!(
        "# scale: train {}w, eval {}w, {} zones, intervals {:?}, seed {}",
        scale.train_weeks, scale.eval_weeks, scale.zones, scale.intervals, seed
    );

    let t0 = Instant::now();
    match what.as_str() {
        "all" => {
            table1();
            fig1(seed);
            fig4(&scale);
            fig5(&scale);
            let lock =
                sweep_and_print("Figure 6/7 — lock service", experiments::lock_sweep(&scale));
            let storage = sweep_and_print(
                "Figure 8/9 — storage service",
                experiments::storage_sweep(&scale),
            );
            headline(&lock, &storage);
            repair(&scale);
            ablations(&scale);
        }
        "table1" => table1(),
        "fig1" => fig1(seed),
        "fig4" => fig4(&scale),
        "fig5" => fig5(&scale),
        "fig6" | "fig7" => {
            sweep_and_print("Figure 6/7 — lock service", experiments::lock_sweep(&scale));
        }
        "fig8" | "fig9" => {
            sweep_and_print(
                "Figure 8/9 — storage service",
                experiments::storage_sweep(&scale),
            );
        }
        "headline" => {
            let lock = experiments::lock_sweep(&scale);
            let storage = experiments::storage_sweep(&scale);
            headline(&lock, &storage);
        }
        "repair" => repair(&scale),
        "hetero" => hetero(&scale),
        "era" => era(&scale),
        "ablations" => ablations(&scale),
        "ablation-g" => {
            println!("\n== Ablation G: one-shot fixed bids (Andrzejak-style) vs online re-bidding ==");
            println!(
                "{:<26} {:>12} {:>12} {:>7}",
                "strategy", "cost ($)", "availability", "kills"
            );
            for r in experiments::ablation_fixed_once(&scale) {
                println!(
                    "{:<26} {:>12.2} {:>12.6} {:>7}",
                    r.strategy,
                    r.cost.as_dollars(),
                    r.availability,
                    r.kills
                );
            }
        }
        "calibration" => calibration(&scale),
        "workload" => workload_target(quick, seed),
        "metrics" => {} // instrumented pass runs below
        "report" => {
            let path = report_out.clone().unwrap_or_else(|| "report.html".into());
            report_pass(seed, &path);
        }
        other => {
            eprintln!("unknown target '{other}'");
            std::process::exit(2);
        }
    }
    if what == "metrics" || metrics_out.is_some() {
        let path = metrics_out.unwrap_or_else(|| "metrics.json".into());
        metrics_pass(seed, &path);
    }
    eprintln!("# done in {:.1?}", t0.elapsed());
}

fn seed_pos(args: &[String]) -> Option<usize> {
    args.iter().position(|a| a == "--seed").map(|i| i + 1)
}

fn metrics_out_pos(args: &[String]) -> Option<usize> {
    args.iter().position(|a| a == "--metrics-out").map(|i| i + 1)
}

fn report_out_pos(args: &[String]) -> Option<usize> {
    args.iter().position(|a| a == "--report-out").map(|i| i + 1)
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
    use jupiter::{JupiterStrategy, ServiceSpec};
    use obs::{alerts_jsonl, audit_jsonl, chrome_trace_json, Obs};
    use replay::service_level::{lock_service_replay_observed, ServiceReplayConfig};
    use replay::{RepairConfig, Replay, ReplayConfig};
    use spot_market::{InstanceType, Market, MarketConfig};

    println!("\n== Report pass: recorded Jupiter replay → {path} ==");
    let (obs, _clock) = Obs::simulated();

    let train = 2 * 7 * 24 * 60;
    let eval = 7 * 24 * 60;
    let mut cfg = MarketConfig::paper(seed, train + eval);
    cfg.zones.truncate(8);
    cfg.types = vec![InstanceType::M1Small];
    let market = Market::generate(cfg);
    let spec = ServiceSpec::lock_service();

    // A short service-level replay on the same market fills the trace
    // ring with per-operation causal spans for the Gantt section. It
    // must run *before* the market replay: the shared ManualClock is
    // monotone, and the market replay stamps market-minute time (~1e12
    // µs), which would clamp the service replay's sim-millisecond spans
    // to zero length.
    let service = lock_service_replay_observed(
        &market,
        JupiterStrategy::new().with_obs(obs.clone()),
        ServiceReplayConfig {
            eval_start: train,
            window_minutes: 2 * 60,
            interval_hours: 2,
            sla_ms: 5_000,
            seed,
        },
        &obs,
    );
    println!(
        "service replay: {} ops traced ({} crashes)",
        service.ops_completed, service.crashes
    );

    let result = Replay::new(&market, &spec, ReplayConfig::new(train, train + eval, 6))
        .repair(RepairConfig::hybrid())
        .obs(&obs)
        .run(JupiterStrategy::new().with_obs(obs.clone()));

    let snapshot = obs.metrics.snapshot();
    let events = obs.trace.events();
    let subtitle = format!(
        "Jupiter lock-service replay — seed {seed}, 2 training weeks, 1 evaluation week, \
         8 zones, 6 h bidding interval, hybrid repair. Time axis in market hours."
    );
    let html = report::render_replay_report(&subtitle, &result, &snapshot, &events);
    let charts = report::chart_count(&html);
    match std::fs::write(path, &html) {
        Ok(()) => println!(
            "report written to {path}: {charts} charts, {} series, {} bytes",
            result.series.len(),
            html.len()
        ),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    let trace_path = format!("{path}.trace.json");
    match std::fs::write(&trace_path, chrome_trace_json(&events)) {
        Ok(()) => println!(
            "trace exported to {trace_path} ({} events; load in chrome://tracing or Perfetto)",
            events.len()
        ),
        Err(e) => {
            eprintln!("cannot write {trace_path}: {e}");
            std::process::exit(1);
        }
    }
    let audit_path = format!("{path}.audit.jsonl");
    match std::fs::write(&audit_path, audit_jsonl(&result.audit)) {
        Ok(()) => println!(
            "audit log exported to {audit_path} ({} records)",
            result.audit.len()
        ),
        Err(e) => {
            eprintln!("cannot write {audit_path}: {e}");
            std::process::exit(1);
        }
    }
    let alerts_path = format!("{path}.alerts.jsonl");
    match std::fs::write(&alerts_path, alerts_jsonl(&result.alerts)) {
        Ok(()) => println!(
            "alerts exported to {alerts_path} ({} fired)",
            result.alerts.len()
        ),
        Err(e) => {
            eprintln!("cannot write {alerts_path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The instrumented pass behind `--metrics-out`: a Jupiter market replay
/// (bids, grants, terminations by cause, per-interval cost/availability)
/// plus a short service-level Paxos replay (per-kind message counts,
/// elections, quorum-wait spans), all into one shared [`obs::Obs`] driven
/// by simulated time. The registry and trace ring are dumped as JSON.
fn metrics_pass(seed: u64, path: &str) {
    use jupiter::{JupiterStrategy, ServiceSpec};
    use obs::Obs;
    use replay::service_level::{lock_service_replay_observed, ServiceReplayConfig};
    use replay::{Replay, ReplayConfig};
    use spot_market::{InstanceType, Market, MarketConfig};

    println!("\n== Instrumented pass: market replay + service-level Paxos replay ==");
    let (obs, _clock) = Obs::simulated();

    let train = 2 * 7 * 24 * 60;
    let eval = 3 * 24 * 60;
    let mut cfg = MarketConfig::paper(seed, train + eval);
    cfg.zones.truncate(8);
    cfg.types = vec![InstanceType::M1Small];
    let market = Market::generate(cfg);
    let spec = ServiceSpec::lock_service();

    // Service replay first: the shared ManualClock is monotone, and the
    // market replay stamps market-minute time (~1e12 µs), which would
    // clamp the service replay's sim-millisecond span timestamps to zero
    // length (all trace latencies would read 0).
    let service = lock_service_replay_observed(
        &market,
        JupiterStrategy::new().with_obs(obs.clone()),
        ServiceReplayConfig {
            eval_start: train,
            window_minutes: 4 * 60,
            interval_hours: 2,
            sla_ms: 5_000,
            seed,
        },
        &obs,
    );
    println!(
        "service replay:  {} ops, {} crashes, {} reconfigs",
        service.ops_completed, service.crashes, service.reconfigs
    );

    let replayed = Replay::new(&market, &spec, ReplayConfig::new(train, train + eval, 6))
        .obs(&obs)
        .run(JupiterStrategy::new().with_obs(obs.clone()));
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
    println!(
        "\n{:<44} {:>9} {:>12} {:>12} {:>12}",
        "histogram (µs)", "count", "p50", "p90", "p99"
    );
    for (name, h) in &snap.histograms {
        println!(
            "{:<44} {:>9} {:>12.1} {:>12.1} {:>12.1}",
            name, h.count, h.p50_est, h.p90_est, h.p99_est
        );
    }
    match std::fs::write(path, obs.to_json()) {
        Ok(()) => println!("metrics dumped to {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn table1() {
    println!("\n== Table 1: Amazon EC2 regions and availability zones ==");
    println!("{:<16} {:<12} {:>5}", "Region", "Location", "AZs");
    for (region, location, azs) in experiments::table1() {
        println!("{region:<16} {location:<12} {azs:>5}");
    }
}

fn fig1(seed: u64) {
    println!("\n== Figure 1: spot price history (us-east-1a m1.small, 2 h) ==");
    println!("{:>6}  {:>8}", "minute", "price");
    let series = experiments::fig1_series(seed);
    let mut last = None;
    for (m, p) in series {
        if last != Some(p) {
            println!("{m:>6}  {p:>8}");
            last = Some(p);
        }
    }
}

fn fig4(scale: &Scale) {
    println!("\n== Figure 4: measured out-of-bid failure probability at target 0.01 ==");
    println!(
        "{:<18} {:<10} {:>10} {:>10} {:>10}",
        "zone", "type", "bid", "estimated", "measured"
    );
    for r in experiments::fig4(scale) {
        println!(
            "{:<18} {:<10} {:>10} {:>10.6} {:>10.6}",
            r.zone.name(),
            r.instance_type.api_name(),
            r.bid.map(|b| b.to_string()).unwrap_or_else(|| "-".into()),
            r.estimated,
            r.measured
        );
    }
}

fn fig5(scale: &Scale) {
    println!("\n== Figure 5: one-week cost under different bidding strategies ==");
    println!(
        "{:<18} {:<14} {:>10} {:>12}",
        "service", "strategy", "cost ($)", "availability"
    );
    for r in experiments::fig5(scale) {
        println!(
            "{:<18} {:<14} {:>10.2} {:>12.6}",
            r.service,
            r.strategy,
            r.cost.as_dollars(),
            r.availability
        );
    }
}

fn sweep_and_print(title: &str, rows: Vec<SweepRow>) -> Vec<SweepRow> {
    println!("\n== {title}: cost and availability vs bidding interval ==");
    println!(
        "{:<10} {:<14} {:>12} {:>12} {:>7}",
        "interval", "strategy", "cost ($)", "availability", "kills"
    );
    for r in &rows {
        let interval = if r.interval_hours == 0 {
            "-".to_string()
        } else {
            format!("{}h", r.interval_hours)
        };
        println!(
            "{:<10} {:<14} {:>12.2} {:>12.6} {:>7}",
            interval,
            r.strategy,
            r.cost.as_dollars(),
            r.availability,
            r.kills
        );
    }
    rows
}

fn headline(lock: &[SweepRow], storage: &[SweepRow]) {
    let h = experiments::headline(lock, storage);
    let sla = |met: bool| {
        if met {
            "SLA met"
        } else {
            "SLA MISSED — most-available fallback"
        }
    };
    println!("\n== Headline: Jupiter cost reduction vs on-demand baseline ==");
    println!(
        "lock service:    {:.2}% (best interval {} h, {}; paper: 81.23%)",
        h.lock_reduction_pct,
        h.lock_best_interval,
        sla(h.lock_met_sla)
    );
    println!(
        "storage service: {:.2}% (best interval {} h, {}; paper: 85.32%)",
        h.storage_reduction_pct,
        h.storage_best_interval,
        sla(h.storage_met_sla)
    );
}

fn repair(scale: &Scale) {
    // Three policies per (interval, strategy) cell triples the grid, so
    // the paper-scale sweep trims to the {3, 6, 12} h intervals — the
    // short-interval cells rarely see mid-interval kills anyway.
    let scale = if scale.intervals.len() > 3 {
        Scale {
            intervals: vec![3, 6, 12],
            ..scale.clone()
        }
    } else {
        scale.clone()
    };
    let s = experiments::repair_sweep(&scale);
    println!("\n== Repair-policy sweep: mid-interval rebids and on-demand fallback (lock service) ==");
    println!(
        "{:<10} {:<14} {:<10} {:>12} {:>12} {:>12} {:>10} {:>7}",
        "interval", "strategy", "repair", "cost ($)", "od cost ($)", "availability", "degraded", "kills"
    );
    for r in &s.rows {
        println!(
            "{:<10} {:<14} {:<10} {:>12.2} {:>12.2} {:>12.6} {:>8} m {:>7}",
            format!("{}h", r.interval_hours),
            r.strategy,
            r.policy.label(),
            r.cost.as_dollars(),
            r.on_demand_cost.as_dollars(),
            r.availability,
            r.degraded_minutes,
            r.kills
        );
    }
    println!(
        "on-demand baseline: ${:.2} (every repairing cell must undercut it)",
        s.baseline_cost.as_dollars()
    );
}

/// The `era` target: the interruption-regime race. The same storage
/// deployment replayed under the bidding era (out-of-bid kills) and the
/// capacity-reclaim era (hidden capacity processes with advance notices),
/// with reactive repair racing the proactive-migration controller in each.
/// Output is deterministic for a given seed, so CI diffs it across thread
/// counts.
fn era(scale: &Scale) {
    let s = experiments::era_sweep(scale);
    println!(
        "\n== Interruption eras: reactive repair vs proactive migration ({} h interval) ==",
        s.interval_hours
    );
    println!(
        "{:<18} {:<10} {:<12} {:>12} {:>12} {:>10} {:>7} {:>7} {:>7}",
        "era", "repair", "strategy", "cost ($)", "availability", "degraded", "kills", "drains", "late"
    );
    for r in &s.rows {
        println!(
            "{:<18} {:<10} {:<12} {:>12.2} {:>12.6} {:>8} m {:>7} {:>7} {:>7}",
            r.era.label(),
            r.policy.label(),
            r.strategy,
            r.cost.as_dollars(),
            r.availability,
            r.degraded_minutes,
            r.kills,
            r.drains,
            r.late_drains
        );
    }
    println!(
        "on-demand baseline: ${:.2} (every cell must undercut it)",
        s.baseline_cost.as_dollars()
    );
}

/// The `hetero` target: the heterogeneous-pool strategy race (Jupiter vs
/// the feedback controller vs Extra over single-type and mixed pools at a
/// shared strength floor) followed by the auto-scaler experiment (diurnal
/// demand, load-tracked fleet strength vs peak provisioning). Output is
/// deterministic for a given seed, so CI diffs it across thread counts.
fn hetero(scale: &Scale) {
    let s = experiments::hetero_sweep(scale);
    println!(
        "\n== Heterogeneous pools: strategy race at strength ≥ {} ({} h interval) ==",
        s.min_strength, s.interval_hours
    );
    println!(
        "{:<12} {:<22} {:>12} {:>12} {:>7} {:>7}",
        "strategy", "pools", "cost ($)", "availability", "kills", "nodes"
    );
    for r in &s.rows {
        println!(
            "{:<12} {:<22} {:>12.2} {:>12.6} {:>7} {:>7.1}",
            r.strategy, r.pool_label, r.cost.as_dollars(), r.availability, r.kills, r.mean_group_size
        );
    }
    println!(
        "on-demand baseline: ${:.2} (every cell must undercut it)",
        s.baseline_cost.as_dollars()
    );

    let r = experiments::autoscale_report(scale);
    println!("\n== Auto-scaler: diurnal demand vs peak provisioning (mixed pool, 3 h boundaries) ==");
    println!(
        "{:<26} {:>12} {:>12} {:>7}",
        "fleet", "cost ($)", "availability", "kills"
    );
    println!(
        "{:<26} {:>12.2} {:>12.6} {:>7}",
        "auto-scaled",
        r.result.total_cost.as_dollars(),
        r.result.availability(),
        r.result.total_kills()
    );
    println!(
        "{:<26} {:>12.2} {:>12.6} {:>7}",
        format!("static peak (strength {})", r.peak_strength),
        r.static_result.total_cost.as_dollars(),
        r.static_result.availability(),
        r.static_result.total_kills()
    );
    println!(
        "on-demand baseline: ${:.2}; scale-outs {}, scale-ins {}",
        r.baseline_cost.as_dollars(),
        r.scale_outs,
        r.scale_ins
    );
    let scale_decisions = r
        .result
        .audit
        .iter()
        .filter(|rec| rec.kind.label() == "scale_decision")
        .count();
    println!("audited scale decisions: {scale_decisions}");
    println!("\nper-type fleet series (points, peak, final):");
    for series in &r.result.series {
        if let Some(ty) = series.name.strip_prefix("pool.fleet.") {
            let peak = series.points.iter().map(|p| p.max).fold(0.0, f64::max);
            let last = series.points.last().map(|p| p.last).unwrap_or(0.0);
            println!(
                "  pool.fleet.{:<12} {:>6} {:>8.1} {:>8.1}",
                ty,
                series.points.len(),
                peak,
                last
            );
        }
    }
    if let Some(strength) = r.result.series_named("pool.strength") {
        let peak = strength.points.iter().map(|p| p.max).fold(0.0, f64::max);
        println!(
            "  {:<23} {:>6} {:>8.1}",
            "pool.strength",
            strength.points.len(),
            peak
        );
    }
}

fn ablations(scale: &Scale) {
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
    let rows = experiments::ablation_greedy_vs_exact(scale);
    println!(
        "{:>10} {:>12} {:>12} {:>8}",
        "minute", "greedy ($)", "exact ($)", "ratio"
    );
    for r in &rows {
        let ratio = r.greedy_cost.as_dollars() / r.exact_cost.as_dollars().max(1e-9);
        println!(
            "{:>10} {:>12.4} {:>12.4} {:>8.3}",
            r.minute,
            r.greedy_cost.as_dollars(),
            r.exact_cost.as_dollars(),
            ratio
        );
    }

    println!("\n== Ablation C: expectation vs absorbing Jupiter, 6 h replay ==");
    println!(
        "{:<14} {:>12} {:>12} {:>7}",
        "strategy", "cost ($)", "availability", "kills"
    );
    for r in experiments::ablation_estimator_replay(scale) {
        println!(
            "{:<14} {:>12.2} {:>12.6} {:>7}",
            r.strategy,
            r.cost.as_dollars(),
            r.availability,
            r.kills
        );
    }

    println!("\n== Ablation D: adaptive bidding interval (§5.5 extension) ==");
    println!(
        "{:<22} {:>12} {:>12} {:>14}",
        "schedule", "cost ($)", "availability", "mean interval"
    );
    for r in experiments::ablation_adaptive(scale) {
        println!(
            "{:<22} {:>12.2} {:>12.6} {:>12.1} h",
            r.strategy,
            r.cost.as_dollars(),
            r.availability,
            r.mean_interval_hours
        );
    }

    println!("\n== Ablation E: weighted voting (Eq. 11) vs simple majority ==");
    println!(
        "{:<42} {:>12} {:>12}",
        "failure profile", "majority", "weighted"
    );
    for r in experiments::ablation_weighted_voting() {
        println!(
            "{:<42} {:>12.8} {:>12.8}",
            format!("{:?}", r.profile),
            r.majority,
            r.weighted
        );
    }

    println!("\n== Ablation G: one-shot fixed bids (Andrzejak-style) vs online re-bidding ==");
    println!(
        "{:<26} {:>12} {:>12} {:>7}",
        "strategy", "cost ($)", "availability", "kills"
    );
    for r in experiments::ablation_fixed_once(scale) {
        println!(
            "{:<26} {:>12.2} {:>12.6} {:>7}",
            r.strategy,
            r.cost.as_dollars(),
            r.availability,
            r.kills
        );
    }

    println!("\n== Ablation F: model mismatch (semi-Markov vs banded AR(1) market) ==");
    println!(
        "{:<14} {:>12} {:>12} {:>12} {:>10}",
        "process", "predicted", "realized", "abs error", "kill rate"
    );
    for r in experiments::ablation_model_mismatch(scale) {
        println!(
            "{:<14} {:>12.6} {:>12.6} {:>12.6} {:>10.4}",
            r.process, r.mean_predicted, r.mean_realized, r.mean_abs_error, r.kill_rate
        );
    }
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
/// Everything printed derives from sim time and fixed seeds, so the CI
/// determinism gate can diff this output across thread counts.
fn workload_target(quick: bool, seed: u64) {
    use obs::Obs;
    use simnet::{NetworkConfig, SimTime};
    use workload::{run_lock_workload, run_storage_workload, ArrivalProcess, WorkloadSpec};

    let row = |name: &str, r: &workload::WorkloadReport| {
        println!(
            "{:<28} {:>9} {:>9} {:>7} {:>9} {:>9} {:>12.6} {:>7}",
            name,
            r.requests,
            r.completed,
            r.retransmits,
            r.latency_p50.as_millis(),
            r.latency_p99.as_millis(),
            r.availability_ppm as f64 / 1e6,
            r.slo_alerts_fired,
        );
    };
    let header = || {
        println!(
            "{:<28} {:>9} {:>9} {:>7} {:>9} {:>9} {:>12} {:>7}",
            "configuration", "requests", "done", "rexmit", "p50 (ms)", "p99 (ms)", "slo avail", "alerts"
        );
    };

    println!("\n== Workload: request-level open-loop replay (lock service) ==");
    header();
    let lock_spec = WorkloadSpec {
        arrivals: ArrivalProcess::Poisson {
            rate_per_sec: 1_000.0,
        },
        horizon: SimTime::from_secs(if quick { 20 } else { 110 }),
        sessions: 512,
        population: 1_000_000,
        seed,
        batch_max_ops: 8,
        ..WorkloadSpec::default()
    };
    let lock = run_lock_workload(&lock_spec, NetworkConfig::default(), &Obs::disabled());
    row("lock batch=8", &lock);

    println!("\n== Workload: request-level open-loop replay (storage service) ==");
    header();
    let store_spec = WorkloadSpec {
        arrivals: ArrivalProcess::Poisson { rate_per_sec: 200.0 },
        horizon: SimTime::from_secs(if quick { 10 } else { 50 }),
        sessions: 128,
        population: 100_000,
        seed,
        batch_max_ops: 8,
        ..WorkloadSpec::default()
    };
    let store = run_storage_workload(&store_spec, NetworkConfig::default(), &Obs::disabled());
    row("storage batch=8", &store);

    println!("\n== Workload: batching at a pipeline-saturating reference load ==");
    header();
    let reference = WorkloadSpec {
        arrivals: ArrivalProcess::Poisson { rate_per_sec: 120.0 },
        horizon: SimTime::from_secs(20),
        sessions: 64,
        population: 50_000,
        seed,
        pipeline: 4,
        batch_max_ops: 1,
        ..WorkloadSpec::default()
    };
    let unbatched = run_lock_workload(&reference, NetworkConfig::default(), &Obs::disabled());
    row("lock batch=1 pipeline=4", &unbatched);
    let batched_ref = WorkloadSpec {
        batch_max_ops: 8,
        ..reference
    };
    let batched = run_lock_workload(&batched_ref, NetworkConfig::default(), &Obs::disabled());
    row("lock batch=8 pipeline=4", &batched);
    let speedup =
        unbatched.latency_p99.as_millis() as f64 / (batched.latency_p99.as_millis() as f64).max(1.0);
    println!("batching p99 speedup at reference load: {speedup:.1}x");
}

fn calibration(scale: &Scale) {
    use spot_market::{InstanceType, TraceGenerator};
    use spot_model::{backtest, BidRule, FailureModelConfig};

    println!("\n== Model calibration: walk-forward backtests per zone ==");
    println!(
        "{:<18} {:<16} {:>8} {:>11} {:>11} {:>10} {:>10}",
        "zone", "bid rule", "samples", "predicted", "realized", "abs err", "kill rate"
    );
    let ty = InstanceType::M1Small;
    let gen = TraceGenerator::new(scale.seed);
    for zone in spot_market::topology::experiment_zones().into_iter().take(6) {
        let trace = gen.generate(zone, ty, scale.horizon_minutes());
        let cap = ty.on_demand_price(zone.region);
        for (label, rule) in [
            ("spot x 1.2", BidRule::SpotMultiple(1.2)),
            ("target 0.0103", BidRule::TargetFp { target: 0.0103, cap }),
        ] {
            let r = backtest(
                &trace,
                scale.train_minutes(),
                360,
                12 * 60,
                rule,
                false,
                FailureModelConfig::default(),
            );
            println!(
                "{:<18} {:<16} {:>8} {:>11.6} {:>11.6} {:>10.6} {:>10.4}",
                zone.name(),
                label,
                r.samples,
                r.mean_predicted,
                r.mean_realized,
                r.mean_abs_error,
                r.kill_rate
            );
        }
    }
}
