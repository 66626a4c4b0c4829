//! System tests for the heterogeneous-pool refactor: the PR 8
//! single-type fingerprints stay pinned, the auto-scaler follows the
//! diurnal load deterministically without oscillating, and the hetero
//! sweep grid is independent of how its cells are scheduled.

use spot_jupiter::jupiter::{ExtraStrategy, JupiterStrategy, ServiceSpec};
use spot_jupiter::obs::{AuditKind, Obs};
use spot_jupiter::replay::experiments::{
    diurnal_rate, lock_sweep, replay, Scale, PER_STRENGTH_THROUGHPUT,
};
use spot_jupiter::replay::{
    demand_series, AutoScaler, AutoscaleConfig, Replay, ReplayConfig, ReplayResult, Scenario,
    SweepSpec, HYSTERESIS_INTERVALS,
};
use spot_jupiter::spot_market::InstanceType;
use test_util::hetero_market_days;

/// The exact quick-scale Figure 6 numbers committed in PR 8: single-type
/// specs must keep replaying byte-identically now that the framework is
/// pool-aware (Jupiter's one selection routine, at one pool per zone and
/// no strength floor, is the paper's sort-and-truncate, so every cost,
/// availability, and kill count is unchanged).
#[test]
fn single_type_quick_sweep_reproduces_pr8_fingerprints() {
    let [rows] = replay(&Scale::quick(2014), [lock_sweep]);
    let got: Vec<(String, String, String, usize)> = rows
        .iter()
        .map(|r| {
            (
                r.strategy.clone(),
                format!("{:.2}", r.cost.as_dollars()),
                format!("{:.6}", r.availability),
                r.kills,
            )
        })
        .collect();
    let want = [
        ("Baseline", "36.96", "0.999990", 0),
        ("Extra(0,0.2)", "3.92", "0.797817", 65),
        ("Extra(2,0.2)", "6.79", "0.962202", 68),
        ("Jupiter", "6.55", "1.000000", 2),
    ];
    let want: Vec<(String, String, String, usize)> = want
        .iter()
        .map(|(s, c, a, k)| (s.to_string(), c.to_string(), a.to_string(), *k))
        .collect();
    assert_eq!(got, want, "PR 8 quick fig6 fingerprints drifted");
}

fn autoscale_run(seed: u64) -> (ReplayResult, (u64, u64), Vec<(String, String)>) {
    let train = 5 * 24 * 60;
    let m = hetero_market_days(seed, 6, 10);
    let spec = ServiceSpec::lock_service().with_pools(&[InstanceType::M1Small, InstanceType::M3Large]);
    let demand = demand_series(diurnal_rate, train, m.horizon(), 60, PER_STRENGTH_THROUGHPUT);
    let mut scaler = AutoScaler::new(
        AutoscaleConfig {
            min_strength: 4,
            max_strength: 24,
        },
        demand,
    );
    let (obs, _clock) = Obs::simulated();
    let r = Replay::new(&m, &spec, ReplayConfig::new(train, m.horizon(), 3))
        .autoscaler(&mut scaler)
        .obs(&obs)
        .run(JupiterStrategy::new());
    let decisions: Vec<(String, String)> = obs
        .audit
        .snapshot()
        .iter()
        .filter_map(|rec| match &rec.kind {
            AuditKind::ScaleDecision { action, reason, .. } => {
                Some((action.clone(), reason.clone()))
            }
            _ => None,
        })
        .collect();
    (r, scaler.scale_events(), decisions)
}

/// Under the diurnal demand curve the controller must scale out into the
/// daily peak — and do so identically on every run.
#[test]
fn autoscaler_scales_out_under_diurnal_peak_deterministically() {
    let (a, (outs_a, ins_a), decisions_a) = autoscale_run(11);
    assert!(outs_a >= 1, "no scale-out under a 12.8x diurnal peak");
    assert!(
        decisions_a
            .iter()
            .any(|(_, reason)| reason == "demand_exceeds_target"),
        "no demand-driven scale-out audited: {decisions_a:?}"
    );
    let (b, (outs_b, ins_b), decisions_b) = autoscale_run(11);
    assert_eq!(a.total_cost, b.total_cost);
    assert_eq!(a.up_minutes, b.up_minutes);
    assert_eq!(a.instances.len(), b.instances.len());
    assert_eq!((outs_a, ins_a), (outs_b, ins_b));
    assert_eq!(decisions_a, decisions_b);
}

/// Scale-in hysteresis: the audited decision stream never shrinks the
/// target without first holding through the full hysteresis window, so a
/// diurnal trough cannot oscillate the fleet.
#[test]
fn scale_in_waits_out_hysteresis_in_replay() {
    let (_, (_, ins), decisions) = autoscale_run(11);
    assert!(ins >= 1, "diurnal trough never scaled in: {decisions:?}");
    let need = HYSTERESIS_INTERVALS as usize - 1;
    for (i, (action, reason)) in decisions.iter().enumerate() {
        if action == "scale_in" {
            assert_eq!(reason, "sustained_headroom");
            assert!(i >= need, "scale-in at decision {i} inside hysteresis");
            for (prev_action, _) in &decisions[i - need..i] {
                assert_eq!(
                    prev_action, "hold",
                    "scale-in at {i} not preceded by {need} holds: {decisions:?}"
                );
            }
        }
    }
}

fn sweep_cells() -> Vec<(u64, Vec<InstanceType>, String, String, String, usize)> {
    let m = hetero_market_days(5, 4, 10);
    let horizon = m.horizon();
    let scenario = Scenario::new(m, 5 * 24 * 60, horizon);
    let columns = [
        vec![InstanceType::M1Small],
        vec![InstanceType::M3Large],
        vec![InstanceType::M1Small, InstanceType::M3Large],
    ];
    let mut cells = Vec::new();
    for pools in columns {
        let sweep = SweepSpec::new(
            ServiceSpec::lock_service()
                .with_pools(&pools)
                .with_min_strength(8),
        )
        .strategy(|_| Box::new(JupiterStrategy::new()))
        .strategy(|_| Box::new(ExtraStrategy::new(2, 0.2)))
        .intervals([6u64]);
        cells.extend(scenario.run(&sweep).into_iter().map(|cell| {
            (
                cell.interval_hours,
                pools.clone(),
                cell.result.strategy.clone(),
                format!("{:.6}", cell.result.total_cost.as_dollars()),
                format!("{:.9}", cell.result.availability()),
                cell.result.instances.len(),
            )
        }));
    }
    cells
}

/// The hetero sweep grid must not depend on how the cells are
/// scheduled: every run replays the exact same numbers cell by cell.
/// (`Scenario::run` replays each pool column's two cells on every core
/// the host offers, so on a multi-core box the two sweeps here already meet
/// different interleavings; `replay::scenario`'s unit test forces 1 vs 4
/// workers on one grid, and ci.sh runs the repro binary's hetero target
/// twice at one seed in separate processes and diffs the rows.)
#[test]
fn hetero_sweep_is_schedule_deterministic() {
    let first = sweep_cells();
    assert_eq!(first.len(), 6, "3 pool columns x 2 strategies x 1 interval");
    let second = sweep_cells();
    assert_eq!(first, second);
}
