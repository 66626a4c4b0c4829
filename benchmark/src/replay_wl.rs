//! The two market-replay workloads. Both go through `Scenario::run` and
//! the `SweepSpec` builder only (not the `replay_*` wrappers, which are
//! due to be collapsed), so they survive that refactor.

use std::sync::Arc;
use std::time::Instant;

use jupiter::framework::MarketSnapshot;
use jupiter::{
    BiddingFramework, ExtraStrategy, FeedbackStrategy, JupiterStrategy, ModelKey, ModelStore,
    ServiceSpec,
};
use obs::Obs;
use replay::{CellOutcome, RepairConfig, Scenario, SweepSpec};
use spot_market::{BidEra, InstanceType, Market, MarketConfig};
use spot_model::FrozenKernel;

use crate::spans::Recorder;
use crate::stats::Summary;
use crate::{Options, Pass, Workload};

const DAY: u64 = 24 * 60;
/// Training prefix: two weeks, as the paper's replays use.
const TRAIN_MINUTES: u64 = 14 * DAY;
/// Evaluation window at full scale, days.
const EVAL_DAYS: u64 = 3;
/// `bid_replay` re-bids every three hours.
const BID_INTERVAL_HOURS: u64 = 3;
/// Decisions are made this long before a boundary (`ReplayConfig`'s lead).
const DECISION_LEAD: u64 = 15;
/// `jupiter.decide_ms_p95` needs ten samples beyond it: 200 decisions.
const DECIDE_SAMPLES: usize = 224;

const TY: InstanceType = InstanceType::M1Small;

/// The paper's market generator cut down to `zones` zones of m1.small.
pub(crate) fn market(seed: u64, zones: usize, horizon: u64) -> Market {
    let mut cfg = MarketConfig::paper(seed, horizon);
    cfg.zones.truncate(zones);
    cfg.types = vec![TY];
    Market::generate(cfg)
}

/// Generate the market and fit every zone's kernel into the scenario's
/// store, so timed passes replay on warm models.
fn warm_scenario(
    seed: u64,
    zones: usize,
    eval_end: u64,
    obs: &Obs,
    rec: &mut Recorder,
) -> Scenario {
    let market = rec.scope("spot-market.generate", |_| market(seed, zones, eval_end));
    let mut scenario = Scenario::new(market, TRAIN_MINUTES, eval_end);
    if obs.is_enabled() {
        scenario = scenario.with_obs(obs.clone());
    }
    // The store is private to the scenario and fits on first use, whatever
    // the strategy: one model-free cell with a single week-long interval
    // performs all the fits and next to no replay work.
    let warm = SweepSpec::new(ServiceSpec::lock_service())
        .strategy(|_| Box::new(ExtraStrategy::new(0, 0.2)))
        .intervals(vec![7 * 24]);
    rec.scope("spot-model.fit", |_| scenario.run(&warm));
    scenario
}

/// Reduce the cells of one `Scenario::run` to a [`Pass`], checking the
/// accounting invariants every cell must hold.
fn reduce(scenario: &Scenario, spec: &SweepSpec, cells: &[CellOutcome], wall_s: f64) -> Pass {
    let mut errors = Vec::new();
    if cells.len() != spec.cells() {
        errors.push(format!(
            "{} cells replayed, {} declared",
            cells.len(),
            spec.cells()
        ));
    }
    let baseline = scenario.baseline_cost(spec.service()).as_dollars() * cells.len() as f64;
    let (mut ops, mut failed, mut up, mut window, mut degraded, mut bids) = (0, 0, 0, 0, 0, 0);
    let mut cost = 0.0;
    for c in cells {
        let r = &c.result;
        ops += r.intervals.len() as u64;
        failed += r.intervals.iter().filter(|i| i.group_size == 0).count() as u64;
        bids += r.intervals.iter().map(|i| i.group_size as u64).sum::<u64>();
        up += r.up_minutes;
        window += r.window_minutes;
        degraded += r.degraded_minutes;
        cost += r.total_cost.as_dollars();
        let billed: f64 = r.instances.iter().map(|i| i.cost.as_dollars()).sum();
        if (billed - r.total_cost.as_dollars()).abs() > 1e-6 {
            errors.push(format!(
                "{}: records bill {billed}, total says {}",
                r.strategy, r.total_cost
            ));
        }
        if r.up_minutes > r.window_minutes
            || r.intervals.iter().map(|i| i.up_minutes).sum::<u64>() != r.up_minutes
        {
            errors.push(format!("{}: up minutes do not add up", r.strategy));
        }
        if r.intervals.iter().any(|i| i.max_live > i.group_size) {
            errors.push(format!("{}: more live instances than decided", r.strategy));
        }
    }
    Pass {
        ops,
        failed,
        wall_s,
        outcome: vec![
            ("availability_ppm", up as f64 / window as f64 * 1e6),
            ("cost_vs_ondemand", cost / baseline),
            ("degraded_minutes", degraded as f64),
        ],
        fingerprint: vec![(cost * 1e4).round() as u64, up, degraded, bids],
        host_layer: vec![("replay.us_per_interval", wall_s * 1e6 / ops as f64)],
        errors,
        ..Pass::default()
    }
}

/// The paper's core loop: Jupiter re-bids the lock service every 3 h.
pub struct BidReplay {
    seed: u64,
    eval_end: u64,
}

impl BidReplay {
    const ZONES: usize = 8;

    fn sweep() -> SweepSpec {
        SweepSpec::new(ServiceSpec::lock_service())
            .strategy(|o| Box::new(JupiterStrategy::new().with_obs(o.clone())))
            .intervals(vec![BID_INTERVAL_HOURS])
    }
}

impl Workload for BidReplay {
    type Ready = Scenario;
    const SUB_SEEDS: usize = 12;

    fn new(opts: &Options) -> Self {
        BidReplay {
            seed: opts.seed,
            eval_end: TRAIN_MINUTES + opts.scaled(EVAL_DAYS) * DAY,
        }
    }

    fn setup(&self, obs: &Obs, rec: &mut Recorder) -> Scenario {
        warm_scenario(self.seed, Self::ZONES, self.eval_end, obs, rec)
    }

    fn pass(&self, scenario: Scenario, _obs: &Obs, rec: &mut Recorder) -> Pass {
        let sweep = Self::sweep();
        let t0 = Instant::now();
        let cells = rec.scope("replay.cell[0]", |_| scenario.run(&sweep));
        let mut pass = reduce(&scenario, &sweep, &cells, t0.elapsed().as_secs_f64());
        // A handful of kills decide one Jupiter cell's degraded minutes,
        // which swing fivefold from seed to seed: no metric to hold a
        // bound to here. The fingerprint still pins them per seed.
        pass.outcome.retain(|o| o.0 != "degraded_minutes");
        pass
    }

    /// Every boundary of the window replayed as an individually timed
    /// `BiddingFramework::decide` on store-installed kernels, untraced.
    fn extras(&self, rec: &mut Recorder) -> Vec<(&'static str, f64)> {
        let market = market(self.seed, Self::ZONES, self.eval_end);
        let first_decision = TRAIN_MINUTES - DECISION_LEAD;
        let store = ModelStore::new();
        let mut framework =
            BiddingFramework::new(ServiceSpec::lock_service(), JupiterStrategy::new());
        for &zone in market.zones() {
            let key = ModelKey {
                zone,
                instance_type: TY,
                trained_until: first_decision,
            };
            let kernel: Arc<FrozenKernel> = store.get_or_fit(key, || {
                FrozenKernel::from_trace(&market.trace(zone, TY).window(0, first_decision))
            });
            framework.install_kernel(zone, TY, kernel);
        }
        let interval = BID_INTERVAL_HOURS * 60;
        let boundaries: Vec<u64> = (TRAIN_MINUTES..self.eval_end)
            .step_by(interval as usize)
            .collect();
        let mut decide_ms = Vec::new();
        // On the first sweep: the share of each decide that the same
        // boundary's forecasts, timed on their own, account for.
        let mut forecast_share = Vec::new();
        while decide_ms.len() < DECIDE_SAMPLES.max(boundaries.len()) {
            for &boundary in &boundaries {
                let at = boundary - DECISION_LEAD;
                let snapshots: Vec<MarketSnapshot> = market
                    .zones()
                    .iter()
                    .map(|&zone| {
                        let trace = market.trace(zone, TY);
                        MarketSnapshot {
                            zone,
                            instance_type: TY,
                            spot_price: trace.price_at(at),
                            sojourn_age: trace.sojourn_age_at(at).min(u32::MAX as u64) as u32,
                        }
                    })
                    .collect();
                let i = decide_ms.len();
                let t0 = Instant::now();
                let decision = rec.scope(&format!("jupiter.decide[{i}]"), |_| {
                    framework.decide(&snapshots, interval as u32)
                });
                decide_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                std::hint::black_box(decision);
                if i < boundaries.len() {
                    let t0 = Instant::now();
                    for s in &snapshots {
                        let model = framework.model(s.zone, TY).expect("kernel installed");
                        std::hint::black_box(model.forecast(
                            s.spot_price,
                            s.sojourn_age,
                            interval as u32,
                        ));
                    }
                    forecast_share.push(t0.elapsed().as_secs_f64() * 1e3 / decide_ms[i]);
                }
            }
        }
        let summary = Summary::of(&decide_ms);
        println!("jupiter.decide ms: {summary}");
        vec![
            ("jupiter.decide_ms_p50", summary.p50),
            (
                "jupiter.decide_ms_p95",
                summary.supported(95.0).unwrap_or(0.0),
            ),
            (
                "jupiter.forecast_share_of_decide",
                Summary::of(&forecast_share).p50,
            ),
        ]
    }
}

/// The controller race: model-free bidders under every repair policy and
/// both interruption eras, 54 cells through one `Scenario::run`.
pub struct ControllerSweep {
    seed: u64,
    eval_end: u64,
}

impl ControllerSweep {
    const ZONES: usize = 17;
    const STRATEGIES: usize = 3;
    const INTERVALS: [u64; 3] = [1, 3, 6];

    fn repairs() -> [RepairConfig; 3] {
        [
            RepairConfig::off(),
            RepairConfig::hybrid(),
            RepairConfig::migrate(),
        ]
    }

    const ERAS: [BidEra; 2] = [BidEra::Bidding, BidEra::CapacityReclaim];

    fn with_strategy(spec: SweepSpec, index: usize) -> SweepSpec {
        match index {
            0 => spec.strategy(|_| Box::new(ExtraStrategy::new(0, 0.2))),
            1 => spec.strategy(|_| Box::new(ExtraStrategy::new(2, 0.2))),
            _ => spec.strategy(|_| Box::new(FeedbackStrategy::new())),
        }
    }

    fn grid() -> SweepSpec {
        let spec = SweepSpec::new(ServiceSpec::lock_service());
        (0..Self::STRATEGIES)
            .fold(spec, Self::with_strategy)
            .intervals(Self::INTERVALS.to_vec())
            .repairs(Self::repairs().to_vec())
            .eras(Self::ERAS.to_vec())
    }

    /// The grid's cells as one-cell sweeps, in grid order.
    fn single_cells() -> Vec<SweepSpec> {
        let mut cells = Vec::new();
        for hours in Self::INTERVALS {
            for strategy in 0..Self::STRATEGIES {
                for repair in Self::repairs() {
                    for era in Self::ERAS {
                        let spec = SweepSpec::new(ServiceSpec::lock_service());
                        cells.push(
                            Self::with_strategy(spec, strategy)
                                .intervals(vec![hours])
                                .repairs(vec![repair])
                                .eras(vec![era]),
                        );
                    }
                }
            }
        }
        cells
    }
}

impl Workload for ControllerSweep {
    type Ready = Scenario;
    const SUB_SEEDS: usize = 12;

    fn new(opts: &Options) -> Self {
        ControllerSweep {
            seed: opts.seed,
            eval_end: TRAIN_MINUTES + opts.scaled(EVAL_DAYS) * DAY,
        }
    }

    fn setup(&self, obs: &Obs, rec: &mut Recorder) -> Scenario {
        warm_scenario(self.seed, Self::ZONES, self.eval_end, obs, rec)
    }

    fn pass(&self, scenario: Scenario, _obs: &Obs, rec: &mut Recorder) -> Pass {
        let grid = Self::grid();
        let t0 = Instant::now();
        let cells = rec.scope("replay.grid", |_| scenario.run(&grid));
        reduce(&scenario, &grid, &cells, t0.elapsed().as_secs_f64())
    }

    /// The grid once more, then each of its cells singly: the ratio says
    /// what running cells together buys (nothing, while `rayon` is the
    /// sequential shim), and the single cells must add up to the grid.
    fn extras(&self, rec: &mut Recorder) -> Vec<(&'static str, f64)> {
        let scenario = warm_scenario(self.seed, Self::ZONES, self.eval_end, &Obs::disabled(), rec);
        let grid = Self::grid();
        let t0 = Instant::now();
        let cells = rec.scope("replay.grid", |_| scenario.run(&grid));
        let grid_s = t0.elapsed().as_secs_f64();
        let together = reduce(&scenario, &grid, &cells, grid_s);
        let mut cell_ms = Vec::new();
        let mut apart = Vec::new();
        for (j, spec) in Self::single_cells().iter().enumerate() {
            let t0 = Instant::now();
            let cell = rec.scope(&format!("replay.cell[{j}]"), |_| scenario.run(spec));
            cell_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            apart.extend(cell);
        }
        let summed = reduce(&scenario, &grid, &apart, cell_ms.iter().sum::<f64>() / 1e3);
        assert_eq!(
            together.fingerprint, summed.fingerprint,
            "cells run singly must replay exactly as in the grid"
        );
        let summary = Summary::of(&cell_ms);
        println!("replay.cell ms: {summary}");
        vec![
            ("replay.cell_ms_p50", summary.p50),
            (
                "replay.sweep_over_sum_of_cells",
                grid_s * 1e3 / cell_ms.iter().sum::<f64>(),
            ),
        ]
    }
}
