//! The declarative scenario engine: one market, one shared model store,
//! many (strategy × interval) replay cells.
//!
//! Every sweep in the paper's evaluation replays the *same* market window
//! under a grid of strategies and bidding intervals. The hand-rolled
//! drivers used to rebuild and retrain a [`jupiter::BiddingFramework`] per
//! cell — zones × strategies × intervals kernel fits for identical
//! training data. A [`Scenario`] owns the market (`Arc`-shared across
//! cells) and a [`ModelStore`] memoizing one [`spot_model::FrozenKernel`]
//! per (zone, type, training prefix); a [`SweepSpec`] declares the cell
//! grid; [`Scenario::run`] replays the cells on every core the host offers
//! (an ordered `std::thread::scope` map, `par.rs`) and then merges each
//! cell's private obs registry into the scenario registry, in grid order,
//! under a `cell.{strategy}.{interval}h.` prefix.
//!
//! ```text
//!          Scenario (shared, read-only across cells)
//!          ├── Arc<Market>      — the price history
//!          ├── ModelStore       — Arc<FrozenKernel> per (zone, type, prefix)
//!          └── Obs              — merged per-cell registries + model_store.*
//!                 │ run(&SweepSpec)
//!                 ▼
//!          cell = (strategy factory, interval)   (private per cell)
//!          ├── BiddingFramework — forks shared kernels copy-on-write
//!          └── Obs              — replay.* counters for this cell only
//! ```

use std::sync::Arc;

use jupiter::{BiddingStrategy, ModelStore, ServiceSpec};
use obs::Obs;
use spot_market::{BidEra, Market, Price};

use crate::lifecycle::{on_demand_baseline_cost, Replay, ReplayConfig};
use crate::par::{host_workers, par_map};
use crate::repair::{RepairConfig, RepairPolicy};
use crate::results::ReplayResult;

/// Builds one strategy instance for one cell. The factory receives the
/// cell's private [`Obs`] so strategies that record decision metrics
/// (e.g. `JupiterStrategy::with_obs`) stay separable per cell.
pub type StrategyFactory = Box<dyn Fn(&Obs) -> Box<dyn BiddingStrategy> + Send + Sync>;

/// A declarative sweep: which service to deploy and the strategy ×
/// interval grid to replay it under.
pub struct SweepSpec {
    service: ServiceSpec,
    strategies: Vec<StrategyFactory>,
    intervals: Vec<u64>,
    repairs: Vec<RepairConfig>,
    /// Interruption-era columns; defaults to the single
    /// [`BidEra::Bidding`] column, so pre-era sweeps replay byte-identically.
    eras: Vec<BidEra>,
}

impl SweepSpec {
    /// An empty sweep of `service`; add strategies and intervals with the
    /// builder methods. The repair axis defaults to the single
    /// [`RepairConfig::off`] column, so sweeps that never mention repair
    /// replay exactly as before.
    pub fn new(service: ServiceSpec) -> Self {
        SweepSpec {
            service,
            strategies: Vec::new(),
            intervals: Vec::new(),
            repairs: vec![RepairConfig::off()],
            eras: vec![BidEra::Bidding],
        }
    }

    /// Add one strategy column to the grid.
    pub fn strategy(
        mut self,
        make: impl Fn(&Obs) -> Box<dyn BiddingStrategy> + Send + Sync + 'static,
    ) -> Self {
        self.strategies.push(Box::new(make));
        self
    }

    /// Set the bidding intervals (hours) to sweep.
    pub fn intervals(mut self, hours: impl Into<Vec<u64>>) -> Self {
        self.intervals = hours.into();
        self
    }

    /// Set the repair-policy columns to sweep (replacing the default
    /// single off column).
    pub fn repairs(mut self, repairs: impl Into<Vec<RepairConfig>>) -> Self {
        self.repairs = repairs.into();
        assert!(!self.repairs.is_empty(), "the repair axis cannot be empty");
        self
    }

    /// Set the interruption-era columns to sweep (replacing the default
    /// single [`BidEra::Bidding`] column): each entry replays the whole
    /// grid under that death regime over the same market, so the paper's
    /// bid-vs-price kills race directly against capacity-driven
    /// reclamations with advance notice.
    pub fn eras(mut self, eras: impl Into<Vec<BidEra>>) -> Self {
        self.eras = eras.into();
        assert!(!self.eras.is_empty(), "the era axis cannot be empty");
        self
    }

    /// The service this sweep deploys.
    pub fn service(&self) -> &ServiceSpec {
        &self.service
    }

    /// Number of cells the grid enumerates.
    pub fn cells(&self) -> usize {
        self.strategies.len() * self.intervals.len() * self.repairs.len() * self.eras.len()
    }
}

/// One completed cell of a sweep.
pub struct CellOutcome {
    /// The cell's bidding interval in hours.
    pub interval_hours: u64,
    /// The repair policy this cell replayed under.
    pub repair: RepairPolicy,
    /// The interruption era this cell replayed under.
    pub era: BidEra,
    /// The replay accounting for this cell.
    pub result: ReplayResult,
}

/// One market window plus the shared state every replay over it can
/// reuse: the `Arc`-shared [`Market`] and the [`ModelStore`] of frozen
/// per-zone kernels.
pub struct Scenario {
    market: Arc<Market>,
    eval_start: u64,
    eval_end: u64,
    store: ModelStore,
    obs: Obs,
}

impl Scenario {
    /// A scenario evaluating `[eval_start, eval_end)` of `market`, with
    /// observability disabled.
    pub fn new(market: Market, eval_start: u64, eval_end: u64) -> Self {
        Scenario {
            market: Arc::new(market),
            eval_start,
            eval_end,
            store: ModelStore::new(),
            obs: Obs::disabled(),
        }
    }

    /// Record scenario instruments into `obs`: the store's `model_store.*`
    /// work counters plus every cell's registry merged under
    /// `cell.{strategy}.{interval}h.`. Call before the first `run` — the
    /// store is rebuilt, dropping any kernels already fitted.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.store = ModelStore::with_obs(obs.clone());
        self.obs = obs;
        self
    }

    /// The shared market.
    pub fn market(&self) -> &Market {
        &self.market
    }

    /// The shared model store (e.g. to inspect how many fits ran).
    pub fn store(&self) -> &ModelStore {
        &self.store
    }

    /// The replay config for one interval choice over this window.
    pub fn config(&self, interval_hours: u64) -> ReplayConfig {
        ReplayConfig::new(self.eval_start, self.eval_end, interval_hours)
    }

    /// Replay the full strategy × interval × repair × era grid of `spec`
    /// over the shared market and store, on one thread per core the host
    /// offers (a single cell, or a single core, replays inline on the
    /// caller). Cells are returned in grid order (intervals outer, then
    /// strategies, repairs, eras innermost), and once all are back each
    /// cell's private registry is merged into the scenario [`Obs`] in
    /// that same order, so output and metrics are independent of the
    /// thread count and of scheduling. Cells with repair off keep the
    /// historical `cell.{strategy}.{interval}h.` prefix; repairing cells
    /// append the policy label (`….{interval}h.{policy}.`), and
    /// non-default era columns the era label.
    pub fn run(&self, spec: &SweepSpec) -> Vec<CellOutcome> {
        self.run_on(spec, host_workers())
    }

    /// [`Self::run`] on at most `workers` threads.
    fn run_on(&self, spec: &SweepSpec, workers: usize) -> Vec<CellOutcome> {
        let jobs: Vec<(u64, usize, usize, usize)> = spec
            .intervals
            .iter()
            .flat_map(|&h| {
                let repairs = spec.repairs.len();
                let eras = spec.eras.len();
                (0..spec.strategies.len()).flat_map(move |s| {
                    (0..repairs).flat_map(move |r| (0..eras).map(move |e| (h, s, r, e)))
                })
            })
            .collect();
        let cells: Vec<(CellOutcome, Obs)> = par_map(&jobs, workers, |&(h, s, r, e)| {
            let cell_obs = if self.obs.metrics.is_enabled() {
                Obs::simulated().0
            } else {
                Obs::disabled()
            };
            let strategy = (spec.strategies[s])(&cell_obs);
            let repair = spec.repairs[r];
            let era = spec.eras[e];
            let result = Replay::new(&self.market, &spec.service, self.config(h).with_era(era))
                .repair(repair)
                .store(&self.store)
                .obs(&cell_obs)
                .run(strategy);
            (
                CellOutcome {
                    interval_hours: h,
                    repair: repair.policy,
                    era,
                    result,
                },
                cell_obs,
            )
        });
        cells
            .into_iter()
            .map(|(cell, cell_obs)| {
                let mut prefix = if cell.repair == RepairPolicy::Off {
                    format!("cell.{}.{}h.", cell.result.strategy, cell.interval_hours)
                } else {
                    format!(
                        "cell.{}.{}h.{}.",
                        cell.result.strategy,
                        cell.interval_hours,
                        cell.repair.label()
                    )
                };
                if cell.era != BidEra::Bidding {
                    // Era columns separate by their label, so the default
                    // bidding era keeps its historical prefix.
                    prefix.push_str(cell.era.label());
                    prefix.push('.');
                }
                self.obs.metrics.merge_prefixed(&cell_obs.metrics, &prefix);
                cell
            })
            .collect()
    }

    /// The on-demand baseline cost over this scenario's window.
    pub fn baseline_cost(&self, service: &ServiceSpec) -> Price {
        // The interval choice does not enter the baseline (it holds the
        // same on-demand fleet for the whole window).
        on_demand_baseline_cost(&self.market, service, self.config(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jupiter::{ExtraStrategy, JupiterStrategy};
    use obs::Obs;
    use spot_market::{InstanceType, MarketConfig};

    fn scenario_market() -> Market {
        let mut cfg = MarketConfig::paper(21, 3 * 7 * 24 * 60);
        cfg.zones.truncate(6);
        cfg.types = vec![InstanceType::M1Small];
        Market::generate(cfg)
    }

    fn spec_2x2() -> SweepSpec {
        SweepSpec::new(ServiceSpec::lock_service())
            .strategy(|_| Box::new(JupiterStrategy::new()))
            .strategy(|_| Box::new(ExtraStrategy::new(0, 0.2)))
            .intervals(vec![6, 12])
    }

    #[test]
    fn grid_runs_in_order_and_trains_once_per_zone() {
        let (obs, _clock) = Obs::simulated();
        let scenario =
            Scenario::new(scenario_market(), 2 * 7 * 24 * 60, 3 * 7 * 24 * 60).with_obs(obs.clone());
        let spec = spec_2x2();
        let cells = scenario.run(&spec);
        assert_eq!(cells.len(), spec.cells());
        // Grid order: intervals outer, strategies inner.
        let labels: Vec<(u64, String)> = cells
            .iter()
            .map(|c| (c.interval_hours, c.result.strategy.clone()))
            .collect();
        assert_eq!(labels[0], (6, "Jupiter".to_string()));
        assert_eq!(labels[1], (6, "Extra(0,0.2)".to_string()));
        assert_eq!(labels[2], (12, "Jupiter".to_string()));
        assert_eq!(labels[3], (12, "Extra(0,0.2)".to_string()));
        // One fit per zone, shared by all four cells: every cell needs all
        // 6 zones, so 4 × 6 lookups hit 6 fits.
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("model_store.fits_performed"), Some(6));
        assert_eq!(snap.counter("model_store.fits_reused"), Some(3 * 6));
        assert_eq!(scenario.store().len(), 6);
        // Each cell's replay counters land under its own prefix.
        assert!(snap.counter("cell.Jupiter.6h.replay.bids_placed").unwrap_or(0) > 0);
        assert!(
            snap.counter("cell.Extra(0,0.2).12h.replay.bids_placed")
                .unwrap_or(0)
                > 0
        );
    }

    /// `spec` replayed, observed, on at most `workers` threads: every
    /// cell (axes and whole result) and the merged scenario registry.
    fn replay_on(spec: &SweepSpec, workers: usize) -> (Vec<String>, obs::MetricsSnapshot) {
        let (obs, _clock) = Obs::simulated();
        let scenario =
            Scenario::new(scenario_market(), 2 * 7 * 24 * 60, 3 * 7 * 24 * 60).with_obs(obs.clone());
        let cells = scenario
            .run_on(spec, workers)
            .iter()
            .map(|c| {
                format!(
                    "{}h {:?} {:?} {:?}",
                    c.interval_hours, c.repair, c.era, c.result
                )
            })
            .collect();
        (cells, obs.metrics.snapshot())
    }

    #[test]
    fn cells_and_registry_are_the_same_on_one_thread_and_on_four() {
        let repair_by_era = SweepSpec::new(ServiceSpec::lock_service())
            .strategy(|_| Box::new(ExtraStrategy::new(0, 0.2)))
            .strategy(|_| Box::new(jupiter::FeedbackStrategy::new()))
            .intervals(vec![3])
            .repairs(vec![RepairConfig::reactive(), RepairConfig::migrate()])
            .eras(vec![BidEra::Bidding, BidEra::CapacityReclaim]);
        for spec in [spec_2x2(), repair_by_era] {
            let (inline_cells, inline) = replay_on(&spec, 1);
            let (threaded_cells, threaded) = replay_on(&spec, 4);
            assert_eq!(inline_cells.len(), spec.cells());
            assert_eq!(threaded_cells.len(), spec.cells());
            for (i, (a, b)) in inline_cells.iter().zip(&threaded_cells).enumerate() {
                assert_eq!(a, b, "cell {i}");
            }
            assert_eq!(inline.counters.len(), threaded.counters.len());
            for (a, b) in inline.counters.iter().zip(&threaded.counters) {
                assert_eq!(a, b);
            }
            assert_eq!(inline.histograms.len(), threaded.histograms.len());
            for ((name, a), (other, b)) in inline.histograms.iter().zip(&threaded.histograms) {
                assert_eq!(name, other);
                if name == "model_store.fit_micros" {
                    // The one wall-clock instrument these sweeps fill.
                    assert_eq!(a.count, b.count, "histogram {name}");
                } else {
                    assert_eq!(a, b, "histogram {name}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "window beyond market")]
    fn a_cells_panic_crosses_the_worker_threads_with_its_message() {
        // One week past the market's end: every cell trips the replay's
        // window assertion, on whichever thread claimed it.
        let scenario = Scenario::new(scenario_market(), 2 * 7 * 24 * 60, 4 * 7 * 24 * 60);
        scenario.run_on(&spec_2x2(), 2);
    }

    #[test]
    fn stored_replay_matches_unshared_replay() {
        // The engine is a pure refactor: a cell replayed through the
        // shared store must equal the same replay trained privately.
        let market = scenario_market();
        let config = ReplayConfig::new(2 * 7 * 24 * 60, 3 * 7 * 24 * 60, 6);
        let service = ServiceSpec::lock_service();
        let direct = Replay::new(&market, &service, config).run(JupiterStrategy::new());
        let scenario = Scenario::new(market, 2 * 7 * 24 * 60, 3 * 7 * 24 * 60);
        let spec = SweepSpec::new(service)
            .strategy(|_| Box::new(JupiterStrategy::new()))
            .intervals(vec![6]);
        let cells = scenario.run(&spec);
        let stored = &cells[0].result;
        assert_eq!(stored.total_cost, direct.total_cost);
        assert_eq!(stored.up_minutes, direct.up_minutes);
        assert_eq!(stored.instances.len(), direct.instances.len());
    }

    #[test]
    fn repair_axis_multiplies_the_grid_and_prefixes_cells() {
        let (obs, _clock) = Obs::simulated();
        let scenario =
            Scenario::new(scenario_market(), 2 * 7 * 24 * 60, 3 * 7 * 24 * 60).with_obs(obs.clone());
        let spec = SweepSpec::new(ServiceSpec::lock_service())
            .strategy(|_| Box::new(ExtraStrategy::new(0, 0.2)))
            .intervals(vec![6])
            .repairs(vec![RepairConfig::off(), RepairConfig::hybrid()]);
        assert_eq!(spec.cells(), 2);
        let cells = scenario.run(&spec);
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].repair, RepairPolicy::Off);
        assert_eq!(cells[1].repair, RepairPolicy::Hybrid);
        // Repair never lowers availability — boundary decisions are
        // frozen, so the hybrid cell only ever adds live instances.
        assert!(cells[1].result.up_minutes >= cells[0].result.up_minutes);
        assert!(cells[1].result.degraded_minutes <= cells[0].result.degraded_minutes);
        // The off cell keeps the historical prefix; the hybrid cell is
        // separated by its policy label.
        let snap = obs.metrics.snapshot();
        assert!(
            snap.counter("cell.Extra(0,0.2).6h.replay.bids_placed")
                .unwrap_or(0)
                > 0
        );
        assert!(
            snap.counter("cell.Extra(0,0.2).6h.hybrid.replay.bids_placed")
                .unwrap_or(0)
                > 0
        );
        assert!(snap
            .counter("cell.Extra(0,0.2).6h.hybrid.repair.deaths_detected")
            .is_some());
        // Both cells share one store: still one fit per zone.
        assert_eq!(snap.counter("model_store.fits_performed"), Some(6));
    }

    #[test]
    fn adaptive_shares_the_store() {
        let (obs, _clock) = Obs::simulated();
        let scenario =
            Scenario::new(scenario_market(), 2 * 7 * 24 * 60, 3 * 7 * 24 * 60).with_obs(obs.clone());
        let service = ServiceSpec::lock_service();
        let spec = SweepSpec::new(service.clone())
            .strategy(|_| Box::new(JupiterStrategy::new()))
            .intervals(vec![6]);
        scenario.run(&spec);
        let r = Replay::new(scenario.market(), &service, scenario.config(1))
            .adaptive()
            .store(scenario.store())
            .run(JupiterStrategy::new());
        assert!(r.strategy.contains("[adaptive]"));
        let snap = obs.metrics.snapshot();
        // The adaptive run refit nothing: all its kernels were stored.
        assert_eq!(snap.counter("model_store.fits_performed"), Some(6));
        assert_eq!(snap.counter("model_store.fits_reused"), Some(6));
    }
}
