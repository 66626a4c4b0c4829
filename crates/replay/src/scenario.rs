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
//! (an ordered `std::thread::scope` map, `par.rs`), every cell recording
//! into the scenario's one metrics registry.
//!
//! ```text
//!          Scenario (shared, read-only across cells)
//!          ├── Arc<Market>      — the price history
//!          ├── ModelStore       — Arc<FrozenKernel> per (zone, type, prefix)
//!          └── Obs              — one registry: model_store.* + every cell's
//!                 │ run(&SweepSpec)                replay.*, repair.*, …
//!                 ▼
//!          cell = (strategy factory, interval)   (private per cell)
//!          └── BiddingFramework — forks shared kernels copy-on-write
//! ```

use std::sync::Arc;

use jupiter::par::{host_workers, par_map};
use jupiter::{BiddingStrategy, ModelStore, ServiceSpec};
use obs::Obs;
use spot_market::{BidEra, Market, Price};

use crate::lifecycle::{on_demand_baseline_cost, replay_repairs, Replay, ReplayConfig};
use crate::repair::{RepairConfig, RepairPolicy};
use crate::results::ReplayResult;

/// Builds one strategy instance for one cell. The factory receives the
/// [`Obs`] the cell records into — the scenario's registry and nothing
/// else (see [`Scenario::with_obs`]) — so strategies that record decision
/// metrics (e.g. `JupiterStrategy::with_obs`) add to the sweep's totals.
pub(crate) type StrategyFactory = Box<dyn Fn(&Obs) -> Box<dyn BiddingStrategy> + Send + Sync>;

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

    /// Record scenario instruments into `obs`'s registry: the store's
    /// `model_store.*` work counters plus every cell's counters and
    /// histograms, summed over the cells. Counters and histograms are
    /// atomic sums, so the totals do not depend on which thread replayed
    /// which cell; cells record no trace, series, audit or alerts, whose
    /// order would. Call before the first `run` — the store is rebuilt,
    /// dropping any kernels already fitted.
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

    /// The replay config for one interval choice over this window (hours,
    /// or `None` for the adaptive schedule).
    pub fn config(&self, interval_hours: impl Into<Option<u64>>) -> ReplayConfig {
        ReplayConfig::new(self.eval_start, self.eval_end, interval_hours)
    }

    /// Replay the full strategy × interval × repair × era grid of `spec`
    /// over the shared market and store, on one thread per core the host
    /// offers (a single cell, or a single core, replays inline on the
    /// caller). Cells are returned in grid order (intervals outer, then
    /// strategies, repairs, eras innermost), independent of the thread
    /// count and of scheduling, and so are the registry's totals.
    pub fn run(&self, spec: &SweepSpec) -> Vec<CellOutcome> {
        self.run_on(spec, host_workers())
    }

    /// [`Self::run`] on at most `workers` threads. The cells that differ
    /// only in repair policy are one job: one boundary schedule and, where
    /// the strategy has one, one decision pass (`replay_repairs`).
    fn run_on(&self, spec: &SweepSpec, workers: usize) -> Vec<CellOutcome> {
        let (repairs, eras) = (spec.repairs.len(), spec.eras.len());
        let strategies = 0..spec.strategies.len();
        let jobs: Vec<(u64, usize, BidEra)> = (spec.intervals.iter())
            .flat_map(|&h| strategies.clone().map(move |s| (h, s)))
            .flat_map(|(h, s)| spec.eras.iter().map(move |&e| (h, s, e)))
            .collect();
        // `Obs::disabled()` when the scenario is unobserved.
        let cell_obs = Obs {
            metrics: self.obs.metrics.clone(),
            ..Obs::disabled()
        };
        let replayed = par_map(&jobs, workers, |&(h, s, era)| {
            let config = self.config(h).with_era(era);
            let replays = (spec.repairs.iter()).map(|&repair| {
                let replay = Replay::new(&self.market, &spec.service, config)
                    .repair(repair)
                    .store(&self.store)
                    .obs(&cell_obs);
                (replay, (spec.strategies[s])(&cell_obs))
            });
            (replay_repairs(replays).into_iter().zip(&spec.repairs))
                .map(|((result, _), repair)| CellOutcome {
                    interval_hours: h,
                    repair: repair.policy,
                    era,
                    result,
                })
                .collect::<Vec<_>>()
        });
        // Back to grid order, where the repair axis is outside the era axis.
        let mut replayed: Vec<_> = replayed.into_iter().map(Vec::into_iter).collect();
        (0..jobs.len() / eras)
            .flat_map(|hs| (0..repairs).flat_map(move |_| hs * eras..(hs + 1) * eras))
            .map(|job| replayed[job].next().expect("a cell per repair"))
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
pub(crate) mod tests {
    use super::*;
    use jupiter::{ExtraStrategy, JupiterStrategy};
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
        // Every cell's replay counters add into the one registry: the
        // boundary bids are the decided group sizes, and every kill an
        // interval counts is one out-of-bid death.
        let results = || cells.iter().map(|c| &c.result);
        let groups: usize = results()
            .flat_map(|r| &r.intervals)
            .map(|i| i.group_size)
            .sum();
        let kills: usize = results().map(ReplayResult::total_kills).sum();
        assert!(groups > 0 && kills > 0);
        assert_eq!(snap.counter("replay.bids_placed"), Some(groups as u64));
        assert_eq!(snap.counter("replay.death.out_of_bid"), Some(kills as u64));
        assert!(snap
            .counters
            .iter()
            .all(|(name, _)| !name.starts_with("cell.")));
    }

    /// The three kinds of cell whose registries a sweep must sum: Jupiter
    /// recording its decisions, Extra under repair, Feedback bidding.
    fn cell_strategy(s: usize, o: &Obs) -> Box<dyn BiddingStrategy> {
        match s {
            0 => Box::new(JupiterStrategy::new().with_obs(o.clone())),
            1 => Box::new(ExtraStrategy::new(0, 0.02)),
            _ => Box::new(jupiter::FeedbackStrategy::new()),
        }
    }

    /// The `Obs` a sweep hands a cell holds the scenario's registry and
    /// nothing else.
    fn registry_only(o: &Obs) -> &Obs {
        assert!(o.metrics.is_enabled(), "a cell records into the registry");
        assert!(
            !o.trace.is_enabled()
                && !o.series.is_enabled()
                && !o.audit.is_enabled()
                && !o.alerts.is_enabled(),
            "a cell records nothing but the registry"
        );
        o
    }

    #[test]
    fn a_sweep_registry_is_the_sum_of_its_cells() {
        let (start, end) = (2 * 7 * 24 * 60, 3 * 7 * 24 * 60);
        let market = scenario_market();
        let service = ServiceSpec::lock_service();
        // Among the twelve cells: Jupiter recording its decisions, Extra
        // under hybrid repair, Feedback under migrate repair in the
        // capacity era.
        let spec = SweepSpec::new(service.clone())
            .strategy(|o| cell_strategy(0, registry_only(o)))
            .strategy(|o| cell_strategy(1, registry_only(o)))
            .strategy(|o| cell_strategy(2, registry_only(o)))
            .intervals(vec![6])
            .repairs(vec![RepairConfig::hybrid(), RepairConfig::migrate()])
            .eras(vec![BidEra::Bidding, BidEra::CapacityReclaim]);

        // Each job alone — a strategy's cells in one era, sharing one
        // schedule and Jupiter's one pass — with an `Obs` of its own, and
        // each cell alone, with its own pass; the store they share records
        // into one more.
        let (store_obs, _clock) = Obs::simulated();
        let (store, apart) = (ModelStore::with_obs(store_obs.clone()), ModelStore::new());
        type Sums = std::collections::BTreeMap<String, u64>;
        let (mut counters, mut histograms) = (Sums::new(), Sums::new());
        let mut cell_counters = Sums::new();
        let add = |sums: &mut Sums, counts: Vec<(String, u64)>| {
            for (name, v) in counts {
                *sums.entry(name).or_default() += v;
            }
        };
        let mut add_job = |snap: obs::MetricsSnapshot| {
            add(&mut counters, snap.counters);
            let counts = snap.histograms.into_iter().map(|(n, h)| (n, h.count));
            add(&mut histograms, counts.collect());
        };
        for s in 0..3 {
            for &era in &spec.eras {
                let config = ReplayConfig::new(start, end, 6).with_era(era);
                let replay = |repair, store, o: &Obs| {
                    let replay = Replay::new(&market, &service, config).repair(repair);
                    replay.store(store).obs(o)
                };
                let (o, _clock) = Obs::simulated();
                let replays = (spec.repairs.iter())
                    .map(|&r| (replay(r, &store, &o), cell_strategy(s, &o)));
                replay_repairs(replays);
                add_job(o.metrics.snapshot());
                for &r in &spec.repairs {
                    let (o, _clock) = Obs::simulated();
                    replay(r, &apart, &o).run(cell_strategy(s, &o));
                    add(&mut cell_counters, o.metrics.snapshot().counters);
                }
            }
        }
        add_job(store_obs.metrics.snapshot());
        assert!(histograms.contains_key("jupiter.decide_micros"));
        for name in [
            "replay.bids_placed",
            "repair.on_demand_launches",
            "notice.emitted",
            "migrate.launched",
        ] {
            assert!(counters.get(name).is_some_and(|&v| v > 0), "{name}");
            // The books count alike whether or not their cells share a pass.
            assert_eq!(counters.get(name), cell_counters.get(name), "{name}");
        }
        // Jupiter's pass runs once per job, not once per cell.
        let forecasts = |sums: &Sums| sums["jupiter.forecasts_computed"];
        assert!(forecasts(&counters) < forecasts(&cell_counters));

        for workers in [1, 4] {
            let (obs, _clock) = Obs::simulated();
            let scenario = Scenario::new(market.clone(), start, end).with_obs(obs.clone());
            assert_eq!(scenario.run_on(&spec, workers).len(), 12);
            let snap = obs.metrics.snapshot();
            let got: std::collections::BTreeMap<String, u64> = snap.counters.into_iter().collect();
            assert_eq!(got, counters, "{workers} workers");
            // Every histogram a cell fills holds host time: counts only.
            let got: std::collections::BTreeMap<String, u64> = snap
                .histograms
                .into_iter()
                .map(|(name, h)| (name, h.count))
                .collect();
            assert_eq!(got, histograms, "{workers} workers");
            // Cells record no trace, series, audit or alerts into the
            // scenario's `Obs` either.
            assert!(obs.trace.events().is_empty());
            assert!(obs.series.snapshot().is_empty());
            assert!(obs.audit.is_empty());
            assert!(obs.alerts.is_empty());
        }
    }

    /// `spec` replayed, observed, on at most `workers` threads: every
    /// cell (axes and whole result) and the scenario registry.
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
    fn repair_axis_multiplies_the_grid() {
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
        // Both cells record into the one registry.
        let snap = obs.metrics.snapshot();
        assert!(snap.counter("repair.deaths_detected").is_some());
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
        let r = Replay::new(scenario.market(), &service, scenario.config(None))
            .store(scenario.store())
            .run(JupiterStrategy::new());
        assert!(r.strategy.contains("[adaptive]"));
        let snap = obs.metrics.snapshot();
        // The adaptive run refit nothing: all its kernels were stored.
        assert_eq!(snap.counter("model_store.fits_performed"), Some(6));
        assert_eq!(snap.counter("model_store.fits_reused"), Some(6));
    }

    /// `S` without its decision pass, if it has one: asked one boundary at
    /// a time inside the loop.
    pub(crate) struct InLoop<S>(pub(crate) S);

    impl<S: BiddingStrategy> BiddingStrategy for InLoop<S> {
        fn name(&self) -> String {
            self.0.name()
        }

        fn decide(
            &self,
            zones: &[jupiter::ZoneState<'_>],
            spec: &ServiceSpec,
            horizon_minutes: u32,
        ) -> jupiter::BidDecision {
            self.0.decide(zones, spec, horizon_minutes)
        }
    }

    /// Every cell's whole result and the registry's counters and
    /// histogram counts (histograms hold host time).
    fn ledger(cells: &[CellOutcome], obs: &Obs) -> (Vec<String>, Vec<(String, u64)>) {
        let results = cells.iter().map(|c| format!("{:?}", c.result)).collect();
        let snap = obs.metrics.snapshot();
        let histograms = snap.histograms.into_iter().map(|(n, h)| (n, h.count));
        (
            results,
            snap.counters.into_iter().chain(histograms).collect(),
        )
    }

    #[test]
    fn the_decision_pass_replays_exactly_as_the_loop() {
        use jupiter::FixedOnce;
        // Two evaluation days at 6 h: eight boundaries per cell.
        let (start, end) = (2 * 7 * 24 * 60, 2 * 7 * 24 * 60 + 2 * 24 * 60);
        let market = scenario_market();
        let bidder = |b: usize, o: &Obs| -> Box<dyn BiddingStrategy> {
            match b {
                0 => Box::new(JupiterStrategy::new().with_obs(o.clone())),
                1 => Box::new(JupiterStrategy::absorbing().with_obs(o.clone())),
                2 => Box::new(ExtraStrategy::new(0, 0.2)),
                _ => Box::new(FixedOnce::new(JupiterStrategy::new().with_obs(o.clone()))),
            }
        };
        let sweep = |in_loop: bool, repair: RepairConfig| {
            let mut spec = SweepSpec::new(ServiceSpec::lock_service());
            for b in 0..4 {
                spec = spec.strategy(move |o| match in_loop {
                    false => bidder(b, o),
                    true => Box::new(InLoop(bidder(b, o))),
                });
            }
            spec.intervals(vec![6])
                .repairs(vec![repair])
                .eras(vec![BidEra::Bidding, BidEra::CapacityReclaim])
        };
        // One sweep per repair policy: a sweep's repair columns share one
        // pass, which the loop cannot.
        let replayed = |in_loop: bool, workers: usize| {
            let (obs, _clock) = Obs::simulated();
            let scenario = Scenario::new(market.clone(), start, end).with_obs(obs.clone());
            let repairs = [
                RepairConfig::off(),
                RepairConfig::hybrid(),
                RepairConfig::migrate(),
            ];
            let cells = repairs.map(|r| scenario.run_on(&sweep(in_loop, r), workers));
            ledger(&cells.into_iter().flatten().collect::<Vec<_>>(), &obs)
        };
        let pass = replayed(false, 1);
        assert_eq!(pass.0.len(), 24);
        for name in [
            "jupiter.forward_evolution_micros",
            "repair.rebids",
            "migrate.launched",
        ] {
            let count = pass.1.iter().find(|(n, _)| n == name).map(|&(_, c)| c);
            assert!(count.is_some_and(|c| c > 0), "{name} {count:?}");
        }
        // One worker fans each pass out over the pools; four put the cells
        // on workers, where each pass runs inline.
        assert_eq!(pass, replayed(true, 1), "one worker");
        assert_eq!(replayed(false, 4), replayed(true, 4), "four workers");
        assert_eq!(pass, replayed(false, 4));

        // The adaptive schedule, observed whole: the audit records are
        // equal (the books' models price them on either path), and every
        // series point sits at the same minute (host-time values aside).
        let adaptive = |strategy: &dyn Fn(&Obs) -> Box<dyn BiddingStrategy>| {
            let (obs, _clock) = Obs::simulated();
            let config = ReplayConfig::new(start, end, None);
            let r = Replay::new(&market, &ServiceSpec::lock_service(), config)
                .repair(RepairConfig::hybrid())
                .obs(&obs)
                .run(strategy(&obs));
            let audit = obs::json_lines(&obs.audit.snapshot(), obs::AuditRecord::to_json);
            let series: Vec<String> = (obs.series.snapshot().into_iter())
                .map(|mut s| {
                    if s.name.ends_with("_micros") {
                        for p in &mut s.points {
                            (p.min, p.max, p.first, p.last, p.sum) = (0.0, 0.0, 0.0, 0.0, 0.0);
                        }
                    }
                    format!("{s:?}")
                })
                .collect();
            (ledger(&[], &obs), format!("{r:?}"), audit, series)
        };
        for b in [0, 1] {
            let pass = adaptive(&|o| bidder(b, o));
            assert!(pass.2.contains("bid_selection"), "the run is audited");
            assert!(pass.3.iter().any(|s| s.contains("jupiter.decide_micros")));
            assert_eq!(pass, adaptive(&|o| Box::new(InLoop(bidder(b, o)))), "{b}");
        }
    }
}
