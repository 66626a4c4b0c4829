//! Drivers for every table and figure in the paper's evaluation (§5),
//! plus the ablations DESIGN.md calls out; the `repro` binary renders
//! what they return as the paper's series.
//!
//! A table that replays declares its [`Cell`]s — plain keys — and the one
//! evaluation plan, [`replay`], replays each distinct key of a command
//! once and reduces it to the one [`Row`]; a figure is a list of keys
//! here and a choice of columns in `repro`. Only the analyses that replay
//! nothing (Fig. 4, Ablations A, B, E, F, the calibration backtests) are
//! drivers with row types of their own.

#![deny(clippy::too_many_lines)]

use std::time::Instant;

use jupiter::{
    BiddingStrategy, ExtraStrategy, FeedbackStrategy, FixedOnce, JupiterStrategy, ServiceSpec,
};
use spot_market::{
    BidEra, InstanceType, Market, MarketConfig, Price, PriceTrace, TraceGenerator, Zone,
};
use spot_model::{backtest, BidRule, CalibrationReport, FailureModel, FailureModelConfig};

use crate::lifecycle::Replay;
use crate::par::{host_workers, par_map};
use crate::repair::{RepairConfig, RepairPolicy};
use crate::results::ReplayResult;
use crate::scenario::Scenario;

/// Experiment scale: the paper's full runs or a quick smoke-scale variant
/// for tests and debug builds.
#[derive(Clone, Debug)]
pub struct Scale {
    /// Training history length in weeks (the paper trains ≈ 3 months).
    pub train_weeks: u64,
    /// Evaluation span in weeks (the paper replays 11 weeks).
    pub eval_weeks: u64,
    /// Availability zones (the paper uses 17).
    pub zones: usize,
    /// Bidding intervals (hours) to sweep (the paper: 1, 3, 6, 9, 12).
    pub intervals: Vec<u64>,
    /// Master seed for trace generation.
    pub seed: u64,
}

impl Scale {
    /// The paper's scale: 13 training weeks, 11 evaluation weeks, 17
    /// zones, intervals {1, 3, 6, 9, 12} h.
    pub fn paper(seed: u64) -> Self {
        Scale {
            train_weeks: 13,
            eval_weeks: 11,
            zones: 17,
            intervals: vec![1, 3, 6, 9, 12],
            seed,
        }
    }

    /// A smoke-test scale that preserves the experiment structure.
    pub fn quick(seed: u64) -> Self {
        Scale {
            train_weeks: 2,
            eval_weeks: 1,
            zones: 8,
            intervals: vec![6],
            seed,
        }
    }

    /// Training prefix length in minutes.
    pub fn train_minutes(&self) -> u64 {
        self.train_weeks * 7 * 24 * 60
    }

    /// Full market horizon in minutes.
    pub fn horizon_minutes(&self) -> u64 {
        (self.train_weeks + self.eval_weeks) * 7 * 24 * 60
    }

    /// Build the market for one instance type at this scale.
    pub fn market(&self, ty: InstanceType) -> Market {
        let mut cfg = MarketConfig::paper(self.seed, self.horizon_minutes());
        cfg.zones.truncate(self.zones);
        cfg.types = vec![ty];
        Market::generate(cfg)
    }

    /// The heterogeneous `m1.small` + `m3.large` market at this scale.
    fn hetero_market(&self) -> Market {
        let mut cfg = MarketConfig::hetero_paper(self.seed, self.horizon_minutes());
        cfg.zones.truncate(self.zones);
        Market::generate(cfg)
    }
}

// ------------------------------------------------------ The evaluation plan

/// A cell's bidder. The variants are declared dearest first — per
/// paper-scale cell on one core: Jupiter-absorbing 60–68 s; Jupiter, fixed
/// or adaptive, 7–15 s; fixed-once, Feedback and Extra at most 0.12 s — so
/// the plan's one scheduling decision, a stable sort by bidder, starts the
/// longest replays first.
#[derive(Clone, Copy, Debug, PartialEq, PartialOrd)]
pub enum Bidder {
    /// Jupiter with the absorbing (survival) failure estimator.
    JupiterAbsorbing,
    /// The paper's Jupiter (Fig. 3).
    Jupiter,
    /// Jupiter's first decision held for the whole deployment.
    FixedOnce,
    /// The Li et al.-style feedback controller.
    Feedback,
    /// Extra(k, p): k spare nodes, bids a portion p above spot.
    Extra(usize, f64),
}

impl Bidder {
    /// A fresh strategy instance.
    fn build(self) -> Box<dyn BiddingStrategy> {
        match self {
            Bidder::JupiterAbsorbing => Box::new(JupiterStrategy::absorbing()),
            Bidder::Jupiter => Box::new(JupiterStrategy::new()),
            Bidder::FixedOnce => Box::new(FixedOnce::new(JupiterStrategy::new())),
            Bidder::Feedback => Box::new(FeedbackStrategy::new()),
            Bidder::Extra(nodes, portion) => Box::new(ExtraStrategy::new(nodes, portion)),
        }
    }
}

/// A key of the evaluation plan — one replayed cell, or one on-demand
/// baseline — in plain values. Tables that declare equal keys share one
/// replay, so a display label (Ablation D's `Jupiter fixed 6h`, Fig. 5's
/// service column) never goes here.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// The deployed service, its pool column applied. A heterogeneous one
    /// (several pools or a strength floor) replays on the heterogeneous
    /// market, any other on a market of its one instance type.
    pub service: ServiceSpec,
    /// Evaluation weeks after the scale's training weeks.
    pub eval_weeks: u64,
    /// `None` holds the service on demand for the whole window: the
    /// baseline, which replays nothing.
    pub bidder: Option<Bidder>,
    /// Bidding interval in hours; `None` is the §5.5 adaptive schedule,
    /// which replays with repair off in the bidding era.
    pub interval_hours: Option<u64>,
    /// The repair policy.
    pub repair: RepairPolicy,
    /// The interruption era.
    pub era: BidEra,
}

impl Cell {
    /// The on-demand baseline of `service` over the scale's evaluation
    /// span.
    fn baseline(service: &ServiceSpec, scale: &Scale) -> Cell {
        Cell {
            service: service.clone(),
            eval_weeks: scale.eval_weeks,
            bidder: None,
            interval_hours: None,
            repair: RepairPolicy::Off,
            era: BidEra::Bidding,
        }
    }

    /// The instance type of this key's market; `None`: the heterogeneous
    /// market.
    fn market(&self) -> Option<InstanceType> {
        (!self.service.is_hetero()).then_some(self.service.instance_type)
    }

    /// This key's row, replayed over `scenario` (its market and window).
    fn replay(&self, scenario: &Scenario) -> Row {
        let spec = &self.service;
        let Some(bidder) = self.bidder else {
            return Row {
                service: spec.name.clone(),
                strategy: "Baseline".into(),
                cost: scenario.baseline_cost(spec),
                availability: spec.baseline_availability(),
                ..Row::default()
            };
        };
        // The adaptive schedule replaces the interval; any valid one does.
        let config = scenario.config(self.interval_hours.unwrap_or(1));
        let replay = Replay::new(scenario.market(), spec, config.with_era(self.era))
            .repair(RepairConfig {
                policy: self.repair,
            })
            .store(scenario.store());
        let replay = match self.interval_hours {
            Some(_) => replay,
            None => replay.adaptive(),
        };
        let result = replay.run(bidder.build());
        let n = result.intervals.len();
        let mean_interval_hours = match self.interval_hours {
            Some(hours) => hours as f64,
            None if n > 1 => {
                let span = result.intervals[n - 1].start - result.intervals[0].start;
                span as f64 / 60.0 / (n - 1) as f64
            }
            None => 0.0,
        };
        let pools: Vec<&str> = spec
            .pools()
            .into_iter()
            .map(InstanceType::api_name)
            .collect();
        Row {
            service: spec.name.clone(),
            interval_hours: self.interval_hours.unwrap_or(0),
            policy: self.repair,
            era: self.era,
            pool_label: pools.join("+"),
            mean_interval_hours,
            ..Row::from_result(&result)
        }
    }
}

/// `bidders` at each of `hours` (intervals outer), deploying `service`
/// over the scale's evaluation span with repair off, in the bidding era.
fn grid(service: &ServiceSpec, scale: &Scale, hours: &[u64], bidders: &[Bidder]) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &h in hours {
        for &bidder in bidders {
            cells.push(Cell {
                bidder: Some(bidder),
                interval_hours: Some(h),
                ..Cell::baseline(service, scale)
            });
        }
    }
    cells
}

/// `items` without repeats, in first-seen order.
fn distinct<T: PartialEq>(items: impl IntoIterator<Item = T>) -> Vec<T> {
    let mut seen = Vec::new();
    for item in items {
        if !seen.contains(&item) {
            seen.push(item);
        }
    }
    seen
}

/// The evaluation plan: replay each distinct key the `tables` declare
/// once, and return each table one row per key, in declaration order.
///
/// The keys over one (market, evaluation span) share one [`Scenario`] —
/// one market, one model store — whichever table declared them, and the
/// distinct keys replay in one `par_map` over the host's cores, longest
/// first, so no core idles at the end of one table while another waits.
/// Each distinct key's wall time goes to stderr as a `# cell` line.
pub fn replay<const N: usize>(
    scale: &Scale,
    tables: [fn(&Scale) -> Vec<Cell>; N],
) -> [Vec<Row>; N] {
    let tables = tables.map(|declare| declare(scale));
    let cells = tables.concat();
    let mut keys = distinct(&cells);
    keys.sort_by(|a, b| {
        a.bidder
            .partial_cmp(&b.bidder)
            .expect("portions are numbers")
    });
    let windows = distinct(keys.iter().map(|c| (c.market(), c.eval_weeks)));
    let scenarios: Vec<Scenario> = (windows.iter())
        .map(|&(market, eval_weeks)| {
            let window = Scale {
                eval_weeks,
                ..scale.clone()
            };
            let market = market.map_or_else(|| window.hetero_market(), |ty| window.market(ty));
            Scenario::new(market, window.train_minutes(), window.horizon_minutes())
        })
        .collect();
    let rows = par_map(&keys, host_workers(), |cell| {
        let at = windows
            .iter()
            .position(|&w| w == (cell.market(), cell.eval_weeks));
        let start = Instant::now();
        let row = cell.replay(&scenarios[at.expect("a scenario per window")]);
        (row, start.elapsed())
    });
    for (cell, (_, took)) in keys.iter().zip(&rows) {
        let (service, pools) = (&cell.service, cell.service.pools());
        eprintln!(
            "# cell {} {pools:?}≥{} {}w {:?} {:?}h {} {:?} {:.2}s",
            service.name,
            service.min_strength,
            cell.eval_weeks,
            cell.bidder,
            cell.interval_hours,
            cell.repair,
            cell.era,
            took.as_secs_f64()
        );
    }
    let mut rows = (cells.iter()).map(|cell| {
        rows[keys.iter().position(|k| *k == cell).expect("a key")]
            .0
            .clone()
    });
    tables.map(|table| rows.by_ref().take(table.len()).collect())
}

// -------------------------------------------------------------------- Rows

/// One replayed cell, or the on-demand baseline it is measured against,
/// reduced to what the figures plot. An axis a table does not vary reads
/// its default.
#[derive(Clone, Debug, Default)]
pub struct Row {
    /// The service's name.
    pub service: String,
    /// Bidding interval in hours (0 marks the interval-free baseline).
    pub interval_hours: u64,
    /// Strategy name (or "Baseline").
    pub strategy: String,
    /// The repair policy the cell replayed under.
    pub policy: RepairPolicy,
    /// The interruption era the cell replayed under.
    pub era: BidEra,
    /// `+`-joined API names of the pools the cell replayed over
    /// (e.g. `m1.small+m3.large`).
    pub pool_label: String,
    /// Total billed cost over the evaluation span (spot plus on-demand
    /// fallback charges).
    pub cost: Price,
    /// The on-demand share of that cost (zero unless the policy is
    /// hybrid and repair escalated).
    pub on_demand_cost: Price,
    /// Measured quorum availability.
    pub availability: f64,
    /// Minutes spent below the decided group strength.
    pub degraded_minutes: u64,
    /// Instance deaths (out-of-bid kills or capacity reclamations).
    pub kills: usize,
    /// Successful pre-deadline drains (capacity era, Migrate only).
    pub drains: u64,
    /// Migrations whose replacement booted after the deadline.
    pub late_drains: u64,
    /// Mean decided group size (node count, not strength).
    pub mean_group_size: f64,
    /// Mean bidding interval in hours: the configured interval, or the
    /// realized mean under the adaptive schedule.
    pub mean_interval_hours: f64,
}

impl Row {
    /// The columns a replay result determines; the key's axes keep their
    /// defaults.
    fn from_result(result: &ReplayResult) -> Row {
        Row {
            strategy: result.strategy.clone(),
            cost: result.total_cost,
            on_demand_cost: result.on_demand_cost,
            availability: result.availability(),
            degraded_minutes: result.degraded_minutes,
            kills: result.total_kills(),
            drains: result.drains,
            late_drains: result.late_drains,
            mean_group_size: result.mean_group_size(),
            ..Row::default()
        }
    }
}

// ---------------------------------------------------------------- Fig. 1

/// A spot-price history sample: the series behind Fig. 1 (two hours of
/// `us-east-1a` `m1.small` prices).
pub fn fig1_series(seed: u64) -> Vec<(u64, Price)> {
    let gen = TraceGenerator::new(seed);
    let zone = spot_market::topology::all_zones()[0];
    let trace = gen.generate(zone, InstanceType::M1Small, 120);
    (0..120).map(|m| (m, trace.price_at(m))).collect()
}

// --------------------------------------------------------------- Table 1

/// Table 1 rows: region, location, availability-zone count.
pub fn table1() -> Vec<(&'static str, &'static str, usize)> {
    spot_market::topology::Region::ALL
        .into_iter()
        .map(|r| (r.api_name(), r.location(), r.az_count()))
        .collect()
}

// ---------------------------------------------------------------- Fig. 4

/// One bar of the Fig. 4 micro-benchmark.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// Availability zone.
    pub zone: Zone,
    /// Instance type.
    pub instance_type: InstanceType,
    /// The bid the model chose for ≤ 0.01 monthly out-of-bid probability.
    pub bid: Option<Price>,
    /// The estimated out-of-bid probability at that bid.
    pub estimated: f64,
    /// The measured out-of-bid fraction over the evaluation month.
    pub measured: f64,
}

/// Fig. 4: train the failure model on ~3 months of history, choose the
/// minimal bid with estimated monthly out-of-bid probability ≤ 0.01, then
/// measure the realized out-of-bid fraction over the held-out month.
pub fn fig4(scale: &Scale) -> Vec<Fig4Row> {
    const TARGET: f64 = 0.01;
    let month = 30 * 24 * 60;
    let gen = TraceGenerator::new(scale.seed);
    let mut jobs = Vec::new();
    for ty in [InstanceType::M1Small, InstanceType::M3Large] {
        for zone in spot_market::topology::experiment_zones()
            .into_iter()
            .take(5)
        {
            jobs.push((zone, ty));
        }
    }
    par_map(&jobs, host_workers(), |&(zone, ty)| {
        let total = scale.train_minutes() + month;
        let trace = gen.generate(zone, ty, total);
        let train = trace.window(0, scale.train_minutes());
        let model = FailureModel::from_trace(&train, FailureModelConfig::default());
        let spot = train.price_at(scale.train_minutes() - 1);
        let age = train.sojourn_age_at(scale.train_minutes() - 1) as u32;
        // Out-of-bid only (Fig. 4's y-axis excludes the FP⁰ floor).
        let forecast = model.forecast(spot, age, month as u32);
        let cap = ty.on_demand_price(zone.region);
        let (bid, estimated) = match &forecast {
            None => (None, 1.0),
            Some(f) => {
                let bid = std::iter::once(spot)
                    .chain(f.levels().iter().copied())
                    .filter(|&b| b >= spot && b < cap)
                    .find(|&b| f.out_of_bid_fraction(b) <= TARGET);
                let est = bid.map(|b| f.out_of_bid_fraction(b)).unwrap_or(1.0);
                (bid, est)
            }
        };
        let measured = match bid {
            None => 1.0,
            Some(b) => trace.fraction_above(b, scale.train_minutes(), total),
        };
        Fig4Row {
            zone,
            instance_type: ty,
            bid,
            estimated,
            measured,
        }
    })
}

// ---------------------------------------------------------------- Fig. 5

/// Fig. 5: a one-week run of the lock service and of the storage service
/// under Jupiter and Extra(0, 0.1), bidding hourly, each followed by its
/// on-demand baseline.
pub fn fig5(scale: &Scale) -> Vec<Cell> {
    // A single held-out week, whatever the scale's evaluation span.
    let week = Scale {
        eval_weeks: 1,
        ..scale.clone()
    };
    let bidders = [Bidder::Jupiter, Bidder::Extra(0, 0.1)];
    let mut cells = Vec::new();
    for service in [ServiceSpec::lock_service(), ServiceSpec::storage_service()] {
        cells.extend(grid(&service, &week, &[1], &bidders));
        cells.push(Cell::baseline(&service, &week));
    }
    cells
}

// ------------------------------------------------------- Figs. 6/7, 8/9

/// The baseline, then each interval under Extra(0, 0.2), Extra(2, 0.2)
/// and Jupiter: the figures' row order.
fn interval_sweep(service: ServiceSpec, scale: &Scale) -> Vec<Cell> {
    use Bidder::{Extra, Jupiter};
    let bidders = [Extra(0, 0.2), Extra(2, 0.2), Jupiter];
    let sweep = grid(&service, scale, &scale.intervals, &bidders);
    [vec![Cell::baseline(&service, scale)], sweep].concat()
}

/// Figs. 6 & 7: lock-service cost and availability across bidding
/// intervals and strategies over the evaluation span.
pub fn lock_sweep(scale: &Scale) -> Vec<Cell> {
    interval_sweep(ServiceSpec::lock_service(), scale)
}

/// Figs. 8 & 9: the same sweep for the erasure-coded storage service.
pub fn storage_sweep(scale: &Scale) -> Vec<Cell> {
    interval_sweep(ServiceSpec::storage_service(), scale)
}

/// One service's headline number: the best-interval Jupiter cost
/// reduction vs the on-demand baseline (the paper reports 81.23 % for the
/// lock service and 85.32 % for storage).
#[derive(Clone, Debug)]
pub struct Headline {
    /// Cost reduction in percent.
    pub reduction_pct: f64,
    /// The best interval.
    pub best_interval: u64,
    /// Whether the best interval actually held the baseline availability
    /// level (false = the reported number is the most-available fallback,
    /// not an SLA-matched saving).
    pub met_sla: bool,
}

/// Compute one service's headline saving from its sweep rows: the
/// cheapest Jupiter interval **among those that hold the baseline
/// availability level** (the paper's claim is cost reduction *at matched
/// availability*; an interval that dips below the target is disqualified
/// even if cheaper).
pub fn headline(rows: &[Row]) -> Headline {
    let baseline_row = rows
        .iter()
        .find(|r| r.strategy == "Baseline")
        .expect("baseline present");
    let baseline = baseline_row.cost.as_dollars();
    let target = baseline_row.availability;
    let qualifying = rows
        .iter()
        .filter(|r| r.strategy == "Jupiter" && r.availability >= target)
        .min_by(|a, b| a.cost.cmp(&b.cost));
    let met_sla = qualifying.is_some();
    // Fall back to the most-available interval when none qualifies —
    // flagged, so the caller never mistakes it for an SLA-matched saving.
    let best = qualifying.unwrap_or_else(|| {
        rows.iter()
            .filter(|r| r.strategy == "Jupiter")
            .max_by(|a, b| {
                a.availability
                    .partial_cmp(&b.availability)
                    .expect("finite availability")
            })
            .expect("jupiter rows present")
    });
    Headline {
        reduction_pct: 100.0 * (1.0 - best.cost.as_dollars() / baseline),
        best_interval: best.interval_hours,
        met_sla,
    }
}

// ----------------------------------------------------- Repair-policy sweep

/// The repair-controller experiment: the lock service's on-demand
/// baseline, then Jupiter and the kill-prone Extra(0, 0.2) heuristic at
/// each interval, replayed with repair off, spot-only reactive rebids,
/// and the hybrid on-demand fallback. Boundary decisions are frozen
/// across policies, so any availability difference is the repair
/// controller's doing.
pub fn repair_sweep(scale: &Scale) -> Vec<Cell> {
    // Three policies per (interval, bidder) triple the grid, so a scale
    // sweeping more than three intervals keeps {3, 6, 12} h: the
    // short-interval cells rarely see mid-interval kills anyway.
    let intervals = if scale.intervals.len() > 3 {
        vec![3, 6, 12]
    } else {
        scale.intervals.clone()
    };
    let lock = ServiceSpec::lock_service();
    let bidders = [Bidder::Jupiter, Bidder::Extra(0, 0.2)];
    let mut cells = vec![Cell::baseline(&lock, scale)];
    for cell in grid(&lock, scale, &intervals, &bidders) {
        for repair in [
            RepairPolicy::Off,
            RepairPolicy::Reactive,
            RepairPolicy::Hybrid,
        ] {
            cells.push(Cell {
                repair,
                ..cell.clone()
            });
        }
    }
    cells
}

// ------------------------------------------------------------- Era sweep

/// The capacity-era experiment: the erasure-coded storage service's
/// on-demand baseline, then the service (RS-Paxos θ(3,5) tolerates a
/// single failure, so repair latency shows up directly as
/// unavailability) under Jupiter and the feedback controller at a 3 h
/// interval, replayed under both interruption eras with reactive repair
/// racing proactive migration. Under the bidding era there are no
/// notices, so the Migrate rows replay exactly as Reactive — the
/// capacity-era delta between the two policies is the advance notice's
/// worth.
pub fn era_sweep(scale: &Scale) -> Vec<Cell> {
    let storage = ServiceSpec::storage_service();
    let mut cells = vec![Cell::baseline(&storage, scale)];
    for cell in grid(&storage, scale, &[3], &[Bidder::Jupiter, Bidder::Feedback]) {
        for repair in [RepairPolicy::Reactive, RepairPolicy::Migrate] {
            for era in [BidEra::Bidding, BidEra::CapacityReclaim] {
                cells.push(Cell {
                    repair,
                    era,
                    ..cell.clone()
                });
            }
        }
    }
    cells
}

// -------------------------------------------------------------- Ablations

/// Estimator-semantics ablation row: the paper's expectation-based
/// interval failure probability (Eq. 5) versus the absorbing (survival)
/// variant, at matched bids.
#[derive(Clone, Debug)]
pub struct EstimatorRow {
    /// Zone examined.
    pub zone: Zone,
    /// The bid both estimators price.
    pub bid: Price,
    /// Eq. 5 expectation estimate.
    pub expectation_fp: f64,
    /// Absorbing (kill-probability) estimate.
    pub absorbing_fp: f64,
    /// Realized: was the instance killed within the horizon?
    pub killed: bool,
    /// Realized out-of-bid time fraction.
    pub realized_fraction: f64,
}

/// Ablation: expectation vs absorbing failure estimates against realized
/// outcomes, sampled at weekly decision points across the evaluation
/// span.
pub fn ablation_estimator(scale: &Scale) -> Vec<EstimatorRow> {
    let ty = InstanceType::M1Small;
    let market = scale.market(ty);
    let train_end = scale.train_minutes();
    let horizon: u32 = 360;
    let mut rows = Vec::new();
    for &zone in market.zones().iter().take(6) {
        let trace = market.trace(zone, ty);
        let model =
            FailureModel::from_trace(&trace.window(0, train_end), FailureModelConfig::default());
        let mut start = train_end;
        while start + horizon as u64 <= scale.horizon_minutes() {
            let spot = trace.price_at(start);
            let age = trace.sojourn_age_at(start) as u32;
            // A mid-risk bid: two levels above spot when possible.
            let Some(f) = model.forecast(spot, age, horizon) else {
                start += 7 * 24 * 60;
                continue;
            };
            let bid = f
                .levels()
                .iter()
                .copied()
                .filter(|&b| b > spot)
                .nth(1)
                .unwrap_or(spot);
            let expectation_fp = model.fp_from_forecast(&f, bid, spot);
            let absorbing_fp = model.estimate_fp_absorbing(bid, spot, age, horizon);
            let end = start + horizon as u64;
            let killed = trace
                .first_minute_above(bid, start)
                .map(|k| k < end)
                .unwrap_or(false);
            let realized_fraction = trace.fraction_above(bid, start, end);
            rows.push(EstimatorRow {
                zone,
                bid,
                expectation_fp,
                absorbing_fp,
                killed,
                realized_fraction,
            });
            start += 7 * 24 * 60; // one sample per week per zone
        }
    }
    rows
}

/// Greedy-vs-exact ablation row.
#[derive(Clone, Debug)]
pub struct OptimalityRow {
    /// Sampled decision minute.
    pub minute: u64,
    /// Jupiter's cost upper bound.
    pub greedy_cost: Price,
    /// The exact optimum's cost upper bound.
    pub exact_cost: Price,
}

/// Ablation: Jupiter's greedy cost vs the exact NLP optimum on small
/// (7-zone) instances sampled weekly across the evaluation span.
pub fn ablation_greedy_vs_exact(scale: &Scale) -> Vec<OptimalityRow> {
    let ty = InstanceType::M1Small;
    let mut cfg = MarketConfig::paper(scale.seed, scale.horizon_minutes());
    // Seven zones: enough slack for the greedy to find 5-7 feasible
    // nodes, while the exact search space stays tractable with a thinned
    // per-zone bid grid.
    cfg.zones.truncate(7);
    cfg.types = vec![ty];
    let market = Market::generate(cfg);
    let train_end = scale.train_minutes();
    let spec = ServiceSpec::lock_service();

    let mut greedy_fw = jupiter::BiddingFramework::new(spec.clone(), JupiterStrategy::new());
    let mut exact_fw = jupiter::BiddingFramework::new(
        spec.clone(),
        jupiter::ExhaustiveSolver {
            max_zones: 8,
            max_levels_per_zone: 8,
        },
    );
    // Both solvers rank the same market, so they share one fit per zone
    // through a store rather than training twice.
    let store = jupiter::ModelStore::new();
    for &z in market.zones() {
        let key = jupiter::ModelKey {
            zone: z,
            instance_type: ty,
            trained_until: train_end,
        };
        let kernel = store.get_or_fit(key, || {
            spot_model::FrozenKernel::from_trace(&market.trace(z, ty).window(0, train_end))
        });
        greedy_fw.install_kernel(z, ty, std::sync::Arc::clone(&kernel));
        exact_fw.install_kernel(z, ty, kernel);
    }

    let mut rows = Vec::new();
    let mut minute = train_end;
    while minute < scale.horizon_minutes() {
        let snapshots = crate::lifecycle::snapshots_at(&market, &[ty], minute);
        let greedy = greedy_fw.decide(&snapshots, 360);
        let exact = exact_fw.decide(&snapshots, 360);
        if greedy.n() > 0 && exact.n() > 0 {
            rows.push(OptimalityRow {
                minute,
                greedy_cost: greedy.cost_upper_bound(),
                exact_cost: exact.cost_upper_bound(),
            });
        }
        minute += 7 * 24 * 60;
    }
    rows
}

/// Ablation: Jupiter under fixed 1 h / 6 h / 12 h intervals versus the
/// adaptive schedule that tracks the price-change rate (§5.5's proposed
/// extension).
pub fn ablation_adaptive(scale: &Scale) -> Vec<Cell> {
    let lock = ServiceSpec::lock_service();
    let fixed = grid(&lock, scale, &[1, 6, 12], &[Bidder::Jupiter]);
    let adaptive = Cell {
        interval_hours: None,
        ..fixed[0].clone()
    };
    [fixed, vec![adaptive]].concat()
}

/// Estimator-variant replay: the paper's expectation-based Jupiter versus
/// the absorbing-estimator variant, on the lock service at the best fixed
/// interval (6 h).
pub fn ablation_estimator_replay(scale: &Scale) -> Vec<Cell> {
    let bidders = [Bidder::Jupiter, Bidder::JupiterAbsorbing];
    grid(&ServiceSpec::lock_service(), scale, &[6], &bidders)
}

/// Weighted-voting vs simple-majority availability at heterogeneous
/// failure probabilities (the §4.1 design-choice ablation — pure
/// analysis, no replay).
#[derive(Clone, Debug)]
pub struct VotingRow {
    /// The per-node failure probabilities examined.
    pub profile: Vec<f64>,
    /// Simple-majority availability.
    pub majority: f64,
    /// Eq. 11 weighted-voting availability (quantized votes).
    pub weighted: f64,
}

/// The §4.1 ablation across representative failure-probability profiles.
pub fn ablation_weighted_voting() -> Vec<VotingRow> {
    use quorum::{optimal_system, MajorityQuorum, QuorumSystem};
    let profiles: Vec<Vec<f64>> = vec![
        vec![0.01; 5],                         // equal, the Jupiter target
        vec![0.01, 0.012, 0.009, 0.011, 0.01], // near-equal (realistic)
        vec![0.01, 0.1, 0.1, 0.1, 0.1],        // the paper's §4.1 example
        vec![0.001, 0.3, 0.3, 0.3, 0.3],       // monarchy regime
        vec![0.05, 0.1, 0.15, 0.2, 0.25],      // spread
    ];
    profiles
        .into_iter()
        .map(|p| {
            let majority = MajorityQuorum::new(p.len()).availability(&p);
            let weighted = optimal_system(&p).availability(&p);
            VotingRow {
                profile: p,
                majority,
                weighted,
            }
        })
        .collect()
}

/// Fixed-once ablation: Andrzejak-style pre-computed bids held for the
/// whole deployment versus online re-bidding (the paper's §6 critique),
/// on the lock service at 6 h.
pub fn ablation_fixed_once(scale: &Scale) -> Vec<Cell> {
    let bidders = [Bidder::Jupiter, Bidder::FixedOnce];
    grid(&ServiceSpec::lock_service(), scale, &[6], &bidders)
}

/// The walk-forward backtest both calibration drivers run: 6 h horizon,
/// expectation scoring, default model.
fn walk_forward(trace: &PriceTrace, train: u64, step: u64, rule: BidRule) -> CalibrationReport {
    backtest(
        trace,
        train,
        360,
        step,
        rule,
        false,
        FailureModelConfig::default(),
    )
}

/// The model-chosen bid at Jupiter's per-node target, capped at `zone`'s
/// on-demand price.
fn target_fp(zone: Zone, ty: InstanceType) -> BidRule {
    BidRule::TargetFp {
        target: 0.0103,
        cap: ty.on_demand_price(zone.region),
    }
}

/// The `calibration` target: walk-forward backtests per zone (12 h
/// stride) under a naive spot-multiple bid and the model-chosen bid, as
/// `(zone, bid rule, report)`.
pub fn calibration(scale: &Scale) -> Vec<(Zone, &'static str, CalibrationReport)> {
    let ty = InstanceType::M1Small;
    let gen = TraceGenerator::new(scale.seed);
    let mut rows = Vec::new();
    for zone in spot_market::topology::experiment_zones()
        .into_iter()
        .take(6)
    {
        let trace = gen.generate(zone, ty, scale.horizon_minutes());
        for (label, rule) in [
            ("spot x 1.2", BidRule::SpotMultiple(1.2)),
            ("target 0.0103", target_fp(zone, ty)),
        ] {
            let report = walk_forward(&trace, scale.train_minutes(), 12 * 60, rule);
            rows.push((zone, label, report));
        }
    }
    rows
}

/// Model-mismatch ablation row: the semi-Markov failure model backtested
/// on its own process versus the banded AR(1) process of Ben-Yehuda et
/// al. (which violates the discrete-ladder assumption).
#[derive(Clone, Debug)]
pub struct MismatchRow {
    /// Which process generated the market ("semi-markov" / "ar1").
    pub process: String,
    /// Walk-forward calibration of the model on that process.
    pub mean_predicted: f64,
    /// Realized mean out-of-bid fraction at the model-chosen bids.
    pub mean_realized: f64,
    /// Mean absolute calibration error.
    pub mean_abs_error: f64,
    /// Realized kill rate at those bids.
    pub kill_rate: f64,
}

/// Ablation: train and backtest the paper's failure model on traces from
/// its assumed process and from a structurally different one.
pub fn ablation_model_mismatch(scale: &Scale) -> Vec<MismatchRow> {
    use spot_market::ArTraceGenerator;

    let ty = InstanceType::M1Small;
    let zones: Vec<Zone> = spot_market::topology::experiment_zones()
        .into_iter()
        .take(4)
        .collect();
    let total = scale.horizon_minutes();
    let train = scale.train_minutes();

    let run = |name: &str, traces: Vec<PriceTrace>| -> MismatchRow {
        let reports: Vec<CalibrationReport> = traces
            .iter()
            .zip(&zones)
            .map(|(trace, &zone)| walk_forward(trace, train, 24 * 60, target_fp(zone, ty)))
            .collect();
        let n: f64 = reports
            .iter()
            .map(|r| r.samples as f64)
            .sum::<f64>()
            .max(1.0);
        let weighted = |f: &dyn Fn(&CalibrationReport) -> f64| -> f64 {
            reports.iter().map(|r| f(r) * r.samples as f64).sum::<f64>() / n
        };
        MismatchRow {
            process: name.into(),
            mean_predicted: weighted(&|r| r.mean_predicted),
            mean_realized: weighted(&|r| r.mean_realized),
            mean_abs_error: weighted(&|r| r.mean_abs_error),
            kill_rate: weighted(&|r| r.kill_rate),
        }
    };

    let sm_gen = TraceGenerator::new(scale.seed);
    let ar_gen = ArTraceGenerator::new(scale.seed);
    let sm_traces: Vec<PriceTrace> = zones
        .iter()
        .map(|&z| sm_gen.generate(z, ty, total))
        .collect();
    // The AR process quotes near-continuously; re-quote it on a $0.001
    // grid so the semi-Markov state space stays bounded (a market quoting
    // on a coarse grid, not a model concession — forecast cost is
    // quadratic in distinct prices).
    let quantum = Price::from_micros(1_000);
    let ar_traces: Vec<PriceTrace> = zones
        .iter()
        .map(|&z| ar_gen.generate(z, ty, total).quantized(quantum))
        .collect();
    vec![run("semi-markov", sm_traces), run("ar1-banded", ar_traces)]
}

// ------------------------------------------ Heterogeneous-pool race

/// The tentpole experiment: the mixed-pool lock service's on-demand
/// baseline, then Jupiter, the Li et al.-style feedback controller, and
/// the kill-prone Extra heuristic racing at a 6 h interval over
/// single-type pools and the mixed pool on one heterogeneous market, all
/// holding the same capacity-weighted strength floor. The mix should
/// match the best single type's availability at strictly lower cost —
/// the optimizer is free to buy strength wherever it is cheapest per
/// dollar.
pub fn hetero_sweep(scale: &Scale) -> Vec<Cell> {
    use InstanceType::{M1Small, M3Large};
    let mixed = ServiceSpec::lock_service()
        .with_pools(&[M1Small, M3Large])
        .with_min_strength(8);
    let mut cells = vec![Cell::baseline(&mixed, scale)];
    for bidder in [Bidder::Jupiter, Bidder::Feedback, Bidder::Extra(2, 0.2)] {
        for pools in [vec![M1Small], vec![M3Large], vec![M1Small, M3Large]] {
            let column = mixed.clone().with_pools(&pools);
            cells.extend(grid(&column, scale, &[6], &[bidder]));
        }
    }
    cells
}

// --------------------------------------------- Auto-scaler experiment

/// The auto-scaler experiment's outcome: the load-tracked replay against
/// the peak-provisioned static fleet on the same market.
#[derive(Clone, Debug)]
pub struct AutoscaleReport {
    /// The auto-scaled replay (mixed pool, diurnal demand), with series
    /// and audit log attached — `pool.fleet.*` and the `scale_decision`
    /// records live here.
    pub result: ReplayResult,
    /// The same strategy holding the peak strength target statically.
    pub static_result: ReplayResult,
    /// Applied scale-outs.
    pub scale_outs: u64,
    /// Applied scale-ins.
    pub scale_ins: u64,
    /// The peak strength target the static fleet was provisioned for.
    pub peak_strength: u32,
    /// The on-demand baseline cost for the mixed-pool service.
    pub baseline_cost: Price,
}

impl AutoscaleReport {
    /// The two fleets as table rows, auto-scaled first.
    pub fn rows(&self) -> Vec<Row> {
        let row = |fleet: String, result| Row {
            strategy: fleet,
            ..Row::from_result(result)
        };
        vec![
            row("auto-scaled".into(), &self.result),
            row(
                format!("static peak (strength {})", self.peak_strength),
                &self.static_result,
            ),
        ]
    }
}

/// The deterministic diurnal arrival rate driving the auto-scaler
/// experiment: period one day, trough 40 req/s, peak 160 req/s.
pub fn diurnal_rate(t_secs: f64) -> f64 {
    let phase = (t_secs % 86_400.0) / 86_400.0 * std::f64::consts::TAU;
    100.0 - 60.0 * phase.cos()
}

/// Requests/s one unit of capacity-weighted strength serves in the
/// auto-scaler experiment (so the diurnal rate maps to 3.2–12.8 strength
/// units of demand).
pub const PER_STRENGTH_THROUGHPUT: f64 = 12.5;

/// The auto-scaler experiment: replay the mixed-pool lock service under
/// Jupiter with the [`crate::AutoScaler`] re-targeting fleet strength at
/// every 3 h boundary from the diurnal demand forecast, then replay the
/// same market with the fleet statically provisioned for peak demand.
/// The controller must hold the availability floor while billing less
/// than peak provisioning.
pub fn autoscale_report(scale: &Scale) -> AutoscaleReport {
    use crate::autoscale::{demand_series, AutoScaler, AutoscaleConfig, HEADROOM};
    use crate::lifecycle::{on_demand_baseline_cost, ReplayConfig};

    let market = scale.hetero_market();
    let eval_start = scale.train_minutes();
    let eval_end = scale.horizon_minutes();
    let spec =
        ServiceSpec::lock_service().with_pools(&[InstanceType::M1Small, InstanceType::M3Large]);

    let demand = demand_series(
        diurnal_rate,
        eval_start,
        eval_end,
        60,
        PER_STRENGTH_THROUGHPUT,
    );
    let asc = AutoscaleConfig {
        min_strength: 4,
        max_strength: 24,
    };
    let peak_demand = demand.iter().map(|&(_, d)| d).fold(0.0, f64::max);
    let peak_strength = ((peak_demand * (1.0 + HEADROOM)).ceil() as u32)
        .clamp(asc.min_strength, asc.max_strength);
    let mut scaler = AutoScaler::new(asc, demand);

    let store = jupiter::ModelStore::new();
    let config = ReplayConfig::new(eval_start, eval_end, 3);
    let obs = obs::Obs::simulated().0;
    let result = Replay::new(&market, &spec, config)
        .store(&store)
        .autoscaler(&mut scaler)
        .obs(&obs)
        .run(JupiterStrategy::new());
    let (scale_outs, scale_ins) = scaler.scale_events();

    let static_spec = spec.clone().with_min_strength(peak_strength);
    let static_result = Replay::new(&market, &static_spec, config)
        .store(&store)
        .run(JupiterStrategy::new());
    let baseline_cost = on_demand_baseline_cost(&market, &spec, config);
    AutoscaleReport {
        result,
        static_result,
        scale_outs,
        scale_ins,
        peak_strength,
        baseline_cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_requires_matched_availability() {
        let row = |strategy: &str, h: u64, cost: f64, avail: f64| Row {
            interval_hours: h,
            strategy: strategy.into(),
            cost: Price::from_dollars(cost),
            availability: avail,
            ..Row::default()
        };
        let sweep = vec![
            row("Baseline", 0, 100.0, 0.9999),
            row("Jupiter", 6, 30.0, 0.99995), // qualifies
            row("Jupiter", 12, 20.0, 0.99),   // cheapest but disqualified
        ];
        let h = headline(&sweep);
        assert_eq!(h.best_interval, 6);
        assert!((h.reduction_pct - 70.0).abs() < 1e-9);
        assert!(h.met_sla);

        // When nothing qualifies, fall back to the most available row —
        // and say so instead of silently reporting the fallback as a
        // matched-availability saving.
        let sweep = vec![
            row("Baseline", 0, 100.0, 0.9999),
            row("Jupiter", 6, 30.0, 0.995),
            row("Jupiter", 12, 20.0, 0.99),
        ];
        let h = headline(&sweep);
        assert_eq!(h.best_interval, 6);
        assert!(!h.met_sla);
    }

    /// The keys `repro all` declares: Figs. 5–9 (the headline reads the
    /// rows of 6–9), the repair sweep and Ablations C, D and G.
    fn all(scale: &Scale) -> Vec<Cell> {
        [
            fig5,
            lock_sweep,
            storage_sweep,
            repair_sweep,
            ablation_estimator_replay,
            ablation_adaptive,
            ablation_fixed_once,
        ]
        .map(|declare| declare(scale))
        .concat()
    }

    #[test]
    fn the_plan_replays_each_distinct_cell_of_all_once() {
        // Keys only, nothing replays. Each row: the scale, then replayed
        // keys declared and distinct, then distinct baselines.
        for (scale, declared, replayed, baselines) in [
            (Scale::quick(2014), 24, 18, 2),
            (Scale::paper(2014), 60, 49, 4),
        ] {
            let cells = all(&scale);
            let distinct = distinct(&cells);
            let replays = cells.iter().filter(|c| c.bidder.is_some()).count();
            assert_eq!(replays, declared, "{scale:?}");
            let replays = distinct.iter().filter(|c| c.bidder.is_some()).count();
            assert_eq!(replays, replayed, "{scale:?}");
            assert_eq!(distinct.len() - replayed, baselines, "{scale:?}");
        }
        // The quick scale's one evaluation week is Fig. 5's week, so Fig.
        // 5's lock Jupiter @ 1 h is also Ablation D's fixed 1 h; at paper
        // scale the windows differ.
        let quick = Scale::quick(2014);
        assert_eq!(fig5(&quick)[0], ablation_adaptive(&quick)[0]);
        let paper = Scale::paper(2014);
        assert_ne!(fig5(&paper)[0], ablation_adaptive(&paper)[0]);
    }

    /// What the plan returns for the keys `declare` lists at quick scale.
    fn replayed(declare: fn(&Scale) -> Vec<Cell>) -> Vec<Row> {
        let [rows] = replay(&Scale::quick(7), [declare]);
        rows
    }

    #[test]
    fn fixed_once_ablation_runs() {
        let rows = replayed(ablation_fixed_once);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r.strategy.contains("fixed-once")));
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.availability));
            assert!(r.cost > Price::ZERO);
        }
    }

    #[test]
    fn repair_sweep_is_monotone_and_bounded() {
        let rows = replayed(repair_sweep);
        let (baseline, rows) = rows.split_first().expect("the baseline leads");
        assert_eq!(baseline.strategy, "Baseline");
        // 1 interval × 2 strategies × 3 policies.
        assert_eq!(rows.len(), 6);
        assert!(baseline.cost > Price::ZERO);
        for chunk in rows.chunks(3) {
            let [off, reactive, hybrid] = chunk else {
                panic!("three policies per (interval, strategy)");
            };
            assert_eq!(off.policy, RepairPolicy::Off);
            assert_eq!(reactive.policy, RepairPolicy::Reactive);
            assert_eq!(hybrid.policy, RepairPolicy::Hybrid);
            // Frozen boundary decisions: repair only ever adds uptime.
            assert!(reactive.availability >= off.availability - 1e-12);
            assert!(hybrid.availability >= reactive.availability - 1e-12);
            assert!(hybrid.degraded_minutes <= off.degraded_minutes);
            // Spot-only repair never bills on-demand.
            assert_eq!(off.on_demand_cost, Price::ZERO);
            assert_eq!(reactive.on_demand_cost, Price::ZERO);
            // Bounded extra cost: repair stays below holding the fleet
            // on-demand outright.
            assert!(hybrid.cost < baseline.cost, "{hybrid:?}");
        }
    }

    #[test]
    fn era_sweep_migration_beats_reactive_under_capacity() {
        let rows = replayed(era_sweep);
        let (baseline, rows) = rows.split_first().expect("the baseline leads");
        // 2 strategies × 2 policies × 2 eras at one interval.
        assert_eq!(rows.len(), 8);
        assert!(baseline.cost > Price::ZERO);
        for r in rows {
            assert!((0.0..=1.0).contains(&r.availability), "{r:?}");
            assert!(r.cost > Price::ZERO, "{r:?}");
            assert!(r.cost < baseline.cost, "{r:?}");
        }
        let find = |strategy: &str, policy: RepairPolicy, era: BidEra| {
            rows.iter()
                .find(|r| r.strategy == strategy && r.policy == policy && r.era == era)
                .expect("cell present")
        };
        let mut total_drains = 0;
        for strategy in ["Jupiter", "Feedback"] {
            // Bidding era: no notices, so Migrate replays exactly as
            // Reactive — the policy is strictly additive.
            let rb = find(strategy, RepairPolicy::Reactive, BidEra::Bidding);
            let mb = find(strategy, RepairPolicy::Migrate, BidEra::Bidding);
            assert_eq!(rb.cost, mb.cost, "{strategy}: bidding-era cost drifted");
            assert_eq!(rb.degraded_minutes, mb.degraded_minutes);
            assert_eq!(rb.kills, mb.kills);
            assert_eq!(mb.drains, 0, "no drains without notices");
            // Capacity era: acting on the advance notice must never be
            // worse than waiting for the kill, and drains must land.
            let rc = find(strategy, RepairPolicy::Reactive, BidEra::CapacityReclaim);
            let mc = find(strategy, RepairPolicy::Migrate, BidEra::CapacityReclaim);
            assert!(rc.kills > 0, "{strategy}: capacity era must reclaim");
            assert!(
                mc.availability >= rc.availability - 1e-12,
                "{strategy}: migrate {} < reactive {}",
                mc.availability,
                rc.availability
            );
            assert!(
                mc.degraded_minutes <= rc.degraded_minutes,
                "{strategy}: migrate degraded {} > reactive {}",
                mc.degraded_minutes,
                rc.degraded_minutes
            );
            total_drains += mc.drains;
        }
        assert!(total_drains >= 1, "at least one pre-deadline drain");
    }

    #[test]
    fn model_mismatch_rows_are_sane() {
        let rows = ablation_model_mismatch(&Scale::quick(7));
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!((0.0..=1.0).contains(&r.mean_realized), "{r:?}");
            assert!((0.0..=1.0).contains(&r.kill_rate), "{r:?}");
        }
    }

    #[test]
    fn fig1_series_is_plausible() {
        let s = fig1_series(42);
        assert_eq!(s.len(), 120);
        // A step function: consecutive equal runs with occasional changes.
        let changes = s.windows(2).filter(|w| w[0].1 != w[1].1).count();
        assert!(changes >= 1, "prices should move within two hours");
        for (_, p) in &s {
            assert!(*p > Price::ZERO);
        }
    }

    #[test]
    fn table1_matches_the_paper() {
        let t = table1();
        assert_eq!(t.len(), 9);
        assert_eq!(t[0], ("us-east-1", "Virginia", 4));
        assert_eq!(t[8], ("sa-east-1", "Sao Paulo", 2));
        let total: usize = t.iter().map(|r| r.2).sum();
        assert_eq!(total, 24);
    }

    #[test]
    fn fig4_quick_scale() {
        let rows = fig4(&Scale::quick(7));
        assert_eq!(rows.len(), 10); // 5 zones × 2 types
        let feasible = rows.iter().filter(|r| r.bid.is_some()).count();
        assert!(feasible >= 7, "most zones must find a bid: {feasible}");
        for r in rows.iter().filter(|r| r.bid.is_some()) {
            assert!(r.estimated <= 0.01 + 1e-9);
            // Measured stays the same order of magnitude as the target in
            // most zones; exact agreement is not expected (the paper's
            // Fig. 4 also shows two exceedances).
            assert!(
                r.measured <= 0.2,
                "{}: measured {}",
                r.zone.name(),
                r.measured
            );
        }
    }

    #[test]
    fn weighted_voting_ablation_shapes() {
        let rows = ablation_weighted_voting();
        assert_eq!(rows.len(), 5);
        // Equal profile: identical availability.
        assert!((rows[0].majority - rows[0].weighted).abs() < 1e-12);
        // Monarchy regime: weighted strictly wins.
        assert!(rows[3].weighted > rows[3].majority);
    }

    #[test]
    fn hetero_sweep_races_strategies_over_pool_columns() {
        let rows = replayed(hetero_sweep);
        let (baseline, rows) = rows.split_first().expect("the baseline leads");
        // 3 strategies × 3 pool columns at one interval.
        assert_eq!(rows.len(), 9);
        let strategies: std::collections::BTreeSet<&str> =
            rows.iter().map(|r| r.strategy.as_str()).collect();
        assert!(strategies.contains("Jupiter"));
        assert!(strategies.contains("Feedback"));
        assert_eq!(strategies.len(), 3);
        let labels: std::collections::BTreeSet<&str> =
            rows.iter().map(|r| r.pool_label.as_str()).collect();
        assert_eq!(
            labels,
            ["m1.small", "m3.large", "m1.small+m3.large"]
                .into_iter()
                .collect()
        );
        for r in rows {
            assert!((0.0..=1.0).contains(&r.availability), "{r:?}");
            assert!(r.cost > Price::ZERO, "{r:?}");
            assert!(r.cost < baseline.cost, "{r:?} vs {:?}", baseline.cost);
        }
    }

    #[test]
    fn autoscale_report_tracks_load_and_undercuts_peak_provisioning() {
        let r = autoscale_report(&Scale::quick(7));
        assert!(r.scale_outs >= 1, "diurnal peak must scale out");
        assert!(
            r.result
                .audit
                .iter()
                .any(|rec| rec.kind.label() == "scale_decision"),
            "scale decisions must be audited"
        );
        assert!(
            r.result.series_named("pool.fleet.m1.small").is_some()
                || r.result.series_named("pool.fleet.m3.large").is_some(),
            "per-type fleet series must be recorded"
        );
        assert!((0.0..=1.0).contains(&r.result.availability()));
        // Tracking the trough must bill less than holding peak strength.
        assert!(
            r.result.total_cost < r.static_result.total_cost,
            "autoscale {:?} !< static {:?}",
            r.result.total_cost,
            r.static_result.total_cost
        );
        assert!(r.static_result.total_cost < r.baseline_cost);
    }

    #[test]
    fn estimator_ablation_orders_correctly() {
        let rows = ablation_estimator(&Scale::quick(7));
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(
                r.absorbing_fp >= r.expectation_fp - 1e-9,
                "{}: absorbing {} < expectation {}",
                r.zone.name(),
                r.absorbing_fp,
                r.expectation_fp
            );
        }
    }
}
