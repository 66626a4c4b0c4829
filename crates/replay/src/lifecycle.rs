//! The market-level replay loop: bid, launch, die, bill, account.
//!
//! [`Replay`] is the one entry point. Behind it, `Run::interval` spells
//! out the paper's per-interval loop (§4, Fig. 3) one phase per method:
//! `decide` → `retire_and_launch` → `audit_decision` → `resolve_deaths` →
//! `migrate` → `repair` → `account` → `bill` (DESIGN.md "Replay loop").
#![deny(clippy::too_many_lines)]

use std::borrow::Cow;
use std::time::{Duration, Instant};

use jupiter::framework::MarketSnapshot;
use jupiter::{
    BidDecision, BiddingFramework, BiddingStrategy, Boundary, Decided, ModelKey, ModelStore,
    PoolBid, ServiceSpec,
};
use obs::{
    AuditKind, Counter, FieldValue, FleetDeficitWatchdog, Obs, RepairBudgetWatchdog,
    SloSpec, SloTracker, TimeSeries,
};
use spot_market::{BidEra, InstanceType, Market, Price, Termination, Zone};
use spot_model::FrozenKernel;

use crate::adaptive::adaptive_interval;
use crate::autoscale::{AutoScaler, ObservedInterval};
use crate::repair::{
    RepairConfig, RepairPolicy, BACKOFF_BASE_MINUTES, BACKOFF_CAP_MINUTES, DETECTION_DELAY_MINUTES,
    MAX_REBIDS_PER_INTERVAL,
};
use crate::results::{IntervalOutcome, ReplayResult};

pub use crate::results::InstanceRecord;

/// Decisions are made this many minutes before each boundary so that
/// replacements finish booting by the boundary (§4: new instances are
/// launched before the interval starts).
pub const DECISION_LEAD: u64 = 15;

/// Replay parameters.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// Evaluation window start minute within the market horizon; the
    /// prefix `[0, eval_start)` trains the failure models.
    pub eval_start: u64,
    /// Evaluation window end minute (exclusive).
    pub eval_end: u64,
    /// Bidding interval in hours (the paper sweeps 1, 3, 6, 9, 12);
    /// `None` is the §5.5 adaptive schedule, which sizes each interval
    /// by `adaptive_interval` from the revealed price-change rate and
    /// suffixes the strategy name with `" [adaptive]"`.
    pub interval_hours: Option<u64>,
    /// Which interruption regime resolves instance deaths. Under the
    /// default [`BidEra::Bidding`] the replay is byte-identical to the
    /// pre-era harness (kills at the first out-of-bid minute); under
    /// [`BidEra::CapacityReclaim`] bids become capped-price declarations
    /// and kills follow each pool's hidden capacity process, announced
    /// `lead` minutes ahead by an [`spot_market::InterruptionNotice`].
    pub era: BidEra,
}

impl ReplayConfig {
    /// A bidding-era config: train on everything before `eval_start`,
    /// re-bid every `interval_hours` (a number of hours, or `None` for
    /// the adaptive schedule).
    pub fn new(eval_start: u64, eval_end: u64, interval_hours: impl Into<Option<u64>>) -> Self {
        let interval_hours = interval_hours.into();
        assert!(eval_start < eval_end, "empty evaluation window");
        assert_ne!(interval_hours, Some(0), "interval must be at least an hour");
        ReplayConfig {
            eval_start,
            eval_end,
            interval_hours,
            era: BidEra::Bidding,
        }
    }

    /// Select the interruption era (builder style); see
    /// [`ReplayConfig::era`].
    pub fn with_era(mut self, era: BidEra) -> Self {
        self.era = era;
        self
    }

    /// The minute of the first bidding decision — also the exclusive end
    /// of the training prefix the replay may reveal to the models. It
    /// depends only on the evaluation window, never on the strategy or
    /// interval, which is what lets every sweep cell share one
    /// [`jupiter::ModelStore`] entry per (zone, type).
    pub(crate) fn first_decision(&self) -> u64 {
        self.eval_start.saturating_sub(DECISION_LEAD).max(1)
    }
}

/// One replay of a strategy over a market window: the paper's online
/// loop (§4, Fig. 3) with the failure models trained on `[0, eval_start)`
/// and refined with each interval's revealed prices (Fig. 2).
///
/// `Replay::new(..).run(strategy)` is the paper's plain replay: repair
/// off, a private single-use [`ModelStore`], no auto-scaler,
/// observability disabled. Each chained input switches one of those:
///
/// ```text
/// Replay::new(&market, &spec, config)
///     .repair(RepairConfig::hybrid())
///     .store(&store)
///     .obs(&obs)
///     .run(JupiterStrategy::new())
/// ```
pub struct Replay<'a> {
    market: &'a Market,
    spec: &'a ServiceSpec,
    config: ReplayConfig,
    repair: RepairConfig,
    store: Option<&'a ModelStore>,
    scaler: Option<&'a mut AutoScaler>,
    obs: Obs,
}

impl<'a> Replay<'a> {
    /// A plain replay of `spec` over `config`'s window of `market`.
    pub fn new(market: &'a Market, spec: &'a ServiceSpec, config: ReplayConfig) -> Self {
        Replay {
            market,
            spec,
            config,
            repair: RepairConfig::off(),
            store: None,
            scaler: None,
            obs: Obs::disabled(),
        }
    }

    /// React to kills between boundaries (see [`crate::repair`]): rebid
    /// the missing slots against the boundary-frozen models, escalate to
    /// on-demand under [`RepairPolicy::Hybrid`], and act on interruption
    /// notices ahead of the kill under [`RepairPolicy::Migrate`].
    pub fn repair(mut self, repair: RepairConfig) -> Self {
        self.repair = repair;
        self
    }

    /// Serve the training fit from a shared `store`: the kernel for each
    /// (zone, type, training prefix) is fitted at most once store-wide, so
    /// replays of one market window pay for training once. Online
    /// refinement forks the shared kernels copy-on-write.
    pub fn store(mut self, store: &'a ModelStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Put the load-driven auto-scaler in the loop: before every boundary
    /// decision `scaler` re-targets the fleet's capacity-weighted strength
    /// from its demand forecast and the previous interval's availability,
    /// and the target becomes the spec's strength floor
    /// ([`BiddingFramework::set_min_strength`]).
    pub fn autoscaler(mut self, scaler: &'a mut AutoScaler) -> Self {
        self.scaler = Some(scaler);
        self
    }

    /// Record into `obs`: `replay.*` / `repair.*` / `notice.*` /
    /// `migrate.*` counters, per-interval series, a `replay.interval`
    /// trace span per interval (replay-minute sim time), the decision
    /// audit log and the SLO / watchdog alerts. The caller reads them
    /// from `obs`; the returned [`ReplayResult`] holds the accounting.
    pub fn obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self
    }

    /// Replay `strategy` and return its accounting: the decision pass,
    /// then the books.
    pub fn run<S: BiddingStrategy>(self, strategy: S) -> ReplayResult {
        replay_repairs([(self, strategy)]).remove(0).0
    }

    /// The run's framework: `strategy` over one kernel per (zone, pool)
    /// from the shared store, or from a private single-use one, each
    /// pool's model following the minutes `boundaries` reveal. Under the
    /// capacity era, interruptions are zone-correlated (whole-zone
    /// capacity crunches reclaim several pools at once), so the deployed
    /// spec spreads replicas across zones with independent capacity
    /// processes.
    pub(crate) fn framework<S: BiddingStrategy>(
        &self,
        strategy: S,
        boundaries: &[Boundary],
    ) -> BiddingFramework<S> {
        let private_store;
        let store = match self.store {
            Some(shared) => shared,
            None => {
                private_store = ModelStore::with_obs(self.obs.clone());
                &private_store
            }
        };
        let diversify = self.spec.diversify || self.config.era == BidEra::CapacityReclaim;
        let spec = self.spec.clone().with_diversify(diversify);
        let first_decision = self.config.first_decision();
        let mut framework = trained_framework(self.market, spec, strategy, store, first_decision);
        framework.follow(|z, ty| self.market.trace(z, ty), boundaries);
        framework
    }

    /// Every boundary of the window, in order, over the spec's pools:
    /// the interval's start and scheduled length (fixed, or the §5.5
    /// adaptive one from the revealed prices; at least 60 minutes either
    /// way), the minutes revealed since the last boundary's decision, and
    /// the market at this one's. The adaptive schedule reads the caller's
    /// spec, not the diversified clone.
    pub(crate) fn boundaries(&self) -> Vec<Boundary> {
        let (market, config) = (self.market, self.config);
        assert!(config.eval_end <= market.horizon(), "window beyond market");
        let pools = self.spec.pools();
        let mut boundaries = Vec::new();
        let mut observed_until = config.first_decision();
        let mut start = config.eval_start;
        while start < config.eval_end {
            let length = match config.interval_hours {
                Some(hours) => hours * 60,
                None => adaptive_interval(market, self.spec, start),
            };
            let length = length.max(60);
            let decision_at = start.saturating_sub(DECISION_LEAD);
            let from = observed_until;
            observed_until = observed_until.max(decision_at);
            boundaries.push(Boundary {
                minute: start,
                revealed: from..observed_until,
                snapshots: snapshots_at(market, &pools, decision_at),
                horizon_minutes: length as u32,
            });
            start = (start + length).min(config.eval_end);
        }
        boundaries
    }

    /// The books: launch, kill, migrate, repair, account and bill every
    /// interval, taking each boundary's decision from `decided` (rebids
    /// still decide live, against the boundary-frozen models), or making
    /// it in the loop when there is none. The framework's models follow
    /// `boundaries`, a cursor per pool.
    pub(crate) fn books<S: BiddingStrategy>(
        self,
        framework: BiddingFramework<S>,
        boundaries: &[Boundary],
        decided: Option<&[Decided]>,
    ) -> ReplayResult {
        let (market, config, obs) = (self.market, self.config, &self.obs);
        let primary_ty = framework.spec().instance_type;
        let od_zone = cheapest_on_demand_zone(market, primary_ty);
        let mut run = Run {
            market,
            config,
            repair_cfg: self.repair,
            obs,
            ins: Instruments::new(obs),
            pools: framework.spec().pools(),
            hetero: framework.spec().is_hetero(),
            primary_ty,
            od_zone,
            od_hourly: primary_ty.on_demand_price(od_zone.region),
            framework,
            scaler: self.scaler,
            feedback: None,
            fleet: Vec::new(),
            snapshots: Vec::new(),
            refs: Vec::new(),
            kills: 0,
            records: Vec::new(),
            intervals: Vec::new(),
            up_minutes: 0,
            degraded_minutes: 0,
            drains: 0,
            late_drains: 0,
            on_demand_cost: Price::ZERO,
            slo: SloTracker::new(
                SloSpec::paper_availability(config.eval_end - config.eval_start),
                obs.alerts.clone(),
            ),
            fleet_dog: FleetDeficitWatchdog::new(obs.alerts.clone()),
            budget_dog: RepairBudgetWatchdog::new(obs.alerts.clone()),
        };
        for (k, boundary) in boundaries.iter().enumerate() {
            run.framework.show(k + 1);
            run.interval(boundary, decided.map(|d| &d[k]));
        }
        let mut result = run.finish();
        if config.interval_hours.is_none() {
            result.strategy.push_str(" [adaptive]");
        }
        result
    }
}

/// Replays that differ only in repair policy, each with its own strategy,
/// over one boundary schedule and one decision pass: the first replay
/// makes both, and every replay's books borrow them. The pass is every
/// boundary's decision, made from the market and the models alone before
/// the books run (DESIGN.md "Replay loop"); `None` when the loop decides
/// instead: the strategy has no pass (Jupiter has one), or an auto-scaler
/// retargets from the last interval's availability. Neither depends on
/// the repair policy. Each result comes with its replay's wall time, the
/// schedule and pass counted in the first's.
pub(crate) fn replay_repairs<'a, S: BiddingStrategy>(
    replays: impl IntoIterator<Item = (Replay<'a>, S)>,
) -> Vec<(ReplayResult, Duration)> {
    let (mut boundaries, mut pass) = (None, None);
    (replays.into_iter())
        .map(|(replay, strategy)| {
            let start = Instant::now();
            let boundaries = boundaries.get_or_insert_with(|| replay.boundaries());
            let framework = replay.framework(strategy, boundaries);
            let decided = pass.get_or_insert_with(|| {
                (replay.scaler.is_none()).then(|| framework.decide_schedule(boundaries))?
            });
            let result = replay.books(framework, boundaries, decided.as_deref());
            (result, start.elapsed())
        })
        .collect()
}

/// A framework for `spec` with one kernel per (zone, pool) installed from
/// `store`. Training sees only the revealed prefix `[0, first_decision)` —
/// the replay must never peek at future prices — and the fit is keyed by
/// (zone, type, prefix end), so every replay of the same market window
/// reuses one shared kernel per pool.
pub(crate) fn trained_framework<S: BiddingStrategy>(
    market: &Market,
    spec: ServiceSpec,
    strategy: S,
    store: &ModelStore,
    first_decision: u64,
) -> BiddingFramework<S> {
    let pools = spec.pools();
    let mut framework = BiddingFramework::new(spec, strategy);
    for &zone in market.zones() {
        for &instance_type in &pools {
            let key = ModelKey {
                zone,
                instance_type,
                trained_until: first_decision,
            };
            let kernel = store.get_or_fit(key, || {
                FrozenKernel::from_trace(
                    &market.trace(zone, instance_type).window(0, first_decision),
                )
            });
            framework.install_kernel(zone, instance_type, kernel);
        }
    }
    framework
}

/// The market as a strategy sees it at `minute`: one snapshot per
/// (zone, pool), zones outer.
pub fn snapshots_at(market: &Market, pools: &[InstanceType], minute: u64) -> Vec<MarketSnapshot> {
    let mut snapshots = Vec::with_capacity(market.zones().len() * pools.len());
    fill_snapshots(&mut snapshots, market, pools, minute);
    snapshots
}

/// [`snapshots_at`] into `out`, replacing what it held.
fn fill_snapshots(out: &mut Vec<MarketSnapshot>, market: &Market, pools: &[InstanceType], at: u64) {
    out.clear();
    for &zone in market.zones() {
        for &instance_type in pools {
            let (spot_price, age) = market.trace(zone, instance_type).price_and_age_at(at);
            out.push(MarketSnapshot {
                zone,
                instance_type,
                spot_price,
                sojourn_age: age.min(u32::MAX as u64) as u32,
            });
        }
    }
}

/// Replay-minute as trace microseconds.
fn minute_micros(minute: u64) -> u64 {
    minute.saturating_mul(60_000_000)
}

/// A live instance in the fleet: a spot instance, or an on-demand
/// fallback the repair controller launched in the run's `od_zone`, which
/// the provider never kills, is billed at `bid` (the hourly on-demand
/// price) and runs until the next boundary, where the fresh spot decision
/// replaces it.
#[derive(Clone, Debug)]
struct Active {
    zone: Zone,
    ty: InstanceType,
    bid: Price,
    on_demand: bool,
    granted_at: u64,
    running_from: u64,
    /// Precomputed death minute within the current interval: the first
    /// out-of-bid minute (bidding era) or the pool's next capacity
    /// reclamation (capacity era).
    dies_at: Option<u64>,
    /// Minute a proactive migration finished handing this instance's slot
    /// off to its replacement (the drain completing before the reclaim
    /// deadline). Availability stops counting the instance here — the
    /// replacement has taken over — while billing runs on to the kill,
    /// so the drain window is the only double-billed overlap.
    drained_at: Option<u64>,
}

impl Active {
    /// First minute this instance no longer holds its slot: killed, or
    /// drained to its replacement (billing still runs to the kill).
    fn gone_at(&self) -> u64 {
        self.dies_at
            .unwrap_or(u64::MAX)
            .min(self.drained_at.unwrap_or(u64::MAX))
    }
}

/// Whether an instance of `fleet` (other than `fleet[except]`), spot or
/// on-demand, holds the `(zone, ty)` pool past minute `at`.
fn occupied(
    fleet: &[Active],
    zone: Zone,
    ty: InstanceType,
    at: u64,
    except: Option<usize>,
) -> bool {
    fleet.iter().enumerate().any(|(i, inst)| {
        Some(i) != except
            && inst.zone == zone
            && inst.ty == ty
            && inst.dies_at.is_none_or(|d| d > at)
    })
}

/// Every handle the loop records into on every run, created once up
/// front so the metric and series key set is the same whatever happens
/// (zeros included). Per-zone and per-pool names are created on first
/// use instead, where the event occurs. `tests/instruments.rs` holds the
/// whole set, with the reader of each name.
struct Instruments {
    bids_placed: Counter,
    death_out_of_bid: Counter,
    death_boundary: Counter,
    death_end_of_replay: Counter,
    same_minute_death: Counter,
    // Repair controller: all stay at zero with repair off, except
    // degraded-minutes, which is the fleet-strength metric repair exists
    // to shrink and is counted under every policy.
    repair_deaths_detected: Counter,
    repair_rebids: Counter,
    repair_backoff_waits: Counter,
    repair_spot_replacements: Counter,
    repair_on_demand_launches: Counter,
    repair_on_demand_minutes: Counter,
    repair_degraded_minutes: Counter,
    repair_too_late: Counter,
    // Capacity era: both stay at zero under the bidding era.
    notice_emitted: Counter,
    migrate_launched: Counter,
    // Per-interval series (time axis: market minutes).
    fleet_series: TimeSeries,
    cost_series: TimeSeries,
    availability_series: TimeSeries,
    deaths_series: TimeSeries,
    degraded_series: TimeSeries,
    rebids_series: TimeSeries,
    /// Lives in the strategy's registry: the delta around a loop decide
    /// is the audit log's `fp_cache_hit`, so it moves only when the caller
    /// wires the strategy to this run's `Obs` (`JupiterStrategy::with_obs`,
    /// as `repro report` and the auto-scaler experiment do); an unwired
    /// strategy's loop decisions audit as misses. A pass decision carries
    /// its own hits.
    fp_cache_hits: Counter,
}

impl Instruments {
    fn new(obs: &Obs) -> Self {
        Instruments {
            bids_placed: obs.counter("replay.bids_placed"),
            death_out_of_bid: obs.counter("replay.death.out_of_bid"),
            death_boundary: obs.counter("replay.death.boundary"),
            death_end_of_replay: obs.counter("replay.death.end_of_replay"),
            same_minute_death: obs.counter("replay.same_minute_death"),
            repair_deaths_detected: obs.counter("repair.deaths_detected"),
            repair_rebids: obs.counter("repair.rebids"),
            repair_backoff_waits: obs.counter("repair.backoff_waits"),
            repair_spot_replacements: obs.counter("repair.spot_replacements"),
            repair_on_demand_launches: obs.counter("repair.on_demand_launches"),
            repair_on_demand_minutes: obs.counter("repair.on_demand_minutes"),
            repair_degraded_minutes: obs.counter("repair.degraded_minutes"),
            repair_too_late: obs.counter("repair.too_late"),
            notice_emitted: obs.counter("notice.emitted"),
            migrate_launched: obs.counter("migrate.launched"),
            fleet_series: obs.series.series("replay.fleet_size"),
            cost_series: obs.series.series("replay.interval_cost_upper_dollars"),
            availability_series: obs.series.series("replay.interval_availability"),
            deaths_series: obs.series.series("replay.deaths"),
            degraded_series: obs.series.series("repair.degraded_minutes"),
            rebids_series: obs.series.series("repair.rebids"),
            fp_cache_hits: obs.counter("jupiter.fp_cache_hits"),
        }
    }
}

/// What `decide` fixes for one bidding interval, borrowing the boundary's
/// snapshots and the pass's decision.
struct Interval<'b> {
    start: u64,
    end: u64,
    /// The scheduled length in minutes — the decision horizon; `end` is
    /// clipped to the evaluation window, this is not.
    horizon: u32,
    decision_at: u64,
    snapshots: &'b [MarketSnapshot],
    decision: Cow<'b, BidDecision>,
    fp_cache_hit: bool,
}

/// The state of one replay. [`Run::interval`] is the Fig. 3 loop body,
/// one method per phase.
struct Run<'a, S: BiddingStrategy> {
    market: &'a Market,
    config: ReplayConfig,
    repair_cfg: RepairConfig,
    obs: &'a Obs,
    ins: Instruments,
    pools: Vec<InstanceType>,
    /// Frozen before the scaler touches the strength floor: heterogeneous
    /// runs add per-pool series names, single-type runs keep theirs.
    hetero: bool,
    primary_ty: InstanceType,
    od_zone: Zone,
    od_hourly: Price,
    framework: BiddingFramework<S>,
    scaler: Option<&'a mut AutoScaler>,
    /// The interval just ended, as the scaler's next feedback.
    feedback: Option<ObservedInterval>,
    fleet: Vec<Active>,
    /// The market at a rebid or migration, refilled by each.
    snapshots: Vec<MarketSnapshot>,
    /// Audit sequence numbers of the current interval's records, handed to
    /// the watchdogs as alert cross-references.
    refs: Vec<u64>,
    /// Provider kills resolved within the current interval.
    kills: usize,
    records: Vec<InstanceRecord>,
    intervals: Vec<IntervalOutcome>,
    up_minutes: u64,
    degraded_minutes: u64,
    /// Migrations whose replacement was running by the deadline, and
    /// those whose replacement came up after it.
    drains: u64,
    late_drains: u64,
    on_demand_cost: Price,
    // Online monitors: the paper's 0.99 availability SLO evaluated per
    // accounted minute with burn-rate alerting, plus the fleet-strength
    // and repair-budget watchdogs. All inert (a boolean check) when
    // `obs.alerts` is disabled — the root `tests/disabled_path.rs` pins
    // that.
    slo: SloTracker,
    fleet_dog: FleetDeficitWatchdog,
    budget_dog: RepairBudgetWatchdog,
}

impl<S: BiddingStrategy> Run<'_, S> {
    /// One bidding interval, from `boundary` for its scheduled length,
    /// clipped to the window; `decided` is the pass's decision for it.
    fn interval(&mut self, boundary: &Boundary, decided: Option<&Decided>) {
        let start = boundary.minute;
        let end = (start + u64::from(boundary.horizon_minutes)).min(self.config.eval_end);
        self.obs.set_time_micros(minute_micros(start));
        self.budget_dog.interval_start();
        let iv = self.decide(boundary, end, decided);
        let span = self.obs.trace.span_open(
            "replay.interval",
            &[
                ("start", FieldValue::U64(start)),
                ("group", FieldValue::U64(iv.decision.n() as u64)),
            ],
        );
        self.retire_and_launch(&iv);
        self.audit_decision(&iv);
        self.resolve_deaths(&iv);
        // The strength repair refills to: the fleet as the boundary left it.
        let target_n = self.fleet.len();
        self.migrate(&iv);
        let rebids = self.repair(&iv, target_n);
        let up = self.account(&iv, rebids);
        self.bill(&iv);
        self.obs.set_time_micros(minute_micros(end));
        self.obs.trace.span_close(
            span,
            "replay.interval",
            &[
                ("up_minutes", FieldValue::U64(up)),
                ("kills", FieldValue::U64(self.kills as u64)),
            ],
        );
    }

    /// The boundary's decision, made shortly before it, once every
    /// pool's model was shown the minutes revealed since the last one:
    /// the pass's decision is taken up, or one is made here. A model cuts
    /// and folds what it was shown at its first read, so rebids,
    /// migrations and the audit read models frozen at this boundary, and
    /// a run whose books read no model copies no window.
    fn decide<'b>(&mut self, b: &'b Boundary, end: u64, pass: Option<&'b Decided>) -> Interval<'b> {
        self.refs.clear();
        self.kills = 0;
        let start = b.minute;
        let (decision, fp_cache_hits) = match pass {
            Some(decided) => {
                self.framework.record_decided(decided);
                (Cow::Borrowed(&decided.decision), decided.fp_cache_hits)
            }
            None => {
                let decided = self.decide_in_loop(b, end);
                (Cow::Owned(decided.decision), decided.fp_cache_hits)
            }
        };
        self.ins.bids_placed.add(decision.bids.len() as u64);
        if self.obs.series.is_enabled() {
            // The Fig. 4/7 raw material: spot price per pool and the
            // active bid wherever one is standing, both at decision time.
            for s in &b.snapshots {
                let name = self.pool_series("price", s.zone, s.instance_type);
                self.obs
                    .series
                    .record(&name, start, s.spot_price.as_dollars());
            }
            for pb in &decision.bids {
                let name = self.pool_series("bid", pb.zone, pb.instance_type);
                self.obs.series.record(&name, start, pb.bid.as_dollars());
            }
        }
        Interval {
            start,
            end,
            horizon: b.horizon_minutes,
            decision_at: start.saturating_sub(DECISION_LEAD),
            snapshots: &b.snapshots,
            decision,
            fp_cache_hit: fp_cache_hits > 0,
        }
    }

    /// A boundary decided in the loop: the scaler re-targets the strength
    /// floor (from this interval's demand forecast and the last one's
    /// feedback), and the strategy decides on the boundary's market. The
    /// memo hits are the delta of the strategy's counter, which the replay
    /// sees when both record into one `Obs`.
    fn decide_in_loop(&mut self, boundary: &Boundary, end: u64) -> Decided {
        if let Some(scaler) = self.scaler.as_mut() {
            let target = scaler.plan(boundary.minute, end, self.feedback.take(), self.obs);
            self.framework.set_min_strength(target);
        }
        let hits_before = self.ins.fp_cache_hits.get();
        let decision = (self.framework).decide(&boundary.snapshots, boundary.horizon_minutes);
        Decided {
            decision,
            fp_cache_hits: self.ins.fp_cache_hits.get() - hits_before,
            micros: 0,
        }
    }

    /// `replay.{kind}.{zone}`, with the type appended on heterogeneous
    /// runs (single-type replays keep their exact legacy series set).
    fn pool_series(&self, kind: &str, zone: Zone, ty: InstanceType) -> String {
        if self.hetero {
            format!("replay.{kind}.{zone}.{ty}")
        } else {
            format!("replay.{kind}.{zone}")
        }
    }

    /// Retire the old fleet at the boundary and launch the new one. An
    /// instance carries over when the new decision keeps its pool and its
    /// standing bid is at least the newly required one (EC2 bids are
    /// immutable per instance, and a higher standing bid is at least as
    /// protective — charges follow the spot price, not the bid, so keeping
    /// it costs nothing extra and avoids paying the churn overlap).
    /// Everything else is user-terminated.
    fn retire_and_launch(&mut self, iv: &Interval) {
        let mut fleet = std::mem::take(&mut self.fleet);
        fleet.retain(|inst| {
            // Last interval's `bill` closed every instance that died.
            debug_assert!(inst.dies_at.is_none());
            let keep = iv
                .decision
                .bid_for(inst.zone, inst.ty)
                .is_some_and(|b| b <= inst.bid);
            if !keep {
                self.ins.death_boundary.inc();
                self.close(inst, iv.start, Termination::User);
            }
            keep
        });
        self.fleet = fleet;
        for &pb in &iv.decision.bids {
            if !self.in_fleet(pb.zone, pb.instance_type) {
                self.launch(pb, iv.decision_at, None);
            }
        }
        if self.hetero && self.obs.series.is_enabled() {
            for &ty in &self.pools {
                let count = self.fleet.iter().filter(|a| a.ty == ty).count();
                let name = format!("pool.fleet.{ty}");
                self.obs.series.record(&name, iv.start, count as f64);
            }
            let strength: u32 = self.fleet.iter().map(|a| a.ty.capacity_weight()).sum();
            self.obs
                .series
                .record("pool.strength", iv.start, strength as f64);
        }
    }

    fn in_fleet(&self, zone: Zone, ty: InstanceType) -> bool {
        self.fleet.iter().any(|a| a.zone == zone && a.ty == ty)
    }

    /// Request one spot instance at minute `at`; `None` when the bid does
    /// not cover the price at request time, else the minute it is running
    /// (the pool's startup delay later). Mid-interval launches pass the
    /// interval end as `dies_before` so the newcomer's own death is
    /// resolved on the spot; the boundary pass leaves that to
    /// `resolve_deaths`.
    fn launch(&mut self, pb: PoolBid, at: u64, dies_before: Option<u64>) -> Option<u64> {
        let PoolBid {
            zone,
            instance_type: ty,
            bid,
        } = pb;
        if !self.market.grants(zone, ty, bid, at) {
            return None;
        }
        let running_from = at + self.market.startup_delay_minutes(zone, ty, at);
        let dies_at = dies_before.and_then(|until| self.death_in(zone, ty, bid, at, until));
        self.kills += usize::from(dies_at.is_some());
        if self.obs.metrics.is_enabled() {
            self.obs.counter(&format!("replay.granted.{zone}")).inc();
        }
        self.fleet.push(Active {
            zone,
            ty,
            bid,
            on_demand: false,
            granted_at: at,
            running_from,
            dies_at,
            drained_at: None,
        });
        Some(running_from)
    }

    /// The minute in `[from, until)` the provider kills an instance.
    /// Bidding era: the first minute the price strictly exceeds the bid.
    /// Capacity era: the pool's next hidden-capacity reclamation — the
    /// bid plays no part in survival, only in the grant gate.
    fn death_in(
        &self,
        zone: Zone,
        ty: InstanceType,
        bid: Price,
        from: u64,
        until: u64,
    ) -> Option<u64> {
        match self.config.era {
            BidEra::Bidding => self.market.out_of_bid_at(zone, ty, bid, from, until),
            BidEra::CapacityReclaim => self.market.next_reclaim_at(zone, ty, from, until),
        }
    }

    /// Write one audit record, built only while the log is on, and keep
    /// its sequence number as an alert cross-reference for this interval;
    /// `link_slo` also hands it to the SLO tracker as a decision a burn
    /// alert can point back at.
    fn audit(&mut self, minute: u64, kind: impl FnOnce() -> AuditKind, link_slo: bool) {
        if !self.obs.audit.is_enabled() {
            return;
        }
        if let Some(seq) = self.obs.audit.record(minute, kind()) {
            self.refs.push(seq);
            if link_slo {
                self.slo.link_decision(seq);
            }
        }
    }

    /// One audit record per selected bid, priced by the framework's own
    /// models — shown this boundary's revealed minutes, so folded as the
    /// pass's or the loop's were when it decided; `granted` is known now
    /// the launch pass ran (carried-over instances count as granted).
    fn audit_decision(&mut self, iv: &Interval) {
        if !self.obs.audit.is_enabled() {
            return;
        }
        let views = (self.framework).views(iv.snapshots, &iv.decision, iv.horizon);
        let horizon_hours = f64::from(iv.horizon) / 60.0;
        for (pb, view) in iv.decision.bids.iter().zip(views) {
            let snap = (iv.snapshots.iter())
                .find(|s| s.zone == pb.zone && s.instance_type == pb.instance_type)
                .expect("a decision bids only pools it was shown");
            let kind = AuditKind::BidSelection {
                zone: pb.zone.to_string(),
                instance_type: pb.instance_type.to_string(),
                capacity_weight: pb.instance_type.capacity_weight() as f64,
                bid_dollars: pb.bid.as_dollars(),
                spot_price_dollars: snap.spot_price.as_dollars(),
                predicted_availability: 1.0 - view.predicted_fp,
                predicted_cost_dollars: pb.bid.as_dollars() * horizon_hours,
                kernel_id: view.kernel_id,
                fp_cache_hit: iv.fp_cache_hit,
                granted: self.in_fleet(pb.zone, pb.instance_type),
            };
            self.audit(iv.decision_at, || kind, true);
        }
    }

    /// Resolve every standing instance's death within the interval.
    fn resolve_deaths(&mut self, iv: &Interval) {
        let mut fleet = std::mem::take(&mut self.fleet);
        for inst in &mut fleet {
            let from = inst.granted_at.max(iv.start);
            inst.dies_at = self.death_in(inst.zone, inst.ty, inst.bid, from, iv.end);
            inst.drained_at = None;
            if let Some(d) = inst.dies_at {
                self.kills += 1;
                if d <= inst.granted_at {
                    // Granted and killed in the same minute: the bid only
                    // just covered the price at request time.
                    self.ins.same_minute_death.inc();
                }
            }
        }
        self.fleet = fleet;
    }

    /// Proactive migration on interruption notices. Under the capacity
    /// era every reclamation is announced `lead` minutes ahead, with
    /// rebalance recommendations earlier still. The Migrate policy acts on
    /// the earliest actionable signal, victims in deadline order. Deaths
    /// the notice path cannot cover (no pool, grant refused, signal past
    /// the boundary) fall through to the reactive walk in `repair`, which
    /// sees their slots still missing.
    fn migrate(&mut self, iv: &Interval) {
        if self.config.era != BidEra::CapacityReclaim {
            return;
        }
        if self.obs.metrics.is_enabled() {
            let notices = self.market.notice_count(iv.start, iv.end);
            self.ins.notice_emitted.add(notices as u64);
        }
        if self.repair_cfg.policy != RepairPolicy::Migrate {
            return;
        }
        let mut deaths: Vec<(usize, u64)> = self
            .fleet
            .iter()
            .enumerate()
            .filter_map(|(i, inst)| inst.dies_at.map(|d| (i, d)))
            .collect();
        deaths.sort_by_key(|&(i, d)| (d, i));
        // Pools of victims the notice path could not cover: once a victim
        // falls through to the reactive walk, its own pool — free again
        // after its reclamation passes — is the walk's natural repair
        // site, and a later migration stealing it would starve the
        // fallback (the steal shows up as degraded time the pure-reactive
        // replay never accrues).
        let mut reserved: Vec<(Zone, InstanceType)> = Vec::new();
        for (victim, deadline) in deaths {
            self.migrate_one(iv, victim, deadline, &mut reserved);
        }
    }

    /// Launch a replacement for `fleet[victim]` (reclaimed at `deadline`)
    /// in a diversified pool — excluding pools under imminent reclaim,
    /// preferring a different zone — and, when it is running before the
    /// deadline, drain the victim's slot to it: the service-level Paxos
    /// view change; here the handoff in the slot accounting.
    fn migrate_one(
        &mut self,
        iv: &Interval,
        victim: usize,
        deadline: u64,
        reserved: &mut Vec<(Zone, InstanceType)>,
    ) {
        // How far before the deadline a rebalance recommendation is still
        // worth acting on (older signals would buy overlap billing without
        // improving the drain), and how far past the victim's deadline a
        // candidate pool's own reclamation makes it unfit as the
        // replacement's home.
        const REBALANCE_WINDOW: u64 = 45;
        const RECLAIM_GUARD: u64 = 60;
        let (vzone, vty) = (self.fleet[victim].zone, self.fleet[victim].ty);
        let capacity = self.market.capacity(vzone, vty);
        let notice_at = deadline.saturating_sub(capacity.lead()).max(iv.start);
        let floor = deadline.saturating_sub(REBALANCE_WINDOW).max(iv.start);
        let launch_at = capacity
            .last_rebalance_before(deadline, floor)
            .map_or(notice_at, |r| r.max(iv.start));
        if launch_at >= iv.end {
            return; // the next boundary re-decides anyway
        }
        // Re-ask the framework at the signal minute; candidates outside
        // the victim's zone come first at equal price.
        fill_snapshots(&mut self.snapshots, self.market, &self.pools, launch_at);
        let mut choices = (self.framework)
            .decide(&self.snapshots, (iv.end - launch_at) as u32)
            .bids;
        choices.sort_by_key(|pb| {
            (
                pb.zone == vzone,
                pb.bid,
                pb.zone.ordinal(),
                pb.instance_type.ordinal(),
            )
        });
        let mut action = "no_pool";
        let mut to_zone = None;
        let mut bid_dollars = 0.0;
        for pb in choices {
            let (zone, ty) = (pb.zone, pb.instance_type);
            // A pool the provider is about to reclaim (the victim's own
            // included) is no home for the refugee.
            let imminent = self
                .market
                .next_reclaim_at(zone, ty, launch_at, deadline + RECLAIM_GUARD)
                .is_some();
            if occupied(&self.fleet, zone, ty, launch_at, Some(victim))
                || imminent
                || reserved.contains(&(zone, ty))
            {
                continue;
            }
            let Some(running_from) = self.launch(pb, launch_at, Some(iv.end)) else {
                action = "no_grant";
                continue;
            };
            self.ins.migrate_launched.inc();
            self.ins.bids_placed.inc();
            to_zone = Some(pb.zone);
            bid_dollars = pb.bid.as_dollars();
            if running_from <= deadline {
                action = "drained";
                self.fleet[victim].drained_at = Some(running_from);
                self.drains += 1;
            } else {
                action = "late_drain";
                self.late_drains += 1;
            }
            break;
        }
        if matches!(action, "no_pool" | "no_grant") {
            reserved.push((vzone, vty));
        }
        let kind = || AuditKind::Migration {
            action: action.to_owned(),
            from_zone: vzone.to_string(),
            to_zone: to_zone.map(|z| z.to_string()).unwrap_or_default(),
            notice_minute: notice_at,
            deadline_minute: deadline,
            bid_dollars,
        };
        self.audit(launch_at, kind, true);
    }

    /// Deaths at minutes `[from, to]` the repair walk has not passed yet;
    /// 0 while the metrics registry, its callers' only output, is off.
    fn deaths_between(&self, from: u64, to: u64) -> u64 {
        if !self.obs.metrics.is_enabled() {
            return 0;
        }
        self.fleet
            .iter()
            .filter_map(|i| i.dies_at)
            .filter(|&d| d >= from && d <= to)
            .count() as u64
    }

    /// A repair-walk audit record that names no pool and moves no money.
    fn repair_note(&mut self, minute: u64, action: &str, died_at: u64) {
        let kind = || AuditKind::RepairAction {
            action: action.to_owned(),
            zone: String::new(),
            trigger_death_minute: died_at,
            bid_dollars: 0.0,
            billing_delta_dollars: 0.0,
        };
        self.audit(minute, kind, false);
    }

    /// Mid-interval repair: walk the interval's kills in time order. Each
    /// pass waits out the detection delay plus the current backoff, then
    /// refills the fleet to `target_n`: first from the spot market, then
    /// from on-demand under Hybrid. Replacements can die and be repaired
    /// again; the cursor only moves forward, so the loop terminates. Under
    /// Migrate this walk is the reactive fallback: migrated slots are
    /// already filled, so it only acts where the notice path came up
    /// empty. Returns the interval's rebid count as `repair.rebids` saw it.
    fn repair(&mut self, iv: &Interval, target_n: usize) -> u64 {
        if !self.repair_cfg.is_active() || self.fleet.is_empty() {
            return 0;
        }
        let rebids_before = self.ins.repair_rebids.get();
        let mut rebids_used = 0u32;
        let mut wait = BACKOFF_BASE_MINUTES;
        let mut cursor = iv.start;
        while let Some(died_at) = self
            .fleet
            .iter()
            .filter_map(|i| i.dies_at)
            .filter(|&d| d >= cursor)
            .min()
        {
            let at = died_at + DETECTION_DELAY_MINUTES + wait;
            if at >= iv.end {
                // Too close to the boundary to act before the next
                // decision — and every later kill is later still.
                let unrepaired = self.deaths_between(cursor, u64::MAX);
                self.ins.repair_deaths_detected.add(unrepaired);
                self.ins.repair_too_late.add(unrepaired);
                self.repair_note(died_at, "too_late", died_at);
                break;
            }
            self.ins
                .repair_deaths_detected
                .add(self.deaths_between(cursor, at));
            // Strength at repair time: live or still-booting instances,
            // on-demand fallbacks included. A drained victim stops
            // counting at its handoff — its replacement already holds the
            // slot, and counting both would mask a concurrent death
            // elsewhere from the refill. Migration replacements scheduled
            // for a *later* signal minute have not been granted yet and
            // hold nothing either.
            let alive = self
                .fleet
                .iter()
                .filter(|i| i.granted_at <= at && i.gone_at() > at)
                .count();
            let missing = target_n.saturating_sub(alive);
            if missing == 0 {
                cursor = at + 1;
                continue;
            }
            let mut launched = 0;
            if rebids_used < MAX_REBIDS_PER_INTERVAL {
                rebids_used += 1;
                launched = self.rebid(iv, at, died_at, missing);
            } else {
                self.repair_note(at, "budget_exhausted", died_at);
                self.budget_dog
                    .exhausted(minute_micros(at), MAX_REBIDS_PER_INTERVAL, &self.refs);
            }
            if launched < missing && self.repair_cfg.policy == RepairPolicy::Hybrid {
                // Escalate: the per-node target cannot be met from the
                // spot market right now, so fall back to on-demand for
                // the remaining slots until the next boundary.
                self.top_up_on_demand(iv, at, died_at, missing - launched);
                launched = missing;
            }
            if launched < missing {
                self.ins.repair_backoff_waits.inc();
                self.repair_note(at, "backoff", died_at);
                wait = wait.saturating_mul(2).min(BACKOFF_CAP_MINUTES);
            } else {
                wait = BACKOFF_BASE_MINUTES;
            }
            cursor = at + 1;
        }
        self.ins.repair_rebids.get() - rebids_before
    }

    /// One spot rebid at minute `at` for up to `missing` slots: a fresh
    /// decide against the boundary-frozen models (the kernels are never
    /// retrained mid-interval, so boundary decisions are identical across
    /// repair policies), cheapest free pools first. Returns the slots
    /// filled.
    fn rebid(&mut self, iv: &Interval, at: u64, died_at: u64, missing: usize) -> usize {
        self.ins.repair_rebids.inc();
        fill_snapshots(&mut self.snapshots, self.market, &self.pools, at);
        let mut choices = self.framework.decide(&self.snapshots, (iv.end - at) as u32).bids;
        choices.sort_by_key(|pb| (pb.bid, pb.zone.ordinal(), pb.instance_type.ordinal()));
        let mut launched = 0;
        for pb in choices {
            if launched >= missing {
                break;
            }
            if occupied(&self.fleet, pb.zone, pb.instance_type, at, None)
                || self.launch(pb, at, Some(iv.end)).is_none()
            {
                continue;
            }
            self.ins.repair_spot_replacements.inc();
            self.ins.bids_placed.inc();
            let kind = || AuditKind::RepairAction {
                action: "rebid".to_owned(),
                zone: pb.zone.to_string(),
                trigger_death_minute: died_at,
                bid_dollars: pb.bid.as_dollars(),
                billing_delta_dollars: pb.bid.as_dollars() * ((iv.end - at) as f64 / 60.0),
            };
            self.audit(at, kind, true);
            launched += 1;
        }
        launched
    }

    /// Fill `slots` with on-demand instances until the next boundary.
    fn top_up_on_demand(&mut self, iv: &Interval, at: u64, died_at: u64, slots: usize) {
        let (zone, ty, hourly) = (self.od_zone, self.primary_ty, self.od_hourly);
        for _ in 0..slots {
            self.ins.repair_on_demand_launches.inc();
            let kind = || AuditKind::RepairAction {
                action: "on_demand_top_up".to_owned(),
                zone: zone.to_string(),
                trigger_death_minute: died_at,
                bid_dollars: hourly.as_dollars(),
                billing_delta_dollars: spot_market::on_demand_charge(hourly, at, iv.end)
                    .as_dollars(),
            };
            self.audit(at, kind, true);
            self.fleet.push(Active {
                zone,
                ty,
                bid: hourly,
                on_demand: true,
                granted_at: at,
                running_from: at + self.market.startup_delay_minutes(zone, ty, at),
                dies_at: None,
                drained_at: None,
            });
        }
    }

    /// Availability accounting over the interval, state change by state
    /// change, plus the per-interval series; `rebids` is what
    /// `repair` returned. Returns the interval's up minutes.
    fn account(&mut self, iv: &Interval, rebids: u64) -> u64 {
        let group = iv.decision.n();
        let quorum = if group == 0 {
            usize::MAX // no deployment: never available
        } else {
            self.framework.spec().quorum.quorum_size(group)
        };
        let monitors_on = self.obs.alerts.is_enabled();
        let mut up = 0u64;
        let mut degraded = 0u64;
        let mut max_live = 0usize;
        let mut strength_minutes = 0f64;
        let mut minute = iv.start;
        while minute < iv.end {
            // Count live instances; advance to the next state change to
            // avoid per-minute scans over long quiet stretches.
            let mut live = 0usize;
            let mut live_strength = 0u32;
            let mut next_change = iv.end;
            for inst in &self.fleet {
                let gone_at = inst.gone_at();
                if minute >= inst.running_from && minute < gone_at {
                    live += 1;
                    live_strength += inst.ty.capacity_weight();
                    next_change = next_change.min(gone_at);
                } else if minute < inst.running_from {
                    next_change = next_change.min(inst.running_from);
                }
            }
            let span = next_change.max(minute + 1) - minute;
            strength_minutes += live_strength as f64 * span as f64;
            if live >= quorum {
                up += span;
            }
            if live < group {
                degraded += span;
            }
            if monitors_on {
                if group > 0 {
                    self.fleet_dog
                        .observe(minute_micros(minute), live, group, quorum, &self.refs);
                }
                // The SLO stream wants per-minute granularity so burn
                // windows stay exact across long quiet spans.
                let good = if live >= quorum { 1.0 } else { 0.0 };
                for m in minute..minute + span {
                    self.slo.record(m, good, 1.0);
                }
            }
            max_live = max_live.max(live);
            minute += span;
        }
        self.up_minutes += up;
        self.degraded_minutes += degraded;
        self.ins.repair_degraded_minutes.add(degraded);
        let length = (iv.end - iv.start).max(1) as f64;
        let availability = up as f64 / length;
        if self.scaler.is_some() {
            self.feedback = Some(ObservedInterval {
                availability,
                mean_strength: strength_minutes / length,
            });
        }
        let cost_upper_bound = iv.decision.cost_upper_bound();
        let spot = self.fleet.iter().filter(|a| !a.on_demand).count();
        self.ins.fleet_series.record(iv.start, spot as f64);
        self.ins
            .cost_series
            .record(iv.start, cost_upper_bound.as_dollars());
        self.ins.availability_series.record(iv.start, availability);
        self.ins.deaths_series.record(iv.start, self.kills as f64);
        self.ins.degraded_series.record(iv.start, degraded as f64);
        self.ins.rebids_series.record(iv.start, rebids as f64);
        self.intervals.push(IntervalOutcome {
            start: iv.start,
            group_size: group,
            quorum: if group == 0 { 0 } else { quorum },
            cost_upper_bound,
            up_minutes: up,
            degraded_minutes: degraded,
            max_live,
            kills: self.kills,
        });
        up
    }

    /// Terminate `inst` at `end` and book its record: a spot instance at
    /// the market's charge, an on-demand fallback at its fixed hourly
    /// price per started hour.
    fn close(&mut self, inst: &Active, end: u64, termination: Termination) {
        let end = end.max(inst.granted_at);
        let cost = if inst.on_demand {
            let cost = spot_market::on_demand_charge(inst.bid, inst.granted_at, end);
            self.ins.repair_on_demand_minutes.add(end - inst.granted_at);
            self.on_demand_cost += cost;
            cost
        } else {
            self.market
                .charge(inst.zone, inst.ty, inst.granted_at, end, termination)
        };
        self.records.push(InstanceRecord {
            zone: inst.zone,
            instance_type: inst.ty,
            bid: inst.bid,
            granted_at: inst.granted_at,
            running_from: inst.running_from,
            ended_at: end,
            termination,
            on_demand: inst.on_demand,
            cost,
        });
    }

    /// Bill the instances the provider killed this interval, then retire
    /// and bill the on-demand fallbacks at the boundary: they exist to
    /// bridge to the next decision, which replaces them with a fresh spot
    /// fleet.
    fn bill(&mut self, iv: &Interval) {
        let mut fleet = std::mem::take(&mut self.fleet);
        fleet.retain(|inst| match inst.dies_at {
            Some(died_at) if !inst.on_demand => {
                self.ins.death_out_of_bid.inc();
                self.close(inst, died_at, Termination::Provider);
                false
            }
            _ => true,
        });
        fleet.retain(|inst| {
            if inst.on_demand {
                self.close(inst, iv.end, Termination::User);
            }
            !inst.on_demand
        });
        self.fleet = fleet;
    }

    /// Close out the surviving fleet at the end of the window and hand
    /// back the accounting.
    fn finish(mut self) -> ReplayResult {
        for inst in std::mem::take(&mut self.fleet) {
            self.ins.death_end_of_replay.inc();
            self.close(&inst, self.config.eval_end, Termination::User);
        }
        ReplayResult {
            strategy: self.framework.strategy_name(),
            total_cost: self.records.iter().map(|r| r.cost).sum(),
            window_minutes: self.config.eval_end - self.config.eval_start,
            up_minutes: self.up_minutes,
            degraded_minutes: self.degraded_minutes,
            drains: self.drains,
            late_drains: self.late_drains,
            on_demand_cost: self.on_demand_cost,
            instances: self.records,
            intervals: self.intervals,
        }
    }
}

/// The cost of the on-demand baseline over the same window: the baseline
/// node count at the cheapest region's hourly price (§5.5: "5 on-demand
/// instances in the cheapest availability zones").
pub fn on_demand_baseline_cost(market: &Market, spec: &ServiceSpec, config: ReplayConfig) -> Price {
    let ty = spec.instance_type;
    let cheapest = ty.on_demand_price(cheapest_on_demand_zone(market, ty).region);
    let minutes = config.eval_end - config.eval_start;
    spot_market::on_demand_charge(cheapest, 0, minutes) * spec.baseline_nodes as u64
}

/// The zone with the lowest on-demand price for `ty`, ties broken by zone
/// order: the baseline's price and where the repair's on-demand fallbacks
/// run.
fn cheapest_on_demand_zone(market: &Market, ty: InstanceType) -> Zone {
    (market.zones().iter().copied())
        .min_by_key(|z| (ty.on_demand_price(z.region), z.ordinal()))
        .expect("market has zones")
}

#[cfg(test)]
mod tests {
    use super::*;
    use jupiter::{ExtraStrategy, JupiterStrategy};
    use spot_market::{InstanceType, MarketConfig};

    use crate::repair::RepairConfig;

    fn small_market(weeks: u64) -> Market {
        let mut cfg = MarketConfig::paper(21, weeks * 7 * 24 * 60);
        cfg.zones.truncate(8);
        cfg.types = vec![InstanceType::M1Small];
        Market::generate(cfg)
    }

    #[test]
    fn extra_strategy_replay_accounts_costs_and_uptime() {
        let market = small_market(2);
        let spec = ServiceSpec::lock_service();
        let config = ReplayConfig::new(7 * 24 * 60, 14 * 24 * 60, 6);
        let r = Replay::new(&market, &spec, config).run(ExtraStrategy::new(0, 0.2));
        assert_eq!(r.window_minutes, 7 * 24 * 60);
        assert!(r.total_cost > Price::ZERO);
        assert!(!r.instances.is_empty());
        assert_eq!(r.intervals.len(), 7 * 24 / 6);
        assert!(r.availability() > 0.5, "availability {}", r.availability());
        // Costs are far below on-demand.
        let od = on_demand_baseline_cost(&market, &spec, config);
        assert!(r.total_cost < od, "{} !< {}", r.total_cost, od);
    }

    #[test]
    fn jupiter_replay_runs_and_outperforms_on_availability() {
        // Train 2 weeks, evaluate 2 days at 6-hour intervals (kept small:
        // this is a debug-profile unit test; the full 11-week sweeps run
        // in release via the repro binary and the benchmark).
        let market = small_market(3);
        let spec = ServiceSpec::lock_service();
        let eval_start = 2 * 7 * 24 * 60;
        let config = ReplayConfig::new(eval_start, eval_start + 2 * 24 * 60, 6);
        let jupiter = Replay::new(&market, &spec, config).run(JupiterStrategy::new());
        assert!(
            jupiter.availability() > 0.999,
            "availability {}",
            jupiter.availability()
        );
        let od = on_demand_baseline_cost(&market, &spec, config);
        assert!(jupiter.total_cost < od);
    }

    #[test]
    fn provider_kills_never_bill_partial_hours() {
        let market = small_market(2);
        let spec = ServiceSpec::lock_service();
        let config = ReplayConfig::new(7 * 24 * 60, 14 * 24 * 60, 3);
        let r = Replay::new(&market, &spec, config).run(ExtraStrategy::new(0, 0.05));
        for rec in &r.instances {
            if rec.termination == Termination::Provider {
                // The charge equals the full-hours-only bill.
                let full_hours = (rec.ended_at - rec.granted_at) / 60;
                let manual: Price = (0..full_hours)
                    .map(|h| {
                        market
                            .trace(rec.zone, InstanceType::M1Small)
                            .last_price_in(rec.granted_at + h * 60, rec.granted_at + (h + 1) * 60)
                    })
                    .sum();
                assert_eq!(rec.cost, manual);
            }
        }
    }

    #[test]
    fn repair_off_is_byte_identical_to_the_plain_replay() {
        let market = small_market(2);
        let spec = ServiceSpec::lock_service();
        let config = ReplayConfig::new(7 * 24 * 60, 14 * 24 * 60, 3);
        let plain = Replay::new(&market, &spec, config).run(ExtraStrategy::new(0, 0.02));
        let store = ModelStore::new();
        let off = Replay::new(&market, &spec, config)
            .repair(RepairConfig::off())
            .store(&store)
            .run(ExtraStrategy::new(0, 0.02));
        assert_eq!(off.total_cost, plain.total_cost);
        assert_eq!(off.up_minutes, plain.up_minutes);
        assert_eq!(off.instances.len(), plain.instances.len());
        assert_eq!(off.on_demand_cost, Price::ZERO);
        assert!(plain.total_kills() > 0, "fixture must produce churn");
        assert!(plain.degraded_minutes > 0, "kills must show up as degradation");
    }

    #[test]
    fn hybrid_repair_strictly_shrinks_degraded_minutes() {
        let market = small_market(2);
        let spec = ServiceSpec::lock_service();
        let config = ReplayConfig::new(7 * 24 * 60, 14 * 24 * 60, 3);
        let store = ModelStore::new();
        let off = Replay::new(&market, &spec, config)
            .repair(RepairConfig::off())
            .store(&store)
            .run(ExtraStrategy::new(0, 0.02));
        let hybrid = Replay::new(&market, &spec, config)
            .repair(RepairConfig::hybrid())
            .store(&store)
            .run(ExtraStrategy::new(0, 0.02));
        assert!(off.total_kills() > 0, "fixture must produce churn");
        assert!(
            hybrid.degraded_minutes < off.degraded_minutes,
            "hybrid {} !< off {}",
            hybrid.degraded_minutes,
            off.degraded_minutes
        );
        // Repair only ever adds live instances: availability is monotone.
        assert!(hybrid.up_minutes >= off.up_minutes);
        // The bill splits cleanly into spot and on-demand shares.
        let od_sum: Price = hybrid
            .instances
            .iter()
            .filter(|r| r.on_demand)
            .map(|r| r.cost)
            .sum();
        assert_eq!(od_sum, hybrid.on_demand_cost);
        assert!(hybrid.total_cost >= hybrid.on_demand_cost);
        // Bounded extra cost: still far below the on-demand baseline.
        let od = on_demand_baseline_cost(&market, &spec, config);
        assert!(hybrid.total_cost < od, "{} !< {}", hybrid.total_cost, od);
        // The fleet never exceeds the decided group size, repair included.
        for iv in &hybrid.intervals {
            assert!(iv.max_live <= iv.group_size, "{iv:?}");
        }
    }

    #[test]
    fn reactive_repair_never_bills_on_demand() {
        let market = small_market(2);
        let spec = ServiceSpec::lock_service();
        let config = ReplayConfig::new(7 * 24 * 60, 14 * 24 * 60, 3);
        let store = ModelStore::new();
        let (obs, _clock) = Obs::simulated();
        let reactive = Replay::new(&market, &spec, config)
            .repair(RepairConfig::reactive())
            .store(&store)
            .obs(&obs)
            .run(ExtraStrategy::new(0, 0.02));
        assert_eq!(reactive.on_demand_cost, Price::ZERO);
        assert!(reactive.instances.iter().all(|r| !r.on_demand));
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("repair.on_demand_launches").unwrap_or(0), 0);
        let detected = snap.counter("repair.deaths_detected").unwrap_or(0);
        let deaths = snap.counter("replay.death.out_of_bid").unwrap_or(0);
        assert_eq!(detected, deaths, "every kill is seen by the controller");
        let filled = snap.counter("repair.spot_replacements").unwrap_or(0);
        assert!(filled <= detected, "replacements can never outnumber kills");
    }

    #[test]
    fn migrate_under_bidding_era_matches_reactive() {
        // Without notices the Migrate policy is pure fallback: it must
        // replay byte-identically to Reactive (strict additivity).
        let market = small_market(2);
        let spec = ServiceSpec::lock_service();
        let config = ReplayConfig::new(7 * 24 * 60, 14 * 24 * 60, 3);
        let store = ModelStore::new();
        let reactive = Replay::new(&market, &spec, config)
            .repair(RepairConfig::reactive())
            .store(&store)
            .run(ExtraStrategy::new(0, 0.02));
        let migrate = Replay::new(&market, &spec, config)
            .repair(RepairConfig::migrate())
            .store(&store)
            .run(ExtraStrategy::new(0, 0.02));
        assert_eq!(migrate.total_cost, reactive.total_cost);
        assert_eq!(migrate.up_minutes, reactive.up_minutes);
        assert_eq!(migrate.degraded_minutes, reactive.degraded_minutes);
        assert_eq!(migrate.instances.len(), reactive.instances.len());
        assert!(reactive.total_kills() > 0, "fixture must produce churn");
    }

    #[test]
    fn capacity_era_migration_drains_and_reconciles_billing() {
        let market = small_market(2);
        let spec = ServiceSpec::lock_service();
        let config = ReplayConfig::new(7 * 24 * 60, 14 * 24 * 60, 3)
            .with_era(BidEra::CapacityReclaim);
        let store = ModelStore::new();
        let (obs, _clock) = Obs::simulated();
        let reactive = Replay::new(&market, &spec, config)
            .repair(RepairConfig::reactive())
            .store(&store)
            .run(ExtraStrategy::new(0, 0.02));
        let migrate = Replay::new(&market, &spec, config)
            .repair(RepairConfig::migrate())
            .store(&store)
            .obs(&obs)
            .run(ExtraStrategy::new(0, 0.02));
        assert!(migrate.total_kills() > 0, "capacity era must reclaim");
        let snap = obs.metrics.snapshot();
        assert!(snap.counter("notice.emitted").unwrap_or(0) > 0);
        let moved = |r: &ReplayResult| (r.drains, r.late_drains);
        assert!(moved(&migrate).0 >= 1, "at least one pre-deadline drain");
        // The result's counts are the audit log's, and do not need it.
        let audit = obs.audit.snapshot();
        let audited = |wanted: &str| {
            let records = audit.iter().filter(
                |r| matches!(&r.kind, AuditKind::Migration { action, .. } if action == wanted),
            );
            records.count() as u64
        };
        assert_eq!(moved(&migrate), (audited("drained"), audited("late_drain")));
        let unobserved = Replay::new(&market, &spec, config)
            .repair(RepairConfig::migrate())
            .store(&store)
            .run(ExtraStrategy::new(0, 0.02));
        assert_eq!(moved(&unobserved), moved(&migrate));
        // Acting on the notice is never worse than reacting to the kill.
        assert!(
            migrate.degraded_minutes <= reactive.degraded_minutes,
            "migrate {} > reactive {}",
            migrate.degraded_minutes,
            reactive.degraded_minutes
        );
        assert!(migrate.up_minutes >= reactive.up_minutes);
        // Billing reconciles record by record: the total is exactly the
        // record sum, nothing billed on-demand, and every reclaimed
        // instance keeps the provider-kill billing (free partial hour) —
        // so the drain window is the only double-billed overlap.
        let record_sum: Price = migrate.instances.iter().map(|r| r.cost).sum();
        assert_eq!(record_sum, migrate.total_cost);
        assert_eq!(migrate.on_demand_cost, Price::ZERO);
        for rec in migrate
            .instances
            .iter()
            .filter(|r| r.termination == Termination::Provider)
        {
            let full_hours = (rec.ended_at - rec.granted_at) / 60;
            let manual: Price = (0..full_hours)
                .map(|h| {
                    market.trace(rec.zone, rec.instance_type).last_price_in(
                        rec.granted_at + h * 60,
                        rec.granted_at + (h + 1) * 60,
                    )
                })
                .sum();
            assert_eq!(rec.cost, manual);
        }
        // Drains are handoffs, not extra capacity: the live count never
        // exceeds the decided group size.
        for iv in &migrate.intervals {
            assert!(iv.max_live <= iv.group_size, "{iv:?}");
        }
        // The controller leaves an audit trail.
        assert!(audit.iter().any(|r| r.kind.label() == "migration"));
    }

    #[test]
    fn records_partition_the_fleet_time() {
        let market = small_market(2);
        let spec = ServiceSpec::lock_service();
        let config = ReplayConfig::new(7 * 24 * 60, 14 * 24 * 60, 12);
        let r = Replay::new(&market, &spec, config).run(ExtraStrategy::new(2, 0.2));
        for rec in &r.instances {
            assert!(rec.granted_at <= rec.running_from);
            assert!(
                rec.running_from <= rec.ended_at + 15,
                "booting instance never ran"
            );
            assert!(rec.ended_at <= config.eval_end);
        }
        // Extra(2,·) holds 7 instances.
        assert!(r.mean_group_size() >= 6.9);
    }

    #[test]
    fn an_on_demand_fallback_holds_its_pool_and_no_other() {
        let zones = small_market(1).zones().to_vec();
        let (z0, z1) = (zones[0], zones[1]);
        let (small, large) = (InstanceType::M1Small, InstanceType::M3Large);
        let instance = |zone, ty, on_demand, dies_at| Active {
            zone,
            ty,
            bid: Price::from_dollars(0.044),
            on_demand,
            granted_at: 100,
            running_from: 105,
            dies_at,
            drained_at: None,
        };
        // A top-up in (z0, m1.small) and a spot instance in (z1, m3.large)
        // the provider kills at minute 200.
        let fleet = [
            instance(z0, small, true, None),
            instance(z1, large, false, Some(200)),
        ];
        assert!(
            occupied(&fleet, z0, small, 150, None),
            "the fallback holds its pool"
        );
        // The other type in the on-demand zone is free: a two-type repair
        // may launch there while the top-up stands.
        assert!(!occupied(&fleet, z0, large, 150, None));
        assert!(!occupied(&fleet, z1, small, 150, None));
        // A spot instance holds its pool until its death minute.
        assert!(occupied(&fleet, z1, large, 199, None));
        assert!(!occupied(&fleet, z1, large, 200, None));
        // The instance being replaced does not block its own pool.
        assert!(!occupied(&fleet, z1, large, 150, Some(1)));
        assert!(!occupied(&fleet, z0, small, 150, Some(0)));
    }
}
