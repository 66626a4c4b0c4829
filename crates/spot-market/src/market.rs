//! The market facade: a bundle of price traces plus query and billing
//! helpers, the single object the bidding framework and replay harness talk
//! to.

use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::billing::{spot_charge, Termination};
use crate::capacity::{CapacityProcess, InterruptionNotice};
use crate::gen::{GenParams, TraceGenerator};
use crate::instance::InstanceType;
use crate::money::Price;
use crate::pool::PoolTable;
use crate::topology::Zone;
use crate::trace::PriceTrace;

/// Configuration of a simulated market.
#[derive(Clone, Debug)]
pub struct MarketConfig {
    /// Seed driving trace generation and startup-delay sampling.
    pub seed: u64,
    /// The zones trading in this market.
    pub zones: Vec<Zone>,
    /// The instance types traded.
    pub types: Vec<InstanceType>,
    /// Trace length in minutes.
    pub horizon_minutes: u64,
    /// Generator parameters (see [`GenParams`]).
    pub gen_params: GenParams,
    /// Per-type overrides of `gen_params` — the heterogeneous-pool axis.
    /// A type listed here gets its own price process (distinct AR
    /// personality); types not listed fall back to `gen_params`. Empty
    /// (the default) reproduces the legacy single-process market
    /// byte-for-byte.
    pub type_params: Vec<(InstanceType, GenParams)>,
    /// Extra startup delay in whole minutes added per type on top of the
    /// zone's sampled delay (bigger images provision slower). Types not
    /// listed get no surcharge; empty preserves legacy delays exactly.
    pub type_startup_extra: Vec<(InstanceType, u64)>,
}

impl MarketConfig {
    /// The paper's experimental setup: 17 availability zones, `m1.small`
    /// and `m3.large`, for the given horizon.
    pub fn paper(seed: u64, horizon_minutes: u64) -> Self {
        MarketConfig {
            seed,
            zones: crate::topology::experiment_zones(),
            types: vec![InstanceType::M1Small, InstanceType::M3Large],
            horizon_minutes,
            gen_params: GenParams::default(),
            type_params: Vec::new(),
            type_startup_extra: Vec::new(),
        }
    }

    /// A heterogeneous-pool market: the paper's setup plus distinct price
    /// processes per type (larger types are calmer but pricier, with rarer
    /// spikes and longer sojourns) and per-type startup surcharges. This is
    /// the market the `hetero` sweeps and the auto-scaler race on.
    pub fn hetero_paper(seed: u64, horizon_minutes: u64) -> Self {
        let mut cfg = Self::paper(seed, horizon_minutes);
        // m3.large pools: deeper discount at the base, lower spike ceiling
        // and stickier sojourns — the "reliable but expensive per node"
        // regime Qu et al. describe for bigger types.
        let large = GenParams {
            base_fraction: 0.095,
            top_fraction: 0.8,
            spike_prob: 0.000_25,
            mean_sojourn_short: 9.0,
            long_sojourn_prob: 0.2,
            ..GenParams::default()
        };
        // m1.medium pools sit between: slightly jumpier than small.
        let medium = GenParams {
            base_fraction: 0.105,
            spike_prob: 0.000_5,
            step_scale: 1.6,
            ..GenParams::default()
        };
        cfg.type_params = vec![
            (InstanceType::M1Medium, medium),
            (InstanceType::M3Large, large),
        ];
        cfg.type_startup_extra = vec![
            (InstanceType::M1Medium, 1),
            (InstanceType::C3Large, 1),
            (InstanceType::M3Large, 2),
        ];
        cfg
    }

    /// Generator parameters for `ty`: the per-type override if present,
    /// else the shared `gen_params`.
    pub(crate) fn params_for(&self, ty: InstanceType) -> &GenParams {
        self.type_params
            .iter()
            .find(|(t, _)| *t == ty)
            .map(|(_, p)| p)
            .unwrap_or(&self.gen_params)
    }

    /// The per-type startup surcharge in minutes (0 if unlisted).
    pub(crate) fn startup_extra(&self, ty: InstanceType) -> u64 {
        self.type_startup_extra
            .iter()
            .find(|(t, _)| *t == ty)
            .map_or(0, |(_, m)| *m)
    }
}

/// A complete spot market over a fixed horizon: per-(zone, type) price
/// traces, out-of-bid resolution, billing and startup delays.
#[derive(Clone, Debug)]
pub struct Market {
    config: MarketConfig,
    /// Shared, so a failure model can hold its pool's trace and cut the
    /// windows it was shown only when it is read.
    traces: PoolTable<Arc<PriceTrace>>,
    capacity: PoolTable<CapacityProcess>,
}

/// Materialize every pool's hidden capacity timeline (the post-2017
/// interruption regime, see [`crate::capacity`]). Seed streams are
/// disjoint from the price streams, so this never changes a trace byte;
/// the timelines only matter to replays under `BidEra::CapacityReclaim`.
fn build_capacity(config: &MarketConfig) -> PoolTable<CapacityProcess> {
    let mut table = PoolTable::new();
    for &ty in &config.types {
        for &zone in &config.zones {
            table.insert(
                zone,
                ty,
                CapacityProcess::generate(config.seed, zone, ty, config.horizon_minutes),
            );
        }
    }
    table
}

impl Market {
    /// Generate a market from its configuration (deterministic).
    pub fn generate(config: MarketConfig) -> Self {
        let mut traces = PoolTable::new();
        for &ty in &config.types {
            let gen = TraceGenerator::with_params(config.seed, config.params_for(ty).clone());
            for &zone in &config.zones {
                let trace = gen.generate(zone, ty, config.horizon_minutes);
                traces.insert(zone, ty, Arc::new(trace));
            }
        }
        let capacity = build_capacity(&config);
        Market {
            config,
            traces,
            capacity,
        }
    }

    /// The zones trading in this market.
    pub fn zones(&self) -> &[Zone] {
        &self.config.zones
    }

    /// Trace horizon in minutes.
    pub fn horizon(&self) -> u64 {
        self.config.horizon_minutes
    }

    /// The full trace for `(zone, ty)`, as the handle
    /// `FailureModel::observe` takes (it derefs to the [`PriceTrace`]).
    pub fn trace(&self, zone: Zone, ty: InstanceType) -> &Arc<PriceTrace> {
        self.traces
            .get(zone, ty)
            .unwrap_or_else(|| panic!("no trace for {zone} {ty}"))
    }

    /// The spot price of `(zone, ty)` at `minute`.
    pub fn price(&self, zone: Zone, ty: InstanceType, minute: u64) -> Price {
        self.trace(zone, ty).price_at(minute)
    }

    /// Whether a spot request with `bid` would be granted at `minute`
    /// (bid at or above the current price).
    pub fn grants(&self, zone: Zone, ty: InstanceType, bid: Price, minute: u64) -> bool {
        bid >= self.price(zone, ty, minute)
    }

    /// The minute at which an instance launched at `from` with `bid` is
    /// out-of-bid terminated (first minute with `price > bid`), or `None`
    /// if it survives to `until`.
    pub fn out_of_bid_at(
        &self,
        zone: Zone,
        ty: InstanceType,
        bid: Price,
        from: u64,
        until: u64,
    ) -> Option<u64> {
        self.trace(zone, ty).first_minute_above(bid, from, until)
    }

    /// The hidden capacity process of `(zone, ty)` — the post-2017
    /// interruption timeline a `CapacityReclaim`-era replay kills by.
    pub fn capacity(&self, zone: Zone, ty: InstanceType) -> &CapacityProcess {
        self.capacity
            .get(zone, ty)
            .unwrap_or_else(|| panic!("no capacity process for {zone} {ty}"))
    }

    /// The first capacity reclamation of `(zone, ty)` at or after `from`,
    /// strictly before `until` — the capacity-era analogue of
    /// [`Market::out_of_bid_at`] (the bid plays no part).
    pub fn next_reclaim_at(
        &self,
        zone: Zone,
        ty: InstanceType,
        from: u64,
        until: u64,
    ) -> Option<u64> {
        self.capacity(zone, ty).next_reclaim_at(from, until)
    }

    /// Every pool's interruption notices emitted in `[from, until)`,
    /// sorted by emission minute then pool ordinal (deterministic across
    /// platforms and thread counts).
    pub fn notices_in(&self, from: u64, until: u64) -> Vec<InterruptionNotice> {
        let mut out: Vec<InterruptionNotice> = self
            .capacity
            .values()
            .flat_map(|p| p.notices_in(from, until))
            .collect();
        out.sort_by_key(|n| (n.at_minute, n.zone.ordinal(), n.instance_type as u64));
        out
    }

    /// How many notices [`Market::notices_in`] would return, without
    /// collecting them.
    pub fn notice_count(&self, from: u64, until: u64) -> usize {
        self.capacity
            .values()
            .map(|p| p.notices_in(from, until).len())
            .sum()
    }

    /// Billing for a spot instance lifetime (see [`spot_charge`]).
    pub fn charge(
        &self,
        zone: Zone,
        ty: InstanceType,
        launch: u64,
        end: u64,
        termination: Termination,
    ) -> Price {
        spot_charge(self.trace(zone, ty), launch, end, termination)
    }

    /// Sample a startup delay in minutes for launching a `ty` instance in
    /// `zone`.
    ///
    /// The zone's delay is deterministic in `(market seed, zone, minute)`;
    /// ranges follow `crate::topology::Region::startup_range_secs`,
    /// rounded up to whole minutes (4–12 typically). The per-type
    /// surcharge of `MarketConfig::startup_extra` comes on top (0 unless
    /// configured, so single-type markets see the zone delay alone).
    pub fn startup_delay_minutes(&self, zone: Zone, ty: InstanceType, minute: u64) -> u64 {
        let (lo, hi) = zone.region.startup_range_secs();
        let mut seed = self
            .config
            .seed
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(zone.ordinal() as u64)
            .wrapping_mul(0xE703_7ED1_A0B4_28DB)
            .wrapping_add(minute);
        seed ^= seed >> 32;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let secs = rng.gen_range(lo..=hi);
        secs.div_ceil(60) + self.config.startup_extra(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Region;

    fn small_market() -> Market {
        let mut cfg = MarketConfig::paper(11, 7 * 24 * 60);
        cfg.zones.truncate(4);
        cfg.types = vec![InstanceType::M1Small];
        Market::generate(cfg)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_market();
        let b = small_market();
        for &z in a.zones() {
            assert_eq!(
                a.trace(z, InstanceType::M1Small),
                b.trace(z, InstanceType::M1Small)
            );
        }
    }

    #[test]
    fn grant_semantics() {
        let m = small_market();
        let z = m.zones()[0];
        let p = m.price(z, InstanceType::M1Small, 0);
        assert!(m.grants(z, InstanceType::M1Small, p, 0));
        assert!(!m.grants(z, InstanceType::M1Small, p - Price::TICK, 0));
    }

    #[test]
    fn out_of_bid_is_first_minute_strictly_above() {
        let m = small_market();
        let z = m.zones()[0];
        let t = m.trace(z, InstanceType::M1Small);
        let max = t.max_price_in(0, t.horizon());
        // Bidding the trace max never fails.
        assert_eq!(
            m.out_of_bid_at(z, InstanceType::M1Small, max, 0, t.horizon()),
            None
        );
        // Bidding below the max fails at some minute, and at that minute
        // the price strictly exceeds the bid.
        let bid = max - Price::TICK;
        if let Some(k) = m.out_of_bid_at(z, InstanceType::M1Small, bid, 0, t.horizon()) {
            assert!(t.price_at(k) > bid);
            if k > 0 {
                assert!(t.price_at(k - 1) <= bid || k == 0);
            }
        }
    }

    #[test]
    fn startup_delays_in_range() {
        let m = small_market();
        for &z in m.zones() {
            let (lo, hi) = z.region.startup_range_secs();
            for minute in [0u64, 100, 5_000] {
                let d = m.startup_delay_minutes(z, InstanceType::M1Small, minute);
                assert!(d >= lo / 60 && d <= hi.div_ceil(60), "{}: {d}", z.name());
            }
        }
    }

    #[test]
    fn hetero_config_overrides_only_listed_types() {
        let horizon = 7 * 24 * 60;
        let mut hetero = MarketConfig::hetero_paper(11, horizon);
        hetero.zones.truncate(3);
        let mut legacy = MarketConfig::paper(11, horizon);
        legacy.zones.truncate(3);
        let h = Market::generate(hetero);
        let l = Market::generate(legacy);
        for &z in l.zones() {
            // m1.small keeps the shared process: identical traces.
            assert_eq!(
                h.trace(z, InstanceType::M1Small),
                l.trace(z, InstanceType::M1Small)
            );
            // m3.large gets its own personality: the traces diverge.
            assert_ne!(
                h.trace(z, InstanceType::M3Large),
                l.trace(z, InstanceType::M3Large)
            );
            // Startup surcharge applies per type, on top of the zone delay.
            let base = h.startup_delay_minutes(z, InstanceType::M1Small, 100);
            assert_eq!(
                base,
                l.startup_delay_minutes(z, InstanceType::M1Small, 100),
                "m1.small carries no surcharge"
            );
            assert_eq!(
                h.startup_delay_minutes(z, InstanceType::M3Large, 100),
                base + 2
            );
            assert_eq!(
                l.startup_delay_minutes(z, InstanceType::M3Large, 100),
                l.startup_delay_minutes(z, InstanceType::M1Small, 100),
                "legacy config has no surcharge"
            );
        }
    }

    #[test]
    #[should_panic(expected = "no trace")]
    fn missing_pair_panics() {
        let m = small_market();
        m.price(Zone::new(Region::SaEast1, 1), InstanceType::M1Small, 0);
    }

    #[test]
    fn capacity_processes_never_perturb_prices() {
        // The capacity streams are seeded off disjoint mixers, so a
        // market that carries them prices identically to one whose
        // processes were never queried — and the timelines themselves
        // are seed-deterministic and consistent across market queries.
        let a = small_market();
        let b = small_market();
        let z = a.zones()[0];
        let ty = InstanceType::M1Small;
        let _ = a.notices_in(0, a.horizon());
        let _ = a.next_reclaim_at(z, ty, 0, a.horizon());
        for minute in (0..a.horizon()).step_by(977) {
            assert_eq!(a.price(z, ty, minute), b.price(z, ty, minute));
        }
        assert_eq!(a.capacity(z, ty), b.capacity(z, ty));
    }

    #[test]
    fn market_notices_cover_every_pool_reclaim() {
        let m = small_market();
        let horizon = m.horizon();
        let per_pool: usize = m
            .zones()
            .iter()
            .map(|&z| {
                let pool = m.capacity(z, InstanceType::M1Small);
                let mut reclaims = 0;
                let mut from = 0;
                while let Some(d) = pool.next_reclaim_at(from, horizon) {
                    reclaims += 1;
                    from = d + 1;
                }
                reclaims
            })
            .sum();
        assert_eq!(m.notices_in(0, horizon).len(), per_pool);
        assert_eq!(m.notice_count(0, horizon), per_pool);
        let mid = horizon / 2;
        assert_eq!(
            m.notice_count(mid, horizon),
            m.notices_in(mid, horizon).len()
        );
        // Market-wide notices come out time-ordered.
        let notices = m.notices_in(0, horizon);
        for w in notices.windows(2) {
            assert!(w[0].at_minute <= w[1].at_minute);
        }
    }
}
