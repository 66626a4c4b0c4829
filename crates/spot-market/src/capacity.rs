//! Hidden capacity processes for the post-2017 spot era.
//!
//! The paper's market kills an instance the minute the spot price
//! exceeds its bid. Since AWS removed true bidding (2017), the real
//! interruption process is *capacity-driven*: a hidden per-pool supply
//! signal occasionally runs dry, the provider reclaims the instance, and
//! the tenant gets a two-minute interruption notice — preceded, often,
//! by a softer rebalance recommendation. This module models that regime
//! as a seeded, deterministic process per `(zone, instance-type)` pool,
//! reusing the AR(1) idioms of [`crate::ar`]:
//!
//! * a banded AR(1) *headroom* signal walks at Poisson-ish arrival
//!   times, with a per-pool personality drawn from the pool's own
//!   seeded stream;
//! * the first descent through the rebalance threshold records a
//!   rebalance recommendation (the early warning);
//! * a descent through the reclaim threshold schedules a reclamation at
//!   that minute, with its [`InterruptionNotice`] emitted the notice
//!   lead earlier; the kill itself frees capacity, so the signal resets
//!   to its mean and the pool re-arms.
//!
//! On top of the idiosyncratic pool signal, each *zone* carries a sparse
//! seeded schedule of capacity *crunches* — short windows in which every
//! pool in the zone reclaims (with a small per-pool jitter). Crunches
//! are what make same-zone pools correlated and cross-zone pools
//! independent, i.e. what a diversification-aware strategy can exploit.
//!
//! Everything here is a pure function of `(seed, zone, type, horizon)`:
//! pools never read each other's streams, so truncating the zone list or
//! dropping a type leaves every remaining pool's notices byte-identical.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::instance::InstanceType;
use crate::topology::Zone;

/// Which interruption regime a replay runs the market under.
///
/// `Bidding` is the paper's regime: out-of-bid termination, exactly as
/// before (the default — byte-identical to every pre-era replay).
/// `CapacityReclaim` replaces bid-vs-price kills with the hidden
/// capacity process: bids become capped-price declarations (they still
/// gate grants and cap billing, but never kill), and instances die only
/// when their pool reclaims.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BidEra {
    /// Pre-2017 spot: out-of-bid termination (the paper's model).
    #[default]
    Bidding,
    /// Post-2017 spot: capacity-driven reclamation with advance notice.
    CapacityReclaim,
}

impl BidEra {
    /// Short lowercase label for series prefixes and reports.
    pub fn label(&self) -> &'static str {
        match self {
            BidEra::Bidding => "bidding",
            BidEra::CapacityReclaim => "capacity",
        }
    }
}

impl std::fmt::Display for BidEra {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// Parameters of the hidden per-pool capacity process.
/// Stationary mean of the headroom signal (fraction of pool supply
/// held free).
const MEAN_HEADROOM: f64 = 0.32;
/// AR(1) persistence of the headroom signal.
const PHI: f64 = 0.92;
/// Innovation standard deviation.
const SIGMA: f64 = 0.045;
/// Reclamation threshold: a descent through this headroom level
/// reclaims the pool's instance at that minute.
const RECLAIM_THRESHOLD: f64 = 0.06;
/// Rebalance-recommendation threshold (early warning), above
/// `RECLAIM_THRESHOLD`.
const REBALANCE_THRESHOLD: f64 = 0.14;
/// Mean minutes between headroom updates (exponential arrivals, like
/// the AR(1) price process of [`crate::ar`]).
const MEAN_UPDATE_MINUTES: f64 = 7.0;
/// Minutes of advance notice before a reclamation lands (the
/// spot-market's "2-minute warning").
const NOTICE_LEAD_MINUTES: u64 = 2;
/// Mean minutes between zone-wide capacity crunches; during a crunch
/// every pool in the zone reclaims within a few jitter minutes.
const MEAN_CRUNCH_MINUTES: f64 = 4.0 * 24.0 * 60.0;

/// The advance warning a pool emits before reclaiming its instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InterruptionNotice {
    /// Zone of the pool being reclaimed.
    pub zone: Zone,
    /// Instance type of the pool being reclaimed.
    pub instance_type: InstanceType,
    /// Minute the notice is emitted.
    pub at_minute: u64,
    /// Minute the reclamation lands (`at_minute` + the notice lead).
    pub deadline: u64,
}

/// One pool's fully materialized capacity timeline: reclamation minutes
/// (each implying a notice [`CapacityProcess::lead`] minutes earlier) and
/// rebalance recommendations, over `[0, horizon)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CapacityProcess {
    zone: Zone,
    instance_type: InstanceType,
    /// Reclamation minutes, strictly increasing, each `>= lead()`.
    reclaims: Vec<u64>,
    /// Rebalance-recommendation minutes, strictly increasing.
    rebalances: Vec<u64>,
}

impl CapacityProcess {
    /// Materialize the pool's capacity timeline. Pure function of its
    /// arguments; pools never read each other's streams.
    pub(crate) fn generate(seed: u64, zone: Zone, ty: InstanceType, horizon_minutes: u64) -> Self {
        let mut rng = rng_for(seed, zone, ty);
        // Per-pool personality, drawn once (mirrors ar.rs): some pools
        // run deeper headroom than others, some are twitchier.
        let mean = MEAN_HEADROOM * rng.gen_range(0.8..1.25);
        let sigma = SIGMA * rng.gen_range(0.7..1.4);
        let phi = (PHI * rng.gen_range(0.97..1.01)).clamp(0.5, 0.995);

        let mut reclaims: Vec<u64> = Vec::new();
        let mut rebalances: Vec<u64> = Vec::new();
        let mut x = mean;
        let mut minute = 0u64;
        let mut rebalance_armed = true;
        loop {
            let u: f64 = rng.gen::<f64>();
            let u = u.max(1e-12);
            let dt = (-u.ln() * MEAN_UPDATE_MINUTES).ceil().max(1.0) as u64;
            minute += dt;
            if minute >= horizon_minutes {
                break;
            }
            x = mean + phi * (x - mean) + sigma * gauss(&mut rng);
            if x < RECLAIM_THRESHOLD {
                // A reclamation needs room for its advance notice; the
                // first minutes of the horizon cannot reclaim.
                if minute >= NOTICE_LEAD_MINUTES {
                    reclaims.push(minute);
                }
                // The kill frees supply: the signal recovers to its mean
                // and the early warning re-arms.
                x = mean;
                rebalance_armed = true;
            } else if x < REBALANCE_THRESHOLD {
                if rebalance_armed {
                    rebalances.push(minute);
                    rebalance_armed = false;
                }
            } else {
                rebalance_armed = true;
            }
        }

        // Zone-wide crunches, drawn from a *zone-only* stream so every
        // pool in the zone sees the same crunch minutes, then offset by
        // a small pool-specific jitter (from the pool stream, which is
        // already past its personality draws — but use a fresh derived
        // stream so the AR walk above is unperturbed).
        let mut zrng = rng_for_zone(seed, zone);
        let mut jrng = jitter_rng(seed, zone, ty);
        let mut at = 0u64;
        loop {
            let u: f64 = zrng.gen::<f64>();
            let u = u.max(1e-12);
            let dt = (-u.ln() * MEAN_CRUNCH_MINUTES).ceil().max(1.0) as u64;
            at += dt;
            if at >= horizon_minutes {
                break;
            }
            let jitter = jrng.gen_range(0..5u64);
            let kill = at + jitter;
            if (NOTICE_LEAD_MINUTES..horizon_minutes).contains(&kill) {
                reclaims.push(kill);
                // Crunches come with their own early warning a few
                // minutes out (the zone is visibly tightening).
                rebalances.push(kill.saturating_sub(jrng.gen_range(8..20u64)));
            }
        }
        reclaims.sort_unstable();
        reclaims.dedup();
        rebalances.sort_unstable();
        rebalances.dedup();

        CapacityProcess {
            zone,
            instance_type: ty,
            reclaims,
            rebalances,
        }
    }

    /// The notice lead, in minutes.
    pub fn lead(&self) -> u64 {
        NOTICE_LEAD_MINUTES
    }

    /// The first reclamation at or after `from`, strictly before
    /// `until`.
    pub(crate) fn next_reclaim_at(&self, from: u64, until: u64) -> Option<u64> {
        let idx = self.reclaims.partition_point(|&m| m < from);
        self.reclaims.get(idx).copied().filter(|&m| m < until)
    }

    /// Every interruption notice whose *emission* minute falls in
    /// `[from, until)`, in time order. Two bisections of the reclaim
    /// minutes find them.
    pub(crate) fn notices_in(
        &self,
        from: u64,
        until: u64,
    ) -> impl ExactSizeIterator<Item = InterruptionNotice> + '_ {
        // Every reclaim is at least the lead, so emission minutes never
        // underflow.
        let emitted = |d: &u64| d - NOTICE_LEAD_MINUTES;
        let first = self.reclaims.partition_point(|d| emitted(d) < from);
        let rest = &self.reclaims[first..];
        rest[..rest.partition_point(|d| emitted(d) < until)]
            .iter()
            .map(|&d| InterruptionNotice {
                zone: self.zone,
                instance_type: self.instance_type,
                at_minute: d - NOTICE_LEAD_MINUTES,
                deadline: d,
            })
    }

    /// The latest rebalance recommendation at or before `deadline` but
    /// not earlier than `floor` — the earliest actionable warning for a
    /// reclamation at `deadline`.
    pub fn last_rebalance_before(&self, deadline: u64, floor: u64) -> Option<u64> {
        let idx = self.rebalances.partition_point(|&m| m <= deadline);
        self.rebalances[..idx]
            .iter()
            .rev()
            .copied()
            .find(|&m| m >= floor)
    }
}

/// Gaussian via Box–Muller, same idiom as [`crate::ar`].
fn gauss(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(1e-12);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Pool-stream seeding: the ar.rs mixer, salted so capacity streams are
/// decorrelated from the price streams built from the same market seed.
fn rng_for(seed: u64, zone: Zone, ty: InstanceType) -> ChaCha8Rng {
    let mut x = (seed ^ 0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        .wrapping_add(zone.ordinal() as u64 + 211)
        .wrapping_mul(0x1656_67B1_9E37_79F9)
        .wrapping_add(ty as u64 + 23);
    x ^= x >> 30;
    ChaCha8Rng::seed_from_u64(x)
}

/// Zone-stream seeding for crunch minutes: type-independent, so every
/// pool in a zone shares the same crunch schedule.
fn rng_for_zone(seed: u64, zone: Zone) -> ChaCha8Rng {
    let mut x = (seed ^ 0xD1B5_4A32_D192_ED03)
        .wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
        .wrapping_add(zone.ordinal() as u64 + 307);
    x ^= x >> 30;
    ChaCha8Rng::seed_from_u64(x)
}

/// Per-pool jitter stream for crunch offsets, separate from the AR walk
/// stream so crunch parameters never perturb the idiosyncratic signal.
fn jitter_rng(seed: u64, zone: Zone, ty: InstanceType) -> ChaCha8Rng {
    let mut x = (seed ^ 0xA24B_AED4_963E_E407)
        .wrapping_mul(0x9FB2_1C65_1E98_DF25)
        .wrapping_add(zone.ordinal() as u64 * 131 + ty as u64 + 7);
    x ^= x >> 29;
    ChaCha8Rng::seed_from_u64(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::all_zones;

    const HORIZON: u64 = 2 * 7 * 24 * 60;

    fn process(seed: u64, zi: usize, ty: InstanceType) -> CapacityProcess {
        CapacityProcess::generate(seed, all_zones()[zi], ty, HORIZON)
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = process(2014, 0, InstanceType::M1Small);
        let b = process(2014, 0, InstanceType::M1Small);
        assert_eq!(a, b);
        let c = process(2015, 0, InstanceType::M1Small);
        assert_ne!(a, c, "different seeds give different timelines");
    }

    #[test]
    fn reclaims_are_increasing_and_leave_room_for_the_notice() {
        for seed in 0..20 {
            let p = process(seed, 1, InstanceType::M1Small);
            let mut last = 0;
            for &d in &p.reclaims {
                assert!(d >= p.lead(), "reclaim at {d} has no room for its notice");
                assert!(d > last || last == 0, "reclaims must increase");
                assert!(d < HORIZON);
                last = d;
            }
        }
    }

    #[test]
    fn every_reclaim_has_a_notice_at_the_configured_lead() {
        let p = process(7, 2, InstanceType::M1Small);
        let notices = p.notices_in(0, HORIZON);
        assert_eq!(notices.len(), p.reclaims.len());
        for (n, &d) in notices.zip(&p.reclaims) {
            assert_eq!(n.deadline, d);
            assert_eq!(n.deadline - n.at_minute, p.lead());
            assert_eq!(n.zone, p.zone);
            assert_eq!(n.instance_type, p.instance_type);
        }
    }

    #[test]
    fn default_rate_is_a_few_reclaims_per_pool_week() {
        let mut total = 0usize;
        let pools = 8;
        for zi in 0..pools {
            total += process(2014, zi, InstanceType::M1Small).reclaims.len();
        }
        let per_pool_week = total as f64 / pools as f64 / 2.0;
        assert!(
            (0.5..40.0).contains(&per_pool_week),
            "implausible reclaim rate: {per_pool_week}/pool-week"
        );
    }

    #[test]
    fn same_zone_pools_share_crunch_minutes() {
        let a = process(11, 3, InstanceType::M1Small);
        let b = process(11, 3, InstanceType::M3Large);
        // Crunch kills land within the 0..5-minute jitter of the shared
        // zone crunch; find at least one such correlated pair.
        let correlated = a.reclaims.iter().any(|&ra| {
            b.reclaims.iter().any(|&rb| ra.abs_diff(rb) <= 8)
        });
        assert!(correlated, "same-zone pools must share capacity crunches");
    }

    #[test]
    fn pools_are_independent_streams() {
        // Pool A's timeline is a pure function of (seed, zone, type):
        // generating with or without other pools in existence cannot
        // change it, and its notices only ever name itself.
        let alone = process(5, 0, InstanceType::M1Small);
        let _other = process(5, 4, InstanceType::C3Large);
        let again = process(5, 0, InstanceType::M1Small);
        assert_eq!(alone, again);
        for n in alone.notices_in(0, HORIZON) {
            assert_eq!((n.zone, n.instance_type), (alone.zone, alone.instance_type));
        }
    }

    #[test]
    fn range_queries_are_consistent() {
        let p = process(3, 1, InstanceType::M1Small);
        let all = p.notices_in(0, HORIZON).len();
        let mid = HORIZON / 2;
        let split = p.notices_in(0, mid).len() + p.notices_in(mid, HORIZON).len();
        assert_eq!(all, split, "half-open ranges must partition");
        if let Some(&first) = p.reclaims.first() {
            assert_eq!(p.next_reclaim_at(0, HORIZON), Some(first));
            assert_eq!(p.next_reclaim_at(first + 1, first + 1), None);
        }
    }

    #[test]
    fn bisecting_notices_match_the_scan() {
        // The reference filters every reclaim of the pool.
        let scan = |p: &CapacityProcess, from: u64, until: u64| -> Vec<InterruptionNotice> {
            p.reclaims
                .iter()
                .map(|&d| InterruptionNotice {
                    zone: p.zone,
                    instance_type: p.instance_type,
                    at_minute: d - p.lead(),
                    deadline: d,
                })
                .filter(|n| n.at_minute >= from && n.at_minute < until)
                .collect()
        };
        for seed in [3, 2014] {
            for (zi, ty) in [(0, InstanceType::M1Small), (5, InstanceType::M3Large)] {
                let p = process(seed, zi, ty);
                assert!(!p.reclaims.is_empty());
                // Bounds on, next to and between emission minutes, both
                // ends of the horizon, past it, and reversed ranges.
                let mut edges: Vec<u64> = p
                    .reclaims
                    .iter()
                    .flat_map(|&d| {
                        let at = d - p.lead();
                        [at.saturating_sub(1), at, at + 1, d]
                    })
                    .chain([0, 1, HORIZON - 1, HORIZON, HORIZON + 5])
                    .collect();
                edges.sort_unstable();
                edges.dedup();
                for &from in &edges {
                    for &until in &edges {
                        let fast: Vec<_> = p.notices_in(from, until).collect();
                        assert_eq!(fast, scan(&p, from, until), "{from}..{until}");
                        assert_eq!(p.notices_in(from, until).len(), fast.len());
                    }
                }
            }
        }
    }

    #[test]
    fn rebalance_warnings_usually_precede_reclaims() {
        // The headroom signal descends through the rebalance band before
        // the reclaim band, and crunches emit their own warning — so a
        // healthy majority of reclaims have an actionable earlier signal.
        let mut warned = 0usize;
        let mut total = 0usize;
        for zi in 0..6 {
            let p = process(2014, zi, InstanceType::M1Small);
            for &d in &p.reclaims {
                total += 1;
                if p.last_rebalance_before(d, d.saturating_sub(45)).is_some() {
                    warned += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            warned * 2 > total,
            "only {warned}/{total} reclaims had an early warning"
        );
    }

    #[test]
    fn era_labels_are_stable() {
        assert_eq!(BidEra::default(), BidEra::Bidding);
        assert_eq!(BidEra::Bidding.label(), "bidding");
        assert_eq!(BidEra::CapacityReclaim.label(), "capacity");
        assert_eq!(BidEra::CapacityReclaim.to_string(), "capacity");
    }
}
