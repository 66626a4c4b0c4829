//! Regions and availability zones (paper Table 1) plus the startup-delay
//! model.
//!
//! The paper's experiments span 17 of the 24 availability zones of early
//! 2015; out-of-bid failures are isolated per availability zone because each
//! zone runs its own spot market, so a geo-replicated service places at most
//! one instance per zone (failure independence).

use std::fmt::{self, Write};

/// An Amazon EC2 region (Table 1 of the paper).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Region {
    /// US East (Virginia), 4 availability zones.
    UsEast1,
    /// US West (Oregon), 3 availability zones.
    UsWest2,
    /// US West (California), 3 availability zones.
    UsWest1,
    /// EU (Ireland), 3 availability zones.
    EuWest1,
    /// EU (Frankfurt), 2 availability zones.
    EuCentral1,
    /// Asia Pacific (Singapore), 2 availability zones.
    ApSoutheast1,
    /// Asia Pacific (Tokyo), 3 availability zones.
    ApNortheast1,
    /// Asia Pacific (Sydney), 2 availability zones.
    ApSoutheast2,
    /// South America (São Paulo), 2 availability zones.
    SaEast1,
}

impl Region {
    /// All nine regions, in Table 1 order.
    pub const ALL: [Region; 9] = [
        Region::UsEast1,
        Region::UsWest2,
        Region::UsWest1,
        Region::EuWest1,
        Region::EuCentral1,
        Region::ApSoutheast1,
        Region::ApNortheast1,
        Region::ApSoutheast2,
        Region::SaEast1,
    ];

    /// The region's API name, e.g. `us-east-1`.
    pub fn api_name(self) -> &'static str {
        match self {
            Region::UsEast1 => "us-east-1",
            Region::UsWest2 => "us-west-2",
            Region::UsWest1 => "us-west-1",
            Region::EuWest1 => "eu-west-1",
            Region::EuCentral1 => "eu-central-1",
            Region::ApSoutheast1 => "ap-southeast-1",
            Region::ApNortheast1 => "ap-northeast-1",
            Region::ApSoutheast2 => "ap-southeast-2",
            Region::SaEast1 => "sa-east-1",
        }
    }

    /// The human-readable location from Table 1.
    pub fn location(self) -> &'static str {
        match self {
            Region::UsEast1 => "Virginia",
            Region::UsWest2 => "Oregon",
            Region::UsWest1 => "California",
            Region::EuWest1 => "Ireland",
            Region::EuCentral1 => "Frankfurt",
            Region::ApSoutheast1 => "Singapore",
            Region::ApNortheast1 => "Tokyo",
            Region::ApSoutheast2 => "Sydney",
            Region::SaEast1 => "Sao Paulo",
        }
    }

    /// Number of availability zones (Table 1).
    pub const fn az_count(self) -> usize {
        match self {
            Region::UsEast1 => 4,
            Region::UsWest2 => 3,
            Region::UsWest1 => 3,
            Region::EuWest1 => 3,
            Region::EuCentral1 => 2,
            Region::ApSoutheast1 => 2,
            Region::ApNortheast1 => 3,
            Region::ApSoutheast2 => 2,
            Region::SaEast1 => 2,
        }
    }

    /// Instance startup-delay range in seconds.
    ///
    /// Mao & Humphrey (cited by the paper as \[25\]) measured 200–700 s VM
    /// startup times that "mainly vary in regions"; we give each region a
    /// stable sub-range of that interval.
    pub(crate) fn startup_range_secs(self) -> (u64, u64) {
        match self {
            Region::UsEast1 => (200, 350),
            Region::UsWest2 => (220, 380),
            Region::UsWest1 => (230, 400),
            Region::EuWest1 => (250, 420),
            Region::EuCentral1 => (260, 450),
            Region::ApSoutheast1 => (300, 550),
            Region::ApNortheast1 => (280, 500),
            Region::ApSoutheast2 => (320, 600),
            Region::SaEast1 => (400, 700),
        }
    }
}

/// Ordinal of each region's first zone: the prefix sums of
/// [`Region::az_count`] over [`Region::ALL`], indexed by `region as usize`
/// (the enum declares its variants in `ALL` order).
const ZONE_BASE: [usize; Region::ALL.len()] = {
    let mut base = [0; Region::ALL.len()];
    let mut i = 1;
    while i < Region::ALL.len() {
        base[i] = base[i - 1] + Region::ALL[i - 1].az_count();
        i += 1;
    }
    base
};

/// Number of availability zones across all regions (Table 1): 24.
pub const ZONE_COUNT: usize =
    ZONE_BASE[Region::ALL.len() - 1] + Region::ALL[Region::ALL.len() - 1].az_count();

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.api_name())
    }
}

/// A single availability zone: a region plus a zone letter index
/// (0 → `a`, 1 → `b`, …).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Zone {
    /// The region this zone belongs to.
    pub region: Region,
    /// Zone index within the region (0-based; rendered as a letter).
    pub index: u8,
}

impl Zone {
    /// Create a zone, checking the index against Table 1.
    pub fn new(region: Region, index: u8) -> Self {
        assert!(
            (index as usize) < region.az_count(),
            "{} has only {} zones, index {index} invalid",
            region.api_name(),
            region.az_count()
        );
        Zone { region, index }
    }

    /// The zone's API-style name, e.g. `us-east-1a`.
    pub fn name(self) -> String {
        self.to_string()
    }

    /// A stable small integer unique across all zones, `0..ZONE_COUNT`
    /// in [`all_zones`] order (for seeding and dense indexing).
    pub fn ordinal(self) -> usize {
        ZONE_BASE[self.region as usize] + self.index as usize
    }
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.region.api_name())?;
        f.write_char((b'a' + self.index) as char)
    }
}

/// All 24 availability zones of Table 1, in region order.
pub fn all_zones() -> Vec<Zone> {
    Region::ALL
        .into_iter()
        .flat_map(|r| {
            (0..r.az_count() as u8).map(move |i| Zone {
                region: r,
                index: i,
            })
        })
        .collect()
}

/// The 17 availability zones used in the paper's experiments (§5.2).
///
/// The paper does not enumerate which 17 of the 24 zones it used; we take a
/// fixed, documented subset: every zone except the last zone of each
/// multi-zone region beyond the first two per region — concretely, at most
/// two zones per region, plus the extra zones of the large US regions. The
/// exact membership matters far less than the count and the cross-region
/// spread, which both match the paper.
pub fn experiment_zones() -> Vec<Zone> {
    let mut zones = Vec::with_capacity(17);
    for r in Region::ALL {
        // Two zones per region where available, one otherwise: 9 regions
        // yield 17 once single-extra adjustments below are applied.
        let take = match r {
            // 4-zone region contributes 3.
            Region::UsEast1 => 3,
            // 3-zone regions contribute 2.
            Region::UsWest2 | Region::UsWest1 | Region::EuWest1 | Region::ApNortheast1 => 2,
            // 2-zone regions contribute 2 or 1 to land exactly on 17.
            Region::EuCentral1 | Region::ApSoutheast1 | Region::ApSoutheast2 => 2,
            Region::SaEast1 => 0,
        };
        for i in 0..take {
            zones.push(Zone::new(r, i));
        }
    }
    debug_assert_eq!(zones.len(), 17);
    zones
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InstanceType, PoolTable};
    use std::collections::HashSet;

    #[test]
    fn table1_counts() {
        let counts: Vec<usize> = Region::ALL.iter().map(|r| r.az_count()).collect();
        assert_eq!(counts, vec![4, 3, 3, 3, 2, 2, 3, 2, 2]);
        assert_eq!(all_zones().len(), 24);
    }

    #[test]
    fn zone_names() {
        assert_eq!(Zone::new(Region::UsEast1, 0).name(), "us-east-1a");
        assert_eq!(Zone::new(Region::UsEast1, 3).name(), "us-east-1d");
        assert_eq!(Zone::new(Region::SaEast1, 1).name(), "sa-east-1b");
    }

    #[test]
    #[should_panic(expected = "only")]
    fn invalid_zone_index_panics() {
        Zone::new(Region::EuCentral1, 2);
    }

    #[test]
    fn ordinals_are_dense_and_unique() {
        let zones = all_zones();
        let ords: HashSet<usize> = zones.iter().map(|z| z.ordinal()).collect();
        assert_eq!(ords.len(), 24);
        assert_eq!(ZONE_COUNT, 24);
        assert_eq!(*ords.iter().max().unwrap(), 23);
        assert_eq!(Zone::new(Region::UsEast1, 0).ordinal(), 0);
        assert_eq!(Zone::new(Region::UsWest2, 0).ordinal(), 4);
        // The table is the prefix sums of `az_count` over `Region::ALL`,
        // so every zone's ordinal is its position in `all_zones`.
        let mut base = 0;
        for r in Region::ALL {
            for i in 0..r.az_count() {
                assert_eq!(Zone::new(r, i as u8).ordinal(), base + i, "{r} zone {i}");
            }
            base += r.az_count();
        }
        for (position, zone) in zones.iter().enumerate() {
            assert_eq!(zone.ordinal(), position, "{zone}");
        }
        // The pool slot map is a bijection from zones × types onto
        // `0..PoolTable::SLOTS`.
        let mut hit = [false; PoolTable::<()>::SLOTS];
        for &zone in &zones {
            for ty in InstanceType::ALL {
                let slot = PoolTable::<()>::slot(zone, ty);
                assert!(
                    !std::mem::replace(&mut hit[slot], true),
                    "{zone} {ty} shares {slot}"
                );
            }
        }
        assert_eq!(zones.len() * InstanceType::ALL.len(), hit.len());
        assert!(hit.iter().all(|&h| h));
    }

    #[test]
    fn experiment_zone_set() {
        let zones = experiment_zones();
        assert_eq!(zones.len(), 17);
        let unique: HashSet<Zone> = zones.iter().copied().collect();
        assert_eq!(unique.len(), 17);
        // More than 20 AZs exist; 17 spread over at least 8 regions gives
        // plenty of room for 5- or 7-node Paxos groups.
        let regions: HashSet<Region> = zones.iter().map(|z| z.region).collect();
        assert!(regions.len() >= 8);
    }

    #[test]
    fn startup_ranges_within_paper_bounds() {
        for r in Region::ALL {
            let (lo, hi) = r.startup_range_secs();
            assert!(lo >= 200 && hi <= 700 && lo < hi, "{r}: {lo}..{hi}");
        }
    }
}
