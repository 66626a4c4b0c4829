//! Instance types and their on-demand prices.
//!
//! The paper builds the lock service on `m1.small` ($0.044–0.061/h
//! on-demand depending on region) and the storage service on `m3.large`
//! ($0.14–0.201/h). Two further 2014-era types are included for API
//! completeness. On-demand prices are per-region constants; spot prices
//! come from [`crate::trace`].

use std::fmt;

use crate::money::Price;
use crate::topology::Region;

/// An EC2 instance type from the 2014 catalogue.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum InstanceType {
    /// `m1.small` — 1 vCPU, 1.7 GiB; the lock-service instance type.
    M1Small,
    /// `m1.medium` — 1 vCPU, 3.75 GiB.
    M1Medium,
    /// `c3.large` — 2 vCPU, 3.75 GiB, compute-optimized.
    C3Large,
    /// `m3.large` — 2 vCPU, 7.5 GiB; the storage-service instance type.
    M3Large,
}

impl InstanceType {
    /// All supported types.
    pub const ALL: [InstanceType; 4] = [
        InstanceType::M1Small,
        InstanceType::M1Medium,
        InstanceType::C3Large,
        InstanceType::M3Large,
    ];

    /// The API name, e.g. `m1.small`.
    pub fn api_name(self) -> &'static str {
        match self {
            InstanceType::M1Small => "m1.small",
            InstanceType::M1Medium => "m1.medium",
            InstanceType::C3Large => "c3.large",
            InstanceType::M3Large => "m3.large",
        }
    }

    /// Hourly on-demand price in `region`.
    ///
    /// Values reproduce the ranges the paper quotes: `m1.small` spans
    /// $0.044 (US East) to $0.061 (São Paulo); `m3.large` spans $0.140 to
    /// $0.201.
    pub fn on_demand_price(self, region: Region) -> Price {
        let dollars = match self {
            InstanceType::M1Small => match region {
                Region::UsEast1 | Region::UsWest2 => 0.044,
                Region::UsWest1 | Region::EuWest1 => 0.047,
                Region::EuCentral1 => 0.050,
                Region::ApSoutheast1 | Region::ApSoutheast2 => 0.058,
                Region::ApNortheast1 | Region::SaEast1 => 0.061,
            },
            InstanceType::M1Medium => match region {
                Region::UsEast1 | Region::UsWest2 => 0.087,
                Region::UsWest1 | Region::EuWest1 => 0.095,
                Region::EuCentral1 => 0.101,
                Region::ApSoutheast1 | Region::ApSoutheast2 => 0.117,
                Region::ApNortheast1 | Region::SaEast1 => 0.122,
            },
            InstanceType::C3Large => match region {
                Region::UsEast1 | Region::UsWest2 => 0.105,
                Region::UsWest1 | Region::EuWest1 => 0.120,
                Region::EuCentral1 => 0.129,
                Region::ApSoutheast1 | Region::ApSoutheast2 => 0.132,
                Region::ApNortheast1 => 0.128,
                Region::SaEast1 => 0.163,
            },
            InstanceType::M3Large => match region {
                Region::UsEast1 | Region::UsWest2 => 0.140,
                Region::UsWest1 | Region::EuWest1 => 0.154,
                Region::EuCentral1 => 0.158,
                Region::ApSoutheast1 => 0.196,
                Region::ApSoutheast2 => 0.186,
                Region::ApNortheast1 => 0.183,
                Region::SaEast1 => 0.201,
            },
        };
        Price::from_dollars(dollars)
    }

    /// Serving strength relative to one `m1.small` (ECU-style capacity
    /// units, rounded to integers so strength arithmetic stays exact): an
    /// `m3.large` counts as four `m1.small`s of request-serving capacity.
    /// Heterogeneous fleet planning allocates against Σ weights rather
    /// than node counts.
    pub fn capacity_weight(self) -> u32 {
        match self {
            InstanceType::M1Small => 1,
            InstanceType::M1Medium => 2,
            InstanceType::C3Large => 3,
            InstanceType::M3Large => 4,
        }
    }

    /// Index of this type in [`InstanceType::ALL`] — the deterministic
    /// tie-break ordinal used wherever pools are sorted.
    pub fn ordinal(self) -> usize {
        match self {
            InstanceType::M1Small => 0,
            InstanceType::M1Medium => 1,
            InstanceType::C3Large => 2,
            InstanceType::M3Large => 3,
        }
    }
}

impl fmt::Display for InstanceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.api_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn m1_small_price_range_matches_paper() {
        let prices: Vec<f64> = Region::ALL
            .iter()
            .map(|&r| InstanceType::M1Small.on_demand_price(r).as_dollars())
            .collect();
        let lo = prices.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = prices.iter().cloned().fold(0.0, f64::max);
        assert!((lo - 0.044).abs() < 1e-9, "lo={lo}");
        assert!((hi - 0.061).abs() < 1e-9, "hi={hi}");
    }

    #[test]
    fn m3_large_price_range_matches_paper() {
        let prices: Vec<f64> = Region::ALL
            .iter()
            .map(|&r| InstanceType::M3Large.on_demand_price(r).as_dollars())
            .collect();
        let lo = prices.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = prices.iter().cloned().fold(0.0, f64::max);
        assert!((lo - 0.140).abs() < 1e-9, "lo={lo}");
        assert!((hi - 0.201).abs() < 1e-9, "hi={hi}");
    }

    #[test]
    fn capacity_weights_are_monotone_in_price() {
        // Strength per dollar is what the heterogeneous optimizer trades
        // on; the weights must at least rank with size.
        assert_eq!(InstanceType::M1Small.capacity_weight(), 1);
        assert_eq!(InstanceType::M3Large.capacity_weight(), 4);
        for w in InstanceType::ALL.windows(2) {
            assert!(w[0].capacity_weight() < w[1].capacity_weight());
        }
        for (i, ty) in InstanceType::ALL.iter().enumerate() {
            assert_eq!(ty.ordinal(), i);
        }
    }

    #[test]
    fn bigger_types_cost_more() {
        for r in Region::ALL {
            let small = InstanceType::M1Small.on_demand_price(r);
            let medium = InstanceType::M1Medium.on_demand_price(r);
            let large = InstanceType::M3Large.on_demand_price(r);
            assert!(small < medium && medium < large, "{r}");
        }
    }
}
