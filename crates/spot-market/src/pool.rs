//! Dense per-pool tables.
//!
//! A pool is one `(zone, instance type)` pair. The catalogue is fixed
//! (Table 1's 24 zones × the 4 instance types), so a pool's slot is
//! `zone.ordinal() * InstanceType::ALL.len() + ty.ordinal()`: a table of
//! 96 slots replaces a hash map, a lookup is one multiply-add, and
//! iteration runs in slot order (zones outer, types inner).

use std::ops::Index;

use crate::instance::InstanceType;
use crate::topology::{Zone, ZONE_COUNT};

/// A map from pools to `T`, one slot per pool of the whole catalogue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolTable<T> {
    slots: Vec<Option<T>>,
}

impl<T> PoolTable<T> {
    /// Slots in every table: every zone × every instance type.
    pub(crate) const SLOTS: usize = ZONE_COUNT * InstanceType::ALL.len();

    /// The slot of `(zone, ty)`, in `0..SLOTS`.
    pub(crate) fn slot(zone: Zone, ty: InstanceType) -> usize {
        zone.ordinal() * InstanceType::ALL.len() + ty.ordinal()
    }

    /// An empty table.
    pub fn new() -> Self {
        PoolTable {
            slots: (0..Self::SLOTS).map(|_| None).collect(),
        }
    }

    /// The value of `(zone, ty)`, if one was inserted.
    pub fn get(&self, zone: Zone, ty: InstanceType) -> Option<&T> {
        self.slots[Self::slot(zone, ty)].as_ref()
    }

    /// The value of `(zone, ty)`, mutably.
    pub fn get_mut(&mut self, zone: Zone, ty: InstanceType) -> Option<&mut T> {
        self.slots[Self::slot(zone, ty)].as_mut()
    }

    /// Set the value of `(zone, ty)`, returning the one it replaces.
    pub fn insert(&mut self, zone: Zone, ty: InstanceType, value: T) -> Option<T> {
        self.slots[Self::slot(zone, ty)].replace(value)
    }

    /// The value of `(zone, ty)`, inserting `make()` first if absent.
    pub fn get_or_insert_with(
        &mut self,
        zone: Zone,
        ty: InstanceType,
        make: impl FnOnce() -> T,
    ) -> &mut T {
        self.slots[Self::slot(zone, ty)].get_or_insert_with(make)
    }

    /// Every present value, in slot order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// Every present value, mutably, in slot order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }
}

impl<T> Default for PoolTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Index<(Zone, InstanceType)> for PoolTable<T> {
    type Output = T;

    /// The value of a pool that must be present.
    fn index(&self, (zone, ty): (Zone, InstanceType)) -> &T {
        self.get(zone, ty)
            .unwrap_or_else(|| panic!("no entry for pool {zone} {ty}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::all_zones;

    #[test]
    fn slots_hold_their_own_pool() {
        let zones = all_zones();
        let mut t = PoolTable::new();
        for &z in &zones {
            for ty in InstanceType::ALL {
                assert_eq!(t.insert(z, ty, (z, ty)), None);
            }
        }
        for &z in &zones {
            for ty in InstanceType::ALL {
                assert_eq!(t[(z, ty)], (z, ty));
            }
        }
        // Slot order: zones outer in ordinal order, types inner.
        let order: Vec<_> = t.values().copied().collect();
        let expect: Vec<_> = zones
            .iter()
            .flat_map(|&z| InstanceType::ALL.map(|ty| (z, ty)))
            .collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn absent_pools_read_none() {
        let mut t: PoolTable<u32> = PoolTable::default();
        let z = all_zones()[3];
        assert_eq!(t.get(z, InstanceType::M1Small), None);
        *t.get_or_insert_with(z, InstanceType::M1Small, || 4) += 1;
        *t.get_or_insert_with(z, InstanceType::M1Small, || 40) += 1;
        assert_eq!(t.get(z, InstanceType::M1Small), Some(&6));
        assert_eq!(t.get(z, InstanceType::M3Large), None);
        assert_eq!(t.values().count(), 1);
    }

    #[test]
    #[should_panic(expected = "no entry for pool")]
    fn indexing_an_absent_pool_panics() {
        let t: PoolTable<u32> = PoolTable::new();
        let _ = t[(all_zones()[0], InstanceType::M1Small)];
    }
}
