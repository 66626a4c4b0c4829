//! The shared frozen-model store: one trained kernel per
//! (zone, instance type, trained-until minute), reused by every framework
//! that evaluates the same market history.
//!
//! The experiment sweeps replay the same market under many
//! (strategy, interval) cells; every cell used to refit the semi-Markov
//! kernel on the identical training prefix. The store memoizes the fit by
//! its identity key and hands out `Arc<FrozenKernel>` snapshots, so a
//! sweep performs at most zones × types fits no matter how many cells it
//! runs. Per-cell *online* refinement stays private: frameworks fork the
//! shared kernel copy-on-write (see [`spot_model::FrozenKernel::extend`]),
//! never mutating the stored base.
//!
//! Work counters (`model_store.fits_performed`, `model_store.fits_reused`)
//! make a redundant fit visible: `replay::scenario`'s tests assert them.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use obs::Obs;
use spot_market::{InstanceType, Zone};
use spot_model::FrozenKernel;

/// Identity of one trained kernel: the market slice it was fitted on.
///
/// `trained_until` is the exclusive end minute of the training window
/// (windows always start at 0 — replays train on the revealed prefix), so
/// two cells sharing a decision schedule share the key regardless of their
/// strategy or bidding interval.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ModelKey {
    /// Availability zone the trace belongs to.
    pub zone: Zone,
    /// Instance type of the trace.
    pub instance_type: InstanceType,
    /// Exclusive end minute of the `[0, trained_until)` training window.
    pub trained_until: u64,
}

/// A concurrent memo table of frozen kernels keyed by [`ModelKey`].
#[derive(Default)]
pub struct ModelStore {
    cells: Mutex<HashMap<ModelKey, Arc<OnceLock<Arc<FrozenKernel>>>>>,
    obs: Obs,
}

impl ModelStore {
    /// An empty store with observability disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty store recording `model_store.*` instruments into `obs`.
    pub fn with_obs(obs: Obs) -> Self {
        ModelStore {
            cells: Mutex::new(HashMap::new()),
            obs,
        }
    }

    /// The kernel for `key`, fitting it with `fit` on first request.
    ///
    /// Concurrent requests for the same key block on one fit (per-key
    /// `OnceLock`, so distinct keys still fit in parallel); every caller
    /// gets the same shared snapshot. Counts one of
    /// `model_store.fits_performed` / `model_store.fits_reused` per call.
    pub fn get_or_fit(
        &self,
        key: ModelKey,
        fit: impl FnOnce() -> FrozenKernel,
    ) -> Arc<FrozenKernel> {
        let cell = {
            let mut cells = self.cells.lock().expect("model store poisoned");
            Arc::clone(cells.entry(key).or_default())
        };
        let mut fitted = false;
        let kernel = Arc::clone(cell.get_or_init(|| {
            fitted = true;
            let fit_micros = self.obs.histogram("model_store.fit_micros");
            Arc::new(fit_micros.time(fit))
        }));
        if fitted {
            self.obs.counter("model_store.fits_performed").inc();
        } else {
            self.obs.counter("model_store.fits_reused").inc();
        }
        kernel
    }

    /// Number of distinct keys fitted so far.
    pub fn len(&self) -> usize {
        self.cells.lock().expect("model store poisoned").len()
    }

    /// Whether no kernel has been requested yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spot_market::{Price, PricePoint, PriceTrace};

    fn trace() -> PriceTrace {
        let mut points = Vec::new();
        let mut t = 0;
        for _ in 0..20 {
            points.push(PricePoint {
                minute: t,
                price: Price::from_dollars(0.01),
            });
            t += 5;
            points.push(PricePoint {
                minute: t,
                price: Price::from_dollars(0.02),
            });
            t += 3;
        }
        PriceTrace::new(points, t)
    }

    fn key(zone_idx: usize, until: u64) -> ModelKey {
        ModelKey {
            zone: spot_market::topology::all_zones()[zone_idx],
            instance_type: InstanceType::M1Small,
            trained_until: until,
        }
    }

    #[test]
    fn fits_once_per_key_and_counts_reuse() {
        let (obs, _clock) = Obs::simulated();
        let store = ModelStore::with_obs(obs.clone());
        let t = trace();
        let a = store.get_or_fit(key(0, 100), || FrozenKernel::from_trace(&t));
        let b = store.get_or_fit(key(0, 100), || panic!("must not refit"));
        assert!(Arc::ptr_eq(&a, &b), "same key shares one kernel");
        let c = store.get_or_fit(key(1, 100), || FrozenKernel::from_trace(&t));
        assert!(!Arc::ptr_eq(&a, &c));
        let _ = store.get_or_fit(key(0, 50), || FrozenKernel::from_trace(&t.window(0, 50)));
        assert_eq!(store.len(), 3);
        let snap = obs.metrics.snapshot();
        assert_eq!(snap.counter("model_store.fits_performed"), Some(3));
        assert_eq!(snap.counter("model_store.fits_reused"), Some(1));
        assert_eq!(snap.histogram("model_store.fit_micros").unwrap().count, 3);
    }

    #[test]
    fn stored_kernel_matches_direct_fit() {
        let store = ModelStore::new();
        let t = trace();
        let stored = store.get_or_fit(key(0, 160), || FrozenKernel::from_trace(&t));
        let direct = FrozenKernel::from_trace(&t);
        assert_eq!(stored.prices(), direct.prices());
        assert_eq!(stored.total_transitions(), direct.total_transitions());
    }
}
