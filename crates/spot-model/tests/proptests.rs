//! Property-based tests of the semi-Markov failure model.

use proptest::prelude::*;
use spot_market::{Price, PricePoint, PriceTrace};
use spot_model::{Estimator, FailureModel, FailureModelConfig, FrozenKernel};
use std::ops::Range;
use std::sync::Arc;

/// Strategy: a random multi-level trace with enough transitions to train.
fn training_trace() -> impl Strategy<Value = PriceTrace> {
    (
        proptest::collection::vec((1u64..30, 0usize..5), 20..120),
        proptest::collection::vec(50u64..5_000, 5..=5),
    )
        .prop_map(|(steps, levels)| {
            let mut levels: Vec<Price> = levels
                .into_iter()
                .map(|m| Price::from_micros(m * 100))
                .collect();
            levels.sort_unstable();
            levels.dedup();
            let mut points = vec![PricePoint {
                minute: 0,
                price: levels[0],
            }];
            let mut t = 0;
            for (dt, idx) in steps {
                t += dt;
                let price = levels[idx % levels.len()];
                if points.last().expect("non-empty").price != price {
                    points.push(PricePoint { minute: t, price });
                }
            }
            PriceTrace::new(points, t + 30)
        })
}

/// Strategy: a trace hopping over 2–16 evenly spaced price levels, so
/// ladders run deep enough for a bisection to take several steps.
fn ladder_trace() -> impl Strategy<Value = PriceTrace> {
    (
        2u64..=16,
        proptest::collection::vec((1u64..40, 0u64..16), 40..200),
    )
        .prop_map(|(levels, steps)| {
            let level = |i: u64| Price::from_micros(5_000 + 700 * (i % levels));
            let mut points = vec![PricePoint {
                minute: 0,
                price: level(0),
            }];
            let mut t = 0;
            for (dt, i) in steps {
                t += dt;
                if points.last().expect("non-empty").price != level(i) {
                    points.push(PricePoint {
                        minute: t,
                        price: level(i),
                    });
                }
            }
            PriceTrace::new(points, t + 30)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bid grid's searches are exact: at every target — each
    /// candidate's own FP, just below it, and random ones — the
    /// expectation grid's memoized scan and the absorbing grid's
    /// bisection return the first bid of a plain ascending scan of
    /// `estimate_fp` / `estimate_fp_absorbing` over the candidates (spot,
    /// then every level, within [spot, cap)). The bisection's half holds
    /// because the absorbing FP is non-increasing in the bid, to the bit.
    #[test]
    fn grid_searches_equal_linear_scans(
        trace in ladder_trace(),
        at in 0.0f64..1.0,
        horizon in 1u32..240,
        cap_tenths in 10u64..40,
        random in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        let model = FailureModel::from_trace(&trace, FailureModelConfig::default());
        let now = ((trace.horizon() - 1) as f64 * at) as u64;
        let (spot, age) = trace.price_and_age_at(now);
        let age = age as u32;
        let cap = Price::from_micros(spot.as_micros() * cap_tenths / 10);
        let bids: Vec<Price> = std::iter::once(spot)
            .chain(model.kernel().prices().iter().copied())
            .filter(|&b| b >= spot && b < cap)
            .collect();
        type Fp = fn(&FailureModel, Price, Price, u32, u32) -> f64;
        let estimators: [(Estimator, Fp); 2] = [
            (Estimator::Expectation, FailureModel::estimate_fp),
            (Estimator::Absorbing, FailureModel::estimate_fp_absorbing),
        ];
        for (estimator, fp) in estimators {
            let fps: Vec<f64> = bids.iter().map(|&b| fp(&model, b, spot, age, horizon)).collect();
            let Some(mut grid) = model.bid_grid(estimator, spot, age, horizon, cap) else {
                prop_assert!(!model.is_trained());
                continue;
            };
            let targets = (fps.iter()).flat_map(|&f| [f, f.next_down()]).chain(random.clone());
            for target in targets {
                let want = (bids.iter().zip(&fps)).find(|&(_, &f)| f <= target).map(|(&b, _)| b);
                prop_assert_eq!(grid.min_bid(target), want, "{:?} at {}", estimator, target);
            }
        }
    }

    /// Hazards are probabilities; next-state distributions sum to one.
    #[test]
    fn kernel_outputs_are_probabilities(trace in training_trace(), age in 1u32..50) {
        let k = FrozenKernel::from_trace(&trace);
        for i in 0..k.n_states() as u16 {
            let h = k.hazard(i, age);
            prop_assert!((0.0..=1.0).contains(&h), "hazard {h}");
            let d = k.next_state_dist(i, age);
            let sum: f64 = d.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9, "dist sums to {sum}");
            prop_assert!(d.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        }
    }

    /// The kernel rows `Σ_{j,k} q̂` never exceed 1 (Eq. 13 normalization).
    #[test]
    fn kernel_rows_are_subnormalized(trace in training_trace()) {
        let k = FrozenKernel::from_trace(&trace);
        for i in 0..k.n_states() as u16 {
            let mut row = 0.0;
            for j in 0..k.n_states() as u16 {
                for kk in 1..=40u32 {
                    row += k.q(i, j, kk);
                }
            }
            prop_assert!(row <= 1.0 + 1e-9, "row {i} = {row}");
        }
    }

    /// Estimated failure probabilities are probabilities, are 1 below the
    /// market price, never fall below FP⁰, and decrease as the bid rises.
    #[test]
    fn fp_estimates_behave(trace in training_trace(), horizon in 10u32..300) {
        let model = FailureModel::from_trace(&trace, FailureModelConfig::default());
        let now = trace.horizon() - 1;
        let spot = trace.price_at(now);
        let age = trace.sojourn_age_at(now) as u32;

        let below = Price::from_micros(spot.as_micros().saturating_sub(100));
        if below < spot {
            prop_assert_eq!(model.estimate_fp(below, spot, age, horizon), 1.0);
        }
        let mut last = 1.0 + 1e-12;
        for mult in [10u64, 12, 15, 20, 30] {
            let bid = Price::from_micros(spot.as_micros() * mult / 10);
            let fp = model.estimate_fp(bid, spot, age, horizon);
            prop_assert!((0.0..=1.0).contains(&fp));
            prop_assert!(fp >= 0.01 - 1e-9, "fp {fp} below FP⁰");
            prop_assert!(fp <= last + 1e-9, "fp not monotone in bid");
            last = fp;
        }
    }

    /// Absorbing estimates dominate expectation estimates (an instance
    /// that is out-of-bid for any minute has certainly been killed).
    #[test]
    fn absorbing_dominates_expectation(trace in training_trace(), horizon in 10u32..200) {
        let model = FailureModel::from_trace(&trace, FailureModelConfig::default());
        let now = trace.horizon() - 1;
        let spot = trace.price_at(now);
        let age = trace.sojourn_age_at(now) as u32;
        for mult in [10u64, 15, 25] {
            let bid = Price::from_micros(spot.as_micros() * mult / 10);
            let e = model.estimate_fp(bid, spot, age, horizon);
            let a = model.estimate_fp_absorbing(bid, spot, age, horizon);
            prop_assert!(a >= e - 1e-9, "absorbing {a} < expectation {e}");
        }
    }

    /// Fold-on-read equivalence: a model that observes minute ranges of
    /// one shared trace, and one that follows them as a revealed schedule
    /// and is shown them by its cursor, both cut and fold them when read
    /// and answer exactly like the eager `extend` chain over the cut
    /// windows at every read, wherever the reads fall among the ranges —
    /// and a clone taken with ranges still unfolded folds to its origin's
    /// kernel.
    #[test]
    fn lazy_refinement_equals_the_eager_chain(
        trace in training_trace(),
        cuts in proptest::collection::vec((1u64..100, any::<bool>()), 1..12),
        horizon in 10u32..200,
    ) {
        let end = trace.horizon();
        let mut cuts: Vec<(u64, bool)> = cuts
            .into_iter()
            .map(|(pct, read)| ((end * pct / 100).max(1), read))
            .collect();
        cuts.sort_unstable();
        cuts.dedup_by_key(|c| c.0);
        // The last window always ends in a read, so at least one compares.
        cuts.push((end, true));

        let shared = Arc::new(trace.clone());
        let (mut steps, mut from): (Vec<(Range<u64>, bool)>, u64) = (Vec::new(), 0);
        for (to, read) in cuts {
            if to > from {
                steps.push((std::mem::replace(&mut from, to)..to, read));
            }
        }
        // The same ranges as one revealed schedule, shown by a cursor.
        let revealed = Arc::new(steps.iter().map(|(r, _)| r.clone()).collect::<Vec<_>>());
        let mut cursor = FailureModel::new(FailureModelConfig::default());
        cursor.follow(&shared, &revealed);
        let mut lazy = FailureModel::new(FailureModelConfig::default());
        let mut eager = FrozenKernel::new();
        let mut unread = 0;
        for (k, (range, read)) in steps.into_iter().enumerate() {
            let to = range.end;
            eager = eager.extend(&trace.window(range.start, range.end));
            lazy.observe(&shared, range);
            cursor.show(k + 1);
            unread += 1;
            prop_assert_eq!(lazy.unfolded(), unread);
            prop_assert_eq!(cursor.unfolded(), unread);
            if !read {
                continue;
            }
            let (forked, forked_cursor) = (lazy.clone(), cursor.clone());
            let reference =
                FailureModel::from_kernel(eager.clone().into(), FailureModelConfig::default());
            for model in [&lazy, &forked, &cursor, &forked_cursor] {
                prop_assert_eq!(model.kernel().fingerprint(), eager.fingerprint());
                prop_assert_eq!(model.kernel().prices(), eager.prices());
                let spot = trace.price_at(to - 1);
                let age = trace.sojourn_age_at(to - 1) as u32;
                let (got, want) = (
                    model.forecast(spot, age, horizon),
                    reference.forecast(spot, age, horizon),
                );
                prop_assert_eq!(got.is_some(), want.is_some());
                if let (Some(got), Some(want)) = (got, want) {
                    prop_assert_eq!(got.levels(), want.levels());
                    for &bid in want.levels() {
                        prop_assert_eq!(
                            got.out_of_bid_fraction(bid).to_bits(),
                            want.out_of_bid_fraction(bid).to_bits()
                        );
                    }
                }
                for mult in [10u64, 15, 25] {
                    let bid = Price::from_micros(spot.as_micros() * mult / 10);
                    prop_assert_eq!(
                        model.estimate_fp(bid, spot, age, horizon).to_bits(),
                        reference.estimate_fp(bid, spot, age, horizon).to_bits()
                    );
                }
                prop_assert_eq!(model.unfolded(), 0);
            }
            unread = 0;
        }
    }

    /// The minimum-bid search returns a feasible bid below the cap that
    /// indeed meets the target, and no cheaper price level does.
    #[test]
    fn min_bid_is_minimal_and_feasible(trace in training_trace(), target in 0.02f64..0.5) {
        let model = FailureModel::from_trace(&trace, FailureModelConfig::default());
        let now = trace.horizon() - 1;
        let spot = trace.price_at(now);
        let age = trace.sojourn_age_at(now) as u32;
        let cap = Price::from_micros(spot.as_micros() * 100);
        if let Some(bid) = model.min_bid_for_fp(target, spot, age, 120, cap) {
            prop_assert!(bid >= spot && bid < cap);
            let fp = model.estimate_fp(bid, spot, age, 120);
            prop_assert!(fp <= target + 1e-9, "chosen bid misses target");
            // No strictly cheaper kernel level within [spot, bid) works.
            for &level in model.kernel().prices() {
                if level >= spot && level < bid {
                    let f = model.estimate_fp(level, spot, age, 120);
                    prop_assert!(f > target, "cheaper level {level} also feasible");
                }
            }
        }
    }
}
