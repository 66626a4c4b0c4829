//! The inverse availability problem (Fig. 3, line 4).
//!
//! The online bidding algorithm enumerates candidate node counts `n` and,
//! for each, needs the **largest equal per-node failure probability** `FP`
//! such that a service with `n` nodes at that failure probability still
//! meets the availability target. Equal probabilities are optimal once the
//! quorum is a fixed threshold (§4.1), so this reduces to inverting the
//! monotone map `p ↦ P(≥ k of n Bernoulli(1−p) alive)`.

use crate::availability::threshold_tail;

/// Bisection iterations; 80 halvings of `[0, 1]` reach ~1e-24, far below
/// any meaningful probability resolution.
const ITERS: u32 = 80;

/// The largest per-node failure probability `p` such that a `k`-of-`n`
/// threshold system with all nodes at `p` has availability ≥ `target`.
///
/// Returns `None` when the target is unreachable even with perfect nodes
/// (`target > 1`) or the inputs are degenerate. For `k = 0` every `p`
/// works and `1.0` is returned.
pub fn node_failure_pr(n: usize, k: usize, target: f64) -> Option<f64> {
    assert!(k <= n, "threshold {k} above universe {n}");
    assert!(target.is_finite() && target >= 0.0, "invalid target");
    if target > 1.0 {
        return None;
    }
    if k == 0 || target == 0.0 {
        return Some(1.0);
    }
    // One node-probability buffer and one DP buffer serve every step.
    let (mut fps, mut dist) = (vec![0.0; n], Vec::with_capacity(n + 1));
    let mut avail = |p: f64| {
        fps.fill(p);
        threshold_tail(&fps, k, &mut dist)
    };
    if avail(1.0) >= target {
        return Some(1.0);
    }
    // avail is continuous and non-increasing in p with avail(0) = 1 ≥
    // target ≥ avail(1): bisect for the crossing.
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for _ in 0..ITERS {
        let mid = 0.5 * (lo + hi);
        if avail(mid) >= target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::threshold_availability;

    fn majority(n: usize, target: f64) -> Option<f64> {
        node_failure_pr(n, n / 2 + 1, target)
    }

    #[test]
    fn paper_target_five_node_majority() {
        // The on-demand baseline: 5 nodes at FP 0.01, majority, has
        // availability 0.9999901494 — so inverting that availability for
        // 5 nodes must give back p ≈ 0.01.
        let target = 0.9999901494;
        let p = majority(5, target).unwrap();
        assert!((p - 0.01).abs() < 1e-6, "got {p}");
    }

    #[test]
    fn solution_is_feasible_and_tight() {
        for &(n, k) in &[(3usize, 2usize), (5, 3), (5, 4), (7, 4), (9, 5)] {
            let target = 0.99999;
            let p = node_failure_pr(n, k, target).unwrap();
            let at = threshold_availability(&vec![p; n], k);
            let above = threshold_availability(&vec![(p + 1e-6).min(1.0); n], k);
            assert!(at >= target - 1e-12, "n={n} k={k}: {at} < {target}");
            assert!(above < target, "n={n} k={k}: not tight");
        }
    }

    #[test]
    fn more_nodes_tolerate_higher_per_node_fp() {
        // Majority systems: growing the group relaxes the per-node target —
        // the effect the bidding algorithm exploits when cheap zones are
        // plentiful.
        let target = 0.999999;
        let p3 = majority(3, target).unwrap();
        let p5 = majority(5, target).unwrap();
        let p7 = majority(7, target).unwrap();
        assert!(p3 < p5 && p5 < p7, "{p3} {p5} {p7}");
    }

    #[test]
    fn rs_quorums_demand_lower_fp_than_majority() {
        // A 4-of-5 quorum (θ(3,5) RS-Paxos) tolerates only one failure, so
        // the per-node FP target is stricter than majority's.
        let target = 0.999999;
        let maj = node_failure_pr(5, 3, target).unwrap();
        let rs = node_failure_pr(5, 4, target).unwrap();
        assert!(rs < maj, "rs {rs} !< majority {maj}");
    }

    #[test]
    fn edge_cases() {
        assert_eq!(node_failure_pr(5, 0, 0.999), Some(1.0));
        assert_eq!(node_failure_pr(5, 3, 0.0), Some(1.0));
        assert_eq!(node_failure_pr(5, 3, 1.5), None);
        // A single mandatory node: availability 1-p ≥ t ⇒ p = 1-t.
        let p = node_failure_pr(1, 1, 0.99).unwrap();
        assert!((p - 0.01).abs() < 1e-9);
    }

    #[test]
    fn target_one_requires_near_perfect_nodes() {
        // The unavailability of 5 nodes at per-node FP p is ~10·p³, which
        // underflows double precision once p ≲ 2e-6 — the solver can only
        // resolve the target to that rounding floor.
        let p = node_failure_pr(5, 3, 1.0).unwrap();
        assert!(p < 1e-5, "got {p}");
    }
}
