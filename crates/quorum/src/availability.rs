//! Availability computations (Eq. 1) — exact, three algorithms.
//!
//! * [`acceptance_availability`] — exhaustive over all `2^n` subsets; works
//!   for arbitrary acceptance predicates, exponential in `n`. The reference
//!   the two dynamic programs are tested against.
//! * [`threshold_availability`] — Poisson-binomial tail via an O(n²)
//!   dynamic program; exact for `k`-of-`n` quorums ([`crate::QuorumRule`]).
//! * [`weighted_availability`] — dynamic program over achievable weight
//!   sums, O(n·W); exact for weighted majorities (Eq. 11 votes).

/// A live-node set as a bitmask: bit `i` set ⇔ node `i` alive.
pub type Mask = u32;

/// Probability that the live-node set satisfies `accept`, with node `i`
/// failing independently with probability `fps[i]` (Eq. 1). `accept`
/// names the acceptance set of Definition 1: the live sets that make
/// progress.
pub fn acceptance_availability(n: usize, fps: &[f64], accept: impl Fn(Mask) -> bool) -> f64 {
    assert_eq!(fps.len(), n);
    assert!(n <= 30, "enumeration over 2^{n} subsets is infeasible");
    for &p in fps {
        assert!((0.0..=1.0).contains(&p), "failure probability {p} invalid");
    }
    let mut total = 0.0;
    for mask in 0..(1u64 << n) as Mask {
        if !accept(mask) {
            continue;
        }
        let mut prob = 1.0;
        for (i, &p) in fps.iter().enumerate() {
            prob *= if mask & (1 << i) != 0 { 1.0 - p } else { p };
        }
        total += prob;
    }
    total
}

/// Probability that at least `k` of the nodes are alive (Poisson-binomial
/// tail). `O(n²)` dynamic program over the count of live nodes.
///
/// ```
/// use quorum::threshold_availability;
///
/// // The paper's §3 example: 5 nodes at failure probability 0.01 with a
/// // majority quorum have availability 0.9999901494 (~25.5 s downtime
/// // per month).
/// let a = threshold_availability(&[0.01; 5], 3);
/// assert!((a - 0.9999901494).abs() < 1e-10);
/// ```
pub fn threshold_availability(fps: &[f64], k: usize) -> f64 {
    let n = fps.len();
    assert!(k <= n, "threshold {k} above universe {n}");
    for &p in fps {
        assert!((0.0..=1.0).contains(&p), "failure probability {p} invalid");
    }
    threshold_tail(fps, k, &mut Vec::new())
}

/// [`threshold_availability`] without the input checks, over a caller's
/// scratch buffer (resized and reset here), so a solver that evaluates it
/// many times allocates once.
pub(crate) fn threshold_tail(fps: &[f64], k: usize, dist: &mut Vec<f64>) -> f64 {
    let n = fps.len();
    // dist[j] = P(exactly j alive among the first i nodes).
    dist.clear();
    dist.resize(n + 1, 0.0);
    dist[0] = 1.0;
    for (i, &p) in fps.iter().enumerate() {
        let alive = 1.0 - p;
        for j in (0..=i).rev() {
            let d = dist[j];
            dist[j + 1] += d * alive;
            dist[j] = d * p;
        }
    }
    dist[k..].iter().sum()
}

/// Probability that the total weight of live nodes strictly exceeds half
/// the total weight. `O(n · W)` dynamic program over weight sums.
pub fn weighted_availability(weights: &[u64], fps: &[f64]) -> f64 {
    assert_eq!(weights.len(), fps.len());
    let total: u64 = weights.iter().sum();
    assert!(total > 0, "all-zero weights");
    let total = total as usize;
    // dist[w] = P(live weight == w).
    let mut dist = vec![0.0f64; total + 1];
    dist[0] = 1.0;
    for (&w, &p) in weights.iter().zip(fps) {
        assert!((0.0..=1.0).contains(&p), "failure probability {p} invalid");
        let alive = 1.0 - p;
        let w = w as usize;
        if w == 0 {
            continue; // dummies don't shift weight
        }
        for s in (0..=total - w).rev() {
            let d = dist[s];
            dist[s + w] += d * alive;
            dist[s] = d * p;
        }
    }
    // Strict majority of weight: 2·live > total.
    dist.iter()
        .enumerate()
        .filter(|(s, _)| 2 * s > total)
        .map(|(_, &p)| p)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuorumRule;

    /// Failure probabilities under which exactly the nodes of `mask` are
    /// alive: any availability at them is 1 if `mask` is accepted, else 0.
    fn live(n: usize, mask: Mask) -> Vec<f64> {
        (0..n)
            .map(|i| if mask & (1 << i) != 0 { 0.0 } else { 1.0 })
            .collect()
    }

    #[test]
    fn paper_example_availability() {
        // §3: 5 nodes, p = 0.01 each, majority quorum ⇒ 0.9999901494, by
        // enumeration (`paper_example_via_threshold_dp` takes the DP).
        let av = acceptance_availability(5, &[0.01; 5], |m| m.count_ones() >= 3);
        assert!((av - 0.9999901494).abs() < 1e-10, "got {av}");
    }

    #[test]
    fn availability_of_monarchy_is_king_availability() {
        // Every accepted set contains node 0.
        let av = acceptance_availability(4, &[0.2, 0.5, 0.5, 0.5], |m| m & 1 != 0);
        assert!((av - 0.8).abs() < 1e-12);
    }

    #[test]
    fn rs_paxos_quorum_tolerates_one_failure_of_five() {
        // θ(3,5) ⇒ quorum 4; availability = P(≥4 alive).
        let k = QuorumRule::RsPaxos { m: 3 }.quorum_size(5);
        assert_eq!(k, 4);
        let p = 0.01f64;
        let q = 1.0 - p;
        let expect = q.powi(5) + 5.0 * q.powi(4) * p;
        let dp = threshold_availability(&[p; 5], k);
        let brute = acceptance_availability(5, &[p; 5], |m| m.count_ones() as usize >= k);
        assert!((dp - expect).abs() < 1e-12 && (brute - expect).abs() < 1e-12);
    }

    #[test]
    fn availabilities_agree_between_dp_and_enumeration() {
        let fps = [0.01, 0.2, 0.05, 0.1, 0.3];
        let dp = threshold_availability(&fps, 3);
        let brute = acceptance_availability(5, &fps, |m| m.count_ones() >= 3);
        assert!((dp - brute).abs() < 1e-12);

        let votes = [4u64, 2, 1, 1, 1];
        let dp = weighted_availability(&votes, &fps);
        let brute = acceptance_availability(5, &fps, |m| {
            let live: u64 = (0..5).filter(|i| m & (1 << i) != 0).map(|i| votes[i]).sum();
            2 * live > 9
        });
        assert!((dp - brute).abs() < 1e-12);
    }

    #[test]
    fn weighted_majority_semantics() {
        // Votes 3,1,1: node 0 alone is a quorum (3 > 5/2); nodes 1+2
        // alone are not (2 < 2.5).
        assert_eq!(weighted_availability(&[3, 1, 1], &live(3, 0b001)), 1.0);
        assert_eq!(weighted_availability(&[3, 1, 1], &live(3, 0b110)), 0.0);
    }

    #[test]
    fn weighted_equal_weights_match_majority() {
        for mask in 0..(1 << 5) {
            let fps = live(5, mask);
            assert_eq!(
                weighted_availability(&[1; 5], &fps),
                threshold_availability(&fps, 3),
                "live set {mask:05b}"
            );
        }
    }

    #[test]
    fn paper_example_via_threshold_dp() {
        // 5 nodes, p = 0.01, majority 3 ⇒ 0.9999901494 (§3).
        let av = threshold_availability(&[0.01; 5], 3);
        assert!((av - 0.9999901494).abs() < 1e-10, "got {av}");
    }

    #[test]
    fn paper_downtime_numbers() {
        // 0.9999901494 availability ⇒ ~25.5 s downtime in a 30-day month.
        let av = threshold_availability(&[0.01; 5], 3);
        let downtime_secs = (1.0 - av) * 30.0 * 24.0 * 3600.0;
        assert!((downtime_secs - 25.5).abs() < 0.1, "got {downtime_secs}");
    }

    #[test]
    fn threshold_edge_cases() {
        // k = 0 is always available; k = n requires all alive.
        assert_eq!(threshold_availability(&[0.3, 0.4], 0), 1.0);
        let all = threshold_availability(&[0.3, 0.4], 2);
        assert!((all - 0.7 * 0.6).abs() < 1e-12);
        // Empty universe with k = 0: vacuously available.
        assert_eq!(threshold_availability(&[], 0), 1.0);
    }

    #[test]
    fn heterogeneous_threshold_matches_enumeration() {
        let fps = [0.01, 0.1, 0.2, 0.05, 0.3, 0.15, 0.08];
        for k in 0..=7 {
            let dp = threshold_availability(&fps, k);
            let brute = acceptance_availability(7, &fps, |m| m.count_ones() as usize >= k);
            assert!((dp - brute).abs() < 1e-12, "k={k}: {dp} vs {brute}");
        }
    }

    #[test]
    fn weighted_matches_enumeration() {
        let fps = [0.05, 0.2, 0.1, 0.4];
        let weights = [5u64, 2, 2, 1];
        let total: u64 = weights.iter().sum();
        let dp = weighted_availability(&weights, &fps);
        let brute = acceptance_availability(4, &fps, |m| {
            let live: u64 = weights
                .iter()
                .enumerate()
                .filter(|(i, _)| m & (1 << i) != 0)
                .map(|(_, &w)| w)
                .sum();
            2 * live > total
        });
        assert!((dp - brute).abs() < 1e-12);
    }

    #[test]
    fn dummy_weights_are_ignored() {
        // A node with weight 0 and terrible availability must not affect
        // the result.
        let a = weighted_availability(&[1, 1, 1], &[0.01, 0.02, 0.03]);
        let b = weighted_availability(&[1, 1, 1, 0], &[0.01, 0.02, 0.03, 0.99]);
        assert!((a - b).abs() < 1e-15);
    }

    #[test]
    fn availability_monotone_in_node_reliability() {
        let base = threshold_availability(&[0.1; 5], 3);
        let better = threshold_availability(&[0.1, 0.1, 0.05, 0.1, 0.1], 3);
        let worse = threshold_availability(&[0.1, 0.1, 0.2, 0.1, 0.1], 3);
        assert!(better > base && base > worse);
    }

    #[test]
    fn more_nodes_at_same_fp_increase_majority_availability() {
        // 5 nodes tolerate 2 failures; 7 tolerate 3 — availability rises.
        let five = threshold_availability(&[0.05; 5], 3);
        let seven = threshold_availability(&[0.05; 7], 4);
        assert!(seven > five);
    }
}
