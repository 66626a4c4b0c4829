//! Edge cases of the inverse-availability solver, the quorum rules, and
//! the optimal vote assignment: the degenerate inputs the bidding loop
//! can feed them (single-node groups, all-equal bids, unreliable or
//! perfect nodes) and the θ(3,5) arithmetic the storage service leans on.

use quorum::availability::{threshold_availability, weighted_availability};
use quorum::solve::node_failure_pr;
use quorum::{optimal_votes, optimal_weights, QuorumRule};

// ------------------------------------------------------- solve: n = 1

#[test]
fn single_node_inversion_is_exact() {
    // A 1-of-1 system is available iff its node is: availability = 1 − p,
    // so the largest feasible failure probability is exactly 1 − target.
    for target in [0.5, 0.9, 0.999, 0.999999] {
        let p = node_failure_pr(1, 1, target).expect("feasible");
        assert!(
            (p - (1.0 - target)).abs() < 1e-9,
            "target {target}: got {p}, want {}",
            1.0 - target
        );
    }
    let k = QuorumRule::Majority.quorum_size(1);
    let p = node_failure_pr(1, k, 0.995).expect("feasible");
    assert!((p - 0.005).abs() < 1e-9, "majority of one: {p}");
}

#[test]
fn trivial_and_unreachable_targets() {
    // k = 0: every node may fail, any p works.
    assert_eq!(node_failure_pr(4, 0, 0.9999), Some(1.0));
    // target = 0: vacuous, any p works.
    assert_eq!(node_failure_pr(3, 2, 0.0), Some(1.0));
    // target > 1 is unreachable even with perfect nodes.
    assert_eq!(node_failure_pr(5, 3, 1.0 + 1e-9), None);
    // target = 1 with k = n is only met by perfect nodes.
    let p = node_failure_pr(3, 3, 1.0).expect("perfect nodes qualify");
    assert!(p < 1e-12, "got {p}");
}

#[test]
fn solution_is_tight_at_the_boundary() {
    // Just below the returned p the target holds, just above it fails —
    // the solver really returns the crossing, not merely a feasible point.
    for &(n, k, target) in &[(5usize, 3usize, 0.9999), (7, 4, 0.99999), (1, 1, 0.99)] {
        let p = node_failure_pr(n, k, target).expect("feasible");
        let eps = 1e-9;
        assert!(threshold_availability(&vec![(p - eps).max(0.0); n], k) >= target);
        assert!(threshold_availability(&vec![(p + eps).min(1.0); n], k) < target);
    }
}

// ------------------------------------------------ all-equal bid inputs

#[test]
fn equal_failure_probabilities_reduce_to_simple_majority() {
    // All-equal bids give all-equal failure probabilities; the optimal
    // weighted system then degenerates to one vote each, and its
    // availability matches the plain majority formula.
    let fps = vec![0.03; 5];
    let weights = optimal_weights(&fps);
    assert!(
        weights.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-12),
        "equal inputs, unequal weights: {weights:?}"
    );
    let weighted = weighted_availability(&optimal_votes(&fps), &fps);
    let majority = threshold_availability(&fps, 3);
    assert!(
        (weighted - majority).abs() < 1e-12,
        "weighted {weighted} vs majority {majority}"
    );
}

// ------------------------------------------------- degenerate weights

#[test]
fn hopeless_nodes_elect_a_monarch() {
    // Every node fails more often than not: the best quorum system is a
    // monarchy of the least unreliable node.
    let fps = [0.9, 0.55, 0.7];
    let weights = optimal_weights(&fps);
    assert_eq!(weights, vec![0.0, 1.0, 0.0]);
    let avail = weighted_availability(&optimal_votes(&fps), &fps);
    assert!(
        (avail - (1.0 - 0.55)).abs() < 1e-12,
        "monarchy availability {avail}"
    );
}

#[test]
fn perfect_node_dominates_quantization() {
    // p = 0 maps to infinite weight; quantization must keep it a monarch
    // rather than overflow or drown it among finite weights.
    let fps = [0.0, 0.01, 0.4];
    assert!(optimal_weights(&fps)[0].is_infinite());
    let q = optimal_votes(&fps);
    let others: u64 = q[1] + q[2];
    assert!(q[0] > others, "perfect node outvotes the rest: {q:?}");
}

#[test]
fn coin_flip_nodes_still_yield_a_working_system() {
    // p = 1/2 everywhere: real weights all quantize to zero; the fallback
    // crowns a single node instead of returning the empty (invalid)
    // weighting.
    let fps = [0.5, 0.5, 0.5];
    let q = optimal_votes(&fps);
    assert_eq!(q.iter().filter(|&&w| w > 0).count(), 1, "one king: {q:?}");
    let avail = weighted_availability(&q, &fps);
    assert!(
        (avail - 0.5).abs() < 1e-12,
        "monarch of a coin flip: {avail}"
    );
}

// ----------------------------------------------------- θ(3,5) quorums

#[test]
fn rs_paxos_theta_3_5_tolerates_exactly_one_failure() {
    let rule = QuorumRule::RsPaxos { m: 3 };
    // Quorums of ⌈(5+3)/2⌉ = 4: any two intersect in ≥ 3 replicas, enough
    // to reconstruct a 3-data-shard object.
    let k = rule.quorum_size(5);
    assert_eq!(k, 4);
    assert_eq!(5 - k, 1);
    assert_eq!(rule.min_nodes(), 3);
    // Contrast: majority over 5 tolerates 2 but guarantees only a
    // 1-replica intersection.
    assert_eq!(5 - QuorumRule::Majority.quorum_size(5), 2);

    // With one node down a quorum still exists, with two it cannot.
    let one_down = [0.0, 0.0, 0.0, 0.0, 1.0]; // node 4 failed
    let two_down = [0.0, 0.0, 0.0, 1.0, 1.0]; // nodes 3, 4 failed
    assert_eq!(threshold_availability(&one_down, k), 1.0);
    assert_eq!(threshold_availability(&two_down, k), 0.0);
}
