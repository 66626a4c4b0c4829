//! Optimal vote assignment (Eq. 11) with the Amir & Wool monarchy/dummy
//! rules — the *optimal availability acceptance set* of Definition 2.
//!
//! The paper (§4.1) uses these results to justify its design choice: the
//! optimal static quorum system for heterogeneous failure probabilities is
//! weighted voting with `w_i = log₂((1−p_i)/p_i)`; when failure
//! probabilities are (nearly) equal this degenerates to simple majority,
//! which is why Jupiter equalizes per-node failure probabilities and keeps
//! plain majority quorums. The constructions here provide the baseline for
//! that argument and the ablation benchmarks.
//!
//! A caveat worth knowing (and covered by the property tests): Eq. 11
//! gives the *real-valued* optimal weights. After integer quantization
//! under a strict-majority tie rule, the induced system can be slightly
//! *worse* than simple majority on mildly heterogeneous profiles — live
//! sets whose quantized weight lands exactly on half the total fail the
//! strict test. This is a second, practical reason (beyond protocol
//! compatibility, which the paper cites) to equalize failure
//! probabilities and use plain majority.

/// Resolution used when quantizing real-valued log-odds weights to the
/// integer votes a voting protocol needs. 16 steps per unit keeps the
/// quantization error far below the availability differences we measure.
const WEIGHT_SCALE: f64 = 16.0;

/// The optimal (real-valued) weights for failure probabilities `fps`:
///
/// * all `p_i ≥ 1/2` → monarchy: the single most reliable node gets weight
///   1, everyone else 0;
/// * otherwise → nodes with `p_i > 1/2` become dummies (weight 0), nodes
///   with `p_i < 1/2` get `log₂((1−p_i)/p_i)` (Eq. 11), and `p_i = 1/2`
///   contributes weight 0 naturally.
pub fn optimal_weights(fps: &[f64]) -> Vec<f64> {
    assert!(!fps.is_empty());
    for &p in fps {
        assert!((0.0..=1.0).contains(&p), "failure probability {p} invalid");
    }
    if fps.iter().all(|&p| p >= 0.5) {
        // Monarchy: king = least unreliable (ties → lowest index).
        let king = fps
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("NaN fp"))
            .map(|(i, _)| i)
            .expect("non-empty");
        let mut w = vec![0.0; fps.len()];
        w[king] = 1.0;
        return w;
    }
    fps.iter()
        .map(|&p| {
            if p >= 0.5 {
                0.0
            } else if p <= 0.0 {
                // A perfectly reliable node dominates; cap its weight so
                // quantization stays finite (it becomes a monarch anyway).
                f64::INFINITY
            } else {
                ((1.0 - p) / p).log2()
            }
        })
        .collect()
}

/// Quantize real weights to integer votes at `WEIGHT_SCALE` resolution.
/// Infinite weights (perfect nodes) map to a weight exceeding the sum of
/// all finite ones, making the perfect node a monarch.
fn quantize_weights(weights: &[f64]) -> Vec<u64> {
    let finite_sum: f64 = weights.iter().filter(|w| w.is_finite()).sum();
    let monarch_weight = ((finite_sum * WEIGHT_SCALE) as u64 + 1) * 2;
    let q: Vec<u64> = weights
        .iter()
        .map(|&w| {
            if w.is_infinite() {
                monarch_weight
            } else {
                (w * WEIGHT_SCALE).round() as u64
            }
        })
        .collect();
    if q.iter().sum::<u64>() == 0 {
        // Degenerate (all weights rounded to zero, e.g. every p ≈ 1/2):
        // crown the largest-weight node.
        let king = weights
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN weight"))
            .map(|(i, _)| i)
            .expect("non-empty");
        let mut q = vec![0; weights.len()];
        q[king] = 1;
        return q;
    }
    q
}

/// The integer votes of the optimal-availability weighted-majority system
/// for `fps`: [`optimal_weights`] quantized, never all zero. A live set is
/// a quorum when its votes strictly exceed half the total
/// ([`weighted_availability`](crate::weighted_availability)).
pub fn optimal_votes(fps: &[f64]) -> Vec<u64> {
    quantize_weights(&optimal_weights(fps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::availability::{threshold_availability, weighted_availability, Mask};

    /// Whether the live set `mask` holds a strict majority of `votes`.
    fn is_quorum(votes: &[u64], mask: Mask) -> bool {
        let live: u64 = (0..votes.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| votes[i])
            .sum();
        2 * live > votes.iter().sum::<u64>()
    }

    #[test]
    fn equal_probabilities_give_equal_weights() {
        let w = optimal_weights(&[0.01; 5]);
        for &x in &w {
            assert!((x - w[0]).abs() < 1e-12);
        }
        let votes = optimal_votes(&[0.01; 5]);
        // Equal weights ⇒ behaves exactly like simple majority.
        for mask in 0..(1u32 << 5) {
            assert_eq!(is_quorum(&votes, mask), mask.count_ones() >= 3);
        }
    }

    #[test]
    fn monarchy_when_all_unreliable() {
        let w = optimal_weights(&[0.7, 0.6, 0.9]);
        assert_eq!(w, vec![0.0, 1.0, 0.0]);
        let votes = optimal_votes(&[0.7, 0.6, 0.9]);
        assert!(is_quorum(&votes, 0b010));
        assert!(!is_quorum(&votes, 0b101));
    }

    #[test]
    fn unreliable_nodes_become_dummies() {
        let w = optimal_weights(&[0.1, 0.6, 0.2]);
        assert_eq!(w[1], 0.0);
        assert!(w[0] > w[2] && w[2] > 0.0);
    }

    #[test]
    fn paper_example_dominated_vote() {
        // §4.1: p = (0.01, 0.1, 0.1) ⇒ node 0's weight exceeds the sum of
        // the other two (log₂99 ≈ 6.63 > 2·log₂9 ≈ 6.34) — a monarchy in
        // effect.
        let votes = optimal_votes(&[0.01, 0.1, 0.1]);
        assert!(is_quorum(&votes, 0b001), "king alone should be a quorum");
        assert!(!is_quorum(&votes, 0b110), "subjects alone should not");
    }

    #[test]
    fn optimal_at_least_as_good_as_majority() {
        // Across assorted heterogeneous profiles the weighted system's
        // availability dominates simple majority (Definition 2).
        let profiles: [&[f64]; 5] = [
            &[0.01, 0.02, 0.3, 0.4, 0.05],
            &[0.2, 0.2, 0.2],
            &[0.01, 0.45, 0.45, 0.45, 0.45],
            &[0.1, 0.1, 0.1, 0.4, 0.4, 0.4, 0.05],
            &[0.3, 0.05, 0.05, 0.3, 0.3],
        ];
        for fps in profiles {
            let opt = weighted_availability(&optimal_votes(fps), fps);
            let maj = threshold_availability(fps, fps.len() / 2 + 1);
            assert!(
                opt >= maj - 1e-12,
                "weighted {opt} < majority {maj} for {fps:?}"
            );
        }
    }

    #[test]
    fn perfect_node_becomes_monarch() {
        let fps = [0.0, 0.1, 0.1];
        let votes = optimal_votes(&fps);
        assert!(is_quorum(&votes, 0b001));
        let av = weighted_availability(&votes, &fps);
        assert!((av - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_half_probabilities_fall_back_to_equal_votes() {
        let q = optimal_votes(&[0.5, 0.5, 0.4999]);
        assert!(q.iter().sum::<u64>() > 0);
    }
}
