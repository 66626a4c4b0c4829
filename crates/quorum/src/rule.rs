//! Quorum-size rules shared by the protocol layer and the bidding
//! framework.

/// How large a quorum must be relative to the group size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QuorumRule {
    /// Simple majority `⌊n/2⌋ + 1` — classic Paxos, the lock service.
    Majority,
    /// RS-Paxos quorums for θ(m, n) erasure coding: `⌈(n+m)/2⌉`, so any
    /// two quorums intersect in at least `m` replicas and a chosen coded
    /// value stays reconstructible (§5.1.2).
    RsPaxos {
        /// Data-shard count `m` of the erasure code.
        m: usize,
    },
}

impl QuorumRule {
    /// The quorum size for a group of `n` replicas.
    pub fn quorum_size(&self, n: usize) -> usize {
        match self {
            QuorumRule::Majority => n / 2 + 1,
            QuorumRule::RsPaxos { m } => (n + *m).div_ceil(2),
        }
    }

    /// The smallest group size this rule supports (RS-Paxos needs at
    /// least `m` replicas to hold the data shards).
    pub fn min_nodes(&self) -> usize {
        match self {
            QuorumRule::Majority => 1,
            QuorumRule::RsPaxos { m } => *m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_sizes() {
        assert_eq!(QuorumRule::Majority.quorum_size(5), 3);
        assert_eq!(QuorumRule::Majority.quorum_size(4), 3);
        assert_eq!(QuorumRule::Majority.quorum_size(1), 1);
        assert_eq!(QuorumRule::RsPaxos { m: 3 }.quorum_size(5), 4);
        assert_eq!(QuorumRule::RsPaxos { m: 1 }.quorum_size(5), 3);
        assert_eq!(QuorumRule::RsPaxos { m: 4 }.quorum_size(7), 6);
    }

    #[test]
    fn tolerance_matches_paper() {
        // 5-node lock service tolerates 2; θ(3,5) storage tolerates 1.
        assert_eq!(5 - QuorumRule::Majority.quorum_size(5), 2);
        assert_eq!(5 - QuorumRule::RsPaxos { m: 3 }.quorum_size(5), 1);
    }

    #[test]
    fn even_majorities_still_intersect() {
        // Two quorums of 3 among 4 share a node; one failure is tolerated.
        let k = QuorumRule::Majority.quorum_size(4);
        assert_eq!(k, 3);
        assert!(2 * k > 4);
        assert_eq!(4 - k, 1);
    }

    #[test]
    fn min_nodes() {
        assert_eq!(QuorumRule::Majority.min_nodes(), 1);
        assert_eq!(QuorumRule::RsPaxos { m: 3 }.min_nodes(), 3);
    }
}
