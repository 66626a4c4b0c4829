//! Ballots and log slots.

use simnet::NodeId;
use std::fmt;

/// A log position (consensus instance number).
pub type Slot = u64;

/// A Paxos ballot: a round number paired with the proposing node, ordered
/// lexicographically so ballots are totally ordered and every node can
/// mint ballots nobody else can.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ballot {
    /// Monotone round counter.
    pub round: u64,
    /// Proposer that owns this ballot.
    pub node: NodeId,
}

impl Ballot {
    /// The ballot smaller than every real ballot (initial promise).
    pub(crate) const BOTTOM: Ballot = Ballot {
        round: 0,
        node: NodeId(0),
    };
}

impl fmt::Debug for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.round, self.node.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_round_then_node() {
        let a = Ballot {
            round: 1,
            node: NodeId(5),
        };
        let b = Ballot {
            round: 2,
            node: NodeId(0),
        };
        let c = Ballot {
            round: 2,
            node: NodeId(3),
        };
        assert!(a < b && b < c);
        assert!(Ballot::BOTTOM < a);
    }
}
