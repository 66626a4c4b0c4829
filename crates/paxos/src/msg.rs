//! Wire messages, log entries and quorum rules.

use simnet::NodeId;

pub use quorum::QuorumRule;

use crate::ballot::{Ballot, Slot};
use crate::service::Service;

/// An operation a client may submit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientOp<C> {
    /// An application command for the state machine.
    App(C),
    /// A membership change: add `add`, then remove `remove`.
    Reconfig {
        /// Nodes to add to the view.
        add: Vec<NodeId>,
        /// Nodes to remove from the view.
        remove: Vec<NodeId>,
    },
}

/// One client operation inside a [`Command::Batch`]: the same
/// (client, req_id, cmd) triple as [`Command::App`], without the enum
/// overhead, so a batch is a flat run of entries applied atomically in
/// one slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchEntry<C> {
    /// Originating client node.
    pub client: NodeId,
    /// Client-local request id (monotone per client).
    pub req_id: u64,
    /// The state-machine command.
    pub cmd: C,
}

/// A value agreed on for a log slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command<C> {
    /// An application command, tagged with its originator for routing the
    /// response and deduplicating retransmissions.
    App {
        /// Originating client node.
        client: NodeId,
        /// Client-local request id (monotone per client).
        req_id: u64,
        /// The state-machine command.
        cmd: C,
    },
    /// Membership change (applies from the next slot onward).
    Reconfig {
        /// Originating client node.
        client: NodeId,
        /// Client-local request id.
        req_id: u64,
        /// Nodes to add.
        add: Vec<NodeId>,
        /// Nodes to remove.
        remove: Vec<NodeId>,
    },
    /// Several application commands agreed on as one slot value. The
    /// entries are applied in order within the slot, atomically: a batch
    /// is either entirely chosen (and thus entirely applied on every
    /// replica) or not chosen at all. Invariants: never empty, never
    /// nested, and at most one entry per (client, req_id).
    Batch(Vec<BatchEntry<C>>),
    /// A no-op used to fill gaps during leader recovery.
    Noop,
}

/// A slot's accepted (not necessarily chosen) state, carried in promises.
/// `W` is the service's wire value ([`Service::Wire`]).
#[derive(Clone, Debug)]
pub struct AcceptedEntry<W> {
    /// The slot this entry belongs to.
    pub slot: Slot,
    /// The ballot at which it was accepted.
    pub ballot: Ballot,
    /// The acceptor's wire value.
    pub value: W,
}

/// A chosen slot value, carried in promises, commits and catch-up
/// replies, in the wire form meant for the destination.
#[derive(Clone, Debug)]
pub struct ChosenEntry<W> {
    /// The slot.
    pub slot: Slot,
    /// The chosen value.
    pub value: W,
}

/// A state snapshot replacing the compacted log prefix: the applied
/// service state plus everything a replica needs to resume from `applied`.
#[derive(Clone, Debug)]
pub struct SnapshotData<S: Service> {
    /// Every slot below this is applied into `state`.
    pub applied: Slot,
    /// The membership view as of `applied`.
    pub view: Vec<NodeId>,
    /// Number of reconfigurations applied.
    pub view_id: u64,
    /// The service's applied state at `applied`.
    pub state: S::Snap,
    /// The exactly-once cache at `applied`.
    pub dedup: Vec<(NodeId, u64, Option<S::Resp>)>,
}

/// The protocol messages. `S` fixes the value, command and response
/// types and the service-only messages.
#[derive(Clone, Debug)]
pub enum Msg<S: Service> {
    /// Phase-1a: a candidate asks for promises from `from_slot` on.
    Prepare {
        /// The candidate's ballot.
        ballot: Ballot,
        /// Slots below this are already chosen at the candidate.
        from_slot: Slot,
    },
    /// Phase-1b: promise not to accept lower ballots; reports state.
    Promise {
        /// The ballot being promised.
        ballot: Ballot,
        /// Accepted-but-not-chosen entries at or above `from_slot`.
        accepted: Vec<AcceptedEntry<S::Wire>>,
        /// Chosen entries at or above the candidate's `from_slot` (and
        /// above the acceptor's compaction floor), reshaped for the
        /// candidate.
        chosen: Vec<ChosenEntry<S::Wire>>,
        /// The acceptor's first unchosen slot.
        commit_index: Slot,
        /// The acceptor's snapshot, included when the candidate asked for
        /// slots below the acceptor's compaction floor (boxed: it is rare).
        snapshot: Option<Box<SnapshotData<S>>>,
    },
    /// Phase-2a: accept request for one slot.
    Accept {
        /// The leader's ballot.
        ballot: Ballot,
        /// Target slot.
        slot: Slot,
        /// Proposed value, in the destination's wire form.
        value: S::Wire,
    },
    /// Phase-2b: the acceptor accepted.
    Accepted {
        /// Echoed ballot.
        ballot: Ballot,
        /// Echoed slot.
        slot: Slot,
    },
    /// Nack: the sender has promised a higher ballot.
    Reject {
        /// The higher promised ballot.
        promised: Ballot,
    },
    /// Leader → all: a value is chosen.
    Commit {
        /// The chosen entry.
        entry: ChosenEntry<S::Wire>,
    },
    /// Leader liveness + commit-index gossip.
    Heartbeat {
        /// The leader's ballot.
        ballot: Ballot,
        /// The leader's first unchosen slot.
        commit_index: Slot,
    },
    /// A lagging replica asks for chosen entries from `from_slot`.
    CatchupRequest {
        /// First missing slot.
        from_slot: Slot,
    },
    /// Response to [`Msg::CatchupRequest`].
    CatchupReply {
        /// A snapshot, when the requested slots were compacted away. Boxed,
        /// so the rare snapshot does not size every envelope.
        snapshot: Option<Box<SnapshotData<S>>>,
        /// A batch of chosen entries (above the snapshot, if any).
        entries: Vec<ChosenEntry<S::Wire>>,
    },
    /// Client → replica (possibly forwarded): submit an operation.
    Request {
        /// The originating client.
        client: NodeId,
        /// Client-local request id.
        req_id: u64,
        /// The operation.
        op: S::Op,
    },
    /// Replica → client: the operation was applied.
    Response {
        /// Echoed request id.
        req_id: u64,
        /// The service's response (`None` for reconfigurations).
        resp: Option<S::Resp>,
    },
    /// A message only this service exchanges ([`Service::Ext`]).
    Ext(S::Ext),
}

/// Kind names of the messages every service exchanges, indexed by
/// [`Msg::kind_index`]; a service's own kinds ([`Service::EXT_KINDS`])
/// follow. Used to label per-type observability counters.
pub(crate) const MSG_KINDS: [&str; 11] = [
    "prepare",
    "promise",
    "accept",
    "accepted",
    "reject",
    "commit",
    "heartbeat",
    "catchup_request",
    "catchup_reply",
    "request",
    "response",
];

impl<S: Service> Msg<S> {
    /// Index of this variant into [`MSG_KINDS`] followed by
    /// [`Service::EXT_KINDS`].
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            Msg::Prepare { .. } => 0,
            Msg::Promise { .. } => 1,
            Msg::Accept { .. } => 2,
            Msg::Accepted { .. } => 3,
            Msg::Reject { .. } => 4,
            Msg::Commit { .. } => 5,
            Msg::Heartbeat { .. } => 6,
            Msg::CatchupRequest { .. } => 7,
            Msg::CatchupReply { .. } => 8,
            Msg::Request { .. } => 9,
            Msg::Response { .. } => 10,
            Msg::Ext(e) => MSG_KINDS.len() + S::ext_kind(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Msg;
    use crate::LockService;

    /// The simulator's event heap moves every envelope ~log₂(queue) times
    /// per pop, so every message pays for the largest variant. A snapshot
    /// held inline made the lock service's 168 bytes.
    #[test]
    fn lock_service_envelope_is_at_most_96_bytes() {
        let size = std::mem::size_of::<Msg<LockService>>();
        assert!(size <= 96, "Msg<LockService> is {size} bytes");
    }
}
