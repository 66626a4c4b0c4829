//! The seam between the replica core and what it replicates.
//!
//! [`Replica`] owns the protocol — elections, promise merging, slot
//! allocation, accept/ack/choose, commit, heartbeats, catch-up, retry,
//! the batching queue, compaction and the exactly-once cache. A
//! [`Service`] owns everything the protocol does not: how a value looks
//! on the wire to each acceptor, how it is recovered in phase 1, what
//! applying it means, which requests may share a slot, and the messages
//! only this service exchanges. Two services exist: any
//! [`StateMachine`](crate::StateMachine) (a value is one shared `Arc`
//! that every acceptor receives, the lock service) and
//! `storage::RsService` (values travel as erasure-coded shards, RS-Paxos).

use std::collections::VecDeque;
use std::fmt::Debug;

use obs::TraceContext;
use simnet::{Context, NodeId, SimTime};

use crate::ballot::Slot;
use crate::msg::Msg;
use crate::replica::Replica;

/// A client request parked at the leader: waiting for leadership, for a
/// barrier to lift, for the pipeline window to free up, or for its batch
/// to fill.
#[derive(Clone, Debug)]
pub struct PendingOp<O> {
    /// Originating client node.
    pub client: NodeId,
    /// Client-local request id.
    pub req_id: u64,
    /// The requested operation.
    pub op: O,
    /// The causal trace the request arrived under.
    pub trace: TraceContext,
    /// Arrival time, for the batch linger policy.
    pub at: SimTime,
}

/// How the head of the request queue goes into the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compose {
    /// Propose the front request alone in its own slot, re-admitted (it
    /// may have settled while it queued).
    Alone,
    /// Fold the first `take` requests into one slot value.
    Batch {
        /// How many queued requests the value carries (at least one).
        take: usize,
        /// Waiting cannot grow this batch: propose it without lingering.
        full: bool,
    },
}

/// What a [`Replica`] replicates. All hooks are static dispatch; the
/// per-replica service state lives in [`Service::Host`].
pub trait Service: Clone + Debug + Sized {
    /// A client command, as workload sessions schedule them.
    type Cmd: Clone + Debug;
    /// The service's answer to one command.
    type Resp: Clone + Debug;
    /// What a [`Msg::Request`] carries.
    type Op: Clone + Debug;
    /// A slot value as the proposing leader holds it.
    type Value: Clone + Debug;
    /// A slot value as one acceptor receives and stores it.
    type Wire: Clone + Debug;
    /// Messages only this service exchanges.
    type Ext: Clone + Debug;
    /// The applied state a snapshot carries.
    type Snap: Clone + Debug;
    /// Per-replica service state (the applied state and whatever serving
    /// requests needs besides the log).
    type Host: Clone + Debug;

    /// Prefix of every metric, span and event name (`{PREFIX}.election`).
    const PREFIX: &'static str;
    /// Kind names of the [`Service::Ext`] messages, by [`Service::ext_kind`].
    const EXT_KINDS: &'static [&'static str];
    /// Salt of the replica's election-jitter stream.
    const REPLICA_SALT: u64;
    /// Salt of the closed-loop client's first-target stream.
    const CLIENT_SALT: u64;
    /// Client and session retransmission timeout.
    const CLIENT_TIMEOUT: SimTime;

    /// Index of `ext`'s kind into [`Service::EXT_KINDS`].
    fn ext_kind(ext: &Self::Ext) -> usize;

    // ------------------------------------------------ the value codec

    /// Seam 1: the form of `value` the acceptor at view position
    /// `dest_idx` receives.
    fn wire_for(value: &Self::Value, dest_idx: usize) -> Self::Wire;

    /// Seam 2: the value a new leader re-proposes for a slot, from the
    /// highest-ballot copies a prepare quorum reported (none for a gap).
    fn recover(host: &Self::Host, copies: &[&Self::Wire]) -> Self::Value;

    /// Seam 3, sending: the form of the locally stored chosen value the
    /// peer at view position `dest_idx` should adopt (`None` when the
    /// peer is not in the view).
    fn reshape(
        host: &Self::Host,
        chosen: &Self::Wire,
        slot: Slot,
        dest_idx: Option<usize>,
    ) -> Self::Wire;

    /// Seam 3, receiving: a chosen entry arrived for a slot already
    /// decided here. Chosen values are write-once; the default keeps the
    /// stored one.
    fn absorb(_existing: &mut Self::Wire, _incoming: Self::Wire) {}

    /// Seam 4: the value [`Service::apply`] gets for a slot, taken out of
    /// the log's chosen copy, which keeps the decision. The default clones.
    fn take_applied(chosen: &mut Self::Wire) -> Self::Wire {
        chosen.clone()
    }

    /// Whether two replicas' stored values for one slot record the same
    /// decision (the agreement check).
    fn same_decision(a: &Self::Wire, b: &Self::Wire) -> bool;

    // ------------------------------------- admission and composition

    /// Whether `value` carries the request `(client, req_id)`.
    fn carries(value: &Self::Value, client: NodeId, req_id: u64) -> bool;

    /// Whether `op`, at the front of the request queue, must wait there;
    /// the queue behind it waits too.
    fn barrier(_host: &Self::Host, _op: &Self::Op) -> bool {
        false
    }

    /// How the head of the non-empty `queue` goes into the log, given
    /// the configured batch size.
    fn compose(queue: &VecDeque<PendingOp<Self::Op>>, max_ops: usize) -> Compose;

    /// The slot value carrying `ops` (one or more, in order).
    fn value(host: &mut Self::Host, ops: Vec<PendingOp<Self::Op>>) -> Self::Value;

    // ------------------------------------------------------ lifecycle

    /// The leader chose `value` for `slot` (before it is applied).
    fn chosen(_host: &mut Self::Host, _slot: Slot, _value: &Self::Value) {}

    /// Apply the chosen `value` of `slot`; slots arrive in order, once.
    fn apply(r: &mut Replica<Self>, slot: Slot, value: Self::Wire, ctx: &mut Context<Msg<Self>>);

    /// The leader's bookkeeping tick, after heartbeats and retries.
    fn tick(_r: &mut Replica<Self>, _ctx: &mut Context<Msg<Self>>) {}

    /// A service-only message arrived.
    fn on_ext(r: &mut Replica<Self>, from: NodeId, ext: Self::Ext, ctx: &mut Context<Msg<Self>>);

    /// The replica stopped leading or campaigning; `queue` holds the
    /// requests it had admitted but not proposed.
    fn stepped_down(host: &mut Self::Host, queue: &mut VecDeque<PendingOp<Self::Op>>);

    /// The applied state, for a snapshot.
    fn snapshot(host: &Self::Host) -> Self::Snap;

    /// Replace the applied state with a snapshot's.
    fn restore(host: &mut Self::Host, snap: Self::Snap);

    // ---------------------------------------------------- client side

    /// The operation a session submits for `cmd`.
    fn op(cmd: Self::Cmd) -> Self::Op;
}
