//! # storage — an RS-Paxos erasure-coded distributed storage service
//!
//! The paper's second evaluation system (§5.1.2): a replicated object
//! store that, following RS-Paxos (Mu et al., HPDC'14), sends **coded
//! shards instead of full copies** through consensus. With a θ(m, n) code
//! the accept/prepare quorums grow to `q = ⌈(n+m)/2⌉` so that any two
//! quorums intersect in at least `m` replicas and a chosen value is always
//! reconstructible; the price is reduced fault tolerance (θ(3,5) tolerates
//! one failure, not two) — exactly the trade-off the paper's availability
//! analysis must capture.
//!
//! The protocol is the `paxos` replica core with the RS codec plugged
//! into its three value seams ([`RsService`]):
//!
//! * The leader encodes each `Put` into `n` shards and sends acceptor `i`
//!   only shard `i`; a slot is chosen once `q` acceptors accept.
//! * `Commit` carries each replica its own shard, so even replicas that
//!   missed the accept round store their shard.
//! * On leader change, promises return the accepted *shards*; a value at
//!   the highest ballot is reconstructed when ≥ m shards are present
//!   (guaranteed for chosen values by quorum intersection) and re-proposed;
//!   otherwise the slot provably never chose and is filled with a no-op.
//! * `Get` is serialized through the log; the leader answers from its
//!   object cache, or gathers `m` shards from peers and reconstructs.
//!
//! Everything else — elections, slot allocation, batching, heartbeats,
//! catch-up, the exactly-once cache, the messages, the node enum, the
//! clients and the cluster harness — is the core's, instantiated with
//! [`RsService`]; the `Rs*` names below instantiate its types.
//!
//! Membership is fixed per deployment (shard index = position in the
//! view); replacing an instance is modelled as crash + restart of a slot,
//! which matches the replay harness's accounting. The full add/remove view
//! change lives in the plain Paxos lock service.
#![forbid(unsafe_code)]

pub mod harness;
pub mod msg;
pub mod service;
pub mod store;

pub use harness::RsCluster;
pub use msg::{ShardMsg, StoreCmd, StoreResp, WireValue};
pub use service::{RsConfig, RsReplica, RsService};
pub use store::ShardStore;

/// A node in an RS-Paxos simulation: server replica or client.
pub type RsNode = paxos::PaxosNode<RsService>;
/// An open-loop session actor driving one RS-Paxos cluster.
pub type RsOpenLoopClient = paxos::OpenLoopClient<RsService>;
