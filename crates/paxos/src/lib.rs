//! # paxos — one Multi-Paxos replica core over `simnet`
//!
//! The execution substrate of both evaluation systems. [`Replica`] is
//! the one replica: it owns the protocol and is generic over a
//! [`Service`], which owns the value codec (what each acceptor receives,
//! how phase 1 recovers a value, how chosen entries are reshaped for a
//! peer), application, request admission and its own messages. Every
//! [`StateMachine`] is a service whose values are one shared `Arc` — the
//! Chubby-like distributed **lock service** (§5.1.1) — and the `storage`
//! crate plugs in the RS-Paxos shard codec (§5.1.2). The core provides
//!
//! * stable leadership with heartbeats and randomized election timeouts,
//! * classic two-phase (prepare/accept) consensus per log slot with
//!   recovery of previously accepted values on leader change,
//! * in-order application to the hosted service,
//! * client request routing, forwarding, retransmission and
//!   exactly-once application (per-client dedup),
//! * log catch-up for lagging or restarted replicas, and
//! * **view change**: membership reconfiguration through committed
//!   `Reconfig` log entries — the mechanism the bidding framework uses to
//!   swap spot instances between bidding intervals (§4: "Adding and
//!   removing a spot instance is supported by the view change of Paxos").
//!
//! The quorum rule comes from the configuration ([`msg::QuorumRule`]):
//! simple majority for the lock service, or the larger `⌈(n+m)/2⌉`
//! quorums RS-Paxos requires.
//!
//! Everything runs inside a deterministic [`simnet::Simulation`], so whole
//! cluster lifetimes — including the crash schedules the spot market
//! inflicts — replay bit-identically from a seed.
#![forbid(unsafe_code)]

pub mod ballot;
pub mod client;
pub mod harness;
pub mod lock;
pub mod msg;
pub mod node;
pub mod open_loop;
pub mod replica;
pub mod service;
mod session;
pub mod smr;

pub use ballot::{Ballot, Slot};
pub use client::{ClientState, CompletedOp};
pub use harness::Cluster;
pub use lock::{LockCmd, LockResp, LockService};
pub use msg::{BatchEntry, ClientOp, Command, Msg, QuorumRule};
pub use node::PaxosNode;
pub use open_loop::{OpenLoopClient, OpenOp};
pub use replica::{Replica, ReplicaConfig};
pub use service::{Compose, PendingOp, Service};
pub use smr::StateMachine;
