//! # quorum — quorum sizes and service availability
//!
//! The availability side of the paper (§2.2, §3, §4.1). A service makes
//! progress while its live nodes hold a quorum; with nodes failing
//! independently, its availability is the probability that the live set
//! is accepted (Definition 1, Eq. 1).
//!
//! * [`rule`] — [`QuorumRule`], the one quorum description the services
//!   and the bidding framework use: simple majority (Paxos) or the
//!   RS-Paxos `⌈(n+m)/2⌉`, whose quorums intersect in ≥ m nodes so a coded
//!   value stays reconstructible.
//! * [`availability`] — Eq. 1: an O(n²) Poisson-binomial dynamic program
//!   for `k`-of-`n` quorums, an O(n·W) dynamic program for vote vectors,
//!   and the exact `2^n` enumeration over live-node [`Mask`]s the two are
//!   tested against.
//! * [`weighted`] — the optimal vote assignment w_i = log₂((1-p_i)/p_i)
//!   (Eq. 11, Spasojevic & Berman; Tong & Kain) with the monarchy/dummy
//!   rules of Amir & Wool: the *optimal availability acceptance set* of
//!   Definition 2, which the §4.1 ablation weighs against majority.
//! * [`solve`] — the inverse problem the bidding algorithm needs
//!   (Fig. 3 line 4): the largest equal per-node failure probability that
//!   still meets a service availability target (`node_failure_pr`).
#![forbid(unsafe_code)]

pub mod availability;
pub mod rule;
pub mod solve;
pub mod weighted;

pub use availability::{
    acceptance_availability, threshold_availability, weighted_availability, Mask,
};
pub use rule::QuorumRule;
pub use solve::node_failure_pr;
pub use weighted::{optimal_votes, optimal_weights};
