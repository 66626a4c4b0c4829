//! # jupiter — the availability- and cost-aware bidding framework
//!
//! The paper's primary contribution (§3.2, §4): decide, at each bidding
//! interval, **how many** spot instances to run, **in which availability
//! zones**, and **at what bids**, so that
//!
//! * the service's expected availability matches an on-demand deployment
//!   (constraint 10), and
//! * the cost upper bound Σ bids is minimized (objective 8),
//!
//! using the semi-Markov failure model of [`spot_model`] for the
//! per-instance failure probabilities.
//!
//! * [`service`] — [`ServiceSpec`]: what is being deployed (instance type,
//!   baseline node count, quorum rule, availability target ε).
//! * [`strategy`] — the [`BiddingStrategy`] trait and the market snapshot
//!   ([`ZoneState`]) strategies consume.
//! * [`algorithm`] — [`JupiterStrategy`], the enumeration + greedy
//!   algorithm of Fig. 3.
//! * [`heuristic`] — the `Extra(m, p)` comparison strategies of §5.2
//!   (lowest `n + m` spot prices, bid = spot price × (1 + p)).
//! * [`feedback`] — [`FeedbackStrategy`], a model-free PID bidder (Li et
//!   al.) that closes a control loop on the observed survival of its own
//!   standing bids, raced against Jupiter by the scenario engine.
//! * [`exhaustive`] — an exact branch-and-bound solver of the NLP for
//!   small instances, used to validate Jupiter's near-optimality (the NLP
//!   is NP-hard; exhaustive search is only feasible at toy scale, which is
//!   the paper's argument for the greedy algorithm).
//! * [`framework`] — [`BiddingFramework`] (Fig. 2): owns one failure model
//!   per availability zone, keeps them trained online, and turns market
//!   snapshots into bid decisions.

//! * [`store`] — [`ModelStore`]: a shared memo table of frozen kernels
//!   keyed by (zone, instance type, trained-until minute), so many
//!   concurrent policy evaluations over the same market train each model
//!   exactly once.
//! * [`par`] — [`par::par_map`], the workspace's one parallel map: the
//!   evaluation plan's key groups, a sweep's cells, a decision pass's
//!   pool jobs (and a loop decision's zones) on the host's cores, inline
//!   when called from inside another map's job.
//!
//! The crate is safe Rust: its speed comes from work skipped and cores
//! used, never from `unsafe`.
#![forbid(unsafe_code)]

pub mod algorithm;
pub mod exhaustive;
pub mod feedback;
pub mod framework;
pub mod heuristic;
pub mod par;
pub mod service;
pub mod store;
pub mod strategy;

pub use algorithm::JupiterStrategy;
pub use exhaustive::ExhaustiveSolver;
pub use feedback::FeedbackStrategy;
pub use framework::BiddingFramework;
pub use heuristic::{ExtraStrategy, FixedOnce};
pub use service::ServiceSpec;
pub use store::{ModelKey, ModelStore};
pub use strategy::{
    BidDecision, BidView, BiddingStrategy, Boundary, Decided, PoolBid, PoolWalk, ZoneState,
};
