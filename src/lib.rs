//! # spot-jupiter — bidding for highly available services on spot markets
//!
//! A full reproduction of *"Bidding for Highly Available Services with Low
//! Price in Spot Instance Market"* (HPDC 2015): the **Jupiter** bidding
//! framework plus every substrate it runs on, built from scratch in Rust.
//!
//! This facade crate re-exports the workspace members:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`simnet`] | deterministic discrete-event network simulation |
//! | [`spot_market`] | 2014-era EC2 spot market: zones, prices, billing, synthetic traces |
//! | [`spot_model`] | the semi-Markov spot-instance failure model |
//! | [`quorum`] | acceptance sets, quorum systems, availability math |
//! | [`erasure`] | GF(2⁸) Reed–Solomon θ(m, n) |
//! | [`paxos`] | Multi-Paxos SMR with view change + the lock service |
//! | [`storage`] | the RS-Paxos erasure-coded storage service |
//! | [`jupiter`] | the bidding framework: Fig. 3 algorithm, Extra(m,p), exact solver |
//! | [`replay`] | the trace-replay experiment harness (Figs. 4–9) |
//! | [`workload`] | request-level open-loop load generation + SLO availability |
//! | [`obs`] | observability: metric registry, sim-time tracing, JSON export |
//!
//! ## Quickstart
//!
//! ```
//! use spot_jupiter::jupiter::{BiddingFramework, JupiterStrategy, ServiceSpec};
//! use spot_jupiter::jupiter::framework::MarketSnapshot;
//! use spot_jupiter::spot_market::{InstanceType, Market, MarketConfig};
//!
//! // Ten days of synthetic market history across the paper's 17 zones.
//! let market = Market::generate(MarketConfig::paper(42, 10 * 24 * 60));
//! let ty = InstanceType::M1Small;
//!
//! // Train one failure model per zone, then bid for a 6-hour interval.
//! let mut fw = BiddingFramework::new(ServiceSpec::lock_service(), JupiterStrategy::new());
//! let now = market.horizon() - 1;
//! let snapshots: Vec<MarketSnapshot> = market
//!     .zones()
//!     .iter()
//!     .map(|&z| {
//!         let t = market.trace(z, ty);
//!         fw.observe(z, ty, t, 0..market.horizon());
//!         MarketSnapshot {
//!             zone: z,
//!             instance_type: ty,
//!             spot_price: t.price_at(now),
//!             sojourn_age: t.sojourn_age_at(now) as u32,
//!         }
//!     })
//!     .collect();
//! let decision = fw.decide(&snapshots, 360);
//! assert!(decision.n() >= 5, "a lock service needs at least five replicas");
//! ```
#![forbid(unsafe_code)]

pub use erasure;
pub use jupiter;
pub use obs;
pub use paxos;
pub use quorum;
pub use replay;
pub use simnet;
pub use spot_market;
pub use spot_model;
pub use storage;
pub use workload;
