//! # spot-market — Amazon EC2 spot-market substrate (2014-era semantics)
//!
//! The paper evaluates its bidding framework against the live Amazon EC2
//! spot market of 2014, which no longer exists (AWS removed user bidding in
//! 2017). This crate rebuilds that market as a deterministic substrate:
//!
//! * [`topology`] — the region / availability-zone catalogue of Table 1 and
//!   the per-region instance startup-delay model (200–700 s, Mao & Humphrey).
//! * [`instance`] — instance types used in the evaluation (`m1.small`,
//!   `m3.large`, …) with per-region on-demand prices matching the ranges the
//!   paper quotes ($0.044–0.061 and $0.14–0.201 per hour).
//! * [`trace`] — step-function spot-price traces at one-minute resolution
//!   (the paper discretizes sojourn times to minutes, Eq. 12).
//! * [`gen`] — a semi-Markov synthetic trace generator calibrated to the
//!   2014 statistics the paper reports: price levels around 15–20 % of the
//!   on-demand price, minute-scale price changes, occasional spikes above
//!   the on-demand price, and non-memoryless sojourn times.
//! * [`billing`] — EC2's 2014 charging rules: hourly billing at the last
//!   in-hour spot price, free partial hour on provider (out-of-bid)
//!   termination, charged partial hour on user termination; on-demand
//!   instances billed per started hour.
//! * [`pool`] — [`PoolTable`], the dense per-(zone, type) table every
//!   per-pool map is kept in (a slot per pool, no hashing).
//! * [`market`] — a facade bundling traces for every (zone, type) pair and
//!   answering the queries the bidding framework and replay harness need
//!   (current price, first out-of-bid minute under a bid, billing).
//!
//! ## Out-of-bid semantics
//!
//! Following EC2's documented behaviour: a spot request is granted when the
//! bid is at least the current spot price, the instance keeps running while
//! `bid >= price`, and is terminated by the provider as soon as
//! `price > bid`. The paper's failure model (Eq. 14) is slightly more
//! conservative at the boundary (it counts `bid == price` as failed); we
//! keep the market faithful to EC2 and let the model be conservative, which
//! only ever overestimates failure probability.
#![forbid(unsafe_code)]

pub mod ar;
pub mod billing;
pub mod capacity;
pub mod gen;
pub mod instance;
pub mod market;
pub mod money;
pub mod pool;
pub mod topology;
pub mod trace;

pub use ar::ArTraceGenerator;
pub use billing::{on_demand_charge, spot_charge, Termination};
pub use capacity::{BidEra, CapacityProcess, InterruptionNotice};
pub use gen::{GenParams, TraceGenerator};
pub use instance::InstanceType;
pub use market::{Market, MarketConfig};
pub use money::Price;
pub use pool::PoolTable;
pub use topology::{Region, Zone};
pub use trace::{PricePoint, PriceTrace, Segment};
