//! # spot-model — the spot-instance failure model (§3.1, §4.2)
//!
//! The paper's central modelling contribution: estimate the probability
//! that a spot instance under bid `b` suffers an out-of-bid failure during
//! the next bidding interval, from the spot-price history alone.
//!
//! * [`kernel`] — the discrete **semi-Markov chain** over unique spot
//!   prices. Sojourn times are discretized to one minute (Eq. 12) and the
//!   stochastic kernel `q_{i,j,k} = P(next = s_j, sojourn = k | cur = s_i)`
//!   is estimated with the empirical (MLE-like) estimator of Eq. 13,
//!   `q̂ = N_{i,j}^k / N_i`. The immutable, sorted [`FrozenKernel`] is
//!   built one way, [`FrozenKernel::extend`] (a fit is the empty kernel
//!   extended once); it is cheap to share (`Arc` per state table) and to
//!   fork copy-on-write as new price data arrives ("with more spot prices
//!   data collected, the estimation can be improved").
//! * [`forecast`] — forward evolution of the semi-Markov state
//!   distribution, conditioned on the current price *and its elapsed
//!   sojourn* (the non-memoryless part). Produces, for each price level,
//!   the expected fraction of the next interval during which the market
//!   price exceeds that level — the discretized Eq. 5.
//! * [`failure`] — the user-facing [`failure::FailureModel`]: combines the
//!   out-of-bid probability with the constant instance failure probability
//!   `FP⁰ = 0.01` of an on-demand instance (Eq. 4/14), answers
//!   `estimate_fp(bid, …)`, offers an *absorbing* (survival) variant used
//!   by the ablation experiments, and answers the minimal-bid query the
//!   bidding algorithm needs under either [`Estimator`]: one
//!   [`BidGrid`] per market state, whose memo the node counts share.
//!
//! The crate is safe Rust: no `unsafe`, no `std::arch`. The forecast
//! evolution is fast by its memory layout (four-state tiles the compiler
//! vectorizes), not by intrinsics.
#![forbid(unsafe_code)]

pub mod backtest;
pub mod failure;
pub mod forecast;
pub mod kernel;

pub use backtest::{backtest, BidRule, CalibrationReport};
pub use failure::{BidGrid, Estimator, FailureModel, FailureModelConfig};
pub use forecast::{Forecast, ForecastConfig};
pub use kernel::FrozenKernel;

/// The failure probability of an on-demand instance per the EC2 SLA the
/// paper cites: measured availability ≈ 0.99 ⇒ FP⁰ = 0.01 (§3.1).
pub const ON_DEMAND_FP: f64 = 0.01;
