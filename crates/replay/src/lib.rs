//! # replay — the trace-replay experiment harness
//!
//! Drives the bidding framework against a (synthetic) spot market exactly
//! the way the paper's evaluation does (§5): train the per-zone failure
//! models on a history prefix, then replay an evaluation span interval by
//! interval —
//!
//! 1. shortly before each interval boundary, snapshot every zone (price,
//!    sojourn age), let the strategy bid, and launch the new fleet
//!    (startup delays per region apply; old instances are terminated at
//!    the boundary, so replacements overlap with the outgoing fleet as the
//!    paper prescribes);
//! 2. during the interval, instances die at the first minute their zone's
//!    price strictly exceeds their bid (out-of-bid termination; no
//!    re-bidding until the next boundary — unless a
//!    [`repair::RepairPolicy`] is active, in which case the repair
//!    controller rebids the missing slots mid-interval with exponential
//!    backoff, escalating to on-demand fallbacks under `Hybrid`);
//! 3. account **cost** with the 2014 billing rules (free provider-killed
//!    partial hours, charged user-terminated partial hours) and
//!    **availability** as the fraction of minutes a quorum of the current
//!    group is running — the paper's replay measures out-of-bid downtime
//!    ("cost and availability … are certained with the given spot prices
//!    data").
//!
//! One replay is one [`Replay`] builder chain —
//! `Replay::new(&market, &spec, config).run(strategy)`, optionally with
//! `.repair(..)`, `.schedule(..)` / `.adaptive()`, `.store(..)`,
//! `.autoscaler(..)` and `.obs(..)` in between; [`Scenario`] runs a grid of
//! them over one shared market and model store.
//!
//! [`experiments`] packages the paper's figures (4 through 9 plus the
//! headline savings and the ablations) as cell keys one plan replays, and
//! analyses returning rows; [`service_level`] replays shorter windows against the
//! *actual* Paxos lock service / RS-Paxos store with injected crashes, for
//! the feasibility check (§5.4) where message-level behaviour matters.

pub mod adaptive;
pub mod autoscale;
pub mod chaos;
pub mod experiments;
pub mod lifecycle;
mod par;
pub mod repair;
pub mod results;
pub mod scenario;
pub mod service_level;

pub use autoscale::{
    demand_series, AutoScaler, AutoscaleConfig, ObservedInterval, ScaleAction, HEADROOM,
    HYSTERESIS_INTERVALS,
};
pub use chaos::{capacity_fault_schedule, market_fault_schedule};
pub use lifecycle::{InstanceRecord, Replay, ReplayConfig};
pub use repair::{RepairConfig, RepairPolicy};
pub use results::{IntervalOutcome, ReplayResult};
pub use scenario::{CellOutcome, Scenario, StrategyFactory, SweepSpec};
pub use service_level::{record_latency_slo, record_trace_metrics};
