//! # workload — request-level open-loop load generation over `simnet`
//!
//! The paper evaluates availability at the granularity of *instances*
//! (§5: fraction of bidding intervals with a live quorum). This crate
//! adds the missing request-level view: a seeded open-loop workload
//! engine that drives the Paxos lock service and the RS-Paxos store
//! with Poisson / bursty / diurnal arrival processes, measures each
//! request from scheduled arrival to completion (no coordinated
//! omission), and reduces the outcomes to latency quantiles and an
//! **SLO availability** — the fraction of requests answered within a
//! latency bound — to sit alongside the paper's fleet-based figure.
//!
//! Determinism contract: arrival times and the command mix come from
//! sequential ChaCha8 streams derived from the spec seed, and the
//! simulation itself is a deterministic DES, so a spec replays
//! bit-identically under any thread count.
#![forbid(unsafe_code)]

pub mod arrival;
pub mod engine;

pub use arrival::{split_round_robin, ArrivalProcess};
pub use engine::{run_lock_workload, run_storage_workload, WorkloadReport, WorkloadSpec};
