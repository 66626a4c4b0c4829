//! # test-util — shared fixtures, seeded RNG plumbing and safety checkers
//!
//! Support code for the workspace's test suites, in five layers:
//!
//! * [`alloc`] — a counting global allocator, for tests that bound how
//!   many heap allocations a path makes;
//! * [`rng`] — seed derivation and seeded-RNG construction, so every test
//!   spells randomness the same way and every failure prints a
//!   reproducing seed;
//! * [`env`](mod@env) — the `CHAOS_SCHEDULES` / `CHAOS_SEED` environment
//!   knobs and the exact re-run command a failing chaos test prints;
//! * [`fixtures`] — the synthetic-market and cluster constructions that
//!   used to be copy-pasted across the root integration tests;
//! * [`check`] + [`chaos`] — the safety checkers (one linearizability
//!   search over both services' client histories, plus agreement, batch
//!   and shard audits) and the chaos runs that play a
//!   [`simnet::ChaosSchedule`] against a live cluster and report failures
//!   with seed, schedule, and obs trace attached.
//!
//! This crate is a test dependency only: nothing in the shipped library
//! path depends on it, so the `paxos`/`storage` crates stay free of
//! dev-dependency cycles (the chaos suites that need both live in the
//! workspace root's `tests/`).

pub mod alloc;
pub mod chaos;
pub mod check;
pub mod env;
pub mod fixtures;
pub mod rng;

pub use chaos::{
    run_lock_chaos, run_lock_chaos_batched, run_storage_chaos, run_storage_chaos_batched,
    shrink_and_report, ChaosFailure, ChaosOutcome,
};
pub use check::{check_lock_cluster, check_storage_cluster};
pub use env::{chaos_schedules, chaos_seed, repro_command};
pub use fixtures::{
    hetero_market_days, lock_cluster, market_days, quick_market, repair_pair, storage_cluster,
};
pub use rng::{derive_seed, rng_from};
