//! # erasure — Reed–Solomon erasure coding over GF(2⁸)
//!
//! The substrate for the paper's second evaluation system: an RS-Paxos
//! erasure-coded storage service (Mu et al., HPDC'14). A θ(m, n) code
//! splits an object into `m` data chunks and adds `k = n − m` parity
//! chunks so that *any* `m` of the `n` chunks reconstruct the original
//! (§5.1.2; Rizzo's FEC construction).
//!
//! * [`gf256`] — the finite field GF(2⁸) with the 0x11D reduction
//!   polynomial: log/exp-table scalar multiplication, division and
//!   inversion, and `gf256::combine`, the one bulk kernel — a product
//!   row per coefficient, a lookup per byte and column.
//! * [`matrix`] — dense matrices over GF(2⁸): multiplication, Gauss–Jordan
//!   inversion, Vandermonde construction.
//! * [`rs`] — the systematic Reed–Solomon codec θ(m, n): encode data
//!   shards into parity shards, reconstruct from any `m` survivors, plus
//!   whole-object helpers (length framing + padding) and the single shard
//!   of an object that a catch-up reply needs.
//!
//! The kernel is safe Rust: no `unsafe`, no `std::arch`. What SIMD would
//! add is left on the table on purpose (ROADMAP item 5).
#![forbid(unsafe_code)]

pub mod gf256;
pub mod matrix;
pub mod rs;

pub use gf256::Gf;
pub use matrix::Matrix;
pub use rs::{ErasureError, ReedSolomon};
