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
//!   inversion, and `gf256::RowTables`, the one bulk kernel — rows of a
//!   coefficient matrix tabulated in pairs, so one u16 lookup per byte
//!   and column gives two output rows' products.
//! * [`matrix`] — dense matrices over GF(2⁸): multiplication, Gauss–Jordan
//!   inversion, Vandermonde construction.
//! * [`rs`] — the systematic Reed–Solomon codec θ(m, n): encode data
//!   shards into parity shards, reconstruct from any `m` survivors, plus
//!   whole-object helpers. An object's frame is the object, zero padding
//!   and a u64 length trailer, so the data shards that lie wholly inside
//!   the object are views of its `Bytes`; the rest of the frame and the
//!   parity rows are slices of one new buffer.
//!
//! The kernel is safe Rust with one code path: no `unsafe`, no
//! `std::arch`, no per-shape fast path. A table kernel's cost is its
//! loads per output byte, and pairing rows halves the table loads
//! (ROADMAP item 5(b)).
#![forbid(unsafe_code)]

pub mod gf256;
pub mod matrix;
pub mod rs;

pub use gf256::Gf;
pub use matrix::Matrix;
pub use rs::{ErasureError, ReedSolomon};
