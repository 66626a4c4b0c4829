//! Property-based tests of the Reed–Solomon codec: for every code shape
//! and payload, any `m` survivors reconstruct the object exactly, every
//! encode entry point agrees byte for byte with a reference encoder that
//! multiplies one byte at a time, and `reconstruct` agrees with a
//! reference decoder that solves the survivors' equations by Gaussian
//! elimination.

use std::collections::HashSet;

use bytes::Bytes;
use erasure::{Gf, Matrix, ReedSolomon};
use proptest::prelude::*;

/// A pseudo-random `m`-subset of `0..n`.
fn m_subset(m: usize, n: usize, seed: u64) -> HashSet<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        order.swap(i, (s >> 33) as usize % (i + 1));
    }
    order.into_iter().take(m).collect()
}

/// The normalized θ(m, n) Vandermonde matrix, from `Matrix`'s scalar
/// algebra.
fn reference_matrix(m: usize, n: usize) -> Matrix {
    let v = Matrix::vandermonde(n, m);
    let top: Vec<usize> = (0..m).collect();
    v.mul(&v.select_rows(&top).inverse().expect("invertible"))
}

/// The reference θ(m, n) encoder: [`reference_matrix`] and one `Gf::mul`
/// per (row, column, byte) — it reads neither the product tables nor the
/// kernel.
fn reference_encode(m: usize, n: usize, data: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let matrix = reference_matrix(m, n);
    (0..n)
        .map(|r| {
            (0..data[0].len())
                .map(|i| {
                    let terms = (0..m).map(|c| matrix[(r, c)].mul(Gf(data[c][i])));
                    terms.fold(Gf::ZERO, Gf::add).0
                })
                .collect()
        })
        .collect()
}

/// The reference decoder: the first `m` survivors' rows of
/// [`reference_matrix`] form the system `A · data = survivors`, solved by
/// Gauss–Jordan elimination on the augmented rows `[A | survivors]`, one
/// `Gf::mul` per entry and byte. It reads no product table and no
/// `Matrix::inverse`.
fn reference_decode(m: usize, n: usize, shards: &[Option<Vec<u8>>]) -> Vec<Vec<u8>> {
    let matrix = reference_matrix(m, n);
    let mut system: Vec<(Vec<Gf>, Vec<Gf>)> = shards
        .iter()
        .enumerate()
        .filter_map(|(r, s)| {
            let row = (0..m).map(|c| matrix[(r, c)]).collect();
            Some((row, s.as_ref()?.iter().map(|&b| Gf(b)).collect()))
        })
        .take(m)
        .collect();
    assert_eq!(system.len(), m, "m survivors");
    for col in 0..m {
        let pivot = (col..m)
            .find(|&r| system[r].0[col] != Gf::ZERO)
            .expect("any m rows are independent");
        system.swap(col, pivot);
        let scale = system[col].0[col].inv();
        let (row, rhs) = &mut system[col];
        row.iter_mut()
            .chain(rhs.iter_mut())
            .for_each(|x| *x = x.mul(scale));
        let (pivot_row, pivot_rhs) = system[col].clone();
        for (r, (row, rhs)) in system.iter_mut().enumerate() {
            let f = row[col];
            if r == col || f == Gf::ZERO {
                continue;
            }
            let terms = pivot_row.iter().chain(&pivot_rhs);
            for (x, p) in row.iter_mut().chain(rhs.iter_mut()).zip(terms) {
                *x = x.add(p.mul(f));
            }
        }
    }
    system
        .into_iter()
        .map(|(_, rhs)| rhs.into_iter().map(|g| g.0).collect())
        .collect()
}

/// `reconstruct` against [`reference_decode`], byte for byte, for every
/// survivor subset of at least `m` shards of every shape with n ≤ 6:
/// once on a codeword and once on random shards that are no codeword, so
/// the kernel is held to the exact linear map of the inverse rows and not
/// only to the round trip.
#[test]
fn reconstruct_matches_gaussian_elimination() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut random_shard = |len: usize| -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    };
    for n in 1..=6usize {
        for m in 1..=n {
            let rs = ReedSolomon::new(m, n);
            for len in [1, 37] {
                let data: Vec<Vec<u8>> = (0..m).map(|_| random_shard(len)).collect();
                let codeword = reference_encode(m, n, &data);
                let noise: Vec<Vec<u8>> = (0..n).map(|_| random_shard(len)).collect();
                for mask in 0u32..1 << n {
                    if (mask.count_ones() as usize) < m {
                        continue;
                    }
                    for (kind, shards) in [("codeword", &codeword), ("noise", &noise)] {
                        let partial: Vec<Option<Vec<u8>>> = (0..n)
                            .map(|i| (mask >> i & 1 == 1).then(|| shards[i].clone()))
                            .collect();
                        let ctx = format!("θ({m}, {n}), {len} bytes, {kind}, mask {mask:#b}");
                        let got = rs.reconstruct(&partial).expect("m survivors");
                        assert_eq!(got, reference_decode(m, n, &partial), "{ctx}");
                        if kind == "codeword" {
                            assert_eq!(got, data, "{ctx}");
                        }
                    }
                }
            }
        }
    }
}

/// The documented framing, spelled out: the object, zeros until eight
/// bytes short of a multiple of `m`, its u64 LE length, cut into `m`
/// equal data shards.
fn reference_frame(m: usize, object: &[u8]) -> Vec<Vec<u8>> {
    let mut framed = object.to_vec();
    framed.resize((object.len() + 8).next_multiple_of(m) - 8, 0);
    framed.extend_from_slice(&(object.len() as u64).to_le_bytes());
    framed
        .chunks(framed.len() / m)
        .map(<[u8]>::to_vec)
        .collect()
}

/// `encode` and `encode_object` against the reference, then `reconstruct` from a random m-subset of the shards.
fn assert_matches_reference(m: usize, n: usize, object: &Bytes, subset_seed: u64) {
    let rs = ReedSolomon::new(m, n);
    let data = reference_frame(m, object);
    let expect = reference_encode(m, n, &data);
    let ctx = format!("θ({m}, {n}), {} bytes", object.len());
    assert_eq!(rs.encode(&data).expect("well-formed"), expect, "{ctx}");
    let shards = rs.encode_object(object);
    assert_eq!(shards.len(), n, "{ctx}");
    for (i, want) in expect.iter().enumerate() {
        assert_eq!(&shards[i][..], &want[..], "encode_object[{i}], {ctx}");
    }
    let keep = m_subset(m, n, subset_seed);
    let partial: Vec<Option<&[u8]>> = (0..n)
        .map(|i| keep.contains(&i).then(|| &expect[i][..]))
        .collect();
    assert_eq!(
        rs.reconstruct(&partial).expect("m survivors"),
        data,
        "{ctx}, survivors {keep:?}"
    );
    assert_eq!(
        rs.decode_object(&partial).expect("m survivors"),
        object.as_ref(),
        "{ctx}"
    );
}

/// The lengths where framing changes shape, at every code shape up to
/// n = 8: empty, shorter than / exactly / one past the 8-byte trailer's
/// width, and objects and frames that are exact multiples of `m` and one
/// byte past them.
#[test]
fn encoders_match_reference_at_the_edge_lengths() {
    for n in 1..=8usize {
        for m in 1..=n {
            let mut lengths = vec![0, 1, 7, 8, 9];
            for multiple in [5 * m, 40 * m] {
                // Object a multiple of m; frame (8 + len) a multiple of m.
                lengths.extend([multiple, multiple + 1]);
                lengths.extend([8 * multiple - 8, 8 * multiple - 7]);
            }
            for len in lengths {
                let object: Vec<u8> = (0..len).map(|i| (i * 151 + 11 * m + n) as u8).collect();
                let seed = (len * 64 + m * 8 + n) as u64;
                assert_matches_reference(m, n, &Bytes::from(object), seed);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The differential oracle over random shapes 1 ≤ m ≤ n ≤ 8 and
    /// random contents of up to 70 000 bytes.
    #[test]
    fn encoders_match_reference(
        n in 1usize..=8,
        m_seed in any::<usize>(),
        object in proptest::collection::vec(any::<u8>(), 0..70_000),
        subset_seed in any::<u64>(),
    ) {
        assert_matches_reference(m_seed % n + 1, n, &Bytes::from(object), subset_seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round trip: encode, drop all but a random m-subset, decode.
    #[test]
    fn any_m_of_n_reconstructs(
        m in 1usize..=6,
        extra in 1usize..=4,
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        subset_seed in any::<u64>(),
    ) {
        let n = m + extra;
        let rs = ReedSolomon::new(m, n);
        let shards = rs.encode_object(&Bytes::from(data.clone()));
        prop_assert_eq!(shards.len(), n);

        let keep = m_subset(m, n, subset_seed);
        let partial: Vec<Option<Vec<u8>>> = shards
            .iter()
            .enumerate()
            .map(|(i, sh)| keep.contains(&i).then(|| sh.to_vec()))
            .collect();
        let decoded = rs.decode_object(&partial).expect("m survivors decode");
        prop_assert_eq!(decoded, data);
    }

    /// Fewer than m shards must fail loudly, never return wrong data.
    #[test]
    fn below_threshold_always_errors(
        m in 2usize..=5,
        extra in 1usize..=3,
        data in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        let n = m + extra;
        let rs = ReedSolomon::new(m, n);
        let shards = rs.encode_object(&Bytes::from(data));
        let partial: Vec<Option<Vec<u8>>> = shards
            .iter()
            .enumerate()
            .map(|(i, sh)| (i < m - 1).then(|| sh.to_vec()))
            .collect();
        prop_assert!(rs.decode_object(&partial).is_err());
    }

    /// Parity shards are linear: encoding the XOR of two shard sets
    /// equals the XOR of the encodings (GF(2⁸) addition is XOR).
    #[test]
    fn encoding_is_linear(
        a in proptest::collection::vec(any::<u8>(), 30..60),
        b in proptest::collection::vec(any::<u8>(), 30..60),
    ) {
        let rs = ReedSolomon::new(3, 5);
        let len = a.len().min(b.len()) / 3 * 3;
        if len == 0 { return Ok(()); }
        let (a, b) = (&a[..len], &b[..len]);
        let shards = |x: &[u8]| -> Vec<Vec<u8>> {
            let data: Vec<Vec<u8>> = x.chunks(len / 3).map(<[u8]>::to_vec).collect();
            rs.encode(&data).expect("well-formed")
        };
        let ea = shards(a);
        let eb = shards(b);
        let xored: Vec<u8> = a.iter().zip(b).map(|(x, y)| x ^ y).collect();
        let ex = shards(&xored);
        for i in 0..5 {
            let manual: Vec<u8> = ea[i].iter().zip(&eb[i]).map(|(x, y)| x ^ y).collect();
            prop_assert_eq!(&ex[i], &manual, "shard {}", i);
        }
    }

    /// Field axioms on random elements.
    #[test]
    fn gf256_field_axioms(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
        let (a, b, c) = (Gf(a), Gf(b), Gf(c));
        // Associativity and commutativity of multiplication.
        prop_assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
        prop_assert_eq!(a.mul(b), b.mul(a));
        // Distributivity.
        prop_assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
        // Inverses.
        if a != Gf::ZERO {
            prop_assert_eq!(a.mul(a.inv()), Gf::ONE);
            prop_assert_eq!(a.div(a), Gf::ONE);
        }
    }
}
