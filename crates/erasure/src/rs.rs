//! Systematic Reed–Solomon θ(m, n): `m` data shards, `n − m` parity
//! shards, any `m` shards reconstruct (§5.1.2 denotes this θ(m, n); the
//! storage service uses θ(3, 5)).
//!
//! The encoding matrix is the n×m Vandermonde matrix normalized by the
//! inverse of its top m×m block, which makes the code *systematic* (the
//! first `m` output shards are the data itself) while preserving the
//! any-m-rows-invertible property.

use bytes::Bytes;

use crate::gf256::combine;
use crate::matrix::Matrix;

/// Errors from encoding / reconstruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErasureError {
    /// Fewer than `m` shards were available.
    NotEnoughShards {
        /// Shards required (m).
        needed: usize,
        /// Shards present.
        have: usize,
    },
    /// Shards disagree on length.
    ShardSizeMismatch,
    /// The framed object is corrupt (bad length header).
    CorruptObject,
}

impl std::fmt::Display for ErasureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ErasureError::NotEnoughShards { needed, have } => {
                write!(f, "need {needed} shards, have {have}")
            }
            ErasureError::ShardSizeMismatch => write!(f, "shard sizes differ"),
            ErasureError::CorruptObject => write!(f, "corrupt object framing"),
        }
    }
}

impl std::error::Error for ErasureError {}

/// A θ(m, n) systematic Reed–Solomon codec.
///
/// ```
/// use erasure::ReedSolomon;
///
/// // The paper's storage configuration: 3 data shards, 2 parity.
/// let rs = ReedSolomon::new(3, 5);
/// let shards = rs.encode_object(b"replicate me cheaply");
///
/// // Lose any two shards; the object still reconstructs.
/// let partial: Vec<Option<&[u8]>> = shards
///     .iter()
///     .enumerate()
///     .map(|(i, s)| (i != 0 && i != 3).then_some(&s[..]))
///     .collect();
/// assert_eq!(rs.decode_object(&partial).unwrap(), b"replicate me cheaply");
///
/// // One shard of an object costs one shard's work, not five.
/// assert_eq!(rs.encode_shard(b"replicate me cheaply", 4), shards[4]);
/// ```
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    m: usize,
    n: usize,
    /// The full n×m encoding matrix (top m rows are the identity).
    encode_matrix: Matrix,
}

impl ReedSolomon {
    /// Build a θ(m, n) codec. Requires `1 ≤ m ≤ n ≤ 256`.
    pub fn new(m: usize, n: usize) -> Self {
        assert!(m >= 1 && m <= n && n <= 256, "invalid θ({m}, {n})");
        let v = Matrix::vandermonde(n, m);
        let top_inv = v
            .select_rows(&(0..m).collect::<Vec<_>>())
            .inverse()
            .expect("vandermonde top block invertible");
        let encode_matrix = v.mul(&top_inv);
        ReedSolomon {
            m,
            n,
            encode_matrix,
        }
    }

    /// Data shards `m`.
    pub fn data_shards(&self) -> usize {
        self.m
    }

    /// Total shards `n`.
    pub fn total_shards(&self) -> usize {
        self.n
    }

    /// The `n − m` parity shards of `m` equal-length data columns, in
    /// shard order: one kernel row each.
    fn parity<'a>(&'a self, data: &'a [&'a [u8]]) -> impl Iterator<Item = Vec<u8>> + 'a {
        (self.m..self.n).map(|r| combine(self.encode_matrix.row(r), data))
    }

    /// Encode `m` equal-length data shards into `n` shards (the first `m`
    /// are the data, verbatim).
    pub fn encode(&self, data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, ErasureError> {
        if data.len() != self.m {
            return Err(ErasureError::NotEnoughShards {
                needed: self.m,
                have: data.len(),
            });
        }
        let len = data[0].len();
        if data.iter().any(|d| d.len() != len) {
            return Err(ErasureError::ShardSizeMismatch);
        }
        let cols: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let mut shards = data.to_vec();
        shards.extend(self.parity(&cols));
        Ok(shards)
    }

    /// Reconstruct the `m` data shards from any `m` (or more) survivors.
    /// `shards[i]` is `Some` iff shard `i` survived.
    pub fn reconstruct<S: AsRef<[u8]>>(
        &self,
        shards: &[Option<S>],
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        assert_eq!(shards.len(), self.n, "expected {} shard slots", self.n);
        let present: Vec<(usize, &[u8])> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i, s.as_ref()?.as_ref())))
            .collect();
        if present.len() < self.m {
            return Err(ErasureError::NotEnoughShards {
                needed: self.m,
                have: present.len(),
            });
        }
        let len = present[0].1.len();
        if present.iter().any(|(_, s)| s.len() != len) {
            return Err(ErasureError::ShardSizeMismatch);
        }
        // The first m survivors decide. Every surviving data shard is
        // among them (shard r has at most r ≤ m − 1 survivors before it)
        // and is returned as it is; a lost one is its row of the inverse
        // of the survivors' encode rows, times the survivors. With all
        // data shards present no inverse is built.
        let (rows, survivors): (Vec<usize>, Vec<&[u8]>) = present.into_iter().take(self.m).unzip();
        let mut inverse = None;
        Ok(shards[..self.m]
            .iter()
            .enumerate()
            .map(|(r, shard)| match shard {
                Some(data) => data.as_ref().to_vec(),
                None => {
                    let inv = inverse.get_or_insert_with(|| {
                        self.encode_matrix
                            .select_rows(&rows)
                            .inverse()
                            .expect("any m rows of a normalized Vandermonde are independent")
                    });
                    combine(inv.row(r), &survivors)
                }
            })
            .collect())
    }

    /// The framing every object is coded under: a u64 length header, the
    /// object, zero padding to a multiple of `m`. Returns the frame and
    /// the shard length; data shard `i` is the frame's `i`-th chunk of
    /// that length.
    fn frame(&self, object: &[u8]) -> (Vec<u8>, usize) {
        let shard_len = (8 + object.len()).div_ceil(self.m);
        let mut framed = Vec::with_capacity(shard_len * self.m);
        framed.extend_from_slice(&(object.len() as u64).to_le_bytes());
        framed.extend_from_slice(object);
        framed.resize(shard_len * self.m, 0);
        (framed, shard_len)
    }

    /// Encode an arbitrary byte object: frames it with a u64 length
    /// header, pads to a multiple of `m`, splits into `m` data shards and
    /// encodes. The per-shard overhead is `⌈(len+8)/m⌉ − len/m` bytes.
    pub fn encode_object(&self, object: &[u8]) -> Vec<Bytes> {
        let (framed, shard_len) = self.frame(object);
        let data: Vec<&[u8]> = framed.chunks(shard_len).collect();
        let mut shards: Vec<Bytes> = data.iter().map(|d| Bytes::copy_from_slice(d)).collect();
        shards.extend(self.parity(&data).map(Bytes::from));
        shards
    }

    /// Shard `idx` of [`ReedSolomon::encode_object`]`(object)` without the
    /// other `n − 1`: a data shard is a slice of the frame, a parity
    /// shard one kernel row over it.
    pub fn encode_shard(&self, object: &[u8], idx: usize) -> Bytes {
        assert!(idx < self.n, "shard {idx} of θ({}, {})", self.m, self.n);
        let (framed, shard_len) = self.frame(object);
        if idx < self.m {
            return Bytes::copy_from_slice(&framed[idx * shard_len..][..shard_len]);
        }
        let data: Vec<&[u8]> = framed.chunks(shard_len).collect();
        Bytes::from(combine(self.encode_matrix.row(idx), &data))
    }

    /// Reassemble an object encoded by [`ReedSolomon::encode_object`] from
    /// any `m` surviving shards.
    pub fn decode_object<S: AsRef<[u8]>>(
        &self,
        shards: &[Option<S>],
    ) -> Result<Vec<u8>, ErasureError> {
        let data = self.reconstruct(shards)?;
        let mut framed = Vec::with_capacity(data.len() * data[0].len());
        for d in data {
            framed.extend_from_slice(&d);
        }
        if framed.len() < 8 {
            return Err(ErasureError::CorruptObject);
        }
        let len = u64::from_le_bytes(framed[..8].try_into().expect("8 bytes")) as usize;
        if len > framed.len() - 8 {
            return Err(ErasureError::CorruptObject);
        }
        framed.drain(..8);
        framed.truncate(len);
        Ok(framed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shards_of(rs: &ReedSolomon, seed: u8, len: usize) -> Vec<Vec<u8>> {
        (0..rs.data_shards())
            .map(|i| {
                (0..len)
                    .map(|j| (seed as usize + i * 31 + j * 7) as u8)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn systematic_encoding() {
        let rs = ReedSolomon::new(3, 5);
        let data = shards_of(&rs, 1, 64);
        let shards = rs.encode(&data).unwrap();
        assert_eq!(shards.len(), 5);
        assert_eq!(&shards[..3], &data[..]);
    }

    #[test]
    fn reconstruct_from_every_three_of_five() {
        let rs = ReedSolomon::new(3, 5);
        let data = shards_of(&rs, 9, 128);
        let shards = rs.encode(&data).unwrap();
        // All C(5,3) = 10 survivor sets.
        for a in 0..5 {
            for b in a + 1..5 {
                for c in b + 1..5 {
                    let mut partial: Vec<Option<Vec<u8>>> = vec![None; 5];
                    for &i in &[a, b, c] {
                        partial[i] = Some(shards[i].clone());
                    }
                    let rec = rs.reconstruct(&partial).unwrap();
                    assert_eq!(rec, data, "survivors {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn two_of_five_is_not_enough() {
        let rs = ReedSolomon::new(3, 5);
        let shards = rs.encode(&shards_of(&rs, 2, 32)).unwrap();
        let mut partial: Vec<Option<Vec<u8>>> = vec![None; 5];
        partial[0] = Some(shards[0].clone());
        partial[4] = Some(shards[4].clone());
        assert_eq!(
            rs.reconstruct(&partial),
            Err(ErasureError::NotEnoughShards { needed: 3, have: 2 })
        );
    }

    #[test]
    fn mismatched_shard_lengths_rejected() {
        let rs = ReedSolomon::new(2, 4);
        let data = vec![vec![1, 2, 3], vec![4, 5]];
        assert_eq!(rs.encode(&data), Err(ErasureError::ShardSizeMismatch));
    }

    #[test]
    fn object_round_trip_various_sizes() {
        let rs = ReedSolomon::new(3, 5);
        for size in [0usize, 1, 7, 8, 9, 24, 100, 1024, 4097] {
            let object: Vec<u8> = (0..size).map(|i| (i * 131) as u8).collect();
            let shards = rs.encode_object(&object);
            assert_eq!(shards.len(), 5);
            // Lose shards 1 and 3.
            let partial: Vec<Option<Vec<u8>>> = shards
                .iter()
                .enumerate()
                .map(|(i, s)| (i != 1 && i != 3).then(|| s.to_vec()))
                .collect();
            let decoded = rs.decode_object(&partial).unwrap();
            assert_eq!(decoded, object, "size {size}");
        }
    }

    #[test]
    fn replication_degenerate_code() {
        // θ(1, 3) is plain 3-way replication.
        let rs = ReedSolomon::new(1, 3);
        let object = b"lock-service-state".to_vec();
        let shards = rs.encode_object(&object);
        for keep in 0..3 {
            let partial: Vec<Option<Vec<u8>>> = (0..3)
                .map(|i| (i == keep).then(|| shards[i].to_vec()))
                .collect();
            assert_eq!(rs.decode_object(&partial).unwrap(), object);
        }
    }

    #[test]
    fn wide_code_works() {
        let rs = ReedSolomon::new(10, 14);
        let object: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let shards = rs.encode_object(&object);
        let partial: Vec<Option<Vec<u8>>> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| (i % 3 != 1 || i >= 6).then(|| s.to_vec()))
            .collect();
        assert!(partial.iter().filter(|s| s.is_some()).count() >= 10);
        assert_eq!(rs.decode_object(&partial).unwrap(), object);
    }

    #[test]
    fn corrupt_length_header_detected() {
        let rs = ReedSolomon::new(2, 3);
        let shards = rs.encode_object(b"hello");
        let mut partial: Vec<Option<Vec<u8>>> = shards.iter().map(|s| Some(s.to_vec())).collect();
        // Clobber the low byte of the length header, inflating the length
        // far beyond the payload.
        partial[0].as_mut().unwrap()[0] = 0xFF;
        partial[0].as_mut().unwrap()[1] = 0xFF;
        assert_eq!(rs.decode_object(&partial), Err(ErasureError::CorruptObject));
    }

    #[test]
    fn storage_savings_vs_replication() {
        // The RS-Paxos motivation: θ(3,5) ships 5 shards of ~len/3 instead
        // of 5 full copies — a ~3× network/storage saving.
        let rs = ReedSolomon::new(3, 5);
        let object = vec![0xABu8; 3 * 1024];
        let shards = rs.encode_object(&object);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert!(total < 2 * object.len(), "total {total}");
    }
}
