//! Systematic Reed–Solomon θ(m, n): `m` data shards, `n − m` parity
//! shards, any `m` shards reconstruct (§5.1.2 denotes this θ(m, n); the
//! storage service uses θ(3, 5)).
//!
//! The encoding matrix is the n×m Vandermonde matrix normalized by the
//! inverse of its top m×m block, which makes the code *systematic* (the
//! first `m` output shards are the data itself) while preserving the
//! any-m-rows-invertible property.

use bytes::Bytes;

use crate::gf256::RowTables;
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
    /// The framed object is corrupt (bad length trailer).
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
/// use bytes::Bytes;
/// use erasure::ReedSolomon;
///
/// // The paper's storage configuration: 3 data shards, 2 parity.
/// let rs = ReedSolomon::new(3, 5);
/// let object = Bytes::from_static(b"replicate me cheaply");
/// let shards = rs.encode_object(&object);
///
/// // The frame is the object, zero padding and a u64 length trailer, so
/// // the first data shard is a view of the object itself.
/// assert_eq!(shards[0], object.slice(0..shards[0].len()));
///
/// // Lose any two shards; the object still reconstructs.
/// let partial: Vec<Option<&[u8]>> = shards
///     .iter()
///     .enumerate()
///     .map(|(i, s)| (i != 0 && i != 3).then_some(&s[..]))
///     .collect();
/// assert_eq!(rs.decode_object(&partial).unwrap(), b"replicate me cheaply");
/// ```
#[derive(Clone, Debug)]
pub struct ReedSolomon {
    m: usize,
    n: usize,
    /// The full n×m encoding matrix (top m rows are the identity).
    encode_matrix: Matrix,
    /// Its parity rows `m..n`, tabulated once for the kernel.
    parity: RowTables,
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
        let parity_rows: Vec<_> = (m..n).map(|r| encode_matrix.row(r)).collect();
        let parity = RowTables::new(&parity_rows);
        ReedSolomon {
            m,
            n,
            encode_matrix,
            parity,
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
        let mut parity = vec![vec![0; len]; self.n - self.m];
        let mut outs: Vec<&mut [u8]> = parity.iter_mut().map(Vec::as_mut_slice).collect();
        self.parity.apply(&cols, &mut outs);
        let mut shards = data.to_vec();
        shards.extend(parity);
        Ok(shards)
    }

    /// Reconstruct the `m` data shards from any `m` (or more) survivors.
    /// `shards[i]` is `Some` iff shard `i` survived.
    pub fn reconstruct<S: AsRef<[u8]>>(
        &self,
        shards: &[Option<S>],
    ) -> Result<Vec<Vec<u8>>, ErasureError> {
        let len = self.shard_len_of(shards)?;
        let mut data = vec![vec![0; len]; self.m];
        let mut outs: Vec<&mut [u8]> = data.iter_mut().map(Vec::as_mut_slice).collect();
        self.rebuild(shards, &mut outs);
        Ok(data)
    }

    /// The common length of the survivors, once there are at least `m`
    /// of them and they agree on it.
    fn shard_len_of<S: AsRef<[u8]>>(&self, shards: &[Option<S>]) -> Result<usize, ErasureError> {
        assert_eq!(shards.len(), self.n, "expected {} shard slots", self.n);
        let mut present = shards.iter().flatten().map(|s| s.as_ref().len());
        let have = present.clone().count();
        if have < self.m {
            return Err(ErasureError::NotEnoughShards {
                needed: self.m,
                have,
            });
        }
        let len = present.next().expect("m ≥ 1 survivors");
        if present.any(|l| l != len) {
            return Err(ErasureError::ShardSizeMismatch);
        }
        Ok(len)
    }

    /// Write data shard `r` into `outs[r]` for every `r < m`, from
    /// survivors `shard_len_of` accepted.
    ///
    /// The first m survivors decide. Every surviving data shard is among
    /// them (shard r has at most r ≤ m − 1 survivors before it) and is
    /// copied as it is; the lost ones are their rows of the inverse of the
    /// survivors' encode rows, times the survivors, all in one kernel
    /// call. With all data shards present no inverse is built.
    fn rebuild<S: AsRef<[u8]>>(&self, shards: &[Option<S>], outs: &mut [&mut [u8]]) {
        let (rows, survivors): (Vec<usize>, Vec<&[u8]>) = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((i, s.as_ref()?.as_ref())))
            .take(self.m)
            .unzip();
        let mut lost = Vec::new();
        for (r, (out, shard)) in outs.iter_mut().zip(&shards[..self.m]).enumerate() {
            match shard {
                Some(data) => out.copy_from_slice(data.as_ref()),
                None => lost.push((r, &mut **out)),
            }
        }
        if lost.is_empty() {
            return;
        }
        let inverse = self
            .encode_matrix
            .select_rows(&rows)
            .inverse()
            .expect("any m rows of a normalized Vandermonde are independent");
        let (lost_rows, mut lost_outs): (Vec<_>, Vec<_>) = lost
            .into_iter()
            .map(|(r, out)| (inverse.row(r), out))
            .unzip();
        RowTables::new(&lost_rows).apply(&survivors, &mut lost_outs);
    }

    /// The shard length of an object of `len` bytes: its frame (the
    /// object, zero padding, a u64 length trailer) cut into `m` chunks.
    fn shard_len(&self, len: usize) -> usize {
        (len + 8).div_ceil(self.m)
    }

    /// Encode an arbitrary byte object: frames it as the object, zero
    /// padding to a multiple of `m` and a u64 LE length trailer, splits the
    /// frame into `m` data shards and encodes. The per-shard overhead is
    /// `⌈(len+8)/m⌉ − len/m` bytes.
    ///
    /// The first `⌊len / shard_len⌋` data shards lie wholly inside the
    /// object, so they are slices of `object` itself and the kernel reads
    /// them in place: `m − 1` of them once padding and trailer fit in one
    /// shard (every object of 18 bytes or more at θ(3, 5)). The remaining
    /// data shards (the object's tail, the padding and the trailer) and the
    /// parity rows are slices of one new buffer.
    pub fn encode_object(&self, object: &Bytes) -> Vec<Bytes> {
        let shard_len = self.shard_len(object.len());
        let aliased = object.len() / shard_len;
        let (head, rest) = object.split_at(aliased * shard_len);
        let tail_len = (self.m - aliased) * shard_len;
        let mut buf = Vec::with_capacity((self.n - aliased) * shard_len);
        buf.extend_from_slice(rest);
        buf.resize(tail_len - 8, 0);
        buf.extend_from_slice(&(object.len() as u64).to_le_bytes());
        buf.resize((self.n - aliased) * shard_len, 0);
        let (tail, parity) = buf.split_at_mut(tail_len);
        let cols: Vec<&[u8]> = head
            .chunks(shard_len)
            .chain(tail.chunks(shard_len))
            .collect();
        let mut outs: Vec<&mut [u8]> = parity.chunks_mut(shard_len).collect();
        self.parity.apply(&cols, &mut outs);
        let buf = Bytes::from(buf);
        let shard = |from: &Bytes, i: usize| from.slice(i * shard_len..(i + 1) * shard_len);
        (0..aliased)
            .map(|i| shard(object, i))
            .chain((0..self.n - aliased).map(|i| shard(&buf, i)))
            .collect()
    }

    /// Reassemble an object encoded by [`ReedSolomon::encode_object`] from
    /// any `m` surviving shards: rebuild the frame, read its length
    /// trailer and cut the frame there.
    pub fn decode_object<S: AsRef<[u8]>>(
        &self,
        shards: &[Option<S>],
    ) -> Result<Vec<u8>, ErasureError> {
        let len = self.shard_len_of(shards)?;
        if self.m * len < 8 {
            return Err(ErasureError::CorruptObject);
        }
        let mut framed = vec![0; self.m * len];
        let mut outs: Vec<&mut [u8]> = framed.chunks_mut(len).collect();
        self.rebuild(shards, &mut outs);
        let body = framed.len() - 8;
        let len = u64::from_le_bytes(framed[body..].try_into().expect("8 bytes"));
        if len > body as u64 {
            return Err(ErasureError::CorruptObject);
        }
        framed.truncate(len as usize);
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
            let object = Bytes::from((0..size).map(|i| (i * 131) as u8).collect::<Vec<u8>>());
            let shards = rs.encode_object(&object);
            assert_eq!(shards.len(), 5);
            // Lose shards 1 and 3.
            let partial: Vec<Option<Vec<u8>>> = shards
                .iter()
                .enumerate()
                .map(|(i, s)| (i != 1 && i != 3).then(|| s.to_vec()))
                .collect();
            let decoded = rs.decode_object(&partial).unwrap();
            assert_eq!(decoded, object.as_ref(), "size {size}");
        }
    }

    #[test]
    fn replication_degenerate_code() {
        // θ(1, 3) is plain 3-way replication.
        let rs = ReedSolomon::new(1, 3);
        let object = Bytes::from_static(b"lock-service-state");
        let shards = rs.encode_object(&object);
        for keep in 0..3 {
            let partial: Vec<Option<Vec<u8>>> = (0..3)
                .map(|i| (i == keep).then(|| shards[i].to_vec()))
                .collect();
            assert_eq!(rs.decode_object(&partial).unwrap(), object.as_ref());
        }
    }

    #[test]
    fn wide_code_works() {
        let rs = ReedSolomon::new(10, 14);
        let object = Bytes::from((0..10_000).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        let shards = rs.encode_object(&object);
        let partial: Vec<Option<Vec<u8>>> = shards
            .iter()
            .enumerate()
            .map(|(i, s)| (i % 3 != 1 || i >= 6).then(|| s.to_vec()))
            .collect();
        assert!(partial.iter().filter(|s| s.is_some()).count() >= 10);
        assert_eq!(rs.decode_object(&partial).unwrap(), object.as_ref());
    }

    #[test]
    fn corrupt_length_header_detected() {
        let rs = ReedSolomon::new(2, 3);
        let shards = rs.encode_object(&Bytes::from_static(b"hello"));
        let mut partial: Vec<Option<Vec<u8>>> = shards.iter().map(|s| Some(s.to_vec())).collect();
        // The trailer ends the last data shard; clobber its top two bytes,
        // inflating the length far beyond the payload.
        let last = partial[1].as_mut().unwrap();
        let end = last.len();
        last[end - 2..].fill(0xFF);
        assert_eq!(rs.decode_object(&partial), Err(ErasureError::CorruptObject));
    }

    #[test]
    fn data_shards_alias_the_object() {
        for (m, n) in [(3, 5), (2, 3)] {
            let rs = ReedSolomon::new(m, n);
            let mut lengths: Vec<usize> = (0..=17).chain([4096, 65_536]).collect();
            lengths.extend([10 * m - 1, 10 * m, 10 * m + 1, 100 * m - 1, 100 * m + 1]);
            for len in lengths {
                let object = Bytes::from((0..len).map(|i| (i * 29 + m) as u8).collect::<Vec<u8>>());
                let shards = rs.encode_object(&object);
                let shard_len = shards[0].len();
                let inside = object.as_ptr_range();
                for (i, shard) in shards.iter().enumerate() {
                    let aliased = inside.contains(&shard.as_ptr());
                    let ctx = format!("θ({m}, {n}), {len} bytes, shard {i}");
                    assert_eq!(aliased, i < len / shard_len, "{ctx}");
                    if aliased {
                        assert!(shard.as_ptr_range().end <= inside.end, "{ctx}");
                    }
                }
                let partial: Vec<Option<&[u8]>> = shards.iter().map(|s| Some(&s[..])).collect();
                let decoded = rs.decode_object(&partial).unwrap();
                assert_eq!(decoded, object.as_ref(), "θ({m}, {n}), {len} bytes");
            }
        }
    }

    #[test]
    fn storage_savings_vs_replication() {
        // The RS-Paxos motivation: θ(3,5) ships 5 shards of ~len/3 instead
        // of 5 full copies — a ~3× network/storage saving.
        let rs = ReedSolomon::new(3, 5);
        let object = Bytes::from(vec![0xABu8; 3 * 1024]);
        let shards = rs.encode_object(&object);
        let total: usize = shards.iter().map(|s| s.len()).sum();
        assert!(total < 2 * object.len(), "total {total}");
    }
}
