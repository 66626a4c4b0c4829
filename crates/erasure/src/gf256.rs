//! GF(2⁸) arithmetic with the 0x11D reduction polynomial
//! (x⁸ + x⁴ + x³ + x² + 1), the field conventionally used by storage
//! Reed–Solomon implementations.
//!
//! Scalar multiplication and inversion go through compile-time log/exp
//! tables: the field's multiplicative group is cyclic of order 255 with
//! generator 2, so `a·b = exp[(log a + log b) mod 255]`. Bulk work — a
//! coefficient matrix times whole shards — goes through `RowTables`,
//! which tabulates the matrix's rows two at a time: one u16 lookup per
//! column byte gives the products of both rows of a pair, so a pair of
//! output rows costs the table loads of one.

/// The reduction polynomial, as the low 9 bits of 0x11D.
const POLY: u16 = 0x11D;

/// exp[i] = 2^i (tabulated over 0..512 to skip the mod-255 reduction).
const EXP: [u8; 512] = build_exp();
/// log[a] = discrete log base 2 of a (log[0] is unused).
const LOG: [u8; 256] = build_log();

const fn build_exp() -> [u8; 512] {
    let mut table = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        table[i] = x as u8;
        table[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= POLY;
        }
        i += 1;
    }
    // Positions 510, 511 are never indexed (log sums < 510) but must be
    // initialized: keep them consistent with the cycle.
    table[510] = table[0];
    table[511] = table[1];
    table
}

const fn build_log() -> [u8; 256] {
    let exp = build_exp();
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        table[exp[i] as usize] = i as u8;
        i += 1;
    }
    table
}

/// An element of GF(2⁸).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Gf(pub u8);

// Field operations are deliberately inherent methods rather than the std
// `Add`/`Mul`/`Div` operator traits: the hot encode/decode loops call them
// through explicit names, and operator syntax on a `u8` newtype invites
// accidental integer arithmetic.
#[allow(clippy::should_implement_trait)]
impl Gf {
    /// The additive identity.
    pub const ZERO: Gf = Gf(0);
    /// The multiplicative identity.
    pub const ONE: Gf = Gf(1);
    /// Field addition (== subtraction == XOR).
    #[inline]
    pub fn add(self, rhs: Gf) -> Gf {
        Gf(self.0 ^ rhs.0)
    }

    /// Field multiplication via log/exp tables.
    #[inline]
    pub fn mul(self, rhs: Gf) -> Gf {
        if self.0 == 0 || rhs.0 == 0 {
            return Gf::ZERO;
        }
        Gf(EXP[LOG[self.0 as usize] as usize + LOG[rhs.0 as usize] as usize])
    }

    /// Multiplicative inverse; panics on zero.
    #[inline]
    pub fn inv(self) -> Gf {
        assert!(self.0 != 0, "inverse of zero in GF(256)");
        Gf(EXP[255 - LOG[self.0 as usize] as usize])
    }

    /// Field division; panics when `rhs` is zero.
    #[inline]
    pub fn div(self, rhs: Gf) -> Gf {
        self.mul(rhs.inv())
    }

    /// `self` raised to the `k`-th power.
    pub(crate) fn pow(self, mut k: u32) -> Gf {
        if self.0 == 0 {
            return if k == 0 { Gf::ONE } else { Gf::ZERO };
        }
        k %= 255;
        Gf(EXP[(LOG[self.0 as usize] as u32 * k % 255) as usize])
    }
}

/// The products of one column byte with a pair of coefficients, one per
/// byte lane: `tab[x] = a·x | (b·x) << 8`.
type PairTable = [u16; 256];

/// The table of the zero pair, over which a short last group of columns
/// is padded: every lookup reads 0.
static ZERO_PAIR: PairTable = [0; 256];

/// `pair_table(a, b)[x] = a·x | (b·x) << 8`. A product is GF(2)-linear in
/// `x` (`a·(x ⊕ y) = a·x ⊕ a·y`), so entry `2ᵏ + i` is entry `2ᵏ` XOR
/// entry `i`: eight multiplications fill the table.
fn pair_table(a: Gf, b: Gf) -> PairTable {
    let mut tab = [0u16; 256];
    for k in 0..8 {
        let bit = 1usize << k;
        let x = Gf(bit as u8);
        let base = u16::from(a.mul(x).0) | u16::from(b.mul(x).0) << 8;
        for i in 0..bit {
            tab[bit + i] = tab[i] ^ base;
        }
    }
    tab
}

/// Where one pair of rows' products go: both byte lanes, each to its own
/// output, or (an odd last row, paired with the zero row) the low lane
/// alone.
enum Lanes<'a> {
    Both(&'a mut [u8], &'a mut [u8]),
    Low(&'a mut [u8]),
}

impl Lanes<'_> {
    /// Write (`first`) or XOR in one pass's products.
    #[inline(always)]
    fn take(&mut self, products: impl Iterator<Item = u16>, first: bool) {
        match self {
            Lanes::Both(lo, hi) => {
                let outs = lo.iter_mut().zip(hi.iter_mut()).zip(products);
                if first {
                    outs.for_each(|((l, h), t)| (*l, *h) = (t as u8, (t >> 8) as u8));
                } else {
                    outs.for_each(|((l, h), t)| {
                        *l ^= t as u8;
                        *h ^= (t >> 8) as u8;
                    });
                }
            }
            Lanes::Low(out) => {
                let outs = out.iter_mut().zip(products);
                if first {
                    outs.for_each(|(o, t)| *o = t as u8);
                } else {
                    outs.for_each(|(o, t)| *o ^= t as u8);
                }
            }
        }
    }
}

/// The codec's one multiply-accumulate kernel: the rows of a coefficient
/// matrix, tabulated for `out[r][i] = Σⱼ rows[r][j] · cols[j][i]` over
/// equal-length byte columns.
///
/// Rows go in pairs: one `PairTable` per (pair, column) gives both
/// rows' products of a byte in one u16 lookup, so two output rows cost
/// the loads of one. An odd row count pairs its last row with the zero
/// row. Columns go three to a pass, and every shape takes this one form:
/// the first pass writes each output byte once, a code wider than three
/// columns XORs its further passes in, and a short last group is padded
/// with the zero table over the group's first column.
#[derive(Clone, Debug)]
pub(crate) struct RowTables {
    rows: usize,
    cols: usize,
    /// `tabs[p * cols + j]`: column `j`'s table for rows `2p` and `2p + 1`.
    tabs: Vec<PairTable>,
}

impl RowTables {
    /// Tabulate equal-length coefficient rows.
    pub(crate) fn new(rows: &[&[Gf]]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        assert!(rows.iter().all(|r| r.len() == cols), "ragged rows");
        let tabs = rows
            .chunks(2)
            .flat_map(|pair| {
                let (a, b) = (pair[0], pair.get(1).copied());
                (0..cols).map(move |j| pair_table(a[j], b.map_or(Gf::ZERO, |b| b[j])))
            })
            .collect();
        RowTables {
            rows: rows.len(),
            cols,
            tabs,
        }
    }

    /// Every row: `outs[r] = Σⱼ rows[r][j] · cols[j]`.
    pub(crate) fn apply(&self, cols: &[&[u8]], outs: &mut [&mut [u8]]) {
        assert_eq!(outs.len(), self.rows, "one output per row");
        for (p, pair) in outs.chunks_mut(2).enumerate() {
            let lanes = match pair {
                [lo, hi] => Lanes::Both(lo, hi),
                [lo] => Lanes::Low(lo),
                _ => unreachable!("chunks of two"),
            };
            self.run(p, cols, lanes);
        }
    }

    fn run(&self, pair: usize, cols: &[&[u8]], mut lanes: Lanes<'_>) {
        assert!(!cols.is_empty(), "at least one column");
        assert_eq!(cols.len(), self.cols, "one column per coefficient");
        let len = cols[0].len();
        assert!(cols.iter().all(|c| c.len() == len), "shard length mismatch");
        let fits = match &lanes {
            Lanes::Both(lo, hi) => lo.len() == len && hi.len() == len,
            Lanes::Low(out) => out.len() == len,
        };
        assert!(fits, "output length mismatch");
        let tabs = &self.tabs[pair * self.cols..][..self.cols];
        for g in (0..self.cols).step_by(3) {
            let at = |j: usize| match tabs.get(g + j) {
                Some(t) => (t, cols[g + j]),
                None => (&ZERO_PAIR, cols[g]),
            };
            let ((t0, a), (t1, b), (t2, c)) = (at(0), at(1), at(2));
            let products = a
                .iter()
                .zip(b)
                .zip(c)
                .map(|((&a, &b), &c)| t0[a as usize] ^ t1[b as usize] ^ t2[c as usize]);
            lanes.take(products, g == 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_is_xor_and_self_inverse() {
        let a = Gf(0x57);
        let b = Gf(0x83);
        assert_eq!(a.add(b), Gf(0x57 ^ 0x83));
        assert_eq!(a.add(a), Gf::ZERO);
        assert_eq!(a.add(Gf::ZERO), a);
    }

    #[test]
    fn known_multiplication_vectors() {
        // 2 · 2 = 4; generator powers follow the table construction.
        assert_eq!(Gf(2).mul(Gf(2)), Gf(4));
        assert_eq!(Gf(0x80).mul(Gf(2)), Gf((0x100u16 ^ POLY) as u8));
        assert_eq!(Gf(7).mul(Gf::ONE), Gf(7));
        assert_eq!(Gf(255).mul(Gf::ZERO), Gf::ZERO);
    }

    #[test]
    fn multiplication_matches_schoolbook() {
        // Carry-less multiply then reduce — the definitional product.
        fn slow_mul(a: u8, b: u8) -> u8 {
            let mut acc: u16 = 0;
            let mut a = a as u16;
            let mut b = b as u16;
            while b != 0 {
                if b & 1 != 0 {
                    acc ^= a;
                }
                a <<= 1;
                if a & 0x100 != 0 {
                    a ^= POLY;
                }
                b >>= 1;
            }
            acc as u8
        }
        for a in 0..=255u8 {
            for b in (0..=255u8).step_by(7) {
                assert_eq!(Gf(a).mul(Gf(b)).0, slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for a in 1..=255u8 {
            let inv = Gf(a).inv();
            assert_eq!(Gf(a).mul(inv), Gf::ONE, "a={a}");
        }
    }

    #[test]
    fn division_inverts_multiplication() {
        for a in 1..=255u8 {
            for b in (1..=255u8).step_by(11) {
                let prod = Gf(a).mul(Gf(b));
                assert_eq!(prod.div(Gf(b)), Gf(a));
            }
        }
    }

    #[test]
    fn generator_has_order_255() {
        let mut x = Gf::ONE;
        for i in 1..255 {
            x = x.mul(Gf(2));
            assert_ne!(x, Gf::ONE, "generator order divides {i}");
        }
        assert_eq!(x.mul(Gf(2)), Gf::ONE);
    }

    #[test]
    fn pow_semantics() {
        assert_eq!(Gf(3).pow(0), Gf::ONE);
        assert_eq!(Gf(3).pow(1), Gf(3));
        assert_eq!(Gf(3).pow(2), Gf(3).mul(Gf(3)));
        assert_eq!(Gf(3).pow(255), Gf::ONE);
        assert_eq!(Gf::ZERO.pow(0), Gf::ONE);
        assert_eq!(Gf::ZERO.pow(5), Gf::ZERO);
    }

    #[test]
    fn distributivity_spot_checks() {
        for a in (0..=255u8).step_by(13) {
            for b in (0..=255u8).step_by(17) {
                for c in (0..=255u8).step_by(29) {
                    let left = Gf(a).mul(Gf(b).add(Gf(c)));
                    let right = Gf(a).mul(Gf(b)).add(Gf(a).mul(Gf(c)));
                    assert_eq!(left, right);
                }
            }
        }
    }

    /// `Σⱼ rows[r][j] · cols[j][i]`, one `Gf::mul` per term.
    fn elementwise(rows: &[Vec<Gf>], cols: &[&[u8]]) -> Vec<Vec<u8>> {
        let len = cols[0].len();
        rows.iter()
            .map(|row| {
                (0..len)
                    .map(|i| {
                        let terms = row.iter().zip(cols).map(|(k, col)| k.mul(Gf(col[i])));
                        terms.fold(Gf::ZERO, Gf::add).0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn pair_tables_hold_both_products() {
        for a in 0..=255u8 {
            let b = a.wrapping_mul(97).wrapping_add(5);
            let tab = pair_table(Gf(a), Gf(b));
            for x in 0..=255u8 {
                let want = u16::from(Gf(a).mul(Gf(x)).0) | u16::from(Gf(b).mul(Gf(x)).0) << 8;
                assert_eq!(tab[x as usize], want, "a={a} b={b} x={x}");
            }
        }
    }

    /// Every coefficient alone, then one to five rows (whole pairs and an
    /// odd row paired with the zero row) over one to seven columns (full
    /// passes of three, a padded tail of one and of two), with every
    /// coefficient in every column position of row 0.
    #[test]
    fn kernel_matches_elementwise() {
        let src: Vec<u8> = (0..=255).collect();
        for c in 0..=255u8 {
            let row = [Gf(c)];
            let mut out = vec![0xAA; 256];
            RowTables::new(&[&row]).apply(&[&src], &mut [&mut out]);
            assert_eq!(out, elementwise(&[row.to_vec()], &[&src])[0], "c={c}");
        }
        let cols: Vec<Vec<u8>> = (0..7usize)
            .map(|j| (0..300).map(|i| (i * (2 * j + 3) + 31 * j) as u8).collect())
            .collect();
        for width in 1..=cols.len() {
            let cols: Vec<&[u8]> = cols[..width].iter().map(Vec::as_slice).collect();
            for nrows in 1..=5usize {
                for c in 0..=255u8 {
                    let rows: Vec<Vec<Gf>> = (0..nrows)
                        .map(|r| {
                            (0..width)
                                .map(|j| Gf(c.wrapping_add(37 * j as u8).wrapping_mul(r as u8 + 1)))
                                .collect()
                        })
                        .collect();
                    let row_refs: Vec<&[Gf]> = rows.iter().map(Vec::as_slice).collect();
                    let tables = RowTables::new(&row_refs);
                    let want = elementwise(&rows, &cols);
                    let mut got = vec![vec![0x55u8; 300]; nrows];
                    let mut outs: Vec<&mut [u8]> = got.iter_mut().map(Vec::as_mut_slice).collect();
                    tables.apply(&cols, &mut outs);
                    assert_eq!(got, want, "width={width} rows={nrows} c={c}");
                }
            }
        }
    }
}
