//! GF(2⁸) arithmetic with the 0x11D reduction polynomial
//! (x⁸ + x⁴ + x³ + x² + 1), the field conventionally used by storage
//! Reed–Solomon implementations.
//!
//! Scalar multiplication and inversion go through compile-time log/exp
//! tables: the field's multiplicative group is cyclic of order 255 with
//! generator 2, so `a·b = exp[(log a + log b) mod 255]`. Bulk work — a
//! coefficient times a whole shard — goes through `combine`, which reads
//! one 256-entry product row per coefficient from a compile-time 64 KiB
//! multiplication table instead.

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

/// `MUL[c][s] = c·s`: row `c` is the product row of coefficient `c`. A
/// `static`, so a row is a borrow of read-only data, never a copy.
static MUL: [[u8; 256]; 256] = build_mul();

const fn build_mul() -> [[u8; 256]; 256] {
    let mut table = [[0u8; 256]; 256];
    let mut c = 1;
    while c < 256 {
        let mut s = 1;
        while s < 256 {
            table[c][s] = EXP[LOG[c] as usize + LOG[s] as usize];
            s += 1;
        }
        c += 1;
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

/// The codec's one multiply-accumulate kernel: the linear combination of
/// equal-length byte columns, `out[i] = Σⱼ coeffs[j] · cols[j][i]`.
///
/// Each coefficient becomes its product row (`row[s] = c·s`, a borrow of
/// the multiplication table), so a byte costs one lookup per column.
/// Columns go three to a pass, and every (m, n) takes this one form: the
/// first pass writes each output byte once, a code wider than three
/// columns XORs its further passes in, and a short last group is padded
/// with the zero coefficient over the group's first column, whose
/// lookups all read 0.
pub(crate) fn combine(coeffs: &[Gf], cols: &[&[u8]]) -> Vec<u8> {
    assert!(!cols.is_empty(), "at least one column");
    assert_eq!(coeffs.len(), cols.len(), "one coefficient per column");
    let len = cols[0].len();
    assert!(cols.iter().all(|c| c.len() == len), "shard length mismatch");
    let pass = |g: usize| {
        let at = |j: usize| match coeffs.get(g + j) {
            Some(c) => (&MUL[c.0 as usize], cols[g + j]),
            None => (&MUL[0], cols[g]),
        };
        let ((r0, a), (r1, b), (r2, c)) = (at(0), at(1), at(2));
        a.iter()
            .zip(b)
            .zip(c)
            .map(move |((&a, &b), &c)| r0[a as usize] ^ r1[b as usize] ^ r2[c as usize])
    };
    let mut out: Vec<u8> = pass(0).collect();
    for g in (3..coeffs.len()).step_by(3) {
        for (d, x) in out.iter_mut().zip(pass(g)) {
            *d ^= x;
        }
    }
    out
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

    /// Every coefficient's product row against `Gf::mul`, alone and in
    /// every column position of one- to seven-column combinations (full
    /// passes of three, a padded tail of one and of two).
    #[test]
    fn combine_matches_elementwise() {
        let src: Vec<u8> = (0..=255).collect();
        for c in 0..=255u8 {
            let expect: Vec<u8> = src.iter().map(|&s| Gf(c).mul(Gf(s)).0).collect();
            assert_eq!(combine(&[Gf(c)], &[&src]), expect, "c={c}");
        }
        let cols: Vec<Vec<u8>> = (0..7usize)
            .map(|j| (0..300).map(|i| (i * (2 * j + 3) + 31 * j) as u8).collect())
            .collect();
        for width in 1..=cols.len() {
            let cols: Vec<&[u8]> = cols[..width].iter().map(Vec::as_slice).collect();
            for c in 0..=255u8 {
                let coeffs: Vec<Gf> = (0..width)
                    .map(|j| Gf(c.wrapping_add(37 * j as u8)))
                    .collect();
                let expect: Vec<u8> = (0..300)
                    .map(|i| {
                        let terms = coeffs.iter().zip(&cols).map(|(k, col)| k.mul(Gf(col[i])));
                        terms.fold(Gf::ZERO, Gf::add).0
                    })
                    .collect();
                assert_eq!(combine(&coeffs, &cols), expect, "width={width} c={c}");
            }
        }
    }
}
