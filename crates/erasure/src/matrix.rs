//! Dense matrices over GF(2⁸): just enough linear algebra for systematic
//! Reed–Solomon code construction and decoding.

use crate::gf256::Gf;

/// A row-major dense matrix over GF(2⁸).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<Gf>,
}

impl Matrix {
    /// A zero matrix of the given shape.
    pub(crate) fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "degenerate matrix shape");
        Matrix {
            rows,
            cols,
            data: vec![Gf::ZERO; rows * cols],
        }
    }

    /// The n×n identity.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m[(i, i)] = Gf::ONE;
        }
        m
    }

    /// The rows×cols Vandermonde matrix `V[r][c] = r^c` over GF(2⁸), whose
    /// every square submatrix built from distinct evaluation points is
    /// invertible — the property Reed–Solomon relies on. Requires
    /// `rows ≤ 256` so evaluation points stay distinct.
    pub fn vandermonde(rows: usize, cols: usize) -> Self {
        assert!(rows <= 256, "at most 256 distinct points in GF(256)");
        let mut m = Self::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = Gf(r as u8).pow(c as u32);
            }
        }
        m
    }

    /// One row as a slice.
    pub(crate) fn row(&self, r: usize) -> &[Gf] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · rhs`.
    pub fn mul(&self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "shape mismatch");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == Gf::ZERO {
                    continue;
                }
                for j in 0..rhs.cols {
                    let prod = a.mul(rhs[(k, j)]);
                    out[(i, j)] = out[(i, j)].add(prod);
                }
            }
        }
        out
    }

    /// A new matrix made of the given rows of `self`, in order.
    pub fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zero(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            assert!(r < self.rows, "row {r} out of range");
            for c in 0..self.cols {
                out[(i, c)] = self[(r, c)];
            }
        }
        out
    }

    /// The inverse via Gauss–Jordan elimination, or `None` if singular.
    pub fn inverse(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "inverse of non-square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| a[(r, col)] != Gf::ZERO)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalize the pivot row.
            let p = a[(col, col)].inv();
            for c in 0..n {
                a[(col, c)] = a[(col, c)].mul(p);
                inv[(col, c)] = inv[(col, c)].mul(p);
            }
            // Eliminate the column elsewhere.
            for r in 0..n {
                if r == col || a[(r, col)] == Gf::ZERO {
                    continue;
                }
                let f = a[(r, col)];
                for c in 0..n {
                    let ac = a[(col, c)].mul(f);
                    a[(r, c)] = a[(r, c)].add(ac);
                    let ic = inv[(col, c)].mul(f);
                    inv[(r, c)] = inv[(r, c)].add(ic);
                }
            }
        }
        Some(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = Gf;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &Gf {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut Gf {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_unit() {
        let v = Matrix::vandermonde(4, 3);
        let i3 = Matrix::identity(3);
        assert_eq!(v.mul(&i3), v);
        let i4 = Matrix::identity(4);
        assert_eq!(i4.mul(&v), v);
    }

    #[test]
    fn inverse_round_trip() {
        // Any square Vandermonde with distinct points is invertible.
        let m = Matrix::vandermonde(5, 5);
        let inv = m.inverse().expect("vandermonde invertible");
        assert_eq!(m.mul(&inv), Matrix::identity(5));
        assert_eq!(inv.mul(&m), Matrix::identity(5));
    }

    #[test]
    fn singular_matrix_detected() {
        let mut m = Matrix::zero(3, 3);
        // Two equal rows.
        for c in 0..3 {
            m[(0, c)] = Gf(c as u8 + 1);
            m[(1, c)] = Gf(c as u8 + 1);
            m[(2, c)] = Gf(c as u8 + 5);
        }
        assert!(m.inverse().is_none());
    }

    #[test]
    fn vandermonde_square_submatrices_invertible() {
        // The defining property used by Reed–Solomon: pick any `cols` rows
        // and the square submatrix is invertible.
        let v = Matrix::vandermonde(8, 4);
        let row_sets: [[usize; 4]; 5] = [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
            [0, 2, 4, 6],
            [1, 3, 5, 7],
            [0, 3, 5, 6],
        ];
        for rows in row_sets {
            assert!(
                v.select_rows(&rows).inverse().is_some(),
                "rows {rows:?} singular"
            );
        }
    }

    #[test]
    fn select_rows_orders_as_requested() {
        let v = Matrix::vandermonde(4, 2);
        let s = v.select_rows(&[3, 1]);
        assert_eq!(s.row(0), v.row(3));
        assert_eq!(s.row(1), v.row(1));
    }

    #[test]
    fn multiplication_associates() {
        let a = Matrix::vandermonde(3, 3);
        let b = Matrix::vandermonde(3, 4);
        let c = Matrix::vandermonde(4, 2);
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }
}
