//! A small dense row-major matrix.
//!
//! Sized for the statistics in this crate: correlation matrices over
//! a dozen measures, design matrices over a few thousand rows. Not a
//! BLAS — clarity and correctness first.

use crate::StatsError;

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a shape and a generator function.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Builds a matrix from nested rows; every row must have the same
    /// length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, StatsError> {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        for row in rows {
            if row.len() != c {
                return Err(StatsError::DimensionMismatch {
                    context: "Matrix::from_rows",
                    left: c,
                    right: row.len(),
                });
            }
        }
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: r,
            cols: c,
            data,
        })
    }

    /// Builds a matrix whose columns are the given variable vectors.
    pub fn from_columns(cols: &[Vec<f64>]) -> Result<Self, StatsError> {
        let c = cols.len();
        let r = cols.first().map_or(0, Vec::len);
        for col in cols {
            if col.len() != r {
                return Err(StatsError::DimensionMismatch {
                    context: "Matrix::from_columns",
                    left: r,
                    right: col.len(),
                });
            }
        }
        Ok(Matrix::from_fn(r, c, |i, j| cols[j][i]))
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn column(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Matrix product `self · rhs`.
    pub fn mul(&self, rhs: &Matrix) -> Result<Matrix, StatsError> {
        if self.cols != rhs.rows {
            return Err(StatsError::DimensionMismatch {
                context: "Matrix::mul",
                left: self.cols,
                right: rhs.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out[(i, j)] += a * rhs[(k, j)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product.
    pub fn mul_vec(&self, v: &[f64]) -> Result<Vec<f64>, StatsError> {
        if self.cols != v.len() {
            return Err(StatsError::DimensionMismatch {
                context: "Matrix::mul_vec",
                left: self.cols,
                right: v.len(),
            });
        }
        Ok((0..self.rows)
            .map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Whether the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// In-place Gauss–Jordan inverse with partial pivoting. Errors on
    /// non-square or singular input.
    pub fn inverse(&self) -> Result<Matrix, StatsError> {
        if self.rows != self.cols {
            return Err(StatsError::DimensionMismatch {
                context: "Matrix::inverse",
                left: self.rows,
                right: self.cols,
            });
        }
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Partial pivot.
            let Some(pivot_row) =
                (col..n).max_by(|&r1, &r2| a[(r1, col)].abs().total_cmp(&a[(r2, col)].abs()))
            else {
                return Err(StatsError::Singular("Matrix::inverse"));
            };
            let pivot = a[(pivot_row, col)];
            if pivot.abs() < 1e-12 {
                return Err(StatsError::Singular("Matrix::inverse"));
            }
            a.swap_rows(col, pivot_row);
            inv.swap_rows(col, pivot_row);
            let inv_pivot = 1.0 / a[(col, col)];
            for j in 0..n {
                a[(col, j)] *= inv_pivot;
                inv[(col, j)] *= inv_pivot;
            }
            for row in 0..n {
                if row == col {
                    continue;
                }
                let factor = a[(row, col)];
                if factor == 0.0 {
                    continue;
                }
                for j in 0..n {
                    let sub_a = a[(col, j)];
                    let sub_i = inv[(col, j)];
                    a[(row, j)] -= factor * sub_a;
                    inv[(row, j)] -= factor * sub_i;
                }
            }
        }
        Ok(inv)
    }

    fn swap_rows(&mut self, r1: usize, r2: usize) {
        if r1 == r2 {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(r1 * self.cols + j, r2 * self.cols + j);
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_validates_shape() {
        assert!(Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).is_err());
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn from_columns_transposes() {
        let m = Matrix::from_columns(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m.column(1), vec![3.0, 4.0]);
    }

    #[test]
    fn transpose_involutes() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn multiplication_known_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let ab = a.mul(&b).unwrap();
        assert_eq!(
            ab,
            Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn multiplication_by_identity_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.mul(&Matrix::identity(2)).unwrap(), a);
        assert_eq!(Matrix::identity(2).mul(&a).unwrap(), a);
    }

    #[test]
    fn mul_vec_matches_mul() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(a.mul_vec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn inverse_of_known_matrix() {
        let a = Matrix::from_rows(&[vec![4.0, 7.0], vec![2.0, 6.0]]).unwrap();
        let inv = a.inverse().unwrap();
        let expected = Matrix::from_rows(&[vec![0.6, -0.7], vec![-0.2, 0.4]]).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert!((inv[(i, j)] - expected[(i, j)]).abs() < 1e-12);
            }
        }
        // a · a⁻¹ = I
        let prod = a.mul(&inv).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
        assert_eq!(
            a.inverse().unwrap_err(),
            StatsError::Singular("Matrix::inverse")
        );
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 5.0]]).unwrap();
        assert!(s.is_symmetric(1e-12));
        let ns = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]).unwrap();
        assert!(!ns.is_symmetric(1e-12));
        let rect = Matrix::zeros(2, 3);
        assert!(!rect.is_symmetric(1e-12));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]).unwrap();
        let inv = a.inverse().unwrap();
        assert_eq!(inv, a); // permutation matrices are their own inverse
    }
}
