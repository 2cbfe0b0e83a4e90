//! Column-major dense matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense, column-major `f64` matrix.
///
/// Element `(i, j)` (row `i`, column `j`) lives at `data[i + j * nrows]`.
/// Column-major layout is used everywhere in this workspace because the FCI
/// coefficient matrix is accessed column-wise (each column is a fixed
/// α-string, indexed by β strings) and because it matches the Fortran
/// convention of the original program.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Matrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// The `n × n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build a matrix from a function of `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        Matrix { nrows, ncols, data }
    }

    /// Wrap an existing column-major buffer. Panics if the length mismatches.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "buffer length must equal nrows*ncols"
        );
        Matrix { nrows, ncols, data }
    }

    /// Build from row-major slices (convenient for literals in tests).
    #[cfg(test)]
    pub(crate) fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = if nrows == 0 { 0 } else { rows[0].len() };
        assert!(rows.iter().all(|r| r.len() == ncols), "ragged rows");
        Self::from_fn(nrows, ncols, |i, j| rows[i][j])
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying column-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the column-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow column `j` as a contiguous slice.
    pub fn col(&self, j: usize) -> &[f64] {
        assert!(j < self.ncols);
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Copy of row `i` (rows are strided, so this allocates).
    pub fn row(&self, i: usize) -> Vec<f64> {
        assert!(i < self.nrows);
        (0..self.ncols).map(|j| self[(i, j)]).collect()
    }

    /// Re-dimension in place to `nrows × ncols`, inside the allocation
    /// the matrix was created with: a caller that multiplies many
    /// sub-blocks of varying shape sizes one matrix for the largest and
    /// reshapes it per block. The flat buffer keeps its leading
    /// `min(old, new)` elements and any growth reads zero, so an all-zero
    /// matrix stays all-zero. Never allocates: a shape beyond the
    /// capacity is a caller bug and panics.
    pub fn reshape(&mut self, nrows: usize, ncols: usize) {
        let len = nrows * ncols;
        assert!(len <= self.data.capacity(), "reshape beyond capacity");
        self.data.resize(len, 0.0);
        self.nrows = nrows;
        self.ncols = ncols;
    }

    /// Set every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|x| *x = 0.0);
    }

    /// Scale every element in place.
    pub fn scale(&mut self, a: f64) {
        crate::blas1::dscal(a, &mut self.data);
    }

    /// `self += a * other` elementwise. Panics on shape mismatch.
    pub fn axpy(&mut self, a: f64, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        crate::blas1::daxpy(a, &other.data, &mut self.data);
    }

    /// Frobenius inner product `⟨self, other⟩`.
    pub fn dot(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape(), "dot shape mismatch");
        crate::blas1::ddot(&self.data, &other.data)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        crate::blas1::dnrm2(&self.data)
    }

    /// `(nrows, ncols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Maximum absolute elementwise difference with `other`.
    // lint: allow(dead) — the comparison tests in every numeric crate share
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Is the matrix symmetric to within `tol`?
    // lint: allow(dead) — the symmetry check tests in fci-ints, fci-scf and fci-core share
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        for j in 0..self.ncols {
            for i in 0..j {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Matrix product `self * other` (convenience wrapper over [`crate::dgemm`]).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.ncols, other.nrows, "matmul inner dimension mismatch");
        let mut c = Matrix::zeros(self.nrows, other.ncols);
        crate::gemm::dgemm(
            crate::gemm::Trans::No,
            crate::gemm::Trans::No,
            1.0,
            self,
            other,
            0.0,
            &mut c,
        );
        c
    }

    /// `selfᵀ * other`.
    pub fn t_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.nrows, other.nrows, "t_matmul inner dimension mismatch");
        let mut c = Matrix::zeros(self.ncols, other.ncols);
        crate::gemm::dgemm(
            crate::gemm::Trans::Yes,
            crate::gemm::Trans::No,
            1.0,
            self,
            other,
            0.0,
            &mut c,
        );
        c
    }

    /// `self * otherᵀ`.
    pub fn matmul_t(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.ncols, other.ncols, "matmul_t inner dimension mismatch");
        let mut c = Matrix::zeros(self.nrows, other.nrows);
        crate::gemm::dgemm(
            crate::gemm::Trans::No,
            crate::gemm::Trans::Yes,
            1.0,
            self,
            other,
            0.0,
            &mut c,
        );
        c
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i + j * self.nrows]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i + j * self.nrows]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.nrows, self.ncols)?;
        let show_rows = self.nrows.min(8);
        let show_cols = self.ncols.min(8);
        for i in 0..show_rows {
            write!(f, "  ")?;
            for j in 0..show_cols {
                write!(f, "{:12.6} ", self[(i, j)])?;
            }
            if show_cols < self.ncols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_rows < self.nrows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_eye() {
        let z = Matrix::zeros(3, 2);
        assert_eq!(z.shape(), (3, 2));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let e = Matrix::eye(3);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(e[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn reshape_stays_inside_the_allocation() {
        let mut m = Matrix::zeros(4, 6);
        let (ptr, cap) = (m.as_slice().as_ptr(), 24);
        m.reshape(2, 3);
        assert_eq!((m.shape(), m.len()), ((2, 3), 6));
        m[(1, 2)] = 7.0;
        // Growth reads zero; the kept prefix is reinterpreted flat.
        m.reshape(3, 8);
        assert_eq!((m.shape(), m.len()), ((3, 8), cap));
        assert_eq!(m[(2, 1)], 7.0);
        assert_eq!(m.as_slice().iter().filter(|&&x| x != 0.0).count(), 1);
        assert_eq!(m.as_slice().as_ptr(), ptr);
        m.reshape(0, 5);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "reshape beyond capacity")]
    fn reshape_past_capacity_panics() {
        Matrix::zeros(2, 2).reshape(5, 1);
    }

    #[test]
    fn column_major_layout() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        // data = [m(0,0), m(1,0), m(0,1), m(1,1), m(0,2), m(1,2)]
        assert_eq!(m.as_slice(), &[0.0, 10.0, 1.0, 11.0, 2.0, 12.0]);
        assert_eq!(m.col(1), &[1.0, 11.0]);
        assert_eq!(m.row(1), vec![10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_rows_matches_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m[(2, 1)], 6.0);
        assert_eq!(m[(0, 1)], 2.0);
    }

    #[test]
    fn axpy_dot_norm() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        let mut b = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        b.axpy(2.0, &a);
        assert_eq!(b, Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 5.0]]));
        assert_eq!(a.dot(&a), 5.0);
        assert!((a.norm() - 5.0_f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn symmetric_check() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        assert!(s.is_symmetric(0.0));
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 3.0]]);
        assert!(!a.is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1.0));
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
        let ct = a.t_matmul(&b);
        assert_eq!(ct, Matrix::from_rows(&[&[26.0, 30.0], &[38.0, 44.0]]));
        let cmt = a.matmul_t(&b);
        assert_eq!(cmt, Matrix::from_rows(&[&[17.0, 23.0], &[39.0, 53.0]]));
    }

    #[test]
    #[should_panic]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
