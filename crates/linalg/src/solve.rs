//! LU factorization with partial pivoting and linear solves.
//!
//! Used by the DIIS extrapolation in the SCF driver (the B-matrix linear
//! system) and by small auxiliary solves in the benchmark harnesses.

use crate::matrix::Matrix;

/// Error from a singular (or numerically singular) factorization.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LuError {
    /// The elimination column where no usable pivot was found.
    pub column: usize,
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular at column {}", self.column)
    }
}

impl std::error::Error for LuError {}

/// Compact LU factorization `P A = L U` with partial pivoting.
///
/// Returns the packed LU factors (unit lower triangle implicit) and the
/// pivot row permutation.
pub(crate) fn lu_factor(a: &Matrix) -> Result<(Matrix, Vec<usize>), LuError> {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "lu_factor requires a square matrix");
    let mut lu = a.clone();
    let mut piv: Vec<usize> = (0..n).collect();

    for k in 0..n {
        // Pivot search in column k.
        let mut p = k;
        let mut pmax = lu[(k, k)].abs();
        for i in (k + 1)..n {
            let v = lu[(i, k)].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if pmax == 0.0 || !pmax.is_finite() {
            return Err(LuError { column: k });
        }
        if p != k {
            for j in 0..n {
                let t = lu[(k, j)];
                lu[(k, j)] = lu[(p, j)];
                lu[(p, j)] = t;
            }
            piv.swap(k, p);
        }
        let pivot = lu[(k, k)];
        for i in (k + 1)..n {
            let m = lu[(i, k)] / pivot;
            lu[(i, k)] = m;
            for j in (k + 1)..n {
                let v = lu[(k, j)];
                lu[(i, j)] -= m * v;
            }
        }
    }
    Ok((lu, piv))
}

/// Solve `A x = b` by LU factorization with partial pivoting.
pub fn lu_solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LuError> {
    let n = a.nrows();
    assert_eq!(b.len(), n, "rhs length mismatch");
    let (lu, piv) = lu_factor(a)?;
    // Apply permutation to b.
    let mut x: Vec<f64> = piv.iter().map(|&p| b[p]).collect();
    // Forward substitution (unit lower).
    for i in 1..n {
        let mut s = x[i];
        for j in 0..i {
            s -= lu[(i, j)] * x[j];
        }
        x[i] = s;
    }
    // Back substitution.
    for i in (0..n).rev() {
        let mut s = x[i];
        for j in (i + 1)..n {
            s -= lu[(i, j)] * x[j];
        }
        x[i] = s / lu[(i, i)];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve() {
        let a = Matrix::eye(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        let x = lu_solve(&a, &b).unwrap();
        assert_eq!(x, b.to_vec());
    }

    #[test]
    fn known_system() {
        // [[2,1],[1,3]] x = [3,5] -> x = [4/5, 7/5]
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = lu_solve(&a, &[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-14);
        assert!((x[1] - 1.4).abs() < 1e-14);
    }

    #[test]
    fn pivoting_required() {
        // Zero on the initial diagonal forces a row swap.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = lu_solve(&a, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(lu_solve(&a, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn random_roundtrip() {
        let n = 12;
        let r = crate::rand_mat(n, n, 777);
        let a = Matrix::from_fn(n, n, |i, j| r[(i, j)] + if i == j { 2.0 } else { 0.0 });
        let xtrue: Vec<f64> = (0..n).map(|i| (i as f64) - 3.5).collect();
        let mut b = vec![0.0; n];
        for i in 0..n {
            for j in 0..n {
                b[i] += a[(i, j)] * xtrue[j];
            }
        }
        let x = lu_solve(&a, &b).unwrap();
        for i in 0..n {
            assert!((x[i] - xtrue[i]).abs() < 1e-10);
        }
    }
}
