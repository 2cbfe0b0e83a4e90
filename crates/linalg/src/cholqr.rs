//! Cholesky-QR orthonormalization.
//!
//! Orthonormalizing a block of k vectors with modified Gram-Schmidt costs
//! O(k²) dependent dot/axpy passes — every one a latency-bound level-1
//! sweep (and, for distributed CI vectors, a synchronization point per
//! pair). Cholesky-QR reshapes the whole job into GEMM:
//!
//! 1. `G = VᵀV` — one syrk-shaped GEMM reduction,
//! 2. `G = L·Lᵀ` — a k×k Cholesky factorization (k is the subspace
//!    dimension, ≤ a few dozen: negligible),
//! 3. `V ← V·L⁻ᵀ` — one triangular solve applied column-block-wise.
//!
//! One pass leaves an orthogonality error ∝ κ(V)²·ε, so the standard
//! remedy — and what [`cholqr2`] implements — is to run the pass twice
//! ("CholeskyQR2"), which is unconditionally stable whenever the first
//! Cholesky succeeds. A failed factorization (numerically rank-deficient
//! block) is reported as [`CholError`] so callers can fall back to MGS,
//! which can drop dependent vectors one at a time.
//!
//! `fci-core::multiroot` drives steps 1 and 3 over distributed vectors
//! (per-rank local blocks, GEMM-shaped), using [`cholesky_lower`] from
//! here; [`cholqr2`] is the dense single-matrix form used for plain
//! `Matrix` blocks and as the test oracle.

use crate::matrix::Matrix;
use std::fmt;

/// Failure of the Cholesky factorization: the Gram matrix is not
/// numerically positive definite (the vector block is rank-deficient).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CholError {
    /// Column at which the factorization broke down.
    pub index: usize,
    /// The offending pivot value.
    pub pivot: f64,
}

impl fmt::Display for CholError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Cholesky breakdown at column {}: pivot {:e} not positive",
            self.index, self.pivot
        )
    }
}

impl std::error::Error for CholError {}

/// In-place Cholesky factorization `A = L·Lᵀ` of a symmetric
/// positive-definite matrix.
///
/// Reads the **lower** triangle of `a` and overwrites it with `L`; the
/// strictly-upper triangle is left untouched (the triangular solve that
/// follows it reads only the lower part). Fails with
/// [`CholError`] when a pivot falls below `n·ε` times the largest input
/// diagonal — the practical signature of a rank-deficient Gram matrix.
pub fn cholesky_lower(a: &mut Matrix) -> Result<(), CholError> {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "cholesky_lower requires a square matrix");
    if n == 0 {
        return Ok(());
    }
    let mut diag_max = 0.0f64;
    for j in 0..n {
        diag_max = diag_max.max(a[(j, j)].abs());
    }
    let min_pivot = (n as f64) * f64::EPSILON * diag_max;
    let s = a.as_mut_slice();
    for j in 0..n {
        // Left-looking column update: a[j.., j] −= Σ_{p<j} L[j,p]·L[j.., p]
        // (contiguous column axpys in the column-major layout).
        for p in 0..j {
            let ljp = s[p * n + j];
            if ljp != 0.0 {
                let (lo, hi) = s.split_at_mut(j * n);
                let cp = &lo[p * n + j..p * n + n];
                let cj = &mut hi[j..n];
                for (x, &y) in cj.iter_mut().zip(cp) {
                    *x -= ljp * y;
                }
            }
        }
        let pj = s[j * n + j];
        if !pj.is_finite() || pj <= min_pivot {
            return Err(CholError {
                index: j,
                pivot: pj,
            });
        }
        // Scale the column (diagonal included) by 1/√pivot:
        // L[j,j] = √pj, L[i>j, j] = a[i,j]/√pj.
        let inv = 1.0 / pj.sqrt();
        for x in &mut s[j * n + j..j * n + n] {
            *x *= inv;
        }
    }
    Ok(())
}

/// In-place triangular solve `M ← M·L⁻ᵀ` for lower-triangular `L`.
///
/// Forward column substitution: column `j` of the result is
/// `(M[:,j] − Σ_{p<j} R[:,p]·L[j,p]) / L[j,j]`, so each column is an
/// axpy sweep over already-finished columns — contiguous, GEMM-adjacent
/// memory traffic. Reads only the lower triangle of `L`.
pub(crate) fn trsm_right_ltrans(l: &Matrix, m: &mut Matrix) {
    let k = l.nrows();
    assert_eq!(k, l.ncols(), "trsm_right_ltrans requires square L");
    assert_eq!(m.ncols(), k, "trsm_right_ltrans dimension mismatch");
    let rows = m.nrows();
    let md = m.as_mut_slice();
    for j in 0..k {
        for p in 0..j {
            let c = l[(j, p)];
            if c != 0.0 {
                let (lo, hi) = md.split_at_mut(j * rows);
                let xp = &lo[p * rows..p * rows + rows];
                let xj = &mut hi[..rows];
                for (x, &y) in xj.iter_mut().zip(xp) {
                    *x -= c * y;
                }
            }
        }
        let inv = 1.0 / l[(j, j)];
        for x in &mut md[j * rows..j * rows + rows] {
            *x *= inv;
        }
    }
}

/// CholeskyQR2: orthonormalize the columns of `v` in place.
///
/// Two passes of Gram → Cholesky → triangular solve; after the second
/// pass the columns are orthonormal to working precision provided the
/// first factorization succeeds. On [`CholError`] (rank-deficient
/// block), `v` may hold a partially transformed block — callers fall
/// back to MGS on their own copy.
pub fn cholqr2(v: &mut Matrix) -> Result<(), CholError> {
    for _ in 0..2 {
        let mut g = v.t_matmul(v);
        cholesky_lower(&mut g)?;
        trsm_right_ltrans(&g, v);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand_mat;

    #[test]
    fn cholesky_recovers_known_factor() {
        // Build A = L·Lᵀ from a random unit-ish lower factor and check
        // the factorization reproduces it.
        let n = 8;
        let l0 = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                1.5 + (i as f64) * 0.1
            } else if i > j {
                0.3 / (1.0 + (i - j) as f64)
            } else {
                0.0
            }
        });
        let mut a = l0.matmul_t(&l0);
        cholesky_lower(&mut a).expect("SPD input");
        for j in 0..n {
            for i in j..n {
                assert!(
                    (a[(i, j)] - l0[(i, j)]).abs() < 1e-12,
                    "L mismatch at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn cholesky_rejects_rank_deficient() {
        // Gram matrix of two identical vectors is singular.
        let v = Matrix::from_fn(6, 2, |i, _| (i as f64) + 1.0);
        let mut g = v.t_matmul(&v);
        let err = cholesky_lower(&mut g).unwrap_err();
        assert_eq!(err.index, 1);
        assert!(err.to_string().contains("pivot"));
        // Outright indefinite input fails at the first bad pivot.
        let mut bad = Matrix::from_fn(2, 2, |i, j| if i == j { -1.0 } else { 0.0 });
        assert!(cholesky_lower(&mut bad).is_err());
    }

    #[test]
    fn trsm_inverts_cholesky_transform() {
        // For any SPD G = LLᵀ, (M·L⁻ᵀ)·Lᵀ = M.
        let n = 5;
        let m0 = rand_mat(9, n, 3);
        let mut g = m0.t_matmul(&m0);
        // Make it safely SPD.
        for i in 0..n {
            g[(i, i)] += 1.0;
        }
        let mut l = g.clone();
        cholesky_lower(&mut l).unwrap();
        // Zero the strictly-upper garbage for the multiply check.
        let lt = Matrix::from_fn(n, n, |i, j| if i >= j { l[(i, j)] } else { 0.0 });
        let mut m = m0.clone();
        trsm_right_ltrans(&l, &mut m);
        let back = m.matmul_t(&lt);
        assert!(back.max_abs_diff(&m0) < 1e-11);
    }

    #[test]
    fn cholqr2_orthonormalizes() {
        for &(rows, cols, seed) in &[(20usize, 4usize, 1u64), (64, 12, 2), (7, 7, 3)] {
            let mut v = rand_mat(rows, cols, seed);
            let v0 = v.clone();
            cholqr2(&mut v).expect("full-rank random block");
            let vtv = v.t_matmul(&v);
            assert!(
                vtv.max_abs_diff(&Matrix::eye(cols)) < 1e-12,
                "not orthonormal ({rows}x{cols})"
            );
            // Same span: V = V0·R for some upper-triangular R means
            // V0 = V·(VᵀV0) exactly reconstructs the input.
            let coeff = v.t_matmul(&v0);
            let back = v.matmul(&coeff);
            assert!(back.max_abs_diff(&v0) < 1e-10, "span changed");
        }
    }

    #[test]
    fn cholqr2_flags_duplicate_columns() {
        let base = rand_mat(10, 1, 9);
        let mut v = Matrix::from_fn(10, 2, |i, _| base[(i, 0)]);
        assert!(cholqr2(&mut v).is_err());
    }

    #[test]
    fn empty_and_single() {
        let mut v = Matrix::zeros(4, 0);
        cholqr2(&mut v).unwrap();
        let mut one = Matrix::from_fn(3, 1, |i, _| (i + 1) as f64);
        cholqr2(&mut one).unwrap();
        let nrm: f64 = one.col(0).iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!((nrm - 1.0).abs() < 1e-14);
    }
}
