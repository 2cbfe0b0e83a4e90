//! Householder tridiagonalization + implicit-shift QL eigensolver.
//!
//! Two doors lead here: [`crate::eigen::eigh_ql`] at every order, and
//! [`crate::eigen::eigh`] above [`crate::EIGH_JACOBI_CUTOFF`]. `tred2`
//! (Numerical Recipes) reduces the symmetrized input to tridiagonal form
//! and accumulates the orthogonal factor, then `tqli` (implicit QL with
//! Wilkinson shifts) diagonalizes the tridiagonal and rotates that factor
//! into the eigenvectors.
//!
//! Both loops are scalar O(n³) on purpose. In a solve, the Davidson
//! subspaces (order ≤ 12) and the 20 × 20 model block of the Olsen
//! preconditioner come through `eigh_ql`; RHF Fock matrices come through
//! `eigh`, so only those above order 24 (30 on C2) reach this route —
//! the smaller ones stay on Jacobi, which keeps degenerate π pairs
//! irrep-pure (see the cutoff's docs). A change to the arithmetic here
//! moves `results/table3.txt` through C2's order-30 Fock matrix (even
//! `hypot` → `sqrt` in `tqli` does).
//!
//! A panel-blocked reduction (`dsytrd` shape, DGEMM trailing updates)
//! pays only from n = 48 on — on a 2-vCPU x86-64 host it was 1.1–1.3×
//! faster than `tred2` at n = 48, 1.4–2.4× at 64–128 and 2.5–3× at
//! 256–400 — and those orders come only from test oracles and
//! `fcix-perf`'s untimed served oracle (n = 400).
//!
//! `tqli` reports non-convergence as a `TqliError` instead of
//! panicking; [`eigh_tridiag`] then falls back to the Jacobi solver, so
//! one NaN-poisoned subspace matrix cannot take a serving worker down.

use crate::eigen::{eigh_jacobi, Eigh};
use crate::matrix::Matrix;
use std::fmt;

/// Non-convergence of the implicit QL iteration (more than 50 sweeps on
/// one eigenvalue — does not happen for finite symmetric input, but a
/// NaN-poisoned matrix gets a clean error instead of a panic).
#[derive(Debug)]
pub(crate) struct TqliError {
    /// Index of the eigenvalue whose QL iteration failed to converge.
    index: usize,
}

impl fmt::Display for TqliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QL iteration failed to converge at eigenvalue {}",
            self.index
        )
    }
}

// A fresh zero-filled result buffer handed to the caller (once per
// solve).
fn zeros_vec(n: usize) -> Vec<f64> {
    vec![0.0f64; n] // lint: allow(alloc) — result buffer owned by the returned value
}

/// Eigenvalue-ascending permutation of `d` (once per solve).
fn sort_order(d: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..d.len()).collect(); // lint: allow(alloc) — once per solve
    order.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
    order
}

/// Symmetrized working copy (reads the upper triangle, like `eigh`).
fn symmetrized(a: &Matrix) -> Matrix {
    let n = a.nrows();
    Matrix::from_fn(n, n, |i, j| if i <= j { a[(i, j)] } else { a[(j, i)] })
}

/// Eigendecomposition of a symmetric matrix by tridiagonalization + QL.
///
/// Reads the upper triangle (like [`crate::eigen::eigh`]); panics on a
/// non-square input. Falls back to the Jacobi solver if the QL iteration
/// fails to converge (pathological input only).
pub(crate) fn eigh_tridiag(a: &Matrix) -> Eigh {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "eigh_tridiag requires a square matrix");
    if n == 0 {
        return Eigh {
            eigenvalues: zeros_vec(0),
            eigenvectors: Matrix::zeros(0, 0),
        };
    }
    let mut q = symmetrized(a);
    let mut d = zeros_vec(n);
    let mut e = zeros_vec(n);
    tred2(&mut q, &mut d, &mut e);
    if tqli(&mut d, &mut e, &mut q).is_err() {
        // >50 QL sweeps on one eigenvalue: only reachable for
        // NaN/Inf-poisoned input. The Jacobi solver is the robust
        // fallback (it never iterates past its fixed sweep budget).
        return eigh_jacobi(a);
    }
    let order = sort_order(&d);
    let mut eigenvalues = zeros_vec(n);
    for (k, &i) in order.iter().enumerate() {
        eigenvalues[k] = d[i];
    }
    let eigenvectors = Matrix::from_fn(n, n, |i, j| q[(i, order[j])]);
    Eigh {
        eigenvalues,
        eigenvectors,
    }
}

/// Householder reduction of the symmetric matrix in `z` to tridiagonal
/// form (d = diagonal, e = sub-diagonal); `z` is replaced by the
/// accumulated orthogonal transformation (Numerical-Recipes `tred2`).
fn tred2(z: &mut Matrix, d: &mut [f64], e: &mut [f64]) {
    let n = d.len();
    for i in (1..n).rev() {
        let l = i - 1;
        let mut h = 0.0;
        if l > 0 {
            let scale: f64 = (0..=l).map(|k| z[(i, k)].abs()).sum();
            if scale == 0.0 {
                e[i] = z[(i, l)];
            } else {
                for k in 0..=l {
                    z[(i, k)] /= scale;
                    h += z[(i, k)] * z[(i, k)];
                }
                let mut f = z[(i, l)];
                let g = if f >= 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                z[(i, l)] = f - g;
                f = 0.0;
                for j in 0..=l {
                    z[(j, i)] = z[(i, j)] / h;
                    let mut g = 0.0;
                    for k in 0..=j {
                        g += z[(j, k)] * z[(i, k)];
                    }
                    for k in (j + 1)..=l {
                        g += z[(k, j)] * z[(i, k)];
                    }
                    e[j] = g / h;
                    f += e[j] * z[(i, j)];
                }
                let hh = f / (h + h);
                for j in 0..=l {
                    let f = z[(i, j)];
                    let g = e[j] - hh * f;
                    e[j] = g;
                    for k in 0..=j {
                        let upd = f * e[k] + g * z[(i, k)];
                        z[(j, k)] -= upd;
                    }
                }
            }
        } else {
            e[i] = z[(i, l)];
        }
        d[i] = h;
    }
    d[0] = 0.0;
    e[0] = 0.0;
    for i in 0..n {
        if d[i] != 0.0 {
            for j in 0..i {
                let mut g = 0.0;
                for k in 0..i {
                    g += z[(i, k)] * z[(k, j)];
                }
                for k in 0..i {
                    let upd = g * z[(k, i)];
                    z[(k, j)] -= upd;
                }
            }
        }
        d[i] = z[(i, i)];
        z[(i, i)] = 1.0;
        for j in 0..i {
            z[(j, i)] = 0.0;
            z[(i, j)] = 0.0;
        }
    }
}

/// Implicit-shift QL on the tridiagonal (d, e), rotations accumulated
/// into `z` (Numerical-Recipes `tqli`). Returns an error if any single
/// eigenvalue needs more than 50 implicit QL sweeps (unreachable for
/// finite symmetric input; NaN poisoning is the practical trigger).
fn tqli(d: &mut [f64], e: &mut [f64], z: &mut Matrix) -> Result<(), TqliError> {
    let n = d.len();
    for i in 1..n {
        e[i - 1] = e[i];
    }
    e[n - 1] = 0.0;
    for l in 0..n {
        let mut iter = 0;
        loop {
            // Find a negligible sub-diagonal element.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(TqliError { index: l });
            }
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            let sign_r = if g >= 0.0 { r } else { -r };
            g = d[m] - d[l] + e[l] / (g + sign_r);
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    f = z[(k, i + 1)];
                    z[(k, i + 1)] = s * z[(k, i)] + c * f;
                    z[(k, i)] = c * z[(k, i)] - s * f;
                }
            }
            if r == 0.0 && m > l {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eigen::eigh_jacobi;
    use crate::rand_sym;

    fn check(a: &Matrix) {
        let n = a.nrows();
        let e = eigh_tridiag(a);
        // Residual ‖A V − V Λ‖.
        let av = a.matmul(&e.eigenvectors);
        let vl = Matrix::from_fn(n, n, |i, j| e.eigenvectors[(i, j)] * e.eigenvalues[j]);
        assert!(
            av.max_abs_diff(&vl) < 1e-9 * (1.0 + n as f64),
            "residual too large"
        );
        // Orthonormality.
        let vtv = e.eigenvectors.t_matmul(&e.eigenvectors);
        assert!(vtv.max_abs_diff(&Matrix::eye(n)) < 1e-10);
        // Ascending order.
        for w in e.eigenvalues.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
    }

    #[test]
    fn small_and_medium_random() {
        for &(n, seed) in &[(1usize, 1u64), (2, 2), (3, 3), (8, 4), (25, 5), (60, 6)] {
            check(&rand_sym(n, seed));
        }
    }

    #[test]
    fn agrees_with_jacobi() {
        for &(n, seed) in &[
            (6usize, 9u64),
            (17, 10),
            (33, 11),
            (47, 12),
            (48, 13),
            (64, 14),
            (97, 15),
        ] {
            let a = rand_sym(n, seed);
            let e1 = eigh_tridiag(&a);
            let e2 = eigh_jacobi(&a);
            for (x, y) in e1.eigenvalues.iter().zip(&e2.eigenvalues) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y} (n={n})");
            }
        }
    }

    #[test]
    fn degenerate_eigenvalues() {
        // Identity ⊕ shifted identity exercises exactly repeated roots.
        let n = 10;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i != j {
                0.0
            } else if i < 5 {
                2.0
            } else {
                -1.0
            }
        });
        let e = eigh_tridiag(&a);
        for k in 0..5 {
            assert!((e.eigenvalues[k] + 1.0).abs() < 1e-12);
            assert!((e.eigenvalues[k + 5] - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn already_tridiagonal() {
        // A Toeplitz tridiagonal matrix has analytic eigenvalues
        // d + 2·o·cos(kπ/(n+1)).
        let n = 12;
        let (dg, off) = (1.5, -0.7);
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                dg
            } else if i.abs_diff(j) == 1 {
                off
            } else {
                0.0
            }
        });
        let e = eigh_tridiag(&a);
        let mut exact: Vec<f64> = (1..=n)
            .map(|k| dg + 2.0 * off * (std::f64::consts::PI * k as f64 / (n as f64 + 1.0)).cos())
            .collect();
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (x, y) in e.eigenvalues.iter().zip(&exact) {
            assert!((x - y).abs() < 1e-11, "{x} vs {y}");
        }
    }

    #[test]
    fn rank_deficient() {
        // Outer product: eigenvalue 0 repeated n − 1 times.
        let n = 50;
        let u = Matrix::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
        check(&u.matmul_t(&u));
    }

    #[test]
    fn tqli_reports_nonconvergence_instead_of_panicking() {
        // NaN-poisoned tridiagonal: the shift arithmetic never produces
        // a negligible off-diagonal, so the iteration budget trips.
        let n = 4;
        let mut d = vec![1.0, f64::NAN, 2.0, 3.0];
        let mut e = vec![0.0, 0.5, 0.5, 0.5];
        let mut z = Matrix::eye(n);
        let err = tqli(&mut d, &mut e, &mut z);
        assert!(err.is_err());
        let msg = err.unwrap_err().to_string();
        assert!(msg.contains("failed to converge"), "{msg}");
    }

    #[test]
    fn eigh_tridiag_falls_back_to_jacobi_on_zero_matrix() {
        // Degenerate-but-valid input.
        let a = Matrix::zeros(64, 64);
        let e = eigh_tridiag(&a);
        assert!(e.eigenvalues.iter().all(|&w| w == 0.0));
        let vtv = e.eigenvectors.t_matmul(&e.eigenvectors);
        assert!(vtv.max_abs_diff(&Matrix::eye(64)) < 1e-12);
    }
}
