//! Symmetric eigensolvers.
//!
//! * [`eigh`] — the front door: cyclic Jacobi (`eigh_jacobi`) up to
//!   [`EIGH_JACOBI_CUTOFF`], Householder `tred2` + implicit QL
//!   (`tridiag.rs`) above it. RHF's Fock matrices take it: at their
//!   small orders Jacobi keeps the degenerate π pairs of a linear
//!   molecule irrep-pure (see the cutoff's docs); the larger ones and
//!   the dense oracles run `tred2` + QL.
//! * [`eigh_ql`] — `tred2` + QL at every order, for callers that need
//!   no eigenvector of a degenerate level in any particular basis: the
//!   Davidson subspaces (order ≤ 12 on every benchmark workload, through
//!   `block_davidson`'s Ritz step) and the 20 × 20 model block of the
//!   Olsen preconditioner. There QL is 2.2–3.8× faster than Jacobi.
//! * [`eigh_2x2`] — the analytic 2×2 symmetric solve. The paper's
//!   automatically adjusted single-vector method derives its step length λ
//!   from exactly this 2×2 diagonalization (eqs. 13–15), so it gets a
//!   dedicated, branch-stable routine.

use crate::matrix::Matrix;

/// Eigendecomposition of a symmetric matrix: `a = V diag(w) Vᵀ`.
#[derive(Clone, Debug)]
pub struct Eigh {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors as columns, in the order of `eigenvalues`.
    pub eigenvectors: Matrix,
}

/// Largest matrix order solved by cyclic Jacobi; above it `eigh` runs
/// `tred2` + QL.
///
/// Jacobi is kept for what it leaves alone, not for speed: QL is faster
/// at every order up to here (2.2× at n = 8, 3.3× at 12–16, 3.8× at 20,
/// 5.2× at 24, single-threaded on a 2-vCPU x86-64 host). Jacobi never
/// rotates an exactly zero coupling, so when a matrix splits into index
/// sets with no coupling between them, every eigenvector stays on one
/// set — even inside a level degenerate across the sets. An RHF Fock
/// matrix of a linear molecule is such a matrix: its degenerate π pairs
/// come out irrep-pure, and the MO integrals keep the exact zeros that
/// σ's screening counts (Table 3). QL mixes such a level arbitrarily;
/// with QL at every order the π pairs arrive mixed and the MO bits move
/// (`zero_coupling_keeps_degenerate_eigenvectors_on_one_set` pins the
/// property). The diagonalisers need no such property and call
/// [`eigh_ql`] at every order; RHF keeps this route until its orbitals
/// are symmetry-pure by construction.
pub const EIGH_JACOBI_CUTOFF: usize = 24;

/// Eigendecomposition of a symmetric matrix.
///
/// Dispatches to cyclic Jacobi for matrices up to [`EIGH_JACOBI_CUTOFF`]
/// and to Householder `tred2` + implicit QL (`tridiag.rs`) above it.
/// Reads the upper triangle; panics if `a` is not square. When the
/// [`crate::probe`] eigensolver channel is enabled, the dispatch is
/// timed and reported per shape.
pub fn eigh(a: &Matrix) -> Eigh {
    probed(a, |a| {
        if a.nrows() > EIGH_JACOBI_CUTOFF {
            crate::tridiag::eigh_tridiag(a)
        } else {
            eigh_jacobi(a)
        }
    })
}

/// Eigendecomposition of a symmetric matrix by Householder `tred2` +
/// implicit QL at every order (`tridiag.rs`), with the same Jacobi
/// fallback on non-convergence.
///
/// Reads the upper triangle; panics if `a` is not square. The
/// eigenvalues agree with [`eigh`]'s to rounding. Inside a degenerate
/// level the eigenvectors are some orthonormal basis of the level's
/// space, not necessarily [`eigh`]'s: use it where any basis will do.
/// Reported to the [`crate::probe`] eigensolver channel like [`eigh`].
pub fn eigh_ql(a: &Matrix) -> Eigh {
    probed(a, crate::tridiag::eigh_tridiag)
}

/// Run `solve` on `a`, timed on the [`crate::probe`] eigensolver channel
/// when it is enabled: one relaxed atomic load when nobody is observing
/// (same budget as the GEMM probe). This is real host kernel time by
/// design — linalg sits below the simulated-clock layer.
fn probed(a: &Matrix, solve: impl FnOnce(&Matrix) -> Eigh) -> Eigh {
    let timer = crate::probe::eigh_active().then(std::time::Instant::now); // lint: allow(wallclock) — real host kernel time by design
    let out = solve(a);
    if let Some(t0) = timer {
        crate::probe::emit_eigh(a.nrows(), t0.elapsed().as_secs_f64());
    }
    out
}

/// Cyclic Jacobi diagonalization of a symmetric matrix.
///
/// Panics if `a` is not square; the strictly lower triangle is ignored
/// (the matrix is assumed symmetric and read from the upper triangle).
pub(crate) fn eigh_jacobi(a: &Matrix) -> Eigh {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "eigh requires a square matrix");
    // Work on a symmetrized copy.
    let mut m = Matrix::from_fn(n, n, |i, j| if i <= j { a[(i, j)] } else { a[(j, i)] });
    let mut v = Matrix::eye(n);

    let max_sweeps = 100;
    for _sweep in 0..max_sweeps {
        let mut off = 0.0;
        for j in 0..n {
            for i in 0..j {
                off += m[(i, j)] * m[(i, j)];
            }
        }
        if off.sqrt() < 1e-14 * (1.0 + frob(&m)) {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq == 0.0 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                // Stable computation of the rotation (Golub & Van Loan).
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply the rotation to rows/cols p and q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate eigenvectors.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }

    // Sort ascending by eigenvalue.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| m[(i, i)].total_cmp(&m[(j, j)]));
    let eigenvalues: Vec<f64> = order.iter().map(|&i| m[(i, i)]).collect();
    let eigenvectors = Matrix::from_fn(n, n, |i, j| v[(i, order[j])]);
    Eigh {
        eigenvalues,
        eigenvectors,
    }
}

fn frob(m: &Matrix) -> f64 {
    m.norm()
}

/// Analytic eigendecomposition of the symmetric 2×2 matrix
/// `[[a, b], [b, d]]`.
///
/// Returns `(w_lo, (x, y))`: the lower eigenvalue and its normalized
/// eigenvector. The eigenvector sign is fixed so that `x >= 0`, which makes
/// the λ = y/x mixing ratio used by the single-vector diagonalizer
/// well-defined across iterations.
pub fn eigh_2x2(a: f64, b: f64, d: f64) -> (f64, (f64, f64)) {
    if b == 0.0 {
        return if a <= d {
            (a, (1.0, 0.0))
        } else {
            (d, (0.0, 1.0))
        };
    }
    let tr = a + d;
    let det_disc = ((a - d) * 0.5).hypot(b);
    let w = 0.5 * tr - det_disc; // lower eigenvalue
                                 // Eigenvector from the numerically safer of the two rows.
    let (mut x, mut y) = if (a - w).abs() > (d - w).abs() {
        (-b, a - w)
    } else {
        (d - w, -b)
    };
    let nrm = x.hypot(y);
    x /= nrm;
    y /= nrm;
    if x < 0.0 {
        x = -x;
        y = -y;
    }
    (w, (x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual(a: &Matrix, e: &Eigh) -> f64 {
        // ‖A V − V diag(w)‖
        let av = a.matmul(&e.eigenvectors);
        let n = a.nrows();
        let vw = Matrix::from_fn(n, n, |i, j| e.eigenvectors[(i, j)] * e.eigenvalues[j]);
        av.max_abs_diff(&vw)
    }

    #[test]
    fn diagonal_matrix() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -1.0]]);
        let e = eigh(&a);
        assert!((e.eigenvalues[0] + 1.0).abs() < 1e-14);
        assert!((e.eigenvalues[1] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let e = eigh(&a);
        assert!((e.eigenvalues[0] - 1.0).abs() < 1e-13);
        assert!((e.eigenvalues[1] - 3.0).abs() < 1e-13);
        assert!(residual(&a, &e) < 1e-12);
    }

    #[test]
    fn random_symmetric_consistency() {
        let n = 20;
        let a = crate::rand_sym(n, 12345);
        let e = eigh(&a);
        assert!(residual(&a, &e) < 1e-10, "residual {}", residual(&a, &e));
        // Eigenvalues ascend.
        for k in 1..n {
            assert!(e.eigenvalues[k] >= e.eigenvalues[k - 1]);
        }
        // Eigenvectors orthonormal.
        let vtv = e.eigenvectors.t_matmul(&e.eigenvectors);
        assert!(vtv.max_abs_diff(&Matrix::eye(n)) < 1e-11);
        // Trace preserved.
        let tr_a: f64 = (0..n).map(|i| a[(i, i)]).sum();
        let tr_w: f64 = e.eigenvalues.iter().sum();
        assert!((tr_a - tr_w).abs() < 1e-10);
    }

    #[test]
    fn eigh_2x2_matches_jacobi() {
        for &(a, b, d) in &[
            (1.0, 0.5, 2.0),
            (-3.0, 2.0, 1.0),
            (0.0, 0.0, 0.0),
            (5.0, -4.0, 5.0),
            (2.0, 0.0, 1.0),
        ] {
            let (w, (x, y)) = eigh_2x2(a, b, d);
            let m = Matrix::from_rows(&[&[a, b], &[b, d]]);
            let e = eigh(&m);
            assert!(
                (w - e.eigenvalues[0]).abs() < 1e-13,
                "eigenvalue mismatch for ({a},{b},{d})"
            );
            // Check eigen equation directly.
            assert!((a * x + b * y - w * x).abs() < 1e-12);
            assert!((b * x + d * y - w * y).abs() < 1e-12);
            assert!((x * x + y * y - 1.0).abs() < 1e-12);
            assert!(x >= 0.0);
        }
    }

    #[test]
    fn dispatch_boundary_solvers_agree() {
        // At n = CUTOFF the dispatch picks Jacobi, at CUTOFF+1 the
        // tridiagonal route; both sides of the boundary must agree with
        // the *other* solver to 1e-9 (eigenvalues) so retuning the
        // cutoff can never change physics.
        for &n in &[EIGH_JACOBI_CUTOFF, EIGH_JACOBI_CUTOFF + 1] {
            let a = crate::rand_sym(n, 777 + n as u64);
            let ej = eigh_jacobi(&a);
            let et = crate::tridiag::eigh_tridiag(&a);
            for (x, y) in ej.eigenvalues.iter().zip(&et.eigenvalues) {
                assert!((x - y).abs() < 1e-9, "n={n}: {x} vs {y}");
            }
            // And the dispatched result matches both.
            let ed = eigh(&a);
            for (x, y) in ed.eigenvalues.iter().zip(&ej.eigenvalues) {
                assert!((x - y).abs() < 1e-9, "dispatch n={n}: {x} vs {y}");
            }
        }
    }

    #[test]
    fn zero_coupling_keeps_degenerate_eigenvectors_on_one_set() {
        // Two interleaved index sets (even, odd) with exactly zero
        // coupling between them and equal blocks on each, as a π pair's
        // x and y functions have: every level is degenerate across the
        // sets. QL on this matrix returns all eight eigenvectors mixed.
        let k = 4;
        let m = crate::rand_sym(k, 9);
        let n = 2 * k;
        assert!(n <= EIGH_JACOBI_CUTOFF);
        let a = Matrix::from_fn(n, n, |i, j| {
            if i % 2 == j % 2 {
                m[(i / 2, j / 2)]
            } else {
                0.0
            }
        });
        let e = eigh(&a);
        assert!(residual(&a, &e) < 1e-12);
        for c in 0..n {
            let v = e.eigenvectors.col(c);
            let on_even = v.iter().step_by(2).any(|&x| x != 0.0);
            let on_odd = v.iter().skip(1).step_by(2).any(|&x| x != 0.0);
            assert!(
                on_even != on_odd,
                "eigenvector {c} (w = {}) spans both sets: {v:?}",
                e.eigenvalues[c]
            );
        }
    }

    /// `Q diag(w) Qᵀ` for a random orthogonal `Q` of order `w.len()`.
    fn with_spectrum(w: &[f64], seed: u64) -> Matrix {
        let n = w.len();
        let q = eigh(&crate::rand_sym(n, seed)).eigenvectors;
        let qw = Matrix::from_fn(n, n, |i, j| q[(i, j)] * w[j]);
        qw.matmul_t(&q)
    }

    /// The QL route against `eigh` at every order a diagonaliser reaches
    /// and beyond the Jacobi cutoff: random, clustered (levels 1e-9
    /// apart), degenerate up to rounding, and exactly degenerate (two
    /// equal blocks with no coupling) spectra. Eigenvalues agree to 1e-12,
    /// every Ritz residual is ≤ 1e-12·‖A‖ and the vectors are orthonormal.
    #[test]
    fn ql_route_agrees_with_eigh_on_small_orders() {
        for n in 1..=24 {
            let seed = 100 + n as u64;
            let clustered: Vec<f64> = (0..n).map(|k| (k / 3) as f64 + 1e-9 * k as f64).collect();
            let repeated: Vec<f64> = (0..n).map(|k| [-1.0, 0.5, 2.0][k % 3]).collect();
            let half = crate::rand_sym(n.div_ceil(2), seed);
            let twin = Matrix::from_fn(n, n, |i, j| {
                if i % 2 == j % 2 {
                    half[(i / 2, j / 2)]
                } else {
                    0.0
                }
            });
            for (what, a) in [
                ("random", crate::rand_sym(n, seed)),
                ("clustered", with_spectrum(&clustered, seed)),
                ("repeated", with_spectrum(&repeated, seed)),
                ("twin blocks", twin),
            ] {
                let (ql, reference) = (eigh_ql(&a), eigh(&a));
                for (x, y) in ql.eigenvalues.iter().zip(&reference.eigenvalues) {
                    assert!((x - y).abs() <= 1e-12, "{what}, n = {n}: {x} vs {y}");
                }
                let res = residual(&a, &ql);
                assert!(res <= 1e-12 * a.norm(), "{what}, n = {n}: residual {res}");
                let vtv = ql.eigenvectors.t_matmul(&ql.eigenvectors);
                assert!(vtv.max_abs_diff(&Matrix::eye(n)) < 1e-12, "{what}, n = {n}");
            }
        }
    }

    #[test]
    fn eigh_1x1_and_identity() {
        let a = Matrix::from_rows(&[&[42.0]]);
        let e = eigh(&a);
        assert_eq!(e.eigenvalues, vec![42.0]);
        let e = eigh(&Matrix::eye(5));
        assert!(e.eigenvalues.iter().all(|&w| (w - 1.0).abs() < 1e-14));
    }
}
