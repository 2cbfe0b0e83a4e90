//! Householder tridiagonalization + implicit-shift QL eigensolver.
//!
//! The cyclic Jacobi solver in [`crate::eigen`] is robust but needs many
//! O(n³) sweeps; for the larger dense reference diagonalizations (sector
//! Hamiltonians of 10³–10⁴ determinants) the classic two-stage approach —
//! reduce to tridiagonal form with Householder reflections, then apply the
//! implicit QL algorithm with Wilkinson shifts — is an order of magnitude
//! faster. [`crate::eigen::eigh`] dispatches here for matrices above a
//! small cutoff; the two solvers cross-check each other in the tests.
//!
//! The reduction stage comes in two flavors, selected by [`TridiagPath`]:
//!
//! * **Scalar** — the Numerical-Recipes `tred2`, kept verbatim as the
//!   reference: O(n³) level-2 loops with poor cache behavior, fine below
//!   ~50×50.
//! * **Blocked** — a panel-blocked Householder reduction in the LAPACK
//!   `dsytrd`/`dlatrd` style: each `NB`-column panel accumulates its
//!   reflectors as a compact `(V, W)` pair, the trailing submatrix is
//!   updated once per panel with two [`dgemm`] rank-`NB` products
//!   (`A ← A − V·Wᵀ − W·Vᵀ`), and the orthogonal factor `Q` is rebuilt
//!   afterwards from the stored reflectors with compact-WY block
//!   applications (`Q₂ ← Q₂ − V·T·VᵀQ₂`, three GEMMs per panel). Roughly
//!   2/3 of the reduction flops and all of the Q-accumulation flops run
//!   at GEMM rate (5.8× the scalar path at n = 512 when PR 9 measured
//!   it; `fcix-perf`'s `linalg.eigh_s` times the dispatch today).
//!
//! Both paths produce a valid factorization `A = Q·T·Qᵀ` (they differ in
//! the reduction order, so the intermediate `T` matrices differ); the
//! shared [`tqli`] back-substitution then yields identical eigenpairs up
//! to round-off. `tqli` reports non-convergence as a [`TqliError`]
//! instead of panicking — [`eigh_tridiag`] falls back to the Jacobi
//! solver in that (pathological) case, so the serving hot path cannot be
//! taken down by one ill-conditioned subspace matrix.

use crate::arena;
use crate::eigen::{eigh_jacobi, Eigh};
use crate::gemm::{dgemm, Trans};
use crate::matrix::Matrix;
use std::fmt;

/// Panel width of the blocked reduction. 32 columns keep the `(V, W)`
/// panel resident in L1/L2 while making the trailing rank-2·NB update
/// fat enough to run at GEMM rate.
const NB: usize = 32;

/// Smallest order where the blocked path beats the scalar `tred2`
/// (below this the panel bookkeeping is pure overhead; measured values
/// are in DESIGN.md §16).
const BLOCKED_MIN_N: usize = 48;

/// Reduction-path override for [`reduce_to_tridiag`] /
/// [`eigh_tridiag_path`]: this module's tests force each path;
/// everything else runs [`TridiagPath::Auto`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
enum TridiagPath {
    /// Blocked for `n ≥ 48`, scalar below.
    Auto,
    /// Force the scalar Numerical-Recipes `tred2`.
    Scalar,
    /// Force the panel-blocked GEMM reduction.
    Blocked,
}

/// Result of a Householder tridiagonalization `A = Q·T·Qᵀ`.
struct Tridiag {
    /// Accumulated orthogonal factor (`n×n`).
    q: Matrix,
    /// Diagonal of `T` (`d[i] = T[i,i]`).
    d: Vec<f64>,
    /// Sub-diagonal of `T` in the `tred2` convention:
    /// `e[i] = T[i, i−1]`, with `e[0]` unused (zero).
    e: Vec<f64>,
}

/// Non-convergence of the implicit QL iteration (more than 50 sweeps on
/// one eigenvalue — does not happen for finite symmetric input, but a
/// NaN-poisoned matrix gets a clean error instead of a panic).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TqliError {
    /// Index of the eigenvalue whose QL iteration failed to converge.
    pub index: usize,
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

impl std::error::Error for TqliError {}

// A fresh zero-filled result buffer handed to the caller (once per
// solve, outside every panel loop).
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
pub fn eigh_tridiag(a: &Matrix) -> Eigh {
    eigh_tridiag_path(TridiagPath::Auto, a)
}

/// [`eigh_tridiag`] with an explicit reduction path.
fn eigh_tridiag_path(path: TridiagPath, a: &Matrix) -> Eigh {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "eigh_tridiag requires a square matrix");
    if n == 0 {
        return Eigh {
            eigenvalues: zeros_vec(0),
            eigenvectors: Matrix::zeros(0, 0),
        };
    }
    let Tridiag {
        mut q,
        mut d,
        mut e,
    } = reduce_to_tridiag(path, a);
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

/// Householder tridiagonalization `A = Q·T·Qᵀ` of a symmetric matrix.
///
/// Reads the upper triangle; panics on a non-square input. The returned
/// `(d, e)` follow the `tred2` convention (`e[i] = T[i, i−1]`, `e[0]`
/// zero) and feed [`tqli`] via [`eigh_tridiag_path`].
fn reduce_to_tridiag(path: TridiagPath, a: &Matrix) -> Tridiag {
    let n = a.nrows();
    assert_eq!(n, a.ncols(), "reduce_to_tridiag requires a square matrix");
    let blocked = match path {
        TridiagPath::Auto => n >= BLOCKED_MIN_N,
        TridiagPath::Scalar => false,
        TridiagPath::Blocked => true,
    };
    if blocked {
        reduce_blocked(a)
    } else {
        reduce_scalar(a)
    }
}

fn reduce_scalar(a: &Matrix) -> Tridiag {
    let n = a.nrows();
    let mut z = symmetrized(a);
    let mut d = zeros_vec(n);
    let mut e = zeros_vec(n);
    if n > 0 {
        tred2(&mut z, &mut d, &mut e);
    }
    Tridiag { q: z, d, e }
}

// ---------------------------------------------------------------------
// Blocked reduction (LAPACK dsytrd/dlatrd 'L'-variant shape).
// ---------------------------------------------------------------------

/// Panel-blocked Householder reduction. The working matrix `z` starts as
/// the symmetrized input; during the reduction its strictly-lower columns
/// are overwritten with the Householder vectors (unit first element
/// stored explicitly), and afterwards `Q` is accumulated from them into a
/// fresh matrix with compact-WY block applications.
fn reduce_blocked(a: &Matrix) -> Tridiag {
    let n = a.nrows();
    let mut z = symmetrized(a);
    let mut d = zeros_vec(n);
    let mut e = zeros_vec(n);
    if n == 0 {
        return Tridiag { q: z, d, e };
    }
    if n == 1 {
        d[0] = z[(0, 0)];
        return Tridiag {
            q: Matrix::eye(1),
            d,
            e,
        };
    }

    // Householder scalars, reused by the Q accumulation below; flat
    // per-solve scratch comes from the shared arena pool.
    let mut tau_g = arena::acquire(n);
    let taus = tau_g.as_mut_slice();
    let mut y_g = arena::acquire(n);
    let y = y_g.as_mut_slice();

    // Panel reflectors: V holds the Householder vectors of the current
    // panel (zeros above their start row), W the matching update vectors
    // so that the pending trailing update is A − V·Wᵀ − W·Vᵀ.
    let mut v_pan = Matrix::zeros(n, NB);
    let mut w_pan = Matrix::zeros(n, NB);

    let mut j0 = 0;
    while j0 + 1 < n {
        let nb = NB.min(n - 1 - j0);
        for jj in 0..nb {
            let j = j0 + jj;
            let t = j + 1;

            // (1) Bring column j up to date with the panel's pending
            //     corrections: A[j.., j] −= V[j.., :jj]·W[j, :jj]ᵀ
            //                              + W[j.., :jj]·V[j, :jj]ᵀ.
            for p in 0..jj {
                let wj = w_pan[(j, p)];
                let vj = v_pan[(j, p)];
                if wj != 0.0 || vj != 0.0 {
                    let vcol = &v_pan.col(p)[j..n];
                    let wcol = &w_pan.col(p)[j..n];
                    let acol = &mut z.col_mut(j)[j..n];
                    for ((ai, &vi), &wi) in acol.iter_mut().zip(vcol).zip(wcol) {
                        *ai -= wj * vi + vj * wi;
                    }
                }
            }
            d[j] = z[(j, j)];

            // (2) Householder reflector annihilating A[j+2.., j]
            //     (dlarfg): beta becomes the new sub-diagonal, the
            //     vector v (unit first element) overwrites A[j+1.., j].
            let (beta, tau) = {
                let x = &z.col(j)[t..n];
                let alpha = x[0];
                let xnorm = x[1..].iter().map(|&v| v * v).sum::<f64>().sqrt();
                if xnorm == 0.0 {
                    (alpha, 0.0)
                } else {
                    let norm = alpha.hypot(xnorm);
                    let beta = if alpha >= 0.0 { -norm } else { norm };
                    (beta, (beta - alpha) / beta)
                }
            };
            e[t] = beta;
            taus[j] = tau;
            {
                let x = &mut z.col_mut(j)[t..n];
                if tau != 0.0 {
                    let scale = 1.0 / (x[0] - beta);
                    for xi in x[1..].iter_mut() {
                        *xi *= scale;
                    }
                } else {
                    for xi in x[1..].iter_mut() {
                        *xi = 0.0;
                    }
                }
                x[0] = 1.0;
            }
            {
                let col = v_pan.col_mut(jj);
                col[..t].fill(0.0);
                col[t..n].copy_from_slice(&z.col(j)[t..n]);
            }

            // (3) w = τ·(Â·v) − ½τ²(vᵀÂv)·v where Â is the trailing
            //     block with the panel's pending corrections applied:
            //     Â·v = A[t.., t..]·v − V(Wᵀv) − W(Vᵀv).
            if tau != 0.0 {
                let nt = n - t;
                let yv = &mut y[..nt];
                yv.fill(0.0);
                {
                    let v = &v_pan.col(jj)[t..n];
                    for (lv, &vl) in v.iter().enumerate() {
                        if vl != 0.0 {
                            let acol = &z.col(t + lv)[t..n];
                            for (yi, &ai) in yv.iter_mut().zip(acol) {
                                *yi += vl * ai;
                            }
                        }
                    }
                }
                let mut wtv = [0.0f64; NB];
                let mut vtv = [0.0f64; NB];
                for p in 0..jj {
                    let v = &v_pan.col(jj)[t..n];
                    let wcol = &w_pan.col(p)[t..n];
                    let vcol = &v_pan.col(p)[t..n];
                    let (mut sw, mut sv) = (0.0f64, 0.0f64);
                    for ((&vi, &wi), &xi) in vcol.iter().zip(wcol).zip(v) {
                        sw += wi * xi;
                        sv += vi * xi;
                    }
                    wtv[p] = sw;
                    vtv[p] = sv;
                }
                for p in 0..jj {
                    let (sw, sv) = (wtv[p], vtv[p]);
                    if sw != 0.0 || sv != 0.0 {
                        let wcol = &w_pan.col(p)[t..n];
                        let vcol = &v_pan.col(p)[t..n];
                        for ((yi, &vi), &wi) in yv.iter_mut().zip(vcol).zip(wcol) {
                            *yi -= vi * sw + wi * sv;
                        }
                    }
                }
                for yi in yv.iter_mut() {
                    *yi *= tau;
                }
                let v = &v_pan.col(jj)[t..n];
                let wv: f64 = yv.iter().zip(v).map(|(&a, &b)| a * b).sum();
                let corr = -0.5 * tau * wv;
                let wcol = w_pan.col_mut(jj);
                wcol[..t].fill(0.0);
                for ((wi, &yi), &vi) in wcol[t..n].iter_mut().zip(yv.iter()).zip(v) {
                    *wi = yi + corr * vi;
                }
            } else {
                w_pan.col_mut(jj).fill(0.0);
            }
        }

        // Panel done: rank-2·nb trailing update via GEMM,
        // A[t0.., t0..] −= V₂·W₂ᵀ + W₂·V₂ᵀ (both triangles — keeping
        // the full matrix symmetric lets the next panel's matvec stream
        // whole contiguous columns).
        let t0 = j0 + nb;
        let nt = n - t0;
        if nt > 0 {
            let v2 = Matrix::from_fn(nt, nb, |i, p| v_pan[(t0 + i, p)]);
            let w2 = Matrix::from_fn(nt, nb, |i, p| w_pan[(t0 + i, p)]);
            let mut pm = Matrix::zeros(nt, nt);
            dgemm(Trans::No, Trans::Yes, 1.0, &v2, &w2, 0.0, &mut pm);
            dgemm(Trans::No, Trans::Yes, 1.0, &w2, &v2, 1.0, &mut pm);
            for l in 0..nt {
                let pc = &pm.col(l)[..nt];
                let ac = &mut z.col_mut(t0 + l)[t0..n];
                for (ai, &pi) in ac.iter_mut().zip(pc) {
                    *ai -= pi;
                }
            }
        }
        j0 += nb;
    }
    d[n - 1] = z[(n - 1, n - 1)];

    // ---- Accumulate Q = H₀·H₁···H_{n−3} (dorgtr shape) ----
    //
    // Panels are applied in reverse order: Q ← (I − V·T·Vᵀ)·Q with the
    // forward-columnwise compact-WY T of each panel (dlarft). Each
    // application touches only rows r0.. of Q: three GEMMs
    // X = V₂ᵀQ₂, Y = T·X, Q₂ −= V₂·Y.
    let mut q = Matrix::eye(n);
    let mut j0 = ((n - 2) / NB) * NB;
    loop {
        let nb = NB.min(n - 1 - j0);
        let r0 = j0 + 1;
        let nt = n - r0;
        // V₂ (nt×nb) from the reflectors stored in z's lower columns;
        // column jj starts at local row jj (explicit unit element).
        let v2 = Matrix::from_fn(
            nt,
            nb,
            |i, jj| {
                if i < jj {
                    0.0
                } else {
                    z[(r0 + i, j0 + jj)]
                }
            },
        );
        // Forward-columnwise T (nb×nb upper triangular):
        // T[j,j] = τ_j, T[:j, j] = −τ_j·T[:j, :j]·(V₂[:, :j]ᵀ·V₂[:, j]).
        let mut tm = Matrix::zeros(nb, nb);
        for jj in 0..nb {
            let tau = taus[j0 + jj];
            if tau == 0.0 {
                continue;
            }
            let mut tmp = [0.0f64; NB];
            let cj = &v2.col(jj)[..nt];
            for (p, slot) in tmp.iter_mut().enumerate().take(jj) {
                let cp = &v2.col(p)[..nt];
                // Both columns are zero above row jj, so the overlap
                // starts there.
                let mut s = 0.0;
                for (&x, &yv) in cp[jj..].iter().zip(&cj[jj..]) {
                    s += x * yv;
                }
                *slot = s;
            }
            for r in 0..jj {
                let mut s = 0.0;
                for p in r..jj {
                    s += tm[(r, p)] * tmp[p];
                }
                tm[(r, jj)] = -tau * s;
            }
            tm[(jj, jj)] = tau;
        }
        // Q₂ ← Q₂ − V₂·(T·(V₂ᵀ·Q₂)) on rows r0.. of Q.
        let q2src = Matrix::from_fn(nt, n, |i, jc| q[(r0 + i, jc)]);
        let mut x = Matrix::zeros(nb, n);
        dgemm(Trans::Yes, Trans::No, 1.0, &v2, &q2src, 0.0, &mut x);
        let mut yx = Matrix::zeros(nb, n);
        dgemm(Trans::No, Trans::No, 1.0, &tm, &x, 0.0, &mut yx);
        let mut q2 = q2src;
        dgemm(Trans::No, Trans::No, -1.0, &v2, &yx, 1.0, &mut q2);
        for jc in 0..n {
            let src = &q2.col(jc)[..nt];
            let dst = &mut q.col_mut(jc)[r0..n];
            dst.copy_from_slice(src);
        }
        if j0 == 0 {
            break;
        }
        j0 -= NB;
    }

    Tridiag { q, d, e }
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
        for &(n, seed) in &[(6usize, 9u64), (17, 10), (33, 11)] {
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

    /// Both reduction paths must produce a genuine factorization
    /// `A = Q·T·Qᵀ` with orthonormal Q and tridiagonal T matching (d, e).
    fn check_reduction(a: &Matrix, path: TridiagPath) {
        let n = a.nrows();
        let t = reduce_to_tridiag(path, a);
        // Q orthonormal.
        let qtq = t.q.t_matmul(&t.q);
        assert!(
            qtq.max_abs_diff(&Matrix::eye(n)) < 1e-11 * (1.0 + n as f64),
            "Q not orthonormal ({path:?}, n={n})"
        );
        // Qᵀ·A·Q equals tridiag(d, e) — including zero off-tridiagonal.
        let aq = a.matmul(&t.q);
        let qtaq = t.q.t_matmul(&aq);
        let tm = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                t.d[i]
            } else if i == j + 1 {
                t.e[i]
            } else if j == i + 1 {
                t.e[j]
            } else {
                0.0
            }
        });
        let diff = qtaq.max_abs_diff(&tm);
        assert!(
            diff < 1e-10 * (1.0 + n as f64),
            "QᵀAQ != T: diff {diff} ({path:?}, n={n})"
        );
    }

    #[test]
    fn blocked_and_scalar_reductions_factorize() {
        // Sizes straddling the panel width (NB = 32) and its edges.
        for &(n, seed) in &[
            (1usize, 21u64),
            (2, 22),
            (3, 23),
            (8, 24),
            (31, 25),
            (32, 26),
            (33, 27),
            (64, 28),
            (65, 29),
            (97, 30),
        ] {
            let a = rand_sym(n, seed);
            check_reduction(&a, TridiagPath::Scalar);
            check_reduction(&a, TridiagPath::Blocked);
        }
    }

    #[test]
    fn blocked_eigh_agrees_with_jacobi() {
        for &(n, seed) in &[(40usize, 31u64), (70, 32)] {
            let a = rand_sym(n, seed);
            let e1 = eigh_tridiag_path(TridiagPath::Blocked, &a);
            let e2 = eigh_jacobi(&a);
            for (x, y) in e1.eigenvalues.iter().zip(&e2.eigenvalues) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y} (n={n})");
            }
            // Eigenvectors solve the eigenproblem.
            let av = a.matmul(&e1.eigenvectors);
            let vl = Matrix::from_fn(n, n, |i, j| e1.eigenvectors[(i, j)] * e1.eigenvalues[j]);
            assert!(av.max_abs_diff(&vl) < 1e-9 * (1.0 + n as f64));
        }
    }

    #[test]
    fn blocked_handles_structured_matrices() {
        // Already-tridiagonal input: every reflector is trivial (τ = 0).
        let n = 50;
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                2.0
            } else if i.abs_diff(j) == 1 {
                -1.0
            } else {
                0.0
            }
        });
        check_reduction(&a, TridiagPath::Blocked);
        // Rank-deficient: outer product with repeated eigenvalue 0.
        let u = Matrix::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
        let low = u.matmul_t(&u);
        check_reduction(&low, TridiagPath::Blocked);
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
        // Degenerate-but-valid input down the blocked path.
        let a = Matrix::zeros(64, 64);
        let e = eigh_tridiag_path(TridiagPath::Blocked, &a);
        assert!(e.eigenvalues.iter().all(|&w| w == 0.0));
        let vtv = e.eigenvectors.t_matmul(&e.eigenvectors);
        assert!(vtv.max_abs_diff(&Matrix::eye(64)) < 1e-12);
    }
}
