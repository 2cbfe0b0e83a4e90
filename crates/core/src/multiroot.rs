//! Block Davidson for several lowest roots.
//!
//! The paper solves only the lowest eigenpair; excited states are the
//! natural extension (and the reason production FCI codes keep a subspace
//! method around even when a single-vector scheme handles the ground
//! state). This block Davidson expands the subspace with one
//! preconditioned residual per *unconverged* root per iteration, and
//! seeds from the lowest model-space eigenvectors, so near-degenerate
//! roots converge together instead of root-flipping.

use crate::diag::{DiagOptions, Preconditioner};
use crate::sigma::{apply_sigma_in_sector, SigmaBreakdown, SigmaCtx, SigmaMethod};
use fci_ddi::DistMatrix;
use fci_linalg::{cholesky_lower, dgemm, eigh, trsm_right_ltrans, Matrix, Trans};

/// Result of a multi-root diagonalization.
#[derive(Debug)]
pub struct MultiRootResult {
    /// Electronic energies of the computed roots, ascending.
    pub energies: Vec<f64>,
    /// CI vectors, one per root.
    pub states: Vec<DistMatrix>,
    /// σ evaluations used in total.
    pub iterations: usize,
    /// Per-root convergence flags.
    pub converged: Vec<bool>,
    /// Accumulated simulated σ cost.
    pub sigma_cost: SigmaBreakdown,
}

/// Compute the `nroots` lowest eigenpairs of `H − E_core` in the sector.
pub fn diagonalize_roots(
    ctx: &SigmaCtx,
    sigma_method: SigmaMethod,
    opts: &DiagOptions,
    nroots: usize,
) -> MultiRootResult {
    assert!(nroots >= 1);
    let space = ctx.space;
    let nproc = ctx.ddi.nproc();
    let sector = space.sector_dim();
    assert!(
        nroots <= sector,
        "asked for {nroots} roots in a {sector}-determinant sector"
    );
    let diag = space.diagonal(ctx.ham, nproc);
    // A model space at least as large as the root count keeps the seed
    // vectors linearly independent.
    let pre = Preconditioner::new(
        space,
        ctx.ham,
        &diag,
        opts.model_space.max(2 * nroots).min(sector),
    );
    let max_subspace = opts.max_subspace.max(4 * nroots);

    // Seed with the lowest model-space eigenvectors.
    let mut basis: Vec<DistMatrix> = pre.model_space_guesses(nproc, nroots).into_iter().collect();
    if basis.is_empty() {
        basis.push(space.guess(ctx.ham, nproc));
    }
    orthonormalize(&mut basis, 0);

    let mut hbasis: Vec<DistMatrix> = Vec::new();
    let mut cost = SigmaBreakdown::default();
    let mut iterations = 0;
    let mut energies = vec![0.0; nroots];
    let mut states: Vec<DistMatrix> = Vec::new();
    let mut conv = vec![false; nroots];

    while iterations < opts.max_iter * nroots {
        // σ for any basis vectors that lack one.
        while hbasis.len() < basis.len() {
            let (hb, bd) = apply_sigma_in_sector(ctx, &basis[hbasis.len()], sigma_method);
            space.project_sector(&hb);
            cost.merge(&bd);
            hbasis.push(hb);
            iterations += 1;
        }
        let m = basis.len();
        let hsub = subspace_gram(&basis, &hbasis);
        let hsub = Matrix::from_fn(m, m, |i, j| 0.5 * (hsub[(i, j)] + hsub[(j, i)]));
        let es = eigh(&hsub);

        states.clear();
        let mut residuals = Vec::new();
        for k in 0..nroots.min(m) {
            let theta = es.eigenvalues[k];
            energies[k] = theta;
            let c = space.zeros_ci(nproc);
            let r = space.zeros_ci(nproc);
            for i in 0..m {
                let y = es.eigenvectors[(i, k)];
                c.axpy(y, &basis[i]);
                r.axpy(y, &hbasis[i]);
            }
            r.axpy(-theta, &c);
            let res = r.norm();
            conv[k] = res < opts.tol;
            states.push(c);
            residuals.push((theta, r, res));
        }
        if conv.iter().all(|&b| b) {
            break;
        }
        if iterations >= opts.max_iter * nroots {
            break;
        }

        // Collapse if the subspace is full.
        if m + nroots > max_subspace {
            basis = states.iter().map(DistMatrix::duplicate).collect();
            orthonormalize(&mut basis, 0);
            hbasis.clear();
            continue;
        }
        // Expand with preconditioned residuals of unconverged roots.
        let start = basis.len();
        for (theta, r, res) in residuals {
            if res < opts.tol {
                continue;
            }
            let t = pre.apply(&r, theta);
            basis.push(t);
        }
        let kept = orthonormalize(&mut basis, start);
        if kept == 0 {
            break; // no new directions — as converged as we can get
        }
    }

    MultiRootResult {
        energies,
        states,
        iterations,
        converged: conv,
        sigma_cost: cost,
    }
}

/// Dense copy of rank `p`'s local slab of each vector in `v`, one vector
/// per column.
fn local_block(v: &[DistMatrix], p: usize) -> Matrix {
    let m = v.len();
    let len = v[0].with_local(p, |s| s.len());
    let mut out = Matrix::zeros(len, m);
    for (i, vi) in v.iter().enumerate() {
        vi.with_local(p, |s| out.col_mut(i).copy_from_slice(s));
    }
    out
}

/// Gram matrix `XᵀY` of two lists of equal-shaped distributed vectors,
/// accumulated rank by rank with DGEMM instead of `x.len()·y.len()`
/// pairwise dot products. When `x` and `y` are the same slice, each
/// rank's block is copied once and passed to DGEMM as both operands.
pub(crate) fn subspace_gram(x: &[DistMatrix], y: &[DistMatrix]) -> Matrix {
    let mut g = Matrix::zeros(x.len(), y.len());
    if x.is_empty() || y.is_empty() {
        return g;
    }
    let same = std::ptr::eq(x.as_ptr(), y.as_ptr()) && x.len() == y.len();
    for p in 0..x[0].nproc() {
        let xp = local_block(x, p);
        if same {
            dgemm(Trans::Yes, Trans::No, 1.0, &xp, &xp, 1.0, &mut g);
        } else {
            let yp = local_block(y, p);
            dgemm(Trans::Yes, Trans::No, 1.0, &xp, &yp, 1.0, &mut g);
        }
    }
    g
}

/// One classical Gram–Schmidt projection of `t` against `basis` (assumed
/// orthonormal): `t ← t − B(Bᵀt)`, with both products done per rank by
/// DGEMM so the coefficient vector is formed once for the whole basis.
pub(crate) fn project_against(basis: &[DistMatrix], t: &DistMatrix) {
    if basis.is_empty() {
        return;
    }
    let m = basis.len();
    let nproc = t.nproc();
    let mut coeff = Matrix::zeros(m, 1);
    for p in 0..nproc {
        let bp = local_block(basis, p);
        let tp = t.with_local(p, |s| Matrix::from_fn(s.len(), 1, |i, _| s[i]));
        dgemm(Trans::Yes, Trans::No, 1.0, &bp, &tp, 1.0, &mut coeff);
    }
    for p in 0..nproc {
        let bp = local_block(basis, p);
        let mut corr = Matrix::zeros(bp.nrows(), 1);
        dgemm(Trans::No, Trans::No, 1.0, &bp, &coeff, 0.0, &mut corr);
        t.with_local(p, |s| {
            for (si, ci) in s.iter_mut().zip(corr.as_slice()) {
                *si -= ci;
            }
        });
    }
}

/// Orthonormalize `v[start..]` against the (already orthonormal) prefix
/// `v[..start]` and among themselves; drops vectors that lose their norm.
/// Returns how many new vectors survive.
///
/// Two passes of block classical Gram–Schmidt with Cholesky-QR: project
/// the block against the prefix (DGEMM), drop near-null columns, then
/// orthonormalize the block by factoring its Gram matrix and applying
/// `L⁻ᵀ` to the local slabs. A numerically singular Gram matrix (e.g.
/// duplicated expansion vectors) fails the Cholesky pivot check, and we
/// fall back to modified Gram–Schmidt, which sheds dependent vectors one
/// at a time.
fn orthonormalize(v: &mut Vec<DistMatrix>, start: usize) -> usize {
    for _pass in 0..2 {
        let mut k = start;
        while k < v.len() {
            project_against(&v[..start], &v[k]);
            if v[k].norm() < 1e-10 {
                v.remove(k);
            } else {
                k += 1;
            }
        }
        if v.len() == start {
            return 0;
        }
        let mut g = subspace_gram(&v[start..], &v[start..]);
        if cholesky_lower(&mut g).is_err() {
            return orthonormalize_mgs(v, start);
        }
        for p in 0..v[start].nproc() {
            let mut xp = local_block(&v[start..], p);
            trsm_right_ltrans(&g, &mut xp);
            for (i, vi) in v[start..].iter().enumerate() {
                vi.with_local(p, |s| s.copy_from_slice(xp.col(i)));
            }
        }
    }
    v.len() - start
}

/// Modified Gram–Schmidt fallback for rank-deficient blocks: orthogonalize
/// `v[start..]` one vector at a time against everything before it, dropping
/// vectors that lose their norm. Returns how many new vectors survive.
fn orthonormalize_mgs(v: &mut Vec<DistMatrix>, start: usize) -> usize {
    let mut k = start;
    while k < v.len() {
        for _pass in 0..2 {
            for j in 0..k {
                let (head, tail) = v.split_at_mut(k);
                let ov = head[j].dot(&tail[0]);
                tail[0].axpy(-ov, &head[j]);
            }
        }
        let n = v[k].norm();
        if n < 1e-10 {
            v.remove(k);
        } else {
            v[k].scale(1.0 / n);
            k += 1;
        }
    }
    v.len() - start
}

impl Preconditioner {
    /// The `k` lowest model-space eigenvectors embedded in the CI space.
    pub fn model_space_guesses(&self, nproc: usize, k: usize) -> Vec<DistMatrix> {
        let dets = self.model_dets();
        if dets.is_empty() {
            return Vec::new();
        }
        let es = eigh(self.model_block());
        let (nrows, ncols) = self.ci_shape();
        (0..k.min(dets.len()))
            .map(|r| {
                let c = DistMatrix::zeros(nrows, ncols, nproc);
                for (i, &(ib, ia)) in dets.iter().enumerate() {
                    c.set(ib, ia, es.eigenvectors[(i, r)]);
                }
                c
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detspace::DetSpace;
    use crate::hamiltonian::random_hamiltonian;
    use crate::slater;
    use crate::taskpool::PoolParams;
    use fci_ddi::{Backend, Ddi};
    use fci_xsim::MachineModel;

    fn setup(
        n: usize,
        na: usize,
        nb: usize,
        seed: u64,
    ) -> (DetSpace, crate::hamiltonian::Hamiltonian) {
        (DetSpace::c1(n, na, nb), random_hamiltonian(n, seed))
    }

    #[test]
    fn three_lowest_roots_match_dense() {
        let (space, ham) = setup(5, 2, 2, 17);
        let ddi = Ddi::new(2, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let r = diagonalize_roots(
            &ctx,
            SigmaMethod::Dgemm,
            &DiagOptions {
                max_iter: 80,
                ..Default::default()
            },
            3,
        );
        assert!(
            r.converged.iter().all(|&b| b),
            "roots not converged: {:?}",
            r.converged
        );
        let h = slater::dense_h(&space, &ham);
        let exact = fci_linalg::eigh(&h).eigenvalues;
        for (k, ex) in exact.iter().take(3).enumerate() {
            assert!(
                (r.energies[k] - ex).abs() < 1e-7,
                "root {k}: {} vs {}",
                r.energies[k],
                ex
            );
        }
        // Roots ascend and states are orthonormal.
        assert!(r.energies[0] <= r.energies[1] && r.energies[1] <= r.energies[2]);
        for i in 0..3 {
            for j in 0..3 {
                let ov = r.states[i].dot(&r.states[j]);
                let expect = if i == j { 1.0 } else { 0.0 };
                assert!((ov - expect).abs() < 1e-6, "⟨{i}|{j}⟩ = {ov}");
            }
        }
    }

    #[test]
    fn single_root_agrees_with_ground_solver() {
        let (space, ham) = setup(5, 3, 2, 23);
        let ddi = Ddi::new(1, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let multi = diagonalize_roots(&ctx, SigmaMethod::Dgemm, &DiagOptions::default(), 1);
        let single = crate::diag::diagonalize(
            &ctx,
            SigmaMethod::Dgemm,
            crate::diag::DiagMethod::Davidson,
            &DiagOptions::default(),
        );
        assert!(multi.converged[0] && single.converged);
        assert!((multi.energies[0] - single.e_elec).abs() < 1e-8);
    }

    /// 12-component test vector distributed as a 4×3 CI-shaped matrix.
    fn dv(data: &[f64], nproc: usize) -> DistMatrix {
        DistMatrix::from_dense(4, 3, nproc, data)
    }

    fn rand_data(seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..12)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn orthonormalize_drops_prefix_duplicates_mid_basis() {
        let nproc = 2;
        let mut v = vec![dv(&rand_data(1), nproc), dv(&rand_data(2), nproc)];
        assert_eq!(orthonormalize(&mut v, 0), 2);
        // Append an exact duplicate of a prefix vector plus one genuinely
        // new direction, then orthonormalize from mid-basis.
        let dup = v[0].duplicate();
        v.push(dup);
        v.push(dv(&rand_data(3), nproc));
        let kept = orthonormalize(&mut v, 2);
        assert_eq!(kept, 1, "prefix duplicate must be dropped");
        assert_eq!(v.len(), 3);
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 1.0 } else { 0.0 };
                let ov = v[i].dot(&v[j]);
                assert!((ov - want).abs() < 1e-10, "⟨{i}|{j}⟩ = {ov}");
            }
        }
    }

    #[test]
    fn orthonormalize_rank_deficient_block_falls_back() {
        // Two identical vectors inside one block make the Gram matrix
        // singular: Cholesky must fail and the MGS fallback shed one.
        let nproc = 3;
        let a = rand_data(7);
        let mut v = vec![dv(&a, nproc), dv(&a, nproc), dv(&rand_data(8), nproc)];
        let kept = orthonormalize(&mut v, 0);
        assert_eq!(kept, 2, "in-block duplicate must be shed");
        for i in 0..2 {
            for j in 0..2 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((v[i].dot(&v[j]) - want).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn cholqr_and_mgs_agree_on_span() {
        let nproc = 2;
        let data: Vec<Vec<f64>> = (0..4).map(|s| rand_data(100 + s)).collect();
        let mut qr: Vec<DistMatrix> = data.iter().map(|d| dv(d, nproc)).collect();
        let mut gs: Vec<DistMatrix> = data.iter().map(|d| dv(d, nproc)).collect();
        assert_eq!(orthonormalize(&mut qr, 0), 4);
        assert_eq!(orthonormalize_mgs(&mut gs, 0), 4);
        // Both bases are orthonormal and span the same subspace: every
        // CholQR vector projects to nothing outside the MGS basis.
        for i in 0..4 {
            for j in 0..4 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((qr[i].dot(&qr[j]) - want).abs() < 1e-10);
            }
            let t = qr[i].duplicate();
            project_against(&gs, &t);
            assert!(t.norm() < 1e-10, "vector {i} leaves the MGS span");
        }
    }

    #[test]
    fn near_degenerate_roots_resolve() {
        // Two α electrons in a symmetric double-well-like ladder: force
        // close-lying roots and check the block method separates them.
        let (space, ham) = setup(6, 2, 1, 5);
        let ddi = Ddi::new(3, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let r = diagonalize_roots(
            &ctx,
            SigmaMethod::Dgemm,
            &DiagOptions {
                max_iter: 100,
                ..Default::default()
            },
            4,
        );
        let h = slater::dense_h(&space, &ham);
        let exact = fci_linalg::eigh(&h).eigenvalues;
        for (k, ex) in exact.iter().take(4).enumerate() {
            assert!(r.converged[k], "root {k} NC");
            assert!((r.energies[k] - ex).abs() < 1e-7);
        }
    }
}
