//! Block Davidson: the one subspace eigensolver.
//!
//! The paper needs a subspace method only as the yardstick its
//! single-vector scheme is measured against (Table 2); excited states are
//! the natural extension (and the reason production FCI codes keep a
//! subspace method around even when a single-vector scheme handles the
//! ground state). [`block_davidson`] is the one subspace loop: it expands
//! the subspace with one correction vector per *unconverged* root per
//! step, so near-degenerate roots converge together instead of
//! root-flipping, and past its collapse size it restarts from the Ritz
//! vectors and the H images it already holds. What H is, how a correction
//! is formed and where the loop collapses belong to its callers:
//!
//! * [`DiagMethod::Davidson`](crate::diag::DiagMethod::Davidson) — one
//!   root from the model-space guess, the Olsen correction;
//! * [`DiagMethod::TwoVector`](crate::diag::DiagMethod::TwoVector) — the
//!   same, collapsed at two vectors: {C, t} with the exact 2×2 mixing,
//!   one σ per step (Cotton's truncated Davidson at its smallest);
//! * `diagonalize_roots`, behind
//!   [`solve_roots_prepared`](crate::solver::solve_roots_prepared) — the
//!   lowest model-space eigenvectors as seeds,
//!   [`Preconditioner::apply`](crate::diag::Preconditioner::apply);
//! * `fci-sparse`'s selected CI — a CSR mat-vec over the selected space,
//!   the diagonal correction.

use crate::diag::{preconditioner, projected_sigma, DiagOptions, IterTrace};
use crate::sigma::{SigmaBreakdown, SigmaCtx, SigmaMethod};
use fci_ddi::DistMatrix;
use fci_linalg::{cholesky_lower, eigh_ql, Eigh, Matrix};
use fci_obs::Tracer;

/// Compute the `nroots` lowest eigenpairs of `H − E_core` in the sector,
/// with the simulated cost of the σ evaluations that found them.
pub(crate) fn diagonalize_roots(
    ctx: &SigmaCtx,
    sigma_method: SigmaMethod,
    opts: &DiagOptions,
    nroots: usize,
) -> (RitzPairs, SigmaBreakdown) {
    assert!(nroots >= 1);
    let sector = ctx.space.sector_dim();
    assert!(
        nroots <= sector,
        "asked for {nroots} roots in a {sector}-determinant sector"
    );
    // A model space at least as large as the root count keeps the seed
    // vectors linearly independent.
    let pre = preconditioner(ctx, opts.model_space.max(2 * nroots).min(sector));
    let mut cost = SigmaBreakdown::default();
    let run = block_davidson(
        // Seed with the lowest model-space eigenvectors.
        pre.model_space_guesses(nroots),
        nroots,
        opts.max_subspace.max(4 * nroots),
        opts.max_iter * nroots,
        opts.tol,
        |b| projected_sigma(ctx, sigma_method, b, &mut cost),
        |theta, _, r| pre.apply(r, theta),
        &ctx.ddi.tracer(),
    );
    (run, cost)
}

/// What [`block_davidson`] found: the Ritz pairs of its last step, and how
/// it got there.
#[derive(Debug)]
pub struct RitzPairs {
    /// The `nroots` lowest Ritz values, ascending (0 for a root the
    /// subspace never held a vector for).
    pub energies: Vec<f64>,
    /// Their Ritz vectors.
    pub states: Vec<DistMatrix>,
    /// Per root: whether its residual norm is below `tol`.
    pub converged: Vec<bool>,
    /// H applications made.
    pub sigmas: usize,
    /// The lowest Ritz value after each step.
    pub energy_history: Vec<f64>,
    /// The largest residual norm among the roots after each step.
    pub residual_history: Vec<f64>,
}

/// The subspace driver: the `nroots` lowest eigenpairs of the symmetric
/// operator `apply_h`, from the span of `seeds`.
///
/// A step applies H to every basis vector that lacks it, takes the Ritz
/// pairs of the projected matrix, and ends the run when every root's
/// residual norm is below `tol` or `budget` H applications have been made
/// (the seeds' are made whatever the budget). Otherwise, when adding
/// `nroots` more would pass `max_subspace`, it collapses the subspace onto
/// the Ritz vectors, each with its H image `r + θc`, so a collapse applies
/// H to nothing; then it expands the subspace by `correction(θ, c, r)` of
/// each unconverged root (Ritz value, vector, residual). A step in which no
/// correction survives orthonormalization has stagnated and ends the run
/// unconverged. Every step is a telemetry point through `tracer`: a
/// `diag_iter` instant with the lowest Ritz value and the largest
/// residual, and the `davidson.*` metrics.
#[allow(clippy::too_many_arguments)]
pub fn block_davidson(
    seeds: Vec<DistMatrix>,
    nroots: usize,
    max_subspace: usize,
    budget: usize,
    tol: f64,
    mut apply_h: impl FnMut(&DistMatrix) -> DistMatrix,
    mut correction: impl FnMut(f64, &DistMatrix, &DistMatrix) -> DistMatrix,
    tracer: &Tracer,
) -> RitzPairs {
    // Every CI-sized buffer the run drops — σ and its transposes, the
    // basis, Ritz vectors, residuals, corrections — is handed out again
    // here, and all of them are freed on return.
    let _storage = fci_ddi::reuse::scope();
    let mut sub = Subspace::new(seeds);
    let mut trace = IterTrace::new(tracer.clone());
    let mut out = RitzPairs {
        energies: vec![0.0; nroots],
        states: Vec::new(),
        converged: vec![false; nroots],
        sigmas: 0,
        energy_history: Vec::new(),
        residual_history: Vec::new(),
    };
    loop {
        let before = out.sigmas;
        while let Some(b) = sub.pending() {
            let hb = apply_h(b);
            sub.push_sigma(hb);
            out.sigmas += 1;
        }
        let es = sub.ritz();
        out.states.clear();
        let (states, residuals) = sub.ritz_pairs(&es, nroots);
        for (k, (theta, _, res)) in residuals.iter().enumerate() {
            out.energies[k] = *theta;
            out.converged[k] = *res < tol;
        }
        out.states = states;
        let worst = residuals
            .iter()
            .map(|(_, _, res)| *res)
            .reduce(f64::max)
            .unwrap_or(0.0);
        out.energy_history.push(out.energies[0]);
        out.residual_history.push(worst);
        trace.point(out.sigmas, out.sigmas - before, out.energies[0], worst);
        if out.converged.iter().all(|&c| c) || out.sigmas >= budget {
            break;
        }
        if sub.len() + nroots > max_subspace {
            // The full subspace goes before the collapsed one is built:
            // the two never coexist.
            drop(sub);
            sub = Subspace::restart(&out.states, &residuals);
        }
        let new = residuals
            .iter()
            .zip(&out.states)
            .filter(|((_, _, res), _)| *res >= tol)
            .map(|((theta, r, _), c)| correction(*theta, c, r))
            .collect();
        if sub.expand(new) == 0 {
            break;
        }
    }
    out
}

/// The subspace [`block_davidson`] grows: an orthonormal basis, H
/// applied to each vector of it, and the projected matrix `BᵀHB`. The
/// projection is **kept** across iterations: a new vector adds one row
/// and column (one dot per basis vector) and nothing already there is
/// recomputed; a collapse starts a new `Subspace` from the Ritz pairs.
/// All vector work runs on the segments where the vectors live, through
/// [`DistMatrix`]'s block kernels: each step reads every vector it needs
/// once however many products it forms from it, and no copy of the basis
/// is ever made.
struct Subspace {
    basis: Vec<DistMatrix>,
    hbasis: Vec<DistMatrix>,
    /// `proj[j][i] = ⟨bᵢ|H bⱼ⟩` for `i ≤ j` (H is symmetric: the other
    /// triangle is its mirror).
    proj: Vec<Vec<f64>>,
}

impl Subspace {
    /// The span of `seed`, orthonormalized; dependent vectors are dropped.
    fn new(mut seed: Vec<DistMatrix>) -> Subspace {
        orthonormalize(&mut seed, 0);
        Subspace {
            basis: seed,
            hbasis: Vec::new(),
            proj: Vec::new(),
        }
    }

    /// The collapsed subspace: the Ritz vectors `states` (orthonormal
    /// already, as `B·Y` with both factors orthonormal) and their H images
    /// `r + θc`, rebuilt from the `(θ, r, ‖r‖)` of `residuals`.
    fn restart(states: &[DistMatrix], residuals: &[(f64, DistMatrix, f64)]) -> Subspace {
        let mut sub = Subspace {
            basis: states.iter().map(DistMatrix::duplicate).collect(),
            hbasis: Vec::new(),
            proj: Vec::new(),
        };
        for (c, (theta, r, _)) in states.iter().zip(residuals) {
            let hc = r.duplicate();
            hc.axpy(*theta, c);
            sub.push_sigma(hc);
        }
        sub
    }

    /// Basis vectors held.
    fn len(&self) -> usize {
        self.basis.len()
    }

    /// The first basis vector H has not been applied to yet.
    fn pending(&self) -> Option<&DistMatrix> {
        self.basis.get(self.hbasis.len())
    }

    /// Record `hb = H·pending()`: its column of the projected matrix,
    /// in one multi-dot.
    fn push_sigma(&mut self, hb: DistMatrix) {
        let j = self.hbasis.len();
        let mut mats = Vec::with_capacity(j + 2);
        mats.extend(&self.basis[..=j]);
        mats.push(&hb);
        let pairs: Vec<_> = (0..=j).map(|i| (i, j + 1)).collect();
        self.proj.push(DistMatrix::dots(&mats, &pairs));
        self.hbasis.push(hb);
    }

    /// Eigenpairs of the projected matrix (no vector may be pending), by
    /// `tred2` + QL: a degenerate level's Ritz vectors may be any basis of
    /// its span.
    fn ritz(&self) -> Eigh {
        let m = self.basis.len();
        assert_eq!(self.proj.len(), m, "a basis vector still lacks its σ");
        eigh_ql(&Matrix::from_fn(m, m, |i, j| self.proj[i.max(j)][i.min(j)]))
    }

    /// The lowest `n` Ritz pairs of `es` (all of them if the basis is
    /// smaller): the vectors `c = B·y`, and per root the value θ, the
    /// residual `r = (HB)·y − θc` and its norm — one pass over B for
    /// every c, one over HB (and the c) for every r.
    fn ritz_pairs(&self, es: &Eigh, n: usize) -> (Vec<DistMatrix>, Vec<(f64, DistMatrix, f64)>) {
        let m = self.basis.len();
        let n = n.min(m);
        let y = |k: usize| (0..m).map(move |j| (k, j, es.eigenvectors[(j, k)]));
        let mut terms = Vec::with_capacity(n * (m + 1));
        terms.extend((0..n).flat_map(y));
        let basis: Vec<&DistMatrix> = self.basis.iter().collect();
        let c = DistMatrix::combine(&basis, &terms);
        // Input m + k is c of root k.
        terms.clear();
        terms.extend((0..n).flat_map(|k| y(k).chain([(k, m + k, -es.eigenvalues[k])])));
        let ins: Vec<&DistMatrix> = self.hbasis.iter().chain(&c).collect();
        let r = DistMatrix::combine(&ins, &terms);
        let rs: Vec<&DistMatrix> = r.iter().collect();
        let squares = DistMatrix::dots(&rs, &(0..n).map(|k| (k, k)).collect::<Vec<_>>());
        let residuals = r
            .into_iter()
            .zip(squares)
            .enumerate()
            .map(|(k, (r, rr))| (es.eigenvalues[k], r, rr.sqrt()))
            .collect();
        (c, residuals)
    }

    /// Orthonormalize `new` against the basis and among themselves and
    /// append what survives; returns how many did.
    fn expand(&mut self, new: Vec<DistMatrix>) -> usize {
        let start = self.basis.len();
        self.basis.extend(new);
        orthonormalize(&mut self.basis, start)
    }
}

/// One classical Gram–Schmidt projection of the block `v[start..]`
/// against the (assumed orthonormal) prefix `v[..start]`: `T ← T −
/// B(BᵀT)`, every coefficient formed before the first update — one
/// multi-dot and one combination.
fn project(v: &[DistMatrix], start: usize) {
    if start == 0 {
        return;
    }
    let mats: Vec<&DistMatrix> = v.iter().collect();
    let (basis, block) = mats.split_at(start);
    let mut pairs = Vec::with_capacity(block.len() * start);
    pairs.extend((0..block.len()).flat_map(|k| (0..start).map(move |j| (j, start + k))));
    let coef = DistMatrix::dots(&mats, &pairs);
    let terms: Vec<_> = pairs
        .iter()
        .zip(coef)
        .map(|(&(j, t), c)| (t - start, j, -c))
        .collect();
    DistMatrix::add_combination(block, basis, &terms);
}

/// Orthonormalize `v[start..]` against the (already orthonormal) prefix
/// `v[..start]` and among themselves; drops vectors that lose their norm.
/// Returns how many new vectors survive.
///
/// Two passes of block classical Gram–Schmidt with Cholesky-QR: project
/// the block against the prefix, drop near-null vectors, then
/// orthonormalize the block by factoring its Gram matrix and applying
/// `L⁻ᵀ` by forward substitution over the vectors. A numerically
/// singular Gram matrix (e.g. duplicated expansion vectors) fails the
/// Cholesky pivot check, and we fall back to modified Gram–Schmidt, which
/// sheds dependent vectors one at a time.
fn orthonormalize(v: &mut Vec<DistMatrix>, start: usize) -> usize {
    for _pass in 0..2 {
        project(v, start);
        // The projected block's Gram matrix in one multi-dot: its lower
        // triangle, column by column — all `cholesky_lower` reads — whose
        // diagonal holds the squared norms.
        let nb = v.len() - start;
        let at = |i: usize, j: usize| j * (2 * nb - j + 1) / 2 + i - j;
        let mut lower = Vec::with_capacity(nb * (nb + 1) / 2);
        lower.extend((0..nb).flat_map(|j| (j..nb).map(move |i| (i, j))));
        let gram = DistMatrix::dots(&v[start..].iter().collect::<Vec<_>>(), &lower);
        let lost: Vec<bool> = (0..nb).map(|i| gram[at(i, i)].sqrt() < 1e-10).collect();
        let mut i = 0;
        v.retain(|_| {
            i += 1;
            i <= start || !lost[i - start - 1]
        });
        let keep: Vec<usize> = (0..nb).filter(|&i| !lost[i]).collect();
        let block = &v[start..];
        if block.is_empty() {
            return 0;
        }
        let mut g = Matrix::zeros(block.len(), block.len());
        for (b, &j) in keep.iter().enumerate() {
            for (a, &i) in keep.iter().enumerate().skip(b) {
                g[(a, b)] = gram[at(i, j)];
            }
        }
        if cholesky_lower(&mut g).is_err() {
            return orthonormalize_mgs(v, start);
        }
        // X ← X·L⁻ᵀ: column j is (xⱼ − Σ_{i<j} L[j,i]·xᵢ) / L[j,j].
        for (j, bj) in block.iter().enumerate() {
            for (i, bi) in block.iter().enumerate().take(j) {
                bj.axpy(-g[(j, i)], bi);
            }
            bj.scale(1.0 / g[(j, j)]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detspace::DetSpace;
    use crate::hamiltonian::random_hamiltonian;
    use crate::sigma::test_ctx;
    use crate::slater;
    use fci_ddi::{Backend, Ddi};

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
        let ctx = test_ctx(&space, &ham, &ddi);
        let (r, _) = diagonalize_roots(
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
        let ctx = test_ctx(&space, &ham, &ddi);
        let (multi, _) = diagonalize_roots(&ctx, SigmaMethod::Dgemm, &DiagOptions::default(), 1);
        let single = crate::diag::diagonalize(
            &ctx,
            SigmaMethod::Dgemm,
            crate::diag::DiagMethod::Davidson,
            &DiagOptions::default(),
        );
        assert!(multi.converged[0] && single.converged);
        assert!((multi.energies[0] - single.e_elec).abs() < 1e-8);
    }

    /// A collapse applies H to nothing: one root capped at three vectors
    /// collapses each time it holds three, yet makes exactly one σ per
    /// seed and one per correction it expands by.
    #[test]
    fn collapse_applies_h_to_nothing() {
        let (space, ham) = setup(5, 2, 2, 3);
        let ddi = Ddi::new(2, Backend::Serial);
        let ctx = test_ctx(&space, &ham, &ddi);
        let pre = preconditioner(&ctx, 20);
        let (mut sigmas, mut corrections) = (0, 0);
        let mut cost = SigmaBreakdown::default();
        let run = block_davidson(
            pre.model_space_guesses(1),
            1,
            3,
            200,
            1e-9,
            |b| {
                sigmas += 1;
                projected_sigma(&ctx, SigmaMethod::Dgemm, b, &mut cost)
            },
            |theta, _, r| {
                corrections += 1;
                pre.apply(r, theta)
            },
            &ddi.tracer(),
        );
        let exact = fci_linalg::eigh(&slater::dense_h(&space, &ham)).eigenvalues[0];
        assert!(run.converged[0] && (run.energies[0] - exact).abs() < 1e-8);
        assert!(sigmas > 3, "{sigmas} σ never filled the cap");
        assert_eq!(run.sigmas, sigmas);
        assert_eq!(sigmas, 1 + corrections, "a collapse applied H");
        assert_eq!(run.energy_history.len(), 1 + corrections);
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
            let mut t: Vec<DistMatrix> = gs.iter().map(DistMatrix::duplicate).collect();
            t.push(qr[i].duplicate());
            project(&t, 4);
            assert!(t[4].norm() < 1e-10, "vector {i} leaves the MGS span");
        }
    }

    #[test]
    fn near_degenerate_roots_resolve() {
        // Two α electrons in a symmetric double-well-like ladder: force
        // close-lying roots and check the block method separates them.
        let (space, ham) = setup(6, 2, 1, 5);
        let ddi = Ddi::new(3, Backend::Serial);
        let ctx = test_ctx(&space, &ham, &ddi);
        let (r, _) = diagonalize_roots(
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
