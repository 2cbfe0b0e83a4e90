//! Iterative eigensolvers for the lowest FCI eigenpair.
//!
//! Five methods, matching Table 2 of the paper:
//!
//! * [`DiagMethod::Davidson`] — the subspace method: Olsen correction
//!   vectors accumulate as basis vectors; the optimal mixing comes from
//!   the subspace eigenproblem each iteration. Memory grows with the
//!   subspace — the limitation the paper's single-vector method removes.
//!   It is the one-root case of [`crate::multiroot::block_davidson`].
//! * [`DiagMethod::TwoVector`] — the paper's subspace comparator: the
//!   same loop collapsed at two vectors, {C, t} with the exact 2×2 mixing
//!   and one σ per iteration.
//! * [`DiagMethod::Olsen`] — Olsen's original single-vector scheme:
//!   `C ← normalize(C + t)`. No minimization, so convergence is not
//!   guaranteed (the paper shows it failing to converge tightly).
//! * [`DiagMethod::OlsenDamped`] — the modified scheme with a fixed step
//!   length λ (the paper uses λ = 0.7).
//! * [`DiagMethod::AutoAdjust`] — the paper's contribution (eqs. 11–15):
//!   single-vector updates `C ← S (C + λ t)` where λ is the *optimal* 2×2
//!   mixing of the **previous** iteration, reconstructed without storing
//!   `H·t` by eq. 14. One σ evaluation per iteration, and a fixed set of
//!   CI-sized vectors — C, σ, r, t and x₂ beside the preconditioner's
//!   diagonal and σ's workspace — reused from a [`fci_ddi::reuse`] scope.
//!
//! All methods share the Olsen correction vector built on an `H₀` that is
//! exact inside a small **model space** (lowest-diagonal determinants) and
//! diagonal outside — the paper's convergence aid.

use crate::detspace::DetSpace;
use crate::hamiltonian::Hamiltonian;
use crate::multiroot::block_davidson;
use crate::sigma::{apply_sigma, SigmaBreakdown, SigmaCtx, SigmaMethod};
use crate::slater;
use fci_ddi::DistMatrix;
use fci_linalg::{daxpy, ddot, eigh_2x2, eigh_ql, Eigh, Matrix};
use fci_obs::{Category, Tracer};
use std::sync::Arc;

/// Which update scheme drives the iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DiagMethod {
    /// Full Davidson: the subspace grows by one preconditioned residual
    /// per iteration (collapsed at `max_subspace`).
    Davidson,
    /// The paper's Table 2 "subspace" comparator: a two-vector subspace
    /// {C, t} with the *exact* optimal mixing from the 2×2 eigenproblem
    /// each iteration — Davidson collapsed at two vectors. Stores t and
    /// H·t — the memory doubling the auto-adjusted method exists to avoid.
    TwoVector,
    /// Olsen's original single-vector scheme (λ = 1).
    Olsen,
    /// Fixed-λ damped Olsen scheme.
    OlsenDamped,
    /// The paper's automatically adjusted single-vector method.
    AutoAdjust,
}

impl DiagMethod {
    /// Stable lowercase name (used in job specs and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            DiagMethod::Davidson => "davidson",
            DiagMethod::TwoVector => "two_vector",
            DiagMethod::Olsen => "olsen",
            DiagMethod::OlsenDamped => "olsen_damped",
            DiagMethod::AutoAdjust => "auto",
        }
    }

    /// Parse a name back ([`DiagMethod::name`]); `auto_adjust` and
    /// `olsen-damped` are accepted too.
    pub fn from_name(s: &str) -> Option<DiagMethod> {
        match s {
            "davidson" => Some(DiagMethod::Davidson),
            "two_vector" => Some(DiagMethod::TwoVector),
            "olsen" => Some(DiagMethod::Olsen),
            "olsen_damped" | "olsen-damped" => Some(DiagMethod::OlsenDamped),
            "auto" | "auto_adjust" => Some(DiagMethod::AutoAdjust),
            _ => None,
        }
    }
}

/// Iteration controls.
#[derive(Clone, Copy, Debug)]
pub struct DiagOptions {
    /// Maximum σ evaluations.
    pub max_iter: usize,
    /// Convergence threshold on the residual 2-norm.
    pub tol: f64,
    /// Basis vectors [`DiagMethod::Davidson`] may hold before the
    /// subspace collapses onto its Ritz vectors (a multi-root solve holds
    /// at least 4 per root); [`DiagMethod::TwoVector`] collapses at 2
    /// whatever this says.
    pub max_subspace: usize,
    /// Model-space size for the preconditioner (0 = pure diagonal).
    pub model_space: usize,
    /// Fixed λ for [`DiagMethod::OlsenDamped`].
    pub fixed_lambda: f64,
}

impl Default for DiagOptions {
    fn default() -> Self {
        DiagOptions {
            max_iter: 60,
            tol: 1e-9,
            max_subspace: 12,
            model_space: 20,
            fixed_lambda: 0.7,
        }
    }
}

/// Outcome of a diagonalization.
#[derive(Debug)]
pub struct DiagResult {
    /// Electronic energy (no `E_core`).
    pub e_elec: f64,
    /// σ evaluations used.
    pub iterations: usize,
    /// Whether the residual threshold was met.
    pub converged: bool,
    /// Rayleigh quotient after each σ evaluation.
    pub energy_history: Vec<f64>,
    /// Residual norm after each σ evaluation.
    pub residual_history: Vec<f64>,
    /// Converged (or last) CI vector.
    pub c: DistMatrix,
    /// Accumulated simulated cost of all σ evaluations.
    pub sigma_cost: SigmaBreakdown,
}

/// Preconditioner `(H₀ − E)⁻¹` with an exact model-space block.
pub struct Preconditioner {
    /// The Hamiltonian diagonal, in the CI vectors' layout.
    diag: DistMatrix,
    /// Where the model determinants sit in a vector of that layout, as
    /// (owner rank, index into its segment), sorted so that each segment
    /// is visited once.
    slots: Vec<(usize, usize)>,
    /// `model_index[i]`: the model-space index of `slots[i]`.
    model_index: Vec<usize>,
    /// Eigenpairs of the model-space block `H_MM`, factored once: every
    /// correction and the model-space guesses read them.
    model: Eigh,
}

/// The regularization δ of the model-space solve `(H_MM − E + δ)⁻¹`.
/// Near convergence E approaches the lowest eigenvalue of `H_MM`: the
/// unshifted solve amplifies by ~1/gap and the later
/// ⟨C|t⟩-orthogonalization then cancels catastrophically, stalling the
/// residual just above tight thresholds.
const MODEL_SHIFT: f64 = 1e-3;

/// `val / den`, with `den` kept at least 1e-8 from zero; a non-finite
/// `den` (a determinant a truncation excludes) gives zero.
fn divide(val: f64, den: f64) -> f64 {
    if !den.is_finite() {
        0.0
    } else if den.abs() < 1e-8 {
        val / (1e-8 * den.signum().clamp(-1.0, 1.0))
    } else {
        val / den
    }
}

impl Preconditioner {
    /// Select the `model_size` lowest-diagonal in-sector determinants
    /// (`model_dets`) and factor their block of H.
    pub fn new(space: &DetSpace, ham: &Hamiltonian, diag: &DistMatrix, model_size: usize) -> Self {
        let dets = model_dets(diag, model_size);
        Preconditioner::from_model(diag, &dets, &model_block(space, ham, &dets))
    }

    /// The preconditioner over `diag` whose model space is `dets`, with
    /// `h_mm` their block of H (only its upper triangle is read).
    fn from_model(diag: &DistMatrix, dets: &[(usize, usize)], h_mm: &Matrix) -> Self {
        let at: Vec<(usize, usize)> = dets.iter().map(|&(ib, ia)| diag.slot(ib, ia)).collect();
        let mut model_index: Vec<usize> = (0..dets.len()).collect();
        model_index.sort_by_key(|&i| at[i]);
        Preconditioner {
            diag: diag.duplicate(),
            slots: model_index.iter().map(|&i| at[i]).collect(),
            model_index,
            model: eigh_ql(h_mm),
        }
    }

    /// `x = (H₀ − E)⁻¹ v`: the diagonal outside the model space, and
    /// `U (Λ − E + δ)⁻¹ Uᵀ v_M` inside it. Determinants a truncation
    /// excludes (diag = ∞) map to zero.
    pub fn apply(&self, v: &DistMatrix, e: f64) -> DistMatrix {
        let out = v.duplicate();
        out.map_with(&self.diag, |val, d| divide(val, d - e));
        // x_M = U (Λ − E + δ)⁻¹ Uᵀ v_M, one eigenvector at a time.
        let mut vm = vec![0.0; self.slots.len()];
        v.read_slots(&self.slots, |i, x| vm[self.model_index[i]] = x);
        let mut xm = vec![0.0; vm.len()];
        for (k, &lam) in self.model.eigenvalues.iter().enumerate() {
            let uk = self.model.eigenvectors.col(k);
            daxpy(divide(ddot(uk, &vm), lam - e + MODEL_SHIFT), uk, &mut xm);
        }
        out.write_slots(&self.slots, |i| xm[self.model_index[i]]);
        out
    }

    /// The `k` lowest model-space eigenvectors embedded in the CI space,
    /// distributed as the diagonal is.
    pub(crate) fn model_space_guesses(&self, k: usize) -> Vec<DistMatrix> {
        (0..k.min(self.slots.len()))
            .map(|r| {
                let c = DistMatrix::with_layout(Arc::clone(self.diag.layout()), self.diag.nproc());
                let u = self.model.eigenvectors.col(r);
                c.write_slots(&self.slots, |i| u[self.model_index[i]]);
                c
            })
            .collect()
    }
}

/// The `model_size` lowest-diagonal in-sector determinants, as (row,
/// column) of the CI matrix: the lowest values of `diag` in α-major
/// order, ties kept in that order (what a stable sort of the whole
/// diagonal picks).
fn model_dets(diag: &DistMatrix, model_size: usize) -> Vec<(usize, usize)> {
    // Ascending by value; an equal value goes after the ones already
    // held, so the earliest of a tie stays ahead.
    let mut best: Vec<(f64, usize, usize)> = Vec::with_capacity(model_size + 1);
    diag.map_cols_inplace(|ia, rows, vals| {
        for (ib, &d) in rows.zip(vals.iter()) {
            let full = best.len() == model_size;
            if !d.is_finite() || (full && best.last().is_none_or(|b| d >= b.0)) {
                continue;
            }
            best.insert(best.partition_point(|b| b.0 <= d), (d, ib, ia));
            best.truncate(model_size);
        }
    });
    best.iter().map(|&(_, ib, ia)| (ib, ia)).collect()
}

/// The upper triangle of `H_MM` over `dets`, the only part an
/// eigensolver reads; the strict lower triangle stays zero.
fn model_block(space: &DetSpace, ham: &Hamiltonian, dets: &[(usize, usize)]) -> Matrix {
    let mut h_mm = Matrix::zeros(dets.len(), dets.len());
    for (j, &(jb, ja)) in dets.iter().enumerate() {
        for (i, &(ib, ia)) in dets[..=j].iter().enumerate() {
            h_mm[(i, j)] = slater::element(
                ham,
                space.alpha.mask(ia),
                space.beta.mask(ib),
                space.alpha.mask(ja),
                space.beta.mask(jb),
            );
        }
    }
    h_mm
}

/// A solver's iteration telemetry. Each point emits a `diag_iter` instant:
/// iteration, energy, residual, the σ evaluations behind it (`sigmas`,
/// summed into `davidson.iters`) and `iter_s`, the simulated seconds rank
/// 0's cursor advanced since the previous point or since the solver
/// started. The previous cursor is this struct's own state, so solves
/// sharing a registry do not see each other's.
pub(crate) struct IterTrace {
    tracer: Tracer,
    prev_s: f64,
}

impl IterTrace {
    pub(crate) fn new(tracer: Tracer) -> IterTrace {
        IterTrace {
            prev_s: tracer.cursor(0),
            tracer,
        }
    }

    pub(crate) fn point(&mut self, iter: usize, sigmas: usize, e: f64, res: f64) {
        let now = self.tracer.cursor(0);
        self.tracer.instant(
            None,
            "diag_iter",
            Category::Other,
            &[
                ("iter", iter as f64),
                ("energy", e),
                ("residual", res),
                ("sigmas", sigmas as f64),
                ("iter_s", now - self.prev_s),
            ],
        );
        self.prev_s = now;
    }
}

/// `σ = H·c` through the context's σ algorithm, projected onto the space
/// (a no-op without a CI truncation), its simulated cost added to `cost`.
pub(crate) fn projected_sigma(
    ctx: &SigmaCtx,
    sm: SigmaMethod,
    c: &DistMatrix,
    cost: &mut SigmaBreakdown,
) -> DistMatrix {
    let (sigma, bd) = apply_sigma(ctx, c, sm);
    ctx.space.project_sector(&sigma);
    cost.merge(&bd);
    sigma
}

/// Olsen correction vector: `t = −[(H₀−E)⁻¹ r − Δ (H₀−E)⁻¹ C]` with Δ
/// fixing `⟨C|t⟩ = 0` (paper eqs. 11–12).
fn olsen_correction(pre: &Preconditioner, c: &DistMatrix, r: &DistMatrix, e: f64) -> DistMatrix {
    let x1 = pre.apply(r, e);
    let x2 = pre.apply(c, e);
    let [num, den] = dots(&[c, &x1, &x2], &[(0, 1), (0, 2)]);
    let delta = if den.abs() > 1e-300 { num / den } else { 0.0 };
    let t = x1;
    DistMatrix::add_combination(&[&t], &[&x2], &[(0, 0, -delta)]);
    // Not folded into the terms: −(x₁ − δx₂) and −x₁ + δx₂ differ in the
    // sign of an exact zero.
    t.scale(-1.0);
    t
}

/// [`DistMatrix::dots`] of `N` pairs, as an array.
fn dots<const N: usize>(mats: &[&DistMatrix], pairs: &[(usize, usize); N]) -> [f64; N] {
    let v = DistMatrix::dots(mats, pairs);
    std::array::from_fn(|k| v[k])
}

/// The Hamiltonian diagonal and the preconditioner over it, which a solve
/// builds once: the diagonal alone (63,848 in-sector determinants) costs
/// ≈ 2.2 ms on C2 FCI(8,13) on a 2-vCPU Xeon.
pub(crate) fn preconditioner(ctx: &SigmaCtx, model_size: usize) -> Preconditioner {
    let diag = ctx.space.diagonal(ctx.ham, ctx.ddi.nproc());
    Preconditioner::new(ctx.space, ctx.ham, &diag, model_size)
}

/// The default starting vector: ground vector of the exact model-space
/// block — the natural start when a model space is in play, and essential
/// for multireference systems where no single determinant dominates —
/// falling back to the lowest-diagonal determinant without one.
pub(crate) fn guess(ctx: &SigmaCtx, pre: &Preconditioner) -> DistMatrix {
    match pre.model_space_guesses(1).pop() {
        Some(c) => c,
        None => ctx.space.guess(ctx.ham, ctx.ddi.nproc()),
    }
}

/// Run the chosen diagonalizer for the lowest eigenpair of `H − E_core`.
pub fn diagonalize(
    ctx: &SigmaCtx,
    sigma_method: SigmaMethod,
    method: DiagMethod,
    opts: &DiagOptions,
) -> DiagResult {
    let pre = preconditioner(ctx, opts.model_space);
    let c0 = guess(ctx, &pre);
    diagonalize_with(ctx, sigma_method, method, opts, &pre, c0)
}

/// The diagonalizer from `c0`, preconditioned by `pre` — a start that is
/// not the model-space guess (a restored checkpoint, see
/// [`crate::checkpoint`]), or a preconditioner one world's chunks share.
pub(crate) fn diagonalize_with(
    ctx: &SigmaCtx,
    sigma_method: SigmaMethod,
    method: DiagMethod,
    opts: &DiagOptions,
    pre: &Preconditioner,
    c0: DistMatrix,
) -> DiagResult {
    let space = ctx.space;
    let nproc = ctx.ddi.nproc();
    assert_eq!(
        (c0.nrows(), c0.ncols()),
        (space.beta.len(), space.alpha.len()),
        "guess shape mismatch"
    );
    assert_eq!(
        c0.nproc(),
        nproc,
        "guess distributed over the wrong processor count"
    );
    assert!(
        **c0.layout() == space.layout(),
        "guess is not stored in the space's symmetry sector"
    );
    space.project_sector(&c0);
    let norm = c0.norm();
    assert!(
        norm > 0.0,
        "guess vector has no component in the target sector"
    );
    c0.scale(1.0 / norm);
    match method {
        DiagMethod::Davidson | DiagMethod::TwoVector => {
            let cap = if method == DiagMethod::TwoVector {
                2
            } else {
                opts.max_subspace
            };
            let mut cost = SigmaBreakdown::default();
            let mut run = block_davidson(
                vec![c0],
                1,
                cap,
                opts.max_iter,
                opts.tol,
                |b| projected_sigma(ctx, sigma_method, b, &mut cost),
                |e, c, r| olsen_correction(pre, c, r, e),
                &ctx.ddi.tracer(),
            );
            DiagResult {
                e_elec: run.energies[0],
                iterations: run.sigmas,
                converged: run.converged[0],
                energy_history: run.energy_history,
                residual_history: run.residual_history,
                c: run.states.swap_remove(0),
                sigma_cost: cost,
            }
        }
        DiagMethod::Olsen => single_vector(ctx, sigma_method, opts, pre, c0, Lambda::Fixed(1.0)),
        DiagMethod::OlsenDamped => single_vector(
            ctx,
            sigma_method,
            opts,
            pre,
            c0,
            Lambda::Fixed(opts.fixed_lambda),
        ),
        DiagMethod::AutoAdjust => single_vector(ctx, sigma_method, opts, pre, c0, Lambda::Auto),
    }
}

enum Lambda {
    Fixed(f64),
    Auto,
}

/// Olsen, damped Olsen or AutoAdjust from the unit vector `c`.
fn single_vector(
    ctx: &SigmaCtx,
    sm: SigmaMethod,
    opts: &DiagOptions,
    pre: &Preconditioner,
    c: DistMatrix,
    lambda_mode: Lambda,
) -> DiagResult {
    // σ and its α-half layout, r and both preconditioned vectors come
    // back from here every iteration; all of them are freed on return.
    let _storage = fci_ddi::reuse::scope();
    let mut cost = SigmaBreakdown::default();
    let mut e_hist = Vec::new();
    let mut r_hist = Vec::new();
    let mut trace = IterTrace::new(ctx.ddi.tracer());

    // State carried between iterations for the auto-adjusted λ (eq. 14/15).
    struct Prev {
        e: f64,
        b: f64,
        tau: f64,
        lambda: f64,
        s2: f64,
        res: f64,
    }
    let mut prev: Option<Prev> = None;
    let mut converged = false;
    let mut iterations = 0;
    let mut e = 0.0;
    // Trust-region factor for the auto-adjusted step: multiplies the
    // recycled λopt; shrinks when a step made the residual worse, relaxes
    // back toward 1 on success. The recycled λ is one iteration stale
    // (that is the whole trick of eqs. 14–15), which is harmless in the
    // monotone regime the paper operates in but can ping-pong on strongly
    // multireference/open-shell cases — the backoff restores robustness
    // without extra σ evaluations or stored vectors.
    let mut trust = 1.0f64;

    while iterations < opts.max_iter {
        let sigma = projected_sigma(ctx, sm, &c, &mut cost);
        iterations += 1;
        [e] = dots(&[&c, &sigma], &[(0, 1)]);
        let r = DistMatrix::combine(&[&sigma, &c], &[(0, 0, 1.0), (0, 1, -e)]).swap_remove(0);
        let [rr] = dots(&[&r], &[(0, 0)]);
        let res = rr.sqrt();
        e_hist.push(e);
        r_hist.push(res);
        trace.point(iterations, 1, e, res);
        if res < opts.tol {
            converged = true;
            break;
        }

        let t = olsen_correction(pre, &c, &r, e);
        // ‖t‖², and ⟨C|H|t⟩ with σ = HC.
        let [tt, b] = dots(&[&t, &sigma], &[(0, 0), (1, 0)]);
        let tau = tt.sqrt();
        if tau < 1e-14 {
            break;
        }

        if let Some(p) = &prev {
            if res > p.res {
                trust = (trust * 0.5).max(0.05);
            } else {
                trust = (trust * 1.3).min(1.0);
            }
        }

        let lambda = match &lambda_mode {
            Lambda::Fixed(l) => *l,
            Lambda::Auto => {
                let raw = match &prev {
                    Some(p) if p.lambda.abs() > 1e-12 => {
                        // eq. 14: reconstruct ⟨t|H|t⟩ of the previous
                        // iteration from the current Rayleigh quotient —
                        // but only while the reconstruction is numerically
                        // meaningful. Asymptotically `e/s² − e_prev` is a
                        // difference of O(|E|) numbers at O(‖t‖²) scale;
                        // once it drops under the floating-point noise
                        // floor, λopt has stabilized anyway, so freeze it.
                        let de = e / p.s2 - p.e;
                        if de.abs() < 1e3 * f64::EPSILON * e.abs().max(1.0) {
                            // Asymptotic regime: the Olsen correction is the
                            // exact first-order eigenvector update, so the
                            // proper step length is 1; recycling a stale
                            // λopt here locks in a slower contraction.
                            Some(1.0)
                        } else {
                            let tht = (de - 2.0 * p.lambda * p.b) / (p.lambda * p.lambda);
                            let (_w, (x, y)) = eigh_2x2(p.e, p.b / p.tau, tht / (p.tau * p.tau));
                            (x.abs() > 1e-8).then(|| (y / x) / p.tau)
                        }
                    }
                    _ => {
                        // First iteration: crude ⟨t|H|t⟩ from the diagonal
                        // ("more crudely estimated", §2.2).
                        let v = t.weighted_square(&pre.diag);
                        let (_w, (x, y)) = eigh_2x2(e, b / tau, v / (tau * tau));
                        (x.abs() > 1e-8).then(|| (y / x) / tau)
                    }
                };
                match raw {
                    Some(l) if l.is_finite() => (l * trust).clamp(0.02, 2.0),
                    _ => opts.fixed_lambda * trust,
                }
            }
        };

        // C ← S (C + λ t)
        DistMatrix::add_combination(&[&c], &[&t], &[(0, 0, lambda)]);
        let [cc] = dots(&[&c], &[(0, 0)]);
        let s = 1.0 / cc.sqrt();
        c.scale(s);
        prev = Some(Prev {
            e,
            b,
            tau,
            lambda,
            s2: s * s,
            res,
        });
    }

    DiagResult {
        e_elec: e,
        iterations,
        converged,
        energy_history: e_hist,
        residual_history: r_hist,
        c,
        sigma_cost: cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::{random_hamiltonian, random_symmetric_hamiltonian};
    use crate::sigma::test_ctx;
    use fci_ddi::{Backend, Ddi};
    use fci_linalg::eigh;

    fn exact_ground(space: &DetSpace, ham: &Hamiltonian) -> f64 {
        let h = slater::dense_h(space, ham);
        eigh(&h).eigenvalues[0]
    }

    fn run(
        method: DiagMethod,
        n: usize,
        na: usize,
        nb: usize,
        nproc: usize,
        seed: u64,
    ) -> (DiagResult, f64) {
        let ham = random_hamiltonian(n, seed);
        let space = DetSpace::c1(n, na, nb);
        let ddi = Ddi::new(nproc, Backend::Serial);
        let ctx = test_ctx(&space, &ham, &ddi);
        let exact = exact_ground(&space, &ham);
        let res = diagonalize(&ctx, SigmaMethod::Dgemm, method, &DiagOptions::default());
        (res, exact)
    }

    /// Davidson finds the ground state; so does `TwoVector`, Davidson
    /// collapsed at two vectors, in the iterations and to the energies
    /// that the hand-written {C, t} loop it replaced printed.
    #[test]
    fn single_root_davidson_finds_ground_state() {
        let (r, exact) = run(DiagMethod::Davidson, 5, 2, 2, 2, 3);
        assert!(r.converged, "not converged after {} its", r.iterations);
        assert!((r.e_elec - exact).abs() < 1e-8, "{} vs {exact}", r.e_elec);
        for ((n, na, nb, nproc, seed), iters, e) in [
            ((5, 2, 2, 2, 3), 14, -5.408539048736894),
            ((5, 3, 2, 1, 11), 16, -3.0883425145217145),
        ] {
            let (r, exact) = run(DiagMethod::TwoVector, n, na, nb, nproc, seed);
            assert!(r.converged && (r.e_elec - exact).abs() < 1e-8);
            assert_eq!(r.iterations, iters, "seed {seed}");
            assert!((r.e_elec - e).abs() < 1e-12, "seed {seed}: {}", r.e_elec);
        }
    }

    /// Every single-root method records one energy and one residual per
    /// σ, a Davidson that collapses at three vectors included.
    #[test]
    fn one_history_entry_per_sigma() {
        let ham = random_hamiltonian(5, 3);
        let space = DetSpace::c1(5, 2, 2);
        let ddi = Ddi::new(2, Backend::Serial);
        let ctx = test_ctx(&space, &ham, &ddi);
        use DiagMethod::*;
        for (method, max_subspace) in [
            (Davidson, 12),
            (Davidson, 3),
            (TwoVector, 12),
            (Olsen, 12),
            (OlsenDamped, 12),
            (AutoAdjust, 12),
        ] {
            let opts = DiagOptions {
                max_subspace,
                ..Default::default()
            };
            let r = diagonalize(&ctx, SigmaMethod::Dgemm, method, &opts);
            let what = format!("{method:?} at cap {max_subspace}");
            assert_eq!(r.energy_history.len(), r.iterations, "{what}");
            assert_eq!(r.residual_history.len(), r.iterations, "{what}");
        }
    }

    #[test]
    fn method_names_round_trip() {
        use DiagMethod::*;
        for m in [Davidson, TwoVector, Olsen, OlsenDamped, AutoAdjust] {
            assert_eq!(DiagMethod::from_name(m.name()), Some(m));
        }
        assert_eq!(DiagMethod::from_name("auto_adjust"), Some(AutoAdjust));
        assert_eq!(DiagMethod::from_name("olsen-damped"), Some(OlsenDamped));
        assert_eq!(DiagMethod::from_name("lanczos"), None);
    }

    #[test]
    fn auto_adjust_finds_ground_state() {
        let (r, exact) = run(DiagMethod::AutoAdjust, 5, 2, 2, 2, 3);
        assert!(r.converged, "not converged after {} its", r.iterations);
        assert!((r.e_elec - exact).abs() < 1e-8);
    }

    #[test]
    fn damped_olsen_finds_ground_state() {
        let (r, exact) = run(DiagMethod::OlsenDamped, 4, 2, 2, 1, 7);
        assert!(r.converged);
        assert!((r.e_elec - exact).abs() < 1e-7);
    }

    #[test]
    fn methods_agree_across_processors() {
        let (r1, exact) = run(DiagMethod::AutoAdjust, 5, 3, 2, 1, 11);
        let (r5, _) = run(DiagMethod::AutoAdjust, 5, 3, 2, 5, 11);
        assert!(r1.converged && r5.converged);
        assert!((r1.e_elec - exact).abs() < 1e-8);
        assert!((r1.e_elec - r5.e_elec).abs() < 1e-9);
    }

    #[test]
    fn energy_history_variational() {
        // Rayleigh quotients never dip below the exact ground state.
        let (r, exact) = run(DiagMethod::Davidson, 5, 2, 2, 2, 19);
        for &e in &r.energy_history {
            assert!(e >= exact - 1e-10);
        }
        // Davidson energies are non-increasing.
        for w in r.energy_history.windows(2) {
            assert!(w[1] <= w[0] + 1e-10);
        }
    }

    #[test]
    fn preconditioner_model_space_exact_block() {
        let ham = random_hamiltonian(4, 23);
        let space = DetSpace::c1(4, 2, 2);
        let diag = space.diagonal(&ham, 1);
        let pre = Preconditioner::new(&space, &ham, &diag, 6);
        // Applying (H0−E) after (H0−E)^{-1} on a model-space unit vector
        // must return the vector (within the model block behaviour).
        let dets = model_dets(&diag, 6);
        let v = space.zeros_ci(1);
        let (ib, ia) = dets[0];
        v.set(ib, ia, 1.0);
        let e_test = -50.0; // far from any eigenvalue: well-conditioned
        let x = pre.apply(&v, e_test);
        // Compute (H_MM − E + δ) x over the model space and compare with
        // v (δ = the solver's 1e-3 regularization shift), H_MM rebuilt
        // from the Slater–Condon rules.
        let mask = |(ib, ia): (usize, usize)| (space.alpha.mask(ia), space.beta.mask(ib));
        let m = dets.len();
        for i in 0..m {
            let mut acc = 0.0;
            for j in 0..m {
                let ((ai, bi), (aj, bj)) = (mask(dets[i]), mask(dets[j]));
                let h_ij = slater::element(&ham, ai, bi, aj, bj);
                let hij = h_ij - if i == j { e_test - 1e-3 } else { 0.0 };
                let (jb, ja) = dets[j];
                acc += hij * x.get(jb, ja);
            }
            let (ibk, iak) = dets[i];
            assert!((acc - v.get(ibk, iak)).abs() < 1e-9);
        }
    }

    fn bits(m: &DistMatrix) -> Vec<u64> {
        m.to_dense().iter().map(|x| x.to_bits()).collect()
    }

    /// A sector of an 8-orbital, 4-irrep space, and a vector of distinct
    /// elements over it.
    fn blocked_case(nproc: usize) -> (DetSpace, Hamiltonian, DistMatrix, DistMatrix) {
        let sym = [0u8, 1, 2, 3, 0, 1, 2, 3];
        let ham = random_symmetric_hamiltonian(8, 37, &sym, 4);
        let space = DetSpace::new(8, 3, 3, &sym, 4, 2);
        let diag = space.diagonal(&ham, nproc);
        let v = space.zeros_ci(nproc);
        v.map_inplace(|ib, ia, _| ((ib * 31 + ia * 7) as f64).sin());
        (space, ham, diag, v)
    }

    /// `apply` and the model-space guesses read and write the model
    /// determinants through slots located once; element by element through
    /// `get`/`set` gives the same bits, on a blocked layout at 1, 2, 3 and
    /// 7 ranks.
    #[test]
    fn slot_gather_and_scatter_equal_the_per_element_version() {
        for nproc in [1, 2, 3, 7] {
            let (space, ham, diag, v) = blocked_case(nproc);
            let pre = Preconditioner::new(&space, &ham, &diag, 20);
            let dets = model_dets(&diag, 20);
            assert_eq!(dets.len(), 20);
            for e in [-50.0, pre.model.eigenvalues[0] - 0.01] {
                let want = v.duplicate();
                want.map_with(&diag, |val, d| divide(val, d - e));
                let vm: Vec<f64> = dets.iter().map(|&(ib, ia)| v.get(ib, ia)).collect();
                let mut xm = vec![0.0; vm.len()];
                for (k, &lam) in pre.model.eigenvalues.iter().enumerate() {
                    let uk = pre.model.eigenvectors.col(k);
                    daxpy(divide(ddot(uk, &vm), lam - e + MODEL_SHIFT), uk, &mut xm);
                }
                for (&(ib, ia), x) in dets.iter().zip(xm) {
                    want.set(ib, ia, x);
                }
                assert_eq!(bits(&pre.apply(&v, e)), bits(&want), "nproc {nproc}");
            }
            for (r, c) in pre.model_space_guesses(3).iter().enumerate() {
                let want = space.zeros_ci(nproc);
                for (&(ib, ia), &x) in dets.iter().zip(pre.model.eigenvectors.col(r)) {
                    want.set(ib, ia, x);
                }
                assert_eq!(bits(c), bits(&want), "nproc {nproc}, guess {r}");
            }
        }
    }

    /// Both eigensolvers read the upper triangle only, so the model block
    /// is built there alone: the preconditioner is the one the full block
    /// gives, bit for bit.
    #[test]
    fn upper_triangle_model_block_gives_the_full_blocks_preconditioner() {
        let (space, ham, diag, v) = blocked_case(3);
        let dets = model_dets(&diag, 20);
        let upper = model_block(&space, &ham, &dets);
        let full = Matrix::from_fn(dets.len(), dets.len(), |i, j| {
            let ((ib, ia), (jb, ja)) = (dets[i], dets[j]);
            let (ai, bi) = (space.alpha.mask(ia), space.beta.mask(ib));
            slater::element(&ham, ai, bi, space.alpha.mask(ja), space.beta.mask(jb))
        });
        for j in 0..dets.len() {
            for i in 0..dets.len() {
                let want = if i <= j { full[(i, j)] } else { 0.0 };
                assert_eq!(upper[(i, j)].to_bits(), want.to_bits(), "({i}, {j})");
            }
        }
        let (a, b) = (
            Preconditioner::from_model(&diag, &dets, &upper),
            Preconditioner::from_model(&diag, &dets, &full),
        );
        let eig_bits = |p: &Preconditioner| -> Vec<u64> {
            let m = &p.model;
            let w = m.eigenvalues.iter();
            w.chain(m.eigenvectors.as_slice())
                .map(|x| x.to_bits())
                .collect()
        };
        assert_eq!(eig_bits(&a), eig_bits(&b));
        assert_eq!(bits(&a.apply(&v, -3.0)), bits(&b.apply(&v, -3.0)));
    }

    #[test]
    fn preconditioner_is_finite_on_every_model_eigenvalue() {
        // At E = λ_k + δ the shifted block (H_MM − E + δ) is singular:
        // the near-zero rule must keep every component finite.
        let ham = random_hamiltonian(4, 23);
        let space = DetSpace::c1(4, 2, 2);
        let pre = Preconditioner::new(&space, &ham, &space.diagonal(&ham, 2), 6);
        let v = space.zeros_ci(2);
        v.map_inplace(|ib, ia, _| 1.0 + (ib * 5 + ia) as f64 * 0.1);
        for &lam in &pre.model.eigenvalues {
            pre.apply(&v, lam + 1e-3).map_inplace(|ib, ia, x| {
                assert!(x.is_finite(), "x[{ib},{ia}] = {x} at E = {lam} + δ");
                x
            });
        }
    }

    #[test]
    fn model_space_speeds_up_or_matches_diagonal() {
        let ham = random_hamiltonian(5, 29);
        let space = DetSpace::c1(5, 2, 2);
        let ddi = Ddi::new(1, Backend::Serial);
        let ctx = test_ctx(&space, &ham, &ddi);
        let with = diagonalize(
            &ctx,
            SigmaMethod::Dgemm,
            DiagMethod::AutoAdjust,
            &DiagOptions {
                model_space: 20,
                ..Default::default()
            },
        );
        let without = diagonalize(
            &ctx,
            SigmaMethod::Dgemm,
            DiagMethod::AutoAdjust,
            &DiagOptions {
                model_space: 0,
                ..Default::default()
            },
        );
        assert!(with.converged);
        assert!((with.e_elec - without.e_elec).abs() < 1e-7 || !without.converged);
        assert!(with.iterations <= without.iterations + 2);
    }

    #[test]
    fn sector_restricted_diagonalization() {
        // With symmetry on, the solver must find the lowest state of the
        // requested irrep, matching a dense diagonalization restricted to
        // that sector.
        let sym = vec![0u8, 1, 0, 1, 1];
        // Symmetry-violating integrals are exact zeros, so H commutes
        // with the (artificial) symmetry.
        let ham = random_symmetric_hamiltonian(5, 31, &sym, 2);

        for g in 0..2u8 {
            let space = DetSpace::new(5, 2, 1, &sym, 2, g);
            let ddi = Ddi::new(2, Backend::Serial);
            let ctx = test_ctx(&space, &ham, &ddi);
            let r = diagonalize(
                &ctx,
                SigmaMethod::Dgemm,
                DiagMethod::Davidson,
                &DiagOptions::default(),
            );
            // Dense reference restricted to the sector.
            let hfull = slater::dense_h(&space, &ham);
            let nb = space.beta.len();
            let idx: Vec<usize> = (0..space.dim())
                .filter(|&i| space.in_sector(i % nb, i / nb))
                .collect();
            let hs = Matrix::from_fn(idx.len(), idx.len(), |i, j| hfull[(idx[i], idx[j])]);
            let exact = eigh(&hs).eigenvalues[0];
            assert!(r.converged, "irrep {g} did not converge");
            assert!(
                (r.e_elec - exact).abs() < 1e-8,
                "irrep {g}: {} vs {exact}",
                r.e_elec
            );
        }
    }
}
