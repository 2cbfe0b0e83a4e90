//! High-level FCI driver: MO integrals in, ground-state energy out.

use crate::detspace::DetSpace;
use crate::diag::{diagonalize, DiagMethod, DiagOptions, DiagResult};
use crate::hamiltonian::Hamiltonian;
use crate::sigma::{SigmaBreakdown, SigmaCtx, SigmaMethod};
use crate::taskpool::PoolParams;
use fci_ddi::{Backend, CheckConfig, Ddi, DistMatrix, FaultConfig, FaultPlan};
use fci_obs::ObsConfig;
use fci_scf::MoIntegrals;
use fci_xsim::MachineModel;
use std::sync::Arc;

/// Which CI engine solves the eigenproblem.
///
/// `fci-core` only implements the dense path itself; the sparse variants
/// live in `fci-sparse` (which depends on this crate), so the enum is
/// pure wire-level data here (job specs, WAL records) and the dispatch
/// happens in `fci-serve`'s job executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Dense CI vector, GEMM-based σ (the paper's engine; the default).
    Dense,
    /// Sparse coordinate-descent FCI (CDFCI): hash-stored coefficients,
    /// largest-gradient single-coordinate updates, connection-local work.
    SparseCdfci,
    /// Selected CI: importance-screened determinant space grown
    /// adaptively, diagonalized by Davidson in the selected space.
    SparseSelected,
}

impl SolverKind {
    /// Stable lowercase name (used in job specs and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            SolverKind::Dense => "dense",
            SolverKind::SparseCdfci => "cdfci",
            SolverKind::SparseSelected => "selected",
        }
    }

    /// Parse the stable name back ([`SolverKind::name`]).
    pub fn from_name(s: &str) -> Option<SolverKind> {
        match s {
            "dense" => Some(SolverKind::Dense),
            "cdfci" => Some(SolverKind::SparseCdfci),
            "selected" => Some(SolverKind::SparseSelected),
            _ => None,
        }
    }
}

/// Everything configurable about an FCI run. Every solve charges σ to
/// the Cray-X1 MSP model ([`MachineModel::cray_x1`]) and deals mixed-spin
/// work through the paper's aggregated task pool ([`PoolParams::default`]);
/// the ablations that vary either build a [`SigmaCtx`] themselves.
#[derive(Clone, Debug)]
pub struct FciOptions {
    /// Virtual MSP count.
    pub nproc: usize,
    /// Execution backend for the virtual machine.
    pub backend: Backend,
    /// σ algorithm.
    pub sigma: SigmaMethod,
    /// Eigensolver.
    pub method: DiagMethod,
    /// Eigensolver controls.
    pub diag: DiagOptions,
    /// Optional CI truncation level relative to the lowest-diagonal
    /// determinant (2 = CISD, 3 = CISDT, …; `None` = full CI).
    pub excitation_level: Option<u32>,
    /// Run telemetry: disabled by default (zero cost); enable to collect
    /// span/event traces of every solver phase.
    pub obs: ObsConfig,
    /// Correctness checking: disabled by default (zero cost); attach a
    /// recorder (e.g. `fci-check`'s race detector) to observe every DDI
    /// protocol step of the run.
    pub check: CheckConfig,
    /// Fault injection: `None` (default) runs the unchecked fast path;
    /// `Some(cfg)` attaches a seeded [`FaultPlan`] so every remote DDI
    /// op runs the checked retry/recovery path. Transient faults are
    /// recovered inside `solve`; permanent rank death needs
    /// [`crate::recovery::solve_resilient`].
    pub fault: Option<FaultConfig>,
}

impl Default for FciOptions {
    fn default() -> Self {
        FciOptions {
            nproc: 1,
            backend: Backend::Serial,
            sigma: SigmaMethod::Dgemm,
            method: DiagMethod::AutoAdjust,
            diag: DiagOptions::default(),
            excitation_level: None,
            obs: ObsConfig::off(),
            check: CheckConfig::off(),
            fault: None,
        }
    }
}

/// Result of an FCI run.
#[derive(Debug)]
pub struct FciResult {
    /// Total energy: electronic + core constant, hartree.
    pub energy: f64,
    /// Electronic part only.
    pub e_elec: f64,
    /// Core constant (nuclear repulsion + frozen core).
    pub e_core: f64,
    /// σ evaluations used.
    pub iterations: usize,
    /// Whether the residual threshold was met.
    pub converged: bool,
    /// Total (with `e_core`) energy after each σ evaluation.
    pub energy_history: Vec<f64>,
    /// Residual 2-norm after each σ evaluation.
    pub residual_history: Vec<f64>,
    /// Full product dimension of the stored CI matrix.
    pub dim: usize,
    /// Determinants in the symmetry sector.
    pub sector_dim: usize,
    /// Accumulated simulated cost of all σ evaluations.
    pub sigma_cost: SigmaBreakdown,
    /// The eigensolver's raw output (CI vector etc.).
    pub diag: DiagResult,
}

/// Build the determinant space of a run, honoring the configured CI
/// truncation (shared by [`solve`], `recovery::solve_resilient`, and the
/// `fci-serve` artifact cache, which builds spaces once and hands the
/// same `Arc` to every job that shares the key).
pub fn build_space(
    ham: &Hamiltonian,
    n_alpha: usize,
    n_beta: usize,
    target_irrep: u8,
    excitation_level: Option<u32>,
) -> DetSpace {
    let mut space = DetSpace::for_hamiltonian(ham, n_alpha, n_beta, target_irrep);
    if let Some(level) = excitation_level {
        // Reference = the lowest-diagonal in-sector determinant.
        let (ref_a, ref_b) = space.lowest_diagonal(ham).map_or((0, 0), |(ib, ia, _)| {
            (space.alpha.mask(ia), space.beta.mask(ib))
        });
        space = space.with_excitation_limit(ref_a, ref_b, level);
    }
    space
}

/// Solve for the lowest FCI state of the given spin/symmetry sector.
pub fn solve(
    mo: &MoIntegrals,
    n_alpha: usize,
    n_beta: usize,
    target_irrep: u8,
    opts: &FciOptions,
) -> FciResult {
    let ham = Hamiltonian::new(mo);
    let space = build_space(&ham, n_alpha, n_beta, target_irrep, opts.excitation_level);
    solve_prepared(&space, &ham, opts)
}

/// Like [`solve`], but over a prebuilt determinant space and Hamiltonian.
///
/// This is the reuse hook for callers that amortize the expensive shared
/// state across runs (the `fci-serve` artifact cache hands out `Arc`'d
/// spaces and Hamiltonians): identical `(space, ham, opts)` inputs give
/// bitwise-identical results whether the artifacts were freshly built or
/// cache hits, because the solve reads them immutably.
pub fn solve_prepared(space: &DetSpace, ham: &Hamiltonian, opts: &FciOptions) -> FciResult {
    let tracer = opts.obs.tracer_or_warn();
    let ddi = open_world(opts, opts.nproc, None, &tracer);
    tracer.instant(
        None,
        "solve_begin",
        fci_obs::Category::Other,
        &[
            ("nproc", opts.nproc as f64),
            ("dim", space.dim() as f64),
            ("sector_dim", space.sector_dim() as f64),
        ],
    );
    let model = MachineModel::cray_x1();
    let ctx = SigmaCtx {
        space,
        ham,
        ddi: &ddi,
        model: &model,
        pool: PoolParams::default(),
    };
    let d = diagonalize(&ctx, opts.sigma, opts.method, &opts.diag);
    tracer.instant(
        None,
        "solve_end",
        fci_obs::Category::Other,
        &[
            ("iterations", d.iterations as f64),
            ("converged", if d.converged { 1.0 } else { 0.0 }),
            ("e_elec", d.e_elec),
        ],
    );
    tracer.flush();
    let sigma_cost = d.sigma_cost.clone();
    fci_result(space, ham, d, sigma_cost)
}

/// A world of `nproc` virtual MSPs wired to the run's fault plan, tracer
/// and protocol recorder. A resilient solve passes the one plan it shares
/// across world rebuilds; otherwise the world gets a fresh plan from
/// `opts.fault`, if set.
pub(crate) fn open_world(
    opts: &FciOptions,
    nproc: usize,
    shared_plan: Option<&Arc<FaultPlan>>,
    tracer: &fci_obs::Tracer,
) -> Ddi {
    let ddi = Ddi::new(nproc, opts.backend);
    let plan = shared_plan.cloned().or_else(|| {
        opts.fault
            .as_ref()
            .map(|cfg| Arc::new(FaultPlan::new(cfg.clone())))
    });
    if let Some(plan) = plan {
        ddi.attach_faults(plan);
    }
    ddi.attach_tracer(tracer.clone());
    if let Some(rec) = &opts.check.recorder {
        ddi.attach_recorder(rec.clone());
    }
    ddi
}

/// Wrap the eigensolver's output as the run's result. `sigma_cost` is the
/// whole run's σ cost, which a chunked resilient solve accumulates across
/// chunks (so it is not always `d.sigma_cost`).
pub(crate) fn fci_result(
    space: &DetSpace,
    ham: &Hamiltonian,
    d: DiagResult,
    sigma_cost: SigmaBreakdown,
) -> FciResult {
    FciResult {
        energy: d.e_elec + ham.e_core,
        e_elec: d.e_elec,
        e_core: ham.e_core,
        iterations: d.iterations,
        converged: d.converged,
        energy_history: d.energy_history.iter().map(|e| e + ham.e_core).collect(),
        residual_history: d.residual_history.clone(),
        dim: space.dim(),
        sector_dim: space.sector_dim(),
        sigma_cost,
        diag: d,
    }
}

/// Result of a multi-state FCI run ([`solve_roots_prepared`]).
#[derive(Debug)]
pub struct FciRootsResult {
    /// Total energies (electronic + core), ascending by root.
    pub energies: Vec<f64>,
    /// Electronic parts only.
    pub e_elec: Vec<f64>,
    /// Core constant.
    pub e_core: f64,
    /// σ evaluations used in total.
    pub iterations: usize,
    /// Per-root convergence flags.
    pub converged: Vec<bool>,
    /// Full product dimension of the stored CI matrix.
    pub dim: usize,
    /// Determinants in the symmetry sector.
    pub sector_dim: usize,
    /// Accumulated simulated σ cost.
    pub sigma_cost: SigmaBreakdown,
    /// CI vectors, one per root.
    pub states: Vec<DistMatrix>,
}

/// Solve for the `nroots` lowest FCI states of the sector in one block
/// Davidson run (see [`crate::multiroot`]) over a prebuilt space and
/// Hamiltonian ([`build_space`]) — also the batching hook `fci-serve`
/// uses to coalesce jobs that share a determinant space into one
/// multi-state solve. The `opts.method` field is ignored — the block
/// method is always the subspace one; callers that need a single-vector
/// scheme should use [`solve`] per state.
pub fn solve_roots_prepared(
    space: &DetSpace,
    ham: &Hamiltonian,
    opts: &FciOptions,
    nroots: usize,
) -> FciRootsResult {
    let tracer = opts.obs.tracer_or_warn();
    let ddi = open_world(opts, opts.nproc, None, &tracer);
    tracer.instant(
        None,
        "solve_roots_begin",
        fci_obs::Category::Other,
        &[("nproc", opts.nproc as f64), ("nroots", nroots as f64)],
    );
    let model = MachineModel::cray_x1();
    let ctx = SigmaCtx {
        space,
        ham,
        ddi: &ddi,
        model: &model,
        pool: PoolParams::default(),
    };
    let (run, sigma_cost) =
        crate::multiroot::diagonalize_roots(&ctx, opts.sigma, &opts.diag, nroots);
    tracer.instant(
        None,
        "solve_roots_end",
        fci_obs::Category::Other,
        &[("iterations", run.sigmas as f64)],
    );
    tracer.flush();
    FciRootsResult {
        energies: run.energies.iter().map(|e| e + ham.e_core).collect(),
        e_elec: run.energies,
        e_core: ham.e_core,
        iterations: run.sigmas,
        converged: run.converged,
        dim: space.dim(),
        sector_dim: space.sector_dim(),
        sigma_cost,
        states: run.states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hubbard_dimer_exact() {
        // Two-site Hubbard at half filling: E0 = (U − sqrt(U² + 16t²))/2.
        let (t, u) = (1.0, 4.0);
        let mo = MoIntegrals::hubbard_chain(2, t, u, false);
        // Degenerate lattice diagonal: subspace method (see diag docs).
        let opts = FciOptions {
            method: DiagMethod::Davidson,
            ..Default::default()
        };
        let r = solve(&mo, 1, 1, 0, &opts);
        let exact = 0.5 * (u - (u * u + 16.0 * t * t).sqrt());
        assert!(r.converged);
        assert!((r.energy - exact).abs() < 1e-8, "{} vs {exact}", r.energy);
    }

    #[test]
    fn noninteracting_limit_fills_band() {
        // U = 0: FCI energy = sum of the lowest Nα + Nβ one-electron
        // levels of the chain.
        let n = 6;
        let mo = MoIntegrals::hubbard_chain(n, 1.0, 0.0, false);
        // U = 0 makes every determinant diagonal-degenerate; the
        // single-vector methods presume a dominant reference, so use the
        // subspace method here (see diag module docs).
        let opts = FciOptions {
            method: DiagMethod::Davidson,
            diag: crate::diag::DiagOptions {
                max_iter: 150,
                model_space: 40,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = solve(&mo, 2, 2, 0, &opts);
        let ev = fci_linalg::eigh(&mo.h).eigenvalues;
        let exact = 2.0 * (ev[0] + ev[1]);
        assert!(r.converged);
        assert!((r.energy - exact).abs() < 1e-7, "{} vs {exact}", r.energy);
    }

    #[test]
    fn sigma_methods_give_same_energy() {
        let mo = MoIntegrals::hubbard_chain(4, 1.0, 2.5, false);
        let opts = |s: SigmaMethod| FciOptions {
            sigma: s,
            method: DiagMethod::Davidson,
            diag: DiagOptions {
                max_iter: 120,
                model_space: 24,
                ..Default::default()
            },
            ..Default::default()
        };
        let a = solve(&mo, 2, 2, 0, &opts(SigmaMethod::Dgemm));
        let b = solve(&mo, 2, 2, 0, &opts(SigmaMethod::Moc));
        assert!(a.converged && b.converged);
        assert!((a.energy - b.energy).abs() < 1e-9);
    }

    #[test]
    fn processor_count_does_not_change_physics() {
        let mo = MoIntegrals::hubbard_chain(4, 1.0, 3.0, false);
        let opts = |p: usize| FciOptions {
            nproc: p,
            method: DiagMethod::Davidson,
            diag: crate::diag::DiagOptions {
                max_iter: 120,
                model_space: 24,
                ..Default::default()
            },
            ..Default::default()
        };
        let a = solve(&mo, 2, 1, 0, &opts(1));
        let b = solve(&mo, 2, 1, 0, &opts(6));
        assert!(a.converged && b.converged);
        assert!((a.energy - b.energy).abs() < 1e-9);
    }

    #[test]
    fn prepared_solve_is_bitwise_identical_to_plain() {
        // The serve-layer cache depends on this: handing a prebuilt
        // (space, ham) to the solver must change nothing, bit for bit.
        let mo = MoIntegrals::hubbard_chain(4, 1.0, 2.5, false);
        let opts = FciOptions {
            method: DiagMethod::Davidson,
            diag: DiagOptions {
                max_iter: 120,
                model_space: 24,
                ..Default::default()
            },
            ..Default::default()
        };
        let plain = solve(&mo, 2, 2, 0, &opts);
        let ham = Hamiltonian::new(&mo);
        let space = build_space(&ham, 2, 2, 0, opts.excitation_level);
        let prep = solve_prepared(&space, &ham, &opts);
        assert_eq!(plain.energy.to_bits(), prep.energy.to_bits());
        assert_eq!(plain.iterations, prep.iterations);
    }

    #[test]
    fn solve_roots_ground_state_matches_single_root() {
        let mo = MoIntegrals::hubbard_chain(4, 1.0, 2.5, false);
        let opts = FciOptions {
            method: DiagMethod::Davidson,
            diag: DiagOptions {
                max_iter: 120,
                model_space: 24,
                ..Default::default()
            },
            ..Default::default()
        };
        let single = solve(&mo, 2, 1, 0, &opts);
        let ham = Hamiltonian::new(&mo);
        let space = build_space(&ham, 2, 1, 0, None);
        let multi = solve_roots_prepared(&space, &ham, &opts, 3);
        assert!(multi.converged.iter().all(|&b| b), "{:?}", multi.converged);
        assert!((multi.energies[0] - single.energy).abs() < 1e-8);
        assert!(multi.energies[0] <= multi.energies[1]);
        assert!(multi.energies[1] <= multi.energies[2]);
    }

    #[test]
    fn result_records_dimensions_and_cost() {
        let mo = MoIntegrals::hubbard_chain(4, 1.0, 1.0, false);
        let r = solve(
            &mo,
            2,
            2,
            0,
            &FciOptions {
                nproc: 2,
                method: DiagMethod::Davidson,
                ..Default::default()
            },
        );
        assert_eq!(r.dim, 36);
        assert_eq!(r.sector_dim, 36);
        assert!(r.sigma_cost.total().elapsed() > 0.0);
        assert_eq!(r.energy_history.len(), r.iterations);
    }
}
