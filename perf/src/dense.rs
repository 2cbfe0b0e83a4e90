//! The three dense workloads: `dense_c2`, `x1_sim432`, `dense_roots`.
//!
//! One code path serves all three — they differ in inputs, virtual rank
//! count and root count, which is the point: the same layers, used
//! differently.

use fci_core::sigma::{mixed::mixed_spin_dgemm, same_spin::half_sigma_dgemm};
use fci_core::{
    apply_sigma, build_space, solve_prepared, solve_roots_prepared, DetSpace, DiagMethod,
    DiagOptions, FciOptions, Hamiltonian, PoolParams, Preconditioner, SigmaBreakdown, SigmaCtx,
    SigmaMethod,
};
use fci_ddi::{Backend, CommStats, Ddi, DistMatrix};
use fci_ints::{eri_tensor, kinetic, nuclear_attraction, overlap, BasisSet};
use fci_obs::ObsConfig;
use fci_scf::{rhf, symmetry_adapt, transform_integrals, RhfOptions};
use fci_strings::{Nm1Families, Nm2Families, SinglesTable, SpinStrings};
use fci_xsim::MachineModel;

use crate::clock::timed;
use crate::inputs::{self, Problem};
use crate::machine;
use crate::metrics::{Outcome, Values};
use crate::refs::{self, PointRefs};
use crate::runner::{self, overhead, probe, probe_batch};
use crate::span::Spans;

/// Which inputs a dense workload solves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// C2/svp, FCI(8,13), D2h-blocked.
    C2,
    /// Open 10-site Hubbard chain at half filling.
    Hubbard10,
}

/// One dense workload.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    /// Workload name.
    pub name: &'static str,
    /// Inputs.
    pub system: System,
    /// Virtual MSPs (`Backend::Serial`).
    pub nproc: usize,
    /// 1 = `solve_prepared` (AutoAdjust); more = `solve_roots_prepared`.
    pub roots: usize,
    /// Prefix of this workload's keys in `refs.json`.
    pub key: &'static str,
}

/// The dense workload called `name`.
pub fn case(name: &str) -> Option<Case> {
    let c2 = |name, nproc, key| Case {
        name,
        system: System::C2,
        nproc,
        roots: 1,
        key,
    };
    match name {
        "dense_c2" => Some(c2("dense_c2", 1, "c2.n1")),
        "x1_sim432" => Some(c2("x1_sim432", 432, "c2.n432")),
        "dense_roots" => Some(Case {
            name: "dense_roots",
            system: System::Hubbard10,
            nproc: 1,
            roots: 2,
            key: "h10",
        }),
        _ => None,
    }
}

/// Energy gate of the dense workloads against `refs.json`, hartree.
pub const ENERGY_GATE: f64 = 1e-7;
/// `dense_c2` and `x1_sim432` must give the same energy to this, hartree.
pub const RANK_AGREEMENT_GATE: f64 = 1e-9;

/// Inputs turned into what the solver takes.
pub struct Prepared {
    /// Integrals and sector.
    pub problem: Problem,
    /// Coupling matrices.
    pub ham: Hamiltonian,
    /// String spaces and tables.
    pub space: DetSpace,
}

impl Prepared {
    /// Coupling matrices and string spaces of `problem`.
    pub fn of(problem: Problem, spans: &mut Spans) -> Prepared {
        let ham = spans.scope("core.hamiltonian_new", |_| Hamiltonian::new(&problem.mo));
        let space = spans.scope("core.build_space", |_| {
            build_space(&ham, problem.na, problem.nb, problem.irrep, None)
        });
        Prepared {
            problem,
            ham,
            space,
        }
    }
}

/// Inputs → prepared problem: the whole of `setup_s`.
pub fn set_up(case: &Case, u: f64, spans: &mut Spans) -> Prepared {
    let problem = match case.system {
        System::C2 => inputs::c2_problem(u, spans),
        System::Hubbard10 => spans.scope("serve.spec_build", |_| inputs::hubbard_problem(10, u)),
    };
    Prepared::of(problem, spans)
}

/// Solver options `case` is measured with (single-threaded, untraced).
pub fn options(case: &Case) -> FciOptions {
    let diag = if case.roots == 1 {
        DiagOptions {
            max_iter: 80,
            tol: 1e-6,
            ..DiagOptions::default()
        }
    } else {
        // Residual 1e-4 puts the energies within 1e-8 Ha.
        DiagOptions {
            max_iter: 400,
            tol: 1e-4,
            ..DiagOptions::default()
        }
    };
    FciOptions {
        nproc: case.nproc,
        backend: Backend::Serial,
        method: DiagMethod::AutoAdjust,
        diag,
        ..FciOptions::default()
    }
}

/// What one solve returned, reduced to what the benchmark checks.
pub struct Solved {
    /// Total energies, one per root.
    pub energies: Vec<f64>,
    /// Every root met its residual threshold.
    pub converged: bool,
    /// σ evaluations.
    pub iterations: usize,
    /// Accumulated simulated cost.
    pub cost: SigmaBreakdown,
    /// Converged CI vector (single-root solves).
    pub c: Option<DistMatrix>,
}

/// The workload's unit of work: one solve.
pub fn solve_once(case: &Case, prep: &Prepared, opts: &FciOptions) -> Solved {
    if case.roots == 1 {
        let r = solve_prepared(&prep.space, &prep.ham, opts);
        Solved {
            energies: vec![r.energy],
            converged: r.converged,
            iterations: r.iterations,
            cost: r.sigma_cost,
            c: Some(r.diag.c),
        }
    } else {
        let r = solve_roots_prepared(&prep.space, &prep.ham, opts, case.roots);
        Solved {
            energies: r.energies,
            converged: r.converged.iter().all(|&c| c),
            iterations: r.iterations,
            cost: r.sigma_cost,
            c: None,
        }
    }
}

/// The exact counts of a solve: identical on every repetition, and (on
/// one machine) on every run. Names are per-layer metric names.
pub fn exact_counts(s: &Solved) -> Vec<(&'static str, f64)> {
    let total = s.cost.total();
    let sum = |f: fn(&fci_xsim::Clock) -> f64| total.clocks.iter().map(f).sum::<f64>();
    vec![
        ("diag.iterations", s.iterations as f64),
        ("ddi.net_bytes", total.total_net_bytes()),
        ("ddi.net_msgs", total.total_net_msgs()),
        ("ddi.lock_acquires", total.total_lock_acquires()),
        ("ddi.nxtval_msgs", total.total_nxtval_msgs()),
        (
            "xsim.iter_ms",
            1e3 * total.elapsed() / s.iterations.max(1) as f64,
        ),
        ("xsim.elapsed_s", total.elapsed()),
        ("xsim.gf_per_msp", total.gflops_per_msp()),
        ("xsim.load_imbalance_s", total.load_imbalance()),
        ("xsim.t_dgemm_s", sum(|c| c.t_dgemm)),
        ("xsim.t_net_s", sum(|c| c.t_net)),
    ]
}

/// Reasons `s` counts as a failed operation (empty = it passed).
pub fn failures(case: &Case, s: &Solved, refs: &PointRefs) -> Vec<String> {
    let mut why = Vec::new();
    if !s.converged {
        why.push(format!("{}: did not converge", case.name));
    }
    for (k, e) in s.energies.iter().enumerate() {
        // Both C2 workloads are held to the one-rank reference: that is
        // the 1e-9 agreement between rank counts.
        let (key, gate) = match case.system {
            System::C2 => ("c2.energy".to_string(), RANK_AGREEMENT_GATE),
            System::Hubbard10 => (format!("h10.energy{k}"), ENERGY_GATE),
        };
        match refs.get(&key) {
            Some(r) if (e - r).abs() <= gate => {}
            Some(r) => why.push(format!(
                "{}: energy {e:.12} is {:.3e} Ha from the reference {r:.12} (gate {gate:e})",
                case.name,
                (e - r).abs()
            )),
            None => why.push(format!("{}: refs.json has no `{key}`", case.name)),
        }
    }
    why
}

/// The untraced run: set-up, timed repetitions, checks, end-to-end
/// metrics.
pub fn run(case: &Case, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let (u, refs) = refs::for_seed(seed)?;
    let opts = options(case);
    let (reps, setups) = runner::measure(
        seconds,
        || set_up(case, u, &mut Spans::off()),
        |prep| solve_once(case, prep, &opts),
    );

    let mut out = Outcome::default();
    let why = reps.iter().map(|(s, _)| failures(case, s, &refs)).collect();
    let counts: Vec<_> = reps.iter().map(|(s, _)| exact_counts(s)).collect();
    runner::judge_repetitions(&mut out, case.name, case.key, why, &counts, &refs);
    let times: Vec<f64> = reps.iter().map(|(_, t)| *t).collect();
    runner::book_end_to_end(&mut out, &setups, &times)?;
    Ok(out)
}

/// The traced run: the same set-up and solve under the benchmark's
/// spans, then every layer called on the workload's own operands.
/// `pairs` is how many untraced/traced solve pairs measure
/// `obs.trace_overhead_frac`; `out_dir` receives the fci-obs trace.
pub fn trace(
    case: &Case,
    seed: u64,
    pairs: usize,
    out_dir: &std::path::Path,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let (u, refs) = refs::for_seed(seed)?;
    let mut out = Outcome::default();

    let prep = spans.scope("setup", |sp| set_up(case, u, sp));
    let opts = options(case);
    let (solved, traced_s) = spans.scope(&format!("solve.{}", case.name), |_| {
        timed(|| solve_once(case, &prep, &opts))
    });
    // The untraced twin, for the cost of the benchmark's own spans.
    let (_, plain_s) = timed(|| solve_once(case, &prep, &opts));
    let counts = exact_counts(&solved);
    let why = vec![failures(case, &solved, &refs)];
    runner::judge_repetitions(
        &mut out,
        case.name,
        case.key,
        why,
        std::slice::from_ref(&counts),
        &refs,
    );
    out.values
        .set("perf.span_overhead_frac", overhead(traced_s, plain_s));
    for (name, x) in &counts {
        out.values.set(name, *x);
    }

    if case.name == "dense_c2" {
        // fci-obs tracing to a file, interleaved with untraced solves.
        let obs_path = out_dir.join("obs-dense_c2.jsonl");
        let traced = FciOptions {
            obs: ObsConfig::to_file(&obs_path),
            ..options(case)
        };
        runner::paired_overhead(
            &mut out,
            "obs.trace_overhead_frac",
            pairs,
            plain_s,
            || Ok(timed(|| solve_once(case, &prep, &opts)).1),
            || {
                Ok(spans.scope("obs.traced_solve", |_| {
                    timed(|| solve_once(case, &prep, &traced)).1
                }))
            },
        )?;
        // Scaling efficiency: two ranks on two threads against one rank.
        // Not an end-to-end metric: two busy threads on a shared
        // two-core box do not repeat within a tenth.
        let two = FciOptions {
            nproc: 2,
            backend: Backend::Threads,
            ..options(case)
        };
        let t2 = spans.scope("ddi.threads2_solve", |_| {
            timed(|| solve_once(case, &prep, &two)).1
        });
        out.values.set("ddi.threads2_speedup", plain_s / t2);
        out.notes.push(format!(
            "ddi.threads2_speedup: {} hardware threads available",
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ));
    }

    let v = &mut out.values;
    if case.system == System::C2 {
        setup_layers(u, &prep, v, spans);
    }
    space_layers(&prep, v, spans);
    sigma_layers(case, &prep, &solved, plain_s, v, spans);
    machine::ceilings(v, spans);
    let gflops = v.get("sigma.gflops").unwrap_or(0.0);
    let peak = v.get("linalg.gemm_peak_gflops").unwrap_or(f64::INFINITY);
    v.set("sigma.frac_of_gemm_peak", gflops / peak);
    let (m, n) = mixed_spin_shape(&prep.space);
    v.set(
        "linalg.gemm_sigma_shape_gflops",
        machine::gemm_prepacked_gflops(m, n, m, spans),
    );
    if case.roots > 1 {
        // Block Davidson's small dense algebra at this workload's sizes:
        // the subspace eigenproblem and CholQR² of a root block.
        let max_subspace = opts.diag.max_subspace.max(4 * case.roots);
        v.set("linalg.eigh_s", machine::eigh_seconds(max_subspace, spans));
        v.set(
            "linalg.cholqr2_s",
            machine::cholqr2_seconds(prep.space.dim(), case.roots, spans),
        );
    }
    Ok(out)
}

/// `ints.*` and `scf.*`: each set-up step of the C2 problem called on
/// its own. `rhf` evaluates its own AO integrals, so `scf.rhf_s`
/// contains `ints.oneint_s + ints.eri_s`.
fn setup_layers(u: f64, prep: &Prepared, v: &mut Values, spans: &mut Spans) {
    let molecule = inputs::c2_molecule(u);
    let basis = BasisSet::build(&molecule, "svp");
    v.set(
        "ints.oneint_s",
        probe(spans, "ints.oneint", || {
            (
                overlap(&basis),
                kinetic(&basis),
                nuclear_attraction(&basis, &molecule),
            )
        }),
    );
    v.set(
        "ints.eri_s",
        probe(spans, "ints.eri", || eri_tensor(&basis)),
    );
    let scf_opts = RhfOptions::default();
    v.set(
        "scf.rhf_s",
        probe(spans, "scf.rhf", || rhf(&molecule, &basis, &scf_opts)),
    );
    let scf = rhf(&molecule, &basis, &scf_opts);
    let pg = fci_ints::detect_point_group(&molecule);
    v.set(
        "scf.symadapt_s",
        probe(spans, "scf.symadapt", || {
            symmetry_adapt(&pg, &basis, &scf.s_ao, &scf.mo_coeffs)
        }),
    );
    let n_active = prep.problem.mo.n_orb;
    v.set(
        "scf.transform_s",
        probe(spans, "scf.transform", || {
            transform_integrals(
                &scf.h_ao,
                &scf.eri_ao,
                &scf.mo_coeffs,
                scf.e_nuc,
                inputs::C2_FROZEN,
                n_active,
            )
        }),
    );
}

/// `strings.*` and the `core` constructors, on the workload's problem.
pub fn space_layers(prep: &Prepared, v: &mut Values, spans: &mut Spans) {
    let p = &prep.problem;
    v.set(
        "strings.tables_s",
        probe(spans, "strings.tables", || {
            for n_elec in [p.na, p.nb] {
                let s = SpinStrings::new(p.mo.n_orb, n_elec, &p.mo.orb_sym, p.mo.n_irrep);
                std::hint::black_box((
                    SinglesTable::new(&s),
                    Nm1Families::new(&s),
                    (n_elec >= 2).then(|| Nm2Families::new(&s)),
                ));
            }
        }),
    );
    v.set(
        "core.hamiltonian_new_s",
        probe(spans, "core.hamiltonian_new", || Hamiltonian::new(&p.mo)),
    );
    v.set(
        "core.build_space_s",
        probe(spans, "core.build_space", || {
            build_space(&prep.ham, p.na, p.nb, p.irrep, None)
        }),
    );
}

/// Largest mixed-spin GEMM of `space`: `(nd × n_kβ) = V_K(nd × nd) · D`
/// with `nd` = largest α N−1 family × orbitals.
fn mixed_spin_shape(space: &DetSpace) -> (usize, usize) {
    let nq = (0..space.alpha_nm1.len())
        .map(|k| space.alpha_nm1.of(k).len())
        .max()
        .unwrap_or(0);
    (nq * space.n_orb(), space.beta_nm1.len())
}

/// `sigma.*`, `diag.*` and the `ddi.*` timings: σ and its parts replayed
/// on the converged vector, the preconditioner, the distributed-vector
/// algebra, one-sided gets and accumulates at the workload's column
/// length and rank count.
fn sigma_layers(
    case: &Case,
    prep: &Prepared,
    solved: &Solved,
    solve_s: f64,
    v: &mut Values,
    spans: &mut Spans,
) {
    let (space, ham) = (&prep.space, &prep.ham);
    let nproc = case.nproc;
    let ddi = Ddi::new(nproc, Backend::Serial);
    let model = MachineModel::cray_x1();
    let ctx = SigmaCtx {
        space,
        ham,
        ddi: &ddi,
        model: &model,
        pool: PoolParams::default(),
    };
    // The operand: the converged vector, or — block solves return none —
    // H applied once to the guess, which is as dense.
    let owned;
    let c = match &solved.c {
        Some(c) => c,
        None => {
            let (hc, _) = apply_sigma(&ctx, &space.guess(ham, nproc), SigmaMethod::Dgemm);
            space.project_sector(&hc);
            hc.scale(1.0 / hc.norm());
            owned = hc;
            &owned
        }
    };

    let mut flops = 0.0;
    let apply_s = probe(spans, "sigma.apply", || {
        let (sigma, bd) = apply_sigma(&ctx, c, SigmaMethod::Dgemm);
        flops = bd.total().total_flops();
        sigma
    });
    let scratch = space.zeros_ci(nproc);
    let same_s = probe(spans, "sigma.same_spin", || {
        half_sigma_dgemm(
            &ctx,
            "beta_beta",
            c,
            &scratch,
            &space.beta_singles,
            space.beta_nm2.as_ref(),
        )
    });
    let mixed_s = probe(spans, "sigma.mixed", || mixed_spin_dgemm(&ctx, c, &scratch));
    let mut tstats = vec![CommStats::default(); nproc];
    let transpose_s = probe(spans, "sigma.transpose", || {
        c.transpose(&mut tstats).transpose(&mut tstats)
    });
    v.set("sigma.apply_s", apply_s);
    v.set("sigma.same_spin_s", same_s);
    v.set("sigma.mixed_s", mixed_s);
    v.set("sigma.transpose_s", transpose_s);
    v.set("sigma.flops", flops);
    v.set("sigma.gflops", flops / apply_s / 1e9);
    v.set(
        "sigma.closure_frac",
        1.0 - (2.0 * same_s + mixed_s + transpose_s) / apply_s,
    );

    // Derived, not timed: what the solve spent outside σ.
    let nonsigma = solve_s - solved.iterations as f64 * apply_s;
    v.set("diag.nonsigma_s", nonsigma);
    v.set("diag.nonsigma_frac", nonsigma / solve_s);
    let diagonal = space.diagonal(ham, nproc);
    let model_space = DiagOptions::default().model_space;
    v.set(
        "diag.precond_new_s",
        probe(spans, "diag.precond_new", || {
            Preconditioner::new(space, ham, &diagonal, model_space)
        }),
    );
    let pre = Preconditioner::new(space, ham, &diagonal, model_space);
    // Off the eigenvalue, so the model block stays well conditioned.
    let shift = solved.energies[0] - ham.e_core - 0.05;
    v.set(
        "diag.precond_apply_s",
        probe(spans, "diag.precond_apply", || pre.apply(c, shift)),
    );

    v.set("ddi.dot_s", probe(spans, "ddi.dot", || c.dot(c)));
    v.set(
        "ddi.axpy_s",
        probe(spans, "ddi.axpy", || scratch.axpy(1e-3, c)),
    );
    v.set(
        "ddi.transpose_s",
        probe(spans, "ddi.transpose", || c.transpose(&mut tstats)),
    );
    // One-sided traffic from rank 0 to columns of the last rank: remote
    // whenever there is more than one rank.
    let far: Vec<usize> = c.local_cols(nproc - 1).take(8).collect();
    let mut buf = vec![0.0; far.len() * c.nrows()];
    let mut stats = CommStats::default();
    v.set(
        "ddi.get_cols_us",
        1e6 * probe_batch(spans, "ddi.get_cols", 200, || {
            c.get_cols(0, &far, &mut buf, &mut stats)
        }),
    );
    let column = vec![1e-9; c.nrows()];
    v.set(
        "ddi.acc_col_us",
        1e6 * probe_batch(spans, "ddi.acc_col", 200, || {
            scratch.acc_col(0, far[0], &column, &mut stats)
        }),
    );
    let msgs = v.get("ddi.net_msgs").unwrap_or(0.0);
    if msgs > 0.0 {
        v.set("ddi.host_ns_per_msg", 1e9 * solve_s / msgs);
    }
}
