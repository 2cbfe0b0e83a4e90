#![forbid(unsafe_code)]

//! `fcix-repro` — regenerates every file under `results/`: the paper's
//! Tables 1–3 and Figs. 4–5 on the simulated Cray-X1, the ablations, the
//! diagonalisers' residual traces and the sparse-engine sweep.
//!
//! ```text
//! fcix-repro <output>             print one output: table1 table2 table3
//!                                 fig4 fig5 convergence ablate-taskpool
//!                                 ablate-diag ablate-io sparse
//! fcix-repro convergence <index>  residual traces of Table 2 system `index`
//!                                 (0 = H2O … 3 = O atom; default 2 = CN⁺)
//! fcix-repro sparse --quick       the CI smoke: 8-site chain only
//! fcix-repro all                  rewrite every file under results/
//! ```
//!
//! Everything printed is simulated time, operation counts, iteration
//! counts or energies, so a rerun on the same host reproduces the files
//! byte for byte. Host time is measured in one place only, `fcix-perf`
//! (`perf/`). `sparse` exits 1 when its dense FCI reference does not
//! converge or a sparse engine misses it by more than 1.6 mHa; `all` does
//! too, after writing every file.

mod systems;

use std::path::Path;
use std::process::ExitCode;

use fci_core::{
    solve_prepared, DetSpace, DiagMethod, DiagOptions, FciOptions, FciResult, Hamiltonian,
    PerfModel, PoolParams, SigmaBreakdown, SigmaMethod, TaskPool,
};
use fci_scf::MoIntegrals;
use fci_sparse::{solve_cdfci, solve_selected, SparseOptions, SparseResult};
use fci_xsim::{Clock, MachineModel, RunReport};
use systems::{c2_system, fig4_system, fig5_system, table2_systems};

/// What one subcommand prints, and whether its accuracy gate failed.
#[derive(Default)]
struct Out {
    text: String,
    failed: bool,
}

/// `println!` into an [`Out`].
macro_rules! say {
    ($o:expr) => {
        $o.text.push('\n')
    };
    ($o:expr, $($fmt:tt)*) => {{
        $o.text.push_str(&format!($($fmt)*));
        $o.text.push('\n');
    }};
}

/// A subcommand's body: print into the [`Out`].
type Run = fn(&mut Out);

/// Every committed output: its subcommand, its file under `results/`, and
/// the function that prints it. `all` walks this table.
const OUTPUTS: [(&str, &str, Run); 10] = [
    ("table1", "table1.txt", table1),
    ("table2", "table2.txt", table2),
    ("table3", "table3.txt", table3),
    ("fig4", "fig4.txt", fig4),
    ("fig5", "fig5.txt", fig5),
    ("convergence", "fig_convergence_cn+.csv", |o| {
        convergence(o, 2)
    }),
    ("ablate-taskpool", "ablate_taskpool.txt", ablate_taskpool),
    ("ablate-diag", "ablate_diag.txt", ablate_diag),
    ("ablate-io", "ablate_io.txt", ablate_io),
    ("sparse", "sparse_sweep.txt", sparse),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let mut out = Out::default();
    match args[..] {
        ["all"] => return all(),
        ["convergence", index] => match index.parse() {
            Ok(index) => convergence(&mut out, index),
            Err(_) => return usage(),
        },
        ["sparse", "--quick"] => sparse_quick(&mut out),
        [cmd] => match OUTPUTS.iter().find(|(name, ..)| *name == cmd) {
            Some((.., run)) => run(&mut out),
            None => return usage(),
        },
        _ => return usage(),
    }
    print!("{}", out.text);
    gate_status(out.failed)
}

fn usage() -> ExitCode {
    let names: Vec<&str> = OUTPUTS.iter().map(|(name, ..)| *name).collect();
    eprintln!(
        "usage: fcix-repro <{}|all>\n       \
         fcix-repro convergence <index>\n       \
         fcix-repro sparse --quick",
        names.join("|")
    );
    ExitCode::from(2)
}

/// Rewrite every file under `results/` (run from the repository root).
fn all() -> ExitCode {
    let mut failed = false;
    for (_, file, run) in OUTPUTS {
        let mut out = Out::default();
        run(&mut out);
        let path = Path::new("results").join(file);
        if let Err(e) = std::fs::write(&path, &out.text) {
            eprintln!("fcix-repro: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
        failed |= out.failed;
    }
    gate_status(failed)
}

fn gate_status(failed: bool) -> ExitCode {
    if failed {
        eprintln!(
            "fcix-repro: a solve behind an E(FCI) or the dense reference did not \
             converge, or a sparse engine missed it by more than {GATE_MHA} mHa"
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

// ---------------- shared pieces ----------------

/// A right-aligned fixed-width table: headers and widths declared once.
struct Table(Vec<usize>);

impl Table {
    /// Declare the columns and print the header row.
    fn new(o: &mut Out, columns: &[(&str, usize)]) -> Table {
        let table = Table(columns.iter().map(|&(_, w)| w).collect());
        let headers: Vec<String> = columns.iter().map(|&(h, _)| h.into()).collect();
        table.row(o, &headers);
        table
    }

    fn row(&self, o: &mut Out, cells: &[String]) {
        let cells: Vec<String> = cells
            .iter()
            .zip(&self.0)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        say!(o, "{}", cells.join("  "));
    }
}

/// The five diagonalisers of Table 2, with their CSV column names.
const METHODS: [(&str, DiagMethod); 5] = [
    ("davidson", DiagMethod::Davidson),
    ("two_vector", DiagMethod::TwoVector),
    ("olsen", DiagMethod::Olsen),
    ("olsen_0.7", DiagMethod::OlsenDamped),
    ("auto", DiagMethod::AutoAdjust),
];

/// The solver's defaults at the paper's convergence criterion: residual
/// 2-norm below 1e-5.
fn paper_tol() -> DiagOptions {
    DiagOptions {
        tol: 1e-5,
        ..DiagOptions::default()
    }
}

/// Format seconds with engineering sanity.
fn fmt_s(t: f64) -> String {
    if t >= 100.0 {
        format!("{t:.0} s")
    } else if t >= 1.0 {
        format!("{t:.1} s")
    } else if t >= 1e-3 {
        format!("{:.1} ms", t * 1e3)
    } else {
        format!("{:.1} µs", t * 1e6)
    }
}

/// Format bytes.
fn fmt_bytes(b: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = b;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.2} {}", UNITS[u])
}

// ---------------- the paper's tables and figures ----------------

/// **Table 1** — performance model of the α-β routine: operation and
/// communication counts of the MOC and DGEMM algorithms, the analytic
/// model next to the instrumented counters of one σ on 64 MSPs.
fn table1(o: &mut Out) {
    let sys = fig4_system();
    let (n, na, nb, p) = (sys.ham.n, sys.na, sys.nb, 64);
    let nci = sys.space.dim() as f64;
    let pm = PerfModel::new(nci, n, na, nb);
    let dg = sys
        .sigma(p, SigmaMethod::Dgemm, PoolParams::default())
        .alpha_beta;
    let moc = sys
        .sigma(p, SigmaMethod::Moc, PoolParams::default())
        .alpha_beta;
    // Communication scaled to "all remote": measured bytes × P/(P−1) / 8.
    // The model's DGEMM count (3 Nci Nα) includes DDI_ACC's 2× payload,
    // and so do the byte counters: the numbers compare directly.
    let words = |r: &RunReport| r.total_net_bytes() / 8.0 * (p as f64 / (p as f64 - 1.0));

    say!(
        o,
        "Table 1 — α-β routine performance model (model vs measured)"
    );
    say!(
        o,
        "system: {} (Nci={nci:.3e}, n={n}, Nα={na}, Nβ={nb}), measured at P={p}\n",
        sys.name
    );
    let t = Table::new(
        o,
        &[
            ("quantity", 26),
            ("model", 16),
            ("measured", 16),
            ("meas/mod", 10),
        ],
    );
    for (name, m, meas) in [
        ("MOC ops (flops)", pm.moc_ops(), moc.total_flops()),
        ("DGEMM ops (flops)", pm.dgemm_ops(), dg.total_flops()),
        ("MOC comm (words)", 2.0 * pm.moc_comm_words(), words(&moc)),
        ("DGEMM comm (words)", pm.dgemm_comm_words(), words(&dg)),
    ] {
        let ratio = format!("{:.2}", meas / m);
        t.row(
            o,
            &[
                name.into(),
                format!("{m:.3e}"),
                format!("{meas:.3e}"),
                ratio,
            ],
        );
    }
    say!(
        o,
        "\ncommunication ratio MOC/DGEMM: model {:.1}×, measured {:.1}×",
        2.0 * pm.moc_comm_words() / pm.dgemm_comm_words(),
        words(&moc) / words(&dg)
    );
    // A space before a line-continuation `\` is kept: it indents the next line.
    say!(
        o,
        "(MOC comm is modelled at 2× Nci·Nα·(n−Nα) words because our MOC\n \
         mixed-spin routine pushes updates with DDI_ACC, which moves 2× the\n \
         payload — the paper's collective-gather variant moves 1×.)\n\
         \nkernels: MOC = indexed multiply-add (DAXPY class, ~2 GF/s/MSP)\n         \
         DGEMM = dense multiply (~10-11 GF/s/MSP beyond 300x300)"
    );
}

/// **Table 2** — iterations required by the diagonalisers: the Davidson
/// subspace, the paper's exact two-vector comparator, Olsen, modified
/// Olsen (λ = 0.7) and the automatically adjusted single-vector method,
/// on the analogues of H3COH, H2O2, CN⁺ and the O atom (paper: plain
/// Olsen fails to converge tightly, λ = 0.7 fixes some cases but not CN⁺,
/// the auto-adjusted method matches or beats the subspace method).
fn table2(o: &mut Out) {
    say!(
        o,
        "Table 2 — diagonalization method comparison (analogue systems)\n\
         convergence: residual 2-norm < 1e-5 (the paper's criterion); NC = not converged in 60 iterations\n"
    );
    let t = Table::new(
        o,
        &[
            ("system", 18),
            ("group", 6),
            ("dim", 10),
            ("sector", 10),
            ("Davidson", 9),
            ("2-vector", 10),
            ("Olsen", 7),
            ("Ol(0.7)", 12),
            ("Auto", 6),
            ("E(FCI) [Eh]", 16),
        ],
    );
    for sys in table2_systems() {
        let mut cells = vec![
            sys.name.clone(),
            sys.group.to_string(),
            sys.space.dim().to_string(),
            sys.space.sector_dim().to_string(),
        ];
        let mut last_converged = None;
        for (_, method) in METHODS {
            let r = sys.solve(1, method, paper_tol());
            if r.converged {
                cells.push(r.iterations.to_string());
                last_converged = Some(r);
            } else {
                cells.push("NC".into());
            }
        }
        let energy = fci_energy(o, &sys.name, last_converged.as_ref());
        cells.push(format!("{energy:.8}"));
        t.row(o, &cells);
        if let Some(e_scf) = sys.e_scf {
            say!(
                o,
                "    (RHF = {e_scf:.8} Eh, correlation = {:.6} Eh)",
                energy - e_scf
            );
        }
    }
    say!(
        o,
        "\n(\"2-vector\" is the paper's Table 2 \"Davidson\" comparator: the exact 2x2\n\
         subspace of {{C, t}} with H*t stored — the memory doubling the auto method avoids.)\n\
         \npaper's qualitative claims to check against the table above:\n  \
         * plain Olsen struggles/fails on the multireference case (CN+)\n  \
         * the auto-adjusted method converges everywhere, with no subspace storage\n  \
         * auto-adjusted iteration counts <= Davidson subspace counts (or close)"
    );
}

/// **Table 3** — the C2 X¹Σg⁺ capability benchmark on 432 MSPs.
///
/// Paper: FCI(8,66), 64.9 billion determinants, D2h; per iteration β-β
/// 62 s @ 8.5 GF/MSP, α-β 167 s @ 8.8 GF/MSP, load imbalance 9 s, total
/// 249 s @ ~8 GF/MSP; 6.2 TB network traffic per iteration; 25 iterations
/// of the auto-adjusted method to residual 1e-5; 3.4 TFlop/s aggregate
/// (62 % of peak). Here: the C2/svp analogue (FCI(8,16), 16 active
/// orbitals, D2h blocked) solved with the same method on 432 *virtual*
/// MSPs, the same rows read off the simulated clocks.
fn table3(o: &mut Out) {
    let sys = c2_system();
    let msps = 432;
    let model = MachineModel::cray_x1();
    let diag = DiagOptions {
        max_iter: 80,
        ..paper_tol()
    };
    let r = sys.solve(msps, DiagMethod::AutoAdjust, diag);
    let cost = &r.sigma_cost;
    let its = r.iterations.max(1) as f64;
    let total = cost.total();
    // Checkpoint I/O of one CI vector per iteration at the X1 disk rates:
    // the vector as the program stores it, its symmetry sector.
    let ci_bytes = (r.sector_dim * 8) as f64;
    let io_s = ci_bytes / model.disk_read + ci_bytes / model.disk_write;
    let routine = |o: &mut Out, label: &str, t: f64, rep: &RunReport| {
        say!(
            o,
            "{label:<22} {:.4} s / {:.2} GF/MSP",
            t / its,
            rep.gflops_per_msp()
        );
    };

    say!(
        o,
        "Table 3 — FCI benchmark (C2 analogue) on {msps} virtual MSPs"
    );
    say!(o, "{:<22} C2", "Molecule");
    say!(o, "{:<22} X 1Sg+ (irrep 0 sector)", "State");
    say!(o, "{:<22} svp window (16 active orbitals)", "Basis");
    say!(
        o,
        "{:<22} FCI({},{})  [{}]",
        "CI space",
        sys.na + sys.nb,
        sys.ham.n,
        sys.group
    );
    say!(
        o,
        "{:<22} {}  (sector {})",
        "CI dimension",
        r.dim,
        r.sector_dim
    );
    say!(o, "{:<22} {}", "MSPs", msps);
    routine(o, "Beta-beta", cost.beta_beta.elapsed(), &cost.beta_beta);
    let aa = cost.alpha_alpha.elapsed() + cost.transpose.elapsed();
    routine(o, "Alpha-alpha(+transp)", aa, &cost.alpha_alpha);
    routine(o, "Alpha-beta", cost.alpha_beta.elapsed(), &cost.alpha_beta);
    let imbalance = cost.alpha_beta.load_imbalance() / its;
    say!(o, "{:<22} {imbalance:.4} s", "Load imbalance (ab)");
    routine(o, "Total per iteration", total.elapsed(), &total);
    say!(
        o,
        "{:<22} {:.2} TFlop/s aggregate ({:.0}% of peak)",
        "Sustained",
        total.tflops(),
        100.0 * total.gflops_per_msp() * 1e9 / model.peak_flops
    );
    let traffic = fmt_bytes(total.total_net_bytes() / its);
    say!(o, "{:<22} {traffic} per iteration", "Network traffic");
    say!(
        o,
        "{:<22} {io_s:.3} s per iteration (checkpoint at 293 MB/s R / 246 MB/s W)",
        "Disk IO"
    );
    let converged = if r.converged {
        "converged"
    } else {
        "NOT converged"
    };
    say!(
        o,
        "{:<22} {} ({converged}) to residual 1e-5",
        "Iterations",
        r.iterations
    );
    let energy = fci_energy(o, "C2", Some(&r));
    say!(o, "{:<22} {energy:.8} Eh", "E(FCI)");
    if let Some(e) = sys.e_scf {
        say!(o, "{:<22} {e:.8} Eh (corr {:.6})", "E(RHF)", energy - e);
    }
}

/// **Figure 4** — MOC vs DGEMM σ timing and scalability, 16–128 MSPs, on
/// the O-atom analogue (paper: the MOC same-spin routine "does not scale
/// at all" — its double-excitation list is replicated — while every
/// DGEMM routine scales, and DGEMM mixed-spin cuts communication ~25×).
fn fig4(o: &mut Out) {
    let sys = fig4_system();
    say!(o, "Figure 4 — MOC vs DGEMM σ timing vs MSP count");
    say!(o, "{}\n", sys.describe());
    let t = Table::new(
        o,
        &[
            ("MSPs", 6),
            ("bb(MOC) [s]", 16),
            ("ab(MOC) [s]", 16),
            ("bb(DGEMM) [s]", 16),
            ("ab(DGEMM) [s]", 16),
            ("comm(MOC)", 12),
            ("comm(DG)", 12),
        ],
    );
    // "Same-spin" rows: β-β plus the α-α pass (both use the same-spin
    // kernel; the paper's O runs are dominated by the β-like side).
    let same_spin = |bd: &SigmaBreakdown| bd.beta_beta.elapsed() + bd.alpha_alpha.elapsed();
    for p in [16, 32, 64, 128] {
        let moc = sys.sigma(p, SigmaMethod::Moc, PoolParams::default());
        let dg = sys.sigma(p, SigmaMethod::Dgemm, PoolParams::default());
        t.row(
            o,
            &[
                p.to_string(),
                format!("{:.4}", same_spin(&moc)),
                format!("{:.4}", moc.alpha_beta.elapsed()),
                format!("{:.4}", same_spin(&dg)),
                format!("{:.4}", dg.alpha_beta.elapsed()),
                fmt_bytes(moc.alpha_beta.total_net_bytes()),
                fmt_bytes(dg.alpha_beta.total_net_bytes()),
            ],
        );
    }
    say!(
        o,
        "\nexpected shape (paper): bb(MOC) flat with MSPs; all DGEMM rows ~1/P;\n\
         ab(MOC) communication volume >> ab(DGEMM) (factor ~2(n−Nα)/3)."
    );
}

/// **Figure 5** — parallel speedup of the DGEMM σ, 128→256 MSPs, on the
/// O⁻ analogue, relative to 128 MSPs, with sustained GFlop/s per MSP per
/// routine (paper: near-perfect speedup, same-spin at 9.6 GF/MSP,
/// mixed-spin 8.5→8.1 GF/MSP).
fn fig5(o: &mut Out) {
    let sys = fig5_system();
    say!(o, "Figure 5 — DGEMM σ speedup, 128→256 MSPs");
    say!(o, "{}\n", sys.describe());
    let t = Table::new(
        o,
        &[
            ("MSPs", 6),
            ("t(σ) [s]", 12),
            ("speedup", 10),
            ("ideal", 10),
            ("ss GF/MSP", 14),
            ("ab GF/MSP", 14),
            ("imbalance", 12),
        ],
    );
    let mut t128 = None;
    for p in [128, 160, 192, 224, 256] {
        let bd = sys.sigma(p, SigmaMethod::Dgemm, PoolParams::default());
        let total = bd.total().elapsed();
        let t0 = *t128.get_or_insert(total);
        let mut ss = bd.beta_beta.clone();
        ss.merge(&bd.alpha_alpha);
        t.row(
            o,
            &[
                p.to_string(),
                format!("{total:.4}"),
                format!("{:.2}", t0 / total * 128.0),
                p.to_string(),
                format!("{:.2}", ss.gflops_per_msp()),
                format!("{:.2}", bd.alpha_beta.gflops_per_msp()),
                format!("{:.4} s", bd.alpha_beta.load_imbalance()),
            ],
        );
    }
    say!(
        o,
        "\nexpected shape (paper): speedup tracks the ideal line closely;\n\
         per-MSP GFlop/s roughly flat (slight decline in the mixed-spin routine)."
    );
}

/// Residual-norm histories of every diagonaliser on Table 2 system
/// `index` (clamped to the last), as CSV: the traces behind the table's
/// iteration counts, where Olsen's oscillation, the damped-Olsen crawl and
/// the auto-adjusted method's tracking of the exact 2×2 show.
fn convergence(o: &mut Out, index: usize) {
    let systems = table2_systems();
    let sys = &systems[index.min(systems.len() - 1)];
    eprintln!(
        "# system: {} ({} sector determinants)",
        sys.name,
        sys.space.sector_dim()
    );
    let traces: Vec<Vec<f64>> = METHODS
        .iter()
        .map(|&(_, m)| sys.solve(1, m, DiagOptions::default()).residual_history)
        .collect();
    // One column per method, empty once a method stopped.
    say!(o, "iteration,{}", METHODS.map(|(name, _)| name).join(","));
    for i in 0..traces.iter().map(Vec::len).max().unwrap_or(0) {
        let mut line = i.to_string();
        for trace in &traces {
            line.push(',');
            if let Some(v) = trace.get(i) {
                line.push_str(&format!("{v:.6e}"));
            }
        }
        say!(o, "{line}");
    }
}

// ---------------- ablations ----------------

/// **Ablation** — task aggregation in the dynamic load balancer (Fig. 3):
/// coarse static-like chunks (1 task/proc), the paper's aggregated
/// decreasing-size pool, and flat fine-grained pools for the mixed-spin
/// routine on 96 MSPs. Load imbalance against counter (SHMEM_SWAP)
/// traffic is the trade-off the aggregation balances.
fn ablate_taskpool(o: &mut Out) {
    let sys = fig5_system();
    let p = 96;
    say!(
        o,
        "Ablation — task pool shape for the α-β routine ({} on {p} MSPs)\n",
        sys.name
    );
    let t = Table::new(
        o,
        &[
            ("pool", 26),
            ("tasks", 10),
            ("elapsed [s]", 14),
            ("imbalance [s]", 14),
            ("nxtval msgs", 14),
        ],
    );
    let flat = |per_proc| PoolParams {
        fine_per_proc: per_proc,
        large_per_proc: per_proc,
        small_per_proc: 0,
    };
    for (name, pool) in [
        ("coarse (1/proc)", flat(1)),
        ("aggregated (paper)", PoolParams::default()),
        ("flat fine (64/proc)", flat(64)),
        ("flat fine (256/proc)", flat(256)),
    ] {
        let ab = sys.sigma(p, SigmaMethod::Dgemm, pool).alpha_beta;
        let tasks = TaskPool::aggregated(sys.space.alpha_nm1.len(), p, pool).len();
        t.row(
            o,
            &[
                name.into(),
                tasks.to_string(),
                format!("{:.4}", ab.elapsed()),
                format!("{:.4}", ab.load_imbalance()),
                ab.total_nxtval_msgs().to_string(),
            ],
        );
    }
    say!(
        o,
        "\nexpected: coarse pools show the worst imbalance; very fine pools pay\n\
         counter latency; the aggregated decreasing-size pool sits at the knee."
    );
}

/// **Ablation** — diagonaliser design choices: the model-space
/// preconditioner size (the paper's convergence aid) and fixed-λ Olsen
/// against the auto-adjusted λ (eqs. 13–15) on the multireference CN⁺
/// analogue, and the Davidson subspace cap (memory) against iterations.
fn ablate_diag(o: &mut Out) {
    let systems = table2_systems();
    let (h2o, cn) = (&systems[0], &systems[2]);
    let runs = [0, 5, 20, 50].map(|model_space| {
        let diag = DiagOptions {
            model_space,
            ..paper_tol()
        };
        (
            model_space.to_string(),
            cn.solve(1, DiagMethod::AutoAdjust, diag),
        )
    });
    knob_sweep(
        o,
        "Ablation 1 — model-space size (CN+ analogue, AutoAdjust, residual 1e-5)",
        "model space",
        runs,
    );

    let fixed = [0.3, 0.5, 0.7, 0.9, 1.0].map(|fixed_lambda| {
        let diag = DiagOptions {
            fixed_lambda,
            ..paper_tol()
        };
        let r = cn.solve(1, DiagMethod::OlsenDamped, diag);
        (format!("{fixed_lambda:.1}"), r)
    });
    let auto = (
        "auto".into(),
        cn.solve(1, DiagMethod::AutoAdjust, paper_tol()),
    );
    knob_sweep(
        o,
        "\nAblation 2 — fixed λ sweep vs auto-adjusted λ (CN+ analogue)",
        "lambda",
        fixed.into_iter().chain([auto]),
    );

    let runs = [2, 3, 6, 12, 24].map(|max_subspace| {
        let diag = DiagOptions {
            max_subspace,
            ..paper_tol()
        };
        (
            max_subspace.to_string(),
            h2o.solve(1, DiagMethod::Davidson, diag),
        )
    });
    knob_sweep(
        o,
        "\nAblation 3 — Davidson subspace cap (H2O analogue)",
        "max subspace",
        runs,
    );
    say!(
        o,
        "\nthe cap-2 row is Table 2's 2-vector H2O entry: that method is this loop\n\
         collapsed at {{C, t}}, one σ per iteration.\n\
         memory note: Davidson stores (subspace × 2) CI-sized vectors; the\n\
         auto-adjusted method stores O(1) — the paper's motivation for it."
    );
}

/// One [`ablate_diag`] sweep: a knob setting per row, with the solve's
/// iterations, convergence and energy. An unconverged row prints the
/// iteration cap, `NC` and the last residual's order of magnitude in
/// place of the energy: the digits of an unconverged energy amplify the
/// last bit of every earlier step (they differ between builds that do
/// and do not fuse multiply-adds).
fn knob_sweep(
    o: &mut Out,
    title: &str,
    knob: &str,
    runs: impl IntoIterator<Item = (String, FciResult)>,
) {
    say!(o, "{title}\n");
    let t = Table::new(
        o,
        &[(knob, 14), ("iters", 12), ("converged", 12), ("E [Eh]", 16)],
    );
    for (setting, r) in runs {
        let (converged, outcome) = if r.converged {
            ("true".into(), format!("{:.8}", r.energy))
        } else {
            let res = r.residual_history.last().copied().unwrap_or(f64::NAN);
            ("NC".into(), format!("|r| ~ 1e{}", res.log10().floor()))
        };
        t.row(o, &[setting, r.iterations.to_string(), converged, outcome]);
    }
}

/// **Ablation** — the I/O bottleneck that motivates the single-vector
/// diagonaliser (paper §2.2: "storing the subspace vectors on disk implies
/// a huge waste of computing resources"). A Davidson run whose subspace is
/// disk-resident pays, per iteration, one write of the new expansion/σ
/// pair plus a read of the whole stored subspace, at the measured X1 disk
/// rates (293 MB/s read, 246 MB/s write, Table 3); the auto-adjusted
/// method keeps O(1) vectors in memory and pays nothing.
fn ablate_io(o: &mut Out) {
    let sys = &table2_systems()[0]; // H2O analogue
    let model = MachineModel::cray_x1();
    say!(
        o,
        "Ablation — disk-resident Davidson subspace vs single-vector method"
    );
    say!(o, "system: {}\n", sys.name);
    let t = Table::new(
        o,
        &[
            ("method", 22),
            ("iters", 8),
            ("σ time [s]", 14),
            ("disk I/O [s]", 16),
            ("total [s]", 16),
            ("mem vectors", 14),
        ],
    );
    let cap = DiagOptions::default().max_subspace;
    for (name, method, disk_subspace) in [
        ("Davidson (in-core)", DiagMethod::Davidson, false),
        ("Davidson (disk)", DiagMethod::Davidson, true),
        ("AutoAdjust", DiagMethod::AutoAdjust, false),
    ] {
        let r = sys.solve(1, method, DiagOptions::default());
        let sigma_t = r.sigma_cost.total().elapsed();
        let vec_bytes = (r.dim * 8) as f64;
        let mut io = Clock::default();
        let mem_vectors = if disk_subspace {
            // Iteration k writes b_k and σ_k and re-reads the whole
            // stored subspace (2 vectors per iteration, up to the cap).
            for k in 1..=r.iterations {
                let read = (2 * k.min(cap)) as f64 * vec_bytes;
                io.charge_io(&model, read, 2.0 * vec_bytes);
            }
            "2 (+disk)".to_string()
        } else if method == DiagMethod::Davidson {
            (2 * cap).to_string()
        } else {
            "4".to_string()
        };
        let io_t = io.t_io;
        t.row(
            o,
            &[
                name.into(),
                r.iterations.to_string(),
                fmt_s(sigma_t),
                fmt_s(io_t),
                fmt_s(sigma_t + io_t),
                mem_vectors,
            ],
        );
    }
    say!(
        o,
        "\nreading: the disk-resident subspace multiplies wall-clock while the\n\
         single-vector method gets subspace-free memory *without* the I/O tax —\n\
         the §2.2 argument, quantified. (At the paper's 65e9-determinant scale\n\
         one vector is 520 GB; a 12-vector subspace would be 6.2 TB on disk,\n\
         ~7 hours of I/O per iteration at the X1's measured 250 MB/s.)"
    );
}

// ---------------- sparse engines ----------------

/// The accuracy gate: both sparse engines must land within 1.6 mHa of
/// the dense FCI energy on a shared space.
const GATE_MHA: f64 = 1.6;

/// Open half-filled Hubbard chain (t = 1, U = 4) as (space, Hamiltonian).
fn hubbard_chain(sites: usize) -> (DetSpace, Hamiltonian) {
    let mo = MoIntegrals::hubbard_chain(sites, 1.0, 4.0, false);
    let ham = Hamiltonian::new(&mo);
    let space = DetSpace::for_hamiltonian(&ham, sites / 2, sites / 2, 0);
    (space, ham)
}

/// Davidson iterations the dense reference may take: the 8- and 10-site
/// chains converge in 100 and 147.
const DENSE_MAX_ITER: usize = 300;

/// The chain's dense FCI energy (Davidson — lattice diagonals are
/// degenerate), said on the accuracy line: NaN, and `o` marked failed,
/// if the solve stops unconverged.
fn dense_reference(o: &mut Out, space: &DetSpace, ham: &Hamiltonian, max_iter: usize) -> f64 {
    let opts = FciOptions {
        method: DiagMethod::Davidson,
        diag: DiagOptions {
            max_iter,
            ..DiagOptions::default()
        },
        ..FciOptions::default()
    };
    let r = solve_prepared(space, ham, &opts);
    let e = fci_energy(o, "the dense reference", Some(&r));
    say!(
        o,
        "accuracy: {}-site chain, {} determinants, dense E = {e:.9}",
        ham.n,
        space.sector_dim()
    );
    e
}

/// An energy fcix-repro may print as FCI: `r`'s if it converged.
/// Otherwise a FAIL line naming `what`, `o` marked failed, and NaN.
fn fci_energy(o: &mut Out, what: &str, r: Option<&FciResult>) -> f64 {
    match r {
        Some(r) if r.converged => r.energy,
        _ => {
            say!(o, "FAIL: {what} has no converged solve, so no FCI energy");
            o.failed = true;
            f64::NAN
        }
    }
}

/// Say whether both engines' errors pass [`GATE_MHA`]; mark `o` failed if not.
fn gate(o: &mut Out, errors_mha: [f64; 2]) {
    if errors_mha.iter().all(|&e| e <= GATE_MHA) {
        say!(
            o,
            "OK: both sparse engines within {GATE_MHA} mHa of dense FCI"
        );
    } else {
        say!(
            o,
            "FAIL: sparse engine misses dense FCI by more than {GATE_MHA} mHa"
        );
        o.failed = true;
    }
}

/// A sparse solve's curve: one row per CDFCI sweep / selected-CI round.
fn history(o: &mut Out, r: &SparseResult) {
    let t = Table::new(o, &[("sweep", 9), ("support", 9), ("E [Eh]", 14)]);
    for s in &r.history {
        let cells = [
            s.sweep.to_string(),
            s.support.to_string(),
            format!("{:.9}", s.energy),
        ];
        t.row(o, &cells);
    }
}

/// Both sparse engines against dense FCI on the `sites`-site chain, with
/// their errors gated at [`GATE_MHA`].
fn accuracy(o: &mut Out, sites: usize, cdfci: SparseOptions, selected: SparseOptions) {
    let (space, ham) = hubbard_chain(sites);
    let e_dense = dense_reference(o, &space, &ham, DENSE_MAX_ITER);
    let sector = space.sector_dim();
    let runs = [
        ("cdfci   ", solve_cdfci(&space, &ham, &cdfci)),
        ("selected", solve_selected(&space, &ham, &selected)),
    ];
    let errors = runs.map(|(name, r)| {
        let err = (r.energy() - e_dense).abs() * 1e3;
        let share = 100.0 * r.support as f64 / sector as f64;
        say!(
            o,
            "  {name} E {:.9}  err {err:.5} mHa  support {:>6} ({share:.0}% of sector)",
            r.energy(),
            r.support
        );
        err
    });
    gate(o, errors);
}

/// The CI smoke: [`accuracy`] on the 8-site chain (4,900 determinants).
fn sparse_quick(o: &mut Out) {
    let cdfci = SparseOptions {
        tol: 1e-10,
        ..SparseOptions::default()
    };
    let selected = SparseOptions {
        eps: 1e-4,
        tol: 1e-9,
        ..SparseOptions::default()
    };
    accuracy(o, 8, cdfci, selected);
}

/// Sparse engines against the dense DGEMM engine on a shared space,
/// selection-space growth, and a bounded-memory solve whose *formal*
/// dimension exceeds 10⁸ — the regime the dense vector cannot enter:
///
/// 1. **accuracy**: 10-site half-filled Hubbard chain (63,504
///    determinants), dense Davidson vs CDFCI vs selected CI, each
///    engine's error in mHa against [`GATE_MHA`];
/// 2. **growth**: 12-site chain (853,776 determinants), selected CI at a
///    ladder of thresholds ε, with every round's space and energy;
/// 3. **scale**: 16-site chain, formal dimension C(16,8)² = 165,636,900,
///    solved by CDFCI under a hard 500k-determinant store bound, with its
///    support curve and peak store bytes.
fn sparse(o: &mut Out) {
    let cdfci = SparseOptions {
        threads: 4,
        tol: 1e-11,
        max_updates: 4_000_000,
        ..SparseOptions::default()
    };
    let selected = SparseOptions {
        eps: 1e-5,
        tol: 1e-10,
        ..SparseOptions::default()
    };
    accuracy(o, 10, cdfci, selected);

    let sites = 12;
    let (space, ham) = hubbard_chain(sites);
    say!(
        o,
        "\ngrowth: {sites}-site chain, {} determinants, selected CI vs ε:",
        space.sector_dim()
    );
    for eps in [3e-3, 1e-3, 3e-4] {
        let r = solve_selected(
            &space,
            &ham,
            &SparseOptions {
                threads: 4,
                eps,
                tol: 1e-9,
                max_outer: 12,
                ..SparseOptions::default()
            },
        );
        say!(
            o,
            "\n  eps {eps:>7.0e}: E {:.9}  support {:>7} ({:.2}% of sector)  rounds {}",
            r.energy(),
            r.support,
            100.0 * r.support as f64 / space.sector_dim() as f64,
            r.history.len()
        );
        history(o, &r);
    }

    let sites = 16;
    let (space, ham) = hubbard_chain(sites);
    let formal = space.alpha.len() as f64 * space.beta.len() as f64;
    assert!(formal >= 1e8, "scale system must exceed 1e8 determinants");
    let big = solve_cdfci(
        &space,
        &ham,
        &SparseOptions {
            threads: 4,
            max_store: 500_000,
            max_updates: 120_000,
            tol: 1e-9,
            ..SparseOptions::default()
        },
    );
    say!(
        o,
        "\nscale: {sites}-site chain, formal dimension {formal:.3e} (≥ 1e8), CDFCI:"
    );
    say!(
        o,
        "  E {:.9}  support {} of {formal:.3e}  peak {} B  dropped {}  updates {}\n",
        big.energy(),
        big.support,
        big.peak_bytes,
        big.dropped,
        big.iterations
    );
    history(o, &big);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(2048.0), "2.00 KB");
        assert_eq!(fmt_s(0.5), "500.0 ms");
        assert_eq!(fmt_s(2.0), "2.0 s");
    }

    #[test]
    fn a_miss_beyond_the_gate_fails_the_output() {
        let mut o = Out::default();
        gate(&mut o, [0.1, GATE_MHA]);
        assert!(!o.failed && o.text.starts_with("OK"));
        gate(&mut o, [GATE_MHA + 0.1, 0.0]);
        assert!(o.failed && o.text.contains("FAIL"));
    }

    #[test]
    fn an_unconverged_reference_fails_the_output() {
        let (space, ham) = hubbard_chain(8);
        let mut o = Out::default();
        dense_reference(&mut o, &space, &ham, 60);
        assert!(o.failed && o.text.contains("FAIL"), "{}", o.text);
        let mut o = Out::default();
        dense_reference(&mut o, &space, &ham, DENSE_MAX_ITER);
        assert!(!o.failed, "{}", o.text);
    }

    #[test]
    fn a_table_row_with_no_converged_solve_fails_the_output() {
        let mut o = Out::default();
        assert!(fci_energy(&mut o, "X", None).is_nan());
        assert!(o.failed && o.text.starts_with("FAIL"), "{}", o.text);
    }

    #[test]
    fn every_output_has_its_own_file() {
        for (i, (name, file, _)) in OUTPUTS.iter().enumerate() {
            assert!(OUTPUTS[i + 1..]
                .iter()
                .all(|(n, f, _)| n != name && f != file));
        }
    }
}
