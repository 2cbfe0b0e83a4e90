//! Sparse-engine sweep: accuracy against the dense DGEMM engine on a
//! shared space, selection-space growth curves, and a bounded-memory
//! solve whose *formal* dimension exceeds 10⁸ — the regime the dense
//! vector representation cannot enter at all. Emits
//! `results/BENCH_sparse_sweep.json`.
//!
//! Modes:
//!
//! * (default) full sweep —
//!   1. **accuracy**: 10-site half-filled Hubbard chain (63,504
//!      determinants): dense Davidson vs CDFCI vs selected CI, recording
//!      each engine's error in mHa (gate: ≤ 1.6 mHa) plus support and
//!      wall time;
//!   2. **growth**: 12-site chain (853,776 determinants): selected CI at
//!      a ladder of thresholds ε, recording the per-round selected-space
//!      growth and energy convergence;
//!   3. **scale**: 16-site half-filled chain — formal dimension
//!      C(16,8)² = 165,636,900 ≥ 10⁸ — solved by CDFCI under a hard
//!      500k-determinant store bound, with the support growth curve and
//!      peak store bytes as the bounded-memory evidence.
//! * `--quick` — CI smoke: the 8-site chain (4,900 determinants), both
//!   sparse engines vs the dense reference, writes
//!   `results/BENCH_sparse_sweep_quick.json`, and **exits 1** if either
//!   engine misses the dense energy by more than 1.6 mHa.

use fci_core::{DetSpace, DiagMethod, FciOptions, Hamiltonian};
use fci_obs::JsonValue;
use fci_scf::MoIntegrals;
use fci_sparse::{solve_cdfci, solve_selected, SparseOptions, SparseResult};
use std::time::Instant;

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

/// Dense-engine reference energy (Davidson — lattice diagonals are
/// degenerate) and its wall time.
fn dense_reference(sites: usize) -> (f64, f64) {
    let mo = MoIntegrals::hubbard_chain(sites, 1.0, 4.0, false);
    let opts = FciOptions {
        method: DiagMethod::Davidson,
        ..FciOptions::default()
    };
    // lint: allow(wallclock) — the sweep measures real host time
    let t0 = Instant::now();
    let res = fci_core::solve(&mo, sites / 2, sites / 2, 0, &opts);
    (res.energy, t0.elapsed().as_secs_f64())
}

fn timed(f: impl FnOnce() -> SparseResult) -> (SparseResult, f64) {
    // lint: allow(wallclock) — the sweep measures real host time
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn history_json(r: &SparseResult) -> JsonValue {
    JsonValue::Arr(
        r.history
            .iter()
            .map(|s| {
                JsonValue::obj(vec![
                    ("sweep", JsonValue::Num(s.sweep as f64)),
                    ("support", JsonValue::Num(s.support as f64)),
                    ("energy", JsonValue::Num(s.energy)),
                ])
            })
            .collect(),
    )
}

fn quick_smoke() -> i32 {
    let sites = 8;
    let (space, ham) = hubbard_chain(sites);
    let (e_dense, t_dense) = dense_reference(sites);
    let (cd, t_cd) = timed(|| {
        solve_cdfci(
            &space,
            &ham,
            &SparseOptions {
                tol: 1e-10,
                ..SparseOptions::default()
            },
        )
    });
    let (sel, t_sel) = timed(|| {
        solve_selected(
            &space,
            &ham,
            &SparseOptions {
                eps: 1e-4,
                tol: 1e-9,
                ..SparseOptions::default()
            },
        )
    });
    let cd_mha = (cd.energy() - e_dense).abs() * 1e3;
    let sel_mha = (sel.energy() - e_dense).abs() * 1e3;
    let support_fraction = sel.support as f64 / space.sector_dim() as f64;
    println!(
        "quick {sites}-site chain ({} dets): dense {e_dense:.8} ({t_dense:.2}s)",
        space.sector_dim()
    );
    println!(
        "  cdfci    {:.8}  err {cd_mha:.4} mHa  support {}  ({t_cd:.2}s)",
        cd.energy(),
        cd.support
    );
    println!(
        "  selected {:.8}  err {sel_mha:.4} mHa  support {} ({:.0}% of sector)  ({t_sel:.2}s)",
        sel.energy(),
        sel.support,
        100.0 * support_fraction
    );
    let doc = JsonValue::obj(vec![
        ("mode", JsonValue::Str("quick".into())),
        ("sites", JsonValue::Num(sites as f64)),
        ("sector_dim", JsonValue::Num(space.sector_dim() as f64)),
        ("dense_energy", JsonValue::Num(e_dense)),
        ("cdfci_err_mha", JsonValue::Num(cd_mha)),
        ("selected_err_mha", JsonValue::Num(sel_mha)),
        (
            "selected_support_fraction",
            JsonValue::Num(support_fraction),
        ),
    ]);
    match fci_bench::write_bench_json("sparse_sweep_quick", &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            println!("FAIL: cannot write quick artifact: {e}");
            return 1;
        }
    }
    if cd_mha > GATE_MHA || sel_mha > GATE_MHA {
        println!("FAIL: sparse engine misses dense FCI by more than {GATE_MHA} mHa");
        return 1;
    }
    println!("OK: both sparse engines within {GATE_MHA} mHa of dense FCI");
    0
}

fn full_sweep() {
    // ── 1. Accuracy on a shared space ────────────────────────────────
    let sites = 10;
    let (space, ham) = hubbard_chain(sites);
    let (e_dense, t_dense) = dense_reference(sites);
    println!(
        "accuracy: {sites}-site chain, {} determinants, dense E = {e_dense:.9} ({t_dense:.2}s)",
        space.sector_dim()
    );
    let (cd, t_cd) = timed(|| {
        solve_cdfci(
            &space,
            &ham,
            &SparseOptions {
                threads: 4,
                tol: 1e-11,
                max_updates: 4_000_000,
                ..SparseOptions::default()
            },
        )
    });
    let (sel, t_sel) = timed(|| {
        solve_selected(
            &space,
            &ham,
            &SparseOptions {
                eps: 1e-5,
                tol: 1e-10,
                ..SparseOptions::default()
            },
        )
    });
    let cd_mha = (cd.energy() - e_dense).abs() * 1e3;
    let sel_mha = (sel.energy() - e_dense).abs() * 1e3;
    println!(
        "  cdfci    err {cd_mha:.5} mHa  support {:>6}  {t_cd:.2}s",
        cd.support
    );
    println!(
        "  selected err {sel_mha:.5} mHa  support {:>6}  {t_sel:.2}s",
        sel.support
    );
    let gate_ok = cd_mha <= GATE_MHA && sel_mha <= GATE_MHA;
    let accuracy = JsonValue::obj(vec![
        ("sites", JsonValue::Num(sites as f64)),
        ("sector_dim", JsonValue::Num(space.sector_dim() as f64)),
        ("dense_energy", JsonValue::Num(e_dense)),
        ("dense_secs", JsonValue::Num(t_dense)),
        ("cdfci_energy", JsonValue::Num(cd.energy())),
        ("cdfci_err_mha", JsonValue::Num(cd_mha)),
        ("cdfci_support", JsonValue::Num(cd.support as f64)),
        ("cdfci_secs", JsonValue::Num(t_cd)),
        ("selected_energy", JsonValue::Num(sel.energy())),
        ("selected_err_mha", JsonValue::Num(sel_mha)),
        ("selected_support", JsonValue::Num(sel.support as f64)),
        ("selected_secs", JsonValue::Num(t_sel)),
        ("gate_mha", JsonValue::Num(GATE_MHA)),
        ("gate_ok", JsonValue::Bool(gate_ok)),
    ]);

    // ── 2. Selection-space growth vs ε ───────────────────────────────
    let sites = 12;
    let (space, ham) = hubbard_chain(sites);
    println!(
        "\ngrowth: {sites}-site chain, {} determinants, selected CI vs ε:",
        space.sector_dim()
    );
    let mut growth_rows = Vec::new();
    for eps in [3e-3, 1e-3, 3e-4] {
        let (r, secs) = timed(|| {
            solve_selected(
                &space,
                &ham,
                &SparseOptions {
                    threads: 4,
                    eps,
                    tol: 1e-9,
                    max_outer: 12,
                    ..SparseOptions::default()
                },
            )
        });
        println!(
            "  eps {eps:>7.0e}: E {:.9}  support {:>7} ({:.2}% of sector)  rounds {}  {secs:.2}s",
            r.energy(),
            r.support,
            100.0 * r.support as f64 / space.sector_dim() as f64,
            r.history.len()
        );
        growth_rows.push(JsonValue::obj(vec![
            ("eps", JsonValue::Num(eps)),
            ("energy", JsonValue::Num(r.energy())),
            ("support", JsonValue::Num(r.support as f64)),
            ("secs", JsonValue::Num(secs)),
            ("rounds", history_json(&r)),
        ]));
    }

    // ── 3. Bounded-memory solve beyond 10⁸ formal determinants ──────
    let sites = 16;
    let (space, ham) = hubbard_chain(sites);
    let formal = space.alpha.len() as f64 * space.beta.len() as f64;
    println!("\nscale: {sites}-site chain, formal dimension {formal:.3e} (≥ 1e8), CDFCI:");
    let (big, t_big) = timed(|| {
        solve_cdfci(
            &space,
            &ham,
            &SparseOptions {
                threads: 4,
                max_store: 500_000,
                max_updates: 120_000,
                tol: 1e-9,
                ..SparseOptions::default()
            },
        )
    });
    println!(
        "  E {:.9}  support {} of {formal:.3e}  peak {} MiB  dropped {}  {t_big:.1}s",
        big.energy(),
        big.support,
        big.peak_bytes >> 20,
        big.dropped
    );
    assert!(formal >= 1e8, "scale system must exceed 1e8 determinants");
    let scale = JsonValue::obj(vec![
        ("sites", JsonValue::Num(sites as f64)),
        ("formal_dim", JsonValue::Num(formal)),
        ("energy", JsonValue::Num(big.energy())),
        ("support", JsonValue::Num(big.support as f64)),
        ("peak_bytes", JsonValue::Num(big.peak_bytes as f64)),
        ("dropped", JsonValue::Num(big.dropped as f64)),
        ("updates", JsonValue::Num(big.iterations as f64)),
        ("secs", JsonValue::Num(t_big)),
        ("growth", history_json(&big)),
    ]);

    let doc = JsonValue::obj(vec![
        ("bench", JsonValue::Str("sparse_sweep".into())),
        ("accuracy", accuracy),
        ("growth", JsonValue::Arr(growth_rows)),
        ("scale", scale),
    ]);
    match fci_bench::write_bench_json("sparse_sweep", &doc) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => println!("WARNING: could not write artifact: {e}"),
    }
    if !gate_ok {
        println!("FAIL: accuracy gate ({GATE_MHA} mHa) violated");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--quick") {
        std::process::exit(quick_smoke());
    }
    full_sweep();
}
