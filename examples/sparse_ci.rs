//! Quick start for the sparse/selected CI engines.
//!
//! ```text
//! cargo run --release --example sparse_ci -- [sites]
//! ```
//!
//! The dense engine stores every CI coefficient — C(n,k)² of them — so
//! its memory wall arrives fast. The sparse engines store only the
//! determinants that matter: CDFCI relaxes one coordinate at a time
//! under a hard store bound, and selected CI grows an importance-screened
//! variational space. This example solves a half-filled Hubbard chain
//! three ways and compares energies, support sizes, and the selected-CI
//! growth curve. At the default 8 sites all three agree to micro-Hartrees
//! while the sparse engines touch a fraction of the 4,900 determinants.

use fcix::core::{solve, DetSpace, DiagMethod, DiagOptions, FciOptions, Hamiltonian};
use fcix::scf::MoIntegrals;
use fcix::sparse::{solve_cdfci, solve_selected, SparseOptions};

fn main() {
    let sites: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let ne = sites / 2;
    let mo = MoIntegrals::hubbard_chain(sites, 1.0, 4.0, false);
    let ham = Hamiltonian::new(&mo);
    let space = DetSpace::for_hamiltonian(&ham, ne, ne, 0);
    println!(
        "half-filled {sites}-site Hubbard chain (U/t = 4): {} determinants\n",
        space.sector_dim()
    );

    // Dense reference (Davidson — lattice diagonals are degenerate).
    let dense = solve(
        &mo,
        ne,
        ne,
        0,
        &FciOptions {
            method: DiagMethod::Davidson,
            diag: DiagOptions {
                max_iter: 200,
                model_space: 50,
                ..Default::default()
            },
            ..FciOptions::default()
        },
    );
    assert!(dense.converged);
    println!("dense FCI      E = {:.9}  (full vector)", dense.energy);

    // CDFCI: coordinate descent on the energy, support grows on demand.
    let cd = solve_cdfci(
        &space,
        &ham,
        &SparseOptions {
            tol: 1e-10,
            ..SparseOptions::default()
        },
    );
    println!(
        "CDFCI          E = {:.9}  err {:.2e} Ha  support {} ({:.0}%)",
        cd.energy(),
        (cd.energy() - dense.energy).abs(),
        cd.support,
        100.0 * cd.support as f64 / space.sector_dim() as f64
    );

    // Selected CI: importance-screened growth, truncated Davidson inner.
    let sel = solve_selected(
        &space,
        &ham,
        &SparseOptions {
            eps: 1e-4,
            tol: 1e-9,
            ..SparseOptions::default()
        },
    );
    println!(
        "selected CI    E = {:.9}  err {:.2e} Ha  support {} ({:.0}%)",
        sel.energy(),
        (sel.energy() - dense.energy).abs(),
        sel.support,
        100.0 * sel.support as f64 / space.sector_dim() as f64
    );
    println!("\nselected-CI growth (round, support, energy):");
    for s in &sel.history {
        println!("  {:>3}  {:>7}  {:.9}", s.sweep, s.support, s.energy);
    }
    assert!((cd.energy() - dense.energy).abs() < 1e-6);
    assert!((sel.energy() - dense.energy).abs() < 1.6e-3);
}
