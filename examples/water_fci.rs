//! Frozen-core FCI of water with symmetry blocking and the full
//! diagonalizer menu.
//!
//! ```text
//! cargo run --release --example water_fci
//! ```
//!
//! Demonstrates the complete pipeline on a polyatomic: point-group
//! detection (C2v), symmetry-adapted orbitals, frozen-core transformation,
//! and a comparison of all four iterative eigensolvers from the paper's
//! Table 2 on the same Hamiltonian.

use fcix::core::{solve, DiagMethod, DiagOptions, FciOptions};
use fcix::ints::{BasisSet, Molecule};
use fcix::scf::{active_space, Orbitals};

fn main() {
    let mol = Molecule::from_symbols_bohr(
        &[
            ("O", [0.0, 0.0, 0.0]),
            ("H", [0.0, 1.4305, 1.1092]),
            ("H", [0.0, -1.4305, 1.1092]),
        ],
        0,
    );
    let basis = BasisSet::build(&mol, "sto-3g");
    // Freeze the O 1s core; keep the remaining 6 orbitals active.
    let a = active_space(&mol, &basis, Orbitals::Rhf, 1, Some(6), true);
    let (mo, (e_rhf, _)) = (a.mo, a.scf.expect("RHF converges for water"));
    println!("point group       : {} ({} irreps)", a.group, mo.n_irrep);
    println!("RHF energy        : {e_rhf:+.8} Eh");
    println!("active irreps     : {:?}", mo.orb_sym);

    println!(
        "\n{:>14} {:>7} {:>11} {:>16}",
        "method", "iters", "converged", "E(FCI) [Eh]"
    );
    for (name, method) in [
        ("Davidson", DiagMethod::Davidson),
        ("Olsen", DiagMethod::Olsen),
        ("Olsen(0.7)", DiagMethod::OlsenDamped),
        ("AutoAdjust", DiagMethod::AutoAdjust),
    ] {
        let opts = FciOptions {
            method,
            diag: DiagOptions {
                tol: 1e-9,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = solve(&mo, 4, 4, 0, &opts);
        println!(
            "{name:>14} {:>7} {:>11} {:>16.8}",
            r.iterations, r.converged, r.energy
        );
        if method == DiagMethod::AutoAdjust {
            assert!(r.converged);
            println!("\ncorrelation energy: {:+.6} Eh", r.energy - e_rhf);
            println!("CI dimension      : {} (sector {})", r.dim, r.sector_dim);
        }
    }
}
