//! Quickstart: full configuration interaction on H2 in a minimal basis.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the molecule, runs restricted Hartree–Fock and transforms the
//! integrals to the MO basis (one `active_space` call), and solves the FCI
//! eigenproblem with the paper's DGEMM-based σ algorithm and automatically
//! adjusted single-vector diagonalizer.

use fcix::core::{solve, FciOptions};
use fcix::ints::{BasisSet, Molecule};
use fcix::scf::{active_space, Orbitals};

fn main() {
    // H2 at its near-equilibrium bond length of 1.4 bohr.
    let mol = Molecule::from_symbols_bohr(&[("H", [0.0, 0.0, 0.0]), ("H", [0.0, 0.0, 1.4])], 0);
    let basis = BasisSet::build(&mol, "sto-3g");

    // Hartree–Fock reference and MO integrals (no frozen core, all
    // orbitals active, no symmetry labels).
    let a = active_space(&mol, &basis, Orbitals::Rhf, 0, None, false);
    let (e_rhf, iterations) = a.scf.expect("RHF converges for H2");
    println!("RHF/STO-3G energy : {e_rhf:+.8} Eh ({iterations} iterations)");

    // FCI: 1 α + 1 β electron in 2 orbitals.
    let fci = solve(&a.mo, 1, 1, 0, &FciOptions::default());
    println!(
        "FCI/STO-3G energy : {:+.8} Eh ({} iterations, converged = {})",
        fci.energy, fci.iterations, fci.converged
    );
    println!("correlation energy: {:+.8} Eh", fci.energy - e_rhf);
    println!("CI dimension      : {}", fci.dim);
    assert!(fci.converged);
    assert!(fci.energy < e_rhf, "FCI must lower the variational energy");
}
