//! H2 dissociation curve: RHF vs FCI.
//!
//! ```text
//! cargo run --release --example dissociation
//! ```
//!
//! The classic demonstration of why FCI matters: restricted Hartree–Fock
//! fails catastrophically at stretched geometries (it dissociates into an
//! unphysical ionic mixture), while FCI dissociates correctly into two
//! hydrogen atoms. The growing RHF−FCI gap along the curve is exactly the
//! static correlation the paper's CN⁺ convergence case is about.

use fcix::core::{solve, FciOptions};
use fcix::ints::{BasisSet, Molecule};
use fcix::scf::{active_space, Orbitals};

fn main() {
    println!(
        "{:>8} {:>14} {:>14} {:>12}",
        "R [a0]", "E(RHF) [Eh]", "E(FCI) [Eh]", "corr [mEh]"
    );
    let mut last_fci = 0.0;
    for i in 0..12 {
        let r = 1.0 + 0.5 * i as f64;
        let mol = Molecule::from_symbols_bohr(&[("H", [0.0, 0.0, 0.0]), ("H", [0.0, 0.0, r])], 0);
        let basis = BasisSet::build(&mol, "sto-3g");
        let a = active_space(&mol, &basis, Orbitals::Rhf, 0, None, false);
        let (e_rhf, _) = a.scf.unwrap_or_else(|| panic!("RHF failed at R = {r}"));
        let fci = solve(&a.mo, 1, 1, 0, &FciOptions::default());
        assert!(fci.converged, "FCI failed at R = {r}");
        println!(
            "{r:>8.2} {e_rhf:>14.8} {:>14.8} {:>12.3}",
            fci.energy,
            (fci.energy - e_rhf) * 1e3
        );
        last_fci = fci.energy;
    }
    // At dissociation, FCI(H2/STO-3G) → 2 × E(H/STO-3G) = 2 × −0.46658…
    let h_atom = -0.466_58;
    println!(
        "\nFCI at R = 6.5 a0: {last_fci:.5} Eh; 2 × E(H atom/STO-3G) = {:.5} Eh",
        2.0 * h_atom
    );
    assert!(
        (last_fci - 2.0 * h_atom).abs() < 5e-3,
        "FCI must dissociate to two H atoms"
    );
}
