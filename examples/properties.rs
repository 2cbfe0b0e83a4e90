//! Post-convergence wavefunction analysis: spin purity, natural orbitals,
//! dipole moment, and a few excited states.
//!
//! ```text
//! cargo run --release --example properties
//! ```
//!
//! Runs frozen-core FCI on water, then derives everything a chemist asks
//! for next: ⟨S²⟩ (must vanish for the singlet), natural occupation
//! numbers from the 1-RDM, the dipole moment (electronic from the RDM +
//! nuclear), and the three lowest states of the sector via block Davidson.

use fcix::core::{
    build_space, natural_occupations, one_rdm, s_squared, solve_prepared, solve_roots_prepared,
    DiagOptions, FciOptions, Hamiltonian,
};
use fcix::ints::{dipole, BasisSet, Molecule};
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
    let a = active_space(&mol, &basis, Orbitals::Rhf, 1, Some(6), false);
    let (e_rhf, _) = a.scf.expect("RHF converges for water");

    let ham = Hamiltonian::new(&a.mo);
    let space = build_space(&ham, 4, 4, 0, None);
    let r = solve_prepared(&space, &ham, &FciOptions::default());
    assert!(r.converged);
    println!(
        "E(FCI)            : {:+.8} Eh  (E(RHF) = {e_rhf:+.8})",
        r.energy
    );

    // Spin purity.
    let s2 = s_squared(&space, &r.diag.c);
    println!("<S^2>             : {s2:+.2e}  (singlet ⇒ 0)");

    // Natural occupations.
    let occ = natural_occupations(&space, &r.diag.c);
    println!(
        "natural occupations: {:?}",
        occ.iter()
            .map(|x| (x * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>()
    );

    // Dipole moment: nuclear + electronic (1-RDM contracted with the MO
    // dipole matrices; frozen core adds 2×(core MO) contributions).
    let d_ao = dipole(&basis, [0.0; 3]);
    let g = one_rdm(&space, &r.diag.c);
    let mut mu = [0.0f64; 3];
    for ax in 0..3 {
        // nuclear part
        for a in &mol.atoms {
            mu[ax] += a.z as f64 * a.pos[ax];
        }
        // MO dipole matrix over all MOs.
        let d_mo = a.mo_coeffs.t_matmul(&d_ao[ax]).matmul(&a.mo_coeffs);
        // frozen core (MO 0, doubly occupied)
        mu[ax] -= 2.0 * d_mo[(0, 0)];
        // active space (MOs 1..7)
        for p in 0..6 {
            for q in 0..6 {
                mu[ax] -= g[(p, q)] * d_mo[(1 + q, 1 + p)];
            }
        }
    }
    let norm = (mu[0] * mu[0] + mu[1] * mu[1] + mu[2] * mu[2]).sqrt();
    println!(
        "dipole moment     : ({:+.4}, {:+.4}, {:+.4}) a.u., |μ| = {:.4} a.u. = {:.3} D",
        mu[0],
        mu[1],
        mu[2],
        norm,
        norm * 2.541746
    );

    // Excited states.
    let opts = FciOptions {
        nproc: 2,
        diag: DiagOptions {
            max_iter: 60,
            tol: 1e-7,
            ..Default::default()
        },
        ..Default::default()
    };
    let roots = solve_roots_prepared(&space, &ham, &opts, 3);
    println!("\nlowest three states of the sector:");
    for k in 0..3 {
        let s2k = s_squared(&space, &roots.states[k]);
        println!(
            "  root {k}: E = {:+.8} Eh  (ΔE = {:+.4} Eh, <S^2> = {:.3}, {})",
            roots.energies[k],
            roots.e_elec[k] - roots.e_elec[0],
            s2k,
            if roots.converged[k] {
                "converged"
            } else {
                "NOT converged"
            },
        );
    }
}
