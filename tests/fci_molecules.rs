//! End-to-end molecular FCI: integrals → SCF → transformation → FCI,
//! validated against brute-force dense diagonalization and physical
//! invariants.

use fcix::core::{slater, solve, DetSpace, FciOptions, Hamiltonian, SigmaMethod};
use fcix::ints::{detect_point_group, overlap, BasisSet, Molecule};
use fcix::linalg::eigh;
use fcix::scf::{
    active_space, core_orbitals, rhf, symmetry_adapt, transform_integrals, MoIntegrals, Orbitals,
    RhfOptions,
};

/// Integrals of `mol` in `basis` over converged RHF orbitals, with the
/// RHF energy: `frozen` core orbitals, then `active` (`None` = the rest).
fn rhf_mo(mol: &Molecule, basis: &str, frozen: usize, active: Option<usize>) -> (MoIntegrals, f64) {
    let a = active_space(
        mol,
        &BasisSet::build(mol, basis),
        Orbitals::Rhf,
        frozen,
        active,
        false,
    );
    let (e_rhf, _) = a.scf.expect("RHF converges");
    (a.mo, e_rhf)
}

fn h2_mo(r: f64) -> (MoIntegrals, f64) {
    let mol = Molecule::from_symbols_bohr(&[("H", [0.0, 0.0, 0.0]), ("H", [0.0, 0.0, r])], 0);
    rhf_mo(&mol, "sto-3g", 0, None)
}

fn dense_ground(mo: &MoIntegrals, na: usize, nb: usize) -> f64 {
    let ham = Hamiltonian::new(mo);
    let space = DetSpace::for_hamiltonian(&ham, na, nb, 0);
    let h = slater::dense_h(&space, &ham);
    eigh(&h).eigenvalues[0] + mo.e_core
}

#[test]
fn h2_fci_matches_dense_diagonalization() {
    let (mo, e_scf) = h2_mo(1.4);
    let exact = dense_ground(&mo, 1, 1);
    let r = solve(&mo, 1, 1, 0, &FciOptions::default());
    assert!(r.converged);
    assert!((r.energy - exact).abs() < 1e-9, "{} vs {exact}", r.energy);
    // Correlation energy is negative and modest for H2/STO-3G (~ −20 mEh).
    let corr = r.energy - e_scf;
    assert!(corr < -0.015 && corr > -0.03, "corr = {corr}");
    // Minimal-basis H2 full CI: −1.1373 Eh in Szabo & Ostlund (1989),
    // ch. 4; the quickstart prints −1.13727594.
    assert!((r.energy + 1.1373).abs() < 5e-5, "E = {}", r.energy);
    assert!((r.energy + 1.13727594).abs() < 1e-8, "E = {}", r.energy);
}

#[test]
fn h2_triplet_above_singlet() {
    let (mo, _) = h2_mo(1.4);
    let singlet = solve(&mo, 1, 1, 0, &FciOptions::default());
    let triplet = solve(&mo, 2, 0, 0, &FciOptions::default());
    assert!(triplet.converged);
    assert!(
        triplet.energy > singlet.energy + 0.1,
        "triplet {} vs singlet {}",
        triplet.energy,
        singlet.energy
    );
}

#[test]
fn helium_fci_below_scf() {
    let mol = Molecule::from_symbols_bohr(&[("He", [0.0; 3])], 0);
    let (mo, e_rhf) = rhf_mo(&mol, "svp", 0, None);
    let r = solve(&mo, 1, 1, 0, &FciOptions::default());
    assert!(r.converged);
    assert!(r.energy < e_rhf);
    // He exact nonrelativistic energy is −2.9037 Eh — a strict lower
    // bound for any variational method in a finite basis.
    assert!(r.energy > -2.9037);
}

#[test]
fn h4_chain_fci_matches_dense() {
    let mol = Molecule::from_symbols_bohr(
        &[
            ("H", [0.0, 0.0, 0.0]),
            ("H", [0.0, 0.0, 1.8]),
            ("H", [0.0, 0.0, 3.6]),
            ("H", [0.0, 0.0, 5.4]),
        ],
        0,
    );
    let (mo, _) = rhf_mo(&mol, "sto-3g", 0, None);
    let exact = dense_ground(&mo, 2, 2);
    for sigma in [SigmaMethod::Dgemm, SigmaMethod::Moc] {
        let r = solve(
            &mo,
            2,
            2,
            0,
            &FciOptions {
                sigma,
                ..Default::default()
            },
        );
        assert!(r.converged, "{sigma:?}");
        assert!(
            (r.energy - exact).abs() < 1e-8,
            "{sigma:?}: {} vs {exact}",
            r.energy
        );
    }
}

#[test]
fn water_frozen_core_fci() {
    let mol = Molecule::from_symbols_bohr(
        &[
            ("O", [0.0, 0.0, 0.0]),
            ("H", [0.0, 1.4305, 1.1092]),
            ("H", [0.0, -1.4305, 1.1092]),
        ],
        0,
    );
    let (mo, e_rhf) = rhf_mo(&mol, "sto-3g", 1, Some(6));
    let r = solve(&mo, 4, 4, 0, &FciOptions::default());
    assert!(r.converged);
    let exact = dense_ground(&mo, 4, 4);
    assert!((r.energy - exact).abs() < 1e-8);
    // Frozen-core correlation of water/STO-3G is a few tens of mEh.
    let corr = r.energy - e_rhf;
    assert!(corr < -0.02 && corr > -0.15, "corr = {corr}");
}

#[test]
fn symmetry_blocked_water_matches_c1() {
    let mol = Molecule::from_symbols_bohr(
        &[
            ("O", [0.0, 0.0, 0.0]),
            ("H", [0.0, 1.4305, 1.1092]),
            ("H", [0.0, -1.4305, 1.1092]),
        ],
        0,
    );
    let basis = BasisSet::build(&mol, "sto-3g");
    let scf = rhf(&mol, &basis, &RhfOptions::default());
    let pg = detect_point_group(&mol);
    assert_eq!(pg.name(), "C2v");
    let s = overlap(&basis);
    let (cad, irreps) = symmetry_adapt(&pg, &basis, &s, &scf.mo_coeffs);
    let mo_c1 = transform_integrals(
        &scf.h_ao,
        &scf.eri_ao,
        &scf.mo_coeffs,
        mol.nuclear_repulsion(),
        1,
        6,
    );
    let mo_sym = transform_integrals(&scf.h_ao, &scf.eri_ao, &cad, mol.nuclear_repulsion(), 1, 6)
        .with_symmetry(irreps[1..7].to_vec(), pg.n_irrep());
    let r_c1 = solve(&mo_c1, 4, 4, 0, &FciOptions::default());
    let r_sym = solve(&mo_sym, 4, 4, 0, &FciOptions::default());
    assert!(r_c1.converged && r_sym.converged);
    // FCI is orbital-invariant: the energies agree even though the
    // orbital sets differ; the symmetry sector is strictly smaller.
    assert!(
        (r_c1.energy - r_sym.energy).abs() < 1e-7,
        "{} vs {}",
        r_c1.energy,
        r_sym.energy
    );
    assert!(r_sym.sector_dim < r_sym.dim);
}

#[test]
fn open_shell_oxygen_like_runs() {
    // O atom (9 active electrons is too many for sto-3g n=5 after
    // freezing; use 3α+1β in the 4 valence orbitals: an O-like open shell)
    let mol = Molecule::from_symbols_bohr(&[("O", [0.0; 3])], 0);
    let basis = BasisSet::build(&mol, "sto-3g");
    let mo = active_space(&mol, &basis, Orbitals::Core, 1, Some(4), false).mo;
    let r = solve(&mo, 4, 2, 0, &FciOptions::default());
    assert!(r.converged);
    let exact = dense_ground(&mo, 4, 2);
    assert!((r.energy - exact).abs() < 1e-8);
}

#[test]
fn fci_invariant_under_orbital_choice() {
    // RHF orbitals vs core orbitals give the same FCI energy for H2.
    let mol = Molecule::from_symbols_bohr(&[("H", [0.0, 0.0, 0.0]), ("H", [0.0, 0.0, 1.6])], 0);
    let basis = BasisSet::build(&mol, "sto-3g");
    let scf = rhf(&mol, &basis, &RhfOptions::default());
    let mo1 = transform_integrals(
        &scf.h_ao,
        &scf.eri_ao,
        &scf.mo_coeffs,
        mol.nuclear_repulsion(),
        0,
        2,
    );
    let (c2, _) = core_orbitals(&basis, &mol);
    let mo2 = transform_integrals(&scf.h_ao, &scf.eri_ao, &c2, mol.nuclear_repulsion(), 0, 2);
    let r1 = solve(&mo1, 1, 1, 0, &FciOptions::default());
    let r2 = solve(&mo2, 1, 1, 0, &FciOptions::default());
    assert!(r1.converged && r2.converged);
    assert!(
        (r1.energy - r2.energy).abs() < 1e-9,
        "{} vs {}",
        r1.energy,
        r2.energy
    );
}
