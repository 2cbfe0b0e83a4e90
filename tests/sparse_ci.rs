//! Cross-validation of the sparse/selected CI engines against the dense
//! DGEMM engine: model lattices and a real molecule, ground and excited
//! states, and the thread-count reproducibility contract. (The larger
//! shared-space checks — 63k and 854k determinants — run in release mode
//! in `sparse_sweep`; these tests pin correctness at dev-profile sizes.)

use fcix::core::{slater, solve, DetSpace, DiagMethod, FciOptions, Hamiltonian};
use fcix::ints::{BasisSet, Molecule};
use fcix::linalg::eigh;
use fcix::scf::{rhf, transform_integrals, MoIntegrals, RhfOptions};
use fcix::sparse::{solve_cdfci, solve_selected, SparseOptions, SparseResult};

/// Open Hubbard chain MO integrals (t = 1).
fn hubbard_mo(sites: usize, u: f64) -> MoIntegrals {
    let mut h = fcix::linalg::Matrix::zeros(sites, sites);
    for i in 0..sites - 1 {
        h[(i, i + 1)] = -1.0;
        h[(i + 1, i)] = -1.0;
    }
    let mut eri = fcix::ints::EriTensor::zeros(sites);
    for i in 0..sites {
        eri.set(i, i, i, i, u);
    }
    MoIntegrals {
        n_orb: sites,
        h,
        eri,
        e_core: 0.0,
        orb_sym: vec![0; sites],
        n_irrep: 1,
    }
}

/// Water / STO-3G with the oxygen 1s frozen: 225 determinants.
fn water_mo() -> MoIntegrals {
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
    assert!(scf.converged);
    transform_integrals(
        &scf.h_ao,
        &scf.eri_ao,
        &scf.mo_coeffs,
        mol.nuclear_repulsion(),
        1,
        6,
    )
}

fn dense_spectrum(mo: &MoIntegrals, na: usize, nb: usize) -> Vec<f64> {
    let ham = Hamiltonian::new(mo);
    let space = DetSpace::for_hamiltonian(&ham, na, nb, 0);
    let h = slater::dense_h(&space, &ham);
    eigh(&h).eigenvalues.iter().map(|e| e + mo.e_core).collect()
}

#[test]
fn hubbard_chain_sparse_engines_match_dense_fci() {
    let mo = hubbard_mo(6, 4.0);
    let ham = Hamiltonian::new(&mo);
    let space = DetSpace::for_hamiltonian(&ham, 3, 3, 0);
    // Lattice diagonals are degenerate: the dense reference needs the
    // Davidson subspace method (see the fci-core crate docs).
    let dense = solve(
        &mo,
        3,
        3,
        0,
        &FciOptions {
            method: DiagMethod::Davidson,
            ..FciOptions::default()
        },
    );
    assert!(dense.converged);
    let cd = solve_cdfci(
        &space,
        &ham,
        &SparseOptions {
            tol: 1e-12,
            ..SparseOptions::default()
        },
    );
    let sel = solve_selected(
        &space,
        &ham,
        &SparseOptions {
            eps: 1e-10,
            tol: 1e-11,
            ..SparseOptions::default()
        },
    );
    assert!(cd.converged && sel.converged);
    assert!(
        (cd.energy() - dense.energy).abs() < 1e-6,
        "cdfci {} vs dense {}",
        cd.energy(),
        dense.energy
    );
    assert!(
        (sel.energy() - dense.energy).abs() < 1e-6,
        "selected {} vs dense {}",
        sel.energy(),
        dense.energy
    );
}

#[test]
fn water_frozen_core_sparse_matches_dense() {
    let mo = water_mo();
    let ham = Hamiltonian::new(&mo);
    let space = DetSpace::for_hamiltonian(&ham, 4, 4, 0);
    let exact = dense_spectrum(&mo, 4, 4)[0];
    let cd = solve_cdfci(
        &space,
        &ham,
        &SparseOptions {
            tol: 1e-12,
            ..SparseOptions::default()
        },
    );
    let sel = solve_selected(
        &space,
        &ham,
        &SparseOptions {
            eps: 1e-10,
            tol: 1e-11,
            ..SparseOptions::default()
        },
    );
    assert!(
        (cd.energy() - exact).abs() < 1e-6,
        "cdfci {} vs dense {exact}",
        cd.energy()
    );
    assert!(
        (sel.energy() - exact).abs() < 1e-6,
        "selected {} vs dense {exact}",
        sel.energy()
    );
    // A molecule, not a lattice: correlation must be negative and modest.
    let scf_like = ham.diagonal_element(0b1111, 0b1111) + mo.e_core;
    assert!(cd.energy() < scf_like);
}

#[test]
fn selected_excited_roots_match_multiroot_davidson() {
    // A symmetry-free system: selection grows the space by |H·c|, so it
    // stays inside the reference determinant's symmetry block — on water
    // the "excited roots" it finds are the block's own spectrum, not the
    // full-space one. A random C1 Hamiltonian has no hidden blocks, so
    // selected roots must match the block-Davidson multiroot solver on
    // the full space.
    let ham = fcix::core::random_hamiltonian(6, 11);
    let space = DetSpace::for_hamiltonian(&ham, 3, 3, 0);
    let nroots = 3;
    let multi = fcix::core::solve_roots_prepared(&space, &ham, &FciOptions::default(), nroots);
    let sel = solve_selected(
        &space,
        &ham,
        &SparseOptions {
            eps: 1e-10,
            tol: 1e-11,
            nroots,
            ..SparseOptions::default()
        },
    );
    assert_eq!(sel.energies.len(), nroots);
    for r in 0..nroots {
        assert!(multi.converged[r]);
        assert!(
            (sel.energies[r] - multi.energies[r]).abs() < 1e-6,
            "root {r}: selected {} vs multiroot {}",
            sel.energies[r],
            multi.energies[r]
        );
    }
}

#[test]
fn sparse_energies_bitwise_reproducible_across_thread_counts() {
    let mo = water_mo();
    let ham = Hamiltonian::new(&mo);
    let space = DetSpace::for_hamiltonian(&ham, 4, 4, 0);
    // Property: for T ∈ {1, 2, 4}, every reported energy is the same
    // *bit pattern*, and the iteration/support trajectories agree — the
    // partition of work across threads is not observable in the result.
    type Engine = fn(&DetSpace, &Hamiltonian, &SparseOptions) -> SparseResult;
    let engines: [(&str, Engine, usize); 2] =
        [("cdfci", solve_cdfci, 1), ("selected", solve_selected, 2)];
    for (name, engine, nroots) in engines {
        let run = |threads: usize| {
            let opts = SparseOptions {
                threads,
                eps: 1e-7,
                tol: 1e-10,
                nroots,
                ..SparseOptions::default()
            };
            engine(&space, &ham, &opts)
        };
        let r1 = run(1);
        let r2 = run(2);
        let r4 = run(4);
        for (i, e) in r1.energies.iter().enumerate() {
            assert_eq!(
                e.to_bits(),
                r2.energies[i].to_bits(),
                "{name} root {i}: T=1 vs T=2"
            );
            assert_eq!(
                e.to_bits(),
                r4.energies[i].to_bits(),
                "{name} root {i}: T=1 vs T=4"
            );
        }
        assert_eq!(r1.iterations, r2.iterations, "{name} iterations");
        assert_eq!(r1.iterations, r4.iterations, "{name} iterations");
        assert_eq!(r1.support, r4.support, "{name} support");
    }
}
