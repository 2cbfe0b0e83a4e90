//! Cross-validation of the sparse/selected CI engines against the dense
//! DGEMM engine: model lattices and a real molecule, ground and excited
//! states, and the thread-count reproducibility contract. (The larger
//! shared-space checks — 63k and 854k determinants — run in release mode
//! in `fcix-repro sparse`; these tests pin correctness at dev-profile sizes.)

use fcix::core::{slater, solve, DetSpace, DiagMethod, FciOptions, Hamiltonian};
use fcix::fault::Xorshift64;
use fcix::ints::{BasisSet, Molecule};
use fcix::linalg::eigh;
use fcix::scf::{active_space, MoIntegrals, Orbitals};
use fcix::sparse::{
    exc_element, solve_cdfci, solve_selected, ConnGen, Det, SparseOptions, SparseResult,
};

/// Water / STO-3G in RHF orbitals with the oxygen 1s frozen (225
/// determinants), in C2v symmetry-adapted orbitals with their irreps when
/// `symmetry`.
fn water(symmetry: bool) -> MoIntegrals {
    let mol = Molecule::from_symbols_bohr(
        &[
            ("O", [0.0, 0.0, 0.0]),
            ("H", [0.0, 1.4305, 1.1092]),
            ("H", [0.0, -1.4305, 1.1092]),
        ],
        0,
    );
    let basis = BasisSet::build(&mol, "sto-3g");
    let a = active_space(&mol, &basis, Orbitals::Rhf, 1, Some(6), symmetry);
    assert!(a.scf.is_some());
    a.mo
}

fn dense_spectrum(mo: &MoIntegrals, na: usize, nb: usize) -> Vec<f64> {
    let ham = Hamiltonian::new(mo);
    let space = DetSpace::for_hamiltonian(&ham, na, nb, 0);
    let h = slater::dense_h(&space, &ham);
    eigh(&h).eigenvalues.iter().map(|e| e + mo.e_core).collect()
}

#[test]
fn hubbard_chain_sparse_engines_match_dense_fci() {
    let mo = MoIntegrals::hubbard_chain(6, 1.0, 4.0, false);
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
    let mo = water(false);
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
    let mo = water(false);
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

/// A random 6-orbital Hamiltonian with each off-diagonal `h_pq` kept with
/// probability `keep_h` and each stored two-electron integral with
/// probability `keep_eri`; the rest are set to exactly zero.
fn sparsified_hamiltonian(seed: u64, keep_h: f64, keep_eri: f64) -> Hamiltonian {
    let dense = fcix::core::random_hamiltonian(6, seed);
    let n = dense.n;
    let mut rng = Xorshift64::new(seed);
    let mut unit = move || rng.next_f64();
    let (mut h, mut eri) = (dense.h.clone(), dense.eri.clone());
    for p in 0..n {
        for q in 0..p {
            if unit() >= keep_h {
                h[(p, q)] = 0.0;
                h[(q, p)] = 0.0;
            }
        }
    }
    // Every (pq|rs); a permutational image seen again may only be zeroed
    // again, so each stored value survives with probability ≤ keep_eri.
    for p in 0..n {
        for q in 0..=p {
            for r in 0..=p {
                for s in 0..=r {
                    if unit() >= keep_eri {
                        eri.set(p, q, r, s, 0.0);
                    }
                }
            }
        }
    }
    Hamiltonian::new(&MoIntegrals {
        n_orb: n,
        h,
        eri,
        e_core: dense.e_core,
        orb_sym: dense.orb_sym.clone(),
        n_irrep: dense.n_irrep,
    })
}

/// The property the integral-driven walker must keep: for every
/// determinant of the sector, `for_each_connection` emits exactly what
/// full enumeration + `exc_element` + the cut emits — same determinants,
/// same order, same bits. Returns the number of connections compared.
fn assert_walker_matches_enumeration(
    what: &str,
    gen: &mut ConnGen,
    space: &DetSpace,
    ham: &Hamiltonian,
    cut: f64,
) -> usize {
    let mut excs = Vec::new();
    let mut walked: Vec<(Det, u64)> = Vec::new();
    let mut total = 0;
    for ia in 0..space.alpha.len() {
        for ib in 0..space.beta.len() {
            if !space.in_sector(ib, ia) {
                continue;
            }
            let d = Det::new(space.alpha.mask(ia), space.beta.mask(ib));
            walked.clear();
            gen.for_each_connection(ham, d, cut, |to, h| walked.push((to, h.to_bits())));
            gen.excitations_into(d, &mut excs);
            let enumerated: Vec<(Det, u64)> = excs
                .iter()
                .map(|&e| (e.apply(d), exc_element(ham, d, e)))
                .filter(|(_, h)| h.abs() > cut)
                .map(|(to, h)| (to, h.to_bits()))
                .collect();
            assert_eq!(
                walked, enumerated,
                "{what}: connections of {d:?}, cut {cut:e}"
            );
            total += walked.len();
        }
    }
    total
}

#[test]
fn walker_emits_the_full_enumerations_sequence() {
    let cut = SparseOptions::default().h_cut;
    let check = |what: &str, space: &DetSpace, ham: &Hamiltonian, cut: f64| {
        let mut gen = ConnGen::for_space(space);
        assert_walker_matches_enumeration(what, &mut gen, space, ham, cut)
    };

    for seed in [3, 17, 40] {
        let ham = fcix::core::random_hamiltonian(6, seed);
        for (na, nb) in [(3, 3), (3, 2), (1, 4)] {
            let space = DetSpace::for_hamiltonian(&ham, na, nb, 0);
            for cut in [0.0, cut, 0.05] {
                assert!(check("dense random", &space, &ham, cut) > 0);
            }
        }
    }

    // (keep_h, keep_eri): sparse both ways; no one-electron coupling at
    // all, so a single is nonzero through its spectator terms only; no
    // two-electron integral at all.
    for (seed, keep_h, keep_eri) in [
        (5, 0.5, 0.3),
        (6, 0.3, 0.05),
        (7, 0.0, 0.2),
        (8, 0.0, 0.02),
        (9, 0.4, 0.0),
    ] {
        let ham = sparsified_hamiltonian(seed, keep_h, keep_eri);
        let space = DetSpace::for_hamiltonian(&ham, 3, 2, 0);
        let kept = check("sparsified", &space, &ham, cut);
        let of = check(
            "sparsified",
            &space,
            &fcix::core::random_hamiltonian(6, seed),
            cut,
        );
        assert!(0 < kept && kept < of, "{kept} of {of} connections kept");
    }

    // 4,900 and 63,504 determinants; the 8-site count is the one
    // `fcix-perf` reports as `sparse.conn.count`.
    for (sites, connections) in [(8, 39_200), (10, 635_040)] {
        let ham = Hamiltonian::new(&MoIntegrals::hubbard_chain(sites, 1.0, 4.0, false));
        let space = DetSpace::for_hamiltonian(&ham, sites / 2, sites / 2, 0);
        assert_eq!(check("Hubbard", &space, &ham, cut), connections);
    }

    let mo = water(true);
    let ham = Hamiltonian::new(&mo);
    for irrep in 0..mo.n_irrep as u8 {
        let space = DetSpace::for_hamiltonian(&ham, 4, 4, irrep);
        assert!(space.sector_dim() < space.dim());
        assert!(check("water C2v", &space, &ham, cut) > 0);
    }

    let ham = fcix::core::random_hamiltonian(6, 3);
    for level in [1, 2, 3] {
        let space = DetSpace::for_hamiltonian(&ham, 3, 2, 0)
            .with_excitation_limit(0b000111, 0b000011, level);
        assert!(check("excitation-limited", &space, &ham, cut) > 0);
    }
}

#[test]
fn one_generator_rebuilds_its_tables_for_another_hamiltonian() {
    let dense = fcix::core::random_hamiltonian(6, 5);
    let sparse = sparsified_hamiltonian(5, 0.3, 0.05);
    let dense_again = dense.clone();
    assert_ne!(dense.id(), dense_again.id());
    let space = DetSpace::for_hamiltonian(&dense, 3, 2, 0);
    let mut gen = ConnGen::for_space(&space);
    assert_eq!(gen.table_bytes(), 0, "tables are built on first use");
    let cut = SparseOptions::default().h_cut;
    // `sparse` first: its rows are subsets of `dense`'s, so walking
    // `dense` over stale rows would drop connections (the other way
    // round would cost only time).
    let n_sparse = assert_walker_matches_enumeration("sparse", &mut gen, &space, &sparse, cut);
    let bytes = gen.table_bytes();
    assert!(bytes > 0);
    let n_dense = assert_walker_matches_enumeration("dense", &mut gen, &space, &dense, cut);
    assert!(n_sparse < n_dense);
    for (what, ham, n) in [
        ("sparse, again", &sparse, n_sparse),
        ("a clone of dense", &dense_again, n_dense),
    ] {
        assert_eq!(
            assert_walker_matches_enumeration(what, &mut gen, &space, ham, cut),
            n
        );
    }
    assert_eq!(
        gen.table_bytes(),
        bytes,
        "fixed size for a given orbital count"
    );
}

#[test]
fn both_solvers_report_the_connection_table_footprint() {
    let ham = Hamiltonian::new(&MoIntegrals::hubbard_chain(6, 1.0, 4.0, false));
    let space = DetSpace::for_hamiltonian(&ham, 3, 3, 0);
    // 8·(2n + C(n,2)·(n+1) + n²·(n+1)) bytes of bitmask rows at n = 6.
    let expected = 8.0 * (12 + 15 * 7 + 36 * 7) as f64;
    type Engine = fn(&DetSpace, &Hamiltonian, &SparseOptions) -> SparseResult;
    for engine in [solve_cdfci as Engine, solve_selected] {
        let registry = fcix::obs::MetricsRegistry::new();
        let opts = SparseOptions {
            obs: fcix::obs::ObsConfig::off().with_metrics(registry.clone()),
            ..SparseOptions::default()
        };
        assert!(engine(&space, &ham, &opts).converged);
        assert_eq!(
            registry.value("sparse.conn.table_bytes", &[]),
            Some(expected)
        );
    }
}
