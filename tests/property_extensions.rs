//! Property-style tests for the extension modules: dipole integrals,
//! excitation filters, spin diagnostics.
//! Cases come from the seeded `fci_fault::Xorshift64` generator (as in
//! `tests/property.rs`) so runs are reproducible without any external
//! fuzzing dependency.

use fcix::core::{random_hamiltonian, DetSpace, Hamiltonian};
use fcix::fault::Xorshift64;
use fcix::ints::{dipole, overlap, BasisSet, Molecule, Shell};

/// The dipole operator about a shifted origin differs from the
/// origin-centred one by exactly −C·S (operator identity).
#[test]
fn dipole_origin_identity() {
    let mut g = Xorshift64::new(0xD1B0);
    for _ in 0..8 {
        let cx = 4.0 * g.next_f64() - 2.0;
        let cy = 4.0 * g.next_f64() - 2.0;
        let cz = 4.0 * g.next_f64() - 2.0;
        let r = 0.8 + 2.2 * g.next_f64();
        let mol = Molecule::from_symbols_bohr(&[("H", [0.0; 3]), ("H", [0.0, 0.0, r])], 0);
        let b = BasisSet::build(&mol, "sto-3g");
        let s = overlap(&b);
        let d0 = dipole(&b, [0.0; 3]);
        let dc = dipole(&b, [cx, cy, cz]);
        let c = [cx, cy, cz];
        for ax in 0..3 {
            for i in 0..b.n_basis() {
                for j in 0..b.n_basis() {
                    let expect = d0[ax][(i, j)] - c[ax] * s[(i, j)];
                    assert!((dc[ax][(i, j)] - expect).abs() < 1e-11);
                }
            }
        }
    }
}

/// Excitation-filtered sector sizes follow the CI-level combinatorics
/// and nest monotonically.
#[test]
fn excitation_filter_nesting() {
    let mut g = Xorshift64::new(0xE8C);
    let mut cases = 0;
    while cases < 12 {
        let n = 3 + g.next_index(4);
        let na = 1 + g.next_index(3);
        let nb = 1 + g.next_index(3);
        let seed = g.next_u64() % 50;
        if na > n || nb > n {
            continue;
        }
        cases += 1;
        let ham = random_hamiltonian(n, seed);
        let space0 = DetSpace::c1(n, na, nb);
        // Reference: lowest diagonal determinant.
        let mut best = (f64::INFINITY, 0u64, 0u64);
        for ia in 0..space0.alpha.len() {
            for ib in 0..space0.beta.len() {
                let d = ham.diagonal_element(space0.alpha.mask(ia), space0.beta.mask(ib));
                if d < best.0 {
                    best = (d, space0.alpha.mask(ia), space0.beta.mask(ib));
                }
            }
        }
        let full = space0.dim();
        let mut prev = 0usize;
        for level in 0..=(na + nb) as u32 {
            let sp = DetSpace::c1(n, na, nb).with_excitation_limit(best.1, best.2, level);
            let d = sp.sector_dim();
            assert!(d >= prev, "levels must nest");
            prev = d;
            if level == 0 {
                assert_eq!(d, 1, "level 0 = the reference alone");
            }
        }
        assert_eq!(prev, full, "max level must recover full CI");
    }
}

/// ⟨S²⟩ of any single determinant equals
/// Sz(Sz+1) + (number of unpaired β-only orbitals actually movable):
/// for a determinant, S₋S₊ counts β-occupied ∧ α-empty orbitals.
#[test]
fn s_squared_single_determinant_rule() {
    let mut g = Xorshift64::new(0x552);
    let mut cases = 0;
    while cases < 32 {
        let n = 2 + g.next_index(5);
        let na = 1 + g.next_index(3);
        let nb = g.next_index(4);
        let pick = g.next_index(1000);
        if na > n || nb > n || na < nb {
            continue;
        }
        cases += 1;
        let space = DetSpace::c1(n, na, nb);
        let ia = pick % space.alpha.len();
        let ib = (pick / 7) % space.beta.len();
        let c = space.zeros_ci(1);
        c.set(ib, ia, 1.0);
        let s2 = fcix::core::s_squared(&space, &c);
        let sz = 0.5 * (na as f64 - nb as f64);
        let movable = (space.beta.mask(ib) & !space.alpha.mask(ia)).count_ones() as f64;
        assert!((s2 - (sz * (sz + 1.0) + movable)).abs() < 1e-10);
    }
}

/// The Hamiltonian diagonal is invariant under exchanging the α and β
/// occupations (spin-flip symmetry of the spin-free operator).
#[test]
fn diagonal_spin_flip_symmetry() {
    let mut g = Xorshift64::new(0xD1A6);
    for _ in 0..32 {
        let n = 2 + g.next_index(5);
        let seed = g.next_u64() % 100;
        let pick = g.next_index(500);
        let ham = random_hamiltonian(n, seed);
        let sp = DetSpace::c1(n, 2.min(n), 1.min(n));
        let ia = pick % sp.alpha.len();
        let ib = (pick / 3) % sp.beta.len();
        let (am, bm) = (sp.alpha.mask(ia), sp.beta.mask(ib));
        let d1 = ham.diagonal_element(am, bm);
        let d2 = ham.diagonal_element(bm, am);
        assert!((d1 - d2).abs() < 1e-12);
    }
}

#[test]
fn shell_level_dipole_matches_point_charge_limit() {
    // Two tight s shells far apart: ⟨a|z|a⟩ ≈ z_a exactly, cross terms ≈ 0.
    let basis = BasisSet::from_shells(vec![
        Shell::new(0, vec![6.0], vec![1.0], [0.0, 0.0, -4.0], 0),
        Shell::new(0, vec![6.0], vec![1.0], [0.0, 0.0, 4.0], 1),
    ]);
    let d = dipole(&basis, [0.0; 3]);
    assert!((d[2][(0, 0)] + 4.0).abs() < 1e-10);
    assert!((d[2][(1, 1)] - 4.0).abs() < 1e-10);
    assert!(d[2][(0, 1)].abs() < 1e-10);
}

#[test]
fn hamiltonian_invariant_under_orbital_relabeling() {
    // Permuting orbitals (a relabeling) must leave the FCI spectrum of a
    // small dense block unchanged.
    use fcix::core::slater::dense_h;
    use fcix::ints::EriTensor;
    use fcix::linalg::{eigh, Matrix};
    use fcix::scf::MoIntegrals;

    let ham0 = random_hamiltonian(4, 77);
    // permutation: reverse the orbital order
    let n = 4;
    let perm = |p: usize| n - 1 - p;
    let mut h = Matrix::zeros(n, n);
    let mut eri = EriTensor::zeros(n);
    for p in 0..n {
        for q in 0..n {
            h[(p, q)] = ham0.h[(perm(p), perm(q))];
            for r in 0..n {
                for s in 0..n {
                    eri.set(p, q, r, s, ham0.eri.get(perm(p), perm(q), perm(r), perm(s)));
                }
            }
        }
    }
    let mo = MoIntegrals {
        n_orb: n,
        h,
        eri,
        e_core: 0.0,
        orb_sym: vec![0; n],
        n_irrep: 1,
    };
    let ham1 = Hamiltonian::new(&mo);
    let space = DetSpace::c1(4, 2, 1);
    let e0 = eigh(&dense_h(&space, &ham0)).eigenvalues;
    let e1 = eigh(&dense_h(&space, &ham1)).eigenvalues;
    for (a, b) in e0.iter().zip(&e1) {
        assert!((a - b).abs() < 1e-10);
    }
}
