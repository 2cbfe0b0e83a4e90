//! The symmetry-blocked σ against an answer that does not come from σ.
//!
//! `apply_sigma` multiplies only the in-sector blocks of C, Ĝ and V; no
//! bit pin can guard that on a point-group problem (a real molecule's
//! symmetry-forbidden integrals are rounding noise, which the blocked
//! kernels drop and an unblocked one multiplies), so the guard is the
//! explicit Hamiltonian: `slater::dense_h` built element by element from
//! the Slater–Condon rules, over seeded random Hamiltonians whose
//! forbidden integrals are exact zeros, for 1, 2, 4 and 8 irreps with
//! unsorted orbital labels and **every** target irrep. The kernels also
//! skip pair rows of Ĝ and V that hold only exact zeros; Hubbard chains
//! and random Hamiltonians with planted zero pairs guard that screen.
//!
//! A CI vector stores only its sector, so the same cases also pin the
//! storage: its size, the blocked transpose, and the vector algebra
//! against plain loops over the full product.

use fcix::core::slater::dense_h;
use fcix::core::{
    apply_sigma, diagonalize, random_symmetric_hamiltonian, solve_roots_prepared, DetSpace,
    DiagMethod, DiagOptions, FciOptions, Hamiltonian, PoolParams, SigmaCtx, SigmaMethod,
};
use fcix::ddi::{Backend, CommStats, Ddi, DistMatrix};
use fcix::fault::Xorshift64;
use fcix::linalg::{eigh, Matrix};
use fcix::scf::MoIntegrals;
use fcix::sparse::{solve_selected, SparseOptions};
use fcix::xsim::MachineModel;

/// Orbital labels per point-group size, in no particular order. The
/// 8-irrep set leaves irreps 1, 2, 4 and 7 without an orbital, so some
/// string irreps — and with them whole blocks — are empty.
const LABELS: [(usize, [u8; 6]); 4] = [
    (1, [0, 0, 0, 0, 0, 0]),
    (2, [1, 0, 0, 1, 0, 1]),
    (4, [2, 0, 3, 1, 0, 2]),
    (8, [5, 0, 3, 6, 0, 5]),
];

/// `(n, Nα, Nβ)`: every spin-count shape the kernels branch on — Nα > Nβ,
/// Nα = Nβ, a spin with one electron (no N−2 families), and on five
/// orbitals C(5,2) = C(5,3): equal string counts, different irreps per
/// index, which is what a row spin guessed from `nrows` gets wrong.
const ELECTRONS: [(usize, usize, usize); 7] = [
    (6, 3, 2),
    (6, 3, 3),
    (6, 4, 3),
    (6, 2, 2),
    (6, 2, 1),
    (6, 1, 1),
    (5, 2, 3),
];

/// A seeded CI vector with every (stored, in-sector) coefficient in
/// (−½, ½).
fn random_sector_vector(space: &DetSpace, nproc: usize, seed: u64) -> DistMatrix {
    let c = space.zeros_ci(nproc);
    let mut rng = Xorshift64::new(seed);
    c.map_inplace(|_, _, _| rng.next_f64() - 0.5);
    c
}

fn dense_matvec(h: &Matrix, c: &[f64]) -> Vec<f64> {
    (0..c.len())
        .map(|i| (0..c.len()).map(|j| h[(i, j)] * c[j]).sum())
        .collect()
}

/// `apply_sigma` on `ddi` against `H·c`, entry by entry.
fn check_sigma(space: &DetSpace, ham: &Hamiltonian, h: &Matrix, ddi: &Ddi, what: &str) {
    let model = MachineModel::cray_x1();
    let ctx = SigmaCtx {
        space,
        ham,
        ddi,
        model: &model,
        pool: PoolParams::default(),
    };
    let c = random_sector_vector(space, ddi.nproc(), 77);
    let want = dense_matvec(h, &c.to_dense());
    let (sigma, _) = apply_sigma(&ctx, &c, SigmaMethod::Dgemm);
    let got = sigma.to_dense();
    let nb = space.beta.len();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        let (ib, ia) = (i % nb, i / nb);
        if space.in_sector(ib, ia) {
            assert!((g - w).abs() < 1e-11, "{what}: σ({ib},{ia}) = {g} vs {w}");
        } else {
            // H commutes with the symmetry (the oracle's own check), and
            // the blocked kernels never write outside the sector.
            assert!(w.abs() < 1e-12, "{what}: oracle leaks {w} at ({ib},{ia})");
            assert!(g.to_bits() == 0, "{what}: σ({ib},{ia}) = {g} out of sector");
        }
    }
}

/// Does some rank own columns, but none of an irrep that has α strings?
fn some_rank_lacks_an_irrep(space: &DetSpace, nproc: usize) -> bool {
    let c = space.zeros_ci(nproc);
    (0..nproc).map(|rank| c.local_cols(rank)).any(|local| {
        !local.is_empty()
            && (0..space.alpha.n_irrep() as u8).any(|g| {
                let block = space.alpha.block_range(g);
                !block.is_empty() && (block.end <= local.start || local.end <= block.start)
            })
    })
}

#[test]
fn blocked_sigma_matches_explicit_hamiltonian_in_every_sector() {
    // The empty shapes the block loops must step over.
    let (mut empty_sectors, mut empty_string_blocks, mut starved_ranks) = (0, 0, 0);
    for (n_irrep, labels) in LABELS {
        for (n, na, nb) in ELECTRONS {
            let sym = &labels[..n];
            let seed = (100 * n_irrep + 10 * na + nb) as u64;
            let ham = random_symmetric_hamiltonian(n, seed, sym, n_irrep);
            // H is the same matrix whatever the target irrep.
            let h = dense_h(&DetSpace::new(n, na, nb, sym, n_irrep, 0), &ham);
            for target in 0..n_irrep as u8 {
                let space = DetSpace::new(n, na, nb, sym, n_irrep, target);
                empty_sectors += usize::from(space.sector_dim() == 0);
                empty_string_blocks +=
                    usize::from((0..n_irrep as u8).any(|g| space.beta.block_len(g) == 0));
                for nproc in [1, 2, 5, 40] {
                    starved_ranks += usize::from(some_rank_lacks_an_irrep(&space, nproc));
                    let what = format!(
                        "{n_irrep} irreps, ({na},{nb}) in {n}, target {target}, {nproc} ranks"
                    );
                    let ddi = Ddi::new(nproc, Backend::Serial);
                    check_sigma(&space, &ham, &h, &ddi, &what);
                }
            }
        }
    }
    assert!(
        empty_sectors > 0 && empty_string_blocks > 0 && starved_ranks > 0,
        "{empty_sectors} {empty_string_blocks} {starved_ranks}"
    );
}

#[test]
fn blocked_sigma_matches_explicit_hamiltonian_on_threads() {
    let (n_irrep, labels) = LABELS[3];
    let ham = random_symmetric_hamiltonian(6, 9, &labels, n_irrep);
    let h = dense_h(&DetSpace::new(6, 3, 2, &labels, n_irrep, 0), &ham);
    for target in [0u8, 3, 6] {
        let space = DetSpace::new(6, 3, 2, &labels, n_irrep, target);
        let ddi = Ddi::new(3, Backend::Threads);
        check_sigma(&space, &ham, &h, &ddi, &format!("threads, target {target}"));
    }
}

/// `ham` with every `(pq|rs)` of each planted pair `(p, r)` set to an
/// exact zero: its row of V is screened, and for `p ≠ r` its row of G.
fn plant_zero_pairs(ham: &Hamiltonian, pairs: &[(usize, usize)]) -> Hamiltonian {
    let mut mo = MoIntegrals {
        n_orb: ham.n,
        h: ham.h.clone(),
        eri: ham.eri.clone(),
        e_core: ham.e_core,
        orb_sym: ham.orb_sym.clone(),
        n_irrep: ham.n_irrep,
    };
    for &(p, r) in pairs {
        for q in 0..ham.n {
            for s in 0..ham.n {
                mo.eri.set(p, q, r, s, 0.0);
            }
        }
    }
    Hamiltonian::new(&mo)
}

/// Planted zero pairs: (4, 1) and (5, 0) are every pair of irrep 0 under
/// the 4- and 8-irrep labels, so a whole `Ĝ_00` is screened there, and
/// part of it under 1 and 2 irreps; (1, 0) thins another block, and
/// (3, 3) a diagonal pair of V only.
const PLANTED: [(usize, usize); 4] = [(4, 1), (5, 0), (1, 0), (3, 3)];

/// Exact-zero screening: the kernels skip the pair rows of Ĝ and V that
/// hold only zeros, on Hubbard chains (all of G, all but `(p, p)` of V)
/// and on random Hamiltonians with planted zero pairs, and still give H·c.
#[test]
fn screened_sigma_matches_explicit_hamiltonian() {
    for periodic in [false, true] {
        let ham = Hamiltonian::new(&MoIntegrals::hubbard_chain(6, 1.0, 4.0, periodic));
        for (na, nb) in [(3, 3), (4, 2), (3, 2), (2, 1)] {
            let space = DetSpace::for_hamiltonian(&ham, na, nb, 0);
            let h = dense_h(&space, &ham);
            for nproc in [1, 2, 5, 40] {
                let what = format!("hubbard 6 (periodic {periodic}), ({na},{nb}), {nproc} ranks");
                check_sigma(&space, &ham, &h, &Ddi::new(nproc, Backend::Serial), &what);
            }
            let what = format!("hubbard 6 (periodic {periodic}), ({na},{nb}), threads");
            check_sigma(&space, &ham, &h, &Ddi::new(3, Backend::Threads), &what);
        }
    }
    for (n_irrep, labels) in LABELS {
        for (n, na, nb) in [(6, 3, 2), (6, 3, 3)] {
            let sym = &labels[..n];
            let dense = random_symmetric_hamiltonian(n, (7 * n_irrep + na) as u64, sym, n_irrep);
            let ham = plant_zero_pairs(&dense, &PLANTED);
            let h = dense_h(&DetSpace::new(n, na, nb, sym, n_irrep, 0), &ham);
            for target in 0..n_irrep as u8 {
                let space = DetSpace::new(n, na, nb, sym, n_irrep, target);
                for nproc in [1, 2, 5, 40] {
                    let what = format!(
                        "planted, {n_irrep} irreps, ({na},{nb}), target {target}, {nproc} ranks"
                    );
                    check_sigma(&space, &ham, &h, &Ddi::new(nproc, Backend::Serial), &what);
                }
                let what =
                    format!("planted, {n_irrep} irreps, ({na},{nb}), target {target}, threads");
                check_sigma(&space, &ham, &h, &Ddi::new(3, Backend::Threads), &what);
            }
        }
    }
}

/// Bit patterns, for exact comparisons that tell −0.0 from 0.0.
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A CI vector stores exactly the sector; its transpose is blocked and
/// undoes itself; `axpy` and `weighted_square` on the stored elements
/// are, bit for bit, the same loops over the full β × α product
/// (`weighted_square` is one running sum in α-major order: the dropped
/// zeros add only `±0.0` terms); and `dot` and `norm` are the eight-lane
/// fold over each rank's stored elements in column order (element `e` of
/// a rank adds to lane `e mod 8`), then the ranks.
#[test]
fn blocked_storage_matches_full_product_loops() {
    for (n_irrep, labels) in LABELS {
        for (n, na, nb) in ELECTRONS {
            let sym = &labels[..n];
            for target in 0..n_irrep as u8 {
                let space = DetSpace::new(n, na, nb, sym, n_irrep, target);
                for nproc in [1, 2, 5, 40] {
                    let what = format!(
                        "{n_irrep} irreps, ({na},{nb}) in {n}, target {target}, {nproc} ranks"
                    );
                    let (a, b) = (
                        random_sector_vector(&space, nproc, 5),
                        random_sector_vector(&space, nproc, 6),
                    );
                    assert_eq!(a.layout().stored(), space.sector_dim(), "{what}");
                    let (da, db) = (a.to_dense(), b.to_dense());
                    let mut stats = vec![CommStats::default(); nproc];
                    let back = a.transpose(&mut stats).transpose(&mut stats);
                    assert_eq!(back.layout(), a.layout(), "{what}");
                    assert_eq!(bits(&back.to_dense()), bits(&da), "{what}");

                    let rank_sums = |f: &dyn Fn(usize) -> f64| {
                        (0..nproc).fold(0.0, |acc, p| {
                            let nb = space.beta.len();
                            let stored = a
                                .local_cols(p)
                                .flat_map(|c| a.layout().rows(c).map(move |r| c * nb + r));
                            let mut l = [0.0; 8];
                            for (e, i) in stored.enumerate() {
                                l[e % 8] += f(i);
                            }
                            acc + (((l[0] + l[4]) + (l[1] + l[5]))
                                + ((l[2] + l[6]) + (l[3] + l[7])))
                        })
                    };
                    let dot = rank_sums(&|i| da[i] * db[i]);
                    assert_eq!(a.dot(&b).to_bits(), dot.to_bits(), "dot, {what}");
                    let norm = rank_sums(&|i| da[i] * da[i]).sqrt();
                    assert_eq!(a.norm().to_bits(), norm.to_bits(), "norm, {what}");
                    let mut weighted = 0.0;
                    for i in 0..da.len() {
                        weighted += db[i] * da[i] * da[i];
                    }
                    let got = a.weighted_square(&b).to_bits();
                    assert_eq!(got, weighted.to_bits(), "weighted_square, {what}");
                    b.axpy(-0.375, &a);
                    let axpy: Vec<f64> = db.iter().zip(&da).map(|(y, x)| y + -0.375 * x).collect();
                    assert_eq!(bits(&b.to_dense()), bits(&axpy), "axpy, {what}");
                }
            }
        }
    }
}

/// Lowest eigenvalues of H restricted to the sector's determinants.
fn sector_spectrum(space: &DetSpace, h: &Matrix) -> Vec<f64> {
    let nb = space.beta.len();
    let idx: Vec<usize> = (0..space.dim())
        .filter(|&i| space.in_sector(i % nb, i / nb))
        .collect();
    let hs = Matrix::from_fn(idx.len(), idx.len(), |i, j| h[(idx[i], idx[j])]);
    eigh(&hs).eigenvalues
}

/// AutoAdjust, Davidson, two-root block Davidson and selected CI (ε =
/// 1e-10, one and two roots) reach the sector's lowest eigenvalues of the
/// explicit H, in every irrep of a 4- and an 8-irrep problem. (A failure here that `blocked_sigma_…` does not share
/// is the solver's, not σ's: ROADMAP item 4 has single-root Davidson
/// stalling on an excited root of the guess's spin for some seeds.)
#[test]
fn solvers_reach_the_sector_ground_state_in_every_irrep() {
    let model = MachineModel::cray_x1();
    for ((n_irrep, labels), seed) in [(LABELS[2], 3), (LABELS[3], 3)] {
        let ham = random_symmetric_hamiltonian(6, seed, &labels, n_irrep);
        let h = dense_h(&DetSpace::new(6, 3, 2, &labels, n_irrep, 0), &ham);
        for target in 0..n_irrep as u8 {
            let space = DetSpace::new(6, 3, 2, &labels, n_irrep, target);
            if space.sector_dim() < 2 {
                continue;
            }
            let exact = sector_spectrum(&space, &h);
            let ddi = Ddi::new(2, Backend::Serial);
            let ctx = SigmaCtx {
                space: &space,
                ham: &ham,
                ddi: &ddi,
                model: &model,
                pool: PoolParams::default(),
            };
            let opts = DiagOptions {
                max_iter: 200,
                ..DiagOptions::default()
            };
            for method in [DiagMethod::AutoAdjust, DiagMethod::Davidson] {
                let r = diagonalize(&ctx, SigmaMethod::Dgemm, method, &opts);
                assert!(
                    r.converged && (r.e_elec - exact[0]).abs() < 1e-8,
                    "{n_irrep} irreps, target {target}, {method:?}: {} vs {} (converged: {})",
                    r.e_elec,
                    exact[0],
                    r.converged
                );
            }
            let roots = FciOptions {
                nproc: 2,
                diag: opts,
                ..FciOptions::default()
            };
            let r = solve_roots_prepared(&space, &ham, &roots, 2);
            for (root, (e, want)) in r.e_elec.iter().zip(&exact).enumerate() {
                assert!(
                    r.converged[root] && (e - want).abs() < 1e-8,
                    "{n_irrep} irreps, target {target}, root {root}: {e} vs {want}"
                );
            }
            for nroots in [1, 2] {
                let opts = SparseOptions {
                    eps: 1e-10,
                    tol: 1e-11,
                    nroots,
                    ..SparseOptions::default()
                };
                let r = solve_selected(&space, &ham, &opts);
                assert!(r.converged && r.energies.len() == nroots);
                for (root, (e, want)) in r.energies.iter().zip(&exact).enumerate() {
                    assert!(
                        (e - ham.e_core - want).abs() < 1e-8,
                        "{n_irrep} irreps, target {target}, selected CI root {root} of \
                         {nroots}: {e} vs {want}"
                    );
                }
            }
        }
    }
}
