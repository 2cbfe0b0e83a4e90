//! Wavefunction properties: total spin ⟨S²⟩ and the one-particle reduced
//! density matrix.
//!
//! These are the standard post-convergence diagnostics of a determinant
//! FCI program: ⟨S²⟩ verifies the spin purity of the converged root
//! (determinant bases are Sz eigenbases, not S² eigenbases, so a converged
//! eigenvector must come out spin-pure on its own), and the 1-RDM gives
//! natural orbitals/occupations and one-electron properties.
//!
//! Both are built from the same string coupling tables as σ; they are
//! evaluated on a gathered (dense) copy of the CI vector since they are
//! O(dim · n²) one-shot operations, not per-iteration kernels.

use crate::detspace::DetSpace;
use fci_ddi::DistMatrix;
use fci_linalg::Matrix;

/// ⟨S²⟩ of a (normalized) CI vector.
///
/// Uses `S² = S₋S₊ + Sz(Sz + 1)` with
/// `⟨S₋S₊⟩ = Nβ̄ ... ` evaluated determinantally:
/// `S₊ = Σ_p a†_{pα} a_{pβ}`, so
/// `⟨C|S₋S₊|C⟩ = Σ_{pq} ⟨C| a†_{qβ} a_{qα} a†_{pα} a_{pβ} |C⟩`.
pub fn s_squared(space: &DetSpace, c: &DistMatrix) -> f64 {
    let na = space.alpha.len();
    let nb = space.beta.len();
    let dense = c.to_dense();
    let norm2: f64 = dense.iter().map(|x| x * x).sum();
    assert!(norm2 > 0.0, "cannot take <S^2> of a zero vector");

    let n_alpha = space.alpha.n_elec() as f64;
    let n_beta = space.beta.n_elec() as f64;
    let sz = 0.5 * (n_alpha - n_beta);

    let mut s_minus_plus = 0.0;
    // Accumulate ‖S₊ C‖² properly: build S₊C as a dense vector over the
    // (Nα+1, Nβ−1) space.
    if space.beta.n_elec() >= 1 && space.alpha.n_elec() < space.n_orb() {
        let up_alpha = fci_strings::SpinStrings::new(
            space.n_orb(),
            space.alpha.n_elec() + 1,
            space.alpha.orb_sym(),
            space.alpha.n_irrep(),
        );
        let dn_beta = fci_strings::SpinStrings::new(
            space.n_orb(),
            space.beta.n_elec() - 1,
            space.beta.orb_sym(),
            space.beta.n_irrep(),
        );
        let mut splus = vec![0.0f64; up_alpha.len() * dn_beta.len()];
        let nb2 = dn_beta.len();
        for ia in 0..na {
            let am = space.alpha.mask(ia);
            for ib in 0..nb {
                let bm = space.beta.mask(ib);
                let ci = dense[ib + ia * nb];
                if ci == 0.0 {
                    continue;
                }
                let mut m = bm & !am;
                while m != 0 {
                    let p = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let (sb, bm2) = fci_strings::annihilate(bm, p).unwrap();
                    let (sa, am2) = fci_strings::create(am, p).unwrap();
                    let ja = up_alpha.index_of(am2).unwrap();
                    let jb = dn_beta.index_of(bm2).unwrap();
                    splus[jb + ja * nb2] += (sa * sb) as f64 * ci;
                }
            }
        }
        s_minus_plus = splus.iter().map(|x| x * x).sum::<f64>();
    }

    (s_minus_plus + norm2 * sz * (sz + 1.0)) / norm2
}

/// Spin-summed one-particle reduced density matrix
/// `γ_pq = ⟨C| E_pq |C⟩ / ⟨C|C⟩`.
pub fn one_rdm(space: &DetSpace, c: &DistMatrix) -> Matrix {
    let n = space.n_orb();
    let na = space.alpha.len();
    let nb = space.beta.len();
    let dense = c.to_dense();
    let norm2: f64 = dense.iter().map(|x| x * x).sum();
    assert!(norm2 > 0.0);
    let mut g = Matrix::zeros(n, n);

    // α part: E^α_pq moves columns.
    for ja in 0..na {
        for e in space.alpha_singles.of(ja) {
            let ia = e.to as usize;
            let sgn = e.sign as f64;
            let mut acc = 0.0;
            for ib in 0..nb {
                acc += dense[ib + ia * nb] * dense[ib + ja * nb];
            }
            g[(e.p as usize, e.q as usize)] += sgn * acc;
        }
    }
    // β part: E^β_pq moves rows.
    for jb in 0..nb {
        for e in space.beta_singles.of(jb) {
            let ib = e.to as usize;
            let sgn = e.sign as f64;
            let mut acc = 0.0;
            for ia in 0..na {
                acc += dense[ib + ia * nb] * dense[jb + ia * nb];
            }
            g[(e.p as usize, e.q as usize)] += sgn * acc;
        }
    }
    g.scale(1.0 / norm2);
    g
}

/// Natural occupation numbers (eigenvalues of the 1-RDM), descending.
pub fn natural_occupations(space: &DetSpace, c: &DistMatrix) -> Vec<f64> {
    let g = one_rdm(space, c);
    let mut occ = fci_linalg::eigh(&g).eigenvalues;
    occ.reverse();
    occ
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{diagonalize, DiagMethod, DiagOptions};
    use crate::hamiltonian::{random_hamiltonian, Hamiltonian};
    use crate::sigma::{test_ctx, SigmaMethod};
    use fci_ddi::{Backend, Ddi};

    fn ground_state(n: usize, na: usize, nb: usize, seed: u64) -> (DetSpace, DistMatrix) {
        let ham = random_hamiltonian(n, seed);
        let space = DetSpace::c1(n, na, nb);
        let ddi = Ddi::new(2, Backend::Serial);
        let ctx = test_ctx(&space, &ham, &ddi);
        let r = diagonalize(
            &ctx,
            SigmaMethod::Dgemm,
            DiagMethod::Davidson,
            &DiagOptions {
                max_iter: 120,
                ..Default::default()
            },
        );
        assert!(r.converged, "setup diagonalization failed");
        (space, r.c)
    }

    #[test]
    fn single_determinant_s2() {
        // A single high-spin determinant (2α, 0β) has S = 1: ⟨S²⟩ = 2.
        let space = DetSpace::c1(4, 2, 0);
        let ham = random_hamiltonian(4, 1);
        let c = space.guess(&ham, 1);
        let s2 = s_squared(&space, &c);
        assert!((s2 - 2.0).abs() < 1e-12, "s2 = {s2}");
    }

    #[test]
    fn closed_shell_determinant_s2_zero() {
        // The doubly occupied determinant |aα aβ⟩ is a singlet.
        let space = DetSpace::c1(3, 1, 1);
        let c = space.zeros_ci(1);
        c.set(0, 0, 1.0); // α in orb 0, β in orb 0
        let s2 = s_squared(&space, &c);
        assert!(s2.abs() < 1e-12, "s2 = {s2}");
    }

    #[test]
    fn open_shell_single_det_is_mixed() {
        // |0α 1β⟩ is a 50/50 singlet/triplet mixture: ⟨S²⟩ = 1.
        let space = DetSpace::c1(2, 1, 1);
        let c = space.zeros_ci(1);
        let ib = space.beta.index_of(0b10).unwrap();
        let ia = space.alpha.index_of(0b01).unwrap();
        c.set(ib, ia, 1.0);
        let s2 = s_squared(&space, &c);
        assert!((s2 - 1.0).abs() < 1e-12, "s2 = {s2}");
    }

    #[test]
    fn converged_ground_state_spin_pure() {
        // The FCI ground state of a spin-free Hamiltonian is an S²
        // eigenstate: Ms = 0 ground states here come out as singlets.
        let (space, c) = ground_state(5, 2, 2, 3);
        let s2 = s_squared(&space, &c);
        assert!(s2.abs() < 1e-7, "s2 = {s2}");
    }

    #[test]
    fn rdm_trace_is_electron_count() {
        let (space, c) = ground_state(5, 2, 2, 7);
        let g = one_rdm(&space, &c);
        let tr: f64 = (0..5).map(|p| g[(p, p)]).sum();
        assert!((tr - 4.0).abs() < 1e-9, "tr = {tr}");
        assert!(g.is_symmetric(1e-9));
    }

    #[test]
    fn rdm_energy_consistency() {
        // ⟨H⟩ recomputed from γ and the CI vector must match the Rayleigh
        // quotient: check the one-electron part Σ h_pq γ_qp = ⟨C|ĥ|C⟩.
        let ham = random_hamiltonian(4, 11);
        let space = DetSpace::c1(4, 2, 1);
        let ddi = Ddi::new(1, Backend::Serial);
        let ctx = test_ctx(&space, &ham, &ddi);
        let r = diagonalize(
            &ctx,
            SigmaMethod::Dgemm,
            DiagMethod::Davidson,
            &DiagOptions::default(),
        );
        let g = one_rdm(&space, &r.c);
        let e1: f64 = (0..4)
            .flat_map(|p| (0..4).map(move |q| (p, q)))
            .map(|(p, q)| ham.h[(p, q)] * g[(q, p)])
            .sum();
        // Reference: build ⟨C|ĥ|C⟩ by a σ with the two-electron part off.
        let ham1 = Hamiltonian::new(&fci_scf::MoIntegrals {
            n_orb: 4,
            h: ham.h.clone(),
            eri: fci_ints::EriTensor::zeros(4),
            e_core: 0.0,
            orb_sym: vec![0; 4],
            n_irrep: 1,
        });
        let ctx1 = test_ctx(&space, &ham1, &ddi);
        let (hc, _) = crate::sigma::apply_sigma(&ctx1, &r.c, SigmaMethod::Dgemm);
        let expect = r.c.dot(&hc) / r.c.dot(&r.c);
        assert!((e1 - expect).abs() < 1e-9, "{e1} vs {expect}");
    }

    #[test]
    fn natural_occupations_bounds() {
        let (space, c) = ground_state(5, 2, 2, 23);
        let occ = natural_occupations(&space, &c);
        for &o in &occ {
            assert!(o > -1e-10 && o < 2.0 + 1e-10, "occupation {o}");
        }
        // Descending order and summing to N.
        for w in occ.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
        let sum: f64 = occ.iter().sum();
        assert!((sum - 4.0).abs() < 1e-9);
        // A well-behaved ground state is dominated by the reference:
        // strongest natural occupation close to 2.
        assert!(occ[0] > 1.8);
    }
}
