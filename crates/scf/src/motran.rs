//! AO→MO integral transformation and frozen-core folding.
//!
//! Produces the [`MoIntegrals`] record the FCI driver consumes: an active
//! window of `n_orb` orbitals with the effective one-electron matrix
//! `h_pq`, the chemist's-notation two-electron tensor `(pq|rs)` and a core
//! energy constant folding in both the nuclear repulsion and any frozen
//! doubly occupied orbitals.

use fci_ints::EriTensor;
use fci_linalg::Matrix;

/// Molecular-orbital integrals over an active orbital window.
#[derive(Clone, Debug)]
pub struct MoIntegrals {
    /// Number of active orbitals.
    pub n_orb: usize,
    /// Effective one-electron integrals `h_pq` (n_orb × n_orb).
    pub h: Matrix,
    /// Two-electron integrals `(pq|rs)` over active orbitals.
    pub eri: EriTensor,
    /// Constant: nuclear repulsion + frozen-core energy.
    pub e_core: f64,
    /// Irrep of each active orbital (all zero when symmetry is off).
    pub orb_sym: Vec<u8>,
    /// Number of irreps (1, 2, 4, or 8).
    pub n_irrep: usize,
}

impl MoIntegrals {
    /// Assign orbital symmetry labels after construction.
    pub fn with_symmetry(mut self, orb_sym: Vec<u8>, n_irrep: usize) -> Self {
        assert_eq!(orb_sym.len(), self.n_orb);
        assert!(matches!(n_irrep, 1 | 2 | 4 | 8));
        assert!(orb_sym.iter().all(|&g| (g as usize) < n_irrep));
        self.orb_sym = orb_sym;
        self.n_irrep = n_irrep;
        self
    }

    /// 1-D Hubbard chain in the site basis: hopping `t` between
    /// neighbours (wrapped into a ring when `periodic` and `sites > 2`),
    /// on-site repulsion `u`, no core energy, no symmetry labels.
    pub fn hubbard_chain(sites: usize, t: f64, u: f64, periodic: bool) -> Self {
        let n = sites;
        let mut h = Matrix::zeros(n, n);
        for i in 0..n.saturating_sub(1) {
            h[(i, i + 1)] = -t;
            h[(i + 1, i)] = -t;
        }
        if periodic && n > 2 {
            h[(0, n - 1)] = -t;
            h[(n - 1, 0)] = -t;
        }
        let mut eri = EriTensor::zeros(n);
        for i in 0..n {
            eri.set(i, i, i, i, u);
        }
        MoIntegrals {
            n_orb: n,
            h,
            eri,
            e_core: 0.0,
            orb_sym: vec![0; n],
            n_irrep: 1,
        }
    }
}

/// Transform AO integrals to the MO basis and fold a frozen core.
///
/// * `h_ao`, `eri_ao` — AO integrals;
/// * `c` — MO coefficients (AO × MO), e.g. from [`crate::rhf()`];
/// * `e_nuc` — nuclear repulsion;
/// * `n_frozen` — number of lowest MOs folded into the core as doubly
///   occupied;
/// * `n_active` — number of MOs after the frozen ones to keep (pass
///   `c.ncols() - n_frozen` for "all the rest").
pub fn transform_integrals(
    h_ao: &Matrix,
    eri_ao: &EriTensor,
    c: &Matrix,
    e_nuc: f64,
    n_frozen: usize,
    n_active: usize,
) -> MoIntegrals {
    let nao = h_ao.nrows();
    let nmo = c.ncols();
    assert_eq!(h_ao.ncols(), nao);
    assert_eq!(c.nrows(), nao);
    assert!(n_frozen + n_active <= nmo, "window exceeds MO count");

    let nw = n_frozen + n_active;
    // Window coefficients: frozen + active MOs only (saves transform work).
    let cw = Matrix::from_fn(nao, nw, |i, j| c[(i, j)]);

    // One-electron: h_MO = Cᵀ h C over the window.
    let h_mo = cw.t_matmul(h_ao).matmul(&cw);

    // Two-electron quarter transforms, O(N⁵):
    // t1[p, ν, λ, σ] = Σ_μ C_{μp}(μν|λσ), etc. Store as nested Vec of
    // matrices to keep the index juggling readable; windows are small.
    let full = |p: usize, q: usize, r: usize, s: usize| eri_ao.get(p, q, r, s);
    // Stage 1+2: (pq|λσ) for window p ≥ q.
    let npair_w = nw * (nw + 1) / 2;
    let mut half = vec![Matrix::zeros(nao, nao); npair_w];
    {
        // tmp[ν][λσ] per p: t(ν,λ,σ) = Σ_μ C_{μp} (μν|λσ)
        let mut t = vec![0.0; nao * nao * nao];
        for p in 0..nw {
            t.iter_mut().for_each(|x| *x = 0.0);
            for mu in 0..nao {
                let cmp = cw[(mu, p)];
                if cmp == 0.0 {
                    continue;
                }
                for nu in 0..nao {
                    for la in 0..nao {
                        for sg in 0..=la {
                            let v = cmp * full(mu, nu, la, sg);
                            t[(nu * nao + la) * nao + sg] += v;
                            if la != sg {
                                t[(nu * nao + sg) * nao + la] += v;
                            }
                        }
                    }
                }
            }
            for q in 0..=p {
                let hm = &mut half[p * (p + 1) / 2 + q];
                for la in 0..nao {
                    for sg in 0..nao {
                        let mut acc = 0.0;
                        for nu in 0..nao {
                            acc += cw[(nu, q)] * t[(nu * nao + la) * nao + sg];
                        }
                        hm[(la, sg)] = acc;
                    }
                }
            }
        }
    }
    // Stages 3+4: (pq|rs) = Cᵀ half[pq] C.
    let mut eri_w = EriTensor::zeros(nw);
    for p in 0..nw {
        for q in 0..=p {
            let m = cw.t_matmul(&half[p * (p + 1) / 2 + q]).matmul(&cw);
            for r in 0..nw {
                for s in 0..=r {
                    if p * (p + 1) / 2 + q >= r * (r + 1) / 2 + s {
                        eri_w.set(p, q, r, s, m[(r, s)]);
                    }
                }
            }
        }
    }

    // Frozen-core folding over window indices [0, n_frozen).
    let mut e_core = e_nuc;
    for i in 0..n_frozen {
        e_core += 2.0 * h_mo[(i, i)];
        for j in 0..n_frozen {
            e_core += 2.0 * eri_w.get(i, i, j, j) - eri_w.get(i, j, j, i);
        }
    }
    let mut h_act = Matrix::zeros(n_active, n_active);
    for p in 0..n_active {
        for q in 0..n_active {
            let (pp, qq) = (p + n_frozen, q + n_frozen);
            let mut v = h_mo[(pp, qq)];
            for i in 0..n_frozen {
                v += 2.0 * eri_w.get(pp, qq, i, i) - eri_w.get(pp, i, i, qq);
            }
            h_act[(p, q)] = v;
        }
    }
    let mut eri_act = EriTensor::zeros(n_active);
    for p in 0..n_active {
        for q in 0..=p {
            for r in 0..=p {
                for s in 0..=r {
                    eri_act.set(
                        p,
                        q,
                        r,
                        s,
                        eri_w.get(p + n_frozen, q + n_frozen, r + n_frozen, s + n_frozen),
                    );
                }
            }
        }
    }

    MoIntegrals {
        n_orb: n_active,
        h: h_act,
        eri: eri_act,
        e_core,
        orb_sym: vec![0; n_active],
        n_irrep: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rhf::{rhf, RhfOptions};
    use fci_ints::{BasisSet, Molecule};

    fn h2_scf() -> (crate::rhf::RhfResult, f64) {
        let m = Molecule::from_symbols_bohr(&[("H", [0.0, 0.0, 0.0]), ("H", [0.0, 0.0, 1.4])], 0);
        let b = BasisSet::build(&m, "sto-3g");
        let res = rhf(&m, &b, &RhfOptions::default());
        let e_nuc = m.nuclear_repulsion();
        (res, e_nuc)
    }

    #[test]
    fn identity_transform_is_identity() {
        let (res, e_nuc) = h2_scf();
        let n = res.h_ao.nrows();
        let c = Matrix::eye(n);
        let mo = transform_integrals(&res.h_ao, &res.eri_ao, &c, e_nuc, 0, n);
        assert!(mo.h.max_abs_diff(&res.h_ao) < 1e-12);
        for p in 0..n {
            for q in 0..n {
                for r in 0..n {
                    for s in 0..n {
                        assert!(
                            (mo.eri.get(p, q, r, s) - res.eri_ao.get(p, q, r, s)).abs() < 1e-12
                        );
                    }
                }
            }
        }
        assert!((mo.e_core - e_nuc).abs() < 1e-15);
    }

    #[test]
    fn hf_energy_from_mo_integrals() {
        // E_RHF = e_nuc + 2Σ_i h_ii + Σ_ij [2(ii|jj) − (ij|ji)]
        // must reproduce the SCF energy when evaluated in the MO basis.
        let (res, e_nuc) = h2_scf();
        let n = res.h_ao.nrows();
        let mo = transform_integrals(&res.h_ao, &res.eri_ao, &res.mo_coeffs, e_nuc, 0, n);
        let mut e = mo.e_core;
        for i in 0..res.n_occ {
            e += 2.0 * mo.h[(i, i)];
            for j in 0..res.n_occ {
                e += 2.0 * mo.eri.get(i, i, j, j) - mo.eri.get(i, j, j, i);
            }
        }
        assert!((e - res.energy).abs() < 1e-9, "{e} vs {}", res.energy);
    }

    #[test]
    fn freezing_all_occupied_gives_hf_core_energy() {
        let (res, e_nuc) = h2_scf();
        let mo = transform_integrals(&res.h_ao, &res.eri_ao, &res.mo_coeffs, e_nuc, res.n_occ, 1);
        assert!((mo.e_core - res.energy).abs() < 1e-9);
        assert_eq!(mo.n_orb, 1);
    }

    #[test]
    fn mo_eri_brillouin_symmetries() {
        let (res, e_nuc) = h2_scf();
        let n = res.h_ao.nrows();
        let mo = transform_integrals(&res.h_ao, &res.eri_ao, &res.mo_coeffs, e_nuc, 0, n);
        // 8-fold symmetry holds by storage; h is symmetric.
        assert!(mo.h.is_symmetric(1e-10));
        assert_eq!(mo.eri.get(0, 1, 0, 1), mo.eri.get(1, 0, 1, 0));
    }

    #[test]
    fn water_frozen_core_window() {
        let m = Molecule::from_symbols_bohr(
            &[
                ("O", [0.0, 0.0, 0.0]),
                ("H", [0.0, 1.43, 1.11]),
                ("H", [0.0, -1.43, 1.11]),
            ],
            0,
        );
        let b = BasisSet::build(&m, "sto-3g");
        let res = rhf(&m, &b, &RhfOptions::default());
        let mo = transform_integrals(
            &res.h_ao,
            &res.eri_ao,
            &res.mo_coeffs,
            m.nuclear_repulsion(),
            1,
            6,
        );
        assert_eq!(mo.n_orb, 6);
        // The frozen 1s core contributes a large negative constant.
        assert!(mo.e_core < m.nuclear_repulsion());
        assert!(mo.h.is_symmetric(1e-9));
    }
}
