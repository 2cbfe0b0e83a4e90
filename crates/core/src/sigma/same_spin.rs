//! The DGEMM-based same-spin routine (paper eqs. 7–9, Fig. 2a).
//!
//! For the row spin of a column-distributed CI matrix everything is local:
//! the routine loops over N−2 electron intermediate strings K; for each it
//!
//! 1. **gathers** `D(qs, ·) = B^{K,J}_{qs} C(J, ·)` — a vector gather of C
//!    rows into the packed pair-indexed matrix D (multi-streamed local
//!    copy on the X1),
//! 2. multiplies `E = Ĝ · D` with the antisymmetrized integral matrix
//!    (the DGEMM — where nearly all flops land),
//! 3. **scatters** `σ(I, ·) += A^{K,I}_{pr} E(pr, ·)`.
//!
//! The one-electron part (singles with bare `h_pq`) rides along in the
//! same pass. Work is statically balanced: every rank walks all K but only
//! touches its own columns, so there is no communication at all — the
//! property the paper contrasts against the replicated-work MOC routine.

use super::SigmaCtx;
use crate::hamiltonian::Hamiltonian;
use crate::phase::run_phase;
use fci_ddi::DistMatrix;
use fci_linalg::{dgemm, dgemm_prepacked, gemm_prefers_packed, Matrix, PackedA, Trans};
use fci_strings::{Nm2Families, SinglesTable};
use fci_xsim::RunReport;

thread_local! {
    /// Per-thread packed Ĝ operand, keyed by [`Hamiltonian::id`]. Ĝ is
    /// constant for a Hamiltonian and multiplies a fresh D on every N−2
    /// family of every σ application, so each worker thread packs it
    /// exactly once and replays the packed form from then on.
    static G_PACK: std::cell::RefCell<Option<(u64, PackedA)>> =
        const { std::cell::RefCell::new(None) };
}

/// Run `f` with the thread's packed Ĝ operand for `ham` — packing it on
/// first use — or with `None` when the `m×n×k` product shape sits below
/// the GEMM packing crossover (where `dgemm` would take the unpacked
/// small path and a handle could not be replayed bitwise).
fn with_g_pack<R>(
    ham: &Hamiltonian,
    m: usize,
    n: usize,
    k: usize,
    f: impl FnOnce(Option<&PackedA>) -> R,
) -> R {
    if !gemm_prefers_packed(m, n, k) {
        return f(None);
    }
    G_PACK.with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_ref() {
            Some((id, _)) if *id == ham.id() => {}
            _ => *slot = Some((ham.id(), PackedA::pack(Trans::No, &ham.g))),
        }
        f(slot.as_ref().map(|(_, pa)| pa))
    })
}

/// Apply the row-spin (same-spin + one-electron) half of σ for one spin
/// channel. `c` and `sigma` must have rows indexed by that spin's strings.
/// `name` labels the phase in traces ("beta_beta" / "alpha_alpha").
pub fn half_sigma_dgemm(
    ctx: &SigmaCtx,
    name: &str,
    c: &DistMatrix,
    sigma: &DistMatrix,
    singles: &SinglesTable,
    nm2: Option<&Nm2Families>,
) -> RunReport {
    let ham = ctx.ham;
    let model = ctx.model;
    let nrows = c.nrows();
    let npair = ham.npair();

    run_phase(ctx.ddi, model, name, |rank, _stats, clock| {
        let cols = c.local_cols(rank);
        let nloc = cols.len();
        if nloc == 0 {
            return;
        }
        // Local copy of the C block (the paper works on a transposed local
        // copy to vectorize the row gathers; a plain copy serves here).
        let mut cl = vec![0.0f64; nrows * nloc];
        c.with_local(rank, |s| cl.copy_from_slice(s));
        clock.charge_memcpy(model, (cl.len() * 8) as f64);

        sigma.with_local(rank, |sl| {
            // --- one-electron singles ---
            let mut n_single_entries = 0usize;
            for j in 0..nrows {
                for e in singles.of(j) {
                    let hpq = ham.h[(e.p as usize, e.q as usize)] * e.sign as f64;
                    if hpq == 0.0 {
                        continue;
                    }
                    let to = e.to as usize;
                    for k in 0..nloc {
                        sl[to + k * nrows] += hpq * cl[j + k * nrows];
                    }
                }
                n_single_entries += singles.of(j).len();
            }
            clock.charge_scalar(model, 2.0 * n_single_entries as f64);
            clock.charge_daxpy(model, (2 * n_single_entries * nloc) as f64);

            // --- same-spin doubles through N−2 intermediates ---
            let Some(nm2) = nm2 else { return };
            let mut d = Matrix::zeros(npair, nloc);
            let mut e_mat = Matrix::zeros(npair, nloc);
            // Ĝ is the same operand for every family and every σ
            // application: above the packing crossover the thread packs
            // it once and replays it (bitwise equal to the on-the-fly
            // packed path `dgemm` would take for the same shape).
            with_g_pack(ham, npair, nloc, npair, |gpack| {
                for kf in 0..nm2.len() {
                    let fam = nm2.of(kf);
                    if fam.is_empty() {
                        continue;
                    }
                    // Gather D rows (B matrix application).
                    for e in fam {
                        let row = e.pair_index();
                        let sgn = e.sign as f64;
                        let from = e.to as usize;
                        for k in 0..nloc {
                            d[(row, k)] = sgn * cl[from + k * nrows];
                        }
                    }
                    // The DGEMM: E = Ĝ · D.
                    match gpack {
                        Some(pa) => dgemm_prepacked(1, 1.0, pa, Trans::No, &d, 0.0, &mut e_mat),
                        None => dgemm(Trans::No, Trans::No, 1.0, &ham.g, &d, 0.0, &mut e_mat),
                    }
                    clock.charge_dgemm(model, npair, nloc, npair);
                    // Scatter (A matrix application) and clear D rows.
                    for e in fam {
                        let row = e.pair_index();
                        let sgn = e.sign as f64;
                        let to = e.to as usize;
                        for k in 0..nloc {
                            sl[to + k * nrows] += sgn * e_mat[(row, k)];
                            d[(row, k)] = 0.0;
                        }
                    }
                    clock.charge_scalar(model, 2.0 * fam.len() as f64);
                    clock.charge_gather(model, (3 * fam.len() * nloc) as f64);
                }
            });
        });
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detspace::DetSpace;
    use crate::hamiltonian::random_hamiltonian;
    use crate::slater;
    use crate::taskpool::PoolParams;
    use fci_ddi::{Backend, Ddi};
    use fci_xsim::MachineModel;

    /// β-β + β one-electron contribution via Slater–Condon: zero the α
    /// excitations by comparing only determinant pairs with identical α.
    fn reference_half(
        space: &DetSpace,
        ham: &crate::hamiltonian::Hamiltonian,
        c: &[f64],
    ) -> Vec<f64> {
        let na = space.alpha.len();
        let nb = space.beta.len();
        let mut out = vec![0.0; na * nb];
        for ia in 0..na {
            for ib in 0..nb {
                for jb in 0..nb {
                    let mut v = slater::element(
                        ham,
                        space.alpha.mask(ia),
                        space.beta.mask(ib),
                        space.alpha.mask(ia),
                        space.beta.mask(jb),
                    );
                    if ib == jb {
                        // Keep only the pure-β pieces of the diagonal:
                        // subtract α one-electron, αα and αβ terms.
                        let aocc = fci_strings::occ_list(space.alpha.mask(ia));
                        let bocc = fci_strings::occ_list(space.beta.mask(ib));
                        for &p in &aocc {
                            v -= ham.h[(p, p)];
                        }
                        for (i, &p) in aocc.iter().enumerate() {
                            for &q in aocc.iter().skip(i + 1) {
                                v -= ham.eri.get(p, p, q, q) - ham.eri.get(p, q, q, p);
                            }
                        }
                        for &p in &aocc {
                            for &q in &bocc {
                                v -= ham.eri.get(p, p, q, q);
                            }
                        }
                    } else {
                        // β single: strip the α-spectator Coulomb part
                        // (that belongs to the mixed-spin routine).
                        let pb = {
                            let d: Vec<usize> =
                                fci_strings::occ_list(space.beta.mask(ib) & !space.beta.mask(jb));
                            if d.len() != 1 {
                                usize::MAX
                            } else {
                                d[0]
                            }
                        };
                        if pb != usize::MAX {
                            let qb =
                                fci_strings::occ_list(space.beta.mask(jb) & !space.beta.mask(ib))
                                    [0];
                            // phase recomputed as in slater::element
                            let (s1, m1) =
                                fci_strings::annihilate(space.beta.mask(jb), qb).unwrap();
                            let (s2, _) = fci_strings::create(m1, pb).unwrap();
                            let phase = (s1 * s2) as f64;
                            for &r in &fci_strings::occ_list(space.alpha.mask(ia)) {
                                v -= phase * ham.eri.get(pb, qb, r, r);
                            }
                        }
                        // β doubles need no correction.
                    }
                    out[ib + ia * nb] += v * c[jb + ia * nb];
                }
            }
        }
        out
    }

    #[test]
    fn beta_half_matches_slater_condon() {
        let ham = random_hamiltonian(5, 17);
        let space = DetSpace::c1(5, 2, 3);
        for nproc in [1usize, 3] {
            let ddi = Ddi::new(nproc, Backend::Serial);
            let model = MachineModel::cray_x1();
            let ctx = SigmaCtx {
                space: &space,
                ham: &ham,
                ddi: &ddi,
                model: &model,
                pool: PoolParams::default(),
            };
            let c = space.zeros_ci(nproc);
            let mut seed = 3u64;
            c.map_inplace(|_, _, _| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            });
            let sigma = space.zeros_ci(nproc);
            half_sigma_dgemm(
                &ctx,
                "beta_beta",
                &c,
                &sigma,
                &space.beta_singles,
                space.beta_nm2.as_ref(),
            );
            let reference = reference_half(&space, &ham, &c.to_dense());
            let got = sigma.to_dense();
            for (a, b) in got.iter().zip(&reference) {
                assert!((a - b).abs() < 1e-11, "{a} vs {b} (nproc={nproc})");
            }
        }
    }

    #[test]
    fn g_operand_packed_once_per_hamiltonian() {
        let ham = random_hamiltonian(6, 1);
        // Below the packing crossover: no handle.
        assert!(!with_g_pack(&ham, 4, 4, 4, |p| p.is_some()));
        // Above it: packed on first use, replayed (packs stays 1) after.
        let m = ham.npair();
        assert!(gemm_prefers_packed(m, 1000, m));
        let first = with_g_pack(&ham, m, 1000, m, |p| p.map(|pa| pa.packs()));
        let second = with_g_pack(&ham, m, 1000, m, |p| p.map(|pa| pa.packs()));
        assert_eq!((first, second), (Some(1), Some(1)));
        // A different Hamiltonian displaces the entry.
        let ham2 = random_hamiltonian(6, 2);
        assert_eq!(
            with_g_pack(&ham2, m, 1000, m, |p| p.map(|pa| pa.packs())),
            Some(1)
        );
    }

    #[test]
    fn no_communication_in_same_spin() {
        // The paper's headline property: the same-spin routine involves no
        // network communication at all.
        let ham = random_hamiltonian(5, 4);
        let space = DetSpace::c1(5, 2, 2);
        let ddi = Ddi::new(4, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let c = space.guess(&ham, 4);
        let sigma = space.zeros_ci(4);
        let rep = half_sigma_dgemm(
            &ctx,
            "beta_beta",
            &c,
            &sigma,
            &space.beta_singles,
            space.beta_nm2.as_ref(),
        );
        assert_eq!(rep.total_net_bytes(), 0.0);
    }

    #[test]
    fn flops_dominated_by_dgemm() {
        let ham = random_hamiltonian(8, 5);
        let space = DetSpace::c1(8, 3, 3);
        let ddi = Ddi::new(2, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space: &space,
            ham: &ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let c = space.guess(&ham, 2);
        let sigma = space.zeros_ci(2);
        let rep = half_sigma_dgemm(
            &ctx,
            "beta_beta",
            &c,
            &sigma,
            &space.beta_singles,
            space.beta_nm2.as_ref(),
        );
        let dg: f64 = rep.clocks.iter().map(|k| k.flops_dgemm).sum();
        let dx: f64 = rep.clocks.iter().map(|k| k.flops_daxpy).sum();
        assert!(dg > 4.0 * dx, "dgemm flops {dg} vs daxpy {dx}");
    }
}
