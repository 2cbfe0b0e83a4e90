//! The minimum-operation-count (MOC) baseline σ algorithm.
//!
//! This is the historical approach the paper is calibrated against: only
//! the nonzero Hamiltonian connections are visited, and σ is updated by
//! indexed multiply–add (DAXPY-class) operations. Two properties make it
//! lose on a parallel vector machine, and both are reproduced faithfully:
//!
//! * **Same-spin replication** — the double-excitation list and its
//!   Hamiltonian elements are recomputed *on every processor* (each rank
//!   needs the full list for its local columns, and distributing the list
//!   would cost more communication than it saves). That per-rank cost does
//!   not shrink with P, so by Amdahl's law the routine stops scaling —
//!   Fig. 4's flat `beta-beta (MOC)` curve. The list walking and element
//!   evaluation are index-heavy scalar work, charged at the X1's (slow)
//!   scalar rate.
//! * **Mixed-spin communication** — every α single excitation of a local
//!   column pulls/pushes a full β-length column, `Nci·Nα·(n−Nα)` words
//!   against the DGEMM routine's `3·Nci·Nα` (Table 1).
//!
//! MOC knows nothing of symmetry blocks: each rank expands its stored
//! columns into full-length scratch columns, runs the full-space loops on
//! those, and keeps the sector of what it computes.

use super::SigmaCtx;
use crate::phase::run_phase;
use fci_ddi::DistMatrix;
use fci_strings::{Nm2Families, SinglesTable};
use fci_xsim::RunReport;
use std::ops::Range;

/// Scalar operations charged per same-spin double-excitation element
/// (string matching, index computation, integral lookup, phase).
const ELEM_SCALAR_OPS: f64 = 12.0;

/// Rank `rank`'s columns of `m` as full-length columns, zero where
/// nothing is stored.
fn full_columns(m: &DistMatrix, rank: usize) -> Vec<f64> {
    let (nrows, local) = (m.nrows(), m.local_cols(rank));
    let mut full = vec![0.0; nrows * local.len()];
    m.with_local(rank, |s| {
        for (k, col) in local.clone().enumerate() {
            let (rows, at) = stored(m, local.start, col);
            full[k * nrows..][rows].copy_from_slice(&s[at]);
        }
    });
    full
}

/// The rows column `col` of `m` stores, and where they sit in the segment
/// that starts with column `first`.
fn stored(m: &DistMatrix, first: usize, col: usize) -> (Range<usize>, Range<usize>) {
    let l = m.layout();
    let base = l.offset(first);
    (l.rows(col), l.offset(col) - base..l.offset(col + 1) - base)
}

/// MOC same-spin + one-electron half for the row spin of `c`. `name`
/// labels the phase in traces ("beta_beta" / "alpha_alpha").
pub fn half_sigma_moc(
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

    run_phase(ctx.ddi, model, name, |rank, _stats, clock| {
        let cols = c.local_cols(rank);
        let nloc = cols.len();
        // NOTE: no early return on nloc == 0 — the list replication cost
        // is paid by every rank regardless, which is the whole point.
        let cl = full_columns(c, rank);
        if nloc > 0 {
            clock.charge_memcpy(model, (cl.len() * 8) as f64);
        }
        let mut sl = vec![0.0f64; nrows * nloc];

        // --- one-electron singles (local, indexed) ---
        let mut nentries = 0usize;
        for j in 0..nrows {
            for e in singles.of(j) {
                nentries += 1;
                let hpq = ham.h[(e.p as usize, e.q as usize)] * e.sign as f64;
                let to = e.to as usize;
                for k in 0..nloc {
                    sl[to + k * nrows] += hpq * cl[j + k * nrows];
                }
            }
        }
        clock.charge_scalar(model, 3.0 * nentries as f64);
        clock.charge_daxpy(model, (2 * nentries * nloc) as f64);

        // --- same-spin doubles: replicated list + element work ---
        if let Some(nm2) = nm2 {
            let mut n_elems = 0u64;
            let mut n_applied = 0u64;
            for kf in 0..nm2.len() {
                let fam = nm2.of(kf);
                for e1 in fam {
                    let row1 = e1.pair_index();
                    let to = e1.to as usize;
                    for e2 in fam {
                        // This element computation happens on EVERY rank —
                        // the replicated work the paper eliminates.
                        n_elems += 1;
                        let elem = ham.g()[(row1, e2.pair_index())] * (e1.sign * e2.sign) as f64;
                        if elem == 0.0 {
                            continue;
                        }
                        let from = e2.to as usize;
                        for k in 0..nloc {
                            sl[to + k * nrows] += elem * cl[from + k * nrows];
                        }
                        n_applied += 1;
                    }
                }
            }
            clock.charge_scalar(model, ELEM_SCALAR_OPS * n_elems as f64);
            clock.charge_daxpy(model, (2 * n_applied * nloc as u64) as f64);
        }
        // Keep the sector of the full columns.
        sigma.with_local(rank, |s| {
            for (k, col) in cols.clone().enumerate() {
                let (rows, at) = stored(sigma, cols.start, col);
                for (d, v) in s[at].iter_mut().zip(&sl[k * nrows..][rows]) {
                    *d += v;
                }
            }
        });
    })
}

/// MOC mixed-spin routine: indexed loops over α and β single-excitation
/// lists with per-excitation remote column traffic.
pub fn mixed_spin_moc(ctx: &SigmaCtx, c: &DistMatrix, sigma: &DistMatrix) -> RunReport {
    let space = ctx.space;
    let ham = ctx.ham;
    let model = ctx.model;
    let n = space.n_orb();
    let nbstr = space.beta.len();

    run_phase(ctx.ddi, model, "alpha_beta", |rank, stats, clock| {
        let cols = c.local_cols(rank);
        let nloc = cols.len();
        if nloc == 0 {
            return;
        }
        let cl = full_columns(c, rank);
        clock.charge_memcpy(model, (cl.len() * 8) as f64);

        let mut u = vec![0.0f64; nbstr];
        for (k, ja) in cols.clone().enumerate() {
            let cj = &cl[k * nbstr..(k + 1) * nbstr];
            for ea in space.alpha_singles.of(ja) {
                // u(Ib) = Σ_{Jb, rs} sgn_b (p q | r s) C(Jb, Ja)
                let vrow = ea.p as usize * n + ea.q as usize;
                u.iter_mut().for_each(|x| *x = 0.0);
                let mut nb_entries = 0usize;
                for (jb, &cv) in cj.iter().enumerate() {
                    if cv == 0.0 {
                        // Still walk the list (index work) but skip math.
                        nb_entries += space.beta_singles.of(jb).len();
                        continue;
                    }
                    for eb in space.beta_singles.of(jb) {
                        nb_entries += 1;
                        u[eb.to as usize] += eb.sign as f64
                            * ham.v()[(vrow, eb.p as usize * n + eb.q as usize)]
                            * cv;
                    }
                }
                clock.charge_scalar(model, 2.0 * nb_entries as f64 + 4.0);
                clock.charge_daxpy(model, 2.0 * nb_entries as f64);
                // Remote accumulate into the target α column.
                let sgn = ea.sign as f64;
                if sgn != 1.0 {
                    u.iter_mut().for_each(|x| *x *= sgn);
                }
                sigma.acc_col(rank, ea.to as usize, &u, stats);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detspace::DetSpace;
    use crate::hamiltonian::random_hamiltonian;
    use crate::sigma::test_ctx;
    use crate::taskpool::PoolParams;
    use fci_ddi::{Backend, Ddi};
    use fci_xsim::MachineModel;

    #[test]
    fn moc_half_matches_dgemm_half() {
        let ham = random_hamiltonian(6, 61);
        let space = DetSpace::c1(6, 2, 3);
        let nproc = 3;
        let ddi = Ddi::new(nproc, Backend::Serial);
        let ctx = test_ctx(&space, &ham, &ddi);
        let c = space.zeros_ci(nproc);
        let mut s = 1u64;
        c.map_inplace(|_, _, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(99);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        });
        let s1 = space.zeros_ci(nproc);
        let s2 = space.zeros_ci(nproc);
        super::super::same_spin::half_sigma_dgemm(
            &ctx,
            "beta_beta",
            &c,
            &s1,
            &space.beta_singles,
            space.beta_nm2.as_ref(),
        );
        half_sigma_moc(
            &ctx,
            "beta_beta",
            &c,
            &s2,
            &space.beta_singles,
            space.beta_nm2.as_ref(),
        );
        for (a, b) in s1.to_dense().iter().zip(&s2.to_dense()) {
            assert!((a - b).abs() < 1e-11);
        }
    }

    #[test]
    fn moc_mixed_matches_dgemm_mixed() {
        let ham = random_hamiltonian(5, 67);
        let space = DetSpace::c1(5, 3, 2);
        let nproc = 4;
        let ddi = Ddi::new(nproc, Backend::Serial);
        let ctx = test_ctx(&space, &ham, &ddi);
        let c = space.zeros_ci(nproc);
        let mut s = 17u64;
        c.map_inplace(|_, _, _| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(3);
            ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        });
        let s1 = space.zeros_ci(nproc);
        let s2 = space.zeros_ci(nproc);
        super::super::mixed::mixed_spin_dgemm(&ctx, &c, &s1);
        mixed_spin_moc(&ctx, &c, &s2);
        for (a, b) in s1.to_dense().iter().zip(&s2.to_dense()) {
            assert!((a - b).abs() < 1e-11);
        }
    }

    /// On blocked storage MOC still runs the full-space loops (on expanded
    /// columns) and keeps the sector: it agrees with the blocked DGEMM σ
    /// in every sector of a 4-irrep problem, at several rank counts.
    #[test]
    fn moc_matches_dgemm_in_every_sector_of_four_irreps() {
        let sym = [2u8, 0, 3, 1, 0, 2];
        let ham = crate::hamiltonian::random_symmetric_hamiltonian(6, 13, &sym, 4);
        let model = MachineModel::cray_x1();
        for target in 0..4u8 {
            let space = DetSpace::new(6, 3, 2, &sym, 4, target);
            assert!(space.sector_dim() < space.dim());
            for nproc in [1usize, 3, 7] {
                let ddi = Ddi::new(nproc, Backend::Serial);
                let ctx = SigmaCtx {
                    space: &space,
                    ham: &ham,
                    ddi: &ddi,
                    model: &model,
                    pool: PoolParams::default(),
                };
                let c = space.zeros_ci(nproc);
                c.map_inplace(|ib, ia, _| ((ib * 13 + ia * 5) as f64).cos());
                let (dg, _) = crate::sigma::apply_sigma(&ctx, &c, crate::sigma::SigmaMethod::Dgemm);
                let (mc, _) = crate::sigma::apply_sigma(&ctx, &c, crate::sigma::SigmaMethod::Moc);
                for (a, b) in dg.to_dense().iter().zip(&mc.to_dense()) {
                    assert!(
                        (a - b).abs() < 1e-10,
                        "target {target}, {nproc} ranks: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn moc_same_spin_has_replicated_cost() {
        // Per-rank same-spin time must NOT drop with rank count: measure
        // the minimum per-rank busy time at P=2 and P=8; the replicated
        // element work puts a floor under it.
        let ham = random_hamiltonian(7, 5);
        let space = DetSpace::c1(7, 3, 3);
        let model = MachineModel::cray_x1();
        let mut floor = Vec::new();
        for nproc in [2usize, 8] {
            let ddi = Ddi::new(nproc, Backend::Serial);
            let ctx = SigmaCtx {
                space: &space,
                ham: &ham,
                ddi: &ddi,
                model: &model,
                pool: PoolParams::default(),
            };
            let c = space.guess(&ham, nproc);
            let sig = space.zeros_ci(nproc);
            let rep = half_sigma_moc(
                &ctx,
                "beta_beta",
                &c,
                &sig,
                &space.beta_singles,
                space.beta_nm2.as_ref(),
            );
            let min_busy = rep
                .clocks
                .iter()
                .map(|k| k.total())
                .fold(f64::INFINITY, f64::min);
            floor.push(min_busy);
        }
        // 4× more processors but the per-rank floor shrinks by < 2×.
        assert!(floor[1] > floor[0] / 2.0, "floors: {floor:?}");
    }

    #[test]
    fn moc_mixed_communicates_much_more_than_dgemm() {
        let ham = random_hamiltonian(7, 15);
        let space = DetSpace::c1(7, 3, 3);
        let nproc = 8;
        let ddi = Ddi::new(nproc, Backend::Serial);
        let ctx = test_ctx(&space, &ham, &ddi);
        let c = space.guess(&ham, nproc);
        let s1 = space.zeros_ci(nproc);
        let s2 = space.zeros_ci(nproc);
        let rep_moc = mixed_spin_moc(&ctx, &c, &s1);
        let rep_dg = super::super::mixed::mixed_spin_dgemm(&ctx, &c, &s2);
        let ratio = rep_moc.total_net_bytes() / rep_dg.total_net_bytes().max(1.0);
        // Table 1 ratio: 2(n−Nα)/3 = 2·4/3 ≈ 2.7 here (grows with n).
        assert!(ratio > 1.5, "MOC/DGEMM comm ratio {ratio}");
    }
}
