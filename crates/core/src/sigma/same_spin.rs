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
//!
//! ### Layout
//!
//! Gather and scatter move whole *rows* of a rank's column-major block,
//! so — as on the X1 — each rank works on a **transposed** local copy:
//! `clt[k + j·nloc] = C(j, col₀+k)` makes row `j` one contiguous run of
//! `nloc` values, σ is accumulated into a block of the same shape and
//! added back into the distributed σ once at the end, and D is held as
//! `Dᵀ` (`nloc × npair`), so one family entry is a signed copy of one
//! contiguous C row into one contiguous D column. The product is still
//! `E = Ĝ·D`: `Dᵀ` enters the GEMM with [`Trans::Yes`], which hands the
//! kernels the same operands in the same order as an untransposed D.
//!
//! The one-electron couplings do not depend on the rank: the singles
//! table is resolved against `h_pq` once per call into a flat list of the
//! nonzero `(from, to, h_pq·sign)` entries, which every rank replays.

use super::SigmaCtx;
use crate::hamiltonian::Hamiltonian;
use crate::phase::{run_phase, HostSplit};
use fci_ddi::DistMatrix;
use fci_linalg::{dgemm, dgemm_prepacked, gemm_prefers_packed, Matrix, PackedA, Trans};
use fci_strings::{Nm2Families, SinglesTable};
use fci_xsim::{Clock, MachineModel, RunReport};

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

/// Parts of a rank's host time, as indexed in [`HostSplit`] and named in
/// the `same_spin_host_us` trace counter.
const HOST_PARTS: [&str; 5] = ["transpose", "one_electron", "gather", "gemm", "scatter"];
const TRANSPOSE: usize = 0;
const ONE_ELECTRON: usize = 1;
const GATHER: usize = 2;
const GEMM: usize = 3;
const SCATTER: usize = 4;

/// One nonzero one-electron coupling: `σ(to, ·) += h · C(from, ·)`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct OneElectron {
    from: u32,
    to: u32,
    /// `h_pq · sign`.
    h: f64,
}

/// Resolve `singles` against `h_pq`: the entries with a nonzero
/// coupling, in table order. Sized once for the whole table, so it never
/// regrows (most of `h` is zero under spatial symmetry).
fn one_electron_list(ham: &Hamiltonian, singles: &SinglesTable, nrows: usize) -> Vec<OneElectron> {
    let mut list = Vec::with_capacity(singles.n_entries());
    for j in 0..nrows {
        for e in singles.of(j) {
            let h = ham.h[(e.p as usize, e.q as usize)] * e.sign as f64;
            if h != 0.0 {
                list.push(OneElectron {
                    from: j as u32,
                    to: e.to,
                    h,
                });
            }
        }
    }
    list
}

/// `dst = srcᵀ` for a column-major `nrows × ncols` block: `dst[k + j·ncols]
/// = src[j + k·nrows]`, copied in square tiles so that neither side
/// strides through more than a tile's worth of lines at a time (two
/// 32×32 `f64` tiles are 16 KB, L1-resident).
fn transpose_block(src: &[f64], nrows: usize, ncols: usize, dst: &mut [f64]) {
    const TILE: usize = 32;
    assert!(src.len() == nrows * ncols && dst.len() == nrows * ncols);
    for j0 in (0..nrows).step_by(TILE) {
        let j1 = nrows.min(j0 + TILE);
        for k0 in (0..ncols).step_by(TILE) {
            let k1 = ncols.min(k0 + TILE);
            for j in j0..j1 {
                let drow = &mut dst[j * ncols + k0..j * ncols + k1];
                let scol = src[j + k0 * nrows..].iter().step_by(nrows);
                for (d, s) in drow.iter_mut().zip(scol) {
                    *d = *s;
                }
            }
        }
    }
}

/// Below this many local columns a row is cheaper to walk element by
/// element than to slice and `zip`: at `nloc` = 1–2 (432 ranks on 715
/// columns) the slice bounds and the vector-loop prologue cost more than
/// the row itself.
const SCALAR_ROW_BELOW: usize = 4;

/// Fold one `n`-long row into another: `f(&mut dst[d0 + k], src[s0 +
/// k·stride])` for `k` in `0..n`, in `k` order. `dst` is always a
/// contiguous row of a transposed block; `stride` is 1 for a C row and
/// `npair` for a row of E.
#[inline(always)]
fn fold_row(
    dst: &mut [f64],
    d0: usize,
    src: &[f64],
    s0: usize,
    stride: usize,
    n: usize,
    f: impl Fn(&mut f64, f64),
) {
    if n < SCALAR_ROW_BELOW {
        for k in 0..n {
            f(&mut dst[d0 + k], src[s0 + k * stride]);
        }
    } else if stride == 1 {
        for (d, &s) in dst[d0..d0 + n].iter_mut().zip(&src[s0..s0 + n]) {
            f(d, s);
        }
    } else {
        for (d, &s) in dst[d0..d0 + n]
            .iter_mut()
            .zip(src[s0..].iter().step_by(stride))
        {
            f(d, s);
        }
    }
}

/// One rank's working storage for a phase.
struct RankBufs {
    /// Transposed C block, `clt[k + j·nloc] = C(j, col₀+k)`.
    clt: Vec<f64>,
    /// Transposed σ block in the same layout, zero at the start.
    st: Vec<f64>,
    /// `Dᵀ`, `nloc × npair`: column `pair` is one gathered C row.
    dt: Matrix,
    /// `E = Ĝ·D`, `npair × nloc`.
    e_mat: Matrix,
}

/// One rank's share of the same-spin half: replay the one-electron list,
/// then gather / multiply / scatter every N−2 family, all on the rank's
/// transposed blocks. Each σ element receives its terms in a fixed order
/// — singles in table order, then families in `kf` order — whatever
/// `nloc` is. Allocates nothing.
#[allow(clippy::too_many_arguments)]
fn rank_kernel(
    ham: &Hamiltonian,
    model: &MachineModel,
    one_e: &[OneElectron],
    n_single_entries: usize,
    nm2: Option<&Nm2Families>,
    gpack: Option<&PackedA>,
    bufs: &mut RankBufs,
    clock: &mut Clock,
    host: &mut HostSplit,
) {
    let nloc = bufs.dt.nrows();
    let npair = bufs.dt.ncols();
    let (clt, st) = (&bufs.clt[..], &mut bufs.st[..]);

    // --- one-electron singles ---
    for e in one_e {
        let (from, to, h) = (e.from as usize * nloc, e.to as usize * nloc, e.h);
        fold_row(st, to, clt, from, 1, nloc, |s, c| *s += h * c);
    }
    clock.charge_scalar(model, 2.0 * n_single_entries as f64);
    clock.charge_daxpy(model, (2 * n_single_entries * nloc) as f64);
    host.lap(ONE_ELECTRON);

    // --- same-spin doubles through N−2 intermediates ---
    let Some(nm2) = nm2 else { return };
    for kf in 0..nm2.len() {
        let fam = nm2.of(kf);
        if fam.is_empty() {
            continue;
        }
        // Gather (B matrix application): one C row per D column.
        let dts = bufs.dt.as_mut_slice();
        for e in fam {
            let sgn = e.sign as f64;
            let (col, from) = (e.pair_index() * nloc, e.to as usize * nloc);
            fold_row(dts, col, clt, from, 1, nloc, |d, c| *d = sgn * c);
        }
        host.lap(GATHER);
        // The DGEMM: E = Ĝ · D. Above the packing crossover Ĝ is the
        // thread's persistent pack (bitwise equal to the on-the-fly
        // packed path `dgemm` would take for the same shape).
        match gpack {
            Some(pa) => dgemm_prepacked(1, 1.0, pa, Trans::Yes, &bufs.dt, 0.0, &mut bufs.e_mat),
            None => dgemm(
                Trans::No,
                Trans::Yes,
                1.0,
                &ham.g,
                &bufs.dt,
                0.0,
                &mut bufs.e_mat,
            ),
        }
        clock.charge_dgemm(model, npair, nloc, npair);
        host.lap(GEMM);
        // Scatter (A matrix application) and clear the D columns. E is
        // read along a row (stride `npair`); σᵀ is written contiguously.
        let (dts, es) = (bufs.dt.as_mut_slice(), bufs.e_mat.as_slice());
        for e in fam {
            let pair = e.pair_index();
            let sgn = e.sign as f64;
            fold_row(st, e.to as usize * nloc, es, pair, npair, nloc, |s, ev| {
                *s += sgn * ev
            });
            // Clear through the same helper (the source row is ignored):
            // a `fill` call per entry costs 5 ms per half at 432 ranks.
            fold_row(dts, pair * nloc, clt, 0, 1, nloc, |d, _| *d = 0.0);
        }
        clock.charge_scalar(model, 2.0 * fam.len() as f64);
        clock.charge_gather(model, (3 * fam.len() * nloc) as f64);
        host.lap(SCATTER);
    }
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
    let one_e = one_electron_list(ham, singles, nrows);
    let tracer = ctx.ddi.tracer();

    run_phase(ctx.ddi, model, name, |rank, _stats, clock| {
        let nloc = c.local_cols(rank).len();
        if nloc == 0 {
            return;
        }
        let mut host = HostSplit::new(&tracer);
        host.start();
        // The rank's two block-sized buffers: Cᵀ in, σᵀ out.
        let mut bufs = RankBufs {
            clt: vec![0.0; nrows * nloc],
            st: vec![0.0; nrows * nloc],
            dt: Matrix::zeros(nloc, npair),
            e_mat: Matrix::zeros(npair, nloc),
        };
        c.with_local(rank, |s| transpose_block(s, nrows, nloc, &mut bufs.clt));
        clock.charge_memcpy(model, (bufs.clt.len() * 8) as f64);
        host.lap(TRANSPOSE);

        with_g_pack(ham, npair, nloc, npair, |gpack| {
            host.lap(GEMM); // the thread's first call packs Ĝ
            rank_kernel(
                ham,
                model,
                &one_e,
                singles.n_entries(),
                nm2,
                gpack,
                &mut bufs,
                clock,
                &mut host,
            )
        });

        // Back to column-major through the (now spent) C buffer, then
        // one contiguous add under σ's lock.
        transpose_block(&bufs.st, nloc, nrows, &mut bufs.clt);
        sigma.with_local(rank, |sl| {
            for (s, t) in sl.iter_mut().zip(&bufs.clt) {
                *s += t;
            }
        });
        host.lap(TRANSPOSE);
        host.emit(rank, "same_spin_host_us", HOST_PARTS);
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

    /// The β half on `nproc` ranks against the Slater–Condon reference.
    fn check_beta_half(space: &DetSpace, ham: &Hamiltonian, nproc: usize) {
        let ddi = Ddi::new(nproc, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space,
            ham,
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
        let reference = reference_half(space, ham, &c.to_dense());
        let got = sigma.to_dense();
        for (a, b) in got.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-11, "{a} vs {b} (nproc={nproc})");
        }
    }

    /// A random Hamiltonian whose `h_pq` vanishes whenever `p + q` is odd
    /// — the pattern two spatial irreps leave.
    fn half_zeroed_hamiltonian(n: usize, seed: u64) -> Hamiltonian {
        let mut ham = random_hamiltonian(n, seed);
        for p in 0..n {
            for q in 0..n {
                if (p + q) % 2 == 1 {
                    ham.h[(p, q)] = 0.0;
                }
            }
        }
        ham
    }

    #[test]
    fn beta_half_matches_slater_condon() {
        let ham = random_hamiltonian(5, 17);
        let space = DetSpace::c1(5, 2, 3);
        for nproc in [1usize, 3] {
            check_beta_half(&space, &ham, nproc);
        }
    }

    /// The same check where most one-electron couplings are skipped: a
    /// Hubbard chain (`h` is the hopping band) and a random Hamiltonian
    /// with half of `h` zeroed, up to one rank per column.
    #[test]
    fn beta_half_matches_slater_condon_with_sparse_h() {
        let hubbard = Hamiltonian::new(&fci_scf::MoIntegrals::hubbard_chain(6, 1.0, 4.0, false));
        let cases = [
            (DetSpace::for_hamiltonian(&hubbard, 3, 3, 0), hubbard),
            (DetSpace::c1(6, 2, 3), half_zeroed_hamiltonian(6, 23)),
        ];
        for (space, ham) in &cases {
            for nproc in [1, 3, space.alpha.len()] {
                check_beta_half(space, ham, nproc);
            }
        }
    }

    #[test]
    fn one_electron_list_is_the_nonzero_entries_in_table_order() {
        let ham = half_zeroed_hamiltonian(6, 29);
        let space = DetSpace::c1(6, 3, 2);
        let singles = &space.beta_singles;
        let nstr = space.beta.len();
        let list = one_electron_list(&ham, singles, nstr);
        let table = (0..nstr).flat_map(|j| singles.of(j).iter().map(move |e| (j, e)));
        let want: Vec<OneElectron> = table
            .map(|(j, e)| OneElectron {
                from: j as u32,
                to: e.to,
                h: ham.h[(e.p as usize, e.q as usize)] * e.sign as f64,
            })
            .filter(|e| e.h != 0.0)
            .collect();
        assert_eq!(list, want);
        // Half of h is zero, so a good part of the table is skipped —
        // but not the diagonal p = q entries.
        assert!(list.len() < singles.n_entries() && list.len() >= nstr);
        assert!(list.iter().all(|e| e.h != 0.0));
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
