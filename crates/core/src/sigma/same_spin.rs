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
//! ### Symmetry blocks
//!
//! The routine works on CI vectors that store the target irrep's sector
//! only. Row `I` of irrep `g_I` is stored in the columns of irrep
//! `g_I ⊕ target` alone, and strings are sorted by (irrep, mask), so
//! those columns are one contiguous *run* of a rank's local block. Ĝ is
//! block-diagonal in the pair irrep `h = g_p ⊕ g_r = g_q ⊕ g_s`, so steps
//! 1–3 run once per (K, h): the pairs of irrep h reach rows of irrep
//! `g_K ⊕ h`, whose run is the columns of irrep `g_K ⊕ h ⊕ target` —
//!
//! ```text
//! D_h (pairs of h × run)   E_h = Ĝ_hh · D_h   σ(I, run) += ± E_h(pr, ·)
//! ```
//!
//! — and the one-electron replay skips `h_pq` with `g_p ≠ g_q` and
//! touches only a row's run. With one irrep there is one h, one run (all
//! of the local columns) and `Ĝ_00 = Ĝ`: the same loops do what an
//! unblocked routine would, bit for bit and charge for charge.
//!
//! ### Exact-zero screening
//!
//! `Ĝ_hh` holds only the pairs whose row of **G** has a non-zero entry
//! (`Hamiltonian::g_block`); a family entry of a screened pair is
//! neither gathered nor scattered, so `D_h` is `run × np′` and the DGEMM
//! `np′ × run × np′`, with `np′` the unscreened pairs of h. A block with
//! `np′ = 0` does no work at all: on a Hubbard chain, where **G** is all
//! zero, only the one-electron list is left. The bits do not move (each E
//! element loses only `0·d` terms of its `fma` chain, and a dropped E row
//! was zero), and the simulated clock charges the unscreened shapes, as
//! the one-electron list charges its zero couplings.
//!
//! ### Layout
//!
//! A rank's segment stores its columns' sector rows, column by column, so
//! the run of row irrep g is one column-major sub-block (the rows of g
//! against the run's columns) at the run's offset in the segment. Gather
//! and scatter move *rows* of it, so — as on the X1 — each rank works on
//! a **transposed** copy: every sub-block transposed in place of itself,
//! so that a row's run is contiguous (with one irrep:
//! `clt[k + j·nloc] = C(j, col₀+k)`, the whole block). σ is accumulated
//! into a buffer of the same shape, transposed back and added into the
//! distributed σ's segment once at the end, and D is held as
//! `D_hᵀ` (`run × np′`), so one family entry is a signed copy of one
//! contiguous C run into one contiguous D column. The product is still
//! `E = Ĝ·D`: `Dᵀ` enters the GEMM with [`Trans::Yes`], which hands the
//! kernels the same operands in the same order as an untransposed D.
//! `D_hᵀ` and `E_h` are one pair of matrices, sized for the whole block
//! and reshaped per (K, h).
//!
//! The one-electron couplings do not depend on the rank: the singles
//! table is resolved against `h_pq` once per call into a flat list of the
//! nonzero `(from, to, h_pq·sign)` entries, which every rank replays.

use super::{SigmaCtx, MAX_IRREP};
use crate::hamiltonian::{Hamiltonian, SCREENED};
use crate::phase::{run_phase, HostSplit};
use fci_ddi::{transpose_block, DistMatrix, Layout};
use fci_linalg::{dgemm, dgemm_prepacked, gemm_prefers_packed, Matrix, PackedA, Trans};
use fci_strings::{Nm2Families, SinglesTable, SpinStrings};
use fci_xsim::{Clock, MachineModel, RunReport};
use std::ops::Range;

/// A thread's packed `Ĝ_hh` operands, one slot per pair irrep.
type GPacks = [Option<PackedA>; MAX_IRREP];

thread_local! {
    /// Per-thread packed Ĝ blocks, keyed by [`Hamiltonian::id`]. `Ĝ_hh` is
    /// constant for a Hamiltonian and multiplies a fresh D on every N−2
    /// family of every σ application, so each worker thread packs it
    /// exactly once and replays the packed form from then on.
    static G_PACK: std::cell::RefCell<(u64, GPacks)> =
        const { std::cell::RefCell::new((0, [const { None }; MAX_IRREP])) };
}

/// Run `f` with the thread's packed Ĝ blocks for `ham`, first packing
/// every block `h` that `wants(h)` and is not packed yet. A block is
/// wanted when some product it enters is large enough for a kept handle
/// to pay (`gemm_prefers_packed`); the σ bits are the same either way.
fn with_g_pack<R>(
    ham: &Hamiltonian,
    wants: impl Fn(u8) -> bool,
    f: impl FnOnce(&GPacks) -> R,
) -> R {
    G_PACK.with(|cell| {
        let (id, packs) = &mut *cell.borrow_mut();
        if *id != ham.id() {
            // Hamiltonian ids start at 1: a fresh slot never matches.
            (*id, *packs) = (ham.id(), [const { None }; MAX_IRREP]);
        }
        for h in 0..ham.n_irrep as u8 {
            if packs[h as usize].is_none() && wants(h) {
                packs[h as usize] = Some(PackedA::pack(Trans::No, ham.g_block(h)));
            }
        }
        f(packs)
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

/// The singles table resolved against `h_pq`, grouped by the irrep of
/// the source row (rows are sorted by irrep, so table order *is* grouped).
struct OneElectronList {
    /// The symmetry-allowed entries with a nonzero coupling, in table
    /// order.
    entries: Vec<OneElectron>,
    /// Entries of source irrep `g` are `entries[off[g]..off[g + 1]]`.
    off: [usize; MAX_IRREP + 1],
    /// Symmetry-allowed table entries per source irrep, zero couplings
    /// included: what the simulated machine walks.
    allowed: [usize; MAX_IRREP],
}

/// Resolve `singles` against `h_pq`. A coupling with `g_p ≠ g_q` is
/// symmetry-forbidden and dropped whatever rounding left in `h`. Sized
/// once for the whole table, so the list never regrows (most of `h` is
/// zero under spatial symmetry).
fn one_electron_list(
    ham: &Hamiltonian,
    singles: &SinglesTable,
    rows: &SpinStrings,
) -> OneElectronList {
    let mut list = OneElectronList {
        entries: Vec::with_capacity(singles.n_entries()),
        off: [0; MAX_IRREP + 1],
        allowed: [0; MAX_IRREP],
    };
    for g in 0..rows.n_irrep() {
        for j in rows.block_range(g as u8) {
            for e in singles.of(j) {
                let (p, q) = (e.p as usize, e.q as usize);
                if ham.orb_sym[p] != ham.orb_sym[q] {
                    continue;
                }
                list.allowed[g] += 1;
                let h = ham.h[(p, q)] * e.sign as f64;
                if h != 0.0 {
                    list.entries.push(OneElectron {
                        from: j as u32,
                        to: e.to,
                        h,
                    });
                }
            }
        }
        list.off[g + 1] = list.entries.len();
    }
    list
}

/// Below this many columns a row is cheaper to walk element by element
/// than to slice and `zip`: at a run of 1–2 (432 ranks on 715 columns)
/// the slice bounds and the vector-loop prologue cost more than the row
/// itself.
const SCALAR_ROW_BELOW: usize = 4;

/// Fold one `n`-long row into another: `f(&mut dst[d0 + k], src[s0 +
/// k·stride])` for `k` in `0..n`, in `k` order. `dst` is always a
/// contiguous run of a transposed block; `stride` is 1 for a C row and
/// the pair count for a row of E.
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

/// The in-sector sub-block of a rank's local block for one row irrep:
/// the rows of that irrep against the run of local columns in which they
/// are non-zero.
#[derive(Clone, Copy, Default)]
struct SubBlock {
    /// First row (string index) of the irrep.
    row0: usize,
    /// Number of rows.
    nrows: usize,
    /// First column of the run, counted from the rank's first column.
    col0: usize,
    /// Length of the run.
    nrun: usize,
    /// Where the sub-block starts in the rank's segment, and in the
    /// transposed buffers.
    at: usize,
}

impl SubBlock {
    /// Start of row `j`'s run in the transposed buffers.
    #[inline]
    fn row(&self, j: u32) -> usize {
        self.at + (j as usize - self.row0) * self.nrun
    }

    fn len(&self) -> usize {
        self.nrows * self.nrun
    }
}

/// Where a rank's coefficients sit: one [`SubBlock`] per row irrep, which
/// together tile the rank's segment.
struct Sector {
    n_irrep: u8,
    blocks: [SubBlock; MAX_IRREP],
}

impl Sector {
    /// The sector of a rank that owns the columns `local` of a matrix
    /// with `rows` × `cols` strings, stored in `layout`.
    fn new(
        rows: &SpinStrings,
        cols: &SpinStrings,
        target: u8,
        local: Range<usize>,
        layout: &Layout,
    ) -> Sector {
        let mut blocks = [SubBlock::default(); MAX_IRREP];
        for (g, b) in blocks.iter_mut().enumerate().take(rows.n_irrep()) {
            let (r, c) = (
                rows.block_range(g as u8),
                cols.block_range(g as u8 ^ target),
            );
            let (lo, hi) = (c.start.max(local.start), c.end.min(local.end));
            *b = SubBlock {
                row0: r.start,
                nrows: r.len(),
                ..SubBlock::default()
            };
            if lo < hi {
                (b.col0, b.nrun) = (lo - local.start, hi - lo);
                b.at = layout.offset(lo) - layout.offset(local.start);
            }
        }
        Sector {
            n_irrep: rows.n_irrep() as u8,
            blocks,
        }
    }

    /// The sub-blocks, by row irrep.
    fn blocks(&self) -> &[SubBlock] {
        &self.blocks[..self.n_irrep as usize]
    }

    /// Elements of the local block.
    fn len(&self) -> usize {
        self.blocks().iter().map(SubBlock::len).sum()
    }
}

/// One rank's working storage for a phase.
struct RankBufs {
    /// The C block, each sub-block transposed: row `j` of irrep g is the
    /// contiguous run `clt[b.row(j)..][..b.nrun]`, `b` the [`SubBlock`] of
    /// g — with one irrep, `clt[k + j·nloc] = C(j, col₀+k)`.
    clt: Vec<f64>,
    /// Transposed σ block in the same layout, zero at the start.
    st: Vec<f64>,
    /// `D_hᵀ`, `run × unscreened pairs of h`: column `pair` is one
    /// gathered C run. All zero between blocks.
    dt: Matrix,
    /// `E_h = Ĝ_hh·D_h`, `unscreened pairs of h × run`.
    e_mat: Matrix,
}

/// One rank's share of the same-spin half: replay the one-electron list,
/// then gather / multiply / scatter every (N−2 family, pair irrep) block,
/// all on the rank's transposed blocks. Each σ element receives its terms
/// in a fixed order — singles in table order, then families in `kf` order
/// — whatever the rank's columns are. Allocates nothing.
#[allow(clippy::too_many_arguments)]
fn rank_kernel(
    ham: &Hamiltonian,
    model: &MachineModel,
    sector: &Sector,
    one_e: &OneElectronList,
    nm2: Option<&Nm2Families>,
    gpack: &GPacks,
    bufs: &mut RankBufs,
    clock: &mut Clock,
    host: &mut HostSplit,
) {
    let (clt, st) = (&bufs.clt[..], &mut bufs.st[..]);

    // --- one-electron singles ---
    let (mut walked, mut moved) = (0, 0);
    for (g, b) in sector.blocks().iter().enumerate() {
        if b.nrun == 0 {
            continue;
        }
        for e in &one_e.entries[one_e.off[g]..one_e.off[g + 1]] {
            let h = e.h;
            fold_row(st, b.row(e.to), clt, b.row(e.from), 1, b.nrun, |s, c| {
                *s += h * c
            });
        }
        walked += one_e.allowed[g];
        moved += one_e.allowed[g] * b.nrun;
    }
    clock.charge_scalar(model, 2.0 * walked as f64);
    clock.charge_daxpy(model, (2 * moved) as f64);
    host.lap(ONE_ELECTRON);

    // --- same-spin doubles through N−2 intermediates ---
    let Some(nm2) = nm2 else { return };
    let pos = ham.pair_pos();
    for gk in 0..sector.n_irrep {
        for kf in nm2.space_k().block_range(gk) {
            for h in 0..sector.n_irrep {
                // Pairs of irrep h lead from K to rows of irrep g_K ⊕ h.
                let fam = nm2.block(kf, h);
                let b = &sector.blocks[(gk ^ h) as usize];
                let nrun = b.nrun;
                if fam.is_empty() || nrun == 0 {
                    continue;
                }
                let g_hh = ham.g_block(h);
                let np = g_hh.nrows();
                if np > 0 {
                    bufs.dt.reshape(nrun, np);
                    bufs.e_mat.reshape(np, nrun);
                    // Gather (B matrix application): one C run per D column.
                    let dts = bufs.dt.as_mut_slice();
                    for e in fam {
                        let at = pos[e.pair_index()];
                        if at == SCREENED {
                            continue;
                        }
                        let sgn = e.sign as f64;
                        let col = at as usize * nrun;
                        fold_row(dts, col, clt, b.row(e.to), 1, nrun, |d, c| *d = sgn * c);
                    }
                    host.lap(GATHER);
                    // The DGEMM: E_h = Ĝ_hh · D_h. Where a handle pays, Ĝ_hh
                    // is the thread's persistent pack (bitwise equal to
                    // `dgemm` on the block itself).
                    match &gpack[h as usize] {
                        Some(pa) if gemm_prefers_packed(np, nrun, np) => {
                            dgemm_prepacked(1, 1.0, pa, Trans::Yes, &bufs.dt, 0.0, &mut bufs.e_mat)
                        }
                        _ => dgemm(
                            Trans::No,
                            Trans::Yes,
                            1.0,
                            g_hh,
                            &bufs.dt,
                            0.0,
                            &mut bufs.e_mat,
                        ),
                    }
                    host.gemm(np, nrun, np);
                    host.lap(GEMM);
                    // Scatter (A matrix application) and clear the D
                    // columns. E is read along a row (stride `np`); σᵀ is
                    // written contiguously.
                    let (dts, es) = (bufs.dt.as_mut_slice(), bufs.e_mat.as_slice());
                    for e in fam {
                        let pair = pos[e.pair_index()];
                        if pair == SCREENED {
                            continue;
                        }
                        let (pair, sgn) = (pair as usize, e.sign as f64);
                        fold_row(st, b.row(e.to), es, pair, np, nrun, |s, ev| *s += sgn * ev);
                        // Clear through the same helper (the source row is
                        // ignored): a `fill` call per entry costs 5 ms per
                        // half at 432 ranks.
                        fold_row(dts, pair * nrun, clt, 0, 1, nrun, |d, _| *d = 0.0);
                    }
                }
                // The machine model multiplies every pair of h.
                let np_all = ham.pairs_of_irrep(h);
                clock.charge_dgemm(model, np_all, nrun, np_all);
                clock.charge_scalar(model, 2.0 * fam.len() as f64);
                clock.charge_gather(model, (3 * fam.len() * nrun) as f64);
                host.lap(SCATTER);
            }
        }
    }
}

/// Add the row-spin (same-spin + one-electron) half of H·C for one spin
/// channel into `sigma`. `c` and `sigma` must share a layout whose rows
/// are that spin's strings: a CI vector of `ctx.space` for β, its
/// transpose for α — the spin is the one whose `singles` table of
/// `ctx.space` is handed in. `name` labels the phase in traces
/// ("beta_beta" / "alpha_alpha").
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
    let space = ctx.space;
    // The tables say which spin the rows are: equal string counts do not
    // (C(5,2) = C(5,3), different irreps per index).
    let (rows, cols) = if std::ptr::eq(singles, &space.alpha_singles) {
        (&space.alpha, &space.beta)
    } else {
        (&space.beta, &space.alpha)
    };
    super::assert_same_point_group(space, ham);
    assert_eq!((rows.len(), cols.len()), (c.nrows(), c.ncols()));
    assert!(c.layout() == sigma.layout(), "C and σ stored differently");
    let npair = ham.npair();
    let one_e = one_electron_list(ham, singles, rows);
    let tracer = ctx.ddi.tracer();

    run_phase(ctx.ddi, model, name, |rank, _stats, clock| {
        let nloc = c.local_cols(rank).len();
        if nloc == 0 {
            return;
        }
        let local = c.local_cols(rank);
        let sector = Sector::new(rows, cols, space.target_irrep, local, c.layout());
        let mut host = HostSplit::new(&tracer);
        host.start();
        // The rank's two sector-sized buffers: Cᵀ in, σᵀ out.
        let mut bufs = RankBufs {
            clt: vec![0.0; sector.len()],
            st: vec![0.0; sector.len()],
            dt: Matrix::zeros(nloc, npair),
            e_mat: Matrix::zeros(npair, nloc),
        };
        c.with_local(rank, |s| {
            for b in sector.blocks() {
                let (src, dst) = (&s[b.at..], &mut bufs.clt[b.at..]);
                transpose_block(src, b.nrows, b.nrows, b.nrun, dst, b.nrun);
            }
        });
        clock.charge_memcpy(model, (sector.len() * 8) as f64);
        host.lap(TRANSPOSE);

        let wants = |h: u8| {
            let np = ham.g_block(h).nrows();
            sector
                .blocks()
                .iter()
                .any(|b| gemm_prefers_packed(np, b.nrun, np))
        };
        with_g_pack(ham, wants, |gpack| {
            host.lap(GEMM); // the thread's first call packs Ĝ
            rank_kernel(
                ham, model, &sector, &one_e, nm2, gpack, &mut bufs, clock, &mut host,
            )
        });

        // Back to the segment's layout, sub-block by sub-block, through
        // the (now spent) C buffer, then one contiguous add under σ's lock.
        for b in sector.blocks() {
            let (src, dst) = (&bufs.st[b.at..], &mut bufs.clt[b.at..]);
            transpose_block(src, b.nrun, b.nrun, b.nrows, dst, b.nrows);
        }
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
        let resolved = one_electron_list(&ham, singles, &space.beta);
        let list = &resolved.entries;
        assert_eq!(resolved.off[..2], [0, list.len()]);
        assert_eq!(resolved.allowed[0], singles.n_entries());
        let table = (0..nstr).flat_map(|j| singles.of(j).iter().map(move |e| (j, e)));
        let want: Vec<OneElectron> = table
            .map(|(j, e)| OneElectron {
                from: j as u32,
                to: e.to,
                h: ham.h[(e.p as usize, e.q as usize)] * e.sign as f64,
            })
            .filter(|e| e.h != 0.0)
            .collect();
        assert_eq!(list, &want);
        // Half of h is zero, so a good part of the table is skipped —
        // but not the diagonal p = q entries.
        assert!(list.len() < singles.n_entries() && list.len() >= nstr);
        assert!(list.iter().all(|e| e.h != 0.0));
    }

    #[test]
    fn g_operand_packed_once_per_hamiltonian() {
        let ham = random_hamiltonian(6, 1);
        let packs = |p: &GPacks| p[0].as_ref().map(|pa| pa.packs());
        // No product above the packing crossover: no handle.
        assert_eq!(with_g_pack(&ham, |_| false, packs), None);
        // Wanted: packed on first use, replayed (packs stays 1) after.
        assert_eq!(with_g_pack(&ham, |_| true, packs), Some(1));
        assert_eq!(with_g_pack(&ham, |_| true, packs), Some(1));
        // A different Hamiltonian displaces the entry.
        let ham2 = random_hamiltonian(6, 2);
        assert_eq!(with_g_pack(&ham2, |_| false, packs), None);
        assert_eq!(with_g_pack(&ham2, |_| true, packs), Some(1));
    }

    /// Four irreps with unsorted labels: only the blocks asked for are
    /// packed, each from its own `Ĝ_hh`.
    #[test]
    fn g_blocks_are_packed_per_pair_irrep() {
        let sym = [1u8, 0, 3, 0, 1, 2];
        let ham = crate::hamiltonian::random_symmetric_hamiltonian(6, 4, &sym, 4);
        with_g_pack(
            &ham,
            |h| h == 2,
            |p| {
                let packed: Vec<_> = p.iter().map(|pa| pa.as_ref().map(|pa| pa.m())).collect();
                let mut want = vec![None; MAX_IRREP];
                want[2] = Some(ham.g_block(2).nrows());
                assert_eq!(packed, want);
            },
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
