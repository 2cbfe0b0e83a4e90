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
//! same pass. Work is statically balanced: on the simulated machine every
//! rank walks all K but only touches its own columns, so there is no
//! communication at all — the property the paper contrasts against the
//! replicated-work MOC routine. The host walks all K once per *pass*, not
//! once per rank (see "Passes and charges").
//!
//! ### Symmetry blocks
//!
//! The routine works on CI vectors that store the target irrep's sector
//! only. Row `I` of irrep `g_I` is stored in the columns of irrep
//! `g_I ⊕ target` alone, and strings are sorted by (irrep, mask), so
//! those columns are one contiguous *run* of any range of columns. Ĝ is
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
//! of the served columns) and `Ĝ_00 = Ĝ`: the same loops do what an
//! unblocked routine would, bit for bit and charge for charge.
//!
//! ### Passes and charges
//!
//! The arithmetic and the simulated clock are kept apart.
//! `sub_block_kernel` does the arithmetic for a range of columns, one
//! row irrep g at a time: it transposes sub-block g out of each owning
//! rank's segment, replays g's singles, visits every (K, h) with
//! `g_K ⊕ h = g` in family order, and adds σᵀ back into each segment.
//! Every single and every (K, h) touches the sub-block of one row irrep,
//! so each σ element receives its terms in the same order however the
//! columns are grouped, and a GEMM forms each element as the same `fma`
//! chain whatever its N: the bits do not depend on the grouping. The
//! serial backend runs one pass over every rank's columns — a pass per
//! rank would, at 432 ranks on C2's 715 columns, make each (K, h) a GEMM
//! with N = 1–2 and run the loop 432 times — and the threaded backend one
//! pass per rank, on the rank's thread. `charge_walk` charges a rank's
//! clock from the shapes of its sub-blocks alone, making the calls, in
//! the order, that a rank running its own share of the arithmetic would,
//! so every per-rank clock keeps its bits. Those shapes are the rank's
//! runs, and a block distribution leaves few distinct ones, so
//! `rank_charges` walks once per distinct shape and hands each rank its
//! clock.
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
//! and scatter move *rows* of it, so — as on the X1 — the kernel works on
//! a **transposed** copy of one sub-block at a time, gathered from the
//! segments of every rank that owns part of its run, so that a row's run
//! is contiguous (with one irrep: `clt[k + j·n] = C(j, col₀+k)` over the
//! `n` served columns). σ is accumulated into a buffer of the same shape,
//! transposed back and added into each owner's segment of the distributed
//! σ once per sub-block, and D is held as `D_hᵀ` (`run × np′`), so one
//! family entry is a signed copy of one contiguous C run into one
//! contiguous D column. The product is still `E = Ĝ·D`: `Dᵀ` enters the
//! GEMM with [`Trans::Yes`], which hands the kernels the same operands in
//! the same order as an untransposed D. The two sub-block buffers, `D_hᵀ`
//! and `E_h` are allocated once per pass for the largest sub-block and
//! reshaped per (K, h).
//!
//! The one-electron couplings do not depend on the rank: the singles
//! table is resolved against `h_pq` once per call into a flat list of the
//! nonzero `(from, to, h_pq·sign)` entries, which every pass replays.

use super::{SigmaCtx, MAX_IRREP};
use crate::hamiltonian::{Hamiltonian, SCREENED};
use crate::phase::{run_phase, HostSplit};
use fci_ddi::{transpose_block, Backend, DistMatrix, Layout};
use fci_linalg::{dgemm, Matrix, Trans};
use fci_strings::{Nm2Families, SinglesTable, SpinStrings};
use fci_xsim::{Clock, MachineModel, RunReport};
use std::ops::Range;

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
/// than to slice and `zip`: at a run of 1–2 (a rank of the threaded
/// backend that owns 1–2 columns, or a small irrep block) the slice bounds
/// and the vector-loop prologue cost more than the row itself.
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

/// The in-sector sub-block of one row irrep over a range of columns: the
/// rows of that irrep against the run of those columns in which they are
/// non-zero.
#[derive(Clone, Copy, Default)]
struct SubBlock {
    /// First row (string index) of the irrep.
    row0: usize,
    /// Number of rows.
    nrows: usize,
    /// First column of the run, counted from the range's first column.
    col0: usize,
    /// Length of the run.
    nrun: usize,
    /// Where the sub-block starts in the elements the range stores — for
    /// one rank's columns, in the rank's segment.
    at: usize,
}

impl SubBlock {
    /// Start of row `j`'s run in a transposed copy of the sub-block that
    /// starts at `at`.
    #[inline]
    fn row(&self, j: u32) -> usize {
        self.at + (j as usize - self.row0) * self.nrun
    }

    fn len(&self) -> usize {
        self.nrows * self.nrun
    }
}

/// Where the coefficients of a range of columns (one rank's, or all)
/// sit: one [`SubBlock`] per row irrep, which together tile the range's
/// stored elements.
struct Sector {
    n_irrep: u8,
    blocks: [SubBlock; MAX_IRREP],
}

impl Sector {
    /// The sub-blocks, by row irrep.
    fn blocks(&self) -> &[SubBlock] {
        &self.blocks[..self.n_irrep as usize]
    }

    /// Stored elements of the range.
    fn len(&self) -> usize {
        self.blocks().iter().map(SubBlock::len).sum()
    }
}

/// What every kernel pass and every charge walk of one half reads: the
/// Hamiltonian, the strings of the rows and the columns, the target irrep
/// and the two coupling lists.
struct Half<'a> {
    ham: &'a Hamiltonian,
    model: &'a MachineModel,
    rows: &'a SpinStrings,
    cols: &'a SpinStrings,
    target: u8,
    one_e: OneElectronList,
    nm2: Option<&'a Nm2Families>,
}

impl Half<'_> {
    fn n_irrep(&self) -> u8 {
        self.rows.n_irrep() as u8
    }

    /// The sub-block of row irrep `g` over the columns `range` of a matrix
    /// stored in `layout`.
    fn sub_block(&self, g: u8, range: Range<usize>, layout: &Layout) -> SubBlock {
        let (r, c) = (
            self.rows.block_range(g),
            self.cols.block_range(g ^ self.target),
        );
        let (lo, hi) = (c.start.max(range.start), c.end.min(range.end));
        let mut b = SubBlock {
            row0: r.start,
            nrows: r.len(),
            ..SubBlock::default()
        };
        if lo < hi {
            (b.col0, b.nrun) = (lo - range.start, hi - lo);
            b.at = layout.offset(lo) - layout.offset(range.start);
        }
        b
    }

    /// The sector of the columns `range`.
    fn sector(&self, range: Range<usize>, layout: &Layout) -> Sector {
        let mut blocks = [SubBlock::default(); MAX_IRREP];
        for g in 0..self.n_irrep() {
            blocks[g as usize] = self.sub_block(g, range.clone(), layout);
        }
        Sector {
            n_irrep: self.n_irrep(),
            blocks,
        }
    }
}

/// The working storage of one kernel pass, sized for the largest
/// sub-block of the columns it serves.
struct Workspace {
    /// One sub-block of C, transposed: row `j` is the contiguous run
    /// `clt[b.row(j)..][..b.nrun]` — with one irrep, `clt[k + j·nrun] =
    /// C(j, col₀+k)`. Spent after the sub-block's arithmetic, it takes
    /// each rank's share of σ in the segment's layout.
    clt: Vec<f64>,
    /// The sub-block of σ in the same layout, zeroed per sub-block.
    st: Vec<f64>,
    /// `D_hᵀ`, `run × unscreened pairs of h`: column `pair` is one
    /// gathered C run. All zero between blocks.
    dt: Matrix,
    /// `E_h = Ĝ_hh·D_h`, `unscreened pairs of h × run`.
    e_mat: Matrix,
}

impl Workspace {
    /// Storage for the sub-blocks `blocks` (the served columns' runs).
    fn new(ham: &Hamiltonian, blocks: &[SubBlock]) -> Workspace {
        let len = blocks.iter().map(SubBlock::len).max().unwrap_or(0);
        let nrun = blocks.iter().map(|b| b.nrun).max().unwrap_or(0);
        let np = (0..ham.n_irrep as u8)
            .map(|h| ham.g_block(h).nrows())
            .max()
            .unwrap_or(0);
        Workspace {
            clt: vec![0.0; len],
            st: vec![0.0; len],
            dt: Matrix::zeros(nrun, np),
            e_mat: Matrix::zeros(np, nrun),
        }
    }
}

/// The same-spin arithmetic for the columns `served` — one rank's or
/// several's — one row irrep g at a time: transpose sub-block g straight
/// out of each owner's segment into the workspace, replay g's
/// one-electron entries, gather / multiply / scatter every (N−2 family K,
/// pair irrep h) with `g_K ⊕ h = g` in family order, and add σᵀ back into
/// each owner's segment of `sigma`. Every single and every (K, h)
/// touches only the sub-block of its row irrep, so each σ element
/// receives its terms in a fixed order — singles in table order, then
/// families in `kf` order — and the GEMM's per-element sum does not
/// depend on the run's length: the bits are the same for any grouping of
/// the ranks. Charges nothing
/// (see [`charge_walk`]); allocates nothing.
fn sub_block_kernel(
    half: &Half,
    c: &DistMatrix,
    sigma: &DistMatrix,
    served: Range<usize>,
    ws: &mut Workspace,
    host: &mut HostSplit,
) {
    let (ham, one_e) = (half.ham, &half.one_e);
    let pos = ham.pair_pos();
    let Workspace { clt, st, dt, e_mat } = ws;
    for g in 0..half.n_irrep() {
        // Sub-block g of the served columns, as the workspace holds it.
        let b = SubBlock {
            at: 0,
            ..half.sub_block(g, served.clone(), c.layout())
        };
        let nrun = b.nrun;
        if b.len() == 0 {
            continue;
        }
        let (clt, st) = (&mut clt[..b.len()], &mut st[..b.len()]);
        // The ranks that own columns of the run, and rank p's share of it
        // with where in the run that starts.
        let run0 = served.start + b.col0;
        let owners = c.owner(run0)..c.owner(run0 + nrun - 1) + 1;
        let part = |p: usize| {
            let local = c.local_cols(p);
            let part = half.sub_block(g, local.clone(), c.layout());
            (part.nrun > 0).then(|| (part, local.start + part.col0 - run0))
        };
        for p in owners.clone() {
            if let Some((part, k0)) = part(p) {
                c.with_local(p, |s| {
                    let src = &s[part.at..];
                    transpose_block(src, b.nrows, b.nrows, part.nrun, &mut clt[k0..], nrun);
                });
            }
        }
        st.fill(0.0);
        host.lap(TRANSPOSE);

        // --- one-electron singles ---
        for e in &one_e.entries[one_e.off[g as usize]..one_e.off[g as usize + 1]] {
            let h = e.h;
            fold_row(st, b.row(e.to), clt, b.row(e.from), 1, nrun, |s, c| {
                *s += h * c
            });
        }
        host.lap(ONE_ELECTRON);

        // --- same-spin doubles through N−2 intermediates ---
        if let Some(nm2) = half.nm2 {
            for gk in 0..half.n_irrep() {
                // Pairs of irrep h lead from K to rows of irrep g_K ⊕ h.
                let h = gk ^ g;
                let g_hh = ham.g_block(h);
                let np = g_hh.nrows();
                if np == 0 {
                    continue;
                }
                for kf in nm2.space_k().block_range(gk) {
                    let fam = nm2.block(kf, h);
                    if fam.is_empty() {
                        continue;
                    }
                    dt.reshape(nrun, np);
                    e_mat.reshape(np, nrun);
                    // Gather (B matrix application): one C run per D column.
                    let dts = dt.as_mut_slice();
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
                    // The DGEMM: E_h = Ĝ_hh · D_h.
                    dgemm(Trans::No, Trans::Yes, 1.0, g_hh, dt, 0.0, e_mat);
                    host.gemm(np, nrun, np);
                    host.lap(GEMM);
                    // Scatter (A matrix application) and clear the D
                    // columns. E is read along a row (stride `np`); σᵀ is
                    // written contiguously.
                    let (dts, es) = (dt.as_mut_slice(), e_mat.as_slice());
                    for e in fam {
                        let pair = pos[e.pair_index()];
                        if pair == SCREENED {
                            continue;
                        }
                        let (pair, sgn) = (pair as usize, e.sign as f64);
                        fold_row(st, b.row(e.to), es, pair, np, nrun, |s, ev| *s += sgn * ev);
                        // Clear through the same helper (the source row is
                        // ignored): a `fill` call per entry costs more than
                        // the entry on a short run.
                        fold_row(dts, pair * nrun, clt, 0, 1, nrun, |d, _| *d = 0.0);
                    }
                    host.lap(SCATTER);
                }
            }
        }

        // Back to each rank's segment layout through the spent C block,
        // then one contiguous add under σ's lock.
        for p in owners.clone() {
            if let Some((part, k0)) = part(p) {
                let back = &mut clt[..part.len()];
                transpose_block(&st[k0..], nrun, part.nrun, b.nrows, back, b.nrows);
                sigma.with_local(p, |sl| {
                    for (s, t) in sl[part.at..].iter_mut().zip(back.iter()) {
                        *s += t;
                    }
                });
            }
        }
        host.lap(TRANSPOSE);
    }
}

/// One rank's charges for the half, from the shapes of its sub-blocks
/// alone: the sector transpose, the one-electron walk, then per (g_K,
/// family, h) the DGEMM over every pair of h, the family's index work and
/// its gather + scatter — the calls, in the order, that a rank running
/// its own share of the arithmetic would make. The machine runs every
/// rank's share, whichever pass the host ran it in. Allocates nothing.
fn charge_walk(half: &Half, sector: &Sector, clock: &mut Clock) {
    let model = half.model;
    clock.charge_memcpy(model, (sector.len() * 8) as f64);
    let (mut walked, mut moved) = (0, 0);
    for (g, b) in sector.blocks().iter().enumerate() {
        if b.nrun > 0 {
            walked += half.one_e.allowed[g];
            moved += half.one_e.allowed[g] * b.nrun;
        }
    }
    clock.charge_scalar(model, 2.0 * walked as f64);
    clock.charge_daxpy(model, (2 * moved) as f64);

    let Some(nm2) = half.nm2 else { return };
    for gk in 0..sector.n_irrep {
        for kf in nm2.space_k().block_range(gk) {
            for h in 0..sector.n_irrep {
                // Pairs of irrep h lead from K to rows of irrep g_K ⊕ h.
                let fam = nm2.block(kf, h);
                let nrun = sector.blocks[(gk ^ h) as usize].nrun;
                if fam.is_empty() || nrun == 0 {
                    continue;
                }
                // The machine model multiplies every pair of h.
                let np = half.ham.pairs_of_irrep(h);
                clock.charge_dgemm(model, np, nrun, np);
                clock.charge_scalar(model, 2.0 * fam.len() as f64);
                clock.charge_gather(model, (3 * fam.len() * nrun) as f64);
            }
        }
    }
}

/// Every rank's charges for the half: [`charge_walk`] from a zero clock,
/// walked once per distinct shape. A rank's charges are a function of its
/// runs alone, and a block distribution leaves few distinct ones (C2's
/// 715 columns on 432 ranks: one or two columns of one of 8 irreps, or
/// one on each side of one of 7 irrep boundaries — at most 23). Ranks
/// with no columns charge nothing.
fn rank_charges(half: &Half, c: &DistMatrix, nproc: usize) -> Vec<Clock> {
    let mut walked: Vec<([usize; MAX_IRREP], Clock)> = Vec::new();
    (0..nproc)
        .map(|rank| {
            let local = c.local_cols(rank);
            if local.is_empty() {
                return Clock::default();
            }
            let sector = half.sector(local, c.layout());
            let runs = sector.blocks.map(|b| b.nrun);
            if let Some((_, clock)) = walked.iter().find(|(r, _)| *r == runs) {
                return *clock;
            }
            let mut clock = Clock::default();
            charge_walk(half, &sector, &mut clock);
            walked.push((runs, clock));
            clock
        })
        .collect()
}

/// Add the row-spin (same-spin + one-electron) half of H·C for one spin
/// channel into `sigma`. `c` and `sigma` must share a layout whose rows
/// are that spin's strings: a CI vector of `ctx.space` for β, its
/// transpose for α — the spin is the one whose `singles` table of
/// `ctx.space` is handed in. `name` labels the phase in traces
/// ("beta_beta" / "alpha_alpha").
///
/// Each rank's clock is charged from the shapes of its columns
/// (`rank_charges`). The arithmetic (`sub_block_kernel`) runs once per
/// group of ranks: on the threaded backend each rank serves its own
/// columns, on the serial one rank 0 serves every rank's in one pass, so
/// each GEMM spans a whole irrep block of columns however many ranks own
/// them.
pub fn half_sigma_dgemm(
    ctx: &SigmaCtx,
    name: &str,
    c: &DistMatrix,
    sigma: &DistMatrix,
    singles: &SinglesTable,
    nm2: Option<&Nm2Families>,
) -> RunReport {
    let ham = ctx.ham;
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
    let half = Half {
        ham,
        model: ctx.model,
        rows,
        cols,
        target: space.target_irrep,
        one_e: one_electron_list(ham, singles, rows),
        nm2,
    };
    let nproc = ctx.ddi.nproc();
    let serial = ctx.ddi.backend() == Backend::Serial;
    let tracer = ctx.ddi.tracer();
    let charges = rank_charges(&half, c, nproc);

    run_phase(ctx.ddi, ctx.model, name, |rank, _stats, clock| {
        // The phase hands each rank a zero clock, so this is the walk.
        clock.merge(&charges[rank]);
        let served = match serial {
            false => c.local_cols(rank),
            true if rank == 0 => 0..c.ncols(),
            true => 0..0,
        };
        if served.is_empty() {
            return;
        }
        let mut host = HostSplit::new(&tracer);
        host.start();
        let blocks = half.sector(served.clone(), c.layout());
        let mut ws = Workspace::new(ham, blocks.blocks());
        host.lap(TRANSPOSE);
        sub_block_kernel(&half, c, sigma, served, &mut ws, &mut host);
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
