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
//! row irrep g at a time: it takes sub-block g into the workspace in the
//! transposed layout (see "Layout"), replays g's singles, visits every
//! (K, h) with `g_K ⊕ h = g` in family order, and adds σ back. Every
//! single and every (K, h) touches the sub-block of one row irrep, so
//! each σ element receives its terms in the same order however the
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
//! a **transposed** copy of one sub-block at a time, so that a row's run
//! is contiguous (with one irrep: `clt[k + j·n] = C(j, col₀+k)` over the
//! `n` served columns). σ is accumulated into a buffer of the same shape
//! and added into the distributed σ once per sub-block. D is held as
//! `D_hᵀ` (`run × np′`), so one family entry is a signed copy of one
//! contiguous C run into one contiguous D column. The product is still
//! `E = Ĝ·D`: `Dᵀ` enters the GEMM with [`Trans::Yes`], which hands the
//! kernels the same operands in the same order as an untransposed D.
//!
//! Where the transposed sub-block comes from is the pass's `Stage`:
//!
//! * a pass over **every** column (the serial backend, when the caller
//!   holds C in both layouts) needs no transpose at all. The transposed
//!   sub-block of row irrep g *is* the columns of irrep g of Cᵀ — one
//!   contiguous stretch of Cᵀ's stored elements, split only between the
//!   ranks that own those columns — and its σ belongs in the same stretch
//!   of a zeroed σᵀ ([`half_sigma_dgemm_both`]). Where one rank owns the
//!   whole stretch (every sub-block at one rank) the arithmetic reads C
//!   and sums σ right there, and nothing is moved: a sum that starts at
//!   σᵀ's +0.0 is the sum a zeroed buffer would hold, and +0.0 plus that
//!   sum is the sum, bit for bit (no sum from +0.0 reaches −0.0). Where
//!   several ranks share it, the stage copies the stretch into the
//!   workspace and adds the workspace's σ back;
//! * a pass over some of the columns (one rank's, on the threaded
//!   backend) serves only part of each Cᵀ column, so it transposes its
//!   share out of each owner's segment of C and σᵀ back into σ, and the
//!   same-spin step stays free of communication.
//!
//! Only the stage differs: the singles, gather, GEMM and scatter between
//! the two stages are one path. The two sub-block buffers, `D_hᵀ` and
//! `E_h` are sized once per pass for the largest sub-block and reshaped
//! per (K, h). The sub-block buffers are CI-sized under one irrep; inside
//! a solve they come from, and go back to, its storage scope
//! ([`fci_ddi::reuse`]), so a pass allocates them only once per solve,
//! and they are handed out unzeroed: every element is written before it
//! is read.
//!
//! The one-electron couplings do not depend on the rank: the singles
//! table is resolved against `h_pq` once per call into a flat list of the
//! nonzero `(from, to, h_pq·sign)` entries, which every pass replays.

use super::{SigmaCtx, MAX_IRREP};
use crate::hamiltonian::{Hamiltonian, SCREENED};
use crate::phase::{run_split_phase, HostSplit};
use fci_ddi::{reuse, transpose_block, Backend, DistMatrix, Layout};
use fci_linalg::{dgemm, Matrix, Trans};
use fci_strings::{Nm2Families, SinglesTable, SpinStrings};
use fci_xsim::{Clock, MachineModel, RunReport};
use std::ops::Range;

/// Parts of a rank's host time, as indexed in [`HostSplit`] and named in
/// the `same_spin_host_us` trace counter. `copy` is the [`Stage`] at both
/// ends of each sub-block (a copy on a serial pass, transposes on a
/// threaded rank) and the workspace's setup.
const HOST_PARTS: [&str; 5] = ["copy", "one_electron", "gather", "gemm", "scatter"];
const COPY: usize = 0;
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
/// symmetry-forbidden and dropped whatever rounding left in `h`. The
/// table is walked twice — once to count, once to fill — so the list is
/// allocated once at its exact length: most of `h` is zero under spatial
/// symmetry, and a list sized for the whole table would be mostly slack.
fn one_electron_list(
    ham: &Hamiltonian,
    singles: &SinglesTable,
    rows: &SpinStrings,
) -> OneElectronList {
    // Every symmetry-allowed entry of source irrep g, with its coupling.
    let allowed = |g: usize| {
        rows.block_range(g as u8).flat_map(move |j| {
            singles.of(j).iter().filter_map(move |e| {
                let (p, q) = (e.p as usize, e.q as usize);
                (ham.orb_sym[p] == ham.orb_sym[q]).then(|| OneElectron {
                    from: j as u32,
                    to: e.to,
                    h: ham.h[(p, q)] * e.sign as f64,
                })
            })
        })
    };
    let n_irrep = rows.n_irrep();
    let nonzero = (0..n_irrep)
        .map(|g| allowed(g).filter(|e| e.h != 0.0).count())
        .sum();
    let mut list = OneElectronList {
        entries: Vec::with_capacity(nonzero),
        off: [0; MAX_IRREP + 1],
        allowed: [0; MAX_IRREP],
    };
    for g in 0..n_irrep {
        for e in allowed(g) {
            list.allowed[g] += 1;
            if e.h != 0.0 {
                list.entries.push(e);
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

    /// The shape of the sub-block of row irrep `g` over the columns
    /// `range`, at 0.
    fn shape(&self, g: u8, range: Range<usize>) -> SubBlock {
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
        }
        b
    }

    /// The sub-block of row irrep `g` over the columns `range` of a matrix
    /// stored in `layout`, where it starts among the range's elements.
    fn sub_block(&self, g: u8, range: Range<usize>, layout: &Layout) -> SubBlock {
        let b = self.shape(g, range.clone());
        let at = match b.nrun {
            0 => 0,
            _ => layout.offset(range.start + b.col0) - layout.offset(range.start),
        };
        SubBlock { at, ..b }
    }

    /// The sub-block shapes of the columns `range`.
    fn sector(&self, range: Range<usize>) -> Sector {
        let mut blocks = [SubBlock::default(); MAX_IRREP];
        for g in 0..self.n_irrep() {
            blocks[g as usize] = self.shape(g, range.clone());
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
    /// C(j, col₀+k)`. Written by the stage per sub-block; on a
    /// transposing stage, spent after the sub-block's arithmetic, it takes
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
    /// Storage for the sub-blocks `blocks` (the served columns' runs)
    /// taken through `stage`. A sub-block the stage uses in place needs
    /// no room in the two sub-block buffers.
    fn new(ham: &Hamiltonian, blocks: &[SubBlock], stage: Stage) -> Workspace {
        let staged = blocks
            .iter()
            .filter(|b| b.len() > 0 && stage.in_place(b).is_none());
        let len = staged.map(SubBlock::len).max().unwrap_or(0);
        let nrun = blocks.iter().map(|b| b.nrun).max().unwrap_or(0);
        let np = (0..ham.n_irrep as u8)
            .map(|h| ham.g_block(h).nrows())
            .max()
            .unwrap_or(0);
        // Both are written before they are read, per sub-block.
        Workspace {
            clt: reuse::overwritten(len),
            st: reuse::overwritten(len),
            dt: Matrix::zeros(nrun, np),
            e_mat: Matrix::zeros(np, nrun),
        }
    }
}

impl Drop for Workspace {
    /// The two sub-block buffers go back to the solve's storage scope.
    fn drop(&mut self) {
        reuse::recycle(std::mem::take(&mut self.clt));
        reuse::recycle(std::mem::take(&mut self.st));
    }
}

/// Where a kernel pass takes each sub-block of C from and adds its σ
/// into — the one thing the passes of the two backends differ in (see
/// "Layout").
#[derive(Clone, Copy)]
enum Stage<'a> {
    /// The sub-block of row irrep g is the columns of irrep g of `ct` (the
    /// transpose of C), and its σ goes to the same columns of `sigma_t`,
    /// stored like `ct` and zero there: used where they are when one rank
    /// owns them ([`Stage::in_place`]), copied in and added back
    /// otherwise. Only for a pass over every column of C, whose runs are
    /// whole columns of `ct`.
    Copy {
        ct: &'a DistMatrix,
        sigma_t: &'a DistMatrix,
    },
    /// Transpose each owner's part of the sub-block out of its segment of
    /// `c`, and σᵀ back into its segment of `sigma`.
    Transpose {
        c: &'a DistMatrix,
        sigma: &'a DistMatrix,
    },
}

impl<'a> Stage<'a> {
    /// Where a copying stage has nothing to copy: when one rank owns every
    /// column of `ct` that sub-block `b` spans, the sub-block is one
    /// stretch of that owner's segments of `ct` and `sigma_t`, which the
    /// arithmetic can read and sum in directly. The owner, where the
    /// stretch starts in its segments, and the two matrices; never for a
    /// transposing stage.
    fn in_place(self, b: &SubBlock) -> Option<(usize, usize, &'a DistMatrix, &'a DistMatrix)> {
        let Stage::Copy { ct, sigma_t } = self else {
            return None;
        };
        let owner = ct.owner(b.row0);
        let local = ct.local_cols(owner);
        (b.row0 + b.nrows <= local.end).then(|| {
            let lay = ct.layout();
            (
                owner,
                lay.offset(b.row0) - lay.offset(local.start),
                ct,
                sigma_t,
            )
        })
    }

    /// Bytes the stage's loops read and write per element of a sub-block,
    /// each `f64` load or store counted once: taking C in (a load and a
    /// store), zeroing the σ buffer (a store) and adding it into the
    /// distributed σ (two loads, a store) — and, transposing, σᵀ back
    /// through the spent C buffer first (a load and a store).
    fn bytes_per_element(self) -> usize {
        match self {
            Stage::Copy { .. } => 8 * (2 + 1 + 3),
            Stage::Transpose { .. } => 8 * (2 + 1 + 2 + 3),
        }
    }

    /// Each owner's share of sub-block `b` (row irrep `g` over the
    /// columns `served`, as [`Half::shape`] gives it): `f(owner, part,
    /// k0)`, with `part` where the share sits in the owner's segment. A
    /// copied share is whole rows of `b` and starts at element `k0` of the
    /// workspace's copy; a transposed one is whole columns of `b` and
    /// starts at column `k0` of each of its rows.
    fn shares(
        self,
        half: &Half,
        g: u8,
        served: &Range<usize>,
        b: &SubBlock,
        mut f: impl FnMut(usize, SubBlock, usize),
    ) {
        match self {
            Stage::Copy { ct, .. } => {
                // Row j of the sub-block is column j of `ct`, whose stored
                // elements are the run.
                let (rows, lay) = (b.row0..b.row0 + b.nrows, ct.layout());
                for q in ct.owner(rows.start)..=ct.owner(rows.end - 1) {
                    let local = ct.local_cols(q);
                    let (lo, hi) = (rows.start.max(local.start), rows.end.min(local.end));
                    if lo < hi {
                        debug_assert_eq!(lay.offset(hi) - lay.offset(lo), (hi - lo) * b.nrun);
                        let part = SubBlock {
                            row0: lo,
                            nrows: hi - lo,
                            col0: 0,
                            nrun: b.nrun,
                            at: lay.offset(lo) - lay.offset(local.start),
                        };
                        f(q, part, (lo - b.row0) * b.nrun);
                    }
                }
            }
            Stage::Transpose { c, .. } => {
                let run0 = served.start + b.col0;
                for p in c.owner(run0)..=c.owner(run0 + b.nrun - 1) {
                    let local = c.local_cols(p);
                    let part = half.sub_block(g, local.clone(), c.layout());
                    if part.nrun > 0 {
                        f(p, part, local.start + part.col0 - run0);
                    }
                }
            }
        }
    }

    /// Write sub-block `b` into `clt` in the kernel's layout.
    fn take(self, half: &Half, g: u8, served: &Range<usize>, b: &SubBlock, clt: &mut [f64]) {
        let src = match self {
            Stage::Copy { ct, .. } => ct,
            Stage::Transpose { c, .. } => c,
        };
        self.shares(half, g, served, b, |owner, part, k0| {
            src.with_local(owner, |s| {
                let s = &s[part.at..];
                match self {
                    Stage::Copy { .. } => {
                        clt[k0..][..part.len()].copy_from_slice(&s[..part.len()]);
                    }
                    Stage::Transpose { .. } => {
                        transpose_block(s, b.nrows, b.nrows, part.nrun, &mut clt[k0..], b.nrun);
                    }
                }
            });
        });
    }

    /// Add `st`, sub-block `b` of σ in the kernel's layout, into the
    /// distributed σ, one contiguous add under each owner's lock. A
    /// transposing stage spends `clt` on the way back.
    fn give(
        self,
        half: &Half,
        g: u8,
        served: &Range<usize>,
        b: &SubBlock,
        st: &[f64],
        clt: &mut [f64],
    ) {
        let dst = match self {
            Stage::Copy { sigma_t, .. } => sigma_t,
            Stage::Transpose { sigma, .. } => sigma,
        };
        self.shares(half, g, served, b, |owner, part, k0| {
            let add: &[f64] = match self {
                Stage::Copy { .. } => &st[k0..][..part.len()],
                Stage::Transpose { .. } => {
                    let back = &mut clt[..part.len()];
                    transpose_block(&st[k0..], b.nrun, part.nrun, b.nrows, back, b.nrows);
                    back
                }
            };
            dst.with_local(owner, |d| {
                for (s, t) in d[part.at..].iter_mut().zip(add) {
                    *s += t;
                }
            });
        });
    }
}

/// The same-spin arithmetic for the columns `served` — one rank's or
/// several's — one row irrep g at a time: take sub-block g into the
/// workspace through `stage`, replay g's one-electron entries, gather /
/// multiply / scatter every (N−2 family K, pair irrep h) with `g_K ⊕ h =
/// g` in family order, and add σ back through `stage`. Every single and
/// every (K, h) touches only the sub-block of its row irrep, so each σ
/// element receives its terms in a fixed order — singles in table order,
/// then families in `kf` order — and the GEMM's per-element sum does not
/// depend on the run's length: the bits are the same for any grouping of
/// the ranks and for either stage. Charges nothing (see
/// [`charge_walk`]); allocates nothing.
fn sub_block_kernel(
    half: &Half,
    stage: Stage,
    served: Range<usize>,
    ws: &mut Workspace,
    host: &mut HostSplit,
) {
    let Workspace { clt, st, dt, e_mat } = ws;
    for g in 0..half.n_irrep() {
        // Sub-block g of the served columns, as the workspace holds it.
        let b = half.shape(g, served.clone());
        if b.len() == 0 {
            continue;
        }
        if let Some((owner, at, ct, sigma_t)) = stage.in_place(&b) {
            // One owner holds the whole sub-block in both matrices: read C
            // and sum σ where they are (σᵀ is zero there, so the sums are
            // those of a zeroed buffer added in).
            ct.with_local(owner, |cs| {
                sigma_t.with_local(owner, |ss| {
                    let (cs, ss) = (&cs[at..][..b.len()], &mut ss[at..][..b.len()]);
                    debug_assert!(ss.iter().all(|s| s.to_bits() == 0), "σᵀ is not zero");
                    host.lap(COPY);
                    sub_block_arithmetic(half, g, &b, cs, ss, (dt, e_mat), host);
                });
            });
            host.lap(COPY);
            continue;
        }
        let (clt, st) = (&mut clt[..b.len()], &mut st[..b.len()]);
        stage.take(half, g, &served, &b, clt);
        st.fill(0.0);
        host.moved(b.len() * stage.bytes_per_element());
        host.lap(COPY);
        sub_block_arithmetic(half, g, &b, clt, st, (dt, e_mat), host);
        stage.give(half, g, &served, &b, st, clt);
        host.lap(COPY);
    }
}

/// The arithmetic on sub-block `b` of row irrep `g`: `clt` holds C and
/// `st` sums σ, both in the kernel's layout. Replays g's one-electron
/// entries, then gathers / multiplies / scatters every (N−2 family K,
/// pair irrep h) with `g_K ⊕ h = g` in family order. `dt` is all zero on
/// entry and on exit.
fn sub_block_arithmetic(
    half: &Half,
    g: u8,
    b: &SubBlock,
    clt: &[f64],
    st: &mut [f64],
    (dt, e_mat): (&mut Matrix, &mut Matrix),
    host: &mut HostSplit,
) {
    let (ham, one_e) = (half.ham, &half.one_e);
    let pos = ham.pair_pos();
    let nrun = b.nrun;
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
            let sector = half.sector(local);
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
/// them. Every pass transposes its sub-blocks in and out of the segments
/// of `c` and `sigma`; [`half_sigma_dgemm_both`] spares the serial pass
/// that, for a caller that holds C in both layouts.
pub fn half_sigma_dgemm(
    ctx: &SigmaCtx,
    name: &str,
    c: &DistMatrix,
    sigma: &DistMatrix,
    singles: &SinglesTable,
    nm2: Option<&Nm2Families>,
) -> RunReport {
    half_sigma(ctx, name, c, sigma, None, singles, nm2)
}

/// [`half_sigma_dgemm`] for a caller that holds C and a zeroed σ
/// accumulator in both layouts: `c[0]` and `sigma[0]` with the half's
/// spin on the rows, `c[1]` the transpose of `c[0]` and `sigma[1]` stored
/// like it. The serial pass, which serves every column, takes each
/// sub-block from `c[1]` and sums σ into `sigma[1]` — in place where one
/// rank owns the sub-block, through the workspace otherwise; a rank of
/// the threaded backend transposes its share out of `c[0]` and adds into
/// `sigma[0]`. Either way each σ element is written by exactly one
/// sub-block, so `sigma[0] + transpose(sigma[1])` is the half, bit for
/// bit the same on both backends. `sigma[1]` must be zero: an in-place
/// sum starts from what it holds.
pub fn half_sigma_dgemm_both(
    ctx: &SigmaCtx,
    name: &str,
    c: [&DistMatrix; 2],
    sigma: [&DistMatrix; 2],
    singles: &SinglesTable,
    nm2: Option<&Nm2Families>,
) -> RunReport {
    let ([c, ct], [sigma, sigma_t]) = (c, sigma);
    assert!(
        ct.layout().is_transpose_of(c.layout())
            && ct.layout() == sigma_t.layout()
            && ct.nproc() == sigma_t.nproc(),
        "Cᵀ is not stored as the transpose of C, or σᵀ is stored differently"
    );
    let copy = Stage::Copy { ct, sigma_t };
    half_sigma(ctx, name, c, sigma, Some(copy), singles, nm2)
}

/// The one body of both entry points: `copy` is the serial pass's stage
/// when the caller holds the transposes.
fn half_sigma(
    ctx: &SigmaCtx,
    name: &str,
    c: &DistMatrix,
    sigma: &DistMatrix,
    copy: Option<Stage>,
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
    let charges = rank_charges(&half, c, nproc);
    let transpose = Stage::Transpose { c, sigma };

    run_split_phase(ctx.ddi, ctx.model, name, |rank, _stats, clock, host| {
        // The phase hands each rank a zero clock, so this is the walk.
        clock.merge(&charges[rank]);
        let (served, stage) = match serial {
            false => (c.local_cols(rank), transpose),
            true if rank == 0 => (0..c.ncols(), copy.unwrap_or(transpose)),
            true => return,
        };
        if served.is_empty() {
            return;
        }
        let blocks = half.sector(served.clone());
        let mut ws = Workspace::new(ham, blocks.blocks(), stage);
        host.lap(COPY);
        sub_block_kernel(&half, stage, served, &mut ws, host);
        host.emit(rank, "same_spin_host_us", HOST_PARTS);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detspace::DetSpace;
    use crate::hamiltonian::random_hamiltonian;
    use crate::sigma::test_ctx;
    use crate::slater;
    use fci_ddi::{Backend, Ddi};

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
        let ctx = test_ctx(space, ham, &ddi);
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

    /// Entries of the singles table over the strings `rows`.
    fn table_len(singles: &SinglesTable, rows: &SpinStrings) -> usize {
        (0..rows.len()).map(|j| singles.of(j).len()).sum()
    }

    #[test]
    fn one_electron_list_is_the_nonzero_entries_in_table_order() {
        let ham = half_zeroed_hamiltonian(6, 29);
        let space = DetSpace::c1(6, 3, 2);
        let singles = &space.beta_singles;
        let nstr = space.beta.len();
        let resolved = one_electron_list(&ham, singles, &space.beta);
        let list = &resolved.entries;
        let n_entries = table_len(singles, &space.beta);
        assert_eq!(resolved.off[..2], [0, list.len()]);
        assert_eq!(resolved.allowed[0], n_entries);
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
        assert!(list.len() < n_entries && list.len() >= nstr);
        assert!(list.iter().all(|e| e.h != 0.0));
    }

    /// The list is allocated at its length: no slack under D2h, where
    /// most of `h` is symmetry-forbidden, nor on a Hubbard chain, where
    /// most allowed couplings are zero.
    #[test]
    fn one_electron_list_has_no_slack() {
        let sym = [5u8, 0, 3, 6, 0, 5, 7, 1];
        let d2h = crate::hamiltonian::random_symmetric_hamiltonian(8, 29, &sym, 8);
        let hubbard = Hamiltonian::new(&fci_scf::MoIntegrals::hubbard_chain(8, 1.0, 4.0, false));
        for ham in [&d2h, &hubbard] {
            let space = DetSpace::for_hamiltonian(ham, 4, 3, 0);
            for (singles, rows) in [
                (&space.alpha_singles, &space.alpha),
                (&space.beta_singles, &space.beta),
            ] {
                let list = one_electron_list(ham, singles, rows);
                let (n, table) = (list.entries.len(), table_len(singles, rows));
                assert!(n > 0 && n < table / 2, "{n} of {table}");
                assert_eq!(list.entries.capacity(), n);
                assert_eq!(list.off[rows.n_irrep()], n);
            }
        }
    }

    /// The `copy` part's bytes are a function of the shapes alone. A
    /// transposing pass moves each stored element of C at 64 bytes; a
    /// copying pass moves, at 48 bytes, the elements of the sub-blocks
    /// that two or more ranks share, and nothing of one that a single rank
    /// owns (see `Stage::bytes_per_element`) — on 4 irreps and on one, at
    /// 1 and 3 ranks, on both backends and through both entry points.
    #[test]
    fn copy_bytes_are_the_shared_elements_times_the_stage_traffic() {
        let sym = [2u8, 0, 3, 1, 0, 2, 0, 3];
        let ham4 = crate::hamiltonian::random_symmetric_hamiltonian(8, 23, &sym, 4);
        let c1 = random_hamiltonian(6, 5);
        let spaces = [
            (DetSpace::for_hamiltonian(&ham4, 4, 3, 1), &ham4),
            (DetSpace::c1(6, 3, 2), &c1),
        ];
        let mut some_shared = [false; 2];
        for (space, ham) in &spaces {
            for nproc in [1, 3] {
                for (backend, both) in [
                    (Backend::Serial, true),
                    (Backend::Serial, false),
                    (Backend::Threads, true),
                ] {
                    let ddi = Ddi::new(nproc, backend);
                    let tracer = fci_obs::Tracer::in_memory();
                    ddi.attach_tracer(tracer.clone());
                    let ctx = test_ctx(space, ham, &ddi);
                    let c = space.guess(ham, nproc);
                    let ct = c.transpose(&mut vec![fci_ddi::CommStats::default(); nproc]);
                    let sigma = space.zeros_ci(nproc);
                    let sigma_t =
                        DistMatrix::with_layout(std::sync::Arc::clone(ct.layout()), nproc);
                    let (singles, nm2) = (&space.beta_singles, space.beta_nm2.as_ref());
                    if both {
                        let (c, s) = ([&c, &ct], [&sigma, &sigma_t]);
                        half_sigma_dgemm_both(&ctx, "beta_beta", c, s, singles, nm2);
                    } else {
                        half_sigma_dgemm(&ctx, "beta_beta", &c, &sigma, singles, nm2);
                    }
                    let bytes: f64 = tracer
                        .events()
                        .unwrap_or_default()
                        .iter()
                        .filter(|e| e.name == "same_spin_host_us")
                        .filter_map(|e| e.arg(fci_obs::HOST_COPY_BYTES))
                        .sum();
                    // The elements of the sub-blocks (β rows of irrep g,
                    // α columns of irrep g ⊕ target) whose columns of Cᵀ
                    // more than one rank owns.
                    let shared: usize = (0..space.beta.n_irrep() as u8)
                        .map(|g| {
                            let rows = space.beta.block_range(g);
                            let run = space.alpha.block_range(g ^ space.target_irrep).len();
                            let split =
                                !rows.is_empty() && ct.owner(rows.start) != ct.owner(rows.end - 1);
                            if split {
                                rows.len() * run
                            } else {
                                0
                            }
                        })
                        .sum();
                    let want = match (backend, both) {
                        (Backend::Serial, true) => 48 * shared,
                        _ => 64 * c.layout().stored(),
                    };
                    assert_eq!(
                        bytes, want as f64,
                        "{backend:?}, {nproc} ranks, both: {both}"
                    );
                    some_shared[(shared > 0) as usize] = true;
                }
            }
        }
        assert_eq!(
            some_shared, [true; 2],
            "no case copies, or none is in place"
        );
    }

    #[test]
    fn no_communication_in_same_spin() {
        // The paper's headline property: the same-spin routine involves no
        // network communication at all.
        let ham = random_hamiltonian(5, 4);
        let space = DetSpace::c1(5, 2, 2);
        let ddi = Ddi::new(4, Backend::Serial);
        let ctx = test_ctx(&space, &ham, &ddi);
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
        let ctx = test_ctx(&space, &ham, &ddi);
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
