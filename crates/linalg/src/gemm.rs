//! Blocked, cache-aware general matrix multiply.
//!
//! `dgemm` computes `C := alpha * op(A) * op(B) + beta * C`, the single
//! kernel the paper's σ algorithm funnels >95 % of its flops through.
//!
//! **One register tile.** Every flop runs in `tile`, written once over
//! the machine's vector type (`lanes`: eight `f64` in a 512-bit
//! register with mask registers where the build has AVX-512, plain
//! `[f64; 4]` lanes everywhere else). A tile holds `MV` vectors of C
//! rows by `W` columns of accumulators and reads its operands **by
//! stride**: column `l` of op(A) at `a + l·a_ls`, element `(l, s)` of
//! op(B) broadcast from `b + l·b_ls + s·b_js`. A row remainder is a lane
//! mask, a column remainder is cut into tiles of width 8/4/2/1 — neither
//! is a second kernel, neither is zero-padded.
//!
//! **Operands are read where they are** whenever that is no slower, which
//! the shape alone decides (`A_IN_PLACE_ROWS`, `A_IN_PLACE`,
//! `B_IN_PLACE`): an untransposed A of few enough rows and doubles is
//! walked at stride `lda`, an untransposed B at `(1, ldb)` at any size, a
//! transposed B at `(ldb, 1)` while it is cache-resident. Every σ product
//! on every workload is below the bounds and packs nothing. Above them
//! the Goto/BLIS five-loop structure takes over, on the same tile:
//!
//! * the `n` dimension is tiled by `NC`, the `k` dimension by `KC`, the
//!   `m` dimension by `MC`, so a packed A block (`MC×KC`) stays
//!   cache-resident while a `KC×NC` slice of B streams through,
//! * A, and B where it is transposed, are packed into tile-contiguous
//!   panels drawn from the [`crate::arena`] scratch pool (no per-call
//!   allocation after warm-up), each panel at the width of the tile that
//!   reads it.
//!
//! **One arithmetic.** Every element of C, on every path, is
//! `acc ← fma(a, b, acc)` over ascending `l` inside one `KC` stripe,
//! then `c += alpha·acc`, stripes in ascending order (multiply-then-add
//! in place of the fused step on a build without hardware FMA). The
//! bits of a product therefore depend on `KC` and on nothing else — not
//! on m or n, the tile shape, the vector width, packing, or which entry
//! point was called — and `crates/linalg/tests/gemm_bits.rs` compares
//! them with a scalar loop that does exactly that.
//!
//! **One thread per GEMM:** every multiply runs on the calling thread.
//! The paper fills the machine with DDI ranks, each running a serial
//! DGEMM on its own column block; a second level of threads inside the
//! kernel won on no workload (DESIGN.md §11) and is gone.
//!
//! **A packed-operand form:** [`PackedA::pack`] packs op(A) once into an
//! arena-backed handle and [`dgemm_prepacked`] consumes it directly; by
//! the one-arithmetic rule the result is bitwise equal to [`dgemm`]. No
//! σ kernel keeps a handle (DESIGN.md §16), so the form is reached from
//! the benchmark's GEMM probe and the tests only.
//!
//! Correctness is established by exhaustive small-size tests and property
//! tests against [`dgemm_naive`].

use crate::arena;
use crate::matrix::Matrix;
use lanes::{Live, LANES, V};

/// Transpose flag for [`dgemm`] operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Vectors of C rows in a full register tile.
const MV: usize = 2;
/// Rows of a full register tile, and of a full packed-A panel.
const MR: usize = MV * LANES;
/// Columns of a full register tile, and of a full packed-B panel:
/// `MV·NR` accumulators plus `MV` A vectors and a broadcast must fit the
/// register file (24 + 3 of 32 `zmm`; 12 + 3 of 16 `ymm`).
#[cfg(target_feature = "avx512f")]
const NR: usize = 12;
#[cfg(not(target_feature = "avx512f"))]
const NR: usize = 6;
/// Rows per packed A block (multiple of `MR`; `MC·KC` doubles ≈ 256 KB,
/// sized to sit in L2 while a B slice streams through L1).
const MC: usize = 128;
/// Depth per stripe: the one constant the result bits depend on.
const KC: usize = 256;
/// Columns per macro chunk of B (multiple of `NR`).
const NC: usize = 504;

/// An untransposed A is read in place, at stride `lda`, when it has at
/// most this many rows (beyond them the stride reaches the 4 KiB at
/// which every column lands in the same L1 sets) …
const A_IN_PLACE_ROWS: usize = 256;
/// … and at most this many doubles (`m·k`: a quarter of this host's
/// L2, re-read once per column tile). A larger or transposed A is packed
/// block by block.
const A_IN_PLACE: usize = 64 * 1024;
/// A transposed B is read in place, at `(ldb, 1)`, up to this many
/// doubles (`k·n`); a larger one is packed once per call, because its
/// depth-to-depth stride defeats the prefetcher once it falls out of L2.
/// An untransposed B is 12 sequential streams at any size and is never
/// packed. How the three bounds were measured: DESIGN.md §11.
const B_IN_PLACE: usize = 64 * 1024;

/// Reference implementation: straightforward triple loop.
///
/// `C := alpha * op(A) * op(B) + beta * C`. The test oracle for [`dgemm`].
// lint: allow(dead) — the triple-loop oracle of the GEMM bit and property tests
pub fn dgemm_naive(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, k, n) = check_dims(transa, transb, a, b, c);
    for j in 0..n {
        for i in 0..m {
            let mut acc = 0.0;
            for l in 0..k {
                let av = match transa {
                    Trans::No => a[(i, l)],
                    Trans::Yes => a[(l, i)],
                };
                let bv = match transb {
                    Trans::No => b[(l, j)],
                    Trans::Yes => b[(j, l)],
                };
                acc += av * bv;
            }
            c[(i, j)] = alpha * acc + beta * c[(i, j)];
        }
    }
}

fn check_dims(
    transa: Trans,
    transb: Trans,
    a: &Matrix,
    b: &Matrix,
    c: &Matrix,
) -> (usize, usize, usize) {
    let (m, ka) = match transa {
        Trans::No => (a.nrows(), a.ncols()),
        Trans::Yes => (a.ncols(), a.nrows()),
    };
    let (kb, n) = match transb {
        Trans::No => (b.nrows(), b.ncols()),
        Trans::Yes => (b.ncols(), b.nrows()),
    };
    assert_eq!(ka, kb, "dgemm inner dimensions differ: {ka} vs {kb}");
    assert_eq!(c.nrows(), m, "dgemm C row count mismatch");
    assert_eq!(c.ncols(), n, "dgemm C column count mismatch");
    (m, ka, n)
}

/// Blocked matrix multiply `C := alpha * op(A) * op(B) + beta * C`, on
/// the calling thread.
pub fn dgemm(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, k, n) = check_dims(transa, transb, a, b, c);
    if !beta_pass(alpha, beta, c, k) {
        return;
    }
    // Host-time probe for per-shape throughput metrics; one relaxed
    // atomic load when nobody is observing. This is real (host) kernel
    // time by design — linalg sits below the simulated-clock layer.
    let timer = crate::probe::active().then(std::time::Instant::now); // lint: allow(wallclock) — real host kernel time by design
    let asrc = if transa == Trans::No && m <= A_IN_PLACE_ROWS && m * k <= A_IN_PLACE {
        ASource::InPlace(a)
    } else {
        let block = packed_rows(m.min(MC)) * k.min(KC);
        ASource::Pack(transa, a, arena::acquire(block))
    };
    macro_kernel(asrc, BSource::of(transb, b, k, n), alpha, c, k);
    if let Some(t0) = timer {
        crate::probe::emit(m, n, k, t0.elapsed().as_secs_f64());
    }
}

/// [`dgemm`] under the signature `perf/` compiles against.
///
/// `nthreads` is vestigial: GEMM is serial and the argument must be `1`.
/// It goes when `perf/` next moves (ROADMAP item 2).
#[allow(clippy::too_many_arguments)]
pub fn dgemm_with_threads(
    nthreads: usize,
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    debug_assert_eq!(nthreads, 1, "GEMM is serial; nthreads is vestigial");
    dgemm(transa, transb, alpha, a, b, beta, c);
}

/// The BLAS prologue both entry points share: `C := beta·C`, and
/// whether a product term is left to add.
fn beta_pass(alpha: f64, beta: f64, c: &mut Matrix, k: usize) -> bool {
    // Fast exits in BLAS order: an empty C means nothing at all to do —
    // the `beta` pass must not run (and `scale` on an empty matrix would
    // be wasted work anyway).
    if c.nrows() == 0 || c.ncols() == 0 {
        return false;
    }
    // `C := beta·C` happens even when the product term vanishes
    // (`alpha == 0` or `k == 0`): that is the BLAS contract. `beta == 1`
    // skips the pass entirely — C must not be touched.
    if beta != 1.0 {
        if beta == 0.0 {
            c.fill_zero();
        } else {
            c.scale(beta);
        }
    }
    k != 0 && alpha != 0.0
}

// ---------------------------------------------------------------------
// Where the tile's operands come from.
// ---------------------------------------------------------------------

/// Where the macro kernel gets an `MC×KC` block of op(A): the one thing
/// [`dgemm`] and [`dgemm_prepacked`] differ in.
enum ASource<'a> {
    /// Read the untransposed matrix where it is, at stride `lda`.
    InPlace(&'a Matrix),
    /// Pack each block out of the matrix into arena scratch.
    Pack(Trans, &'a Matrix, arena::ScratchGuard),
    /// Read each block out of a persistent pack.
    Prepacked(&'a PackedA),
}

/// One block of op(A) as the tile walks it: from its first element, with
/// `lda` for a block read in place and `None` for packed panels.
struct ABlock<'a> {
    data: &'a [f64],
    lda: Option<usize>,
}

impl ASource<'_> {
    /// Rows `i0..i0+mc` × depths `l0..l0+kc` of op(A). The two packed
    /// variants hand out byte-identical panels.
    fn block(&mut self, i0: usize, mc: usize, l0: usize, kc: usize) -> ABlock<'_> {
        match self {
            ASource::InPlace(a) => ABlock {
                data: &a.as_slice()[l0 * a.nrows() + i0..],
                lda: Some(a.nrows()),
            },
            ASource::Pack(transa, a, scratch) => {
                let len = packed_rows(mc) * kc;
                pack_a(
                    *transa,
                    a,
                    i0,
                    mc,
                    l0,
                    kc,
                    &mut scratch.as_mut_slice()[..len],
                );
                ABlock {
                    data: &scratch.as_slice()[..len],
                    lda: None,
                }
            }
            ASource::Prepacked(pa) => ABlock {
                data: pa.block(i0, mc, l0, kc),
                lda: None,
            },
        }
    }
}

impl ABlock<'_> {
    /// Rows `ir..ir+mr` of the block (`ir` a multiple of `MR`): the slice
    /// from their first element, and the stride between depths.
    #[inline]
    fn rows(&self, ir: usize, mr: usize, kc: usize) -> (&[f64], usize) {
        match self.lda {
            Some(lda) => (&self.data[ir..], lda),
            // Every panel before this one is `MR` rows of `kc` depths.
            None => (&self.data[ir * kc..], panel_rows(mr)),
        }
    }
}

/// Where the macro kernel gets op(B), chosen from its shape alone.
enum BSource<'a> {
    /// Read the matrix where it is.
    InPlace(Trans, &'a Matrix),
    /// All of a transposed B, packed once for this call.
    Packed(arena::ScratchGuard),
}

impl<'a> BSource<'a> {
    fn of(transb: Trans, b: &'a Matrix, k: usize, n: usize) -> Self {
        if transb == Trans::Yes && k * n > B_IN_PLACE {
            BSource::packed(b, k, n)
        } else {
            BSource::InPlace(transb, b)
        }
    }

    fn packed(b: &Matrix, k: usize, n: usize) -> Self {
        let mut guard = arena::acquire(k * n);
        pack_bt(b, k, n, guard.as_mut_slice());
        BSource::Packed(guard)
    }

    /// Depths `l0..` × columns `jp+s0..` of the `k`-deep op(B), inside the
    /// `NR` panel that starts at column `jp` and is `wp` wide: the slice
    /// from element `(l0, jp+s0)`, the stride between depths and the
    /// stride between columns.
    #[inline]
    fn cols(&self, jp: usize, wp: usize, s0: usize, l0: usize, k: usize) -> (&[f64], usize, usize) {
        let j0 = jp + s0;
        match self {
            BSource::InPlace(Trans::No, b) => (&b.as_slice()[j0 * b.nrows() + l0..], 1, b.nrows()),
            BSource::InPlace(Trans::Yes, b) => (&b.as_slice()[l0 * b.nrows() + j0..], b.nrows(), 1),
            BSource::Packed(guard) => (&guard.as_slice()[jp * k + l0 * wp + s0..], wp, 1),
        }
    }
}

/// Width of the next column tile when `rem ≥ 1` columns of a panel are
/// left: the full `NR`, else the largest of 8/4/2/1 that fits.
#[inline]
fn tile_width(rem: usize) -> usize {
    if rem >= NR {
        NR
    } else {
        1 << rem.ilog2()
    }
}

/// Rows a packed-A panel stores for `mr ≤ MR` live rows: a remainder that
/// fits one vector is packed one vector wide.
#[inline]
fn panel_rows(mr: usize) -> usize {
    if mr <= LANES {
        LANES
    } else {
        MR
    }
}

/// Rows that `m` rows of op(A) occupy once packed (full `MR` panels, then
/// one of [`panel_rows`]).
#[inline]
fn packed_rows(m: usize) -> usize {
    m.div_ceil(LANES) * LANES
}

/// The one loop nest of both entry points and of every operand source:
/// NC column chunks × MC row blocks × KC stripes × column tiles × row
/// tiles. `l0` ascends inside a row block, so every C element sums its
/// stripes in the same order whatever feeds the tile.
fn macro_kernel(mut asrc: ASource<'_>, bsrc: BSource<'_>, alpha: f64, c: &mut Matrix, k: usize) {
    let (m, n) = (c.nrows(), c.ncols());
    let cs = c.as_mut_slice();
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for i0 in (0..m).step_by(MC) {
            let mc = MC.min(m - i0);
            for l0 in (0..k).step_by(KC) {
                let kc = KC.min(k - l0);
                let ablock = asrc.block(i0, mc, l0, kc);
                // `NC` is a multiple of `NR`: no panel straddles a chunk.
                for jp in (jc..jc + nc).step_by(NR) {
                    let wp = NR.min(n - jp);
                    let mut s0 = 0;
                    while s0 < wp {
                        let w = tile_width(wp - s0);
                        let (bt, b_ls, b_js) = bsrc.cols(jp, wp, s0, l0, k);
                        for ir in (0..mc).step_by(MR) {
                            let mr = MR.min(mc - ir);
                            let (at, a_ls) = ablock.rows(ir, mr, kc);
                            let ct = &mut cs[(jp + s0) * m + i0 + ir..];
                            run_tile(kc, alpha, at, a_ls, bt, b_ls, b_js, ct, m, mr, w);
                        }
                        s0 += w;
                    }
                }
            }
        }
    }
}

/// Pack an `mc×kc` block of op(A) starting at (i0, l0) into row panels:
/// panel `p` holds rows `[p·MR, p·MR+MR)` stored depth-major at the
/// stride of the tile that will read it (`apack[p·kc·MR + l·w + r]`,
/// `w` = [`panel_rows`]), zero-padded up to `w`. Panels are **tight**
/// (`kc` depths, not `KC`), which is what lets [`PackedA`] store all KC
/// stripes of op(A) back to back with a purely arithmetic offset.
fn pack_a(
    transa: Trans,
    a: &Matrix,
    i0: usize,
    mc: usize,
    l0: usize,
    kc: usize,
    apack: &mut [f64],
) {
    for ir in (0..mc).step_by(MR) {
        let mr = MR.min(mc - ir);
        let w = panel_rows(mr);
        let panel = &mut apack[ir * kc..][..w * kc];
        match transa {
            // Rows of op(A) are contiguous in a column of A.
            Trans::No => {
                for (l, dst) in panel.chunks_exact_mut(w).enumerate() {
                    let (live, pad) = dst.split_at_mut(mr);
                    live.copy_from_slice(&a.col(l0 + l)[i0 + ir..][..mr]);
                    pad.fill(0.0);
                }
            }
            // Depths of op(A) are contiguous in a column of A.
            Trans::Yes => {
                if mr < w {
                    panel.fill(0.0);
                }
                for r in 0..mr {
                    let src = &a.col(i0 + ir + r)[l0..][..kc];
                    for (dst, &x) in panel[r..].iter_mut().step_by(w).zip(src) {
                        *dst = x;
                    }
                }
            }
        }
    }
}

/// Pack all of `Bᵀ` (`k×n`, `b` being `n×k`) into column panels: panel
/// `q` holds columns `[q·NR, q·NR+w)` stored depth-major at its own width
/// `w = min(NR, n − q·NR)` (`bpack[q·NR·k + l·w + s]`) — a narrow last
/// panel is not padded, the tiles of width 8/4/2/1 that cover it read it
/// at stride `w`. The columns of one depth are contiguous in a column of
/// `b`, so every move is a slice copy.
fn pack_bt(b: &Matrix, k: usize, n: usize, bpack: &mut [f64]) {
    for jp in (0..n).step_by(NR) {
        let w = NR.min(n - jp);
        let panel = &mut bpack[jp * k..][..w * k];
        for (l, dst) in panel.chunks_exact_mut(w).enumerate() {
            dst.copy_from_slice(&b.col(l)[jp..][..w]);
        }
    }
}

// ---------------------------------------------------------------------
// Packed A operands.
// ---------------------------------------------------------------------

/// op(A) packed once into the tile's layout, for reuse across many
/// [`dgemm_prepacked`] calls.
///
/// Layout: KC stripes back to back. Stripe `l0` (a multiple of `KC`,
/// depth `kc = min(KC, k−l0)`) occupies `padded_m·kc` doubles starting
/// at offset `padded_m·l0`, where `padded_m` = `packed_rows(m)` —
/// valid because every stripe before the last has depth exactly `KC`.
/// Within a stripe, row panel `p` sits at `p·kc·MR`, exactly as
/// `pack_a` lays it out. The buffer comes from the [`crate::arena`]
/// pool and returns there on drop.
///
/// The handle borrows nothing: it is an owned snapshot of op(A) at pack
/// time.
pub struct PackedA {
    m: usize,
    k: usize,
    guard: arena::ScratchGuard,
}

impl PackedA {
    /// Pack all of op(A). One pass over the source; the returned handle
    /// feeds [`dgemm_prepacked`] any number of times.
    pub fn pack(transa: Trans, a: &Matrix) -> PackedA {
        let (m, k) = match transa {
            Trans::No => (a.nrows(), a.ncols()),
            Trans::Yes => (a.ncols(), a.nrows()),
        };
        let padded_m = packed_rows(m);
        let mut guard = arena::acquire(padded_m * k);
        let buf = guard.as_mut_slice();
        for l0 in (0..k).step_by(KC) {
            let kc = KC.min(k - l0);
            let stripe = &mut buf[padded_m * l0..padded_m * (l0 + kc)];
            pack_a(transa, a, 0, m, l0, kc, stripe);
        }
        PackedA { m, k, guard }
    }

    /// The packed panels covering rows `i0..i0+mc` of the KC stripe at
    /// depth `l0` (both MR/KC-aligned by construction of the macro
    /// kernel's loops).
    #[inline]
    fn block(&self, i0: usize, mc: usize, l0: usize, kc: usize) -> &[f64] {
        let base = packed_rows(self.m) * l0 + i0 * kc;
        &self.guard.as_slice()[base..base + packed_rows(mc) * kc]
    }
}

/// `C := alpha · packed(A) · op(B) + beta · C` with a pre-packed A.
///
/// The same loop nest and tile as [`dgemm`], reading its A blocks out of
/// the handle — the result is **bitwise equal** — so the per-call A
/// packing traffic is gone.
///
/// `nthreads` is vestigial: GEMM is serial and the argument must be `1`.
/// It stays because `perf/` compiles against this signature, and goes
/// when `perf/` next moves (ROADMAP item 2).
pub fn dgemm_prepacked(
    nthreads: usize,
    alpha: f64,
    pa: &PackedA,
    transb: Trans,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    debug_assert_eq!(nthreads, 1, "GEMM is serial; nthreads is vestigial");
    let (m, k) = (pa.m, pa.k);
    let (kb, n) = match transb {
        Trans::No => (b.nrows(), b.ncols()),
        Trans::Yes => (b.ncols(), b.nrows()),
    };
    assert_eq!(
        k, kb,
        "dgemm_prepacked inner dimensions differ: {k} vs {kb}"
    );
    assert_eq!(c.nrows(), m, "dgemm_prepacked C row count mismatch");
    assert_eq!(c.ncols(), n, "dgemm_prepacked C column count mismatch");
    if !beta_pass(alpha, beta, c, k) {
        return;
    }
    let timer = crate::probe::active().then(std::time::Instant::now); // lint: allow(wallclock) — real host kernel time by design
    let bsrc = BSource::of(transb, b, k, n);
    macro_kernel(ASource::Prepacked(pa), bsrc, alpha, c, k);
    if let Some(t0) = timer {
        crate::probe::emit(m, n, k, t0.elapsed().as_secs_f64());
    }
}

// ---------------------------------------------------------------------
// The register tile.
// ---------------------------------------------------------------------

/// Fused multiply-add when the build target has hardware FMA, plain
/// multiply+add otherwise. `mul_add` without hardware support lowers to
/// a libm call — catastrophically slow in a kernel — so the fusion is
/// compile-time gated, never probed at runtime.
#[cfg(not(target_feature = "avx512f"))]
#[inline(always)]
fn fmadd(a: f64, b: f64, c: f64) -> f64 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, c)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        c + a * b
    }
}

/// The vector type the tile is written over: `LANES` doubles, a mask of
/// live leading lanes, and the four operations the tile needs. Chosen by
/// `cfg(target_feature)` exactly like [`fmadd`] — no runtime detection.
#[cfg(target_feature = "avx512f")]
mod lanes {
    use core::arch::x86_64::{
        __m512d, __mmask8, _mm512_add_pd, _mm512_fmadd_pd, _mm512_mask_storeu_pd,
        _mm512_maskz_loadu_pd, _mm512_mul_pd, _mm512_set1_pd, _mm512_setzero_pd,
    };

    /// Doubles per vector.
    pub(super) const LANES: usize = 8;
    /// Masked loads and stores are single instructions.
    pub(super) const HARDWARE_MASKS: bool = true;

    /// One 512-bit register of doubles.
    #[derive(Clone, Copy)]
    pub(super) struct V(__m512d);

    /// The leading lanes of a vector that hold rows of C.
    #[derive(Clone, Copy)]
    pub(super) struct Live(__mmask8);

    impl Live {
        /// Every lane.
        pub(super) const ALL: Live = Live(!0);

        /// The first `min(n, LANES)` lanes.
        #[inline(always)]
        pub(super) fn first(n: usize) -> Live {
            if n >= LANES {
                Live::ALL
            } else {
                Live((1 << n) - 1)
            }
        }
    }

    impl V {
        #[inline(always)]
        pub(super) fn zero() -> V {
            // SAFETY: this module is compiled only with `avx512f` enabled
            // for the whole build, so the instruction exists.
            V(unsafe { _mm512_setzero_pd() })
        }

        #[inline(always)]
        pub(super) fn splat(x: f64) -> V {
            // SAFETY: `avx512f` is enabled for the whole build (module cfg).
            V(unsafe { _mm512_set1_pd(x) })
        }

        /// `self · b + acc`, one rounding.
        #[inline(always)]
        pub(super) fn fma(self, b: V, acc: V) -> V {
            // SAFETY: `avx512f` is enabled for the whole build (module cfg).
            V(unsafe { _mm512_fmadd_pd(self.0, b.0, acc.0) })
        }

        /// The `live` leading doubles at `p`, zero in the other lanes.
        ///
        /// # Safety
        /// `p` must be valid for reads of as many doubles as `live` has
        /// lanes; nothing beyond them is touched.
        #[inline(always)]
        pub(super) unsafe fn load(p: *const f64, live: Live) -> V {
            // SAFETY: a masked load does not access (and cannot fault on)
            // the masked-off lanes; the live ones are the caller's.
            V(unsafe { _mm512_maskz_loadu_pd(live.0, p) })
        }

        /// `p[r] += alpha[r] · self[r]` on the live lanes (multiply, then
        /// add: two roundings).
        ///
        /// # Safety
        /// `p` must be valid for reads and writes of as many doubles as
        /// `live` has lanes; nothing beyond them is touched.
        #[inline(always)]
        pub(super) unsafe fn add_scaled_to(self, alpha: V, p: *mut f64, live: Live) {
            // SAFETY: masked load and store touch the live lanes only,
            // which the caller vouches for.
            unsafe {
                let c = _mm512_maskz_loadu_pd(live.0, p);
                let sum = _mm512_add_pd(c, _mm512_mul_pd(alpha.0, self.0));
                _mm512_mask_storeu_pd(p, live.0, sum);
            }
        }
    }
}

/// The vector type the tile is written over: `LANES` doubles, a count of
/// live leading lanes, and the four operations the tile needs — plain
/// arrays the compiler maps onto whatever vector registers the target
/// has. The only lane type on a build without AVX-512.
#[cfg(not(target_feature = "avx512f"))]
mod lanes {
    use super::fmadd;

    /// Doubles per vector.
    pub(super) const LANES: usize = 4;
    /// Masks are a per-lane test in software.
    pub(super) const HARDWARE_MASKS: bool = false;

    /// One vector of doubles.
    #[derive(Clone, Copy)]
    pub(super) struct V([f64; LANES]);

    /// The leading lanes of a vector that hold rows of C.
    #[derive(Clone, Copy)]
    pub(super) struct Live(usize);

    impl Live {
        /// Every lane.
        pub(super) const ALL: Live = Live(LANES);

        /// The first `min(n, LANES)` lanes.
        #[inline(always)]
        pub(super) fn first(n: usize) -> Live {
            Live(n.min(LANES))
        }
    }

    impl V {
        #[inline(always)]
        pub(super) fn zero() -> V {
            V([0.0; LANES])
        }

        #[inline(always)]
        pub(super) fn splat(x: f64) -> V {
            V([x; LANES])
        }

        /// `self · b + acc`, one rounding where the build has FMA.
        #[inline(always)]
        pub(super) fn fma(self, b: V, acc: V) -> V {
            V(std::array::from_fn(|r| fmadd(self.0[r], b.0[r], acc.0[r])))
        }

        /// The `live` leading doubles at `p`, zero in the other lanes.
        ///
        /// # Safety
        /// `p` must be valid for reads of `live` doubles; nothing beyond
        /// them is touched.
        #[inline(always)]
        pub(super) unsafe fn load(p: *const f64, live: Live) -> V {
            if live.0 == LANES {
                // SAFETY: all `LANES` doubles are live, hence readable.
                return V(unsafe { p.cast::<[f64; LANES]>().read_unaligned() });
            }
            // A dead lane reads a zero instead: a select between two
            // addresses, not a branch per lane.
            static ZERO: f64 = 0.0;
            V(std::array::from_fn(|r| {
                let src = if r < live.0 { p.wrapping_add(r) } else { &ZERO };
                // SAFETY: `r < live` is inside the caller's readable
                // range, and `ZERO` is always readable.
                unsafe { *src }
            }))
        }

        /// `p[r] += alpha[r] · self[r]` on the live lanes (multiply, then
        /// add: two roundings).
        ///
        /// # Safety
        /// `p` must be valid for reads and writes of `live` doubles;
        /// nothing beyond them is touched.
        #[inline(always)]
        pub(super) unsafe fn add_scaled_to(self, alpha: V, p: *mut f64, live: Live) {
            for r in 0..live.0 {
                // SAFETY: `r < live`, inside the caller's writable range.
                unsafe { *p.add(r) += alpha.0[r] * self.0[r] };
            }
        }
    }
}

/// What one call of [`tile`] reads and writes.
#[derive(Clone, Copy)]
struct TileOperands {
    /// Depths to sum over (one KC stripe, or less).
    kc: usize,
    alpha: f64,
    /// Row 0, depth 0 of the op(A) rows; depth `l` is `a_ls` doubles on.
    a: *const f64,
    a_ls: usize,
    /// Depth 0, column 0 of the op(B) columns; depth `l` is `b_ls` and
    /// column `s` is `b_js` doubles on.
    b: *const f64,
    b_ls: usize,
    b_js: usize,
    /// Row 0, column 0 of the C tile; column `s` is `ldc` doubles on.
    c: *mut f64,
    ldc: usize,
    /// Live rows, `1..=MV·LANES`.
    mr: usize,
}

/// The register tile: `C[0..mr, 0..W] += alpha · A[0..mr, 0..kc] ·
/// B[0..kc, 0..W]` with `MV_` vectors of rows by `W` columns of
/// accumulators held in registers, each `acc ← fma(a, b, acc)` over
/// ascending `l`, then `c += alpha·acc`. Rows beyond `mr` are masked out
/// of every load and store.
///
/// # Safety
/// `live[v]` must be the rows of vector `v` below `o.mr ≤ MV_·LANES`,
/// and for every `l < o.kc`, `r < o.mr`, `s < W`:
/// `o.a + l·a_ls + r` and `o.b + l·b_ls + s·b_js` must be valid for
/// reads and `o.c + s·ldc + r` valid for reads and writes, and the C
/// elements must not overlap the A or B ones.
#[inline(always)]
unsafe fn tile<const MV_: usize, const W: usize>(o: TileOperands, live: [Live; MV_]) {
    let mut acc = [[V::zero(); MV_]; W];
    for l in 0..o.kc {
        // SAFETY: `l < kc`; vector `v` reads rows `v·LANES..` masked to
        // those below `mr`, which the caller made readable.
        let av: [V; MV_] =
            std::array::from_fn(|v| unsafe { V::load(o.a.add(l * o.a_ls + v * LANES), live[v]) });
        for (s, accs) in acc.iter_mut().enumerate() {
            // SAFETY: `l < kc` and `s < W`: an element the caller made
            // readable.
            let bv = V::splat(unsafe { *o.b.add(l * o.b_ls + s * o.b_js) });
            for (a, x) in av.iter().zip(accs) {
                *x = a.fma(bv, *x);
            }
        }
    }
    let alpha = V::splat(o.alpha);
    for (s, accs) in acc.iter().enumerate() {
        for (v, x) in accs.iter().enumerate() {
            // SAFETY: column `s < W`, rows `v·LANES..` masked to those
            // below `mr`: C elements the caller made writable.
            unsafe { x.add_scaled_to(alpha, o.c.add(s * o.ldc + v * LANES), live[v]) };
        }
    }
}

/// [`tile`] at width `W` with as many vectors as `o.mr` rows need, each
/// masked to its live rows. Where masks are not the hardware's, a full
/// tile gets a constant all-live mask, which lets the compiler keep the
/// per-lane tests out of its loop.
///
/// # Safety
/// As for [`tile`], with `o.mr ≤ MR`.
unsafe fn tile_of_width<const W: usize>(o: TileOperands) {
    let rows = |v: usize| Live::first(o.mr.saturating_sub(v * LANES));
    // SAFETY: the caller's contract is `tile`'s; `mr ≤ LANES` rows fit one
    // vector and `mr ≤ MR` fit `MV`, and each mask covers exactly the
    // rows below `mr`.
    unsafe {
        if !lanes::HARDWARE_MASKS && o.mr == MR {
            tile::<MV, W>(o, [Live::ALL; MV])
        } else if o.mr > LANES {
            tile::<MV, W>(o, [Live::ALL, rows(1)])
        } else if !lanes::HARDWARE_MASKS && o.mr == LANES {
            tile::<1, W>(o, [Live::ALL; 1])
        } else {
            tile::<1, W>(o, std::array::from_fn(rows))
        }
    }
}

/// Run one tile of `mr ≤ MR` rows by `w` columns (a [`tile_width`]) over
/// `kc ≥ 1` depths. The slices start at the tile's first element of each
/// operand; slicing them to the extent the tile touches is the bounds
/// check the unsafe tile relies on.
#[inline]
#[allow(clippy::too_many_arguments)]
fn run_tile(
    kc: usize,
    alpha: f64,
    at: &[f64],
    a_ls: usize,
    bt: &[f64],
    b_ls: usize,
    b_js: usize,
    ct: &mut [f64],
    ldc: usize,
    mr: usize,
    w: usize,
) {
    assert!((1..=MR).contains(&mr) && kc >= 1);
    let at = &at[..(kc - 1) * a_ls + mr];
    let bt = &bt[..(kc - 1) * b_ls + (w - 1) * b_js + 1];
    let ct = &mut ct[..(w - 1) * ldc + mr];
    let o = TileOperands {
        kc,
        alpha,
        a: at.as_ptr(),
        a_ls,
        b: bt.as_ptr(),
        b_ls,
        b_js,
        c: ct.as_mut_ptr(),
        ldc,
        mr,
    };
    // SAFETY: `mr ≤ MR`; the three slices above end at the last element
    // the tile reaches — `(kc−1)·a_ls + mr−1`, `(kc−1)·b_ls + (w−1)·b_js`
    // and `(w−1)·ldc + mr−1` — so every access is in bounds, and `ct` is a
    // unique borrow, so C overlaps neither A nor B. The arm taken has
    // `W == w`.
    unsafe {
        match w {
            1 => tile_of_width::<1>(o),
            2 => tile_of_width::<2>(o),
            4 => tile_of_width::<4>(o),
            8 if NR > 8 => tile_of_width::<8>(o),
            _ => {
                assert_eq!(w, NR);
                tile_of_width::<NR>(o)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand_mat;

    /// [`dgemm`] with A packed, and B too if it is transposed, whatever
    /// their size: the paths only shapes beyond the in-place bounds take
    /// by themselves.
    fn dgemm_all_packed(
        transa: Trans,
        transb: Trans,
        alpha: f64,
        a: &Matrix,
        b: &Matrix,
        beta: f64,
        c: &mut Matrix,
    ) {
        let (m, k, n) = check_dims(transa, transb, a, b, c);
        if !beta_pass(alpha, beta, c, k) {
            return;
        }
        let block = packed_rows(m.min(MC)) * k.min(KC);
        let asrc = ASource::Pack(transa, a, arena::acquire(block));
        let bsrc = match transb {
            Trans::No => BSource::InPlace(transb, b),
            Trans::Yes => BSource::packed(b, k, n),
        };
        macro_kernel(asrc, bsrc, alpha, c, k);
    }

    fn check_case(
        transa: Trans,
        transb: Trans,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
    ) {
        let a = match transa {
            Trans::No => rand_mat(m, k, 1 + m as u64),
            Trans::Yes => rand_mat(k, m, 2 + n as u64),
        };
        let b = match transb {
            Trans::No => rand_mat(k, n, 3 + k as u64),
            Trans::Yes => rand_mat(n, k, 4 + m as u64 + n as u64),
        };
        let c0 = rand_mat(m, n, 99);
        let mut c_fast = c0.clone();
        let mut c_ref = c0.clone();
        dgemm(transa, transb, alpha, &a, &b, beta, &mut c_fast);
        dgemm_naive(transa, transb, alpha, &a, &b, beta, &mut c_ref);
        let diff = c_fast.max_abs_diff(&c_ref);
        assert!(
            diff < 1e-12 * (k.max(1) as f64),
            "diff {diff} for m={m} n={n} k={k} {transa:?} {transb:?}"
        );
        // One arithmetic: packing either operand changes no bit.
        let mut c_packed = c0.clone();
        dgemm_all_packed(transa, transb, alpha, &a, &b, beta, &mut c_packed);
        assert_eq!(
            c_packed, c_fast,
            "packed ≠ in place for m={m} n={n} k={k} {transa:?} {transb:?}"
        );
    }

    #[test]
    fn matches_naive_small_exhaustive() {
        for &m in &[1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17] {
            for &n in &[1usize, 2, 3, 4, 5, 9, 11, 12, 13] {
                for &k in &[0usize, 1, 3, 8] {
                    check_case(Trans::No, Trans::No, m, n, k, 1.0, 0.0);
                }
            }
        }
    }

    #[test]
    fn matches_naive_transposes() {
        for &(ta, tb) in &[
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            check_case(ta, tb, 13, 11, 17, 1.0, 0.0);
            check_case(ta, tb, 5, 6, 7, -0.5, 2.0);
        }
    }

    #[test]
    fn matches_naive_blocked_sizes() {
        // Cross the MC/KC/NC block boundaries, the row-mask edge cases
        // and the in-place bounds.
        check_case(Trans::No, Trans::No, 130, 37, 260, 1.0, 0.0);
        check_case(Trans::No, Trans::No, 128, 16, 256, 2.0, 1.0);
        check_case(Trans::Yes, Trans::No, 129, 5, 257, 1.0, -1.0);
        check_case(Trans::No, Trans::Yes, 136, 12, 256, 1.0, 0.5);
        check_case(Trans::No, Trans::No, 9, 520, 130, 1.0, 0.0);
        check_case(Trans::No, Trans::Yes, 140, 509, 70, -1.0, 1.0);
        check_case(Trans::No, Trans::Yes, 260, 300, 259, 1.0, 0.0);
    }

    #[test]
    fn alpha_beta_semantics() {
        let a = Matrix::eye(3);
        let b = rand_mat(3, 3, 7);
        let mut c = rand_mat(3, 3, 8);
        let c0 = c.clone();
        // alpha = 0, beta = 1: C unchanged even with garbage dims in k loop
        dgemm(Trans::No, Trans::No, 0.0, &a, &b, 1.0, &mut c);
        assert_eq!(c, c0);
        // alpha = 1, beta = 0: C = A*B = B
        dgemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        assert!(c.max_abs_diff(&b) < 1e-15);
    }

    #[test]
    fn empty_dims() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 0);
        let mut c = Matrix::zeros(0, 0);
        dgemm(Trans::No, Trans::No, 1.0, &a, &b, 0.0, &mut c);
        // k = 0 path: C scaled by beta only.
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 2);
        let mut c = Matrix::eye(2);
        dgemm(Trans::No, Trans::No, 1.0, &a, &b, 3.0, &mut c);
        assert_eq!(c[(0, 0)], 3.0);
        assert_eq!(c[(0, 1)], 0.0);
    }

    #[test]
    fn beta_scaling_with_zero_k_on_transposed_operands() {
        // Regression (PR 4 satellite): `k == 0` with `beta != 1` must
        // still scale C — and must do so for every transpose combination,
        // where the operand shapes are "0 on the other side".
        for &(ta, tb) in &[
            (Trans::No, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::No),
            (Trans::Yes, Trans::Yes),
        ] {
            let a = match ta {
                Trans::No => Matrix::zeros(3, 0),
                Trans::Yes => Matrix::zeros(0, 3),
            };
            let b = match tb {
                Trans::No => Matrix::zeros(0, 2),
                Trans::Yes => Matrix::zeros(2, 0),
            };
            let mut c = Matrix::from_fn(3, 2, |i, j| 1.0 + (i + 3 * j) as f64);
            let expect = Matrix::from_fn(3, 2, |i, j| -2.0 * (1.0 + (i + 3 * j) as f64));
            dgemm(ta, tb, 5.0, &a, &b, -2.0, &mut c);
            assert_eq!(c, expect, "beta pass wrong for {ta:?} {tb:?}");
        }
        // beta == 1, k == 0: C untouched bit for bit.
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 2);
        let mut c = Matrix::from_fn(2, 2, |i, j| -0.0 + (i * 2 + j) as f64);
        let c0 = c.clone();
        dgemm(Trans::No, Trans::No, 2.0, &a, &b, 1.0, &mut c);
        assert_eq!(c, c0);
    }

    #[test]
    fn prepacked_matches_dgemm_bitwise() {
        // One arithmetic: where the A block comes from changes no bit,
        // whether `dgemm` itself reads A in place (the first shape) or
        // packs it.
        for &(ta, m, n, k) in &[
            (Trans::No, 80usize, 45usize, 80usize), // the σ repack shape class
            (Trans::Yes, 130, 37, 260),             // crosses MC and KC
            (Trans::No, 8, 4, 600),                 // multi-stripe, single tile
            (Trans::No, 129, 5, 257),               // edge tiles everywhere
        ] {
            let a = match ta {
                Trans::No => rand_mat(m, k, 21 + m as u64),
                Trans::Yes => rand_mat(k, m, 22 + n as u64),
            };
            let b = rand_mat(k, n, 23);
            let c0 = rand_mat(m, n, 24);
            let mut c_ref = c0.clone();
            dgemm(ta, Trans::No, 1.25, &a, &b, -0.5, &mut c_ref);
            let pa = PackedA::pack(ta, &a);
            assert_eq!((pa.m, pa.k), (m, k));
            let mut c = c0.clone();
            dgemm_prepacked(1, 1.25, &pa, Trans::No, &b, -0.5, &mut c);
            assert_eq!(c, c_ref, "{ta:?} m={m} n={n} k={k}");
        }
        // Transposed B and alpha/beta corners through the same handle.
        let a = rand_mat(70, 90, 41);
        let bt = rand_mat(30, 90, 42);
        let c0 = rand_mat(70, 30, 43);
        let pa = PackedA::pack(Trans::No, &a);
        let mut c_ref = c0.clone();
        dgemm(Trans::No, Trans::Yes, 2.0, &a, &bt, 1.0, &mut c_ref);
        let mut c = c0.clone();
        dgemm_prepacked(1, 2.0, &pa, Trans::Yes, &bt, 1.0, &mut c);
        assert_eq!(c, c_ref);
        // alpha == 0: beta pass only, bitwise.
        let mut c = c0.clone();
        dgemm_prepacked(1, 0.0, &pa, Trans::Yes, &bt, -3.0, &mut c);
        let expect = Matrix::from_fn(70, 30, |i, j| -3.0 * c0[(i, j)]);
        assert_eq!(c, expect);
    }

    #[test]
    fn column_tiles_cover_every_panel_width() {
        for wp in 1..=NR {
            let mut left = wp;
            while left > 0 {
                let w = tile_width(left);
                assert!(w <= left && (w == NR || [8, 4, 2, 1].contains(&w)));
                left -= w;
            }
        }
    }
}
