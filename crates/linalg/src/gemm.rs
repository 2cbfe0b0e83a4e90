//! Blocked, cache-aware, multithreaded general matrix multiply.
//!
//! `dgemm` computes `C := alpha * op(A) * op(B) + beta * C`, the single
//! kernel the paper's σ algorithm funnels >95 % of its flops through.
//! The implementation follows the full Goto/BLIS five-loop structure:
//!
//! * the `n` dimension is tiled by `NC` (macro column chunks), the `k`
//!   dimension by `KC`, the `m` dimension by `MC`, so the packed A block
//!   (`MC×KC`) stays cache-resident while a `KC×NC` slice of packed B
//!   streams through,
//! * A and op(B) are packed into microtile-contiguous buffers drawn from
//!   the [`crate::arena`] scratch pool (no per-call allocation after
//!   warm-up), which also makes the transposed cases stride-free,
//! * an `MR×NR = 8×4` register microkernel does the flops with no bounds
//!   checks in the inner loop, shaped so the autovectorizer turns each
//!   row update into one 4-wide FMA,
//! * the macro kernel is parallelized over C tiles with std scoped
//!   threads: op(B) is packed once and shared read-only, each worker
//!   packs its own A blocks, and every C tile is owned by exactly one
//!   work item.
//!
//! **Determinism:** the result is bitwise identical at any thread count.
//! A C tile accumulates its `KC` blocks in ascending `l0` order inside a
//! single work item, and the per-tile arithmetic never depends on how
//! items are partitioned or scheduled — threading only changes *which*
//! thread runs an item, never the order of floating-point operations
//! within it. The `fci-linalg` property suite and the `fci-check`
//! determinism harness both assert this.
//!
//! Small multiplies (the mixed-spin `V_K·D` products are often tiny)
//! skip packing and threading entirely via an unpacked fast path; the
//! crossover is a measured constant (`SMALL_FLOPS`).
//!
//! **Persistent packed operands:** when the same A operand multiplies
//! many different B's (the σ build reuses its coupling matrices every
//! Davidson iteration), [`PackedA::pack`] packs op(A) once into an
//! arena-backed handle and [`dgemm_prepacked`] consumes it directly,
//! skipping the per-call `pack_a` entirely. The persistent layout is
//! byte-identical to what the on-the-fly path feeds the microkernel
//! (tight `kc·MR` panels), so results are bitwise equal to [`dgemm`].
//! [`gemm_prefers_packed`] tells callers whether a shape would take the
//! packed path at all — below the crossover the handle would be dead
//! weight.
//!
//! Correctness is established by exhaustive small-size tests and property
//! tests against [`dgemm_naive`].

use crate::arena;
use crate::matrix::Matrix;
use std::sync::OnceLock;

/// Transpose flag for [`dgemm`] operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Microkernel rows (one panel of packed A).
const MR: usize = 8;
/// Microkernel columns (one panel of packed B).
const NR: usize = 4;
/// Rows per packed A block (multiple of `MR`; `MC·KC` doubles ≈ 256 KB,
/// sized to sit in L2 while a B slice streams through L1).
const MC: usize = 128;
/// Depth per packed block.
const KC: usize = 256;
/// Columns per macro chunk of packed B (multiple of `NR`).
const NC: usize = 512;

/// Below this many flops (`2·m·n·k`) the unpacked small path wins; the
/// crossover was measured between 48³ (small still ahead) and 56³
/// (packed ahead) on the dev host, so the threshold sits at the
/// midpoint 52³ (see DESIGN.md §11).
const SMALL_FLOPS: usize = 2 * 52 * 52 * 52;

/// Do not spawn worker threads unless the multiply has at least this
/// many flops (thread startup ≈ tens of µs; 2·96³ ≈ 1.8 Mflop runs in
/// that same range single-threaded, so smaller problems stay serial).
const PAR_MIN_FLOPS: usize = 2 * 96 * 96 * 96;

/// Kernel-path override: this module's tests force each path in
/// isolation; everything else runs [`GemmPath::Auto`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[cfg_attr(not(test), allow(dead_code))]
enum GemmPath {
    /// Pick small vs packed by the measured flop crossover.
    Auto,
    /// Force the unpacked small-matrix path.
    Small,
    /// Force the packed blocked path.
    Packed,
}

/// Default GEMM worker-thread count: `FCIX_GEMM_THREADS` if set (≥1),
/// otherwise the host's available parallelism. Resolved once.
pub fn gemm_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("FCIX_GEMM_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Reference implementation: straightforward triple loop.
///
/// `C := alpha * op(A) * op(B) + beta * C`. Used as the test oracle and as
/// the "unoptimized kernel" end of the performance ablation.
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

/// Blocked matrix multiply `C := alpha * op(A) * op(B) + beta * C`,
/// using the default worker-thread count ([`gemm_threads`]).
pub fn dgemm(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    dgemm_with_threads(gemm_threads(), transa, transb, alpha, a, b, beta, c);
}

/// [`dgemm`] with an explicit worker-thread count.
///
/// The result is bitwise identical for every `nthreads ≥ 1` (see the
/// module docs for the argument); `nthreads` only bounds how many std
/// scoped threads the macro kernel may use.
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
    dgemm_path(
        GemmPath::Auto,
        nthreads,
        transa,
        transb,
        alpha,
        a,
        b,
        beta,
        c,
    );
}

/// [`dgemm`] with an explicit kernel path and thread count.
#[allow(clippy::too_many_arguments)]
fn dgemm_path(
    path: GemmPath,
    nthreads: usize,
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
    let (m, k, n) = check_dims(transa, transb, a, b, c);
    // Fast exits in BLAS order: an empty C means nothing at all to do —
    // the `beta` pass must not run (and `scale` on an empty matrix would
    // be wasted work anyway).
    if m == 0 || n == 0 {
        return;
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
    if k == 0 || alpha == 0.0 {
        return;
    }
    let small = match path {
        GemmPath::Auto => 2 * m * n * k <= SMALL_FLOPS,
        GemmPath::Small => true,
        GemmPath::Packed => false,
    };
    // Host-time probe for per-shape throughput metrics; one relaxed
    // atomic load when nobody is observing. This is real (host) kernel
    // time by design — linalg sits below the simulated-clock layer.
    let timer = crate::probe::active().then(std::time::Instant::now); // lint: allow(wallclock) — real host kernel time by design
    if small {
        small_dgemm(transa, transb, alpha, a, b, c, m, k, n);
    } else {
        packed_dgemm(nthreads, transa, transb, alpha, a, b, c, m, k, n);
    }
    if let Some(t0) = timer {
        crate::probe::emit(m, n, k, t0.elapsed().as_secs_f64());
    }
}

// ---------------------------------------------------------------------
// Small-matrix fast path: no packing, no threads, no scratch.
// ---------------------------------------------------------------------

/// Unpacked kernel for small products. For untransposed A the inner loop
/// is an axpy over a contiguous A column (vectorizes cleanly); for
/// transposed A it is a dot product over a contiguous A column. Runs on
/// the calling thread, allocates nothing.
#[allow(clippy::too_many_arguments)]
fn small_dgemm(
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    m: usize,
    k: usize,
    n: usize,
) {
    let cm = c.nrows();
    let cs = c.as_mut_slice();
    let ad = a.as_slice();
    let am = a.nrows();
    let bd = b.as_slice();
    let bm = b.nrows();
    match transa {
        Trans::No => {
            // C[:,j] += Σ_l (alpha·op(B)[l,j]) · A[:,l]
            for j in 0..n {
                let cj = &mut cs[j * cm..j * cm + m];
                for l in 0..k {
                    let bv = match transb {
                        Trans::No => bd[l + j * bm],
                        Trans::Yes => bd[j + l * bm],
                    };
                    let w = alpha * bv;
                    if w == 0.0 {
                        continue;
                    }
                    let al = &ad[l * am..l * am + m];
                    for (ci, &ai) in cj.iter_mut().zip(al) {
                        *ci = fmadd(w, ai, *ci);
                    }
                }
            }
        }
        Trans::Yes => {
            // C[i,j] += alpha · ⟨A[:,i], op(B)[:,j]⟩ (A column contiguous).
            for j in 0..n {
                for i in 0..m {
                    let acol = &ad[i * am..i * am + k];
                    let mut acc = 0.0;
                    match transb {
                        Trans::No => {
                            let bcol = &bd[j * bm..j * bm + k];
                            for (&x, &y) in acol.iter().zip(bcol) {
                                acc = fmadd(x, y, acc);
                            }
                        }
                        Trans::Yes => {
                            for (l, &x) in acol.iter().enumerate() {
                                acc = fmadd(x, bd[j + l * bm], acc);
                            }
                        }
                    }
                    cs[j * cm + i] += alpha * acc;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Packed blocked path (Goto/BLIS five-loop structure, threaded).
// ---------------------------------------------------------------------

/// Raw-pointer view of the C buffer shared by worker threads.
///
/// Every work item owns a disjoint set of C tiles (a row block × a
/// column chunk), so no element is ever written by two threads; debug
/// builds bounds-check every store.
#[derive(Clone, Copy)]
struct COut {
    ptr: *mut f64,
    len: usize,
}

// SAFETY: work items never write overlapping C elements (each tile is
// owned by exactly one item, and items are partitioned over threads).
unsafe impl Send for COut {}
// SAFETY: as above — concurrent access is to disjoint elements only.
unsafe impl Sync for COut {}

impl COut {
    /// Accumulate `v` into element `idx`.
    ///
    /// # Safety
    /// `idx < self.len`, and no other thread writes `idx` concurrently.
    #[inline(always)]
    // SAFETY: contract documented above; the body's only unsafe op is
    // the raw-pointer accumulate that contract covers.
    unsafe fn add(self, idx: usize, v: f64) {
        debug_assert!(idx < self.len);
        // SAFETY: caller contract (disjoint-tile ownership).
        unsafe { *self.ptr.add(idx) += v };
    }
}

/// One unit of macro-kernel work: C rows `i0..i0+mc` × B panels
/// `q_lo..q_hi` (each panel is `NR` columns).
#[derive(Clone, Copy)]
struct WorkItem {
    i0: usize,
    mc: usize,
    q_lo: usize,
    q_hi: usize,
}

/// Work-item partition for the threaded macro kernel: MC row blocks ×
/// column chunks of B panels. Shared by the on-the-fly and prepacked
/// paths so both produce identical tile ownership — and therefore an
/// identical per-tile summation order (the bitwise-equality contract
/// between [`dgemm`] and [`dgemm_prepacked`]).
struct Plan {
    mblocks: usize,
    npanels: usize,
    nchunks: usize,
    nitems: usize,
    nt: usize,
}

fn plan(m: usize, n: usize, k: usize, nthreads: usize) -> Plan {
    // The base chunking follows NC; when that yields fewer items than
    // threads, chunks are split further (per-tile arithmetic — and hence
    // the result — is independent of the partition; see module docs).
    let npanels = n.div_ceil(NR);
    let mblocks = m.div_ceil(MC);
    let nthreads = nthreads.max(1);
    let par = nthreads > 1 && 2 * m * n * k >= PAR_MIN_FLOPS;
    let target_items = if par { nthreads } else { 1 };
    let mut nchunks = n.div_ceil(NC);
    if mblocks * nchunks < target_items {
        nchunks = npanels.min(target_items.div_ceil(mblocks));
    }
    let nitems = mblocks * nchunks;
    let nt = if par { nthreads.min(nitems) } else { 1 };
    Plan {
        mblocks,
        npanels,
        nchunks,
        nitems,
        nt,
    }
}

impl Plan {
    /// Work item `idx`: row block `idx % mblocks` of column chunk
    /// `idx / mblocks`. Chunk boundaries round-robin the B panels
    /// evenly; a chunk can be empty only when `nchunks > npanels`.
    fn item(&self, idx: usize, m: usize) -> WorkItem {
        let ci = idx / self.mblocks;
        let ib = idx % self.mblocks;
        let i0 = ib * MC;
        WorkItem {
            i0,
            mc: MC.min(m - i0),
            q_lo: ci * self.npanels / self.nchunks,
            q_hi: (ci + 1) * self.npanels / self.nchunks,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn packed_dgemm(
    nthreads: usize,
    transa: Trans,
    transb: Trans,
    alpha: f64,
    a: &Matrix,
    b: &Matrix,
    c: &mut Matrix,
    m: usize,
    k: usize,
    n: usize,
) {
    // Pack all of op(B) once, shared read-only by every worker. Panel
    // `q` holds columns `[q·NR, q·NR+NR)` k-major with stride NR
    // (`bpack[q·k·NR + l·NR + s]`), zero-padded in the column direction.
    let npanels = n.div_ceil(NR);
    let mut bguard = arena::acquire(npanels * k * NR);
    let bpack: &mut [f64] = bguard.as_mut_slice();
    pack_b(transb, b, k, n, bpack);
    let bpack: &[f64] = bpack;

    let cm = c.nrows();
    let cs = c.as_mut_slice();
    let cout = COut {
        ptr: cs.as_mut_ptr(),
        len: cs.len(),
    };

    // Work items are enumerated by index (never materialized, so this
    // path stays allocation-free).
    let pl = plan(m, n, k, nthreads);
    if pl.nt <= 1 {
        let mut aguard = arena::acquire(MC * KC);
        for idx in 0..pl.nitems {
            let it = pl.item(idx, m);
            if it.q_lo < it.q_hi {
                run_item(
                    transa,
                    a,
                    alpha,
                    bpack,
                    k,
                    n,
                    cout,
                    cm,
                    it,
                    aguard.as_mut_slice(),
                );
            }
        }
    } else {
        std::thread::scope(|scope| {
            for t in 0..pl.nt {
                let pl = &pl;
                scope.spawn(move || {
                    // Per-thread A packing buffer from the shared pool.
                    let mut aguard = arena::acquire(MC * KC);
                    let apack = aguard.as_mut_slice();
                    let mut idx = t;
                    while idx < pl.nitems {
                        let it = pl.item(idx, m);
                        if it.q_lo < it.q_hi {
                            run_item(transa, a, alpha, bpack, k, n, cout, cm, it, apack);
                        }
                        idx += pl.nt;
                    }
                });
            }
        });
    }
}

/// Macro kernel for one work item: loop KC blocks in ascending `l0`,
/// pack the A block, then sweep the item's B panels and MR tiles.
#[allow(clippy::too_many_arguments)]
fn run_item(
    transa: Trans,
    a: &Matrix,
    alpha: f64,
    bpack: &[f64],
    k: usize,
    n: usize,
    cout: COut,
    cm: usize,
    it: WorkItem,
    apack: &mut [f64],
) {
    let mut l0 = 0;
    while l0 < k {
        let kc = KC.min(k - l0);
        pack_a(transa, a, it.i0, it.mc, l0, kc, apack);
        sweep_panels(alpha, apack, bpack, k, n, l0, kc, cout, cm, it);
        l0 += KC;
    }
}

/// Inner two loops of the macro kernel for one packed KC block: sweep
/// the item's B panels × MR tiles. `apack` holds the item's A rows for
/// depths `[l0, l0+kc)` in tight `kc·MR` panels (on-the-fly or a
/// [`PackedA`] block — byte-identical layouts, so both callers hit the
/// microkernel with the same inputs in the same order).
#[allow(clippy::too_many_arguments)]
fn sweep_panels(
    alpha: f64,
    apack: &[f64],
    bpack: &[f64],
    k: usize,
    n: usize,
    l0: usize,
    kc: usize,
    cout: COut,
    cm: usize,
    it: WorkItem,
) {
    for q in it.q_lo..it.q_hi {
        let jr = q * NR;
        let nr = NR.min(n - jr);
        let bt = &bpack[q * (k * NR) + l0 * NR..][..kc * NR];
        let mut ir = 0;
        while ir < it.mc {
            let mr = MR.min(it.mc - ir);
            let at = &apack[(ir / MR) * (kc * MR)..][..kc * MR];
            if mr == MR && nr == NR {
                micro_8x4(kc, alpha, at, bt, cout, it.i0 + ir, jr, cm);
            } else {
                micro_edge(kc, alpha, at, bt, cout, it.i0 + ir, jr, cm, mr, nr);
            }
            ir += MR;
        }
    }
}

/// Pack an `mc×kc` block of op(A) starting at (i0, l0) into microtile
/// panels: panel `p` holds rows `[p·MR, p·MR+MR)` stored k-major
/// (`apack[p·kc·MR + l·MR + r]`), zero-padded in the row direction.
/// Panels are **tight** (stride `kc·MR`, not `KC·MR`), which is what
/// lets [`PackedA`] store all KC stripes of op(A) back to back with a
/// purely arithmetic offset.
fn pack_a(
    transa: Trans,
    a: &Matrix,
    i0: usize,
    mc: usize,
    l0: usize,
    kc: usize,
    apack: &mut [f64],
) {
    let npanels = mc.div_ceil(MR);
    for p in 0..npanels {
        let base = p * (kc * MR);
        let rmax = MR.min(mc - p * MR);
        for l in 0..kc {
            for r in 0..MR {
                let v = if r < rmax {
                    let i = i0 + p * MR + r;
                    match transa {
                        Trans::No => a[(i, l0 + l)],
                        Trans::Yes => a[(l0 + l, i)],
                    }
                } else {
                    0.0
                };
                apack[base + l * MR + r] = v;
            }
        }
    }
}

/// Pack all of op(B) (`k×n`) into column microtiles: panel `q` holds
/// columns `[q·NR, q·NR+NR)` stored k-major with stride NR
/// (`bpack[q·k·NR + l·NR + s]`), zero-padded in the column direction.
fn pack_b(transb: Trans, b: &Matrix, k: usize, n: usize, bpack: &mut [f64]) {
    let npanels = n.div_ceil(NR);
    for q in 0..npanels {
        let base = q * (k * NR);
        let smax = NR.min(n - q * NR);
        for l in 0..k {
            for s in 0..NR {
                let v = if s < smax {
                    let j = q * NR + s;
                    match transb {
                        Trans::No => b[(l, j)],
                        Trans::Yes => b[(j, l)],
                    }
                } else {
                    0.0
                };
                bpack[base + l * NR + s] = v;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Persistent packed A operands.
// ---------------------------------------------------------------------

/// Whether [`dgemm`]'s auto dispatch would take the packed path for an
/// `m×n×k` product — i.e. whether preparing a [`PackedA`] for this
/// shape can pay off at all. Below the crossover `dgemm` uses the
/// unpacked small path, which never reads a packed operand, so a handle
/// would be dead weight.
#[inline]
pub fn gemm_prefers_packed(m: usize, n: usize, k: usize) -> bool {
    m > 0 && n > 0 && k > 0 && 2 * m * n * k > SMALL_FLOPS
}

/// op(A) packed once into the microkernel layout, for reuse across many
/// [`dgemm_prepacked`] calls.
///
/// Layout: KC stripes back to back. Stripe `l0` (a multiple of `KC`,
/// depth `kc = min(KC, k−l0)`) occupies `padded_m·kc` doubles starting
/// at offset `padded_m·l0`, where `padded_m = ⌈m/MR⌉·MR` — valid
/// because every stripe before the last has depth exactly `KC`. Within
/// a stripe, row panel `p` sits at `p·kc·MR`, exactly as [`pack_a`]
/// lays it out. The buffer comes from the [`crate::arena`] pool and
/// returns there on drop.
///
/// The handle borrows nothing: it is an owned snapshot of op(A) at pack
/// time. Callers caching one across solves must invalidate it when the
/// source matrix changes (the σ caches key on `Hamiltonian::id`).
pub struct PackedA {
    m: usize,
    k: usize,
    guard: arena::ScratchGuard,
    packs: usize,
}

impl PackedA {
    /// Pack all of op(A). One pass over the source; the returned handle
    /// feeds [`dgemm_prepacked`] any number of times.
    pub fn pack(transa: Trans, a: &Matrix) -> PackedA {
        let (m, k) = match transa {
            Trans::No => (a.nrows(), a.ncols()),
            Trans::Yes => (a.ncols(), a.nrows()),
        };
        let padded_m = m.div_ceil(MR) * MR;
        let mut guard = arena::acquire(padded_m * k);
        let buf = guard.as_mut_slice();
        let mut l0 = 0;
        while l0 < k {
            let kc = KC.min(k - l0);
            pack_a(
                transa,
                a,
                0,
                m,
                l0,
                kc,
                &mut buf[padded_m * l0..padded_m * (l0 + kc)],
            );
            l0 += KC;
        }
        PackedA {
            m,
            k,
            guard,
            packs: 1,
        }
    }

    /// Rows of op(A).
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Depth (columns of op(A)).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// How many times this operand has been packed (always 1 for a live
    /// handle — the repack-elimination tests sum this over a cache to
    /// assert each operand was packed exactly once per lifetime).
    #[inline]
    pub fn packs(&self) -> usize {
        self.packs
    }

    /// Heap footprint of the packed buffer in bytes (cache budgeting).
    #[inline]
    pub fn bytes(&self) -> usize {
        self.m.div_ceil(MR) * MR * self.k * std::mem::size_of::<f64>()
    }

    /// The packed panels covering rows `i0..i0+mc` of the KC stripe at
    /// depth `l0` (both MR/KC-aligned by construction of the work plan).
    #[inline]
    fn block(&self, i0: usize, mc: usize, l0: usize, kc: usize) -> &[f64] {
        let padded_m = self.m.div_ceil(MR) * MR;
        let base = padded_m * l0 + (i0 / MR) * (kc * MR);
        &self.guard.as_slice()[base..base + mc.div_ceil(MR) * (kc * MR)]
    }
}

/// `C := alpha · packed(A) · op(B) + beta · C` with a pre-packed A.
///
/// Identical semantics, partition, and per-tile summation order to
/// [`dgemm_with_threads`] on the packed path — the result is **bitwise
/// equal** at every thread count — but the per-call A packing traffic is
/// gone; only op(B) is packed. This is the σ-build hot call: the same
/// coupling operand multiplies a fresh B every Davidson iteration.
pub fn dgemm_prepacked(
    nthreads: usize,
    alpha: f64,
    pa: &PackedA,
    transb: Trans,
    b: &Matrix,
    beta: f64,
    c: &mut Matrix,
) {
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
    // Same fast-exit / beta-pass ordering as `dgemm_path` (BLAS contract).
    if m == 0 || n == 0 {
        return;
    }
    if beta != 1.0 {
        if beta == 0.0 {
            c.fill_zero();
        } else {
            c.scale(beta);
        }
    }
    if k == 0 || alpha == 0.0 {
        return;
    }
    let timer = crate::probe::active().then(std::time::Instant::now); // lint: allow(wallclock) — real host kernel time by design

    let npanels = n.div_ceil(NR);
    let mut bguard = arena::acquire(npanels * k * NR);
    let bpack: &mut [f64] = bguard.as_mut_slice();
    pack_b(transb, b, k, n, bpack);
    let bpack: &[f64] = bpack;

    let cm = c.nrows();
    let cs = c.as_mut_slice();
    let cout = COut {
        ptr: cs.as_mut_ptr(),
        len: cs.len(),
    };

    let pl = plan(m, n, k, nthreads);
    if pl.nt <= 1 {
        for idx in 0..pl.nitems {
            let it = pl.item(idx, m);
            if it.q_lo < it.q_hi {
                run_item_prepacked(pa, alpha, bpack, k, n, cout, cm, it);
            }
        }
    } else {
        std::thread::scope(|scope| {
            for t in 0..pl.nt {
                let pl = &pl;
                scope.spawn(move || {
                    let mut idx = t;
                    while idx < pl.nitems {
                        let it = pl.item(idx, m);
                        if it.q_lo < it.q_hi {
                            run_item_prepacked(pa, alpha, bpack, k, n, cout, cm, it);
                        }
                        idx += pl.nt;
                    }
                });
            }
        });
    }

    if let Some(t0) = timer {
        crate::probe::emit(m, n, k, t0.elapsed().as_secs_f64());
    }
}

/// Macro kernel for one work item against a persistent [`PackedA`]:
/// same ascending-`l0` block loop as [`run_item`], but the A panels are
/// read straight out of the handle — no packing.
#[allow(clippy::too_many_arguments)]
fn run_item_prepacked(
    pa: &PackedA,
    alpha: f64,
    bpack: &[f64],
    k: usize,
    n: usize,
    cout: COut,
    cm: usize,
    it: WorkItem,
) {
    let mut l0 = 0;
    while l0 < k {
        let kc = KC.min(k - l0);
        let apack = pa.block(it.i0, it.mc, l0, kc);
        sweep_panels(alpha, apack, bpack, k, n, l0, kc, cout, cm, it);
        l0 += KC;
    }
}

/// Fused multiply-add when the build target has hardware FMA, plain
/// multiply+add otherwise. `mul_add` without hardware support lowers to
/// a libm call — catastrophically slow in a microkernel — so the fusion
/// is compile-time gated, never probed at runtime. Which form is chosen
/// is fixed per build, so thread-count determinism is unaffected.
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

/// 8×4 register microkernel:
/// `C[i0..i0+8, j0..j0+4] += alpha · Apanel · Bpanel`.
///
/// The accumulator is `MR` rows of `NR`-wide vectors; each `l` step
/// broadcasts one A element per row against the 4-wide B vector, which
/// the autovectorizer lowers to one FMA per row (8 vector registers of
/// accumulators + 1 of B — fits any 16-register vector ISA).
#[inline(always)]
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn micro_8x4(
    kc: usize,
    alpha: f64,
    at: &[f64],
    bt: &[f64],
    c: COut,
    i0: usize,
    j0: usize,
    cm: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    // The panels are contiguous k-major tiles; index arithmetic is exact.
    for l in 0..kc {
        let ab = l * MR;
        let bb = l * NR;
        // SAFETY: `bt` was sliced to length >= kc*NR, so bb..bb+NR is in
        // bounds for every l < kc.
        let bv: [f64; NR] = std::array::from_fn(|s| unsafe { *bt.get_unchecked(bb + s) });
        for r in 0..MR {
            // SAFETY: `at` was sliced to length >= kc*MR; ab+r < kc*MR.
            let ar = unsafe { *at.get_unchecked(ab + r) };
            for s in 0..NR {
                acc[r][s] = fmadd(ar, bv[s], acc[r][s]);
            }
        }
    }
    for s in 0..NR {
        let cbase = (j0 + s) * cm + i0;
        for r in 0..MR {
            // SAFETY: the caller guarantees the full 8×4 tile lies inside
            // C and is owned by this work item (disjoint from all other
            // concurrent writers).
            unsafe { c.add(cbase + r, alpha * acc[r][s]) };
        }
    }
}

/// Edge microkernel for partial tiles (mr<8 or nr<4); bounds-checked
/// reads from the packed panels, tile-ownership-checked writes to C.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn micro_edge(
    kc: usize,
    alpha: f64,
    at: &[f64],
    bt: &[f64],
    c: COut,
    i0: usize,
    j0: usize,
    cm: usize,
    mr: usize,
    nr: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for l in 0..kc {
        let ab = l * MR;
        let bb = l * NR;
        for r in 0..mr {
            let av = at[ab + r];
            for s in 0..nr {
                acc[r][s] += av * bt[bb + s];
            }
        }
    }
    for s in 0..nr {
        let cbase = (j0 + s) * cm + i0;
        for r in 0..mr {
            // SAFETY: r < mr and s < nr keep the store inside the partial
            // tile, which lies inside C and is owned by this work item.
            unsafe { c.add(cbase + r, alpha * acc[r][s]) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_mat(nr: usize, nc: usize, seed: u64) -> Matrix {
        // Small deterministic LCG so the tests need no external RNG.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Matrix::from_fn(nr, nc, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
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
        // The packed path must agree with the auto-selected path too
        // (the small path is exercised by the auto calls above).
        let mut c_packed = c0.clone();
        dgemm_path(
            GemmPath::Packed,
            1,
            transa,
            transb,
            alpha,
            &a,
            &b,
            beta,
            &mut c_packed,
        );
        let diff = c_packed.max_abs_diff(&c_ref);
        assert!(
            diff < 1e-12 * (k.max(1) as f64),
            "packed diff {diff} for m={m} n={n} k={k} {transa:?} {transb:?}"
        );
    }

    #[test]
    fn matches_naive_small_exhaustive() {
        for &m in &[1usize, 2, 3, 4, 5, 7, 8, 9] {
            for &n in &[1usize, 2, 4, 5, 9] {
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
        // Cross the MC/KC/NC block boundaries and the MR=8 edge cases.
        check_case(Trans::No, Trans::No, 130, 37, 260, 1.0, 0.0);
        check_case(Trans::No, Trans::No, 128, 16, 256, 2.0, 1.0);
        check_case(Trans::Yes, Trans::No, 129, 5, 257, 1.0, -1.0);
        check_case(Trans::No, Trans::Yes, 136, 12, 256, 1.0, 0.5);
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
    fn forced_paths_agree() {
        let a = rand_mat(33, 20, 5);
        let b = rand_mat(20, 14, 6);
        let c0 = rand_mat(33, 14, 7);
        let mut c_small = c0.clone();
        let mut c_packed = c0.clone();
        dgemm_path(
            GemmPath::Small,
            1,
            Trans::No,
            Trans::No,
            1.5,
            &a,
            &b,
            0.25,
            &mut c_small,
        );
        dgemm_path(
            GemmPath::Packed,
            1,
            Trans::No,
            Trans::No,
            1.5,
            &a,
            &b,
            0.25,
            &mut c_packed,
        );
        assert!(c_small.max_abs_diff(&c_packed) < 1e-12 * 20.0);
    }

    #[test]
    fn prepacked_matches_packed_bitwise() {
        // The prepacked path must be *bitwise* equal to the on-the-fly
        // packed path at every thread count — it feeds the microkernel
        // the same panel bytes through the same work plan.
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
            dgemm_path(
                GemmPath::Packed,
                1,
                ta,
                Trans::No,
                1.25,
                &a,
                &b,
                -0.5,
                &mut c_ref,
            );
            let pa = PackedA::pack(ta, &a);
            assert_eq!(pa.packs(), 1);
            assert_eq!((pa.m(), pa.k()), (m, k));
            for &nt in &[1usize, 2, 4] {
                let mut c = c0.clone();
                dgemm_prepacked(nt, 1.25, &pa, Trans::No, &b, -0.5, &mut c);
                assert_eq!(c, c_ref, "{ta:?} m={m} n={n} k={k} nt={nt}");
            }
        }
        // Transposed B and alpha/beta corners through the same handle.
        let a = rand_mat(70, 90, 41);
        let bt = rand_mat(30, 90, 42);
        let c0 = rand_mat(70, 30, 43);
        let pa = PackedA::pack(Trans::No, &a);
        let mut c_ref = c0.clone();
        dgemm_path(
            GemmPath::Packed,
            1,
            Trans::No,
            Trans::Yes,
            2.0,
            &a,
            &bt,
            1.0,
            &mut c_ref,
        );
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
    fn gemm_prefers_packed_tracks_auto_crossover() {
        assert!(!gemm_prefers_packed(0, 10, 10));
        assert!(!gemm_prefers_packed(10, 10, 10));
        assert!(!gemm_prefers_packed(52, 52, 52)); // exactly SMALL_FLOPS: small path
        assert!(gemm_prefers_packed(53, 53, 53));
        assert!(gemm_prefers_packed(80, 45, 80));
    }
}
