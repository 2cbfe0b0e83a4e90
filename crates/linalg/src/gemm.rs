//! Blocked, cache-aware general matrix multiply.
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
//!   row update into one 4-wide FMA.
//!
//! **One thread per GEMM:** every multiply runs on the calling thread.
//! The paper fills the machine with DDI ranks, each running a serial
//! DGEMM on its own column block; a second level of threads inside the
//! kernel won on no workload (DESIGN.md §11) and is gone.
//!
//! **Determinism:** a C tile accumulates its `KC` blocks in ascending
//! `l0` order, whichever entry point reaches it; the `fci-linalg`
//! property suite pins the bits of 200 shapes.
//!
//! Small multiplies (the mixed-spin `V_K·D` products are often tiny)
//! skip packing entirely via an unpacked fast path; the crossover is a
//! measured constant (`SMALL_FLOPS`).
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
    dgemm_path(GemmPath::Auto, transa, transb, alpha, a, b, beta, c);
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

/// [`dgemm`] with an explicit kernel path.
#[allow(clippy::too_many_arguments)]
fn dgemm_path(
    path: GemmPath,
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
        let asrc = ASource::Matrix(transa, a, arena::acquire(MC * KC));
        macro_kernel(asrc, alpha, transb, b, c, k);
    }
    if let Some(t0) = timer {
        crate::probe::emit(m, n, k, t0.elapsed().as_secs_f64());
    }
}

// ---------------------------------------------------------------------
// Small-matrix fast path: no packing, no scratch.
// ---------------------------------------------------------------------

/// Unpacked kernel for small products. For untransposed A the inner loop
/// is an axpy over a contiguous A column (vectorizes cleanly); for
/// transposed A it is a dot product over a contiguous A column.
/// Allocates nothing.
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
// Packed blocked path (Goto/BLIS five-loop structure).
// ---------------------------------------------------------------------

/// Where the macro kernel gets an `MC×KC` block of op(A): the one thing
/// [`dgemm`] and [`dgemm_prepacked`] differ in.
enum ASource<'a> {
    /// Pack each block out of the matrix into `MC·KC` of arena scratch.
    Matrix(Trans, &'a Matrix, arena::ScratchGuard),
    /// Read each block out of a persistent pack.
    Prepacked(&'a PackedA),
}

impl ASource<'_> {
    /// Rows `i0..i0+mc` × depths `l0..l0+kc` of op(A) in tight `kc·MR`
    /// panels — byte-identical layouts from either variant, so the
    /// microkernel sees the same inputs.
    fn a_block(&mut self, i0: usize, mc: usize, l0: usize, kc: usize) -> &[f64] {
        match self {
            ASource::Matrix(transa, a, scratch) => {
                pack_a(*transa, a, i0, mc, l0, kc, scratch.as_mut_slice());
                scratch.as_slice()
            }
            ASource::Prepacked(pa) => pa.block(i0, mc, l0, kc),
        }
    }
}

/// The packed path of both entry points: pack all of op(B) once, then
/// walk NC column chunks × MC row blocks × KC depth blocks × B panels ×
/// MR tiles. `l0` ascends inside a row block, so every C tile sums its
/// KC blocks in the same order whichever [`ASource`] feeds it — the
/// bitwise-equality contract between [`dgemm`] and [`dgemm_prepacked`].
fn macro_kernel(
    mut asrc: ASource<'_>,
    alpha: f64,
    transb: Trans,
    b: &Matrix,
    c: &mut Matrix,
    k: usize,
) {
    let (m, n) = (c.nrows(), c.ncols());
    let npanels = n.div_ceil(NR);
    let mut bguard = arena::acquire(npanels * k * NR);
    pack_b(transb, b, k, n, bguard.as_mut_slice());
    let bpack = bguard.as_slice();
    let cs = c.as_mut_slice();
    for q_lo in (0..npanels).step_by(NC / NR) {
        let q_hi = npanels.min(q_lo + NC / NR);
        for i0 in (0..m).step_by(MC) {
            let mc = MC.min(m - i0);
            for l0 in (0..k).step_by(KC) {
                let kc = KC.min(k - l0);
                let apack = asrc.a_block(i0, mc, l0, kc);
                for q in q_lo..q_hi {
                    let jr = q * NR;
                    let nr = NR.min(n - jr);
                    let bt = &bpack[q * (k * NR) + l0 * NR..][..kc * NR];
                    let mut ir = 0;
                    while ir < mc {
                        let mr = MR.min(mc - ir);
                        let at = &apack[(ir / MR) * (kc * MR)..][..kc * MR];
                        if mr == MR && nr == NR {
                            micro_8x4(kc, alpha, at, bt, cs, i0 + ir, jr, m);
                        } else {
                            micro_edge(kc, alpha, at, bt, cs, i0 + ir, jr, m, mr, nr);
                        }
                        ir += MR;
                    }
                }
            }
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
    /// depth `l0` (both MR/KC-aligned by construction of the macro
    /// kernel's loops).
    #[inline]
    fn block(&self, i0: usize, mc: usize, l0: usize, kc: usize) -> &[f64] {
        let padded_m = self.m.div_ceil(MR) * MR;
        let base = padded_m * l0 + (i0 / MR) * (kc * MR);
        &self.guard.as_slice()[base..base + mc.div_ceil(MR) * (kc * MR)]
    }
}

/// `C := alpha · packed(A) · op(B) + beta · C` with a pre-packed A.
///
/// The same macro kernel as [`dgemm`]'s packed path reading its A blocks
/// out of the handle — the result is **bitwise equal** — so the per-call
/// A packing traffic is gone; only op(B) is packed. This is the σ-build
/// hot call: the same coupling operand multiplies a fresh B every
/// Davidson iteration.
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
    macro_kernel(ASource::Prepacked(pa), alpha, transb, b, c, k);
    if let Some(t0) = timer {
        crate::probe::emit(m, n, k, t0.elapsed().as_secs_f64());
    }
}

/// Fused multiply-add when the build target has hardware FMA, plain
/// multiply+add otherwise. `mul_add` without hardware support lowers to
/// a libm call — catastrophically slow in a microkernel — so the fusion
/// is compile-time gated, never probed at runtime.
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
    c: &mut [f64],
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
    // One bounds check per column, none inside the loop: indexing `col[r]`
    // here instead cost the `l` loop above its clean 8-FMA body (31 → 25
    // Gflop/s at 512³).
    for s in 0..NR {
        let col = &mut c[(j0 + s) * cm + i0..][..MR];
        for (cr, ar) in col.iter_mut().zip(&acc) {
            *cr += alpha * ar[s];
        }
    }
}

/// Edge microkernel for partial tiles (mr<8 or nr<4); bounds-checked
/// throughout.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
fn micro_edge(
    kc: usize,
    alpha: f64,
    at: &[f64],
    bt: &[f64],
    c: &mut [f64],
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
        let col = &mut c[(j0 + s) * cm + i0..][..mr];
        for r in 0..mr {
            col[r] += alpha * acc[r][s];
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
        // packed path — it feeds the microkernel the same panel bytes
        // through the same macro kernel.
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
        dgemm_path(
            GemmPath::Packed,
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
