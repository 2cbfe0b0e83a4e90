#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # fci-sparse — the sparse/selected CI engine
//!
//! The dense engine in `fci-core` stores the full `|Dα|×|Dβ|` CI matrix
//! and runs σ through GEMMs — unbeatable throughput, but the vector
//! itself caps the reachable problem near 10⁷ determinants. This crate
//! breaks that regime by never materializing the dense vector:
//!
//! * [`store`] — the sparse representation: [`store::CoefMap`], an
//!   open-addressing hash map keyed on packed `(α, β)` determinant pairs
//!   ([`store::Det`]) with a deterministic layout, and [`store::DetSet`],
//!   a compressed sorted determinant set with merge-based union and
//!   intersection;
//! * [`connect`] — on-the-fly connected-determinant generation: the
//!   singles and doubles of a pivot that the Hamiltonian's nonzero
//!   integrals allow, in a fixed deterministic order, with
//!   per-connection Slater–Condon elements that agree bitwise with
//!   `fci_core::slater::element`; one walker serves both solvers;
//! * [`kernel`] — the allocation-free inner loops (CSR mat-vec,
//!   gradient scan, coordinate line search), written so every output is
//!   a pure function of the inputs regardless of thread partition;
//! * [`cdfci`] — coordinate-descent FCI: each step updates one
//!   coefficient and only its connections, tracking the energy estimate
//!   incrementally in O(connections) per update; one gradient scan of
//!   the store picks a block of up to 64 large-gradient coordinates;
//! * [`selected`] — selected CI: grow the variational determinant set by
//!   importance screening (`|H_ji·c_i| > ε`), diagonalize in the selected
//!   space with the dense engine's subspace driver
//!   (`fci_core::multiroot::block_davidson`) applying a CSR Hamiltonian.
//!
//! Both solvers are **bitwise-reproducible at any thread count**: all
//! parallel loops compute disjoint output ranges whose per-element
//! arithmetic is partition-independent, and every reduction either has
//! that property (row sums) or merges the results of a fixed 64-chunk
//! grid in a fixed order (norm recomputation, block gradient scan).
//!
//! ```
//! use fci_core::DetSpace;
//! use fci_core::hamiltonian::random_hamiltonian;
//! use fci_sparse::{solve_selected, SparseOptions};
//!
//! let ham = random_hamiltonian(6, 7);
//! let space = DetSpace::c1(6, 2, 2);
//! let res = solve_selected(&space, &ham, &SparseOptions::default());
//! assert!(res.converged);
//! ```

pub mod cdfci;
pub mod connect;
pub mod kernel;
pub mod selected;
pub mod store;

pub use cdfci::solve_cdfci;
pub use connect::{exc_element, reference_det, ConnGen, Exc};
pub use selected::solve_selected;
pub use store::{CoefMap, Det, DetSet, Pair};

use fci_obs::ObsConfig;

/// Controls for both sparse solvers. Defaults favour the cross-validation
/// regime (small spaces, tight energies); large-scale runs raise
/// `max_store` and loosen `eps`.
#[derive(Clone, Debug)]
pub struct SparseOptions {
    /// Worker threads for row-parallel connection generation, mat-vecs
    /// and scans. Any value produces bitwise-identical results; 1 is
    /// fully serial.
    pub threads: usize,
    /// Hard cap on stored coefficients (CDFCI) / selected determinants
    /// (selected CI) — the memory bound. When reached, CDFCI stops
    /// inserting new connections (existing entries still update) and
    /// selected CI stops growing the space.
    pub max_store: usize,
    /// Importance threshold ε for selected-CI growth: a candidate `j`
    /// enters the space when `max_i |H_ji·c_i| > ε`.
    pub eps: f64,
    /// Energy convergence tolerance in hartree (per CDFCI sweep, per
    /// selected-CI outer iteration).
    pub tol: f64,
    /// CDFCI: maximum coordinate updates.
    pub max_updates: usize,
    /// Selected CI: maximum outer (space-growth) iterations.
    pub max_outer: usize,
    /// Selected CI: number of roots (CDFCI computes the ground state
    /// only and ignores this).
    pub nroots: usize,
    /// Matrix elements with `|H_ij|` at or below this are treated as
    /// zero everywhere (connection emission, CSR assembly).
    pub h_cut: f64,
    /// Telemetry: spans/metrics for selection-space growth and per-sweep
    /// timings. Off by default (zero cost).
    pub obs: ObsConfig,
}

impl Default for SparseOptions {
    fn default() -> Self {
        SparseOptions {
            threads: 1,
            max_store: 2_000_000,
            eps: 1e-6,
            tol: 1e-9,
            max_updates: 2_000_000,
            max_outer: 40,
            nroots: 1,
            h_cut: 1e-14,
            obs: ObsConfig::off(),
        }
    }
}

/// One point of a solver's growth/convergence history — the selection-
/// space growth curve the bench artifact records.
#[derive(Clone, Copy, Debug)]
pub struct SweepStat {
    /// CDFCI sweep number / selected-CI outer iteration.
    pub sweep: usize,
    /// Stored coefficients (CDFCI) or selected determinants.
    pub support: usize,
    /// Total energy estimate (with `E_core`) at this point.
    pub energy: f64,
    /// Host wall time spent in this sweep, µs (0 when obs is off).
    pub elapsed_us: f64,
}

/// Result of a sparse solve.
#[derive(Clone, Debug)]
pub struct SparseResult {
    /// Total energies (with `E_core`), ascending; CDFCI returns one.
    pub energies: Vec<f64>,
    /// Whether the requested tolerance was met before the caps.
    pub converged: bool,
    /// Coordinate updates (CDFCI) / σ evaluations — CSR mat-vecs — of the
    /// inner Davidson, summed over rounds (selected CI).
    pub iterations: usize,
    /// Determinants in the final support / selected space.
    pub support: usize,
    /// Formal (dense) dimension `|Dα|·|Dβ|` of the space the solver ran
    /// in — as f64 because it may exceed what the dense path could even
    /// address.
    pub formal_dim: f64,
    /// Peak bytes of the dominant data structures (coefficient store, or
    /// selected-space CSR + vectors).
    pub peak_bytes: usize,
    /// Connection updates dropped by the `max_store` bound (CDFCI; 0 for
    /// selected CI, which caps growth instead).
    pub dropped: usize,
    /// Growth/convergence curve, one entry per sweep/outer iteration.
    pub history: Vec<SweepStat>,
}

impl SparseResult {
    /// Ground-state total energy.
    pub fn energy(&self) -> f64 {
        self.energies[0]
    }
}

/// Number of chunks in the fixed slot grid that the block gradient scan
/// and the norm recomputation both reduce over. The grid is *constant*
/// (not a function of the thread count), so per-chunk results and their
/// sequential merge order never change with `threads`.
pub(crate) const GRID_CHUNKS: usize = 64;

/// The one fan-out of the sparse engines: split `items` into `parts`
/// contiguous runs by [`kernel::range_of`] and call `f(first, run)` on
/// each, where `first` is the index of the run's first item. One part
/// runs on the calling thread; more run one scoped thread each.
pub(crate) fn fan_out<T: Send>(parts: usize, items: &mut [T], f: impl Fn(usize, &mut [T]) + Sync) {
    if parts <= 1 {
        f(0, items);
        return;
    }
    let (n, f) = (items.len(), &f);
    std::thread::scope(|sc| {
        let mut rest = items;
        for k in 0..parts {
            let (lo, hi) = kernel::range_of(n, parts, k);
            let (head, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            sc.spawn(move || f(lo, head));
        }
    });
}

/// `out[k] = f(lo, hi)` for every chunk `lo..hi` of the fixed grid over
/// `n` slots. Threads only divide the chunks among themselves; each
/// chunk's result is a pure function of that chunk.
fn per_grid_chunk<T: Send>(
    threads: usize,
    n: usize,
    out: &mut [T; GRID_CHUNKS],
    f: impl Fn(usize, usize) -> T + Sync,
) {
    let parts = if n < 16_384 { 1 } else { threads };
    fan_out(parts, out, |first, outs| {
        for (k, o) in (first..).zip(outs) {
            let (lo, hi) = kernel::range_of(n, GRID_CHUNKS, k);
            *o = f(lo, hi);
        }
    });
}

/// Block gradient scan: one pass over a store's slots that leaves in
/// `winners` the `(slot, |gradient|)` of the largest-gradient live slot
/// of each grid chunk ([`kernel::scan_gradient`] per chunk), ordered by
/// gradient descending with ties to the lower slot; chunks without a
/// live slot, `(usize::MAX, -1.0)`, sort last. The head is therefore
/// exactly the full-range `scan_gradient` result, and the list is
/// thread-count-invariant by construction.
pub(crate) fn scan_block(
    threads: usize,
    flags: &[u8],
    vals: &[Pair],
    e: f64,
    winners: &mut [(usize, f64); GRID_CHUNKS],
) {
    per_grid_chunk(threads, flags.len(), winners, |lo, hi| {
        kernel::scan_gradient(flags, vals, e, lo, hi)
    });
    winners.sort_unstable_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
}

/// Recompute `(Σ c², Σ c·b)` over a store's live slots exactly, in
/// parallel, bitwise thread-count-invariant: partials are computed per
/// fixed chunk and merged in chunk order.
pub(crate) fn recompute_norms(threads: usize, flags: &[u8], vals: &[Pair]) -> (f64, f64) {
    let mut parts = [(0.0f64, 0.0f64); GRID_CHUNKS];
    per_grid_chunk(threads, flags.len(), &mut parts, |lo, hi| {
        kernel::scan_norms(flags, vals, lo, hi)
    });
    let mut s = 0.0;
    let mut a = 0.0;
    for (ps, pa) in parts {
        s += ps;
        a += pa;
    }
    (s, a)
}

/// CSR mat-vec `y = H·x` over the selected space, rows partitioned
/// across threads (each row's sum is computed wholly by one thread — the
/// output is partition-independent).
pub(crate) fn spmv(
    threads: usize,
    rowptr: &[usize],
    cols: &[u32],
    vals: &[f64],
    diag: &[f64],
    x: &[f64],
    y: &mut [f64],
) {
    let parts = if y.len() < 4096 { 1 } else { threads };
    fan_out(parts, y, |lo, rows| {
        kernel::spmv_rows(rowptr, cols, vals, diag, x, lo, rows)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_scan_is_partition_invariant_and_headed_by_the_full_scan() {
        // Past the 16,384-slot threshold, so threads > 1 takes the
        // threaded path.
        let n = 40_000;
        let mut flags = vec![0u8; n];
        let mut vals = vec![[0.0f64; 2]; n];
        for i in 0..n {
            flags[i] = u8::from(i % 5 != 2);
            vals[i] = [(i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()];
        }
        // The maximum three times, twice inside one chunk (625 slots
        // each) and once in a later one; a lesser value twice.
        for i in [7_003, 7_100, 31_000] {
            flags[i] = 1;
            vals[i] = [0.0, 5.0];
        }
        for i in [12_345, 20_000] {
            flags[i] = 1;
            vals[i] = [0.0, -4.0];
        }
        let e = 0.3;
        let mut serial = [(usize::MAX, -1.0f64); GRID_CHUNKS];
        scan_block(1, &flags, &vals, e, &mut serial);
        assert_eq!(serial[0], kernel::scan_gradient(&flags, &vals, e, 0, n));
        assert_eq!(
            [serial[0].0, serial[1].0, serial[2].0, serial[3].0],
            [7_003, 31_000, 12_345, 20_000]
        );
        for w in serial.windows(2) {
            assert!(w[0].1 > w[1].1 || (w[0].1 == w[1].1 && w[0].0 < w[1].0));
        }
        for threads in [2usize, 3, 4, 7] {
            let mut threaded = [(usize::MAX, -1.0f64); GRID_CHUNKS];
            scan_block(threads, &flags, &vals, e, &mut threaded);
            for (s, t) in serial.iter().zip(&threaded) {
                assert_eq!((s.0, s.1.to_bits()), (t.0, t.1.to_bits()));
            }
        }
    }

    #[test]
    fn block_scan_sorts_empty_chunks_last() {
        // 128 slots, two per chunk; only chunks 3 and 40 hold a live slot.
        let mut flags = vec![0u8; 128];
        let mut vals = vec![[0.0f64; 2]; 128];
        flags[6] = 1;
        vals[6] = [0.0, 1.0];
        flags[81] = 1;
        vals[81] = [0.0, -2.0];
        let mut winners = [(0usize, 0.0f64); GRID_CHUNKS];
        scan_block(1, &flags, &vals, 0.0, &mut winners);
        assert_eq!(winners[0], (81, 2.0));
        assert_eq!(winners[1], (6, 1.0));
        assert!(winners[2..].iter().all(|w| *w == (usize::MAX, -1.0)));
    }
}
