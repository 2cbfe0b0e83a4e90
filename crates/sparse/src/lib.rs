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
//! * [`connect`] — on-the-fly connected-determinant generation: singles
//!   and doubles from a pivot in a fixed deterministic order, with
//!   per-connection Slater–Condon elements that agree bitwise with
//!   `fci_core::slater::element`;
//! * [`kernel`] — the allocation-free inner loops (CSR mat-vec,
//!   gradient scan, coordinate line search), written so every output is
//!   a pure function of the inputs regardless of thread partition;
//! * [`cdfci`] — coordinate-descent FCI: each step updates the
//!   largest-gradient coefficient and only its connections, tracking the
//!   energy estimate incrementally in O(connections) per update;
//! * [`selected`] — selected CI: grow the variational determinant set by
//!   importance screening (`|H_ji·c_i| > ε`), diagonalize in the selected
//!   space with Davidson on a CSR Hamiltonian (subspace eigenproblems go
//!   through `fci_linalg::eigh`, block orthonormalization through
//!   CholQR²).
//!
//! Both solvers are **bitwise-reproducible at any thread count**: all
//! parallel loops compute disjoint output ranges whose per-element
//! arithmetic is partition-independent, and every reduction either has
//! that property (row sums), merges fixed-size chunks in a fixed order
//! (norm recomputation), or is a max with a partition-invariant
//! tie-break (gradient scan).
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

use fci_core::hamiltonian::Hamiltonian;
use fci_obs::ObsConfig;

/// Controls for both sparse solvers. Defaults favour the cross-validation
/// regime (small spaces, tight energies); large-scale runs raise
/// `max_store` and loosen `eps`.
#[derive(Clone, Debug)]
pub struct SparseOptions {
    /// Worker threads for element evaluation, mat-vecs and scans. Any
    /// value produces bitwise-identical results; 1 is fully serial.
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
    /// Inner Davidson residual tolerance (selected CI).
    pub inner_tol: f64,
    /// Inner Davidson iteration cap per outer iteration (selected CI).
    pub inner_max_iter: usize,
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
            inner_tol: 1e-8,
            inner_max_iter: 200,
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
    /// Coordinate updates (CDFCI) / cumulative inner Davidson iterations
    /// (selected CI).
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

/// The tracer for a solver run; falls back to disabled on I/O errors
/// (same policy as `fci_core::solver`).
pub(crate) fn tracer_for(obs: &ObsConfig) -> fci_obs::Tracer {
    match obs.tracer() {
        Ok(t) => t,
        Err(_) => fci_obs::Tracer::disabled(),
    }
}

/// Evaluate the Slater–Condon element of every excitation in `excs`
/// (all from the same pivot `from`) into `out`. Parallel over disjoint
/// chunks; each element's arithmetic is independent of the partition, so
/// the output is bitwise thread-count-invariant.
pub(crate) fn eval_elements(
    threads: usize,
    ham: &Hamiltonian,
    from: Det,
    excs: &[Exc],
    out: &mut [f64],
) {
    assert_eq!(excs.len(), out.len());
    let n = excs.len();
    if threads <= 1 || n < 1024 {
        for (o, &e) in out.iter_mut().zip(excs) {
            *o = exc_element(ham, from, e);
        }
        return;
    }
    std::thread::scope(|s| {
        let mut rest = out;
        for k in 0..threads {
            let (lo, hi) = kernel::range_of(n, threads, k);
            let (head, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            let chunk = &excs[lo..hi];
            s.spawn(move || {
                for (o, &e) in head.iter_mut().zip(chunk) {
                    *o = exc_element(ham, from, e);
                }
            });
        }
    });
}

/// Parallel largest-gradient scan over a coefficient store's slots.
/// Per-chunk winners merge with strict `>` in ascending chunk order,
/// which reproduces the serial scan for *any* partition (ties resolve to
/// the lowest slot either way) — thread-count-invariant by construction.
pub(crate) fn parallel_scan_gradient(
    threads: usize,
    flags: &[u8],
    vals: &[Pair],
    e: f64,
) -> (usize, f64) {
    let n = flags.len();
    if threads <= 1 || n < 16_384 {
        return kernel::scan_gradient(flags, vals, e, 0, n);
    }
    let mut parts = vec![(usize::MAX, -1.0f64); threads];
    std::thread::scope(|s| {
        for (k, out) in parts.iter_mut().enumerate() {
            s.spawn(move || {
                let (lo, hi) = kernel::range_of(n, threads, k);
                *out = kernel::scan_gradient(flags, vals, e, lo, hi);
            });
        }
    });
    let mut best = (usize::MAX, -1.0f64);
    for p in parts {
        if p.1 > best.1 {
            best = p;
        }
    }
    best
}

/// Number of fixed reduction chunks for norm recomputation. The chunk
/// grid is *constant* (not a function of the thread count), so partial
/// sums and their sequential merge order never change with `threads`.
const NORM_CHUNKS: usize = 64;

/// Recompute `(Σ c², Σ c·b)` over a store's live slots exactly, in
/// parallel, bitwise thread-count-invariant: partials are computed per
/// fixed chunk and merged in chunk order.
pub(crate) fn recompute_norms(threads: usize, flags: &[u8], vals: &[Pair]) -> (f64, f64) {
    let n = flags.len();
    if threads <= 1 || n < 16_384 {
        let mut s = 0.0;
        let mut a = 0.0;
        for k in 0..NORM_CHUNKS {
            let (lo, hi) = kernel::range_of(n, NORM_CHUNKS, k);
            let (ps, pa) = kernel::scan_norms(flags, vals, lo, hi);
            s += ps;
            a += pa;
        }
        return (s, a);
    }
    let mut parts = vec![(0.0f64, 0.0f64); NORM_CHUNKS];
    std::thread::scope(|sc| {
        let mut rest = parts.as_mut_slice();
        for t in 0..threads {
            let (clo, chi) = kernel::range_of(NORM_CHUNKS, threads, t);
            let (head, tail) = rest.split_at_mut(chi - clo);
            rest = tail;
            sc.spawn(move || {
                for (i, out) in head.iter_mut().enumerate() {
                    let (lo, hi) = kernel::range_of(n, NORM_CHUNKS, clo + i);
                    *out = kernel::scan_norms(flags, vals, lo, hi);
                }
            });
        }
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
    let n = y.len();
    if threads <= 1 || n < 4096 {
        kernel::spmv_rows(rowptr, cols, vals, diag, x, 0, y);
        return;
    }
    std::thread::scope(|s| {
        let mut rest = y;
        for k in 0..threads {
            let (lo, hi) = kernel::range_of(n, threads, k);
            let (head, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            s.spawn(move || {
                kernel::spmv_rows(rowptr, cols, vals, diag, x, lo, head);
            });
        }
    });
}
