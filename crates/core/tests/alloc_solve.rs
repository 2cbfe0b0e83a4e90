//! Counting-allocator proof that both diagonalisers recycle their
//! CI-sized storage: σ, its transposes and the same-spin sub-block
//! buffers, and then block Davidson's Ritz vectors, residuals,
//! corrections and collapse copies, or the single-vector loop's residual
//! and preconditioned vectors, come from the solve's storage scope after
//! its first steps, so the allocations of at least one CI vector's bytes
//! do not grow with the σ count.
//!
//! A `#[global_allocator]` shim counts every `alloc`/`alloc_zeroed`/
//! `realloc` of at least a threshold the test sets to the sector's byte
//! size. Each solve runs at two σ budgets with a residual threshold no
//! step can meet, so it spends its whole budget: a two-root block
//! Davidson through many collapses of a small subspace, and AutoAdjust
//! and Olsen at one rank.

use fci_core::{
    build_space, solve_prepared, solve_roots_prepared, DiagMethod, DiagOptions, FciOptions,
    Hamiltonian,
};
use fci_scf::MoIntegrals;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

/// Allocations of at least [`THRESHOLD`] bytes.
static BIG: AtomicUsize = AtomicUsize::new(0);
/// Bytes an allocation needs to count (`usize::MAX`: count none).
static THRESHOLD: AtomicUsize = AtomicUsize::new(usize::MAX);

fn count(size: usize) {
    if size >= THRESHOLD.load(Ordering::Relaxed) {
        BIG.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method delegates to the `System` allocator with its
// arguments forwarded verbatim, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: (each method) counts the call, then forwards to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: delegating to the system allocator with the same layout.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: counts the call, then forwards to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: delegating to the system allocator with the same layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: counts the call, then forwards to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: caller contract forwarded verbatim to the system
        // allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    // SAFETY: forwards to the `System` allocator that produced `ptr`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: delegating to the system allocator that produced `ptr`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// CI-sized allocations made while `solve` runs, with `bytes` the
/// threshold.
fn big_allocations(bytes: usize, solve: impl FnOnce()) -> usize {
    THRESHOLD.store(bytes, Ordering::Relaxed);
    let before = BIG.load(Ordering::Relaxed);
    solve();
    let big = BIG.load(Ordering::Relaxed) - before;
    THRESHOLD.store(usize::MAX, Ordering::Relaxed);
    big
}

/// One `#[test]`, so no sibling test thread allocates into the counter.
#[test]
fn diagonalisers_allocate_no_ci_vector_per_sigma() {
    // 8-site Hubbard chain at half filling: 4,900 determinants, one
    // irrep, so the same-spin sub-block buffers are CI-sized too.
    let ham = Hamiltonian::new(&MoIntegrals::hubbard_chain(8, 1.0, 4.0, false));
    let space = build_space(&ham, 4, 4, 0, None);
    let bytes = 8 * space.sector_dim();
    let options = |method: DiagMethod, max_iter: usize| FciOptions {
        method,
        diag: DiagOptions {
            max_iter,
            tol: 0.0,
            max_subspace: 8,
            ..DiagOptions::default()
        },
        ..FciOptions::default()
    };

    let roots = |budget: usize| {
        big_allocations(bytes, || {
            // Two roots: a budget of `2·max_iter` σ.
            let run =
                solve_roots_prepared(&space, &ham, &options(DiagMethod::Davidson, budget / 2), 2);
            assert_eq!(run.iterations, budget, "the solve stopped short");
        })
    };
    let (short, long) = (roots(40), roots(120));
    assert_eq!(
        short, long,
        "block Davidson: CI-sized allocations grew from {short} at 40 σ to {long} at 120 σ"
    );

    for method in [DiagMethod::AutoAdjust, DiagMethod::Olsen] {
        let single = |budget: usize| {
            big_allocations(bytes, || {
                let run = solve_prepared(&space, &ham, &options(method, budget));
                assert_eq!(run.iterations, budget, "{method:?} stopped short");
            })
        };
        let (short, long) = (single(20), single(60));
        assert_eq!(
            short, long,
            "{method:?}: CI-sized allocations grew from {short} at 20 σ to {long} at 60 σ"
        );
    }
}
