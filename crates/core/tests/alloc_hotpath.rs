//! Counting-allocator proof that the σ hot path is allocation-free
//! after warm-up (PR 4 acceptance criterion).
//!
//! A `#[global_allocator]` shim counts every `alloc`/`alloc_zeroed`/
//! `realloc`. After one warm-up pass (which sizes the `MixedWorker`
//! buffers and populates the `fci-linalg` scratch-buffer pool), repeated
//! `MixedWorker::run_task` executions — gather, D build, V_K·D DGEMM,
//! scatter, accumulate — must perform **zero** heap allocations. A
//! second assertion bounds steady-state `mixed_spin_dgemm` calls (which
//! legitimately allocate per-call bookkeeping: clocks, stats, the task
//! pool, the run report) far below the warm-up call that builds the
//! working set. The task loop runs twice per space: on a bare world, and
//! on one wired as a served solve is, with a metrics registry attached
//! through a metrics-only tracer and a quiet fault plan, so the
//! instants every remote gather and accumulate emits reach the registry
//! and the checked delivery path runs. A registry allocates when it
//! first sees a key (`Shard::add_entry` in `fci-obs`); after warm-up it
//! must not.

use fci_core::sigma::mixed::{mixed_spin_dgemm, MixedWorker};
use fci_core::sigma::SigmaCtx;
use fci_core::{
    random_hamiltonian, random_symmetric_hamiltonian, DetSpace, Hamiltonian, PoolParams,
};
use fci_ddi::{Backend, Ddi, FaultConfig, FaultPlan};
use fci_obs::{MetricsRegistry, ObsConfig};
use fci_scf::MoIntegrals;
use fci_xsim::MachineModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static ALLOC_CALLS: AtomicUsize = AtomicUsize::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to the `System` allocator with its
// arguments forwarded verbatim, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: (each method) counts the call, then forwards to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: delegating to the system allocator with the same layout.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: counts the call, then forwards to `System`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: delegating to the system allocator with the same layout.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: counts the call, then forwards to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
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

fn allocs() -> (usize, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Run every Kα task of `space` on one persistent worker: after a
/// warm-up pass, a whole pass must not touch the heap. With `registry`,
/// the world and both vectors carry a metrics-only tracer recording into
/// it and a quiet fault plan.
fn assert_task_passes_allocate_nothing(
    space: &DetSpace,
    ham: &Hamiltonian,
    what: &str,
    registry: Option<&MetricsRegistry>,
) {
    let nproc = 4;
    let ddi = Ddi::new(nproc, Backend::Serial);
    if let Some(reg) = registry {
        let obs = ObsConfig::off().with_metrics(reg.clone());
        ddi.attach_tracer(obs.tracer().expect("a metrics-only tracer opens no file"));
        ddi.attach_faults(Arc::new(FaultPlan::new(FaultConfig::quiet(1))));
    }
    let model = MachineModel::cray_x1();
    let ctx = SigmaCtx {
        space,
        ham,
        ddi: &ddi,
        model: &model,
        pool: PoolParams::default(),
    };
    let c = space.guess(ham, nproc);
    let sigma = space.zeros_ci(nproc);
    ddi.adopt(&c);
    ddi.adopt(&sigma);
    let nka = space.alpha_nm1.len();

    let mut worker = MixedWorker::new(&ctx);
    let run_all = |worker: &mut MixedWorker| {
        for ka in 0..nka {
            worker.run_task(&ctx, &c, ka, 0, &mut |col, vals, st| {
                sigma.acc_col(0, col, vals, st)
            });
        }
    };

    // Warm-up: sizes every buffer, fills the linalg scratch pool.
    run_all(&mut worker);

    // Steady state: the whole task loop must not touch the heap. Retry a
    // few times before failing so a one-off burst from the test harness
    // runtime (which shares the global counters) cannot produce a false
    // positive; a real hot-path allocation fires on *every* pass.
    let mut min_calls = usize::MAX;
    for _ in 0..3 {
        let (c0, _) = allocs();
        run_all(&mut worker);
        let (c1, _) = allocs();
        min_calls = min_calls.min(c1 - c0);
    }
    assert_eq!(
        min_calls, 0,
        "{what}: σ task hot path allocated {min_calls} times per pass after warm-up"
    );
    if let Some(reg) = registry {
        for series in ["ddi.get_bytes", "ddi.acc_bytes"] {
            assert!(
                reg.percentile(series, &[], 0.5).is_some(),
                "{what}: the registry saw no {series}"
            );
        }
    }
}

/// All assertions live in one `#[test]` so no sibling test thread can
/// perturb the global counters mid-measurement.
#[test]
fn sigma_task_hot_path_is_allocation_free_after_warmup() {
    // One irrep, n=10, 3α3β → nd = 80, nkb = 45: every task is one
    // 80×45×80 V_K·D product (operands read in place, nothing packed).
    let ham = random_hamiltonian(10, 17);
    let space = DetSpace::c1(10, 3, 3);
    let registry = MetricsRegistry::new();
    for reg in [None, Some(&registry)] {
        assert_task_passes_allocate_nothing(&space, &ham, "c1", reg);
    }

    // Four irreps, unsorted labels: every task reshapes D, E and V per
    // Kβ-irrep block, inside the buffers sized for the unblocked task.
    let sym = [2u8, 0, 3, 1, 0, 2, 1, 3, 0, 2];
    let ham4 = random_symmetric_hamiltonian(10, 17, &sym, 4);
    for target in [0u8, 3] {
        let space4 = DetSpace::new(10, 3, 3, &sym, 4, target);
        for reg in [None, Some(&registry)] {
            assert_task_passes_allocate_nothing(&space4, &ham4, "4 irreps", reg);
        }
    }

    // A Hubbard chain screens all of V but the pairs (p, p): every task
    // cuts its D rows into one-slot runs, in the buffers sized for the
    // unscreened task.
    let hub = Hamiltonian::new(&MoIntegrals::hubbard_chain(10, 1.0, 4.0, true));
    let space_h = DetSpace::for_hamiltonian(&hub, 5, 5, 0);
    for reg in [None, Some(&registry)] {
        assert_task_passes_allocate_nothing(&space_h, &hub, "hubbard", reg);
    }

    // Full-phase driver: the first call builds the hoisted serial
    // working area (V_K alone is nd² doubles); steady-state calls keep
    // only O(nproc + tasks) bookkeeping and must stay far below it.
    for (space, ham, what) in [(&space, &ham, "c1"), (&space_h, &hub, "hubbard")] {
        let nproc = 4;
        let ddi = Ddi::new(nproc, Backend::Serial);
        let model = MachineModel::cray_x1();
        let ctx = SigmaCtx {
            space,
            ham,
            ddi: &ddi,
            model: &model,
            pool: PoolParams::default(),
        };
        let c = space.guess(ham, nproc);
        let sigma2 = space.zeros_ci(nproc);
        let (_, b0) = allocs();
        mixed_spin_dgemm(&ctx, &c, &sigma2);
        let (_, b1) = allocs();
        let warm_bytes = b1 - b0;
        let mut steady_bytes = u64::MAX;
        for _ in 0..3 {
            let (_, s0) = allocs();
            mixed_spin_dgemm(&ctx, &c, &sigma2);
            let (_, s1) = allocs();
            steady_bytes = steady_bytes.min(s1 - s0);
        }
        assert!(
            steady_bytes * 4 < warm_bytes,
            "{what}: steady-state mixed_spin_dgemm allocates {steady_bytes} B per call \
             vs {warm_bytes} B warm-up — WorkBufs hoisting is not effective"
        );
    }
}
