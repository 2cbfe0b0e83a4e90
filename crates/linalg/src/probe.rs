//! Opt-in GEMM observation hook.
//!
//! The metrics plane wants per-shape GEMM throughput, but `fci-linalg`
//! cannot depend on `fci-obs` (it sits below it in the crate graph) and
//! the hot path must stay free of any cost when nobody is watching. The
//! probe is therefore a process-global callback, installed once by the
//! bench/serve layer, guarded by one relaxed atomic load:
//!
//! ```
//! use std::sync::Arc;
//! use fci_linalg::probe;
//!
//! probe::install(Arc::new(|m, n, k, secs| {
//!     let gflops = 2.0 * (m * n * k) as f64 / secs.max(1e-12) / 1e9;
//!     let _ = (m, n, k, gflops); // e.g. a `gemm_probe` instant on a tracer
//! }));
//! probe::set_enabled(true);
//! ```
//!
//! With the probe disabled (the default), [`dgemm`] pays a single
//! `AtomicBool` load — the same budget as the tracer's disabled branch.
//!
//! [`dgemm`]: crate::dgemm

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

/// Observation callback: `(m, n, k, seconds)` for one completed
/// non-trivial `dgemm` dispatch (fast exits are not reported).
pub type GemmObserver = Arc<dyn Fn(usize, usize, usize, f64) + Send + Sync>;

static OBSERVER: OnceLock<GemmObserver> = OnceLock::new();
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Install the process-wide observer. The first call wins (the slot is
/// write-once); returns `false` if an observer was already installed.
/// Installation does not enable the probe — call [`set_enabled`].
pub fn install(obs: GemmObserver) -> bool {
    OBSERVER.set(obs).is_ok()
}

/// Turn observation on or off. A no-op until [`install`] has run; safe
/// to toggle around an A/B measurement (the obs-overhead bench does).
pub fn set_enabled(on: bool) {
    ACTIVE.store(on && OBSERVER.get().is_some(), Ordering::Relaxed);
}

/// Whether the probe is currently recording.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Report one timed GEMM to the installed observer.
#[inline]
pub(crate) fn emit(m: usize, n: usize, k: usize, secs: f64) {
    if let Some(obs) = OBSERVER.get() {
        obs(m, n, k, secs);
    }
}

// ---------------------------------------------------------------------
// Eigensolver channel: same write-once + relaxed-gate pattern, its own
// slot so the serve layer can watch eigh dispatches independently of
// GEMM (the metrics plane records them as separate series).
// ---------------------------------------------------------------------

/// Observation callback: `(n, seconds)` for one completed symmetric
/// eigendecomposition dispatched through [`eigh`](crate::eigh).
pub type EighObserver = Arc<dyn Fn(usize, f64) + Send + Sync>;

static EIGH_OBSERVER: OnceLock<EighObserver> = OnceLock::new();
static EIGH_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Install the process-wide eigensolver observer (write-once; returns
/// `false` if one was already installed). Enable with
/// [`set_eigh_enabled`].
pub fn install_eigh(obs: EighObserver) -> bool {
    EIGH_OBSERVER.set(obs).is_ok()
}

/// Turn eigensolver observation on or off (no-op until
/// [`install_eigh`] has run).
pub fn set_eigh_enabled(on: bool) {
    EIGH_ACTIVE.store(on && EIGH_OBSERVER.get().is_some(), Ordering::Relaxed);
}

/// Whether the eigensolver probe is currently recording.
#[inline]
pub fn eigh_active() -> bool {
    EIGH_ACTIVE.load(Ordering::Relaxed)
}

/// Report one timed eigendecomposition to the installed observer.
#[inline]
pub(crate) fn emit_eigh(n: usize, secs: f64) {
    if let Some(obs) = EIGH_OBSERVER.get() {
        obs(n, secs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn eigh_probe_gates_and_reports() {
        static EIGH_HITS: AtomicUsize = AtomicUsize::new(0);
        assert!(!eigh_active());
        set_eigh_enabled(true); // no observer yet: stays off
        assert!(!eigh_active());
        assert!(install_eigh(Arc::new(|n, _secs| {
            EIGH_HITS.fetch_add(n, Ordering::Relaxed);
        })));
        assert!(!install_eigh(Arc::new(|_, _| {})), "slot is write-once");
        set_eigh_enabled(true);
        assert!(eigh_active());
        let a = crate::Matrix::from_fn(3, 3, |i, j| if i == j { 1.0 + i as f64 } else { 0.1 });
        let _ = crate::eigh(&a);
        assert_eq!(EIGH_HITS.load(Ordering::Relaxed), 3);
        set_eigh_enabled(false);
        let _ = crate::eigh(&a);
        assert_eq!(EIGH_HITS.load(Ordering::Relaxed), 3, "off means off");
    }

    #[test]
    fn probe_gates_and_reports() {
        // Process-global state: this is the only test that touches it.
        static HITS: AtomicUsize = AtomicUsize::new(0);
        assert!(!active());
        set_enabled(true); // no observer yet: stays off
        assert!(!active());
        assert!(install(Arc::new(|m, n, k, _secs| {
            HITS.fetch_add(m * n * k, Ordering::Relaxed);
        })));
        assert!(!install(Arc::new(|_, _, _, _| {})), "slot is write-once");
        set_enabled(true);
        assert!(active());
        let a = crate::Matrix::from_fn(4, 3, |i, j| (i + j) as f64);
        let b = crate::Matrix::from_fn(3, 2, |i, j| (i * j) as f64);
        let mut c = crate::Matrix::zeros(4, 2);
        crate::dgemm(crate::Trans::No, crate::Trans::No, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(HITS.load(Ordering::Relaxed), 4 * 2 * 3);
        set_enabled(false);
        crate::dgemm(crate::Trans::No, crate::Trans::No, 1.0, &a, &b, 0.0, &mut c);
        assert_eq!(HITS.load(Ordering::Relaxed), 4 * 2 * 3, "off means off");
    }
}
