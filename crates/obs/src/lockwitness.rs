//! Dynamic lock-order witness: named `Mutex`/`Condvar` wrappers that
//! record the runtime lock-acquisition graph.
//!
//! [`TrackedMutex`] and [`TrackedCondvar`] are drop-in replacements for
//! `std::sync::Mutex`/`Condvar` carrying a static *lock name* (the
//! `Struct.field` id the static analysis in `fci-check` uses, e.g.
//! `"Server.state"`). When the global witness is enabled, every
//! acquisition records an ordered edge `held → acquired` for each lock
//! the acquiring thread already holds, into a process-global edge set.
//!
//! This is the dynamic half of the lock-order check: the static
//! lock-order graph (`fcix-check locks`) *predicts* which edges can
//! occur; the witness *observes* which edges do occur under a real
//! workload. Observed ⊆ predicted is the cross-check; an observed edge
//! the static graph missed means the analysis (or its resolution
//! heuristics) has a hole — a lock taken behind a `fn` pointer, say.
//!
//! Cost when disabled: one relaxed atomic load per lock/wait — the
//! wrappers are free enough to leave in production paths (the serve
//! layer; never the σ/GEMM hot loops, which hold no locks at all).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard, OnceLock, PoisonError};

/// Process-global witness switch. Off by default.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Observed `(held, acquired)` lock-name pairs, plus per-lock
/// acquisition counts.
struct WitnessState {
    edges: Vec<(&'static str, &'static str)>,
    acquisitions: Vec<(&'static str, u64)>,
}

fn witness() -> &'static Mutex<WitnessState> {
    static W: OnceLock<Mutex<WitnessState>> = OnceLock::new();
    W.get_or_init(|| {
        Mutex::new(WitnessState {
            edges: Vec::new(),
            acquisitions: Vec::new(),
        })
    })
}

thread_local! {
    /// Names of tracked locks this thread currently holds, in
    /// acquisition order.
    static HELD: std::cell::RefCell<Vec<&'static str>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Turn the witness on or off. Enabling does not clear previous
/// observations; call [`reset_witness`] for a fresh run.
pub fn set_witness_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the witness is recording.
pub(crate) fn witness_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Clear all recorded edges and counts.
pub fn reset_witness() {
    let mut w = witness().lock().unwrap_or_else(PoisonError::into_inner);
    w.edges.clear();
    w.acquisitions.clear();
}

/// Observed lock-order edges `(held, acquired)`, deduplicated, in
/// first-observation order.
pub fn witness_edges() -> Vec<(String, String)> {
    let w = witness().lock().unwrap_or_else(PoisonError::into_inner);
    w.edges
        .iter()
        .map(|&(a, b)| (a.to_string(), b.to_string()))
        .collect()
}

/// Acquisition counts per lock name, in first-acquisition order.
pub fn witness_acquisitions() -> Vec<(String, u64)> {
    let w = witness().lock().unwrap_or_else(PoisonError::into_inner);
    w.acquisitions
        .iter()
        .map(|&(n, c)| (n.to_string(), c))
        .collect()
}

fn record_acquire(name: &'static str) {
    HELD.with(|held| {
        let held = held.borrow();
        if !held.is_empty() {
            let mut w = witness().lock().unwrap_or_else(PoisonError::into_inner);
            for &h in held.iter() {
                if !w.edges.contains(&(h, name)) {
                    w.edges.push((h, name));
                }
            }
        }
    });
    let mut w = witness().lock().unwrap_or_else(PoisonError::into_inner);
    match w.acquisitions.iter_mut().find(|(n, _)| *n == name) {
        Some((_, c)) => *c += 1,
        None => w.acquisitions.push((name, 1)),
    }
}

fn push_held(name: &'static str) {
    HELD.with(|held| held.borrow_mut().push(name));
}

fn pop_held(name: &'static str) {
    HELD.with(|held| {
        let mut held = held.borrow_mut();
        if let Some(pos) = held.iter().rposition(|&h| h == name) {
            held.remove(pos);
        }
    });
}

/// A named mutex that reports acquisitions to the global witness.
pub struct TrackedMutex<T> {
    name: &'static str,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// Wrap `value` under the static lock id `name` (`"Struct.field"`).
    pub fn new(name: &'static str, value: T) -> TrackedMutex<T> {
        TrackedMutex {
            name,
            inner: Mutex::new(value),
        }
    }

    /// The static lock id.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Acquire, recovering from poisoning (the protected state is only
    /// ever mutated atomically under the lock, so a panicking sibling
    /// leaves it well-formed). Records the acquisition when the witness
    /// is on.
    pub fn lock(&self) -> TrackedGuard<'_, T> {
        let tracked = witness_enabled();
        if tracked {
            record_acquire(self.name);
        }
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if tracked {
            push_held(self.name);
        }
        TrackedGuard {
            name: self.name,
            tracked,
            guard: Some(guard),
        }
    }

    /// Consume the mutex, returning the inner value (poison-recovering).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for TrackedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TrackedMutex")
            .field("name", &self.name)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard for a [`TrackedMutex`]; pops the witness held-stack on drop.
pub struct TrackedGuard<'a, T> {
    name: &'static str,
    tracked: bool,
    /// `Some` except transiently inside [`TrackedCondvar::wait`].
    guard: Option<MutexGuard<'a, T>>,
}

impl<T> std::ops::Deref for TrackedGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().unwrap_or_else(|| unreachable!())
    }
}

impl<T> std::ops::DerefMut for TrackedGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().unwrap_or_else(|| unreachable!())
    }
}

impl<T> Drop for TrackedGuard<'_, T> {
    fn drop(&mut self) {
        if self.tracked {
            pop_held(self.name);
        }
    }
}

/// A named condvar whose `wait` keeps the witness held-stack honest:
/// the associated mutex is popped for the duration of the wait and
/// re-pushed (with a fresh acquisition record) on wakeup.
pub struct TrackedCondvar {
    name: &'static str,
    inner: Condvar,
}

impl TrackedCondvar {
    /// A condvar under the static id `name`.
    pub fn new(name: &'static str) -> TrackedCondvar {
        TrackedCondvar {
            name,
            inner: Condvar::new(),
        }
    }

    /// The static condvar id.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Block on the condvar, releasing `guard`'s mutex (poison-
    /// recovering, like [`TrackedMutex::lock`]).
    pub fn wait<'a, T>(&self, mut guard: TrackedGuard<'a, T>) -> TrackedGuard<'a, T> {
        let inner = guard.guard.take().unwrap_or_else(|| unreachable!());
        let name = guard.name;
        let tracked = guard.tracked;
        if tracked {
            pop_held(name);
        }
        let woken = unwrap_wait(self.inner.wait(inner));
        if witness_enabled() {
            record_acquire(name);
            push_held(name);
            guard.tracked = true;
        } else {
            guard.tracked = false;
        }
        guard.guard = Some(woken);
        guard
    }

    /// Block on the condvar for at most `dur`, releasing `guard`'s mutex
    /// (poison-recovering). Returns the re-acquired guard and whether the
    /// wait timed out. Bookkeeping mirrors [`TrackedCondvar::wait`]: the
    /// released mutex leaves the witness held-stack for the duration and
    /// re-registers on wakeup.
    pub fn wait_timeout<'a, T>(
        &self,
        mut guard: TrackedGuard<'a, T>,
        dur: std::time::Duration,
    ) -> (TrackedGuard<'a, T>, bool) {
        let inner = guard.guard.take().unwrap_or_else(|| unreachable!());
        let name = guard.name;
        let tracked = guard.tracked;
        if tracked {
            pop_held(name);
        }
        let (woken, timeout) = match self.inner.wait_timeout(inner, dur) {
            Ok((g, t)) => (g, t.timed_out()),
            Err(poison) => {
                let (g, t) = poison.into_inner();
                (g, t.timed_out())
            }
        };
        if witness_enabled() {
            record_acquire(name);
            push_held(name);
            guard.tracked = true;
        } else {
            guard.tracked = false;
        }
        guard.guard = Some(woken);
        (guard, timeout)
    }

    /// Wake all waiters.
    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    /// Wake one waiter.
    pub fn notify_one(&self) {
        self.inner.notify_one();
    }
}

fn unwrap_wait<T>(r: LockResult<MutexGuard<'_, T>>) -> MutexGuard<'_, T> {
    r.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The witness is process-global, so the tests share one mutable
    // plane; serialize them behind a test-local lock.
    fn test_lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        GATE.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn nested_acquisition_records_an_edge() {
        let _g = test_lock();
        reset_witness();
        set_witness_enabled(true);
        let a = TrackedMutex::new("T.a", 0u32);
        let b = TrackedMutex::new("T.b", 0u32);
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        set_witness_enabled(false);
        let edges = witness_edges();
        assert!(edges.contains(&("T.a".to_string(), "T.b".to_string())));
        assert!(!edges.contains(&("T.b".to_string(), "T.a".to_string())));
    }

    #[test]
    fn sequential_acquisition_records_no_edge() {
        let _g = test_lock();
        reset_witness();
        set_witness_enabled(true);
        let a = TrackedMutex::new("S.a", 0u32);
        let b = TrackedMutex::new("S.b", 0u32);
        drop(a.lock());
        drop(b.lock());
        set_witness_enabled(false);
        assert!(witness_edges().is_empty());
        let counts = witness_acquisitions();
        assert!(counts.contains(&("S.a".to_string(), 1)));
        assert!(counts.contains(&("S.b".to_string(), 1)));
    }

    #[test]
    fn condvar_wait_releases_the_held_entry() {
        let _g = test_lock();
        reset_witness();
        set_witness_enabled(true);
        let m = std::sync::Arc::new(TrackedMutex::new("C.m", false));
        let other = std::sync::Arc::new(TrackedMutex::new("C.other", 0u32));
        let cv = std::sync::Arc::new(TrackedCondvar::new("C.cv"));
        std::thread::scope(|s| {
            let m2 = std::sync::Arc::clone(&m);
            let cv2 = std::sync::Arc::clone(&cv);
            let other2 = std::sync::Arc::clone(&other);
            s.spawn(move || {
                let mut st = m2.lock();
                while !*st {
                    st = cv2.wait(st);
                }
                // Still holding C.m after wakeup: this must record
                // C.m → C.other.
                let _o = other2.lock();
            });
            // Let the waiter park, then flip the flag.
            std::thread::sleep(std::time::Duration::from_millis(20));
            *m.lock() = true;
            cv.notify_all();
        });
        set_witness_enabled(false);
        let edges = witness_edges();
        assert!(
            edges.contains(&("C.m".to_string(), "C.other".to_string())),
            "wakeup must re-push the mutex: {edges:?}"
        );
    }

    #[test]
    fn timed_wait_times_out_and_restores_the_guard() {
        let _g = test_lock();
        reset_witness();
        set_witness_enabled(true);
        let m = TrackedMutex::new("TW.m", 7u32);
        let cv = TrackedCondvar::new("TW.cv");
        let guard = m.lock();
        let (guard, timed_out) = cv.wait_timeout(guard, std::time::Duration::from_millis(5));
        assert!(timed_out);
        assert_eq!(*guard, 7);
        drop(guard);
        set_witness_enabled(false);
        // The re-acquisition after the timed wait is recorded.
        let counts = witness_acquisitions();
        assert!(
            counts.iter().any(|(n, c)| n == "TW.m" && *c >= 2),
            "{counts:?}"
        );
    }

    #[test]
    fn disabled_witness_records_nothing() {
        let _g = test_lock();
        reset_witness();
        set_witness_enabled(false);
        let a = TrackedMutex::new("D.a", 0u32);
        let b = TrackedMutex::new("D.b", 0u32);
        let _ga = a.lock();
        let _gb = b.lock();
        assert!(witness_edges().is_empty());
        assert!(witness_acquisitions().is_empty());
    }
}
