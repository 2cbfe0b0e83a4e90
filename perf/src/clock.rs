//! The benchmark's one host-time source. Everything under `perf/` that
//! needs wall-clock time calls [`now_s`]; the workspace lint forbids
//! clock reads elsewhere, and this file carries the single waiver.

use std::sync::OnceLock;
use std::time::Instant;

/// Host seconds since the first call in this process (monotonic).
pub fn now_s() -> f64 {
    static T0: OnceLock<Instant> = OnceLock::new();
    // lint: allow(wallclock) — the benchmark measures host time by design
    let t0 = T0.get_or_init(Instant::now);
    t0.elapsed().as_secs_f64()
}

/// Run `f` and return its result with the host seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = now_s();
    let r = f();
    (r, now_s() - t0)
}
