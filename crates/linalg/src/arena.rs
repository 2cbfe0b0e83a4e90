//! Reusable scratch buffers for the GEMM packing paths.
//!
//! Beyond its in-place bounds [`dgemm`](crate::gemm::dgemm) needs two
//! kinds of working storage per call: a packed transposed B and one
//! packed-A block.
//! Allocating these with `vec![]` on every call (as the
//! seed kernel did) puts a heap allocation — and for large panels a page
//! fault storm — on the single hottest path of the whole program. This
//! module replaces that with a process-wide pool of `Vec<f64>` buffers:
//!
//! * [`acquire`] hands out a buffer of at least the requested length,
//!   preferring the smallest pooled buffer that already has the capacity
//!   (so one huge solve does not pin every small buffer at its size);
//! * dropping the returned [`ScratchGuard`] returns the buffer to the
//!   pool (up to `MAX_POOLED` buffers are retained; extras are freed).
//!
//! After warm-up — once the pool holds buffers sized for the largest
//! panels in flight — `acquire` performs **zero heap allocations**; the
//! counting-allocator test in `fci-core` asserts exactly this for the σ
//! hot path. The pool mutex is touched only at acquire/release, never
//! inside pack or tile loops.
//!
//! Contents of an acquired buffer are unspecified (stale data from the
//! previous user); every GEMM packing routine overwrites its panel —
//! including the zero padding — before reading it.

use std::sync::Mutex;

/// Upper bound on pooled buffers; beyond this, released buffers are
/// freed. Sized for one B panel plus one A block per thread-backend
/// DDI rank of a large machine.
const MAX_POOLED: usize = 64;

// The pool itself is the one sanctioned allocation site of the
// zero-alloc GEMM paths; `Vec::new` here is const and allocation-free.
// lint: allow(alloc) — const Vec::new; the pool is the one sanctioned allocation site
static POOL: Mutex<Vec<Vec<f64>>> = Mutex::new(Vec::new());

/// A pooled scratch buffer; returns itself to the pool on drop.
pub struct ScratchGuard {
    buf: Vec<f64>,
}

impl ScratchGuard {
    /// The scratch area (exactly the length passed to [`acquire`]).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.buf
    }

    /// Read-only view of the scratch area (used by persistent packed
    /// operands, which pack once and are then read many times).
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.buf
    }
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let buf = std::mem::take(&mut self.buf);
        let mut pool = POOL.lock().unwrap();
        if pool.len() < MAX_POOLED {
            pool.push(buf);
        }
    }
}

/// Check out a scratch buffer with `len` elements of unspecified content.
///
/// Best-fit: takes the smallest pooled buffer whose capacity suffices;
/// if none fits, the largest pooled buffer is grown (one allocation,
/// after which it fits forever). Growth doubles at least, so a sequence
/// of slightly-increasing requests costs O(log) allocations, not O(n).
pub fn acquire(len: usize) -> ScratchGuard {
    let mut buf = {
        let mut pool = POOL.lock().unwrap();
        match pick(&pool, len) {
            Some(i) => pool.swap_remove(i),
            // Capacity-0 vector: no allocation until `grow_and_fill`.
            // lint: allow(alloc) — capacity-0 Vec::new; no heap touch until grow_and_fill
            None => Vec::new(),
        }
    };
    grow_and_fill(&mut buf, len);
    ScratchGuard { buf }
}

/// Best-fit selection: index of the smallest pooled buffer whose capacity
/// is at least `len`; if none fits, the largest buffer (closest to
/// fitting, so growth is minimal); `None` only when the pool is empty.
fn pick(pool: &[Vec<f64>], len: usize) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, b) in pool.iter().enumerate() {
        if b.capacity() >= len && best.is_none_or(|j: usize| b.capacity() < pool[j].capacity()) {
            best = Some(i);
        }
    }
    best.or_else(|| (0..pool.len()).max_by_key(|&i| pool[i].capacity()))
}

fn grow_and_fill(buf: &mut Vec<f64>, len: usize) {
    if buf.capacity() < len {
        // Pool growth: the one allocation of the scratch subsystem,
        // amortized to zero after warm-up.
        // lint: allow(alloc) — pool warm-up growth, amortized to zero across the run
        buf.reserve(len - buf.len());
    }
    // Within capacity after the reserve above: no allocation. The fill
    // value is immediately overwritten by the packing routines; writing
    // zeros here keeps the buffer initialized for safe-Rust slicing.
    buf.clear();
    buf.resize(len, 0.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_returns_requested_length() {
        let mut g = acquire(1000);
        assert_eq!(g.as_mut_slice().len(), 1000);
        g.as_mut_slice()[999] = 1.0;
        assert_eq!(g.as_slice()[999], 1.0);
    }

    // The global pool is shared by every test thread in the process, so
    // tests of the *selection policy* use the pure `pick` helper on a
    // local pool instead of asserting on global-pool state.

    #[test]
    fn best_fit_prefers_smallest_sufficient_buffer() {
        let pool = vec![
            Vec::with_capacity(100_000),
            Vec::with_capacity(128),
            Vec::with_capacity(4096),
        ];
        assert_eq!(pick(&pool, 64), Some(1));
        assert_eq!(pick(&pool, 1000), Some(2));
        assert_eq!(pick(&pool, 50_000), Some(0));
    }

    #[test]
    fn pick_grows_largest_when_nothing_fits() {
        let pool = vec![Vec::with_capacity(128), Vec::with_capacity(4096)];
        assert_eq!(pick(&pool, 1 << 20), Some(1));
        assert_eq!(pick(&[], 16), None);
    }

    #[test]
    fn grow_and_fill_is_allocation_free_within_capacity() {
        let mut buf: Vec<f64> = Vec::with_capacity(256);
        let p0 = buf.as_ptr();
        grow_and_fill(&mut buf, 200);
        assert_eq!(buf.len(), 200);
        assert!(buf.iter().all(|&x| x == 0.0));
        assert_eq!(buf.as_ptr(), p0, "buffer reallocated within capacity");
    }
}
