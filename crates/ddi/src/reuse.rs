//! CI-sized storage that one solve recycles.
//!
//! A subspace solve makes and drops the same few CI-sized vectors over
//! and over: σ and its transposes, Ritz vectors, residuals, corrections,
//! collapse copies, the same-spin sub-block buffers. Asking the allocator
//! for each anew costs page faults on every fresh mapping. A
//! [`StorageScope`] keeps what is dropped while it is open and hands it
//! out again:
//!
//! * [`scope`] opens one on the calling thread; dropping the guard frees
//!   everything it kept and reopens whatever scope was open before, so a
//!   solve's storage never outlives the solve;
//! * [`zeroed`] hands out `len` zeros, from a kept buffer of exactly
//!   that length when the open scope holds one, and [`overwritten`] the
//!   same buffer as it was left, for a caller that writes before it reads;
//! * [`recycle`] keeps a buffer in the open scope, or frees it when no
//!   scope is open.
//!
//! Nothing is shared between threads or kept between scopes: outside a
//! scope, [`zeroed`] is `vec![0.0; len]` and [`recycle`] is `drop`. A
//! buffer handed out inside a scope is an ordinary `Vec` and may outlive
//! it. Matching is by exact length, so a scope holds at most, for each
//! length, as many buffers as the solve ever had live at once.

use std::cell::RefCell;
use std::marker::PhantomData;

thread_local! {
    /// The open scope's kept buffers; `None` when no scope is open.
    static KEPT: RefCell<Option<Vec<Vec<f64>>>> = const { RefCell::new(None) };
}

/// The guard of an open storage scope (see the module docs). It belongs
/// to the thread that opened it.
pub struct StorageScope {
    /// The scope that was open before this one, reopened on drop.
    outer: Option<Vec<Vec<f64>>>,
    _thread: PhantomData<*const ()>,
}

/// Open a storage scope on the calling thread.
pub fn scope() -> StorageScope {
    let outer = KEPT.with(|k| k.replace(Some(Vec::new())));
    StorageScope {
        outer,
        _thread: PhantomData,
    }
}

impl Drop for StorageScope {
    fn drop(&mut self) {
        let outer = self.outer.take();
        // Frees every buffer this scope kept.
        let _ = KEPT.try_with(|k| k.replace(outer));
    }
}

/// A kept buffer of exactly `len` elements, if the open scope has one.
fn kept(len: usize) -> Option<Vec<f64>> {
    if len == 0 {
        return None;
    }
    KEPT.try_with(|k| {
        let mut k = k.borrow_mut();
        let kept = k.as_mut()?;
        let i = kept.iter().rposition(|v| v.len() == len)?;
        Some(kept.swap_remove(i))
    })
    .ok()
    .flatten()
}

/// `len` zeros.
pub fn zeroed(len: usize) -> Vec<f64> {
    match kept(len) {
        Some(mut v) => {
            v.fill(0.0);
            v
        }
        None => vec![0.0; len],
    }
}

/// `len` elements of unspecified (initialised) value, for a caller that
/// writes every one before reading it.
pub fn overwritten(len: usize) -> Vec<f64> {
    kept(len).unwrap_or_else(|| vec![0.0; len])
}

/// Keep `buf` in the open scope, or free it when none is open.
pub fn recycle(buf: Vec<f64>) {
    if buf.is_empty() {
        return;
    }
    let _ = KEPT.try_with(|k| {
        if let Some(kept) = k.borrow_mut().as_mut() {
            kept.push(buf);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(v: &[f64]) -> usize {
        v.as_ptr() as usize
    }

    #[test]
    fn a_scope_hands_back_what_it_kept_zeroed_and_frees_it_on_exit() {
        // No scope: recycling frees.
        recycle(zeroed(100));
        assert!(kept(100).is_none());
        {
            let _s = scope();
            let mut v = zeroed(100);
            v[3] = 7.0;
            let a = addr(&v);
            recycle(v);
            // A different length is not a match.
            assert_ne!(addr(&zeroed(99)), a);
            let again = zeroed(100);
            assert_eq!(addr(&again), a, "the kept buffer is reused");
            assert!(again.iter().all(|&x| x.to_bits() == 0));
            recycle(again);
            {
                // An inner scope starts empty and leaves the outer intact.
                let _inner = scope();
                assert!(kept(100).is_none());
            }
            assert_eq!(kept(100).map(|v| addr(&v)), Some(a));
            recycle(zeroed(100));
        }
        assert!(kept(100).is_none(), "a closed scope keeps nothing");
    }
}
