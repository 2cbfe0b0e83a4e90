//! Witness fixture: two tracked mutexes taken in both orders, a → b
//! nested directly and b → a with the inner acquisition behind a `fn`
//! pointer. The static lock pass does not follow calls through a `fn`
//! pointer, so it sees one edge and no cycle; the runtime witness sees
//! both orders. `mutants_witness.rs` compiles this file and also reads
//! it as text.

use fci_obs::lockwitness::TrackedMutex;

pub(crate) struct Pair {
    a: TrackedMutex<u32>,
    b: TrackedMutex<u32>,
}

impl Pair {
    pub(crate) fn new() -> Pair {
        Pair {
            a: TrackedMutex::new("Pair.a", 0),
            b: TrackedMutex::new("Pair.b", 0),
        }
    }

    /// a → b, nested in one body.
    pub(crate) fn forward(&self) {
        let ga = self.a.lock();
        let gb = self.b.lock();
        drop(gb);
        drop(ga);
    }

    /// b → a, with the inner acquisition behind `inner`.
    pub(crate) fn backward(&self, inner: fn(&Pair)) {
        let gb = self.b.lock();
        inner(self);
        drop(gb);
    }

    /// Take a alone: the callee `backward` is handed.
    pub(crate) fn take_a(&self) {
        let ga = self.a.lock();
        drop(ga);
    }
}
