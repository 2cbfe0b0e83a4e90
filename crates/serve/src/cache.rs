//! Shared-artifact cache: build expensive solver state once, hand the
//! same `Arc` to every job that needs it.
//!
//! Three artifact kinds are cached, each keyed by content hash:
//!
//! * **integrals** ([`MoIntegrals`]) — keyed by the problem recipe;
//! * **Hamiltonians** ([`Hamiltonian`]) — the G/V coupling matrices
//!   derived from the integrals (the `n⁴`-sized build);
//! * **determinant spaces** ([`DetSpace`]) — string tables, singles
//!   tables, and N−1/N−2 intermediate families (the per-sector build).
//!
//! Eviction is cost-aware LRU in the GreedyDual-Size family: each entry
//! carries priority `L + cost/bytes` where `L` is a global "inflation"
//! level that rises to the evicted priority whenever space is reclaimed.
//! Recently used, expensive-to-rebuild, small artifacts survive; stale
//! cheap bulky ones go first. Cost is a *deterministic* rebuild-work
//! estimate (not measured wall time) so cache behavior — and therefore
//! the whole server — is reproducible at any worker count.

use fci_core::{DetSpace, Hamiltonian};
use fci_obs::{TrackedCondvar, TrackedMutex};
use fci_scf::MoIntegrals;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache key: artifact kind + content hash.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheKey {
    /// MO integral set, keyed by problem content hash.
    Ints(u64),
    /// Hamiltonian coupling matrices, keyed by problem content hash.
    Ham(u64),
    /// Determinant space, keyed by [`crate::JobSpec::space_hash`].
    Space(u64),
}

/// A cached artifact (all immutable once built).
#[derive(Clone)]
pub enum Artifact {
    /// MO integrals.
    Ints(Arc<MoIntegrals>),
    /// Hamiltonian.
    Ham(Arc<Hamiltonian>),
    /// Determinant space.
    Space(Arc<DetSpace>),
}

impl Artifact {
    /// Resident size estimate in bytes (dominant dense payloads only).
    pub fn bytes(&self) -> usize {
        match self {
            Artifact::Ints(mo) => 8 * (mo.h.len() + mo.eri.n_unique()) + mo.orb_sym.len(),
            Artifact::Ham(h) => {
                8 * (h.h.len() + h.eri.n_unique() + h.v().len() + h.g().len()) + h.orb_sym.len()
            }
            Artifact::Space(s) => {
                // Strings + per-string tables; the singles/N−1/N−2 tables
                // all scale with (string count × orbital pairs).
                let nstr = s.alpha.len() + s.beta.len();
                let n = s.alpha.n_orb();
                8 * nstr * (1 + n * n)
            }
        }
    }

    /// Deterministic rebuild-cost estimate (arbitrary work units).
    pub fn cost(&self) -> f64 {
        match self {
            // Integrals are a recipe evaluation: cheap, O(n⁴) values.
            Artifact::Ints(mo) => (mo.n_orb as f64).powi(4),
            // G/V assembly touches n⁴ entries a few times.
            Artifact::Ham(h) => 4.0 * (h.n as f64).powi(4),
            // Table generation walks every (string, excitation) pair.
            Artifact::Space(s) => {
                let nstr = (s.alpha.len() + s.beta.len()) as f64;
                let n = s.alpha.n_orb() as f64;
                8.0 * nstr * n * n
            }
        }
    }
}

/// Monotone hit/miss/eviction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Inserts rejected because the artifact alone exceeds the budget.
    pub oversize_rejects: u64,
    /// Bytes currently resident.
    pub bytes_used: usize,
}

impl CacheStats {
    /// Hits over lookups (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    art: Artifact,
    bytes: usize,
    /// GreedyDual-Size priority at last touch.
    prio: f64,
    /// Monotone touch sequence — deterministic LRU tie-break.
    seq: u64,
}

struct CacheState {
    map: HashMap<CacheKey, Entry>,
    /// Keys currently being built by some worker; others wait.
    building: Vec<CacheKey>,
    used: usize,
    /// GreedyDual "inflation" level L.
    level: f64,
    seq: u64,
    stats: CacheStats,
}

/// Thread-safe shared-artifact cache with a hard byte budget.
pub struct ArtifactCache {
    budget: usize,
    state: TrackedMutex<CacheState>,
    built: TrackedCondvar,
}

impl ArtifactCache {
    /// Cache bounded by `budget` bytes. A zero budget disables caching
    /// (every lookup is a miss that builds privately) — useful as the
    /// control arm of cache-neutrality tests.
    pub fn new(budget: usize) -> ArtifactCache {
        ArtifactCache {
            budget,
            state: TrackedMutex::new(
                "ArtifactCache.state",
                CacheState {
                    map: HashMap::new(),
                    building: Vec::new(),
                    used: 0,
                    level: 0.0,
                    seq: 0,
                    stats: CacheStats::default(),
                },
            ),
            built: TrackedCondvar::new("ArtifactCache.built"),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.state.lock().stats
    }

    /// Look up `key`, building via `build` on a miss. Returns the
    /// artifact and whether it was a hit. Hits return a clone of the
    /// stored `Arc` — pointer-identical to every other holder.
    ///
    /// The build runs *outside* the cache lock; concurrent requests for
    /// the same key wait on the builder instead of duplicating the work
    /// (and instead of racing to insert divergent copies).
    pub fn get_or_build(
        &self,
        key: CacheKey,
        build: impl FnOnce() -> Artifact,
    ) -> (Artifact, bool) {
        {
            let mut st = self.state.lock();
            loop {
                if st.map.contains_key(&key) {
                    st.stats.hits += 1;
                    let seq = st.seq;
                    st.seq += 1;
                    let level = st.level;
                    let e = st.map.get_mut(&key).unwrap_or_else(|| unreachable!());
                    e.seq = seq;
                    // Touch: refresh the priority against the current L.
                    e.prio = priority(level, &e.art, e.bytes);
                    return (e.art.clone(), true);
                }
                if st.building.contains(&key) {
                    // Someone else is building it; wait for the insert.
                    st = self.built.wait(st);
                    continue;
                }
                st.stats.misses += 1;
                st.building.push(key);
                break;
            }
        }
        let art = build();
        let bytes = art.bytes();
        let mut st = self.state.lock();
        st.building.retain(|k| *k != key);
        if bytes <= self.budget {
            self.make_room(&mut st, bytes);
            let prio = priority(st.level, &art, bytes);
            let seq = st.seq;
            st.seq += 1;
            st.used += bytes;
            st.stats.bytes_used = st.used;
            st.map.insert(
                key,
                Entry {
                    art: art.clone(),
                    bytes,
                    prio,
                    seq,
                },
            );
        } else {
            st.stats.oversize_rejects += 1;
        }
        drop(st);
        self.built.notify_all();
        (art, false)
    }

    /// Evict lowest-priority entries until `incoming` bytes fit.
    fn make_room(&self, st: &mut CacheState, incoming: usize) {
        while st.used + incoming > self.budget {
            // argmin over (priority, insertion seq): deterministic.
            let victim = st
                .map
                .iter()
                .min_by(|a, b| a.1.prio.total_cmp(&b.1.prio).then(a.1.seq.cmp(&b.1.seq)))
                .map(|(k, e)| (*k, e.prio));
            match victim {
                Some((k, prio)) => {
                    let e = st.map.remove(&k).unwrap_or_else(|| unreachable!());
                    st.used -= e.bytes;
                    st.stats.bytes_used = st.used;
                    st.stats.evictions += 1;
                    // GreedyDual: inflate L to the evicted priority so
                    // long-resident entries age relative to new ones.
                    st.level = st.level.max(prio);
                }
                None => break,
            }
        }
    }
}

fn priority(level: f64, art: &Artifact, bytes: usize) -> f64 {
    level + art.cost() / (bytes.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProblemSpec;
    use std::sync::Mutex;

    fn ints_artifact(seed: u64, n_orb: usize) -> Artifact {
        Artifact::Ints(Arc::new(ProblemSpec::Random { n_orb, seed }.build()))
    }

    #[test]
    fn hit_returns_pointer_identical_arc() {
        let cache = ArtifactCache::new(1 << 20);
        let (a, hit_a) = cache.get_or_build(CacheKey::Ints(1), || ints_artifact(1, 4));
        let (b, hit_b) = cache.get_or_build(CacheKey::Ints(1), || ints_artifact(1, 4));
        assert!(!hit_a);
        assert!(hit_b);
        match (a, b) {
            (Artifact::Ints(x), Artifact::Ints(y)) => assert!(Arc::ptr_eq(&x, &y)),
            _ => panic!("wrong artifact kind"),
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn eviction_respects_budget_property() {
        // Property: after any deterministic pseudo-random access stream,
        // resident bytes never exceed the budget and every lookup is
        // still answered.
        let one = ints_artifact(0, 4).bytes();
        let budget = 3 * one + one / 2; // room for 3 entries, not 4
        let cache = ArtifactCache::new(budget);
        let mut rng: u64 = 0x9e3779b97f4a7c15;
        for step in 0..500u64 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let key = rng % 8; // working set of 8 keys > capacity 3
            let (art, _) = cache.get_or_build(CacheKey::Ints(key), || ints_artifact(key, 4));
            assert!(matches!(art, Artifact::Ints(_)));
            let s = cache.stats();
            assert!(
                s.bytes_used <= budget,
                "step {step}: {} bytes resident over budget {budget}",
                s.bytes_used
            );
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "working set exceeds capacity: must evict");
        assert!(s.hits > 0, "reuse within the working set: must hit");
        assert_eq!(s.hits + s.misses, 500);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cache = ArtifactCache::new(0);
        let (_, h1) = cache.get_or_build(CacheKey::Ints(7), || ints_artifact(7, 4));
        let (_, h2) = cache.get_or_build(CacheKey::Ints(7), || ints_artifact(7, 4));
        assert!(!h1 && !h2);
        let s = cache.stats();
        assert_eq!(s.bytes_used, 0);
        assert_eq!(s.oversize_rejects, 2);
    }

    #[test]
    fn greedy_dual_keeps_expensive_artifact_over_cheap_ones() {
        // A space artifact is far costlier per byte than integral sets of
        // similar size; under pressure the cheap ones should go first.
        let mo = Arc::new(
            ProblemSpec::Hubbard {
                sites: 4,
                t: 1.0,
                u: 4.0,
                periodic: false,
            }
            .build(),
        );
        let ham = Arc::new(Hamiltonian::new(&mo));
        let space = Arc::new(fci_core::build_space(&ham, 2, 2, 0, None));
        let space_art = Artifact::Space(space);
        let budget = space_art.bytes() + 2 * ints_artifact(0, 4).bytes();
        let cache = ArtifactCache::new(budget);
        cache.get_or_build(CacheKey::Space(99), || space_art.clone());
        for k in 0..6 {
            cache.get_or_build(CacheKey::Ints(k), || ints_artifact(k, 4));
        }
        // The space is still resident: looking it up is a hit.
        let hits_before = cache.stats().hits;
        let (_, hit) = cache.get_or_build(CacheKey::Space(99), || space_art.clone());
        assert!(hit, "high-cost space artifact was evicted by cheap ints");
        assert_eq!(cache.stats().hits, hits_before + 1);
    }

    #[test]
    fn concurrent_same_key_builds_once_and_shares() {
        let cache = Arc::new(ArtifactCache::new(1 << 20));
        let built = Arc::new(Mutex::new(0usize));
        let mut ptrs = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let built = Arc::clone(&built);
                handles.push(s.spawn(move || {
                    let (art, _) = cache.get_or_build(CacheKey::Ints(3), || {
                        *built.lock().unwrap() += 1;
                        ints_artifact(3, 4)
                    });
                    match art {
                        Artifact::Ints(p) => Arc::as_ptr(&p) as usize,
                        _ => 0,
                    }
                }));
            }
            for h in handles {
                ptrs.push(h.join().unwrap());
            }
        });
        assert_eq!(
            *built.lock().unwrap(),
            1,
            "duplicate build under contention"
        );
        assert!(ptrs.windows(2).all(|w| w[0] == w[1]));
    }
}
