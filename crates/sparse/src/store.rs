//! Sparse CI-vector storage: the packed determinant key, an
//! open-addressing coefficient map, and a compressed sorted
//! determinant-set type.
//!
//! Everything here is deterministic by construction. The [`CoefMap`]
//! table layout is a pure function of the insertion *sequence* (hash,
//! capacity schedule, and linear probing have no randomized state), so
//! two runs that insert the same keys in the same order produce
//! bit-identical slot arrays — the property the thread-count-invariant
//! solvers lean on when they scan slots in order. The [`DetSet`] keeps
//! its members sorted by [`Det`]'s lexicographic `(α, β)` order, which
//! makes union/intersection linear merges and iteration order canonical.

/// A determinant as a packed pair of occupation masks.
///
/// Ordering is lexicographic on `(a, b)` — the canonical order every
/// deterministic iteration in this crate uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Det {
    /// α-spin occupation mask.
    pub a: u64,
    /// β-spin occupation mask.
    pub b: u64,
}

impl Det {
    /// Pack the two spin masks.
    #[inline]
    pub fn new(a: u64, b: u64) -> Det {
        Det { a, b }
    }

    /// 64-bit mix of both masks (splitmix64-style finalizer on each
    /// half; the halves are combined asymmetrically so `(a, b)` and
    /// `(b, a)` collide no more than random pairs).
    #[inline]
    pub(crate) fn hash64(self) -> u64 {
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        mix(self.a.wrapping_add(0x9e37_79b9_7f4a_7c15)) ^ mix(self.b).rotate_left(32)
    }
}

/// Per-slot payload of the [`CoefMap`]: `[c, b]` — the CI coefficient
/// and the matching entry of `b = H·c`. CDFCI updates both in lockstep;
/// the selected solver only uses the first lane.
pub type Pair = [f64; 2];

/// Open-addressing hash map from [`Det`] to a [`Pair`] of `f64` lanes.
///
/// Linear probing over a power-of-two table, grown at ~70% load by
/// rehashing into double the capacity. There is no deletion (sparse
/// solvers only ever add support), which keeps probing tombstone-free.
#[derive(Clone, Debug)]
pub struct CoefMap {
    /// 1 = occupied, 0 = empty. A separate byte array (rather than a
    /// sentinel key) so every `u64` mask stays a legal key.
    flags: Vec<u8>,
    keys: Vec<Det>,
    vals: Vec<Pair>,
    len: usize,
    /// `capacity − 1`; capacity is always a power of two.
    mask: usize,
}

impl CoefMap {
    /// An empty map with room for `cap` entries before the first grow.
    pub fn with_capacity(cap: usize) -> CoefMap {
        let slots = (cap.max(8) * 10 / 7).next_power_of_two();
        CoefMap {
            flags: vec![0; slots],
            keys: vec![Det::new(0, 0); slots],
            vals: vec![[0.0; 2]; slots],
            len: 0,
            mask: slots - 1,
        }
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entry is occupied.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slot count of the backing table.
    pub fn capacity(&self) -> usize {
        self.flags.len()
    }

    /// Resident bytes of the backing arrays (the memory-bound metric).
    pub fn mem_bytes(&self) -> usize {
        self.flags.len() * (1 + std::mem::size_of::<Det>() + std::mem::size_of::<Pair>())
    }

    /// Slot of `key`, if present.
    #[inline]
    pub fn find(&self, key: Det) -> Option<usize> {
        let mut i = (key.hash64() as usize) & self.mask;
        loop {
            if self.flags[i] == 0 {
                return None;
            }
            if self.keys[i] == key {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Value of `key` (`[0.0, 0.0]` when absent).
    #[inline]
    pub fn get(&self, key: Det) -> Pair {
        self.find(key).map_or([0.0; 2], |i| self.vals[i])
    }

    /// Slot of `key`, inserting a zero entry if absent. Grows the table
    /// as needed; the returned slot is valid until the next insert.
    pub fn slot_or_insert(&mut self, key: Det) -> usize {
        if (self.len + 1) * 10 > self.flags.len() * 7 {
            self.grow();
        }
        let mut i = (key.hash64() as usize) & self.mask;
        loop {
            if self.flags[i] == 0 {
                self.flags[i] = 1;
                self.keys[i] = key;
                self.vals[i] = [0.0; 2];
                self.len += 1;
                return i;
            }
            if self.keys[i] == key {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let new_slots = self.flags.len() * 2;
        let mut next = CoefMap {
            flags: vec![0; new_slots],
            keys: vec![Det::new(0, 0); new_slots],
            vals: vec![[0.0; 2]; new_slots],
            len: 0,
            mask: new_slots - 1,
        };
        for i in 0..self.flags.len() {
            if self.flags[i] == 1 {
                let s = next.slot_or_insert(self.keys[i]);
                next.vals[s] = self.vals[i];
            }
        }
        *self = next;
    }

    /// Raw slot arrays `(flags, keys, vals)` for kernel-style scans in
    /// slot order. Slot order is deterministic (see module docs).
    pub fn slots(&self) -> (&[u8], &[Det], &[Pair]) {
        (&self.flags, &self.keys, &self.vals)
    }

    /// Mutable value lane array, paired with the immutable flags/keys.
    pub fn vals_mut(&mut self) -> &mut [Pair] {
        &mut self.vals
    }

    /// Occupied entries in canonical (sorted-key) order — the
    /// deterministic iteration the set builders use.
    pub fn sorted_entries(&self) -> Vec<(Det, Pair)> {
        let mut out: Vec<(Det, Pair)> = (0..self.flags.len())
            .filter(|&i| self.flags[i] == 1)
            .map(|i| (self.keys[i], self.vals[i]))
            .collect();
        out.sort_unstable_by_key(|e| e.0);
        out
    }
}

/// A compressed determinant set: sorted, deduplicated [`Det`]s with
/// O(log n) membership/rank and linear-merge set algebra.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DetSet {
    dets: Vec<Det>,
}

impl DetSet {
    /// The empty set.
    pub fn new() -> DetSet {
        DetSet::default()
    }

    /// Build from an arbitrary list (sorted + deduplicated here).
    pub fn from_vec(mut dets: Vec<Det>) -> DetSet {
        dets.sort_unstable();
        dets.dedup();
        DetSet { dets }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.dets.len()
    }

    /// True when the set has no members.
    pub fn is_empty(&self) -> bool {
        self.dets.is_empty()
    }

    /// Members in ascending order.
    pub fn as_slice(&self) -> &[Det] {
        &self.dets
    }

    /// Membership test.
    pub fn contains(&self, d: Det) -> bool {
        self.dets.binary_search(&d).is_ok()
    }

    /// Rank of `d` in the sorted order, if a member — the row index the
    /// selected-space solvers use.
    pub fn rank(&self, d: Det) -> Option<usize> {
        self.dets.binary_search(&d).ok()
    }

    /// Member at rank `i`.
    pub fn det(&self, i: usize) -> Det {
        self.dets[i]
    }

    /// Sorted-merge union.
    pub fn union(&self, other: &DetSet) -> DetSet {
        let (a, b) = (&self.dets, &other.dets);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        DetSet { dets: out }
    }

    /// Resident bytes of the backing array.
    pub fn mem_bytes(&self) -> usize {
        self.dets.len() * std::mem::size_of::<Det>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(a: u64, b: u64) -> Det {
        Det::new(a, b)
    }

    #[test]
    fn map_insert_find_get() {
        let mut m = CoefMap::with_capacity(4);
        let s = m.slot_or_insert(d(0b11, 0b101));
        m.vals_mut()[s] = [0.5, -1.0];
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(d(0b11, 0b101)), [0.5, -1.0]);
        assert_eq!(m.get(d(0b11, 0b110)), [0.0, 0.0]);
        assert_eq!(m.find(d(1, 1)), None);
    }

    #[test]
    fn map_grows_and_keeps_values() {
        let mut m = CoefMap::with_capacity(2);
        for i in 0..1000u64 {
            let s = m.slot_or_insert(d(i, i ^ 0xff));
            m.vals_mut()[s] = [i as f64, -(i as f64)];
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m.get(d(i, i ^ 0xff)), [i as f64, -(i as f64)]);
        }
        // Load factor is bounded by the grow policy.
        assert!(m.len() * 10 <= m.capacity() * 7);
    }

    #[test]
    fn map_layout_is_a_function_of_insert_sequence() {
        let build = || {
            let mut m = CoefMap::with_capacity(3);
            for i in (0..300u64).rev() {
                let s = m.slot_or_insert(d(i * 7, i * 13));
                m.vals_mut()[s] = [i as f64, 0.0];
            }
            m
        };
        let (a, b) = (build(), build());
        let (fa, ka, va) = a.slots();
        let (fb, kb, vb) = b.slots();
        assert_eq!(fa, fb);
        assert_eq!(ka, kb);
        assert_eq!(va.len(), vb.len());
        for (x, y) in va.iter().zip(vb) {
            assert_eq!(x[0].to_bits(), y[0].to_bits());
        }
    }

    #[test]
    fn sorted_entries_are_sorted_and_complete() {
        let mut m = CoefMap::with_capacity(4);
        for i in [5u64, 1, 9, 3] {
            let s = m.slot_or_insert(d(i, 0));
            m.vals_mut()[s] = [i as f64, 0.0];
        }
        let e = m.sorted_entries();
        assert_eq!(e.len(), 4);
        assert!(e.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn set_union_rank() {
        let a = DetSet::from_vec(vec![d(1, 0), d(3, 0), d(5, 0)]);
        let b = DetSet::from_vec(vec![d(3, 0), d(4, 0), d(5, 0), d(3, 0)]);
        assert_eq!(b.len(), 3);
        let u = a.union(&b);
        assert_eq!(
            u.as_slice(),
            &[d(1, 0), d(3, 0), d(4, 0), d(5, 0)],
            "union is a sorted merge"
        );
        assert_eq!(u.rank(d(4, 0)), Some(2));
        assert_eq!(u.rank(d(2, 0)), None);
        assert!(u.contains(d(1, 0)));
    }

    #[test]
    fn det_ordering_is_lexicographic() {
        assert!(d(1, 9) < d(2, 0));
        assert!(d(1, 1) < d(1, 2));
    }
}
