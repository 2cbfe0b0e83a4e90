//! Precomputed coupling tables between string spaces.
//!
//! These tables are the discrete skeleton of every σ algorithm:
//!
//! * [`SinglesTable`] — for each string `J`, all `(p, q, sign, I)` with
//!   `E_pq |J⟩ = sign |I⟩` (including the diagonal `p = q` occupation
//!   entries). Drives the one-electron σ and the MOC kernels.
//! * [`Nm1Families`] — for each N−1 electron string `K`, the family of
//!   `(p, sign, I)` with `|I⟩ = sign · a†_p |K⟩`. The mixed-spin DGEMM
//!   routine loops over these families on *both* spins (eqs. 4–6); they are
//!   also the task units of the dynamic load balancer ("each processor is
//!   assigned different sets of Nα−1 electron alpha occupations", §3.3).
//! * [`CreationLists`] — the same entries inverted: for each irrep block
//!   of the N−1 strings and each orbital p, the `K` whose family creates
//!   p. The mixed-spin routine's β side walks these.
//! * [`Nm2Families`] — for each N−2 electron string `K`, the family of
//!   `(p, r, sign, I)` with `p > r` and `⟨I| a†_p a†_r |K⟩ = sign`. This is
//!   simultaneously the paper's creation-pair matrix **A** and (through
//!   `B^{K,J}_{qs} = ⟨J| a†_q a†_s |K⟩`, the adjoint relation) its
//!   annihilation-pair matrix **B**.

use crate::bits::{annihilate, create};
use crate::space::SpinStrings;

/// One `E_pq` connection from a source string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SingleEntry {
    /// Created orbital p.
    pub p: u8,
    /// Annihilated orbital q.
    pub q: u8,
    /// Fermionic phase (±1).
    pub sign: i8,
    /// Global index of the target string `I`.
    pub to: u32,
}

/// For every string `J` of a space: all single excitations `E_pq |J⟩`.
#[derive(Clone, Debug)]
pub struct SinglesTable {
    offsets: Vec<usize>,
    entries: Vec<SingleEntry>,
}

impl SinglesTable {
    /// Build the table for `space`. Cost: O(#strings · N · (n−N+1)).
    pub fn new(space: &SpinStrings) -> Self {
        let n = space.n_orb();
        let nstr = space.len();
        let per = space.n_elec() * (n - space.n_elec() + 1);
        let mut offsets = Vec::with_capacity(nstr + 1);
        let mut entries = Vec::with_capacity(nstr * per);
        offsets.push(0);
        for j in 0..nstr {
            let mask = space.mask(j);
            for q in 0..n {
                let Some((s1, m1)) = annihilate(mask, q) else {
                    continue;
                };
                for p in 0..n {
                    let Some((s2, m2)) = create(m1, p) else {
                        continue;
                    };
                    let to = space
                        .index_of(m2)
                        .expect("E_pq target must stay inside the full string space")
                        as u32;
                    entries.push(SingleEntry {
                        p: p as u8,
                        q: q as u8,
                        sign: s1 * s2,
                        to,
                    });
                }
            }
            offsets.push(entries.len());
        }
        SinglesTable { offsets, entries }
    }

    /// The excitations out of string `j`.
    #[inline]
    pub fn of(&self, j: usize) -> &[SingleEntry] {
        &self.entries[self.offsets[j]..self.offsets[j + 1]]
    }
}

/// One `a†_p` connection from an N−1 string family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CreateEntry {
    /// Created orbital p.
    pub p: u8,
    /// Fermionic phase of `⟨I| a†_p |K⟩`.
    pub sign: i8,
    /// Global index of the N-electron string `I` in the parent space.
    pub to: u32,
}

/// N−1 electron intermediate families.
#[derive(Clone, Debug)]
pub struct Nm1Families {
    /// The N−1 electron string space (same orbitals/symmetry labels).
    space_k: SpinStrings,
    offsets: Vec<usize>,
    entries: Vec<CreateEntry>,
}

impl Nm1Families {
    /// Build the N−1 families of `space` (which must have ≥1 electron).
    pub fn new(space: &SpinStrings) -> Self {
        assert!(
            space.n_elec() >= 1,
            "need at least one electron for N-1 families"
        );
        let space_k = SpinStrings::new(
            space.n_orb(),
            space.n_elec() - 1,
            space.orb_sym(),
            space.n_irrep(),
        );
        let nk = space_k.len();
        // Count, then fill (families are built K-major).
        let mut counts = vec![0usize; nk];
        for i in 0..space.len() {
            let mask = space.mask(i);
            let mut m = mask;
            while m != 0 {
                let p = m.trailing_zeros() as usize;
                m &= m - 1;
                let (_, km) = annihilate(mask, p).unwrap();
                counts[space_k.index_of(km).unwrap()] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(nk + 1);
        let mut acc = 0;
        offsets.push(0);
        for &c in &counts {
            acc += c;
            offsets.push(acc);
        }
        let mut fill = offsets.clone();
        let mut entries = vec![
            CreateEntry {
                p: 0,
                sign: 0,
                to: 0
            };
            acc
        ];
        for i in 0..space.len() {
            let mask = space.mask(i);
            let mut m = mask;
            while m != 0 {
                let p = m.trailing_zeros() as usize;
                m &= m - 1;
                // sign of ⟨I|a†_p|K⟩ equals the sign of create(K, p),
                // which equals the sign of annihilate(I, p).
                let (sign, km) = annihilate(mask, p).unwrap();
                let k = space_k.index_of(km).unwrap();
                entries[fill[k]] = CreateEntry {
                    p: p as u8,
                    sign,
                    to: i as u32,
                };
                fill[k] += 1;
            }
        }
        // Deterministic order within each family: by (irrep, orbital) of
        // the created orbital, so the members of one irrep are one run.
        let orb_sym = space.orb_sym();
        for k in 0..nk {
            entries[offsets[k]..offsets[k + 1]].sort_by_key(|e| (orb_sym[e.p as usize], e.p));
        }
        Nm1Families {
            space_k,
            offsets,
            entries,
        }
    }

    /// The N−1 electron string space.
    pub fn space_k(&self) -> &SpinStrings {
        &self.space_k
    }

    /// Number of families (= number of N−1 strings).
    pub fn len(&self) -> usize {
        self.space_k.len()
    }

    /// True when there are no families.
    pub fn is_empty(&self) -> bool {
        self.space_k.is_empty()
    }

    /// The family of N-electron strings reachable from `K` by one creation.
    #[inline]
    pub fn of(&self, k: usize) -> &[CreateEntry] {
        &self.entries[self.offsets[k]..self.offsets[k + 1]]
    }
}

/// One member of a [`CreationLists`] list: an N−1 string `K` whose family
/// creates the list's orbital p, reaching `I` with `sign · a†_p |K⟩`.
#[derive(Clone, Copy, Debug)]
pub struct Creator {
    /// `K` minus the first index of its irrep block.
    pub k: u32,
    /// Global index of the N-electron string `I`.
    pub to: u32,
    /// Fermionic phase of `⟨I| a†_p |K⟩`, as ±1.0.
    pub sign: f64,
}

/// [`Nm1Families`] inverted by orbital: for each irrep block g of the N−1
/// strings and each orbital p, every `K` of the block whose family
/// creates p, `K` ascending. The mixed-spin σ kernel walks one list per
/// (block, orbital) where the families would make it test every member.
#[derive(Clone, Debug)]
pub struct CreationLists {
    n_orb: usize,
    /// `offsets[g·n_orb + p]` starts the list of (g, p).
    offsets: Vec<usize>,
    entries: Vec<Creator>,
}

impl CreationLists {
    /// Invert `families`. Cost: one pass over its entries.
    pub fn new(families: &Nm1Families) -> Self {
        let space_k = families.space_k();
        let n_orb = space_k.n_orb();
        let list = |k: usize, p: u8| space_k.irrep_of_index(k) as usize * n_orb + p as usize;
        let mut offsets = vec![0usize; space_k.n_irrep() * n_orb + 1];
        for k in 0..families.len() {
            for e in families.of(k) {
                offsets[list(k, e.p) + 1] += 1;
            }
        }
        for at in 1..offsets.len() {
            offsets[at] += offsets[at - 1];
        }
        let mut fill = offsets.clone();
        let blank = Creator {
            k: 0,
            to: 0,
            sign: 0.0,
        };
        let mut entries = vec![blank; families.entries.len()];
        for k in 0..families.len() {
            let first = space_k.block_range(space_k.irrep_of_index(k)).start;
            for e in families.of(k) {
                let at = &mut fill[list(k, e.p)];
                entries[*at] = Creator {
                    k: (k - first) as u32,
                    to: e.to,
                    sign: e.sign as f64,
                };
                *at += 1;
            }
        }
        CreationLists {
            n_orb,
            offsets,
            entries,
        }
    }

    /// The `K` of irrep `g` whose family creates orbital `p`, ascending.
    #[inline]
    pub fn of(&self, g: u8, p: usize) -> &[Creator] {
        let at = g as usize * self.n_orb + p;
        &self.entries[self.offsets[at]..self.offsets[at + 1]]
    }
}

/// One `a†_p a†_r` (p > r) connection from an N−2 string family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairEntry {
    /// Higher created orbital (p > r).
    pub p: u8,
    /// Lower created orbital.
    pub r: u8,
    /// Fermionic phase of `⟨I| a†_p a†_r |K⟩`.
    pub sign: i8,
    /// Global index of the N-electron string `I` in the parent space.
    pub to: u32,
}

impl PairEntry {
    /// Row index of the (p, r) pair in a packed p>r triangular matrix.
    #[inline]
    pub fn pair_index(&self) -> usize {
        pair_index(self.p as usize, self.r as usize)
    }
}

/// Packed index of the ordered pair (p, r) with p > r:
/// `(p·(p−1))/2 + r`, enumerating (1,0), (2,0), (2,1), (3,0), …
#[inline]
pub fn pair_index(p: usize, r: usize) -> usize {
    debug_assert!(p > r);
    p * (p - 1) / 2 + r
}

/// N−2 electron intermediate families — the paper's A/B coupling matrices.
///
/// A family is ordered by (pair irrep `g_p ⊕ g_r`, p, r), so its members
/// of one pair irrep are one contiguous [`Nm2Families::block`].
#[derive(Clone, Debug)]
pub struct Nm2Families {
    space_k: SpinStrings,
    /// `offsets[k·n_irrep + h]` starts block `h` of family `k`; the
    /// family itself is `offsets[k·n_irrep]..offsets[(k+1)·n_irrep]`.
    offsets: Vec<usize>,
    entries: Vec<PairEntry>,
}

impl Nm2Families {
    /// Build the N−2 families of `space` (which must have ≥2 electrons).
    pub fn new(space: &SpinStrings) -> Self {
        assert!(
            space.n_elec() >= 2,
            "need at least two electrons for N-2 families"
        );
        let space_k = SpinStrings::new(
            space.n_orb(),
            space.n_elec() - 2,
            space.orb_sym(),
            space.n_irrep(),
        );
        let nk = space_k.len();
        let n_irrep = space.n_irrep();
        let orb_sym = space.orb_sym();
        // Every connection with its (family, pair irrep) slot of the
        // offset table, in string order.
        let per_string = space.n_elec() * (space.n_elec() - 1) / 2;
        let mut found = Vec::with_capacity(space.len() * per_string);
        for i in 0..space.len() {
            let mask = space.mask(i);
            let occ: Vec<usize> = crate::bits::occ_list(mask);
            for (a, &r) in occ.iter().enumerate() {
                for &p in occ.iter().skip(a + 1) {
                    // p > r both occupied in I: ⟨K| a_r a_p |I⟩ = s1·s2 =
                    // ⟨I| a†_p a†_r |K⟩ (real).
                    let (s1, m1) = annihilate(mask, p).unwrap();
                    let (s2, km) = annihilate(m1, r).unwrap();
                    let k = space_k.index_of(km).unwrap();
                    let entry = PairEntry {
                        p: p as u8,
                        r: r as u8,
                        sign: s1 * s2,
                        to: i as u32,
                    };
                    found.push((k * n_irrep + (orb_sym[p] ^ orb_sym[r]) as usize, entry));
                }
            }
        }
        let mut offsets = vec![0usize; nk * n_irrep + 1];
        for (slot, _) in &found {
            offsets[slot + 1] += 1;
        }
        for slot in 0..nk * n_irrep {
            offsets[slot + 1] += offsets[slot];
        }
        let mut fill = offsets.clone();
        let mut entries = vec![
            PairEntry {
                p: 0,
                r: 0,
                sign: 0,
                to: 0
            };
            found.len()
        ];
        for (slot, entry) in found {
            entries[fill[slot]] = entry;
            fill[slot] += 1;
        }
        for block in offsets.windows(2) {
            entries[block[0]..block[1]].sort_by_key(|e| (e.p, e.r));
        }
        Nm2Families {
            space_k,
            offsets,
            entries,
        }
    }

    /// The N−2 electron string space.
    pub fn space_k(&self) -> &SpinStrings {
        &self.space_k
    }

    /// Number of families (= number of N−2 strings).
    pub fn len(&self) -> usize {
        self.space_k.len()
    }

    /// True when there are no families.
    pub fn is_empty(&self) -> bool {
        self.space_k.is_empty()
    }

    /// The family of N-electron strings reachable from `K` by a pair
    /// creation, i.e. one column of the A (equivalently B) matrix.
    #[inline]
    pub fn of(&self, k: usize) -> &[PairEntry] {
        let g = self.space_k.n_irrep();
        &self.entries[self.offsets[k * g]..self.offsets[(k + 1) * g]]
    }

    /// The members of family `k` whose created pair has irrep
    /// `g_p ⊕ g_r = h`, ordered by (p, r).
    #[inline]
    pub fn block(&self, k: usize, h: u8) -> &[PairEntry] {
        let at = k * self.space_k.n_irrep() + h as usize;
        &self.entries[self.offsets[at]..self.offsets[at + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::{excite, string_from_occ};
    use crate::space::binomial;

    #[test]
    fn singles_count_and_consistency() {
        let space = SpinStrings::c1(5, 2);
        let t = SinglesTable::new(&space);
        // Each string: N·(n−N) moves + N diagonal entries.
        let per = 2 * (5 - 2) + 2;
        let entries: usize = (0..space.len()).map(|j| t.of(j).len()).sum();
        assert_eq!(entries, space.len() * per);
        for j in 0..space.len() {
            for e in t.of(j) {
                let (sign, m) = excite(space.mask(j), e.p as usize, e.q as usize).unwrap();
                assert_eq!(sign, e.sign);
                assert_eq!(space.index_of(m), Some(e.to as usize));
            }
        }
    }

    #[test]
    fn singles_diagonal_entries() {
        let space = SpinStrings::c1(4, 2);
        let t = SinglesTable::new(&space);
        let j = space.index_of(string_from_occ(&[1, 3])).unwrap();
        let diag: Vec<_> = t.of(j).iter().filter(|e| e.p == e.q).collect();
        assert_eq!(diag.len(), 2);
        for e in diag {
            assert_eq!(e.sign, 1);
            assert_eq!(e.to as usize, j);
        }
    }

    #[test]
    fn nm1_family_sizes() {
        let space = SpinStrings::c1(6, 3);
        let f = Nm1Families::new(&space);
        assert_eq!(f.len(), binomial(6, 2));
        let total: usize = (0..f.len()).map(|k| f.of(k).len()).sum();
        // Each N string is reachable from N distinct K's.
        assert_eq!(total, space.len() * 3);
        // Each family has n − (N−1) members.
        for k in 0..f.len() {
            assert_eq!(f.of(k).len(), 6 - 2);
        }
    }

    #[test]
    fn nm1_signs_match_primitive() {
        let space = SpinStrings::c1(5, 3);
        let f = Nm1Families::new(&space);
        for k in 0..f.len() {
            let kmask = f.space_k().mask(k);
            for e in f.of(k) {
                let (sign, imask) = crate::bits::create(kmask, e.p as usize).unwrap();
                assert_eq!(sign, e.sign);
                assert_eq!(space.index_of(imask), Some(e.to as usize));
            }
        }
    }

    #[test]
    fn nm2_family_sizes_and_signs() {
        let space = SpinStrings::c1(6, 3);
        let f = Nm2Families::new(&space);
        assert_eq!(f.len(), binomial(6, 1));
        // Every N string contributes C(N,2) pair removals.
        let entries: usize = (0..f.len()).map(|k| f.block(k, 0).len()).sum();
        assert_eq!(entries, space.len() * binomial(3, 2));
        for k in 0..f.len() {
            let kmask = f.space_k().mask(k);
            for e in f.of(k) {
                assert!(e.p > e.r);
                // ⟨I|a†_p a†_r|K⟩ via the primitives: a†_r then a†_p.
                let (s1, m1) = crate::bits::create(kmask, e.r as usize).unwrap();
                let (s2, imask) = crate::bits::create(m1, e.p as usize).unwrap();
                assert_eq!(s1 * s2, e.sign);
                assert_eq!(space.index_of(imask), Some(e.to as usize));
            }
        }
    }

    #[test]
    fn pair_index_enumeration() {
        assert_eq!(pair_index(1, 0), 0);
        assert_eq!(pair_index(2, 0), 1);
        assert_eq!(pair_index(2, 1), 2);
        assert_eq!(pair_index(3, 0), 3);
        // Bijection onto 0..C(n,2).
        let n = 7;
        let mut seen = vec![false; n * (n - 1) / 2];
        for p in 1..n {
            for r in 0..p {
                let idx = pair_index(p, r);
                assert!(!seen[idx]);
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn nm2_adjoint_is_b_matrix() {
        // B^{K,J}_{qs} = ⟨K| a_s a_q |J⟩ must equal the stored
        // ⟨J| a†_q a†_s |K⟩ (real matrix elements).
        let space = SpinStrings::c1(5, 2);
        let f = Nm2Families::new(&space);
        for k in 0..f.len() {
            for e in f.of(k) {
                let jmask = space.mask(e.to as usize);
                let (s1, m1) = annihilate(jmask, e.p as usize).unwrap();
                let (s2, kmask) = annihilate(m1, e.r as usize).unwrap();
                assert_eq!(kmask, f.space_k().mask(k));
                assert_eq!(s1 * s2, e.sign);
            }
        }
    }

    #[test]
    fn tables_respect_symmetry_ordering() {
        let sym = [0u8, 1, 0, 1, 2];
        let space = SpinStrings::new(5, 2, &sym, 4);
        let f = Nm1Families::new(&space);
        // K strings also sorted by irrep; spot check irrep arithmetic:
        // creating orbital p changes the irrep by XOR orb_sym[p].
        for k in 0..f.len() {
            let gk = f.space_k().irrep_of_index(k);
            for e in f.of(k) {
                let gi = space.irrep_of_index(e.to as usize);
                assert_eq!(gi, gk ^ sym[e.p as usize]);
            }
            // One run per orbital irrep, orbitals ascending inside it.
            let keys: Vec<_> = f.of(k).iter().map(|e| (sym[e.p as usize], e.p)).collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:?}");
        }
    }

    #[test]
    fn nm2_blocks_partition_each_family_by_pair_irrep() {
        let sym = [2u8, 1, 0, 3, 1, 0];
        for (n_irrep, sym) in [(4, sym), (1, [0u8; 6])] {
            let space = SpinStrings::new(6, 3, &sym, n_irrep);
            let f = Nm2Families::new(&space);
            for k in 0..f.len() {
                let mut joined = Vec::new();
                for h in 0..n_irrep as u8 {
                    let block = f.block(k, h);
                    assert!(block
                        .iter()
                        .all(|e| sym[e.p as usize] ^ sym[e.r as usize] == h));
                    assert!(block
                        .windows(2)
                        .all(|w| (w[0].p, w[0].r) < (w[1].p, w[1].r)));
                    joined.extend_from_slice(block);
                }
                assert_eq!(joined, f.of(k));
                assert_eq!(f.of(k).len(), binomial(6 - 1, 2));
            }
        }
    }
}
