//! String spaces: the set of all N-electron occupation strings in n
//! orbitals, sorted into symmetry blocks.

use crate::bits::irrep_of_mask;
use std::collections::HashMap;

/// Binomial coefficient `C(n, k)` as usize (panics on overflow in debug).
pub fn binomial(n: usize, k: usize) -> usize {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut acc: u128 = 1;
    for i in 0..k {
        acc = acc * (n - i) as u128 / (i + 1) as u128;
    }
    acc as usize
}

/// All strings of `n_elec` electrons in `n_orb` orbitals for one spin case,
/// sorted by (irrep, mask) so each irrep block is contiguous.
///
/// The paper distributes the CI coefficient matrix by α-string columns; the
/// contiguous-block ordering here is what makes "each symmetry-blocked
/// matrix is distributed separately" (§3.1) a simple range computation.
#[derive(Clone, Debug)]
pub struct SpinStrings {
    n_orb: usize,
    n_elec: usize,
    n_irrep: usize,
    orb_sym: Vec<u8>,
    strings: Vec<u64>,
    /// `irrep_offsets[g]..irrep_offsets[g+1]` is the index range of irrep g.
    irrep_offsets: Vec<usize>,
    index: HashMap<u64, u32>,
}

impl SpinStrings {
    /// Build the full string space with per-orbital irreps.
    ///
    /// `n_irrep` must be a power of two (1, 2, 4 or 8) and every entry of
    /// `orb_sym` must be below it. Use `n_irrep = 1` / all-zero `orb_sym`
    /// for no symmetry.
    pub fn new(n_orb: usize, n_elec: usize, orb_sym: &[u8], n_irrep: usize) -> Self {
        assert!(n_orb <= 64, "at most 64 orbitals");
        assert!(
            n_elec <= n_orb,
            "cannot place {n_elec} electrons in {n_orb} orbitals"
        );
        assert!(
            matches!(n_irrep, 1 | 2 | 4 | 8),
            "n_irrep must be 1, 2, 4 or 8"
        );
        assert_eq!(orb_sym.len(), n_orb, "orb_sym length must equal n_orb");
        assert!(
            orb_sym.iter().all(|&g| (g as usize) < n_irrep),
            "orbital irrep out of range"
        );

        // Enumerate all C(n_orb, n_elec) masks in ascending mask order via
        // Gosper's hack, bucketing by irrep.
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); n_irrep];
        if n_elec == 0 {
            buckets[0].push(0);
        } else {
            let mut v: u64 = (1u64 << n_elec) - 1;
            let limit: u64 = if n_orb == 64 {
                u64::MAX
            } else {
                (1u64 << n_orb) - 1
            };
            loop {
                buckets[irrep_of_mask(v, orb_sym) as usize].push(v);
                if v == 0 {
                    break;
                }
                // Gosper: next mask with the same popcount.
                let c = v & v.wrapping_neg();
                let r = v + c;
                if r > limit || r < v {
                    break;
                }
                v = (((r ^ v) >> 2) / c) | r;
            }
        }

        let mut strings = Vec::with_capacity(binomial(n_orb, n_elec));
        let mut irrep_offsets = Vec::with_capacity(n_irrep + 1);
        irrep_offsets.push(0);
        for b in &buckets {
            strings.extend_from_slice(b);
            irrep_offsets.push(strings.len());
        }
        let index: HashMap<u64, u32> = strings
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, i as u32))
            .collect();
        SpinStrings {
            n_orb,
            n_elec,
            n_irrep,
            orb_sym: orb_sym.to_vec(),
            strings,
            irrep_offsets,
            index,
        }
    }

    /// Convenience constructor without symmetry.
    pub fn c1(n_orb: usize, n_elec: usize) -> Self {
        Self::new(n_orb, n_elec, &vec![0u8; n_orb], 1)
    }

    /// Number of orbitals.
    pub fn n_orb(&self) -> usize {
        self.n_orb
    }

    /// Number of electrons.
    pub fn n_elec(&self) -> usize {
        self.n_elec
    }

    /// Number of irreps (1, 2, 4 or 8).
    pub fn n_irrep(&self) -> usize {
        self.n_irrep
    }

    /// Irrep label of each orbital.
    pub fn orb_sym(&self) -> &[u8] {
        &self.orb_sym
    }

    /// Total number of strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// True when the space holds no strings.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The mask of string `i`.
    #[inline]
    pub fn mask(&self, i: usize) -> u64 {
        self.strings[i]
    }

    /// Global index of a mask, if it belongs to this space.
    #[inline]
    pub fn index_of(&self, mask: u64) -> Option<usize> {
        self.index.get(&mask).map(|&i| i as usize)
    }

    /// Irrep of string `i` (by its block).
    pub fn irrep_of_index(&self, i: usize) -> u8 {
        debug_assert!(i < self.len());
        // Blocks are few; linear scan is fine.
        for g in 0..self.n_irrep {
            if i < self.irrep_offsets[g + 1] {
                return g as u8;
            }
        }
        unreachable!("index beyond last block")
    }

    /// Irrep of an arbitrary mask under this space's orbital symmetry.
    pub fn irrep_of_mask(&self, mask: u64) -> u8 {
        irrep_of_mask(mask, &self.orb_sym)
    }

    /// Index range (start..end) of the block with irrep `g`.
    pub fn block_range(&self, g: u8) -> std::ops::Range<usize> {
        let g = g as usize;
        assert!(g < self.n_irrep);
        self.irrep_offsets[g]..self.irrep_offsets[g + 1]
    }

    /// Number of strings in irrep block `g`.
    pub fn block_len(&self, g: u8) -> usize {
        let r = self.block_range(g);
        r.end - r.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::string_from_occ;

    #[test]
    fn binomial_values() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 10), 1);
        assert_eq!(binomial(10, 11), 0);
        assert_eq!(binomial(66, 4), 720_720);
        assert_eq!(binomial(64, 32), 1_832_624_140_942_590_534);
    }

    #[test]
    fn c1_space_counts() {
        let s = SpinStrings::c1(6, 3);
        assert_eq!(s.len(), binomial(6, 3));
        // Every mask has 3 bits within the first 6 orbitals.
        for i in 0..s.len() {
            let m = s.mask(i);
            assert_eq!(m.count_ones(), 3);
            assert!(m < (1 << 6));
            assert_eq!(s.index_of(m), Some(i));
        }
    }

    #[test]
    fn zero_electrons() {
        let s = SpinStrings::c1(4, 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.mask(0), 0);
        assert_eq!(s.index_of(0), Some(0));
    }

    #[test]
    fn all_orbitals_filled() {
        let s = SpinStrings::c1(5, 5);
        assert_eq!(s.len(), 1);
        assert_eq!(s.mask(0), 0b11111);
    }

    #[test]
    fn symmetry_blocks_partition() {
        // 6 orbitals with C2v-style irreps.
        let sym = [0u8, 0, 1, 1, 2, 3];
        let s = SpinStrings::new(6, 2, &sym, 4);
        assert_eq!(s.len(), binomial(6, 2));
        let mut total = 0;
        for g in 0..4u8 {
            let r = s.block_range(g);
            total += r.len();
            for i in r {
                assert_eq!(s.irrep_of_mask(s.mask(i)), g);
                assert_eq!(s.irrep_of_index(i), g);
            }
        }
        assert_eq!(total, s.len());
    }

    #[test]
    fn symmetry_block_contents() {
        let sym = [0u8, 1];
        let s = SpinStrings::new(2, 1, &sym, 2);
        // Irrep 0: orbital 0; irrep 1: orbital 1.
        assert_eq!(s.block_len(0), 1);
        assert_eq!(s.block_len(1), 1);
        assert_eq!(s.mask(s.block_range(0).start), string_from_occ(&[0]));
        assert_eq!(s.mask(s.block_range(1).start), string_from_occ(&[1]));
    }

    #[test]
    fn index_of_foreign_mask_is_none() {
        let s = SpinStrings::c1(4, 2);
        assert_eq!(s.index_of(0b111), None); // wrong popcount
        assert_eq!(s.index_of(1 << 10), None); // out of orbital range
    }

    #[test]
    fn boundary_orbital_count() {
        // n_orb == n bits edge: make sure Gosper terminates at the limit.
        let s = SpinStrings::c1(8, 7);
        assert_eq!(s.len(), 8);
    }
}
