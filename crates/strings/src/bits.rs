//! Bit-mask strings and fermionic phase conventions.
//!
//! A string `|J⟩` with occupied orbitals `j1 < j2 < … < jN` denotes the
//! ordered product of creation operators
//!
//! ```text
//! |J⟩ = a†_{j1} a†_{j2} … a†_{jN} |vac⟩
//! ```
//!
//! With that convention:
//!
//! * `a_q |J⟩ = (−1)^{#occ(J) below q} |J ∖ q⟩` if `q ∈ J`, else 0;
//! * `a†_p |J⟩ = (−1)^{#occ(J) below p} |J ∪ p⟩` if `p ∉ J`, else 0.
//!
//! Everything else (excitation operators, pair creations) composes from
//! these two primitives, so signs are correct by construction.

/// Build the mask with the given occupied orbitals.
///
/// Panics (debug) on duplicate orbitals or orbitals ≥ 64.
#[cfg(test)]
pub(crate) fn string_from_occ(occ: &[usize]) -> u64 {
    let mut m = 0u64;
    for &p in occ {
        debug_assert!(p < 64, "orbital index out of range");
        debug_assert!(m & (1u64 << p) == 0, "duplicate orbital in occupation list");
        m |= 1u64 << p;
    }
    m
}

/// Number of occupied orbitals strictly below `p`.
#[inline(always)]
fn count_below(mask: u64, p: usize) -> u32 {
    (mask & ((1u64 << p) - 1)).count_ones()
}

/// Apply `a_q` to the string: returns `(sign, new_mask)`, or `None` if
/// orbital `q` is unoccupied.
#[inline]
pub fn annihilate(mask: u64, q: usize) -> Option<(i8, u64)> {
    if mask & (1u64 << q) == 0 {
        return None;
    }
    let sign = if count_below(mask, q).is_multiple_of(2) {
        1
    } else {
        -1
    };
    Some((sign, mask & !(1u64 << q)))
}

/// Apply `a†_p` to the string: returns `(sign, new_mask)`, or `None` if
/// orbital `p` is already occupied.
#[inline]
pub fn create(mask: u64, p: usize) -> Option<(i8, u64)> {
    if mask & (1u64 << p) != 0 {
        return None;
    }
    let sign = if count_below(mask, p).is_multiple_of(2) {
        1
    } else {
        -1
    };
    Some((sign, mask | (1u64 << p)))
}

/// Apply the excitation operator `E_pq = a†_p a_q`:
/// returns `(sign, new_mask)` or `None` if it annihilates the string.
///
/// Note `E_pp |J⟩ = |J⟩` when p is occupied (occupation-number operator).
#[cfg(test)]
pub(crate) fn excite(mask: u64, p: usize, q: usize) -> Option<(i8, u64)> {
    let (s1, m1) = annihilate(mask, q)?;
    let (s2, m2) = create(m1, p)?;
    Some((s1 * s2, m2))
}

/// Irrep (XOR product) of a string given per-orbital irreps.
///
/// Abelian point groups up to D2h have irreps labelled 0..8 with the group
/// product equal to bitwise XOR of the labels, so a string's irrep is the
/// XOR over its occupied orbitals.
pub fn irrep_of_mask(mask: u64, orb_sym: &[u8]) -> u8 {
    let mut g = 0u8;
    let mut m = mask;
    while m != 0 {
        let p = m.trailing_zeros() as usize;
        g ^= orb_sym[p];
        m &= m - 1;
    }
    g
}

/// Ascending set bits of a mask, as orbital labels: [`occ_list`] without
/// the `Vec`. The field is the bits not yet yielded.
pub struct Bits(pub u64);

impl Iterator for Bits {
    type Item = u8;

    #[inline]
    fn next(&mut self) -> Option<u8> {
        if self.0 == 0 {
            return None;
        }
        let p = self.0.trailing_zeros() as u8;
        self.0 &= self.0 - 1;
        Some(p)
    }
}

/// Occupied orbital indices in ascending order.
pub fn occ_list(mask: u64) -> Vec<usize> {
    let mut v = Vec::with_capacity(mask.count_ones() as usize);
    let mut m = mask;
    while m != 0 {
        v.push(m.trailing_zeros() as usize);
        m &= m - 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_list() {
        let m = string_from_occ(&[0, 2, 5]);
        assert_eq!(m, 0b100101);
        assert_eq!(occ_list(m), vec![0, 2, 5]);
    }

    #[test]
    fn annihilate_signs() {
        // |0,2,5⟩ = a†0 a†2 a†5 |vac⟩
        let m = string_from_occ(&[0, 2, 5]);
        // a_0: no occupied below 0 -> +
        assert_eq!(annihilate(m, 0), Some((1, string_from_occ(&[2, 5]))));
        // a_2: one occupied below (0) -> −
        assert_eq!(annihilate(m, 2), Some((-1, string_from_occ(&[0, 5]))));
        // a_5: two below -> +
        assert_eq!(annihilate(m, 5), Some((1, string_from_occ(&[0, 2]))));
        // unoccupied orbital
        assert_eq!(annihilate(m, 1), None);
    }

    #[test]
    fn create_signs() {
        let m = string_from_occ(&[1, 3]);
        assert_eq!(create(m, 0), Some((1, string_from_occ(&[0, 1, 3]))));
        assert_eq!(create(m, 2), Some((-1, string_from_occ(&[1, 2, 3]))));
        assert_eq!(create(m, 5), Some((1, string_from_occ(&[1, 3, 5]))));
        assert_eq!(create(m, 1), None);
    }

    #[test]
    fn create_annihilate_inverse() {
        // a†_p a_p |J⟩ = |J⟩ when p occupied (number operator), and the
        // signs from the two primitives must cancel.
        let m = string_from_occ(&[1, 4, 6, 9]);
        for p in [1usize, 4, 6, 9] {
            let (s1, m1) = annihilate(m, p).unwrap();
            let (s2, m2) = create(m1, p).unwrap();
            assert_eq!(m2, m);
            assert_eq!(s1 * s2, 1);
        }
    }

    #[test]
    fn excite_identity_and_moves() {
        let m = string_from_occ(&[0, 3]);
        // E_pp = n_p
        assert_eq!(excite(m, 3, 3), Some((1, m)));
        assert_eq!(excite(m, 1, 1), None);
        // E_13: remove 3 (one below: 0 -> sign −), add 1 (one below -> −): net +
        assert_eq!(excite(m, 1, 3), Some((1, string_from_occ(&[0, 1]))));
        // blocked: target occupied
        assert_eq!(excite(m, 0, 3), None);
    }

    #[test]
    fn anticommutation() {
        // a†_p a†_r = − a†_r a†_p for p ≠ r, applied to any string where
        // both are empty.
        let m = string_from_occ(&[2]);
        let (p, r) = (5usize, 0usize);
        let (s1, m1) = create(m, r).unwrap();
        let (s2, m2) = create(m1, p).unwrap();
        let (t1, k1) = create(m, p).unwrap();
        let (t2, k2) = create(k1, r).unwrap();
        assert_eq!(m2, k2);
        assert_eq!(s1 * s2, -(t1 * t2));
    }

    #[test]
    fn irrep_xor() {
        // C2v-ish labels: orbital irreps [0,1,2,3,0]
        let sym = [0u8, 1, 2, 3, 0];
        assert_eq!(irrep_of_mask(string_from_occ(&[0, 4]), &sym), 0);
        assert_eq!(irrep_of_mask(string_from_occ(&[1, 2]), &sym), 3);
        assert_eq!(irrep_of_mask(string_from_occ(&[1, 2, 3]), &sym), 0);
        assert_eq!(irrep_of_mask(0, &sym), 0);
    }
}
