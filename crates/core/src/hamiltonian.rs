//! The second-quantized Hamiltonian in the forms the σ kernels consume.
//!
//! The spin-free Hamiltonian (paper eq. 2) decomposes exactly (by normal
//! ordering within each spin) into
//!
//! ```text
//! H = E_core
//!   + Σ_pq h_pq (E^α_pq + E^β_pq)                       (one-electron)
//!   + Σ_{p>r, q>s} G_{(pr),(qs)} a†_p a†_r a_s a_q       (αα and ββ)
//!   + Σ_{pqrs} (pq|rs) E^α_pq E^β_rs                     (αβ)
//! ```
//!
//! with `G_{(pr),(qs)} = (pq|rs) − (ps|rq)`. This module materializes the
//! dense coupling matrices those kernels multiply against:
//!
//! * [`Hamiltonian::g`] — the antisymmetrized pair–pair matrix **G**
//!   (`npair × npair`) used by the same-spin DGEMM routine (paper eq. 8),
//! * [`Hamiltonian::v`] — the full `(pq)×(rs)` integral matrix **V** used
//!   by the mixed-spin routine (paper eq. 5),
//!
//! plus diagonal elements for preconditioning.
//!
//! Totally symmetric integrals make both matrices block-diagonal in the
//! pair irrep `h = g_p ⊕ g_r = g_q ⊕ g_s`. The DGEMM kernels multiply
//! only those blocks: `Ĝ_hh` is cut out of **G** once, here, and the
//! `V_hh` of a mixed-spin family is filled from the per-irrep orbital
//! masks kept beside it. **G** and **V** are read-only after
//! construction so that the blocks cannot diverge from their source.
//!
//! Integrals that are zero *by value* are screened here too, once: a pair
//! whose row of **G** (or of **V**) holds nothing but exact `0.0` is
//! *screened*, and the kernels gather, multiply and scatter only the
//! others. `Ĝ_hh` is kept compacted to its unscreened pairs; the
//! mixed-spin kernel reads the unscreened `(p, r)` of **V** from
//! `Hamiltonian::v_pairs`. There is no threshold: a molecule's `(pp|rr)`
//! and `(pr|pr) − (pr|rp)` are positive, so every one of its pairs stays,
//! while a Hubbard chain screens all of **G** and all but `(p, p)` of **V**.

use fci_ints::EriTensor;
use fci_linalg::Matrix;
use fci_scf::MoIntegrals;
use fci_strings::{pair_index, Bits};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique Hamiltonian identity counter (see [`Hamiltonian::id`]).
static NEXT_HAM_ID: AtomicU64 = AtomicU64::new(1);

/// Hamiltonian data over an active orbital set.
#[derive(Debug)]
pub struct Hamiltonian {
    /// Number of active orbitals.
    pub n: usize,
    /// Core constant (nuclear repulsion + frozen core).
    pub e_core: f64,
    /// One-electron integrals `h_pq`.
    pub h: Matrix,
    /// Raw two-electron integrals `(pq|rs)` (kept for Slater–Condon).
    pub eri: EriTensor,
    /// See [`Hamiltonian::v`].
    v: Matrix,
    /// See [`Hamiltonian::g`].
    g: Matrix,
    /// Irrep of each orbital.
    pub orb_sym: Vec<u8>,
    /// Number of irreps.
    pub n_irrep: usize,
    /// Block tables derived from `g` and `orb_sym`.
    blocks: SymBlocks,
    /// Process-unique identity token (see [`Hamiltonian::id`]).
    id: u64,
}

/// What the blocked σ kernels read of the point group and of the
/// screen: orbitals and orbital pairs grouped by irrep, the unscreened
/// pairs, and the diagonal blocks of **G** over them. With one irrep and
/// nothing screened every list is the identity and `Ĝ_00` is **G**.
#[derive(Clone, Debug)]
struct SymBlocks {
    /// Position of each pair (by [`pair_index`]) among the unscreened
    /// pairs of its irrep `g_p ⊕ g_r`, which are kept in `pair_index`
    /// order; [`SCREENED`] for a pair whose row of **G** is all zero.
    pair_pos: Vec<u32>,
    /// Pairs of each irrep, screened ones included: the shape the
    /// simulated machine multiplies.
    pairs_per_irrep: Vec<usize>,
    /// `Ĝ_hh` over the unscreened pairs, one per pair irrep.
    g_blocks: Vec<Matrix>,
    /// Bit `r` of `v_pairs[p]`: some `(pq|rs)` is non-zero.
    v_pairs: Vec<u64>,
    /// Bit `p` of `irrep_mask[g]`: orbital `p` has irrep `g`.
    irrep_mask: Vec<u64>,
}

/// [`Hamiltonian::pair_pos`] of a pair whose row of **G** is all zero.
pub(crate) const SCREENED: u32 = u32::MAX;

impl SymBlocks {
    fn new(g: &Matrix, v: &Matrix, orb_sym: &[u8], n_irrep: usize) -> Self {
        let n = orb_sym.len();
        // A pair is screened when its column of G is exact zeros; G is
        // exactly symmetric (EriTensor keeps one value per 8-fold class),
        // so then its row is too. `x << 1` drops the sign bit: the fold is
        // non-zero iff some `x != 0.0`, and it vectorizes.
        let npair = g.nrows();
        let nonzero = |xs: &[f64]| xs.iter().fold(0, |acc, x| acc | x.to_bits() << 1) != 0;
        let active: Vec<bool> = g
            .as_slice()
            .chunks_exact(npair.max(1))
            .map(nonzero)
            .collect();
        // Unscreened pairs of each irrep, in pair_index order.
        let mut pairs: Vec<Vec<usize>> = vec![Vec::new(); n_irrep];
        let mut pairs_per_irrep = vec![0usize; n_irrep];
        let mut pair_pos = vec![SCREENED; npair];
        for p in 1..n {
            for r in 0..p {
                let h = (orb_sym[p] ^ orb_sym[r]) as usize;
                pairs_per_irrep[h] += 1;
                let at = pair_index(p, r);
                if active[at] {
                    pair_pos[at] = pairs[h].len() as u32;
                    pairs[h].push(at);
                }
            }
        }
        let g_blocks = pairs
            .iter()
            .map(|ph| Matrix::from_fn(ph.len(), ph.len(), |i, j| g[(ph[i], ph[j])]))
            .collect();
        // V[(p·n + q), (r·n + s)] = (pq|rs), and (pq|rs) = (qp|sr): the pairs
        // (p, r) with a non-zero row of V are also those with a non-zero
        // column. Column (r, s) of V holds (pq|rs) for one p per run of n.
        let mut v_pairs = vec![0u64; n];
        for (col, vcol) in v.as_slice().chunks_exact(n * n).enumerate() {
            for (row, qs) in v_pairs.iter_mut().zip(vcol.chunks_exact(n)) {
                *row |= u64::from(nonzero(qs)) << (col / n);
            }
        }
        let mut irrep_mask = vec![0u64; n_irrep];
        for (p, &g) in orb_sym.iter().enumerate() {
            irrep_mask[g as usize] |= 1 << p;
        }
        SymBlocks {
            pair_pos,
            pairs_per_irrep,
            g_blocks,
            v_pairs,
            irrep_mask,
        }
    }
}

impl Clone for Hamiltonian {
    /// A clone is a *different* Hamiltonian as far as `fci_sparse`'s
    /// `ConnGen` is concerned: it gets a fresh [`Hamiltonian::id`],
    /// because its integrals are separate storage the caller may mutate
    /// independently of the original.
    fn clone(&self) -> Self {
        Hamiltonian {
            n: self.n,
            e_core: self.e_core,
            h: self.h.clone(),
            eri: self.eri.clone(),
            v: self.v.clone(),
            g: self.g.clone(),
            orb_sym: self.orb_sym.clone(),
            n_irrep: self.n_irrep,
            blocks: self.blocks.clone(),
            id: NEXT_HAM_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

impl Hamiltonian {
    /// Process-unique identity token, assigned at construction (clones
    /// included). Its one user is `fci_sparse`'s `ConnGen`, which keys
    /// the coupling tables it derives from the integrals on it and
    /// rebuilds them when handed another (or a cloned) Hamiltonian. The
    /// σ kernels keep nothing across calls and do not read it.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Build from MO integrals.
    pub fn new(mo: &MoIntegrals) -> Self {
        let n = mo.n_orb;
        let v = Matrix::from_fn(n * n, n * n, |row, col| {
            let (p, q) = (row / n, row % n);
            let (r, s) = (col / n, col % n);
            mo.eri.get(p, q, r, s)
        });
        let npair = n * (n - 1) / 2;
        let mut g = Matrix::zeros(npair, npair);
        for p in 1..n {
            for r in 0..p {
                let row = pair_index(p, r);
                for q in 1..n {
                    for s in 0..q {
                        g[(row, pair_index(q, s))] =
                            mo.eri.get(p, q, r, s) - mo.eri.get(p, s, r, q);
                    }
                }
            }
        }
        Hamiltonian {
            n,
            e_core: mo.e_core,
            h: mo.h.clone(),
            eri: mo.eri.clone(),
            blocks: SymBlocks::new(&g, &v, &mo.orb_sym, mo.n_irrep),
            v,
            g,
            orb_sym: mo.orb_sym.clone(),
            n_irrep: mo.n_irrep,
            id: NEXT_HAM_ID.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Mixed-spin integral matrix `V[(p·n+q), (r·n+s)] = (pq|rs)`.
    pub fn v(&self) -> &Matrix {
        &self.v
    }

    /// Same-spin antisymmetrized pair matrix
    /// `G[pair(p,r), pair(q,s)] = (pq|rs) − (ps|rq)`, `p>r`, `q>s`.
    pub fn g(&self) -> &Matrix {
        &self.g
    }

    /// `Ĝ_hh`: the rows and columns of **G** whose pairs have irrep
    /// `g_p ⊕ g_r = h` and are not screened, in [`pair_index`] order.
    pub(crate) fn g_block(&self, h: u8) -> &Matrix {
        &self.blocks.g_blocks[h as usize]
    }

    /// Row (and column) of each pair, by [`pair_index`], inside the
    /// [`Hamiltonian::g_block`] of its irrep, or [`SCREENED`].
    pub(crate) fn pair_pos(&self) -> &[u32] {
        &self.blocks.pair_pos
    }

    /// Pairs of irrep `h`, screened ones included.
    pub(crate) fn pairs_of_irrep(&self, h: u8) -> usize {
        self.blocks.pairs_per_irrep[h as usize]
    }

    /// The orbitals `r` (bit `r`) for which some `(pq|rs)` is non-zero:
    /// the unscreened pairs `(p, r)` of **V**.
    pub(crate) fn v_pairs(&self, p: usize) -> u64 {
        self.blocks.v_pairs[p]
    }

    /// The orbitals of irrep `g` as a bit mask.
    pub(crate) fn irrep_mask(&self, g: u8) -> u64 {
        self.blocks.irrep_mask[g as usize]
    }

    /// Diagonal element `⟨D|H|D⟩ − E_core` for the determinant with α
    /// occupation `amask` and β occupation `bmask`.
    pub fn diagonal_element(&self, amask: u64, bmask: u64) -> f64 {
        let occ = |mask| Bits(mask).map(usize::from);
        let mut e = 0.0;
        for p in occ(amask).chain(occ(bmask)) {
            e += self.h[(p, p)];
        }
        // Same-spin pairs.
        for mask in [amask, bmask] {
            let mut above = Bits(mask);
            while let Some(p) = above.next() {
                let p = usize::from(p);
                for q in occ(above.0) {
                    e += self.eri.get(p, p, q, q) - self.eri.get(p, q, q, p);
                }
            }
        }
        // Opposite-spin pairs.
        for p in occ(amask) {
            for q in occ(bmask) {
                e += self.eri.get(p, p, q, q);
            }
        }
        e
    }
}

/// A synthetic Hamiltonian with random but *physically structured*
/// integrals: an ascending orbital-energy ladder on the diagonal with
/// weaker random couplings and two-electron terms — the single-reference
/// character of a molecule near equilibrium. Used by tests both for
/// σ-algorithm equivalence (structure-independent) and for diagonalizer
/// convergence (which, as in real FCI codes, presumes a dominant
/// reference determinant; see [`crate::diag`]).
pub fn random_hamiltonian(n: usize, seed: u64) -> Hamiltonian {
    random_symmetric_hamiltonian(n, seed, &vec![0; n], 1)
}

/// [`random_hamiltonian`] under an (artificial) point group: the same
/// random stream with every symmetry-forbidden integral — `h_pq` with
/// `g_p ≠ g_q`, `(pq|rs)` with `g_p ⊕ g_q ⊕ g_r ⊕ g_s ≠ 0` — left exactly
/// zero, so that H commutes with the symmetry and its sectors decouple.
pub fn random_symmetric_hamiltonian(
    n: usize,
    seed: u64,
    orb_sym: &[u8],
    n_irrep: usize,
) -> Hamiltonian {
    assert_eq!(orb_sym.len(), n);
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    };
    let mut h = Matrix::zeros(n, n);
    for p in 0..n {
        for q in 0..=p {
            let v = 0.25 * next();
            if orb_sym[p] == orb_sym[q] {
                h[(p, q)] = v;
                h[(q, p)] = v;
            }
        }
        // Orbital-energy ladder: the lowest determinant dominates.
        h[(p, p)] = -2.0 + 1.5 * p as f64 + 0.3 * next();
    }
    let mut eri = EriTensor::zeros(n);
    for p in 0..n {
        for q in 0..=p {
            for r in 0..=p {
                let smax = if r == p { q } else { r };
                for s in 0..=smax {
                    let v = 0.3 * next();
                    if orb_sym[p] ^ orb_sym[q] ^ orb_sym[r] ^ orb_sym[s] == 0 {
                        eri.set(p, q, r, s, v);
                    }
                }
            }
        }
    }
    let mo = MoIntegrals {
        n_orb: n,
        h,
        eri,
        e_core: 0.0,
        orb_sym: orb_sym.to_vec(),
        n_irrep,
    };
    Hamiltonian::new(&mo)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v_matrix_symmetries() {
        let ham = random_hamiltonian(4, 7);
        let n = 4;
        for p in 0..n {
            for q in 0..n {
                for r in 0..n {
                    for s in 0..n {
                        let v = ham.v[(p * n + q, r * n + s)];
                        // (pq|rs) = (qp|rs) = (pq|sr) = (rs|pq)
                        assert_eq!(v, ham.v[(q * n + p, r * n + s)]);
                        assert_eq!(v, ham.v[(p * n + q, s * n + r)]);
                        assert_eq!(v, ham.v[(r * n + s, p * n + q)]);
                    }
                }
            }
        }
    }

    #[test]
    fn g_matrix_antisymmetrized() {
        let ham = random_hamiltonian(5, 3);
        // G[(p,r),(q,s)] = (pq|rs) − (ps|rq)
        let (p, r, q, s) = (3usize, 1usize, 4usize, 0usize);
        let expect = ham.eri.get(p, q, r, s) - ham.eri.get(p, s, r, q);
        assert_eq!(ham.g[(pair_index(p, r), pair_index(q, s))], expect);
        // Swapping both pairs (Hermiticity of the real operator):
        // G[(q,s),(p,r)] = (qp|sr) − (qr|sp) = (pq|rs) − (ps|rq)? Only when
        // the exchange term matches: (qr|sp) = (rq|ps) = (ps|rq)? yes by
        // full 8-fold symmetry of real integrals.
        assert!((ham.g[(pair_index(q, s), pair_index(p, r))] - expect).abs() < 1e-15);
    }

    #[test]
    fn diagonal_two_electron_count() {
        // For a two-α-electron determinant in orbitals {0,1}:
        // E = h00 + h11 + (00|11) − (01|10).
        let ham = random_hamiltonian(3, 11);
        let amask = 0b011u64;
        let e = ham.diagonal_element(amask, 0);
        let expect =
            ham.h[(0, 0)] + ham.h[(1, 1)] + ham.eri.get(0, 0, 1, 1) - ham.eri.get(0, 1, 1, 0);
        assert!((e - expect).abs() < 1e-15);
    }

    #[test]
    fn diagonal_mixed_spin_no_exchange() {
        // One α in 0, one β in 1: E = h00 + h11 + (00|11), no exchange.
        let ham = random_hamiltonian(3, 13);
        let e = ham.diagonal_element(0b001, 0b010);
        let expect = ham.h[(0, 0)] + ham.h[(1, 1)] + ham.eri.get(0, 0, 1, 1);
        assert!((e - expect).abs() < 1e-15);
    }

    #[test]
    fn random_hamiltonian_is_reproducible() {
        let a = random_hamiltonian(4, 42);
        let b = random_hamiltonian(4, 42);
        assert_eq!(a.h, b.h);
        assert!(a.v.max_abs_diff(&b.v) == 0.0);
    }

    #[test]
    fn one_irrep_is_one_block_and_the_identity_lists() {
        let ham = random_hamiltonian(5, 3);
        assert_eq!(ham.g_block(0), ham.g());
        assert_eq!(ham.irrep_mask(0), 0b11111);
        assert_eq!(ham.pairs_of_irrep(0), 10);
        assert!(ham.pair_pos().iter().copied().eq(0..10));
        assert!((0..5).all(|p| ham.v_pairs(p) == 0b11111));
    }

    #[test]
    fn g_blocks_tile_the_nonzero_part_of_g() {
        // Unsorted labels over four irreps, one of them (2) unused.
        let sym = [3u8, 0, 1, 0, 3, 1];
        let ham = random_symmetric_hamiltonian(6, 5, &sym, 4);
        assert_eq!(ham.irrep_mask(0), 0b001010);
        assert_eq!(ham.irrep_mask(2), 0);
        assert_eq!(ham.irrep_mask(3), 0b010001);
        let pair_irrep = |idx: usize| {
            let (p, r) = (1..6)
                .flat_map(|p| (0..p).map(move |r| (p, r)))
                .find(|&(p, r)| pair_index(p, r) == idx)
                .unwrap();
            sym[p] ^ sym[r]
        };
        let mut covered = 0;
        let npair = ham.n * (ham.n - 1) / 2;
        for row in 0..npair {
            for col in 0..npair {
                let (hr, hc) = (pair_irrep(row), pair_irrep(col));
                if hr == hc {
                    let (i, j) = (ham.pair_pos()[row], ham.pair_pos()[col]);
                    assert_eq!(ham.g_block(hr)[(i as usize, j as usize)], ham.g[(row, col)]);
                    covered += 1;
                } else {
                    assert_eq!(ham.g[(row, col)], 0.0);
                }
            }
        }
        let tiled: usize = (0..4).map(|h| ham.g_block(h).len()).sum();
        assert_eq!(covered, tiled);
        // Random integrals screen nothing.
        assert!((0..4).all(|h| ham.g_block(h).nrows() == ham.pairs_of_irrep(h)));
        // The forbidden one- and two-electron integrals are exact zeros.
        assert_eq!(ham.h[(0, 1)], 0.0);
        assert!(ham.h[(0, 4)] != 0.0);
        assert_eq!(ham.eri.get(0, 1, 2, 3), 0.0);
        assert!(ham.eri.get(0, 4, 1, 3) != 0.0);
    }

    /// A Hubbard chain's only two-electron integral is `(pp|pp) = U`: **G**
    /// is all zero, so every pair is screened from it, and of **V** only
    /// the pairs `(p, p)` stay.
    #[test]
    fn hubbard_screens_all_of_g_and_all_but_the_diagonal_of_v() {
        for periodic in [false, true] {
            let ham = Hamiltonian::new(&MoIntegrals::hubbard_chain(6, 1.0, 4.0, periodic));
            assert_eq!(ham.g_block(0).nrows(), 0);
            assert_eq!(ham.pairs_of_irrep(0), 15);
            assert!(ham.pair_pos().iter().all(|&at| at == SCREENED));
            assert!((0..6).all(|p| ham.v_pairs(p) == 1 << p));
        }
    }

    /// Zeroing every `(pq|rs)` of one pair `(p, r)` screens exactly that
    /// pair from **V**, and — as `(pq|rs) − (ps|rq)` then vanishes — from
    /// **G**; `Ĝ` keeps the other pairs in `pair_index` order.
    #[test]
    fn a_planted_zero_pair_is_screened_from_g_and_v() {
        let dense = random_hamiltonian(5, 9);
        let (p, r) = (3, 1);
        let mut mo = MoIntegrals {
            n_orb: 5,
            h: dense.h.clone(),
            eri: dense.eri.clone(),
            e_core: 0.0,
            orb_sym: vec![0; 5],
            n_irrep: 1,
        };
        for q in 0..5 {
            for s in 0..5 {
                mo.eri.set(p, q, r, s, 0.0);
            }
        }
        let ham = Hamiltonian::new(&mo);
        for a in 0..5 {
            let want = if a == p {
                0b11111 & !(1 << r)
            } else if a == r {
                0b11111 & !(1 << p)
            } else {
                0b11111
            };
            assert_eq!(ham.v_pairs(a), want, "orbital {a}");
        }
        let screened = pair_index(p, r);
        assert_eq!(ham.pair_pos()[screened], SCREENED);
        assert_eq!(ham.g_block(0).nrows(), 9);
        for (i, &at) in ham.pair_pos().iter().enumerate() {
            if i == screened {
                continue;
            }
            let at = at as usize;
            assert_eq!(at, i - usize::from(i > screened));
            for (j, &bt) in ham.pair_pos().iter().enumerate() {
                if j != screened {
                    assert_eq!(ham.g_block(0)[(at, bt as usize)], ham.g[(i, j)]);
                }
            }
        }
    }

    #[test]
    fn ids_are_unique_including_clones() {
        let a = random_hamiltonian(3, 1);
        let b = random_hamiltonian(3, 1);
        let c = a.clone();
        assert_ne!(a.id(), b.id());
        assert_ne!(a.id(), c.id());
        assert_ne!(b.id(), c.id());
    }
}
