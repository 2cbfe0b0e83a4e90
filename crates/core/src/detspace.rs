//! The determinant (product) space and its coupling tables.
//!
//! The FCI coefficient vector is a matrix `C(Iβ, Iα)` — rows indexed by β
//! strings, columns by α strings — distributed by columns (paper §3.1,
//! Fig. 1). Strings are sorted by (irrep, mask), so the determinants of
//! the target irrep are the blocks `(g_β, g_α)` with `g_α ⊕ g_β = target`:
//! column `Iα` is in the sector on one contiguous range of rows, the β
//! strings of irrep `g_Iα ⊕ target`.
//!
//! The paper stores the vector blocked by symmetry and works block by
//! block, and so does fcix: a CI vector ([`DetSpace::zeros_ci`]) stores
//! only those rows of each column (a [`Layout`] built from the strings'
//! irrep blocks), which on a D2h molecule is an eighth of the β × α
//! product. Dot products, axpys, transposes, GET, ACC and checkpoints
//! move the sector and nothing else, and the DGEMM σ kernels
//! ([`crate::sigma`]) multiply its blocks only — a fifty-eighth of the
//! unblocked multiply-adds. With one irrep the layout is the full matrix.
//! A truncated-CI [`ExcitationFilter`] further excludes determinants
//! inside the stored blocks; [`DetSpace::project_sector`] zeroes those.

use crate::hamiltonian::Hamiltonian;
use fci_ddi::{DistMatrix, Layout};
use fci_strings::{CreationLists, Nm1Families, Nm2Families, SinglesTable, SpinStrings};
use std::ops::Range;
use std::sync::Arc;

/// Excitation-level restriction relative to a reference determinant —
/// turns the solver into truncated CI (CISD, CISDT, …) while reusing the
/// full-space σ machinery (the subspace eigenproblem is `P·H·P` with the
/// projector applied after each σ evaluation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExcitationFilter {
    /// Reference α occupation mask.
    pub ref_alpha: u64,
    /// Reference β occupation mask.
    pub ref_beta: u64,
    /// Maximum total excitation level (2 = CISD, 3 = CISDT, …).
    pub max_level: u32,
}

impl ExcitationFilter {
    /// Combined excitation degree of a determinant w.r.t. the reference.
    #[inline]
    pub fn level(&self, amask: u64, bmask: u64) -> u32 {
        ((amask ^ self.ref_alpha).count_ones() + (bmask ^ self.ref_beta).count_ones()) / 2
    }
}

/// String spaces and coupling tables for one (Nα, Nβ, irrep) FCI problem.
#[derive(Clone, Debug)]
pub struct DetSpace {
    /// α string space.
    pub alpha: SpinStrings,
    /// β string space.
    pub beta: SpinStrings,
    /// Single-excitation table over α strings.
    pub alpha_singles: SinglesTable,
    /// Single-excitation table over β strings.
    pub beta_singles: SinglesTable,
    /// Nα−1 electron intermediate families.
    pub alpha_nm1: Nm1Families,
    /// Nβ−1 electron intermediate families.
    pub beta_nm1: Nm1Families,
    /// `beta_nm1` inverted by created orbital, per Kβ irrep block: the
    /// mixed-spin kernel's β side.
    pub beta_creators: CreationLists,
    /// `None` when the spin has fewer than two electrons.
    pub alpha_nm2: Option<Nm2Families>,
    /// Nβ−2 electron intermediate families (`None` below 2 electrons).
    pub beta_nm2: Option<Nm2Families>,
    /// Target spatial irrep of the state.
    pub target_irrep: u8,
    /// Optional excitation-level truncation (None = full CI).
    pub excitation: Option<ExcitationFilter>,
}

impl DetSpace {
    /// Build all string spaces and tables.
    pub fn new(
        n_orb: usize,
        n_alpha: usize,
        n_beta: usize,
        orb_sym: &[u8],
        n_irrep: usize,
        target_irrep: u8,
    ) -> Self {
        assert!(n_alpha >= 1, "need at least one alpha electron");
        assert!((target_irrep as usize) < n_irrep);
        let alpha = SpinStrings::new(n_orb, n_alpha, orb_sym, n_irrep);
        let beta = SpinStrings::new(n_orb, n_beta, orb_sym, n_irrep);
        let alpha_singles = SinglesTable::new(&alpha);
        let beta_singles = SinglesTable::new(&beta);
        let alpha_nm1 = Nm1Families::new(&alpha);
        let beta_nm1 = if n_beta >= 1 {
            Nm1Families::new(&beta)
        } else {
            // Degenerate but well-formed: zero families.
            Nm1Families::new(&SpinStrings::new(n_orb, 1, orb_sym, n_irrep))
        };
        let beta_creators = CreationLists::new(&beta_nm1);
        let alpha_nm2 = (n_alpha >= 2).then(|| Nm2Families::new(&alpha));
        let beta_nm2 = (n_beta >= 2).then(|| Nm2Families::new(&beta));
        DetSpace {
            alpha,
            beta,
            alpha_singles,
            beta_singles,
            alpha_nm1,
            beta_nm1,
            beta_creators,
            alpha_nm2,
            beta_nm2,
            target_irrep,
            excitation: None,
        }
    }

    /// Restrict the space to determinants within `max_level` total
    /// excitations of the reference `(ref_alpha, ref_beta)` — truncated CI
    /// (2 = CISD, 3 = CISDT, …). The reference masks must have the right
    /// electron counts.
    pub fn with_excitation_limit(mut self, ref_alpha: u64, ref_beta: u64, max_level: u32) -> Self {
        assert_eq!(ref_alpha.count_ones() as usize, self.alpha.n_elec());
        assert_eq!(ref_beta.count_ones() as usize, self.beta.n_elec());
        self.excitation = Some(ExcitationFilter {
            ref_alpha,
            ref_beta,
            max_level,
        });
        self
    }

    /// Convenience constructor without symmetry.
    pub fn c1(n_orb: usize, n_alpha: usize, n_beta: usize) -> Self {
        Self::new(n_orb, n_alpha, n_beta, &vec![0u8; n_orb], 1, 0)
    }

    /// Build for a Hamiltonian's orbital symmetry labels.
    pub fn for_hamiltonian(
        ham: &Hamiltonian,
        n_alpha: usize,
        n_beta: usize,
        target_irrep: u8,
    ) -> Self {
        Self::new(
            ham.n,
            n_alpha,
            n_beta,
            &ham.orb_sym,
            ham.n_irrep,
            target_irrep,
        )
    }

    /// Number of orbitals.
    pub fn n_orb(&self) -> usize {
        self.alpha.n_orb()
    }

    /// Full product dimension (rows × cols of the CI matrix; the stored
    /// part is [`DetSpace::sector_dim`] without a truncation).
    pub fn dim(&self) -> usize {
        self.alpha.len() * self.beta.len()
    }

    /// Number of determinants in the (symmetry × excitation) sector.
    pub fn sector_dim(&self) -> usize {
        if self.excitation.is_none() {
            let mut d = 0;
            for ga in 0..self.alpha.n_irrep() as u8 {
                let gb = ga ^ self.target_irrep;
                d += self.alpha.block_len(ga) * self.beta.block_len(gb);
            }
            return d;
        }
        let mut d = 0;
        for ia in 0..self.alpha.len() {
            let amask = self.alpha.mask(ia);
            d += self
                .sector_rows(ia)
                .filter(|&ib| self.within_excitation_limit(amask, self.beta.mask(ib)))
                .count();
        }
        d
    }

    /// Is the determinant `(row = iβ index, col = iα index)` in the sector?
    #[inline]
    pub fn in_sector(&self, ib: usize, ia: usize) -> bool {
        self.sector_rows(ia).contains(&ib)
            && self.within_excitation_limit(self.alpha.mask(ia), self.beta.mask(ib))
    }

    /// How a CI vector of this space is stored: column `Iα` holds the β
    /// strings of irrep `g_Iα ⊕ target`.
    pub(crate) fn layout(&self) -> Layout {
        let bounds = |s: &SpinStrings| -> Vec<usize> {
            let n = s.n_irrep() as u8;
            (0..n)
                .map(|g| s.block_range(g).start)
                .chain([s.len()])
                .collect()
        };
        Layout::blocked(&bounds(&self.beta), &bounds(&self.alpha), self.target_irrep)
    }

    /// Allocate a zero CI vector distributed over `nproc` ranks, storing
    /// the symmetry sector.
    pub fn zeros_ci(&self, nproc: usize) -> DistMatrix {
        DistMatrix::with_layout(Arc::new(self.layout()), nproc)
    }

    /// The Hamiltonian diagonal (without `E_core`) as a CI vector.
    /// Determinants a truncation excludes hold `f64::INFINITY`, so that
    /// `1/(d − E)` vanishes and preconditioning never leaks into them.
    pub fn diagonal(&self, ham: &Hamiltonian, nproc: usize) -> DistMatrix {
        let d = self.zeros_ci(nproc);
        d.map_cols_inplace(|ia, rows, col| {
            let amask = self.alpha.mask(ia);
            for (ib, v) in rows.zip(col) {
                let bmask = self.beta.mask(ib);
                *v = if self.within_excitation_limit(amask, bmask) {
                    ham.diagonal_element(amask, bmask)
                } else {
                    f64::INFINITY
                };
            }
        });
        d
    }

    /// Zero every coefficient the excitation filter excludes. The
    /// symmetry sector needs no projection — it is what a CI vector
    /// stores — so without a filter this does nothing.
    pub fn project_sector(&self, c: &DistMatrix) {
        if self.excitation.is_none() {
            return;
        }
        c.map_cols_inplace(|ia, rows, col| {
            let amask = self.alpha.mask(ia);
            for (ib, v) in rows.zip(col) {
                if !self.within_excitation_limit(amask, self.beta.mask(ib)) {
                    *v = 0.0;
                }
            }
        });
    }

    /// The rows of column `ia` that belong to the symmetry sector: the β
    /// strings of irrep `g_Iα ⊕ target`, one contiguous block.
    fn sector_rows(&self, ia: usize) -> Range<usize> {
        self.beta
            .block_range(self.alpha.irrep_of_index(ia) ^ self.target_irrep)
    }

    /// Does the determinant pass the excitation filter (if any)?
    #[inline]
    fn within_excitation_limit(&self, amask: u64, bmask: u64) -> bool {
        self.excitation
            .is_none_or(|f| f.level(amask, bmask) <= f.max_level)
    }

    /// The lowest-diagonal determinant among the rows `rows(ia)` of each
    /// column that `keep(ib, ia)` admits, as `(ib, ia, H_dd)`: the first
    /// minimum in α-major order.
    fn lowest_where(
        &self,
        ham: &Hamiltonian,
        rows: impl Fn(usize) -> Range<usize>,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Option<(usize, usize, f64)> {
        let mut best = None;
        let mut lowest = f64::INFINITY;
        for ia in 0..self.alpha.len() {
            for ib in rows(ia) {
                if !keep(ib, ia) {
                    continue;
                }
                let d = ham.diagonal_element(self.alpha.mask(ia), self.beta.mask(ib));
                if d < lowest {
                    lowest = d;
                    best = Some((ib, ia, d));
                }
            }
        }
        best
    }

    /// The in-sector determinant of lowest diagonal energy, as
    /// `(ib, ia, H_dd)` — the first minimum in α-major order — or `None`
    /// when the sector is empty.
    pub fn lowest_diagonal(&self, ham: &Hamiltonian) -> Option<(usize, usize, f64)> {
        let within = |ib, ia| self.within_excitation_limit(self.alpha.mask(ia), self.beta.mask(ib));
        self.lowest_where(ham, |ia| self.sector_rows(ia), within)
    }

    /// Unit guess vector on the lowest-diagonal in-sector determinant.
    pub fn guess(&self, ham: &Hamiltonian, nproc: usize) -> DistMatrix {
        let (ib, ia, _) = self
            .lowest_diagonal(ham)
            .expect("no determinant in the requested symmetry sector");
        let c = self.zeros_ci(nproc);
        c.set(ib, ia, 1.0);
        c
    }
}

/// Combined spatial irrep of the lowest-diagonal determinant over all
/// symmetry sectors (the state a run targets when none is named).
pub fn lowest_det_irrep(ham: &Hamiltonian, na: usize, nb: usize) -> u8 {
    let space = DetSpace::new(ham.n, na, nb, &ham.orb_sym, ham.n_irrep, 0);
    space
        .lowest_where(ham, |_| 0..space.beta.len(), |_, _| true)
        .map_or(0, |(ib, ia, _)| {
            space.alpha.irrep_of_index(ia) ^ space.beta.irrep_of_index(ib)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::random_hamiltonian;
    use fci_strings::binomial;

    #[test]
    fn dims_no_symmetry() {
        let s = DetSpace::c1(6, 3, 2);
        assert_eq!(s.dim(), binomial(6, 3) * binomial(6, 2));
        assert_eq!(s.sector_dim(), s.dim());
        assert!(s.in_sector(0, 0));
    }

    #[test]
    fn sector_partition_with_symmetry() {
        let sym = [0u8, 1, 0, 1];
        let mut total = 0;
        for g in 0..2u8 {
            let s = DetSpace::new(4, 2, 1, &sym, 2, g);
            total += s.sector_dim();
        }
        let s = DetSpace::new(4, 2, 1, &sym, 2, 0);
        assert_eq!(total, s.dim());
    }

    #[test]
    fn guess_is_unit_in_sector() {
        let ham = random_hamiltonian(5, 1);
        let s = DetSpace::c1(5, 2, 2);
        let g = s.guess(&ham, 3);
        assert!((g.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn diagonal_matches_hamiltonian() {
        let ham = random_hamiltonian(4, 9);
        let s = DetSpace::c1(4, 2, 1);
        let d = s.diagonal(&ham, 2);
        let dd = d.to_dense();
        let nb = s.beta.len();
        for ia in 0..s.alpha.len() {
            for ib in 0..nb {
                let expect = ham.diagonal_element(s.alpha.mask(ia), s.beta.mask(ib));
                assert!((dd[ib + ia * nb] - expect).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn ci_vectors_store_the_sector() {
        let sym = [0u8, 1, 0, 1];
        let s = DetSpace::new(4, 1, 1, &sym, 2, 1);
        let c = s.zeros_ci(1);
        c.map_inplace(|_, _, _| 1.0);
        let dense = c.to_dense();
        let in_count = dense.iter().filter(|&&x| x != 0.0).count();
        assert_eq!(in_count, s.sector_dim());
        assert_eq!(c.layout().stored(), s.sector_dim());
        assert!(in_count < s.dim());
        let nb = s.beta.len();
        for (i, &x) in dense.iter().enumerate() {
            assert_eq!(x != 0.0, s.in_sector(i % nb, i / nb));
        }
    }

    #[test]
    fn projection_zeroes_what_the_truncation_excludes() {
        let ham = random_hamiltonian(5, 4);
        let s = DetSpace::c1(5, 2, 2);
        let (ib, ia, _) = s.lowest_diagonal(&ham).unwrap();
        let (ref_a, ref_b) = (s.alpha.mask(ia), s.beta.mask(ib));
        let s = s.with_excitation_limit(ref_a, ref_b, 1);
        let c = s.zeros_ci(2);
        c.map_inplace(|_, _, _| 1.0);
        s.project_sector(&c);
        let kept = c.to_dense().iter().filter(|&&x| x != 0.0).count();
        assert_eq!(kept, s.sector_dim());
        assert!(kept < s.dim());
        let d = s.diagonal(&ham, 2);
        assert_eq!(d.to_dense().iter().filter(|x| x.is_finite()).count(), kept);
    }

    /// Every `(Kβ, entry)` of `beta_nm1` sits exactly once in the creation
    /// list of its Kβ block and created orbital, Kβ ascending in each list:
    /// on 1, 2, 4 and 8 irreps (the last with empty irreps), for several
    /// Nβ, for Nβ = 1 (one empty Kβ) and Nβ = 0 (whose families are a
    /// placeholder's, so only the inversion itself is checked).
    #[test]
    fn beta_creators_invert_the_families() {
        let labels: [(usize, [u8; 6]); 4] = [
            (1, [0; 6]),
            (2, [1, 0, 0, 1, 0, 1]),
            (4, [2, 0, 3, 1, 0, 2]),
            (8, [5, 0, 3, 6, 0, 5]),
        ];
        for (n_irrep, sym) in labels {
            for nb in [0, 1, 2, 3] {
                let s = DetSpace::new(6, 2, nb, &sym, n_irrep, 0);
                let kbeta = s.beta_nm1.space_k();
                let mut listed = 0;
                for g in 0..n_irrep as u8 {
                    let first = kbeta.block_range(g).start;
                    for p in 0..6 {
                        let list = s.beta_creators.of(g, p);
                        assert!(list.windows(2).all(|w| w[0].k < w[1].k), "{list:?}");
                        for c in list {
                            let kb = first + c.k as usize;
                            assert_eq!(kbeta.irrep_of_index(kb), g);
                            let found = s.beta_nm1.of(kb).iter().filter(|e| {
                                (e.p as usize, e.to, e.sign as f64) == (p, c.to, c.sign)
                            });
                            assert_eq!(found.count(), 1, "{n_irrep} irreps, Nβ {nb}");
                        }
                        listed += list.len();
                    }
                }
                let entries: usize = (0..s.beta_nm1.len()).map(|k| s.beta_nm1.of(k).len()).sum();
                assert_eq!(listed, entries, "{n_irrep} irreps, Nβ {nb}");
            }
        }
    }

    #[test]
    fn zero_beta_electrons_supported() {
        let s = DetSpace::c1(4, 2, 0);
        assert_eq!(s.beta.len(), 1);
        assert_eq!(s.dim(), binomial(4, 2));
        assert!(s.beta_nm2.is_none());
    }
}
