//! On-the-fly connected-determinant generation.
//!
//! The dense σ kernels touch every determinant through GEMMs over
//! precomputed coupling tables. The sparse engine instead walks the
//! Hamiltonian *row by row*: given a pivot determinant it visits the
//! singles and doubles whose integrals can make the coupling nonzero,
//! evaluates each Slater–Condon element per connection, and hands the
//! `(determinant, ⟨J|H|I⟩)` pairs to a caller-supplied sink.
//!
//! Three things matter here:
//!
//! 1. **Bitwise agreement with `fci_core::slater::element`.** That routine
//!    allocates (it diffs occupation masks into `Vec`s per call), so the
//!    hot loop cannot use it directly; the specialized element functions
//!    below instead receive the excitation already identified and
//!    replicate `element`'s arithmetic *in the same order*, so the two
//!    agree bit for bit (a property the unit tests pin).
//! 2. **Deterministic enumeration order, and the superset rule.**
//!    Connections are emitted in a fixed order — α singles, β singles, αα
//!    doubles, ββ doubles, αβ doubles, each orbital-lexicographic —
//!    independent of thread count, which the solvers rely on for
//!    reproducibility. [`ConnGen::for_each_connection`] does not visit
//!    every excitation of that order: per Hamiltonian it keeps bitmask
//!    rows (`ConnTables`) of the excitations for which *some* integral
//!    entering the element is `!= 0.0`, intersects them with the pivot's
//!    occupation masks, and evaluates only those. The rows are a superset
//!    of the nonzero elements decided by exact comparison (no threshold):
//!    a skipped excitation's element is a sum of exact zeros, so it could
//!    never pass `|h| > cut` for any `cut ≥ 0`, and the emitted sequence
//!    is bit for bit that of the full enumeration
//!    ([`ConnGen::excitations_into`] + [`exc_element`] + `|h| > cut`),
//!    which stays as the test oracle.
//! 3. **No allocation per pivot.** The walker reads the tables and the
//!    pivot's two masks and calls the sink directly; `fcix-check graph`
//!    proves `walk_connections` allocation- and panic-free transitively.

use crate::store::Det;
use fci_core::detspace::{DetSpace, ExcitationFilter};
use fci_core::hamiltonian::Hamiltonian;
use fci_core::slater::{double_phase, single_phase};
use fci_strings::{pair_index, Bits};

/// One excitation connecting a pivot determinant to a neighbour. Orbital
/// labels fit in `u8` (masks are `u64`, so ≤ 64 orbitals).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // field meaning is fixed by the variant docs
pub enum Exc {
    /// α single `q → p`.
    AlphaSingle { p: u8, q: u8 },
    /// β single `q → p`.
    BetaSingle { p: u8, q: u8 },
    /// αα double `q1,q2 → p1,p2` with `p1 < p2`, `q1 < q2`.
    AlphaDouble { p1: u8, p2: u8, q1: u8, q2: u8 },
    /// ββ double `q1,q2 → p1,p2` with `p1 < p2`, `q1 < q2`.
    BetaDouble { p1: u8, p2: u8, q1: u8, q2: u8 },
    /// Simultaneous α single `qa → pa` and β single `qb → pb`.
    Mixed { pa: u8, qa: u8, pb: u8, qb: u8 },
}

impl Exc {
    /// The determinant this excitation produces from `from`.
    #[inline]
    pub fn apply(&self, from: Det) -> Det {
        match *self {
            Exc::AlphaSingle { p, q } => Det {
                a: from.a ^ (1u64 << q) ^ (1u64 << p),
                b: from.b,
            },
            Exc::BetaSingle { p, q } => Det {
                a: from.a,
                b: from.b ^ (1u64 << q) ^ (1u64 << p),
            },
            Exc::AlphaDouble { p1, p2, q1, q2 } => Det {
                a: from.a ^ (1u64 << q1) ^ (1u64 << q2) ^ (1u64 << p1) ^ (1u64 << p2),
                b: from.b,
            },
            Exc::BetaDouble { p1, p2, q1, q2 } => Det {
                a: from.a,
                b: from.b ^ (1u64 << q1) ^ (1u64 << q2) ^ (1u64 << p1) ^ (1u64 << p2),
            },
            Exc::Mixed { pa, qa, pb, qb } => Det {
                a: from.a ^ (1u64 << qa) ^ (1u64 << pa),
                b: from.b ^ (1u64 << qb) ^ (1u64 << pb),
            },
        }
    }
}

/// `⟨J|H|I⟩` where `I = from` and `J = exc.apply(from)`, replicating the
/// arithmetic order of `fci_core::slater::element` exactly (the unit
/// tests assert bitwise agreement).
pub fn exc_element(ham: &Hamiltonian, from: Det, exc: Exc) -> f64 {
    match exc {
        Exc::AlphaSingle { p, q } => single_element(ham, from.a, from.b, p as usize, q as usize),
        Exc::BetaSingle { p, q } => single_element(ham, from.b, from.a, p as usize, q as usize),
        Exc::AlphaDouble { p1, p2, q1, q2 } => same_spin_double(
            ham,
            from.a,
            p1 as usize,
            p2 as usize,
            q1 as usize,
            q2 as usize,
        ),
        Exc::BetaDouble { p1, p2, q1, q2 } => same_spin_double(
            ham,
            from.b,
            p1 as usize,
            p2 as usize,
            q1 as usize,
            q2 as usize,
        ),
        Exc::Mixed { pa, qa, pb, qb } => {
            let phase = single_phase(from.a, pa as usize, qa as usize)
                * single_phase(from.b, pb as usize, qb as usize);
            phase
                * ham
                    .eri
                    .get(pa as usize, qa as usize, pb as usize, qb as usize)
        }
    }
}

/// Single excitation `q → p` within the spin channel whose "from" mask is
/// `m_j`; `other_occ` is the opposite-spin occupation (spectators only).
#[inline]
fn single_element(ham: &Hamiltonian, m_j: u64, other_occ: u64, p: usize, q: usize) -> f64 {
    let m_i = m_j ^ (1u64 << q) ^ (1u64 << p);
    let phase = single_phase(m_j, p, q);
    let mut v = ham.h[(p, q)];
    // Same-spin spectators, ascending (matches slater::element).
    let mut m = m_j & m_i;
    while m != 0 {
        let r = m.trailing_zeros() as usize;
        m &= m - 1;
        v += ham.eri.get(p, q, r, r) - ham.eri.get(p, r, r, q);
    }
    // Opposite-spin spectators, ascending.
    let mut m = other_occ;
    while m != 0 {
        let r = m.trailing_zeros() as usize;
        m &= m - 1;
        v += ham.eri.get(p, q, r, r);
    }
    phase * v
}

#[inline]
fn same_spin_double(
    ham: &Hamiltonian,
    m_j: u64,
    p1: usize,
    p2: usize,
    q1: usize,
    q2: usize,
) -> f64 {
    let phase = double_phase(m_j, p1, p2, q1, q2);
    phase * (ham.eri.get(p1, q1, p2, q2) - ham.eri.get(p1, q2, p2, q1))
}

/// Per-Hamiltonian bitmask rows of the symmetry-allowed excitations whose
/// element can be nonzero: bit `p` of a row is set iff some integral that
/// enters the element is `!= 0.0` (exact comparison, so the rows are a
/// superset of the nonzero elements for every determinant). Fixed size,
/// `8·(2n + C(n,2)·(n+1) + n²·(n+1))` bytes for `n` orbitals.
#[derive(Default)]
struct ConnTables {
    /// [`Hamiltonian::id`] the rows were built from; 0 = none yet.
    ham_id: u64,
    /// `single[q]`: the `p` with `h_pq`, some `(pq|rr)` or some `(pr|rq)`
    /// nonzero.
    single: Vec<u64>,
    /// `same[pair_index(q2,q1)·n + p1]`, `q1 < q2`: the `p2 > p1` with
    /// `(p1q1|p2q2)` or `(p1q2|p2q1)` nonzero.
    same: Vec<u64>,
    /// `same_p1[pair_index(q2,q1)]`: the `p1` whose `same` row is nonempty.
    same_p1: Vec<u64>,
    /// `mixed[(qa·n + pa)·n + qb]`: the `pb` with `(pa qa|pb qb)` nonzero.
    mixed: Vec<u64>,
    /// `mixed_qb[qa·n + pa]`: the `qb` whose `mixed` row is nonempty.
    mixed_qb: Vec<u64>,
    /// `mixed_pa[qa]`: the `pa` with any nonempty `mixed` row.
    mixed_pa: Vec<u64>,
}

impl ConnTables {
    fn build(ham: &Hamiltonian, orb_sym: &[u8]) -> Self {
        let n = orb_sym.len();
        let npair = n * n.saturating_sub(1) / 2;
        let eri = &ham.eri;
        let mut t = ConnTables {
            ham_id: ham.id(),
            single: vec![0; n],
            same: vec![0; npair * n],
            same_p1: vec![0; npair],
            mixed: vec![0; n * n * n],
            mixed_qb: vec![0; n * n],
            mixed_pa: vec![0; n],
        };
        for q in 0..n {
            for p in 0..n {
                if p == q || orb_sym[p] != orb_sym[q] {
                    continue;
                }
                if ham.h[(p, q)] != 0.0
                    || (0..n).any(|r| eri.get(p, q, r, r) != 0.0 || eri.get(p, r, r, q) != 0.0)
                {
                    t.single[q] |= 1u64 << p;
                }
            }
        }
        let quad_sym = |a: usize, b: usize, c: usize, d: usize| {
            orb_sym[a] ^ orb_sym[b] ^ orb_sym[c] ^ orb_sym[d] == 0
        };
        for q2 in 1..n {
            for q1 in 0..q2 {
                let row = pair_index(q2, q1);
                for p1 in (0..n).filter(|&p| p != q1 && p != q2) {
                    for p2 in (p1 + 1..n).filter(|&p| p != q1 && p != q2) {
                        if quad_sym(p1, p2, q1, q2)
                            && (eri.get(p1, q1, p2, q2) != 0.0 || eri.get(p1, q2, p2, q1) != 0.0)
                        {
                            t.same[row * n + p1] |= 1u64 << p2;
                            t.same_p1[row] |= 1u64 << p1;
                        }
                    }
                }
            }
        }
        for qa in 0..n {
            for pa in (0..n).filter(|&p| p != qa) {
                let row = qa * n + pa;
                for qb in 0..n {
                    for pb in (0..n).filter(|&p| p != qb) {
                        if quad_sym(pa, qa, pb, qb) && eri.get(pa, qa, pb, qb) != 0.0 {
                            t.mixed[row * n + qb] |= 1u64 << pb;
                            t.mixed_qb[row] |= 1u64 << qb;
                            t.mixed_pa[qa] |= 1u64 << pa;
                        }
                    }
                }
            }
        }
        t
    }

    fn bytes(&self) -> usize {
        let words = self.single.len()
            + self.same.len()
            + self.same_p1.len()
            + self.mixed.len()
            + self.mixed_qb.len()
            + self.mixed_pa.len();
        words * std::mem::size_of::<u64>()
    }
}

/// Connection generator bound to one determinant space's symmetry sector.
///
/// Holds the integral-driven tables of the Hamiltonian it last walked
/// (built on first use, rebuilt when a Hamiltonian with another
/// [`Hamiltonian::id`] arrives) and the occupied/virtual scratch lists of
/// the full enumeration. Cheap to construct.
pub struct ConnGen {
    n_orb: usize,
    orb_sym: Vec<u8>,
    target_irrep: u8,
    excitation: Option<ExcitationFilter>,
    aocc: Vec<u8>,
    avirt: Vec<u8>,
    bocc: Vec<u8>,
    bvirt: Vec<u8>,
    tables: ConnTables,
}

impl ConnGen {
    /// Build from a determinant space (symmetry labels, target irrep and
    /// optional excitation truncation are copied out).
    pub fn for_space(space: &DetSpace) -> Self {
        let n_orb = space.n_orb();
        let orb_sym = space.alpha.orb_sym().to_vec();
        ConnGen {
            n_orb,
            orb_sym,
            target_irrep: space.target_irrep,
            excitation: space.excitation,
            aocc: Vec::with_capacity(n_orb),
            avirt: Vec::with_capacity(n_orb),
            bocc: Vec::with_capacity(n_orb),
            bvirt: Vec::with_capacity(n_orb),
            tables: ConnTables::default(),
        }
    }

    /// Does `det` belong to the generator's symmetry/excitation sector?
    #[inline]
    pub fn in_sector(&self, det: Det) -> bool {
        let g = fci_strings::irrep_of_mask(det.a, &self.orb_sym)
            ^ fci_strings::irrep_of_mask(det.b, &self.orb_sym);
        if g != self.target_irrep {
            return false;
        }
        match &self.excitation {
            None => true,
            Some(f) => f.level(det.a, det.b) <= f.max_level,
        }
    }

    #[inline]
    fn keeps_sector_single(&self, p: u8, q: u8) -> bool {
        self.orb_sym[p as usize] == self.orb_sym[q as usize]
    }

    #[inline]
    fn keeps_sector_quad(&self, p1: u8, p2: u8, q1: u8, q2: u8) -> bool {
        self.orb_sym[p1 as usize]
            ^ self.orb_sym[p2 as usize]
            ^ self.orb_sym[q1 as usize]
            ^ self.orb_sym[q2 as usize]
            == 0
    }

    #[inline]
    fn level_ok(&self, det: Det) -> bool {
        match &self.excitation {
            None => true,
            Some(f) => f.level(det.a, det.b) <= f.max_level,
        }
    }

    fn fill_occ_virt(&mut self, det: Det) {
        self.aocc.clear();
        self.avirt.clear();
        self.bocc.clear();
        self.bvirt.clear();
        for p in 0..self.n_orb as u8 {
            if det.a >> p & 1 == 1 {
                self.aocc.push(p);
            } else {
                self.avirt.push(p);
            }
            if det.b >> p & 1 == 1 {
                self.bocc.push(p);
            } else {
                self.bvirt.push(p);
            }
        }
    }

    /// Enumerate every in-sector excitation from `det` into `out`
    /// (cleared first), in the fixed deterministic order: α singles,
    /// β singles, αα doubles, ββ doubles, αβ doubles, each loop nest
    /// orbital-ascending. Matrix elements are *not* computed and the
    /// integrals are not consulted: this is the full symmetry-allowed
    /// enumeration, the oracle [`Self::for_each_connection`] is tested
    /// against.
    pub fn excitations_into(&mut self, det: Det, out: &mut Vec<Exc>) {
        out.clear();
        self.fill_occ_virt(det);
        // α and β singles.
        for spin in 0..2 {
            let (occ, virt) = if spin == 0 {
                (&self.aocc, &self.avirt)
            } else {
                (&self.bocc, &self.bvirt)
            };
            for &q in occ {
                for &p in virt {
                    if !self.keeps_sector_single(p, q) {
                        continue;
                    }
                    let e = if spin == 0 {
                        Exc::AlphaSingle { p, q }
                    } else {
                        Exc::BetaSingle { p, q }
                    };
                    if self.level_ok(e.apply(det)) {
                        out.push(e);
                    }
                }
            }
        }
        // αα and ββ doubles.
        for spin in 0..2 {
            let (occ, virt) = if spin == 0 {
                (&self.aocc, &self.avirt)
            } else {
                (&self.bocc, &self.bvirt)
            };
            for (i, &q1) in occ.iter().enumerate() {
                for &q2 in occ.iter().skip(i + 1) {
                    for (j, &p1) in virt.iter().enumerate() {
                        for &p2 in virt.iter().skip(j + 1) {
                            if !self.keeps_sector_quad(p1, p2, q1, q2) {
                                continue;
                            }
                            let e = if spin == 0 {
                                Exc::AlphaDouble { p1, p2, q1, q2 }
                            } else {
                                Exc::BetaDouble { p1, p2, q1, q2 }
                            };
                            if self.level_ok(e.apply(det)) {
                                out.push(e);
                            }
                        }
                    }
                }
            }
        }
        // αβ doubles.
        for &qa in &self.aocc {
            for &pa in &self.avirt {
                for &qb in &self.bocc {
                    for &pb in &self.bvirt {
                        if !self.keeps_sector_quad(pa, qa, pb, qb) {
                            continue;
                        }
                        let e = Exc::Mixed { pa, qa, pb, qb };
                        if self.level_ok(e.apply(det)) {
                            out.push(e);
                        }
                    }
                }
            }
        }
    }

    /// Hand each connection `(neighbour, ⟨J|H|I⟩)` of `det` with
    /// `|⟨J|H|I⟩| > cut` (`cut ≥ 0`) to `sink`, in the deterministic
    /// enumeration order — the sequence [`Self::excitations_into`] +
    /// [`exc_element`] + the cut would give, bit for bit, reached through
    /// the Hamiltonian's nonzero-integral tables.
    pub fn for_each_connection(
        &mut self,
        ham: &Hamiltonian,
        det: Det,
        cut: f64,
        sink: impl FnMut(Det, f64),
    ) {
        self.prepare(ham);
        self.walk_connections(ham, det, cut, sink);
    }

    /// Make the tables those of `ham`: built on first use, rebuilt when
    /// `ham` is not the Hamiltonian they were built from.
    pub(crate) fn prepare(&mut self, ham: &Hamiltonian) {
        if self.tables.ham_id != ham.id() {
            self.tables = ConnTables::build(ham, &self.orb_sym);
        }
    }

    /// [`Self::for_each_connection`] over tables already
    /// [`Self::prepare`]d for `ham` — `&self`, so the threads of one
    /// solve share one generator. Reads the tables and the two masks of
    /// `det`, nothing else: no allocation, no scratch.
    pub(crate) fn walk_connections(
        &self,
        ham: &Hamiltonian,
        det: Det,
        cut: f64,
        mut sink: impl FnMut(Det, f64),
    ) {
        debug_assert_eq!(self.tables.ham_id, ham.id(), "prepare(ham) first");
        let t = &self.tables;
        let n = self.n_orb;
        let mut emit = |e: Exc| self.emit(ham, det, e, cut, &mut sink);
        let all = if n >= 64 { !0 } else { (1u64 << n) - 1 };
        let (avirt, bvirt) = (!det.a & all, !det.b & all);
        for q in Bits(det.a) {
            for p in Bits(t.single[q as usize] & avirt) {
                emit(Exc::AlphaSingle { p, q });
            }
        }
        for q in Bits(det.b) {
            for p in Bits(t.single[q as usize] & bvirt) {
                emit(Exc::BetaSingle { p, q });
            }
        }
        for (alpha, occ, virt) in [(true, det.a, avirt), (false, det.b, bvirt)] {
            let mut above = Bits(occ);
            while let Some(q1) = above.next() {
                for q2 in Bits(above.0) {
                    let row = pair_index(q2 as usize, q1 as usize);
                    for p1 in Bits(t.same_p1[row] & virt) {
                        for p2 in Bits(t.same[row * n + p1 as usize] & virt) {
                            emit(if alpha {
                                Exc::AlphaDouble { p1, p2, q1, q2 }
                            } else {
                                Exc::BetaDouble { p1, p2, q1, q2 }
                            });
                        }
                    }
                }
            }
        }
        for qa in Bits(det.a) {
            for pa in Bits(t.mixed_pa[qa as usize] & avirt) {
                let row = qa as usize * n + pa as usize;
                for qb in Bits(t.mixed_qb[row] & det.b) {
                    for pb in Bits(t.mixed[row * n + qb as usize] & bvirt) {
                        emit(Exc::Mixed { pa, qa, pb, qb });
                    }
                }
            }
        }
    }

    /// Hand `sink` the connection of `det` through `e` if its target is
    /// in the space and its element clears `cut`. Always inlined into
    /// each loop of the walk: left to rustc, that choice flipped when
    /// unrelated crates changed, and the out-of-line form ran CDFCI
    /// slower (DESIGN §17).
    #[inline(always)]
    fn emit(&self, ham: &Hamiltonian, det: Det, e: Exc, cut: f64, sink: &mut impl FnMut(Det, f64)) {
        let to = e.apply(det);
        if self.level_ok(to) {
            let h = exc_element(ham, det, e);
            if h.abs() > cut {
                sink(to, h);
            }
        }
    }

    /// Bytes of the integral-driven tables currently held (0 before the
    /// first [`Self::for_each_connection`]).
    pub fn table_bytes(&self) -> usize {
        self.tables.bytes()
    }

    /// Number of orbitals.
    pub fn n_orb(&self) -> usize {
        self.n_orb
    }
}

/// Find a good reference determinant for `space`: the in-sector
/// determinant of lowest diagonal energy. Small spaces (full product
/// dimension ≤ 4·10⁶) are scanned exactly; larger ones use a greedy
/// descent over single excitations from the first in-sector determinant —
/// deterministic, and exact on single-reference-dominated problems.
pub fn reference_det(space: &DetSpace, ham: &Hamiltonian) -> Det {
    if let Some(f) = &space.excitation {
        // With an excitation filter the reference is, by construction, the
        // filter's own reference determinant.
        return Det {
            a: f.ref_alpha,
            b: f.ref_beta,
        };
    }
    if space.dim() <= 4_000_000 {
        let Some((ib, ia, _)) = space.lowest_diagonal(ham) else {
            panic!("no determinant in the requested symmetry sector")
        };
        return Det {
            a: space.alpha.mask(ia),
            b: space.beta.mask(ib),
        };
    }
    // Large space: start from the first in-sector pair and descend.
    let mut start = None;
    for ga in 0..space.alpha.n_irrep() as u8 {
        let gb = ga ^ space.target_irrep;
        if space.alpha.block_len(ga) > 0 && space.beta.block_len(gb) > 0 {
            let ra = space.alpha.block_range(ga);
            let rb = space.beta.block_range(gb);
            start = Some(Det {
                a: space.alpha.mask(ra.start),
                b: space.beta.mask(rb.start),
            });
            break;
        }
    }
    let mut cur = match start {
        Some(d) => d,
        None => panic!("no determinant in the requested symmetry sector"),
    };
    let mut cur_e = ham.diagonal_element(cur.a, cur.b);
    let mut cg = ConnGen::for_space(space);
    let mut excs = Vec::new();
    loop {
        let mut best = (cur_e, cur);
        cg.excitations_into(cur, &mut excs);
        for &e in &excs {
            // Singles only: diagonal descent over one-orbital moves.
            let single = matches!(e, Exc::AlphaSingle { .. } | Exc::BetaSingle { .. });
            if !single {
                continue;
            }
            let d = e.apply(cur);
            let ed = ham.diagonal_element(d.a, d.b);
            if ed < best.0 {
                best = (ed, d);
            }
        }
        if best.1 == cur {
            return cur;
        }
        cur = best.1;
        cur_e = best.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fci_core::hamiltonian::random_hamiltonian;
    use fci_core::slater;

    /// Every enumerated connection's element must agree *bitwise* with the
    /// reference Slater–Condon implementation.
    #[test]
    fn elements_match_slater_bitwise() {
        let ham = random_hamiltonian(6, 17);
        let space = DetSpace::c1(6, 3, 2);
        let mut cg = ConnGen::for_space(&space);
        let mut excs = Vec::new();
        for ia in [0usize, 3, 7] {
            for ib in [0usize, 2, 9] {
                let d = Det {
                    a: space.alpha.mask(ia),
                    b: space.beta.mask(ib),
                };
                cg.excitations_into(d, &mut excs);
                assert!(!excs.is_empty());
                for &e in &excs {
                    let j = e.apply(d);
                    let fast = exc_element(&ham, d, e);
                    let reference = slater::element(&ham, j.a, j.b, d.a, d.b);
                    assert_eq!(
                        fast.to_bits(),
                        reference.to_bits(),
                        "exc {e:?} from {d:?}: {fast} vs {reference}"
                    );
                }
            }
        }
    }

    /// The enumeration must produce exactly the determinants that have
    /// excitation degree 1 or 2 from the pivot — no more, no less.
    #[test]
    fn enumeration_is_complete_and_minimal() {
        let space = DetSpace::c1(5, 2, 2);
        let mut cg = ConnGen::for_space(&space);
        let d = Det {
            a: space.alpha.mask(1),
            b: space.beta.mask(4),
        };
        let mut excs = Vec::new();
        cg.excitations_into(d, &mut excs);
        let mut got: Vec<(u64, u64)> = excs
            .iter()
            .map(|e| {
                let j = e.apply(d);
                (j.a, j.b)
            })
            .collect();
        got.sort_unstable();
        let before = got.len();
        got.dedup();
        assert_eq!(before, got.len(), "duplicate connections");
        let mut expect = Vec::new();
        for ja in 0..space.alpha.len() {
            for jb in 0..space.beta.len() {
                let (ma, mb) = (space.alpha.mask(ja), space.beta.mask(jb));
                let deg = ((ma ^ d.a).count_ones() + (mb ^ d.b).count_ones()) / 2;
                if deg == 1 || deg == 2 {
                    expect.push((ma, mb));
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    /// With symmetry labels, every enumerated connection stays in-sector.
    #[test]
    fn symmetry_sector_respected() {
        let sym = [0u8, 1, 0, 1, 0];
        let ham_n = 5;
        let space = DetSpace::new(ham_n, 2, 2, &sym, 2, 1);
        let mut cg = ConnGen::for_space(&space);
        // Find an in-sector pivot.
        let mut pivot = None;
        'outer: for ia in 0..space.alpha.len() {
            for ib in 0..space.beta.len() {
                if space.in_sector(ib, ia) {
                    pivot = Some(Det {
                        a: space.alpha.mask(ia),
                        b: space.beta.mask(ib),
                    });
                    break 'outer;
                }
            }
        }
        let d = pivot.unwrap();
        let mut excs = Vec::new();
        cg.excitations_into(d, &mut excs);
        assert!(!excs.is_empty());
        for &e in &excs {
            assert!(cg.in_sector(e.apply(d)), "{e:?} leaves the sector");
        }
    }

    /// Excitation filter (CISD) limits connection levels.
    #[test]
    fn excitation_filter_respected() {
        let ham = random_hamiltonian(6, 3);
        let ra = 0b000111u64;
        let rb = 0b000011u64;
        let space = DetSpace::for_hamiltonian(&ham, 3, 2, 0).with_excitation_limit(ra, rb, 2);
        let mut cg = ConnGen::for_space(&space);
        // Pivot at a single excitation: doubles from it may reach level 3,
        // which must be filtered out.
        let pivot = Det { a: 0b001011, b: rb };
        let filt = space.excitation.unwrap();
        assert_eq!(filt.level(pivot.a, pivot.b), 1);
        let mut excs = Vec::new();
        cg.excitations_into(pivot, &mut excs);
        assert!(!excs.is_empty());
        for &e in &excs {
            let j = e.apply(pivot);
            assert!(filt.level(j.a, j.b) <= 2, "{e:?} exceeds CISD");
        }
    }

    /// `reference_det` exact scan agrees with `DetSpace::guess`'s winner.
    #[test]
    fn reference_matches_exact_scan() {
        let ham = random_hamiltonian(6, 11);
        let space = DetSpace::c1(6, 3, 3);
        let r = reference_det(&space, &ham);
        let mut best = (f64::INFINITY, Det { a: 0, b: 0 });
        for ia in 0..space.alpha.len() {
            for ib in 0..space.beta.len() {
                let d = Det {
                    a: space.alpha.mask(ia),
                    b: space.beta.mask(ib),
                };
                let e = ham.diagonal_element(d.a, d.b);
                if e < best.0 {
                    best = (e, d);
                }
            }
        }
        assert_eq!(r, best.1);
    }

    /// `for_each_connection` matches enumerate-then-evaluate.
    #[test]
    fn sink_path_matches_two_phase() {
        let ham = random_hamiltonian(5, 23);
        let space = DetSpace::c1(5, 2, 2);
        let mut cg = ConnGen::for_space(&space);
        let d = Det {
            a: space.alpha.mask(0),
            b: space.beta.mask(0),
        };
        let mut sunk = Vec::new();
        cg.for_each_connection(&ham, d, 0.0, |j, h| sunk.push((j, h)));
        let mut excs = Vec::new();
        cg.excitations_into(d, &mut excs);
        let two: Vec<(Det, f64)> = excs
            .iter()
            .filter_map(|&e| {
                let h = exc_element(&ham, d, e);
                (h.abs() > 0.0).then_some((e.apply(d), h))
            })
            .collect();
        assert_eq!(sunk, two);
    }
}
