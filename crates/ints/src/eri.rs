//! Two-electron repulsion integrals `(μν|ρσ)` (chemist's notation) with
//! 8-fold permutational symmetry, packed storage.

use crate::basis::{BasisSet, Shell};
use crate::md::{ETable, RTable};
use std::f64::consts::PI;

/// Packed, 8-fold-symmetric ERI tensor.
///
/// `(pq|rs)` is stored once for the canonical ordering `p ≥ q`, `r ≥ s`,
/// `pq ≥ rs` (compound indices `pq = p(p+1)/2 + q`).
#[derive(Clone, Debug)]
pub struct EriTensor {
    n: usize,
    data: Vec<f64>,
}

#[inline]
fn pair(p: usize, q: usize) -> usize {
    if p >= q {
        p * (p + 1) / 2 + q
    } else {
        q * (q + 1) / 2 + p
    }
}

impl EriTensor {
    /// Zero tensor over `n` basis functions.
    pub fn zeros(n: usize) -> Self {
        let npair = n * (n + 1) / 2;
        EriTensor {
            n,
            data: vec![0.0; npair * (npair + 1) / 2],
        }
    }

    /// Number of basis functions.
    pub fn n_basis(&self) -> usize {
        self.n
    }

    #[inline]
    fn index(&self, p: usize, q: usize, r: usize, s: usize) -> usize {
        let pq = pair(p, q);
        let rs = pair(r, s);
        if pq >= rs {
            pq * (pq + 1) / 2 + rs
        } else {
            rs * (rs + 1) / 2 + pq
        }
    }

    /// `(pq|rs)`.
    #[inline]
    pub fn get(&self, p: usize, q: usize, r: usize, s: usize) -> f64 {
        self.data[self.index(p, q, r, s)]
    }

    /// Set `(pq|rs)` (and all its permutational images).
    #[inline]
    pub fn set(&mut self, p: usize, q: usize, r: usize, s: usize, v: f64) {
        let i = self.index(p, q, r, s);
        self.data[i] = v;
    }

    /// Number of unique stored values.
    pub fn n_unique(&self) -> usize {
        self.data.len()
    }
}

/// Compute the full ERI tensor of a basis set (Schwarz-screened with a
/// lossless-at-double-precision threshold).
pub fn eri_tensor(basis: &BasisSet) -> EriTensor {
    eri_tensor_screened(basis, 1e-14).0
}

/// Compute the ERI tensor with Cauchy–Schwarz screening:
/// `|(ab|cd)| ≤ √(ab|ab) · √(cd|cd)`; shell quartets whose bound falls
/// below `threshold` are skipped. Returns the tensor and the number of
/// quartets skipped.
pub(crate) fn eri_tensor_screened(basis: &BasisSet, threshold: f64) -> (EriTensor, usize) {
    let mut eri = EriTensor::zeros(basis.n_basis());
    let shells = basis.shells();
    let ns = shells.len();
    // Hermite data of every shell pair sa ≥ sb, at pair(sa, sb).
    let mut pairs = Vec::with_capacity(ns * (ns + 1) / 2);
    for (sa, sh_a) in shells.iter().enumerate() {
        pairs.extend(shells[..=sa].iter().map(|sh_b| ShellPair::new(sh_a, sh_b)));
    }
    let mut work = QuartetWork::default();
    // Per-shell-pair Schwarz factors Q_ab = max over components √(ab|ab).
    let mut q = vec![0.0f64; ns * ns];
    for sa in 0..ns {
        for sb in 0..=sa {
            let ab = &pairs[pair(sa, sb)];
            let block = work.quartet(ab, ab);
            let (na, nb) = (shells[sa].n_cart(), shells[sb].n_cart());
            let mut qmax = 0.0f64;
            for ia in 0..na {
                for ib in 0..nb {
                    // diagonal (ab|ab) element of the quartet block
                    let v = block[((ia * nb + ib) * na + ia) * nb + ib];
                    qmax = qmax.max(v.abs().sqrt());
                }
            }
            q[sa * ns + sb] = qmax;
            q[sb * ns + sa] = qmax;
        }
    }
    let mut skipped = 0usize;
    for sa in 0..ns {
        for sb in 0..=sa {
            for sc in 0..=sa {
                let sd_max = if sc == sa { sb } else { sc };
                for sd in 0..=sd_max {
                    if q[sa * ns + sb] * q[sc * ns + sd] < threshold {
                        skipped += 1;
                        continue;
                    }
                    let block = work.quartet(&pairs[pair(sa, sb)], &pairs[pair(sc, sd)]);
                    scatter_block(basis, &mut eri, sa, sb, sc, sd, block);
                }
            }
        }
    }
    (eri, skipped)
}

fn scatter_block(
    basis: &BasisSet,
    eri: &mut EriTensor,
    sa: usize,
    sb: usize,
    sc: usize,
    sd: usize,
    block: &[f64],
) {
    let (oa, ob, oc, od) = (
        basis.shell_offset(sa),
        basis.shell_offset(sb),
        basis.shell_offset(sc),
        basis.shell_offset(sd),
    );
    let (na, nb, nc, nd) = (
        basis.shells()[sa].n_cart(),
        basis.shells()[sb].n_cart(),
        basis.shells()[sc].n_cart(),
        basis.shells()[sd].n_cart(),
    );
    for ia in 0..na {
        for ib in 0..nb {
            for ic in 0..nc {
                for id in 0..nd {
                    let v = block[((ia * nb + ib) * nc + ic) * nd + id];
                    eri.set(oa + ia, ob + ib, oc + ic, od + id, v);
                }
            }
        }
    }
}

/// One primitive pair of a [`ShellPair`].
struct PrimPair {
    /// Exponent sum `p = a + b`.
    p: f64,
    /// Gaussian product centre.
    centre: [f64; 3],
    /// Contraction weights of the two primitives.
    wa: f64,
    wb: f64,
}

/// Everything about a shell pair `(a b)` that does not depend on the
/// other pair of a quartet, computed once per pair.
///
/// The Hermite expansion of component pair `(i₁j₁k₁, i₂j₂k₂)` has
/// non-zero coefficients only in its box `t ≤ i₁+i₂`, `u ≤ j₁+j₂`,
/// `v ≤ k₁+k₂`, which lies inside the simplex `t+u+v ≤ l_a + l_b`. Each
/// component pair keeps its box's `(t, u, v)` in lexicographic order —
/// the order the contraction sums them in — and each primitive pair the
/// coefficients `fa·fb·E_t·E_u·E_v` of every box.
struct ShellPair {
    /// `l_a + l_b`.
    l: usize,
    prims: Vec<PrimPair>,
    /// Terms of component pair `c` (`a`-major) are `start[c]..start[c + 1]`.
    start: Vec<usize>,
    /// `(t, u, v)` of each term.
    tuv: Vec<[usize; 3]>,
    /// Position of each term in the lexicographic simplex `t+u+v ≤ l`.
    simplex_pos: Vec<usize>,
    /// The coefficients, one row of `tuv.len()` per primitive pair: as a
    /// bra they multiply `G` directly; as a ket they carry `(−1)^{t+u+v}`
    /// in `signed`.
    coef: Vec<f64>,
    signed: Vec<f64>,
}

impl ShellPair {
    fn new(sh_a: &Shell, sh_b: &Shell) -> Self {
        let (la, lb) = (sh_a.l, sh_b.l);
        let l = la + lb;
        let comps_a = sh_a.components();
        let comps_b = sh_b.components();
        let mut simplex = vec![usize::MAX; (l + 1) * (l + 1) * (l + 1)];
        for (pos, [t, u, v]) in simplex_tuv(l).enumerate() {
            simplex[(t * (l + 1) + u) * (l + 1) + v] = pos;
        }
        let mut start = vec![0];
        let mut tuv = Vec::new();
        for &(i1, j1, k1) in &comps_a {
            for &(i2, j2, k2) in &comps_b {
                for t in 0..=(i1 + i2) {
                    for u in 0..=(j1 + j2) {
                        for v in 0..=(k1 + k2) {
                            tuv.push([t, u, v]);
                        }
                    }
                }
                start.push(tuv.len());
            }
        }
        let simplex_pos = tuv
            .iter()
            .map(|&[t, u, v]| simplex[(t * (l + 1) + u) * (l + 1) + v])
            .collect();
        let mut prims = Vec::with_capacity(sh_a.exps.len() * sh_b.exps.len());
        let mut coef = Vec::with_capacity(prims.capacity() * tuv.len());
        for (&a, &wa) in sh_a.exps.iter().zip(&sh_a.coefs) {
            for (&b, &wb) in sh_b.exps.iter().zip(&sh_b.coefs) {
                let p = a + b;
                let (ca, cb) = (sh_a.center, sh_b.center);
                prims.push(PrimPair {
                    p,
                    centre: [
                        (a * ca[0] + b * cb[0]) / p,
                        (a * ca[1] + b * cb[1]) / p,
                        (a * ca[2] + b * cb[2]) / p,
                    ],
                    wa,
                    wb,
                });
                let ex = ETable::new(la, lb, a, b, ca[0], cb[0]);
                let ey = ETable::new(la, lb, a, b, ca[1], cb[1]);
                let ez = ETable::new(la, lb, a, b, ca[2], cb[2]);
                for &(i1, j1, k1) in &comps_a {
                    let fa = sh_a.component_factor(i1, j1, k1);
                    for &(i2, j2, k2) in &comps_b {
                        let fb = sh_b.component_factor(i2, j2, k2);
                        for t in 0..=(i1 + i2) {
                            let etx = ex.get(i1, i2, t);
                            for u in 0..=(j1 + j2) {
                                let etu = etx * ey.get(j1, j2, u);
                                for v in 0..=(k1 + k2) {
                                    coef.push(fa * fb * etu * ez.get(k1, k2, v));
                                }
                            }
                        }
                    }
                }
            }
        }
        let signed = coef
            .iter()
            .zip(tuv.iter().cycle())
            .map(|(&h, &[t, u, v])| h * if (t + u + v) % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        ShellPair {
            l,
            prims,
            start,
            tuv,
            simplex_pos,
            coef,
            signed,
        }
    }

    /// Number of component pairs.
    fn n_comp(&self) -> usize {
        self.start.len() - 1
    }
}

/// `(t, u, v)` with `t + u + v ≤ l`, in lexicographic order.
fn simplex_tuv(l: usize) -> impl Iterator<Item = [usize; 3]> {
    (0..=l)
        .flat_map(move |t| (0..=l - t).flat_map(move |u| (0..=l - t - u).map(move |v| [t, u, v])))
}

/// Buffers of [`QuartetWork::quartet`], reused from one quartet to the
/// next.
#[derive(Default)]
struct QuartetWork {
    r: RTable,
    /// `G[x][c_ket] = Σ_{τνφ} (−1)^{τ+ν+φ} E_ket[c_ket][τνφ] R_{t+τ, u+ν, v+φ}`
    /// over the bra simplex `x = (t, u, v)`, ket component pairs inner.
    g: Vec<f64>,
    /// One row of bra-contraction sums, one per ket component pair.
    acc: Vec<f64>,
    /// [`RTable::as_slice`] offsets of the bra simplex and of the ket terms.
    bra_off: Vec<usize>,
    ket_off: Vec<usize>,
    block: Vec<f64>,
}

impl QuartetWork {
    /// One shell quartet `(bra | ket)` as a dense `na×nb×nc×nd` block
    /// (row-major in that index order).
    ///
    /// Each value is the sum a contraction over the full Hermite cubes
    /// gives, term for term and in the same order, except for products
    /// with an exact-zero factor: the bra sums leave out the coefficients
    /// outside each box, and the ket sums keep the box's zero
    /// coefficients instead of skipping them. Such a product is ±0, and
    /// every sum it would join starts at +0.0 and so is never −0.0, which
    /// adding ±0 leaves unchanged: the block is the same to the bit.
    fn quartet(&mut self, bra: &ShellPair, ket: &ShellPair) -> &[f64] {
        let (nbra, nket) = (bra.n_comp(), ket.n_comp());
        let d = bra.l + ket.l + 1;
        let flat = |[t, u, v]: [usize; 3]| (t * d + u) * d + v;
        self.bra_off.clear();
        self.bra_off.extend(simplex_tuv(bra.l).map(flat));
        self.ket_off.clear();
        self.ket_off.extend(ket.tuv.iter().map(|&tuv| flat(tuv)));
        self.g.resize(self.bra_off.len() * nket, 0.0);
        self.acc.resize(nket, 0.0);
        self.block.clear();
        self.block.resize(nbra * nket, 0.0);
        let (nb_terms, nk_terms) = (bra.tuv.len(), ket.tuv.len());
        let pi_25 = PI.powf(2.5);
        for (bp, hbra) in bra.prims.iter().zip(bra.coef.chunks_exact(nb_terms)) {
            let p = bp.p;
            for (kp, hket) in ket.prims.iter().zip(ket.signed.chunks_exact(nk_terms)) {
                let q = kp.p;
                let rho = p * q / (p + q);
                let pq = [
                    bp.centre[0] - kp.centre[0],
                    bp.centre[1] - kp.centre[1],
                    bp.centre[2] - kp.centre[2],
                ];
                self.r.fill(d - 1, rho, pq);
                let r = self.r.as_slice();
                let coef = bp.wa * bp.wb * kp.wa * kp.wb * 2.0 * pi_25 / (p * q * (p + q).sqrt());

                // Step 2: contract the ket Hermite coefficients with R.
                for (gx, &xo) in self.g.chunks_exact_mut(nket).zip(&self.bra_off) {
                    for (g, terms) in gx.iter_mut().zip(ket.start.windows(2)) {
                        let terms = terms[0]..terms[1];
                        let mut acc = 0.0;
                        for (&h, &ko) in hket[terms.clone()].iter().zip(&self.ket_off[terms]) {
                            acc += h * r[xo + ko];
                        }
                        *g = acc;
                    }
                }

                // Step 3: contract the bra Hermite coefficients with G,
                // every ket component pair in its own lane.
                for (out, terms) in self.block.chunks_exact_mut(nket).zip(bra.start.windows(2)) {
                    self.acc.fill(0.0);
                    let terms = terms[0]..terms[1];
                    for (&h, &x) in hbra[terms.clone()].iter().zip(&bra.simplex_pos[terms]) {
                        let gx = &self.g[x * nket..][..nket];
                        for (a, &g) in self.acc.iter_mut().zip(gx) {
                            *a += h * g;
                        }
                    }
                    for (o, &a) in out.iter_mut().zip(&self.acc) {
                        *o += coef * a;
                    }
                }
            }
        }
        &self.block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{BasisSet, Shell};
    use crate::molecule::Molecule;

    /// Analytic primitive (ss|ss) integral.
    #[allow(clippy::too_many_arguments)]
    fn ssss(
        a: f64,
        b: f64,
        c: f64,
        d: f64,
        ra: [f64; 3],
        rb: [f64; 3],
        rc: [f64; 3],
        rd: [f64; 3],
    ) -> f64 {
        let p = a + b;
        let q = c + d;
        let mu_ab = a * b / p;
        let mu_cd = c * d / q;
        let ab2: f64 = (0..3).map(|i| (ra[i] - rb[i]).powi(2)).sum();
        let cd2: f64 = (0..3).map(|i| (rc[i] - rd[i]).powi(2)).sum();
        let pc: Vec<f64> = (0..3).map(|i| (a * ra[i] + b * rb[i]) / p).collect();
        let qc: Vec<f64> = (0..3).map(|i| (c * rc[i] + d * rd[i]) / q).collect();
        let pq2: f64 = (0..3).map(|i| (pc[i] - qc[i]).powi(2)).sum();
        let rho = p * q / (p + q);
        let mut f0 = [0.0];
        crate::boys::boys(0, rho * pq2, &mut f0);
        let norm = crate::basis::primitive_norm(a, 0, 0, 0)
            * crate::basis::primitive_norm(b, 0, 0, 0)
            * crate::basis::primitive_norm(c, 0, 0, 0)
            * crate::basis::primitive_norm(d, 0, 0, 0);
        norm * 2.0 * PI.powf(2.5) / (p * q * (p + q).sqrt())
            * (-mu_ab * ab2).exp()
            * (-mu_cd * cd2).exp()
            * f0[0]
    }

    #[test]
    fn primitive_ssss_matches_analytic() {
        let ra = [0.0, 0.0, 0.0];
        let rb = [0.0, 0.0, 1.2];
        let rc = [0.5, -0.3, 0.2];
        let rd = [1.0, 1.0, 1.0];
        let (a, b, c, d) = (0.8, 1.1, 0.6, 1.9);
        let basis = BasisSet::from_shells(vec![
            Shell::new(0, vec![a], vec![1.0], ra, 0),
            Shell::new(0, vec![b], vec![1.0], rb, 1),
            Shell::new(0, vec![c], vec![1.0], rc, 2),
            Shell::new(0, vec![d], vec![1.0], rd, 3),
        ]);
        let eri = eri_tensor(&basis);
        let exact = ssss(a, b, c, d, ra, rb, rc, rd);
        assert!(
            (eri.get(0, 1, 2, 3) - exact).abs() < 1e-13,
            "{} vs {}",
            eri.get(0, 1, 2, 3),
            exact
        );
    }

    /// H2/STO-3G at R = 1.4 a₀ against the minimal-basis example of
    /// Szabo & Ostlund, *Modern Quantum Chemistry* (1989), ch. 3, to its
    /// printed digits: numbers that share no code with this engine.
    #[test]
    fn h2_sto3g_matches_the_textbook() {
        let m = Molecule::from_symbols_bohr(&[("H", [0.0; 3]), ("H", [0.0, 0.0, 1.4])], 0);
        let b = BasisSet::build(&m, "sto-3g");
        let (s, t, eri) = (crate::overlap(&b), crate::kinetic(&b), eri_tensor(&b));
        for (what, got, book) in [
            ("S12", s[(0, 1)], 0.659318),
            ("T11", t[(0, 0)], 0.760032),
            ("T12", t[(0, 1)], 0.236455),
            ("(11|11)", eri.get(0, 0, 0, 0), 0.774606),
            ("(11|22)", eri.get(0, 0, 1, 1), 0.569676),
            ("(21|21)", eri.get(1, 0, 1, 0), 0.297029),
            ("(21|11)", eri.get(1, 0, 0, 0), 0.444108),
        ] {
            assert!((got - book).abs() <= 5e-7, "{what}: {got} vs {book}");
        }
    }

    #[test]
    fn eightfold_symmetry_storage() {
        let m = Molecule::from_symbols_bohr(&[("H", [0.0; 3]), ("H", [0.0, 0.0, 1.4])], 0);
        let b = BasisSet::build(&m, "sto-3g");
        let eri = eri_tensor(&b);
        // All 8 permutations give the same value by construction of storage.
        let v = eri.get(1, 0, 1, 1);
        for &(p, q, r, s) in &[
            (0usize, 1usize, 1usize, 1usize),
            (1, 0, 1, 1),
            (1, 1, 0, 1),
            (1, 1, 1, 0),
        ] {
            assert_eq!(eri.get(p, q, r, s), v);
        }
    }

    #[test]
    fn positivity_of_coulomb_diagonals() {
        // (pp|pp) > 0 and the Cauchy–Schwarz bound
        // (pq|pq) ≤ sqrt((pp|pp)(qq|qq)) … actually (pq|pq) ≥ 0 always.
        let m = Molecule::from_symbols_bohr(&[("O", [0.0; 3]), ("H", [0.0, 0.0, 1.8])], 0);
        let b = BasisSet::build(&m, "sto-3g");
        let eri = eri_tensor(&b);
        let n = b.n_basis();
        for p in 0..n {
            assert!(eri.get(p, p, p, p) > 0.0);
            for q in 0..n {
                assert!(eri.get(p, q, p, q) >= -1e-14);
                let cs = (eri.get(p, p, p, p) * eri.get(q, q, q, q)).sqrt();
                assert!(eri.get(p, q, p, q) <= cs + 1e-12);
            }
        }
    }

    #[test]
    fn translation_invariance() {
        let m1 = Molecule::from_symbols_bohr(&[("H", [0.0; 3]), ("H", [0.0, 0.0, 1.4])], 0);
        let b1 = BasisSet::build(&m1, "sto-3g");
        let m2 = m1.translated([0.7, -2.0, 0.4]);
        let b2 = BasisSet::build(&m2, "sto-3g");
        let e1 = eri_tensor(&b1);
        let e2 = eri_tensor(&b2);
        for p in 0..2 {
            for q in 0..2 {
                for r in 0..2 {
                    for s in 0..2 {
                        assert!((e1.get(p, q, r, s) - e2.get(p, q, r, s)).abs() < 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn separated_charges_coulomb_limit() {
        // Two tight s functions far apart: (aa|bb) → 1/R.
        let r = 20.0;
        let basis = BasisSet::from_shells(vec![
            Shell::new(0, vec![4.0], vec![1.0], [0.0; 3], 0),
            Shell::new(0, vec![4.0], vec![1.0], [0.0, 0.0, r], 1),
        ]);
        let eri = eri_tensor(&basis);
        assert!((eri.get(0, 0, 1, 1) - 1.0 / r).abs() < 1e-10);
    }

    #[test]
    fn schwarz_screening_lossless_and_effective() {
        // Two distant H2 units: cross-quartets are tiny, so screening at
        // 1e-10 must skip quartets yet change no integral beyond 1e-10.
        let m = Molecule::from_symbols_bohr(
            &[
                ("H", [0.0, 0.0, 0.0]),
                ("H", [0.0, 0.0, 1.4]),
                ("H", [0.0, 0.0, 40.0]),
                ("H", [0.0, 0.0, 41.4]),
            ],
            0,
        );
        let b = BasisSet::build(&m, "sto-3g");
        let (full, skipped_tight) = eri_tensor_screened(&b, 0.0);
        let (scr, skipped) = eri_tensor_screened(&b, 1e-10);
        assert_eq!(skipped_tight, 0);
        assert!(skipped > 0, "expected distant quartets to be screened out");
        let n = b.n_basis();
        for p in 0..n {
            for q in 0..n {
                for r in 0..n {
                    for s in 0..n {
                        assert!((full.get(p, q, r, s) - scr.get(p, q, r, s)).abs() < 1e-10);
                    }
                }
            }
        }
    }

    #[test]
    fn schwarz_bound_holds() {
        // |(pq|rs)| <= sqrt((pq|pq) (rs|rs)) for every stored integral.
        let m = Molecule::from_symbols_bohr(&[("O", [0.0; 3]), ("H", [0.0, 0.0, 1.8])], 0);
        let b = BasisSet::build(&m, "sto-3g");
        let eri = eri_tensor(&b);
        let n = b.n_basis();
        for p in 0..n {
            for q in 0..n {
                for r in 0..n {
                    for s in 0..n {
                        let bound = (eri.get(p, q, p, q) * eri.get(r, s, r, s)).sqrt();
                        assert!(eri.get(p, q, r, s).abs() <= bound + 1e-12);
                    }
                }
            }
        }
    }

    #[test]
    fn d_shell_quartet_finite_and_symmetric() {
        let m = Molecule::from_symbols_bohr(&[("C", [0.0; 3])], 0);
        let b = BasisSet::build(&m, "svp");
        let eri = eri_tensor(&b);
        let n = b.n_basis();
        // spot-check symmetry relations on computed values
        for &(p, q, r, s) in &[
            (10usize, 3usize, 7usize, 1usize),
            (14, 14, 2, 0),
            (9, 8, 14, 13),
        ] {
            if p < n && q < n && r < n && s < n {
                let v = eri.get(p, q, r, s);
                assert!(v.is_finite());
                assert_eq!(v, eri.get(q, p, s, r));
                assert_eq!(v, eri.get(r, s, p, q));
            }
        }
    }
}
