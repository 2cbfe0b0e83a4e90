//! Two-electron repulsion integrals `(μν|ρσ)` (chemist's notation) with
//! 8-fold permutational symmetry, packed storage.

use crate::basis::BasisSet;
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
    let ns = basis.n_shells();
    // Per-shell-pair Schwarz factors Q_ab = max over components √(ab|ab).
    let mut q = vec![0.0f64; ns * ns];
    for sa in 0..ns {
        for sb in 0..=sa {
            let block = shell_quartet(basis, sa, sb, sa, sb);
            let (na, nb) = (basis.shells()[sa].n_cart(), basis.shells()[sb].n_cart());
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
                    let block = shell_quartet(basis, sa, sb, sc, sd);
                    scatter_block(basis, &mut eri, sa, sb, sc, sd, &block);
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

/// Compute one shell quartet `(sa sb | sc sd)` as a dense
/// `na×nb×nc×nd` block (row-major in that index order).
fn shell_quartet(basis: &BasisSet, sa: usize, sb: usize, sc: usize, sd: usize) -> Vec<f64> {
    let sh_a = &basis.shells()[sa];
    let sh_b = &basis.shells()[sb];
    let sh_c = &basis.shells()[sc];
    let sh_d = &basis.shells()[sd];
    let (la, lb, lc, ld) = (sh_a.l, sh_b.l, sh_c.l, sh_d.l);
    let comps_a = sh_a.components();
    let comps_b = sh_b.components();
    let comps_c = sh_c.components();
    let comps_d = sh_d.components();
    let (na, nb, nc, nd) = (comps_a.len(), comps_b.len(), comps_c.len(), comps_d.len());
    let mut block = vec![0.0; na * nb * nc * nd];

    let lbra = la + lb;
    let lket = lc + ld;
    let ltot = lbra + lket;
    let bdim = lbra + 1; // Hermite index range per axis, bra
    let kdim = lket + 1; // … ket
    let bra_sz = bdim * bdim * bdim;
    let ket_sz = kdim * kdim * kdim;

    // Hermite representations of each component pair.
    let mut hbra = vec![0.0; na * nb * bra_sz];
    let mut hket = vec![0.0; nc * nd * ket_sz];
    // G[c2][tuv] = Σ_{τνφ} Hket[c2][τνφ] (−1)^{τ+ν+φ} R[t+τ, u+ν, v+φ]
    let mut g = vec![0.0; nc * nd * bra_sz];

    for (&a, &wa) in sh_a.exps.iter().zip(&sh_a.coefs) {
        for (&b, &wb) in sh_b.exps.iter().zip(&sh_b.coefs) {
            let p = a + b;
            let pcen = [
                (a * sh_a.center[0] + b * sh_b.center[0]) / p,
                (a * sh_a.center[1] + b * sh_b.center[1]) / p,
                (a * sh_a.center[2] + b * sh_b.center[2]) / p,
            ];
            let ex1 = ETable::new(la, lb, a, b, sh_a.center[0], sh_b.center[0]);
            let ey1 = ETable::new(la, lb, a, b, sh_a.center[1], sh_b.center[1]);
            let ez1 = ETable::new(la, lb, a, b, sh_a.center[2], sh_b.center[2]);
            // Bra Hermite coefficients for every component pair.
            hbra.iter_mut().for_each(|x| *x = 0.0);
            for (ia, &(i1, j1, k1)) in comps_a.iter().enumerate() {
                let fa = sh_a.component_factor(i1, j1, k1);
                for (ib, &(i2, j2, k2)) in comps_b.iter().enumerate() {
                    let fb = sh_b.component_factor(i2, j2, k2);
                    let base = (ia * nb + ib) * bra_sz;
                    for t in 0..=(i1 + i2) {
                        let etx = ex1.get(i1, i2, t);
                        for u in 0..=(j1 + j2) {
                            let etu = etx * ey1.get(j1, j2, u);
                            for v in 0..=(k1 + k2) {
                                hbra[base + (t * bdim + u) * kidx(bdim) + v] =
                                    fa * fb * etu * ez1.get(k1, k2, v);
                            }
                        }
                    }
                }
            }

            for (&c, &wc) in sh_c.exps.iter().zip(&sh_c.coefs) {
                for (&d, &wd) in sh_d.exps.iter().zip(&sh_d.coefs) {
                    let q = c + d;
                    let qcen = [
                        (c * sh_c.center[0] + d * sh_d.center[0]) / q,
                        (c * sh_c.center[1] + d * sh_d.center[1]) / q,
                        (c * sh_c.center[2] + d * sh_d.center[2]) / q,
                    ];
                    let ex2 = ETable::new(lc, ld, c, d, sh_c.center[0], sh_d.center[0]);
                    let ey2 = ETable::new(lc, ld, c, d, sh_c.center[1], sh_d.center[1]);
                    let ez2 = ETable::new(lc, ld, c, d, sh_c.center[2], sh_d.center[2]);
                    hket.iter_mut().for_each(|x| *x = 0.0);
                    for (ic, &(i3, j3, k3)) in comps_c.iter().enumerate() {
                        let fc = sh_c.component_factor(i3, j3, k3);
                        for (id, &(i4, j4, k4)) in comps_d.iter().enumerate() {
                            let fd = sh_d.component_factor(i4, j4, k4);
                            let base = (ic * nd + id) * ket_sz;
                            for t in 0..=(i3 + i4) {
                                let etx = ex2.get(i3, i4, t);
                                for u in 0..=(j3 + j4) {
                                    let etu = etx * ey2.get(j3, j4, u);
                                    for v in 0..=(k3 + k4) {
                                        hket[base + (t * kdim + u) * kdim + v] =
                                            fc * fd * etu * ez2.get(k3, k4, v);
                                    }
                                }
                            }
                        }
                    }

                    let rho = p * q / (p + q);
                    let pq = [pcen[0] - qcen[0], pcen[1] - qcen[1], pcen[2] - qcen[2]];
                    let r = RTable::new(ltot, rho, pq);
                    let coef = wa * wb * wc * wd * 2.0 * PI.powf(2.5) / (p * q * (p + q).sqrt());

                    // Step 2: contract ket Hermite with R.
                    g.iter_mut().for_each(|x| *x = 0.0);
                    for cket in 0..(nc * nd) {
                        let hbase = cket * ket_sz;
                        let gbase = cket * bra_sz;
                        for tau in 0..kdim {
                            for nu in 0..kdim {
                                for phi in 0..kdim {
                                    let h = hket[hbase + (tau * kdim + nu) * kdim + phi];
                                    if h == 0.0 {
                                        continue;
                                    }
                                    let sgn = if (tau + nu + phi) % 2 == 0 { 1.0 } else { -1.0 };
                                    let hs = h * sgn;
                                    // Only the simplex t+u+v ≤ lbra can
                                    // meet nonzero bra coefficients, and it
                                    // keeps the R-table access in range.
                                    for t in 0..bdim {
                                        for u in 0..(bdim - t) {
                                            for v in 0..(bdim - t - u) {
                                                g[gbase + (t * bdim + u) * bdim + v] +=
                                                    hs * r.get(t + tau, u + nu, v + phi);
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }

                    // Step 3: contract bra Hermite with G.
                    for cbra in 0..(na * nb) {
                        let hbase = cbra * bra_sz;
                        for cket in 0..(nc * nd) {
                            let gbase = cket * bra_sz;
                            let mut acc = 0.0;
                            for x in 0..bra_sz {
                                acc += hbra[hbase + x] * g[gbase + x];
                            }
                            block[cbra * (nc * nd) + cket] += coef * acc;
                        }
                    }
                }
            }
        }
    }
    block
}

// Helper so the hbra indexing above reads uniformly: bra z-stride is bdim.
#[inline(always)]
fn kidx(bdim: usize) -> usize {
    bdim
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
