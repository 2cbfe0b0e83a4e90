//! McMurchie–Davidson machinery: Hermite expansion (E) coefficients and
//! Hermite Coulomb (R) integrals.
//!
//! A product of two 1D Cartesian Gaussians expands in Hermite Gaussians
//! `Λ_t` centered at the Gaussian product center P:
//!
//! ```text
//! x_A^i e^{−α x_A²} · x_B^j e^{−β x_B²} = Σ_{t=0}^{i+j} E_t^{ij} Λ_t(x_P; p)
//! ```
//!
//! with `p = α + β`. The E coefficients obey two-term transfer recursions in
//! i and j; all one- and two-electron integrals then reduce to closed forms
//! in E and (for Coulomb operators) the Hermite integrals `R_{tuv}` built
//! from Boys function values.

use crate::boys::boys;

/// Table of E coefficients for one Cartesian direction of a primitive pair:
/// `e(i, j, t)` for `0 ≤ i ≤ imax`, `0 ≤ j ≤ jmax`, `0 ≤ t ≤ i + j`.
#[derive(Clone, Debug)]
pub struct ETable {
    imax: usize,
    jmax: usize,
    data: Vec<f64>,
}

impl ETable {
    /// Build the table. `a`, `b` are the exponents; `ax`, `bx` the centers
    /// along this direction.
    pub fn new(imax: usize, jmax: usize, a: f64, b: f64, ax: f64, bx: f64) -> Self {
        let p = a + b;
        let mu = a * b / p;
        let px = (a * ax + b * bx) / p;
        let xab = ax - bx;
        let xpa = px - ax;
        let xpb = px - bx;
        let tdim = imax + jmax + 1;
        let mut t = ETable {
            imax,
            jmax,
            data: vec![0.0; (imax + 1) * (jmax + 1) * tdim],
        };
        t.set(0, 0, 0, (-mu * xab * xab).exp());
        // Raise i at j = 0, then raise j at each i.
        for i in 0..imax {
            for tt in 0..=(i + 1) {
                let mut v = xpa * t.get(i, 0, tt);
                if tt > 0 {
                    v += t.get(i, 0, tt - 1) / (2.0 * p);
                }
                if tt < i {
                    v += (tt + 1) as f64 * t.get(i, 0, tt + 1);
                }
                t.set(i + 1, 0, tt, v);
            }
        }
        for i in 0..=imax {
            for j in 0..jmax {
                for tt in 0..=(i + j + 1) {
                    let mut v = xpb * t.get(i, j, tt);
                    if tt > 0 {
                        v += t.get(i, j, tt - 1) / (2.0 * p);
                    }
                    if tt < i + j {
                        v += (tt + 1) as f64 * t.get(i, j, tt + 1);
                    }
                    t.set(i, j + 1, tt, v);
                }
            }
        }
        t
    }

    #[inline]
    fn idx(&self, i: usize, j: usize, t: usize) -> usize {
        (i * (self.jmax + 1) + j) * (self.imax + self.jmax + 1) + t
    }

    /// `E_t^{ij}`; zero for `t > i + j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize, t: usize) -> f64 {
        if t > i + j {
            return 0.0;
        }
        self.data[self.idx(i, j, t)]
    }

    #[inline]
    fn set(&mut self, i: usize, j: usize, t: usize, v: f64) {
        let k = self.idx(i, j, t);
        self.data[k] = v;
    }
}

/// Hermite Coulomb integrals `R_{tuv} ≡ R⁰_{tuv}(p, PC)` for all
/// `t + u + v ≤ l`, stored with stride `(l+1)` per axis.
#[derive(Clone, Debug, Default)]
pub struct RTable {
    l: usize,
    data: Vec<f64>,
    /// The recursion's other level and the Boys values: kept so that
    /// [`RTable::fill`] reuses them.
    next: Vec<f64>,
    boys: Vec<f64>,
}

impl RTable {
    /// Build from the total order `l`, exponent `p` and the vector `pc`
    /// from the product center to the charge center.
    pub fn new(l: usize, p: f64, pc: [f64; 3]) -> Self {
        let mut r = RTable::default();
        r.fill(l, p, pc);
        r
    }

    /// [`RTable::new`] into this table's storage: the same values for
    /// every `t + u + v ≤ l`, and no allocation once the buffers have
    /// held an order-`l` table. Entries outside that simplex are not
    /// defined.
    pub(crate) fn fill(&mut self, l: usize, p: f64, pc: [f64; 3]) {
        let r2 = pc[0] * pc[0] + pc[1] * pc[1] + pc[2] * pc[2];
        self.boys.resize(l + 1, 0.0);
        boys(l, p * r2, &mut self.boys);
        let dim = l + 1;
        let sz = dim * dim * dim;
        self.l = l;
        self.data.resize(sz, 0.0);
        self.next.resize(sz, 0.0);
        // Level n holds R^n_{tuv}; we fill from n = l down to 0. Level n
        // writes every t + u + v ≤ l − n and reads only level n + 1's
        // t + u + v < l − n, all written one level up.
        let at = |t: usize, u: usize, v: usize| (t * dim + u) * dim + v;
        for n in (0..=l).rev() {
            std::mem::swap(&mut self.data, &mut self.next);
            let (cur, next) = (&mut self.data, &self.next);
            let m2p = (-2.0 * p).powi(n as i32);
            cur[at(0, 0, 0)] = m2p * self.boys[n];
            let order = l - n;
            for t in 0..=order {
                for u in 0..=(order - t) {
                    for v in 0..=(order - t - u) {
                        if t + u + v == 0 {
                            continue;
                        }
                        let val = if t > 0 {
                            let mut x = pc[0] * next[at(t - 1, u, v)];
                            if t > 1 {
                                x += (t - 1) as f64 * next[at(t - 2, u, v)];
                            }
                            x
                        } else if u > 0 {
                            let mut x = pc[1] * next[at(t, u - 1, v)];
                            if u > 1 {
                                x += (u - 1) as f64 * next[at(t, u - 2, v)];
                            }
                            x
                        } else {
                            let mut x = pc[2] * next[at(t, u, v - 1)];
                            if v > 1 {
                                x += (v - 1) as f64 * next[at(t, u, v - 2)];
                            }
                            x
                        };
                        cur[at(t, u, v)] = val;
                    }
                }
            }
        }
    }

    /// `R_{tuv}`; caller must keep `t + u + v ≤ l`.
    #[inline]
    pub fn get(&self, t: usize, u: usize, v: usize) -> f64 {
        debug_assert!(t + u + v <= self.l);
        let dim = self.l + 1;
        self.data[(t * dim + u) * dim + v]
    }

    /// The table as one slice: `R_{tuv}` at `(t·(l+1) + u)·(l+1) + v`,
    /// so `R_{t+τ, u+ν, v+φ}` sits at the sum of the two offsets.
    pub(crate) fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e00_is_gaussian_prefactor() {
        let (a, b, ax, bx) = (0.9, 1.3, 0.0, 1.1);
        let e = ETable::new(0, 0, a, b, ax, bx);
        let mu = a * b / (a + b);
        assert!((e.get(0, 0, 0) - (-mu * (ax - bx) * (ax - bx)).exp()).abs() < 1e-15);
    }

    #[test]
    fn e_sum_rule_point_value() {
        // At any x, Σ_t E_t^{ij} Λ_t(x_P) must reproduce the 1D product
        // x_A^i exp(−α x_A²) x_B^j exp(−β x_B²).
        // Hermite Gaussians: Λ_t(x) = (∂/∂P)^t exp(−p x_P²).
        let (a, b, ax, bx) = (0.8, 0.45, -0.3, 0.9);
        let p = a + b;
        let px = (a * ax + b * bx) / p;
        let e = ETable::new(3, 2, a, b, ax, bx);
        // Λ_t(x) = (∂/∂P)^t e^{−p(x−P)²}. With u = √p (x−P) and the
        // physicists' Hermite polynomials H_t, (d/du)^t e^{−u²} =
        // (−1)^t H_t(u) e^{−u²} and ∂/∂P = −√p d/du, so
        // Λ_t(x) = p^{t/2} H_t(u) e^{−u²} — evaluated exactly.
        let lambda = |t: usize, x: f64| -> f64 {
            let u = p.sqrt() * (x - px);
            let h = match t {
                0 => 1.0,
                1 => 2.0 * u,
                2 => 4.0 * u * u - 2.0,
                3 => 8.0 * u.powi(3) - 12.0 * u,
                4 => 16.0 * u.powi(4) - 48.0 * u * u + 12.0,
                5 => 32.0 * u.powi(5) - 160.0 * u.powi(3) + 120.0 * u,
                _ => unreachable!(),
            };
            p.powf(t as f64 / 2.0) * h * (-u * u).exp()
        };
        for (i, j) in [(0usize, 0usize), (1, 0), (0, 1), (2, 1), (3, 2)] {
            for &x in &[-0.7, 0.2, 1.4] {
                let exact = (x - ax).powi(i as i32)
                    * (-a * (x - ax) * (x - ax)).exp()
                    * (x - bx).powi(j as i32)
                    * (-b * (x - bx) * (x - bx)).exp();
                let mut sum = 0.0;
                for t in 0..=(i + j) {
                    sum += e.get(i, j, t) * lambda(t, x);
                }
                assert!(
                    (sum - exact).abs() < 1e-12,
                    "E sum rule failed at i={i} j={j} x={x}: {sum} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn e_t_out_of_range_zero() {
        let e = ETable::new(2, 2, 1.0, 1.0, 0.0, 0.5);
        assert_eq!(e.get(1, 1, 3), 0.0);
        assert_eq!(e.get(0, 0, 1), 0.0);
    }

    #[test]
    fn r000_is_boys() {
        let p = 1.7;
        let pc = [0.3, -0.2, 0.5];
        let r2: f64 = pc.iter().map(|x| x * x).sum();
        let r = RTable::new(0, p, pc);
        let mut f0 = [0.0];
        crate::boys::boys(0, p * r2, &mut f0);
        assert!((r.get(0, 0, 0) - f0[0]).abs() < 1e-15);
    }

    #[test]
    fn r_derivative_consistency() {
        // R_{100}(PC) = ∂/∂PC_x R_{000}(PC); check by finite difference.
        let p = 0.9;
        let pc = [0.4, 0.1, -0.3];
        let h = 1e-5;
        let r = RTable::new(2, p, pc);
        let r0 = |pcx: f64| RTable::new(0, p, [pcx, pc[1], pc[2]]).get(0, 0, 0);
        let fd = (r0(pc[0] + h) - r0(pc[0] - h)) / (2.0 * h);
        assert!(
            (r.get(1, 0, 0) - fd).abs() < 1e-7,
            "{} vs {}",
            r.get(1, 0, 0),
            fd
        );
        // Second derivative.
        let fd2 = (r0(pc[0] + h) - 2.0 * r0(pc[0]) + r0(pc[0] - h)) / (h * h);
        assert!((r.get(2, 0, 0) - fd2).abs() < 1e-5);
    }

    #[test]
    fn r_symmetric_in_axes() {
        // Swapping the roles of x and y in PC must swap R indices.
        let p = 1.1;
        let r1 = RTable::new(3, p, [0.2, 0.7, -0.1]);
        let r2 = RTable::new(3, p, [0.7, 0.2, -0.1]);
        assert!((r1.get(2, 1, 0) - r2.get(1, 2, 0)).abs() < 1e-13);
        assert!((r1.get(0, 1, 2) - r2.get(1, 0, 2)).abs() < 1e-13);
    }
}
