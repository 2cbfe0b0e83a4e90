//! The Boys function `F_m(T) = ∫₀¹ t^{2m} exp(−T t²) dt`.
//!
//! Every Coulomb-type Gaussian integral reduces to Boys function values.
//! Strategy (standard and numerically safe over the whole range):
//!
//! * `T` tiny → Taylor limit `F_m(0) = 1/(2m+1)`;
//! * moderate `T` → converge the series for the *highest* needed order and
//!   fill lower orders by the stable downward recursion
//!   `F_{m−1}(T) = (2T·F_m(T) + e^{−T}) / (2m−1)`;
//! * large `T` → `F_0(T) = ½√(π/T)·erf(√T) ≈ ½√(π/T)` and the upward
//!   recursion `F_{m+1}(T) = ((2m+1)F_m(T) − e^{−T}) / (2T)`, which is
//!   stable when `2T ≫ 2m+1`.

/// Fill `out[0..=mmax]` with `F_0(T) … F_mmax(T)`.
pub fn boys(mmax: usize, t: f64, out: &mut [f64]) {
    assert!(out.len() > mmax);
    debug_assert!(t >= 0.0, "Boys argument must be non-negative");
    if t < 1e-13 {
        for (m, o) in out.iter_mut().enumerate().take(mmax + 1) {
            *o = 1.0 / (2 * m + 1) as f64;
        }
        return;
    }
    if t > 35.0 + 2.0 * mmax as f64 {
        // Asymptotic: erf(√T) = 1 to machine precision here.
        let st = t.sqrt();
        out[0] = 0.5 * (std::f64::consts::PI).sqrt() / st;
        let emt = (-t).exp();
        for m in 0..mmax {
            out[m + 1] = ((2 * m + 1) as f64 * out[m] - emt) / (2.0 * t);
        }
        return;
    }
    // Series at the top order: F_m(T) = e^{−T} Σ_{k≥0} (2T)^k / (2m+1)(2m+3)…(2m+2k+1)
    let emt = (-t).exp();
    let mut term = 1.0 / (2 * mmax + 1) as f64;
    let mut sum = term;
    let mut k = 1usize;
    loop {
        term *= 2.0 * t / (2 * mmax + 2 * k + 1) as f64;
        sum += term;
        if term < 1e-17 * sum || k > 400 {
            break;
        }
        k += 1;
    }
    out[mmax] = emt * sum;
    for m in (1..=mmax).rev() {
        out[m - 1] = (2.0 * t * out[m] + emt) / (2 * m - 1) as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Adaptive Simpson reference integration of the Boys integrand.
    fn boys_quad(m: usize, t: f64) -> f64 {
        let f = |x: f64| x.powi(2 * m as i32) * (-t * x * x).exp();
        // plain composite Simpson with many points is plenty here
        let n = 20_000;
        let h = 1.0 / n as f64;
        let mut s = f(0.0) + f(1.0);
        for i in 1..n {
            let x = i as f64 * h;
            s += f(x) * if i % 2 == 1 { 4.0 } else { 2.0 };
        }
        s * h / 3.0
    }

    #[test]
    fn zero_argument_limit() {
        let mut v = [0.0; 5];
        boys(4, 0.0, &mut v);
        for (m, &x) in v.iter().enumerate() {
            assert!((x - 1.0 / (2 * m + 1) as f64).abs() < 1e-15);
        }
    }

    #[test]
    fn matches_quadrature_moderate() {
        for &t in &[1e-8, 0.1, 0.5, 1.0, 3.0, 7.5, 14.0, 20.0, 33.0] {
            let mut v = [0.0; 7];
            boys(6, t, &mut v);
            for (m, &x) in v.iter().enumerate() {
                let q = boys_quad(m, t);
                assert!((x - q).abs() < 1e-10, "F_{m}({t}) = {x} vs quad {q}");
            }
        }
    }

    #[test]
    fn matches_quadrature_large() {
        for &t in &[40.0, 60.0, 120.0] {
            let mut v = [0.0; 6];
            boys(5, t, &mut v);
            for (m, &x) in v.iter().enumerate() {
                let q = boys_quad(m, t);
                assert!(
                    (x - q).abs() < 1e-12 + 1e-8 * q,
                    "F_{m}({t}) = {x} vs quad {q}"
                );
            }
        }
    }

    #[test]
    fn downward_recursion_consistency() {
        // The recursion (2m+1) F_m = 2T F_{m+1} + e^{−T} must hold exactly
        // for whatever branch produced the values.
        for &t in &[0.3, 5.0, 25.0, 50.0, 200.0] {
            let mut v = [0.0; 9];
            boys(8, t, &mut v);
            for m in 0..8 {
                let lhs = (2 * m + 1) as f64 * v[m];
                let rhs = 2.0 * t * v[m + 1] + (-t).exp();
                assert!((lhs - rhs).abs() < 1e-12 * lhs.max(1e-300), "t={t} m={m}");
            }
        }
    }

    #[test]
    fn monotone_in_order_and_argument() {
        // F_m decreases with m at fixed T, and with T at fixed m.
        let mut v = [0.0; 7];
        boys(6, 2.0, &mut v);
        for m in 0..6 {
            assert!(v[m + 1] < v[m]);
        }
        let (mut a, mut b) = ([0.0], [0.0]);
        boys(0, 1.0, &mut a);
        boys(0, 2.0, &mut b);
        assert!(b[0] < a[0]);
    }
}
