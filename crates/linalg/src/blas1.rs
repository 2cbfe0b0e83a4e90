//! Level-1 (vector) kernels.
//!
//! These are the `DAXPY`-class operations whose modest memory-bound
//! throughput on the Cray-X1 (~2 GFlop/s per MSP out of cache, vs 10–11 for
//! DGEMM) is the quantitative motivation for the paper's DGEMM-based σ
//! algorithm. They are written as straightforward slice loops; LLVM
//! auto-vectorizes them, and the xsim machine model charges them at the
//! calibrated level-1 rate regardless.

/// `y += a * x`.
#[inline]
pub fn daxpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "daxpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Dot product `xᵀ y`.
#[inline]
pub fn ddot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "ddot length mismatch");
    // Four partial sums break the serial dependence chain and let LLVM use
    // packed adds; also slightly better rounding than a single accumulator.
    let mut s = [0.0f64; 4];
    let chunks = x.len() / 4;
    for k in 0..chunks {
        let i = 4 * k;
        s[0] += x[i] * y[i];
        s[1] += x[i + 1] * y[i + 1];
        s[2] += x[i + 2] * y[i + 2];
        s[3] += x[i + 3] * y[i + 3];
    }
    let mut tail = 0.0;
    for i in 4 * chunks..x.len() {
        tail += x[i] * y[i];
    }
    s[0] + s[1] + s[2] + s[3] + tail
}

/// Euclidean norm `‖x‖₂`, with scaling to avoid overflow/underflow.
pub fn dnrm2(x: &[f64]) -> f64 {
    let amax = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if amax == 0.0 || !amax.is_finite() {
        return amax;
    }
    let mut ssq = 0.0;
    for &v in x {
        let t = v / amax;
        ssq += t * t;
    }
    amax * ssq.sqrt()
}

/// `x *= a`.
#[inline]
pub fn dscal(a: f64, x: &mut [f64]) {
    for v in x {
        *v *= a;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daxpy_basic() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        daxpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn ddot_handles_tail() {
        // length 7 exercises both the unrolled body and the tail
        let x: Vec<f64> = (1..=7).map(|i| i as f64).collect();
        let y: Vec<f64> = (1..=7).map(|i| (i * i) as f64).collect();
        let expect: f64 = (1..=7).map(|i| (i * i * i) as f64).sum();
        assert_eq!(ddot(&x, &y), expect);
    }

    #[test]
    fn dnrm2_scaling_safe() {
        let x = [3e300, 4e300];
        assert!((dnrm2(&x) - 5e300).abs() / 5e300 < 1e-14);
        let y = [3e-300, 4e-300];
        assert!((dnrm2(&y) - 5e-300).abs() / 5e-300 < 1e-14);
        assert_eq!(dnrm2(&[]), 0.0);
        assert_eq!(dnrm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn dscal_basic() {
        let mut x = [1.0, -2.0];
        dscal(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }
}
