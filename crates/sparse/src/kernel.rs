//! Allocation-free inner kernels of the sparse engine.
//!
//! These are the per-iteration hot loops of both sparse solvers, listed
//! in `fcix-check lint`'s zero-alloc set and rooted in `fcix-check`'s
//! call-graph analysis: no allocation, no `unwrap`/`expect`/`panic!`,
//! plain counted loops. Each function computes a *disjoint* output range
//! from read-only shared inputs, which is what makes the solvers
//! bitwise-reproducible at any thread count: the partition boundaries
//! never change the arithmetic performed for any single element, and the
//! (sequential) merges upstream are in fixed chunk order.

/// `y[k] = Σ_j H[lo+k, j]·x[j]` for the CSR row range `lo .. lo+y.len()`.
///
/// `rowptr`/`cols`/`vals` hold the strict off-diagonal entries of the
/// selected-space Hamiltonian; `diag` its diagonal. Row sums accumulate
/// left to right in index order — the result is a pure function of the
/// matrix, independent of how rows are partitioned across threads.
pub fn spmv_rows(
    rowptr: &[usize],
    cols: &[u32],
    vals: &[f64],
    diag: &[f64],
    x: &[f64],
    lo: usize,
    y: &mut [f64],
) {
    let mut k = 0;
    while k < y.len() {
        let r = lo + k;
        let mut acc = diag[r] * x[r];
        let mut t = rowptr[r];
        let end = rowptr[r + 1];
        while t < end {
            acc += vals[t] * x[cols[t] as usize];
            t += 1;
        }
        y[k] = acc;
        k += 1;
    }
}

/// Largest-|gradient| scan over the slot range `lo..hi` of a coefficient
/// store: returns `(slot, |b − E·c|)` of the best *live* slot, or
/// `(usize::MAX, -1.0)` if the range holds none.
///
/// `flags[i] != 0` marks a live slot; `vals[i] = [c_i, b_i]` with
/// `b = H·c`. Ties keep the lowest slot index (strict `>`), so merging
/// per-chunk winners in ascending chunk order reproduces the full-range
/// scan exactly — the thread partition cannot change the pick.
pub fn scan_gradient(
    flags: &[u8],
    vals: &[[f64; 2]],
    e: f64,
    lo: usize,
    hi: usize,
) -> (usize, f64) {
    let mut best_slot = usize::MAX;
    let mut best_g = -1.0f64;
    let mut i = lo;
    while i < hi {
        if flags[i] != 0 {
            let g = (vals[i][1] - e * vals[i][0]).abs();
            if g > best_g {
                best_g = g;
                best_slot = i;
            }
        }
        i += 1;
    }
    (best_slot, best_g)
}

/// Accumulate `(Σ c², Σ c·b)` over the live slots of `lo..hi` — the
/// (S, A) pair CDFCI tracks incrementally, recomputed in full for drift
/// control. Left-to-right accumulation in slot order; per-chunk partial
/// sums are merged sequentially by the caller in chunk order.
pub fn scan_norms(flags: &[u8], vals: &[[f64; 2]], lo: usize, hi: usize) -> (f64, f64) {
    let mut s = 0.0;
    let mut a = 0.0;
    let mut i = lo;
    while i < hi {
        if flags[i] != 0 {
            let c = vals[i][0];
            s += c * c;
            a += c * vals[i][1];
        }
        i += 1;
    }
    (s, a)
}

/// Evaluate the optimal CDFCI line-search step `t` for coordinate `i`:
/// minimize the Rayleigh quotient ρ(t) = (A + 2Bt + Dt²)/(S + 2ut + t²)
/// where `u = c_i`, `B = b_i = (Hc)_i`, `D = H_ii`, `S = c·c`, `A = c·b`.
/// dρ/dt = 0 reduces to the quadratic
/// `(Du − B)t² + (DS − A)t + (BS − Au) = 0`; of its real roots the one
/// with lower ρ is returned. Degenerate cases fall back to the linear
/// solution or 0.0 (no move).
pub fn cdfci_step(u: f64, b: f64, d: f64, s: f64, a: f64) -> f64 {
    let qa = d * u - b;
    let qb = d * s - a;
    let qc = b * s - a * u;
    let rho = |t: f64| (a + 2.0 * b * t + d * t * t) / (s + 2.0 * u * t + t * t);
    if qa.abs() <= 1e-300 {
        if qb.abs() <= 1e-300 {
            return 0.0;
        }
        let t = -qc / qb;
        return if rho(t) <= rho(0.0) { t } else { 0.0 };
    }
    let disc = qb * qb - 4.0 * qa * qc;
    if disc < 0.0 {
        return 0.0;
    }
    let sq = disc.sqrt();
    // Numerically stable root pair.
    let q = -0.5 * (qb + if qb >= 0.0 { sq } else { -sq });
    let t1 = q / qa;
    let t2 = if q.abs() <= 1e-300 { t1 } else { qc / q };
    if rho(t1) <= rho(t2) {
        t1
    } else {
        t2
    }
}

/// Split `n` items into `parts` contiguous ranges (first `n % parts`
/// ranges get one extra item). `range_of(n, parts, k)` returns the k-th.
pub fn range_of(n: usize, parts: usize, k: usize) -> (usize, usize) {
    let base = n / parts;
    let extra = n % parts;
    let lo = k * base + k.min(extra);
    let len = base + usize::from(k < extra);
    (lo, (lo + len).min(n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmv_matches_dense() {
        // 3×3 symmetric: diag [1,2,3], off (0,1)=0.5, (1,2)=-0.25.
        let rowptr = [0usize, 1, 3, 4];
        let cols = [1u32, 0, 2, 1];
        let vals = [0.5, 0.5, -0.25, -0.25];
        let diag = [1.0, 2.0, 3.0];
        let x = [1.0, -2.0, 4.0];
        let mut y = [0.0; 3];
        spmv_rows(&rowptr, &cols, &vals, &diag, &x, 0, &mut y);
        assert_eq!(y, [1.0 - 1.0, 0.5 - 4.0 - 1.0, 12.0 + 0.5]);
    }

    #[test]
    fn spmv_partition_invariant_bitwise() {
        let n = 37;
        let mut rowptr = vec![0usize];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        let mut diag = vec![0.0; n];
        let mut x = vec![0.0; n];
        let mut state = 12345u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        for r in 0..n {
            diag[r] = rnd();
            x[r] = rnd();
            for c in 0..n {
                if c != r && (r * 7 + c * 13) % 5 == 0 {
                    cols.push(c as u32);
                    vals.push(rnd());
                }
            }
            rowptr.push(cols.len());
        }
        let mut whole = vec![0.0; n];
        spmv_rows(&rowptr, &cols, &vals, &diag, &x, 0, &mut whole);
        for parts in [2usize, 3, 5, 8] {
            let mut pieced = vec![0.0; n];
            for k in 0..parts {
                let (lo, hi) = range_of(n, parts, k);
                spmv_rows(&rowptr, &cols, &vals, &diag, &x, lo, &mut pieced[lo..hi]);
            }
            for i in 0..n {
                assert_eq!(whole[i].to_bits(), pieced[i].to_bits());
            }
        }
    }

    #[test]
    fn gradient_scan_merge_equals_full_scan() {
        let n = 101;
        let mut flags = vec![0u8; n];
        let mut vals = vec![[0.0f64; 2]; n];
        for i in 0..n {
            flags[i] = u8::from(i % 3 != 1);
            vals[i] = [(i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()];
        }
        // Duplicate the maximum to exercise the tie-break.
        vals[40] = [0.0, 5.0];
        vals[80] = [0.0, 5.0];
        flags[40] = 1;
        flags[80] = 1;
        let e = 0.3;
        let full = scan_gradient(&flags, &vals, e, 0, n);
        assert_eq!(full.0, 40);
        for parts in [2usize, 4, 7] {
            let mut best = (usize::MAX, -1.0f64);
            for k in 0..parts {
                let (lo, hi) = range_of(n, parts, k);
                let part = scan_gradient(&flags, &vals, e, lo, hi);
                if part.1 > best.1 {
                    best = part;
                }
            }
            assert_eq!(best, full);
        }
    }

    #[test]
    fn cdfci_step_minimizes_quotient() {
        // Brute-force check against a grid for several states.
        for (u, b, d, s, a) in [
            (0.3, -0.8, -1.0, 1.2, -1.0),
            (0.2, 0.05, 1.5, 1.3, -2.0),
            (0.0, -0.3, 2.0, 1.0, -1.5),
            (-0.4, 0.0, -0.5, 2.0, 0.7),
        ] {
            let t = cdfci_step(u, b, d, s, a);
            let rho = |t: f64| (a + 2.0 * b * t + d * t * t) / (s + 2.0 * u * t + t * t);
            let here = rho(t);
            let mut g = -3.0;
            while g <= 3.0 {
                assert!(here <= rho(g) + 1e-9, "t={t} worse than grid {g}");
                g += 0.01;
            }
        }
    }

    #[test]
    fn range_partition_covers() {
        for n in [0usize, 1, 7, 100] {
            for parts in [1usize, 2, 3, 9] {
                let mut next = 0;
                for k in 0..parts {
                    let (lo, hi) = range_of(n, parts, k);
                    assert_eq!(lo, next);
                    next = hi;
                }
                assert_eq!(next, n);
            }
        }
    }
}
