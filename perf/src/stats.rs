//! Order statistics the benchmark reports: medians, quartiles, and the
//! percentile rule (a percentile is reported only when at least ten
//! samples lie beyond it).

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle two for an even count).
/// Panics on an empty slice: a metric with no samples is a bug.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Smallest of `xs`: the repetition least disturbed by the machine.
/// Interference on a shared box only ever adds time, so the fastest of a
/// few repetitions repeats better from run to run than their median.
pub fn fastest(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "fastest of no samples");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// First and third quartile with the "exclusive" rule of Python's
/// `statistics.quantiles(xs, n=4)` — the rule the acceptance check uses.
/// Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |k: usize| {
        // Rank k·(n+1)/4 (1-based), clamped into the data; the
        // fractional part is taken after clamping, as Python does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

/// The `p`-th percentile (0 < p < 100) of `xs`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie strictly beyond its rank. Nearest-rank
/// definition: the smallest sample with at least p % of the data at or
/// below it.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0);
    let n = xs.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n < rank + MIN_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}
