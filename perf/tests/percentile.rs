//! The percentile rule and the quartiles the acceptance check uses.

use fcix_perf::stats::{iqr_share, median, percentile, quartiles};

#[test]
fn a_percentile_needs_ten_samples_beyond_it() {
    // 200 samples: the p95 has exactly ten beyond it.
    let xs: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(percentile(&xs, 95.0), Some(190.0));
    // One sample fewer and only nine lie beyond: refuse.
    assert_eq!(percentile(&xs[..199], 95.0), None);
    // Three repetitions of a solve have no p95, and no p50 either.
    assert_eq!(percentile(&[1.0, 2.0, 3.0], 95.0), None);
    assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), None);
    // The served stream's 1,500 jobs: 75 beyond the p95.
    let xs: Vec<f64> = (1..=1500).map(f64::from).collect();
    assert_eq!(percentile(&xs, 95.0), Some(1425.0));
}

#[test]
fn percentile_is_order_independent() {
    let mut xs: Vec<f64> = (1..=400).map(f64::from).collect();
    xs.reverse();
    assert_eq!(percentile(&xs, 90.0), Some(360.0));
}

#[test]
fn median_of_even_and_odd_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[5.0]), 5.0);
}

#[test]
fn quartiles_match_pythons_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    assert!((iqr_share(&ten) - 1.0).abs() < 1e-15);
}
