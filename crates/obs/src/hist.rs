//! Log-linear (HDR-style) histograms with bounded relative error.
//!
//! # Bucketing math
//!
//! A positive finite `f64` is bucketed by truncating its bit pattern:
//! the 11 exponent bits select the octave `[2^e, 2^(e+1))` and the top
//! `SUB_BITS` mantissa bits select one of `2^SUB_BITS` equal-width
//! linear sub-buckets inside it. Equivalently,
//!
//! ```text
//! index(v) = v.to_bits() >> (52 - SUB_BITS)
//! ```
//!
//! which is monotone in `v`, needs no `log()` call, and costs one shift.
//! Within an octave every bucket spans `2^e / 2^SUB_BITS`, so reporting a
//! bucket's **upper edge** overestimates any member value by at most a
//! factor of `1 + 2^-SUB_BITS` — the relative-error bound the property
//! tests assert against an exact sorted reference.
//!
//! # Determinism
//!
//! Buckets are unsigned counts and min/max are exact, so merging shards
//! is associative and commutative; every derived statistic (percentiles,
//! `sum()`) is computed from the merged counts in fixed index
//! order. The rendered output is therefore bitwise identical no matter
//! which order shards were merged in.

/// Mantissa bits kept per octave: `2^5 = 32` linear sub-buckets.
pub(crate) const SUB_BITS: u32 = 5;

const SHIFT: u32 = 52 - SUB_BITS;

#[inline]
fn index_of(v: f64) -> usize {
    (v.to_bits() >> SHIFT) as usize
}

/// Smallest value strictly above every value in bucket `idx`.
#[inline]
fn upper_edge(idx: usize) -> f64 {
    let bits = ((idx as u64) + 1) << SHIFT;
    if bits >= f64::INFINITY.to_bits() {
        f64::MAX
    } else {
        f64::from_bits(bits)
    }
}

/// Smallest value in bucket `idx`.
#[inline]
fn lower_edge(idx: usize) -> f64 {
    f64::from_bits((idx as u64) << SHIFT)
}

/// A mergeable log-linear histogram of non-negative `f64` samples.
///
/// Recording is O(1); memory is proportional to the *span* of touched
/// buckets (a contiguous window), which for real metric streams (latency,
/// bytes, GF/s) is a few dozen slots.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    zeros: u64,
    dropped: u64,
    min: f64,
    max: f64,
    /// Global bucket index of `buckets[0]`; meaningless when empty.
    base: usize,
    buckets: Vec<u64>,
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one sample. Negative, NaN and infinite values are counted
    /// in [`Histogram::dropped`] and otherwise ignored.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            self.dropped += 1;
            return;
        }
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        if v == 0.0 {
            self.zeros += 1;
            return;
        }
        let idx = index_of(v);
        if self.buckets.is_empty() {
            self.base = idx;
            self.buckets.push(0);
        } else if idx < self.base {
            let grow = self.base - idx;
            self.buckets.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = idx;
        } else if idx >= self.base + self.buckets.len() {
            self.buckets.resize(idx - self.base + 1, 0);
        }
        self.buckets[idx - self.base] += 1;
    }

    /// Number of recorded (non-dropped) samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Samples rejected as negative or non-finite.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Exact minimum, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate sum: each bucket contributes its midpoint × count
    /// (±`2^-SUB_BITS`/2 relative per sample). Computed in fixed bucket order, so the
    /// result is independent of recording or merge order.
    pub fn sum(&self) -> f64 {
        let mut s = 0.0;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                let idx = self.base + i;
                s += 0.5 * (lower_edge(idx) + upper_edge(idx)) * c as f64;
            }
        }
        s
    }

    /// Bucket-bounded percentile `q` in `[0, 100]`, `None` when empty.
    ///
    /// Returns the upper edge of the bucket holding the nearest-rank
    /// sample, clamped to the exact recorded maximum — so the result
    /// never under-reports the true order statistic and over-reports it
    /// by at most a factor of `1 + 2^-SUB_BITS`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 100.0);
        let rank = ((q / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank <= self.zeros {
            return Some(0.0);
        }
        let mut cum = self.zeros;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(upper_edge(self.base + i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Merge another histogram into this one. Associative and
    /// commutative; see the module docs on bitwise stability.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.zeros += other.zeros;
        self.dropped += other.dropped;
        if other.buckets.is_empty() {
            return;
        }
        if self.buckets.is_empty() {
            self.base = other.base;
            self.buckets = other.buckets.clone();
            return;
        }
        let new_base = self.base.min(other.base);
        let new_end = (self.base + self.buckets.len()).max(other.base + other.buckets.len());
        if new_base < self.base {
            let grow = self.base - new_base;
            self.buckets.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = new_base;
        }
        if new_end > self.base + self.buckets.len() {
            self.buckets.resize(new_end - self.base, 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[other.base + i - self.base] += c;
        }
    }

    /// Compact summary statistics of this histogram.
    pub(crate) fn stats(&self) -> HistStats {
        HistStats {
            count: self.count,
            sum: self.sum(),
            p50: self.percentile(50.0).unwrap_or(0.0),
            p95: self.percentile(95.0).unwrap_or(0.0),
            p99: self.percentile(99.0).unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
        }
    }
}

/// Compact percentile summary of a histogram — the fixed p50/p95/p99/max
/// cut the metrics exposition renders.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) struct HistStats {
    /// Number of samples.
    pub count: u64,
    /// Sum of samples (midpoint approximation).
    pub sum: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bound on the relative error of bucket-edge percentiles.
    const REL_ERR: f64 = 1.0 / (1u64 << SUB_BITS) as f64;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn bucket_edges_bracket_values() {
        for &v in &[1e-9, 0.37, 1.0, 1.5, 3.25, 1e6, 7.7e12] {
            let idx = index_of(v);
            assert!(lower_edge(idx) <= v, "lower edge above {v}");
            assert!(upper_edge(idx) > v, "upper edge not above {v}");
            let width = upper_edge(idx) - lower_edge(idx);
            assert!(width / lower_edge(idx) <= REL_ERR * (1.0 + 1e-12));
        }
    }

    #[test]
    fn percentiles_within_relative_error() {
        let mut h = Histogram::new();
        let mut vals = Vec::new();
        // Deterministic log-uniform-ish spread over 9 decades.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = 1e-6 * ((x % 1_000_000_000) as f64 + 1.0);
            vals.push(v);
            h.record(v);
        }
        // Exact nearest-rank order statistics.
        vals.sort_by(f64::total_cmp);
        let exact = |q: f64| vals[((q / 100.0 * vals.len() as f64).ceil() as usize).max(1) - 1];
        for (q, want) in [50.0, 95.0, 99.0].map(|q| (q, exact(q))) {
            let got = h.percentile(q).unwrap();
            assert!(got >= want * (1.0 - 1e-12), "p{q}: {got} < exact {want}");
            assert!(
                got <= want * (1.0 + REL_ERR + 1e-12),
                "p{q}: {got} >> {want}"
            );
        }
        assert_eq!(h.percentile(100.0), Some(exact(100.0)));
        assert_eq!(h.max(), Some(exact(100.0)));
    }

    #[test]
    fn zeros_and_dropped() {
        let mut h = Histogram::new();
        h.record(0.0);
        h.record(0.0);
        h.record(4.0);
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.dropped(), 3);
        assert_eq!(h.percentile(50.0), Some(0.0));
        assert_eq!(h.percentile(100.0), Some(4.0));
        assert_eq!(h.min(), Some(0.0));
    }

    #[test]
    fn merge_matches_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for i in 0..1000 {
            let v = (i as f64 + 1.0) * 0.013;
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
    }

    #[test]
    fn merge_order_is_bitwise_stable() {
        let shards: Vec<Histogram> = (0..4)
            .map(|s| {
                let mut h = Histogram::new();
                for i in 0..500 {
                    h.record(((s * 811 + i * 97) % 100_000) as f64 * 1e-3 + 1e-9);
                }
                h
            })
            .collect();
        let fold = |order: &[usize]| {
            let mut m = Histogram::new();
            for &i in order {
                m.merge(&shards[i]);
            }
            m
        };
        let a = fold(&[0, 1, 2, 3]);
        let b = fold(&[3, 1, 0, 2]);
        // Nested merge: (0+1) + (2+3).
        let mut left = shards[0].clone();
        left.merge(&shards[1]);
        let mut right = shards[2].clone();
        right.merge(&shards[3]);
        left.merge(&right);
        for h in [&b, &left] {
            assert_eq!(a, *h);
            assert_eq!(a.sum().to_bits(), h.sum().to_bits());
            for q in [50.0, 95.0, 99.0, 100.0] {
                assert_eq!(
                    a.percentile(q).unwrap().to_bits(),
                    h.percentile(q).unwrap().to_bits()
                );
            }
        }
    }

    #[test]
    fn stats_summarize() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        let s = h.stats();
        assert_eq!(s.count, 100);
        assert_eq!(s.max, 100.0);
        assert!(s.p50 >= 50.0 && s.p50 <= 50.0 * (1.0 + REL_ERR));
        assert!((s.sum - 5050.0).abs() / 5050.0 <= REL_ERR);
    }
}
