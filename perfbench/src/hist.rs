//! Log-linear latency histogram: fixed size, mergeable, ≤ 1.6% relative
//! bucket error.
//!
//! Values below `SUB` get one bucket each (exact); above that every
//! power-of-two octave is cut into `SUB` equal sub-buckets, so a bucket's
//! width is at most 1/`SUB` of its lower edge. `common::stats`'
//! `LatencyHistogram` is power-of-two (2× error) — too coarse to compare a
//! p99 against a 10% bound.

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Exact buckets for `0..SUB`, then `SUB` sub-buckets for each of the
/// octaves `2^SUB_BITS ..= 2^63`.
const BUCKETS: usize = (SUB as usize) * (64 - SUB_BITS as usize + 1);

#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
    max: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let octave = 63 - v.leading_zeros(); // >= SUB_BITS
    let sub = (v >> (octave - SUB_BITS)) & (SUB - 1);
    ((octave - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Inclusive lower edge and width of bucket `b`.
fn bucket_range(b: usize) -> (u64, u64) {
    let b = b as u64;
    if b < SUB {
        return (b, 1);
    }
    let octave = b / SUB - 1 + SUB_BITS as u64;
    let sub = b % SUB;
    let width = 1u64 << (octave - SUB_BITS as u64);
    ((1u64 << octave) + sub * width, width)
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) as the midpoint of the bucket holding
    /// the sample of that rank; 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, width) = bucket_range(b);
                // The top bucket's midpoint may overshoot the true maximum.
                return (lo as f64 + (width - 1) as f64 / 2.0).min(self.max as f64);
            }
        }
        self.max as f64
    }

    /// Samples strictly beyond the `q`-quantile's rank — the guide's "at
    /// least ten samples beyond it" test for reporting a percentile.
    pub fn samples_beyond(&self, q: f64) -> u64 {
        self.total - ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).min(self.total)
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_u64_range() {
        // Every bucket starts where the previous one ended.
        let mut next = 0u64;
        for b in 0..BUCKETS {
            let (lo, width) = bucket_range(b);
            assert_eq!(lo, next, "bucket {b}");
            assert_eq!(bucket_of(lo), b);
            assert_eq!(bucket_of(lo + (width - 1)), b);
            next = lo.wrapping_add(width);
        }
        assert_eq!(next, 0, "last bucket ends at 2^64");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_bucket_error_is_below_three_percent() {
        let mut v = 1u64;
        while v < u64::MAX / 3 {
            for probe in [v, v + v / 3, v + v / 2] {
                let (lo, width) = bucket_range(bucket_of(probe));
                let mid = lo as f64 + (width - 1) as f64 / 2.0;
                let err = (mid - probe as f64).abs() / probe as f64;
                assert!(err <= 0.03, "value {probe}: midpoint {mid}, error {err}");
            }
            v = v * 3 + 1;
        }
    }

    #[test]
    fn quantiles_of_a_known_sample() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 100); // 100 ns .. 1 ms, uniform
        }
        assert_eq!(h.count(), 10_000);
        for (q, want) in [(0.5, 500_000.0), (0.99, 990_000.0), (0.999, 999_000.0)] {
            let got = h.quantile(q);
            assert!(
                (got - want).abs() / want <= 0.03,
                "q={q}: got {got}, want {want}"
            );
        }
        assert_eq!(h.quantile(1.0), 1_000_000.0, "the maximum is exact");
        assert_eq!(h.samples_beyond(0.99), 100);
    }

    #[test]
    fn small_values_are_exact_and_empty_is_zero() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0.0);
        for v in [3u64, 3, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(1.0), 7.0);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let (mut a, mut b, mut all) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..5_000u64 {
            let x = v * v % 100_003;
            if v % 2 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            all.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
    }
}
