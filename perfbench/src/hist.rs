//! Log-linear latency histograms (HDR-style: 128 sub-buckets per octave,
//! under 1% relative bucket width) with interpolated percentiles.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// A histogram of tick intervals.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }
}

fn index(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    (((shift as u64 + 1) << SUB_BITS) + ((v >> shift) - SUB)) as usize
}

/// `(lower bound, width)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    let i = i as u64;
    if i < SUB {
        return (i as f64, 1.0);
    }
    let shift = (i >> SUB_BITS) - 1;
    let sub = i & (SUB - 1);
    (((SUB + sub) << shift) as f64, (1u64 << shift) as f64)
}

impl Hist {
    /// Record one interval.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.n += 1;
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile (`0 < q < 1`), interpolated linearly inside its
    /// bucket; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.n == 0 {
            return None;
        }
        let rank = q * self.n as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let (lo, width) = bounds(i);
                let frac = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return Some(lo + width * frac);
            }
            seen += c;
        }
        let last = self.counts.iter().rposition(|&c| c > 0)?;
        let (lo, width) = bounds(last);
        Some(lo + width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_values_in_order() {
        let mut prev = 0;
        for v in (0..100_000u64).chain([1 << 40, 1 << 50]) {
            let i = index(v);
            assert!(i >= prev && i < BUCKETS, "v={v}");
            let (lo, w) = bounds(i);
            assert!(
                lo <= v as f64 && (v as f64) < lo + w + 1.0,
                "v={v} lo={lo} w={w}"
            );
            prev = i;
        }
    }

    #[test]
    fn quantiles_track_uniform_samples() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 5000.0).abs() < 50.0, "{p50}");
        assert!((p99 - 9900.0).abs() < 100.0, "{p99}");
    }
}
