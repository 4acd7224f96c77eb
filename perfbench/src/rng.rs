//! Seeded input generation over `stm-bench`'s SplitMix64 stream.

pub use stm_bench::kv::SplitMix64;

/// A stream for `(seed, salt)`; distinct salts give independent streams.
pub fn seeded(seed: u64, salt: u64) -> SplitMix64 {
    SplitMix64(seed ^ salt.wrapping_add(1).wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Bounded draws on a [`SplitMix64`].
pub trait Draw {
    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64;

    /// `k` distinct values in `0..n`, in draw order.
    fn distinct(&mut self, k: usize, n: u64) -> Vec<usize> {
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n) as usize;
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

impl Draw for SplitMix64 {
    #[inline]
    fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}
