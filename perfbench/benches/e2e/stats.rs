//! Order statistics of latency samples.

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The mean of the samples beyond the nearest-rank percentile `p` (in
/// percent), and how many there are; `(0, 0)` when empty. Latencies of
/// the programs measured here fall on discrete levels (fleet poll
/// intervals), where a single percentile jumps a whole level when a
/// fraction shifts by a sample; the mean of the tail moves with the
/// fraction instead.
pub fn tail_mean(xs: &[f64], p: f64) -> (f64, usize) {
    if xs.is_empty() {
        return (0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let tail = if rank < v.len() {
        &v[rank..]
    } else {
        &v[rank - 1..]
    };
    (tail.iter().sum::<f64>() / tail.len() as f64, v.len() - rank)
}

/// Splitmix64: the bench's own input generator, so inputs never depend
/// on the code under test.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}
