//! The estimators behind the reported numbers, and the digest that proves
//! two runs simulated the same thing.

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`); 0 for an
/// empty slice so a metric never reads NaN.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(values: &[u64]) -> Vec<u64> {
    let mut v = values.to_vec();
    v.sort_unstable();
    v
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Blocks the timed region is cut into, and how many of the fastest count.
const BLOCKS: usize = 400;
const FASTEST: usize = 20;

/// Ops per second of op time: the ops are cut into [`BLOCKS`] blocks of equal
/// op count and the median rate of the [`FASTEST`] fastest blocks is taken.
///
/// On the shared two-core reference host, interference from outside slows
/// stretches of a run by 10–20 %: over ten runs of one seed the whole-run
/// mean rate had a quartile spread of 2–13 % and the whole-run median op time
/// 1–17 %, depending on the hour. Interference only ever slows a block down,
/// so the fast blocks are the stretches it left alone, and their median does
/// not chase the single luckiest block the way a maximum would. 400 blocks
/// with the fastest 20 gave 0.5–3 % on the same runs; 40 with 8 gave 1–9.5 %.
pub fn block_rate(op_ns: &[u64]) -> f64 {
    let mut rates = per_block(op_ns, |b| {
        b.len() as f64 * 1e9 / b.iter().sum::<u64>().max(1) as f64
    });
    rates.sort_by(|a, b| b.total_cmp(a));
    rates.truncate(FASTEST);
    median_f64(&mut rates)
}

/// Median host time of one op, by the same rule as [`block_rate`]: the
/// median of each block, then the median of the [`FASTEST`] lowest of those.
pub fn block_median(op_ns: &[u64]) -> f64 {
    let mut medians = per_block(op_ns, |b| percentile(&sorted(b), 0.5) as f64);
    medians.sort_by(f64::total_cmp);
    medians.truncate(FASTEST);
    median_f64(&mut medians)
}

fn per_block(op_ns: &[u64], f: impl Fn(&[u64]) -> f64) -> Vec<f64> {
    let blocks = BLOCKS.min(op_ns.len());
    if blocks == 0 {
        return Vec::new();
    }
    op_ns
        .chunks_exact(op_ns.len() / blocks)
        .take(blocks)
        .map(f)
        .collect()
}

/// FNV-1a over 64-bit words, little-endian byte by byte.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// One 64-bit seed from several parts (SplitMix64 finaliser per part), so
/// that every `(seed, workload, op, stream)` has a generator of its own.
pub fn mix(parts: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64;
    for p in parts {
        h = (h ^ p).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn block_rate_ignores_a_slow_stretch() {
        // 4000 ops at 1 µs, with a quarter of the run ten times slower.
        let mut ns = vec![1_000u64; 4000];
        for x in &mut ns[1000..2000] {
            *x = 10_000;
        }
        assert_eq!(block_rate(&ns), 1e6);
        assert_eq!(block_median(&ns), 1e3);
        assert_eq!(block_rate(&[]), 0.0);
        assert_eq!(block_median(&[]), 0.0);
        assert_eq!(block_rate(&[500, 500, 500]), 2e6);
    }

    #[test]
    fn mix_separates_streams() {
        assert_ne!(mix(&[1, 2, 3, 0]), mix(&[1, 2, 3, 1]));
        assert_ne!(mix(&[1, 2, 3]), mix(&[1, 3, 2]));
        assert_eq!(mix(&[9, 9]), mix(&[9, 9]));
    }
}
