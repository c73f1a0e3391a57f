//! Pairwise propagation-delay models.
//!
//! The paper assigns "each link in the network … a random latency from 1 ms
//! to 230 ms, randomly selected in a fashion that approximates an Internet
//! network" (§7.3, citing Scarlata et al.). For 10^4 endpoints a latency
//! matrix would hold 10^8 entries, so [`UniformLatency`] instead derives
//! each unordered pair's delay by hashing `(seed, lo, hi)` — O(1) memory,
//! stable across the run, symmetric by construction.

use crate::time::SimDuration;
use crate::EndpointId;

/// A source of symmetric pairwise propagation delays.
pub trait LatencyModel {
    /// Propagation delay between two distinct endpoints.
    ///
    /// Implementations must be symmetric (`delay(a,b) == delay(b,a)`) and
    /// stable for the lifetime of the run. `a == b` returns zero.
    fn delay(&self, a: EndpointId, b: EndpointId) -> SimDuration;
}

/// SplitMix64 — a tiny, high-quality hash for pair → delay derivation
/// (also the fault layer's counter-stream generator; see `fault.rs`).
#[inline]
pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Uniform per-pair latency in `[min, max]`, derived by hashing.
#[derive(Debug, Clone)]
pub struct UniformLatency {
    seed: u64,
    min: SimDuration,
    max: SimDuration,
}

impl UniformLatency {
    /// Uniform latency in `[min, max]` with a derivation `seed`.
    pub fn new(seed: u64, min: SimDuration, max: SimDuration) -> Self {
        assert!(min <= max, "latency range inverted");
        UniformLatency { seed, min, max }
    }

    /// The paper's setup: `U[1 ms, 230 ms]`.
    pub fn paper(seed: u64) -> Self {
        UniformLatency::new(
            seed,
            SimDuration::from_millis(1),
            SimDuration::from_millis(230),
        )
    }
}

impl LatencyModel for UniformLatency {
    fn delay(&self, a: EndpointId, b: EndpointId) -> SimDuration {
        if a == b {
            return SimDuration::ZERO;
        }
        let (lo, hi) = if a.index() < b.index() {
            (a.index() as u64, b.index() as u64)
        } else {
            (b.index() as u64, a.index() as u64)
        };
        let h = splitmix64(
            self.seed ^ splitmix64(lo ^ splitmix64(hi.wrapping_mul(0xA24BAED4963EE407))),
        );
        let span = self.max.as_micros() - self.min.as_micros() + 1;
        SimDuration::from_micros(self.min.as_micros() + h % span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(i: usize) -> EndpointId {
        EndpointId::from_index(i).expect("test index fits u32")
    }

    #[test]
    fn uniform_is_symmetric_stable_and_in_range() {
        let m = UniformLatency::paper(7);
        for i in 0..50usize {
            for j in (i + 1)..50 {
                let d = m.delay(ep(i), ep(j));
                assert_eq!(d, m.delay(ep(j), ep(i)), "symmetry {i},{j}");
                assert_eq!(d, m.delay(ep(i), ep(j)), "stability {i},{j}");
                assert!(
                    (1_000..=230_000).contains(&d.as_micros()),
                    "{i},{j} -> {d} out of range"
                );
            }
        }
    }

    #[test]
    fn uniform_self_delay_is_zero() {
        let m = UniformLatency::paper(7);
        assert_eq!(m.delay(ep(3), ep(3)), SimDuration::ZERO);
    }

    #[test]
    fn uniform_spreads_over_range() {
        let m = UniformLatency::paper(21);
        let mut lo = u64::MAX;
        let mut hi = 0;
        let mut sum = 0u64;
        let n = 2000usize;
        for i in 0..n {
            let d = m.delay(ep(i), ep(i + n)).as_micros() / 1_000;
            lo = lo.min(d);
            hi = hi.max(d);
            sum += d;
        }
        let mean = sum as f64 / n as f64;
        assert!(lo < 15, "min {lo}ms suspiciously high");
        assert!(hi > 215, "max {hi}ms suspiciously low");
        assert!(
            (100.0..130.0).contains(&mean),
            "mean {mean}ms far from uniform expectation ~115.5"
        );
    }

    #[test]
    fn distinct_seeds_give_distinct_matrices() {
        let m1 = UniformLatency::paper(1);
        let m2 = UniformLatency::paper(2);
        let differs =
            (0..100usize).any(|i| m1.delay(ep(i), ep(i + 1)) != m2.delay(ep(i), ep(i + 1)));
        assert!(differs);
    }
}
