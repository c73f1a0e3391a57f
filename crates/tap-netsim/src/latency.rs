//! Pairwise propagation-delay models.
//!
//! The paper assigns "each link in the network … a random latency from 1 ms
//! to 230 ms, randomly selected in a fashion that approximates an Internet
//! network" (§7.3, citing Scarlata et al.). For 10^4 endpoints a latency
//! matrix would hold 10^8 entries, so [`UniformLatency`] instead derives
//! each unordered pair's delay by hashing `(seed, lo, hi)` — O(1) memory,
//! stable across the run, symmetric by construction.
//!
//! [`EuclideanLatency`] is the alternative "approximates an Internet"
//! reading: endpoints get coordinates on a 2D torus and delay grows with
//! distance, which respects the triangle inequality (useful for the
//! proximity-aware ablations).

use crate::time::SimDuration;
use crate::EndpointId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A source of symmetric pairwise propagation delays.
pub trait LatencyModel {
    /// Propagation delay between two distinct endpoints.
    ///
    /// Implementations must be symmetric (`delay(a,b) == delay(b,a)`) and
    /// stable for the lifetime of the run. `a == b` returns zero.
    fn delay(&self, a: EndpointId, b: EndpointId) -> SimDuration;

    /// Called when an endpoint is created, so coordinate-based models can
    /// lazily place it. Default: nothing.
    fn on_endpoint_added(&mut self, _id: EndpointId) {}
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

/// Latency proportional to distance on a 2D unit torus, scaled into
/// `[min, max]`.
#[derive(Debug, Clone)]
pub struct EuclideanLatency {
    rng: StdRng,
    coords: Vec<(f64, f64)>,
    min: SimDuration,
    max: SimDuration,
}

impl EuclideanLatency {
    /// Torus-distance latency scaled into `[min, max]`.
    pub fn new(seed: u64, min: SimDuration, max: SimDuration) -> Self {
        assert!(min <= max, "latency range inverted");
        EuclideanLatency {
            rng: StdRng::seed_from_u64(seed),
            coords: Vec::new(),
            min,
            max,
        }
    }

    /// The paper's range `[1 ms, 230 ms]` over torus placement.
    pub fn paper(seed: u64) -> Self {
        EuclideanLatency::new(
            seed,
            SimDuration::from_millis(1),
            SimDuration::from_millis(230),
        )
    }

    fn coord(&self, id: EndpointId) -> (f64, f64) {
        *self
            .coords
            .get(id.index())
            .expect("endpoint placed before use (on_endpoint_added)")
    }
}

impl LatencyModel for EuclideanLatency {
    fn delay(&self, a: EndpointId, b: EndpointId) -> SimDuration {
        if a == b {
            return SimDuration::ZERO;
        }
        let (ax, ay) = self.coord(a);
        let (bx, by) = self.coord(b);
        // Torus metric: wrap-around in both dimensions.
        let dx = (ax - bx).abs().min(1.0 - (ax - bx).abs());
        let dy = (ay - by).abs().min(1.0 - (ay - by).abs());
        let dist = (dx * dx + dy * dy).sqrt();
        // Max torus distance is sqrt(0.5^2 + 0.5^2).
        let norm = dist / (0.5f64 * std::f64::consts::SQRT_2);
        let span = (self.max.as_micros() - self.min.as_micros()) as f64;
        SimDuration::from_micros(self.min.as_micros() + (norm * span).round() as u64)
    }

    fn on_endpoint_added(&mut self, id: EndpointId) {
        debug_assert_eq!(id.index(), self.coords.len(), "endpoints added in order");
        let p = (self.rng.gen::<f64>(), self.rng.gen::<f64>());
        self.coords.push(p);
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
                    (1..=230).contains(&d.as_millis()),
                    "{i},{j} -> {}ms out of range",
                    d.as_millis()
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
            let d = m.delay(ep(i), ep(i + n)).as_millis();
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

    #[test]
    fn euclidean_is_symmetric_and_triangle() {
        let mut m = EuclideanLatency::paper(5);
        for i in 0..30 {
            m.on_endpoint_added(ep(i));
        }
        for i in 0..30usize {
            for j in 0..30 {
                assert_eq!(m.delay(ep(i), ep(j)), m.delay(ep(j), ep(i)));
            }
        }
        // Triangle inequality up to the 1ms floor and rounding slack.
        for i in 0..10usize {
            for j in 0..10 {
                for k in 0..10 {
                    let direct = m.delay(ep(i), ep(k)).as_micros();
                    let via = m.delay(ep(i), ep(j)).as_micros() + m.delay(ep(j), ep(k)).as_micros();
                    assert!(
                        direct <= via + 2_000,
                        "triangle violated: {i}->{k} {direct} > {via}"
                    );
                }
            }
        }
    }

    #[test]
    fn euclidean_in_range() {
        let mut m = EuclideanLatency::paper(9);
        for i in 0..100 {
            m.on_endpoint_added(ep(i));
        }
        for i in 0..100usize {
            let d = m.delay(ep(i), ep((i + 37) % 100)).as_millis();
            assert!((1..=230).contains(&d), "{d}ms out of range");
        }
    }
}
