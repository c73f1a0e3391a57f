//! Deterministic parallel trial engine.
//!
//! Every figure of the paper decomposes into *trials* — per-`p` sweep
//! points (Figs. 2/3), per-`k`/per-`l` points (Fig. 4), independent
//! latency simulations (Fig. 6), or per-tunnel corruption scans inside a
//! churn unit (Fig. 5). Trials share the (immutable) world but nothing
//! else, so they can run on any number of worker threads — *provided* the
//! randomness each trial sees does not depend on scheduling.
//!
//! [`TrialPool`] guarantees that by construction:
//!
//! * each trial `i` draws from its own RNG substream, seeded as
//!   `scale.seed ⊕ fnv1a(figure, i)` ([`substream_seed`]) — no trial ever
//!   observes another trial's stream position;
//! * results are returned in input order regardless of which worker
//!   finished first.
//!
//! The output of [`TrialPool::run`] is therefore bit-identical at
//! `--threads 1` and `--threads 64`. Per-trial [`Registry`](tap_metrics::Registry)
//! instances are the companion pattern: record into a private registry
//! inside the trial, fold the parts into the figure's registry **in trial
//! order** with [`Registry::absorb`](tap_metrics::Registry::absorb), and
//! the metrics report stays deterministic too — with zero contended
//! atomics on the hot path.

use std::sync::atomic::{AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Scale;

/// The RNG substream seed of trial `trial_idx` of `figure`: the base seed
/// XOR an FNV-1a 64-bit hash of the figure name and trial index. Distinct
/// figures and distinct trials land in unrelated substreams even when the
/// base seed is shared.
pub fn substream_seed(base: u64, figure: &str, trial_idx: usize) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in figure.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    for b in (trial_idx as u64).to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    base ^ h
}

/// An order-preserving scoped worker pool bound to one figure's RNG
/// substream family. `std`-only: scoped threads plus an atomic work index.
#[derive(Debug, Clone, Copy)]
pub struct TrialPool {
    threads: usize,
    base_seed: u64,
    figure: &'static str,
}

impl TrialPool {
    /// A pool for `figure` sized by [`Scale::threads`] (clamped to ≥ 1).
    pub fn new(scale: &Scale, figure: &'static str) -> TrialPool {
        TrialPool {
            threads: scale.threads.max(1),
            base_seed: scale.seed,
            figure,
        }
    }

    /// Worker threads this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The raw substream seed of trial `trial_idx` (for trials that build
    /// their own generators, e.g. latency models).
    pub fn trial_seed(&self, trial_idx: usize) -> u64 {
        substream_seed(self.base_seed, self.figure, trial_idx)
    }

    /// A fresh generator positioned at the start of trial `trial_idx`'s
    /// substream.
    pub fn trial_rng(&self, trial_idx: usize) -> StdRng {
        StdRng::seed_from_u64(self.trial_seed(trial_idx))
    }

    /// Run `f` once per trial on up to [`TrialPool::threads`] workers and
    /// return the results in input order.
    ///
    /// `f` receives the trial index, the trial, and the trial's substream
    /// RNG; it must derive all randomness from that RNG (never from shared
    /// mutable state), which is what makes the output independent of the
    /// thread count.
    pub fn run<T, R, F>(&self, trials: Vec<T>, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T, &mut StdRng) -> R + Sync,
    {
        let n = trials.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return trials
                .iter()
                .enumerate()
                .map(|(i, t)| f(i, t, &mut self.trial_rng(i)))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            out.push((i, f(i, &trials[i], &mut self.trial_rng(i))));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("trial worker panicked"))
                .collect()
        });
        tagged.sort_by_key(|(i, _)| *i);
        tagged.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn pool(threads: usize) -> TrialPool {
        let scale = Scale {
            threads,
            ..Scale::quick()
        };
        TrialPool::new(&scale, "test-fig")
    }

    #[test]
    fn substreams_are_distinct_and_stable() {
        let a = substream_seed(7, "fig2", 0);
        assert_eq!(a, substream_seed(7, "fig2", 0), "pure function");
        assert_ne!(a, substream_seed(7, "fig2", 1), "trials differ");
        assert_ne!(a, substream_seed(7, "fig3", 0), "figures differ");
        assert_ne!(a, substream_seed(8, "fig2", 0), "base seed differs");
    }

    #[test]
    fn results_come_back_in_input_order() {
        let trials: Vec<usize> = (0..97).collect();
        let out = pool(4).run(trials, |i, &t, _| {
            assert_eq!(i, t);
            t * 3
        });
        assert_eq!(out, (0..97).map(|t| t * 3).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_thread_count_invariant() {
        // Each trial consumes a *different amount* of randomness, which
        // would corrupt later trials if streams were shared.
        let work = |_i: usize, t: &usize, rng: &mut StdRng| -> u64 {
            (0..(t % 5 + 1)).map(|_| rng.next_u64() % 1000).sum()
        };
        let trials: Vec<usize> = (0..40).collect();
        let sequential = pool(1).run(trials.clone(), work);
        for threads in [2, 4, 8] {
            assert_eq!(
                pool(threads).run(trials.clone(), work),
                sequential,
                "results must be identical at {threads} threads"
            );
        }
    }

    #[test]
    fn empty_and_oversized_pools_are_fine() {
        let none: Vec<u32> = Vec::new();
        assert!(pool(4).run(none, |_, &t, _| t).is_empty());
        // More workers than trials: pool clamps, everything still runs.
        let out = pool(64).run(vec![1u32, 2, 3], |_, &t, _| t + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }
}
