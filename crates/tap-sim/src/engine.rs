//! Deterministic parallel trial engine.
//!
//! Every figure decomposes into *trials* — sweep points (Figs. 2–4),
//! latency simulations (Fig. 6), corruption scans inside a churn unit
//! (Fig. 5) — that share the (immutable) world and nothing else.
//! [`TrialPool`] runs them on any number of threads with bit-identical
//! output: trial `i` draws only from its own [`Draws`], the figure's
//! `draws.child(Purpose::Trial, i)`, and results come back in input order.
//! Each trial records into a private [`Registry`](tap_metrics::Registry),
//! folded into the figure's **in trial order**, so the metrics report is
//! deterministic too.

use std::sync::atomic::{AtomicUsize, Ordering};

use tap_core::{Draws, Purpose};

use crate::Scale;

/// An order-preserving scoped worker pool bound to one figure's
/// [`Draws`]. `std`-only: scoped threads plus an atomic work index.
#[derive(Debug, Clone, Copy)]
pub struct TrialPool {
    threads: usize,
    draws: Draws,
}

impl TrialPool {
    /// A pool sized by [`Scale::threads`] (clamped to ≥ 1) whose trials
    /// draw from children of `draws`.
    pub fn new(scale: &Scale, draws: Draws) -> TrialPool {
        TrialPool {
            threads: scale.threads.max(1),
            draws,
        }
    }

    /// Worker threads this pool will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` once per trial on up to [`TrialPool::threads`] workers and
    /// return the results in input order.
    ///
    /// `f` receives the trial and the trial's [`Draws`]; it must derive
    /// all randomness from those (never from shared mutable state), which
    /// is what makes the output independent of the thread count.
    pub fn run<T, R, F>(&self, trials: Vec<T>, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T, Draws) -> R + Sync,
    {
        let trial = |i: usize| self.draws.child(Purpose::Trial, i as u64);
        let n = trials.len();
        let workers = self.threads.min(n);
        if workers <= 1 {
            return trials
                .iter()
                .enumerate()
                .map(|(i, t)| f(t, trial(i)))
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
                            out.push((i, f(&trials[i], trial(i))));
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
        let line = format!("all --threads {threads}");
        let scale = crate::cli::parse_line(&line).unwrap().scale;
        TrialPool::new(&scale, Draws::from(scale.seed))
    }

    #[test]
    fn results_come_back_in_input_order() {
        let trials: Vec<usize> = (0..97).collect();
        let out = pool(4).run(trials, |&t, _| t * 3);
        assert_eq!(out, (0..97).map(|t| t * 3).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_thread_count_invariant() {
        // Each trial consumes a *different amount* of randomness, which
        // would corrupt later trials if streams were shared.
        let work = |t: &usize, draws: Draws| -> u64 {
            let mut rng = draws.stream(Purpose::Pick, 0);
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
        assert!(pool(4).run(none, |&t, _| t).is_empty());
        // More workers than trials: pool clamps, everything still runs.
        let out = pool(64).run(vec![1u32, 2, 3], |&t, _| t + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }
}
