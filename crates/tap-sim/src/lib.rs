//! # tap-sim — regenerating the TAP paper's evaluation (§7)
//!
//! One module per figure of the paper, each producing a [`report::Series`]
//! whose rows mirror the published plot:
//!
//! | module | paper figure | question answered |
//! |--------|--------------|-------------------|
//! | [`experiments::node_failures`] | Fig. 2 | How many tunnels die when a fraction `p` of nodes fails simultaneously? (current tunneling vs. TAP k=3 vs. TAP k=5) |
//! | [`experiments::collusion`] | Fig. 3 | How many tunnels can a colluding fraction `p` trace? |
//! | [`experiments::sweeps`] | Fig. 4(a)/(b) | Corruption vs. replication factor `k` and vs. tunnel length `l` |
//! | [`experiments::churn`] | Fig. 5 | Corruption over time under churn — unrefreshed vs. refreshed tunnels |
//! | [`experiments::latency`] | Fig. 6 | 2 Mb transfer latency vs. network size — overt vs. TAP_basic vs. TAP_opt at l ∈ {3, 5} |
//! | [`experiments::resilience`] | — (robustness) | How gracefully do tunnel transfers degrade under injected loss, duplication, partitions, and crashes? |
//!
//! Every experiment takes a [`Scale`]: `Scale::paper()` reproduces the
//! published parameters (10^4 nodes, 5 000 tunnels, 30×1 000 transfers);
//! `Scale::quick()` shrinks the population for CI-speed runs while keeping
//! every ratio identical, so the curve *shapes* are preserved.
//!
//! Analytic overlays: where a closed form exists (independent-failure and
//! independent-collusion models), the series carries it alongside the
//! measurement so drift is visible at a glance:
//!
//! * Fig. 2 baseline: `1 - (1-p)^l`; TAP: `1 - (1 - p^k)^l`.
//! * Figs. 3/4: case-1 corruption `(1 - (1-p)^k)^l`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod engine;
pub mod experiments;
pub mod report;

pub use report::{Series, SeriesRow};

/// Experiment sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Live nodes in the overlay.
    pub nodes: usize,
    /// Tunnels formed (the paper's 5 000).
    pub tunnels: usize,
    /// Simulation repetitions for the latency experiment.
    pub latency_sims: usize,
    /// Transfers per simulation for the latency experiment.
    pub latency_transfers: usize,
    /// Churn experiment: time units simulated.
    pub churn_units: usize,
    /// Churn experiment: nodes leaving (and joining) per unit.
    pub churn_per_unit: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Event-journal capacity for the metrics registry: `0` (the default)
    /// records counters/histograms only; `N > 0` additionally keeps the
    /// most recent `N` events (e.g. `core.tha.takeover`) in the emitted
    /// [`MetricsReport`](tap_metrics::MetricsReport) JSON. Set from the
    /// CLI with `--journal N`.
    pub journal_cap: usize,
    /// Fault severity for the resilience experiment, in permille (0–1000):
    /// the per-link loss probability at the sweep's center point. The
    /// other fault knobs (duplication, crash population) scale off it.
    /// `0` disables injected faults entirely. Set from the CLI with
    /// `--faults N`; the anonymity/latency figures ignore it, so their
    /// CSVs are byte-identical at any value.
    pub fault_permille: u32,
    /// Worker threads for each figure's [`engine::TrialPool`]. Results are
    /// bit-identical at any value (per-trial RNG substreams); this knob
    /// only trades wall-clock for cores. The CLI defaults it to
    /// [`std::thread::available_parallelism`]; the library default is 1.
    pub threads: usize,
    /// Multipath stripe count for the resilience figure: `0` (the default)
    /// keeps the classic single-path sweep and its CSV byte-identical;
    /// `n > 0` switches the figure to the erasure-coded comparison mode
    /// (coded `n`/`mp_k` multipath vs. single-path retry at the same fault
    /// level). Set from the CLI with `--multipath N/K`.
    pub mp_n: usize,
    /// Fragments required to reconstruct a multipath transfer (the code's
    /// `k`); only meaningful when `mp_n > 0`.
    pub mp_k: usize,
}

impl Scale {
    /// The paper's §7 parameters.
    pub fn paper() -> Scale {
        Scale {
            nodes: 10_000,
            tunnels: 5_000,
            latency_sims: 30,
            latency_transfers: 1_000,
            // The paper plots "time" without units; 100 rounds of its
            // stated 100-leaves + 100-joins churn gives one full network
            // turnover, enough for the unrefreshed decay to clear
            // sampling noise at 5 000 tunnels.
            churn_units: 100,
            churn_per_unit: 100,
            seed: 20040815, // ICPP 2004
            journal_cap: 0,
            fault_permille: 100,
            threads: 1,
            mp_n: 0,
            mp_k: 0,
        }
    }

    /// A ~25× smaller run preserving all ratios; finishes in seconds.
    pub fn quick() -> Scale {
        Scale {
            nodes: 1_000,
            tunnels: 400,
            latency_sims: 3,
            latency_transfers: 60,
            // Quick mode churns harder per unit (5% vs the paper's 1%) so
            // the Fig. 5 decay is visible above sampling noise with only
            // 400 tunnels.
            churn_units: 12,
            churn_per_unit: 50,
            seed: 20040815,
            journal_cap: 0,
            fault_permille: 100,
            threads: 1,
            mp_n: 0,
            mp_k: 0,
        }
    }

    /// Override the seed (each experiment further offsets it so figures
    /// never share RNG streams).
    pub fn with_seed(mut self, seed: u64) -> Scale {
        self.seed = seed;
        self
    }

    /// Override the worker-thread count (clamped to ≥ 1 at use).
    pub fn with_threads(mut self, threads: usize) -> Scale {
        self.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_sane() {
        for s in [Scale::paper(), Scale::quick()] {
            assert!(s.nodes >= 100);
            assert!(s.tunnels >= 100);
            // Joins replace leaves each unit, so total churn may exceed N;
            // but one unit must never drain most of the network at once.
            assert!(s.churn_per_unit <= s.nodes / 2);
        }
    }
}
