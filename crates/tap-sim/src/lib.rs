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
//! Every experiment takes a [`Scale`], a [`cli::PRESETS`] entry with a
//! command line's overrides on top: `paper` is the published setup, and
//! `quick` and `tiny` shrink the population for CI-speed runs while keeping
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
    /// The one seed every figure's [`tap_core::Draws`] derive from.
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
    /// bit-identical at any value (each trial has its own draws); this knob
    /// only trades wall-clock for cores. The CLI defaults it to
    /// [`std::thread::available_parallelism`]; every preset sets 1.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_sane() {
        for (name, s) in cli::PRESETS {
            // Each preset passes the checks `all` makes of a command line:
            // fig5's churn at most N/2, fig2's N > 5, resilience's N ≥ 2.
            let cli = cli::parse_line(&format!("all --preset {name}"));
            assert_eq!(cli.map(|c| c.scale), Ok(s), "{name}");
            assert!(s.nodes >= 100 && s.tunnels >= 50, "{name}");
        }
    }
}
