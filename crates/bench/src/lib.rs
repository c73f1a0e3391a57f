//! Shared helpers for the Criterion benches.
//!
//! Each `fig*` bench regenerates its paper figure once (printing the series
//! so `cargo bench` output doubles as the reproduction record) and then
//! times the experiment kernel at a bench-friendly scale.

use tap_sim::Scale;

/// A scale small enough that Criterion's repeated sampling stays fast,
/// while every ratio of the paper's setup is preserved.
pub fn bench_scale() -> Scale {
    Scale {
        nodes: 500,
        tunnels: 200,
        latency_sims: 1,
        latency_transfers: 20,
        churn_units: 5,
        churn_per_unit: 25,
        seed: 0xBE7C4,
        journal_cap: 0,
        fault_permille: 100,
        threads: 1,
        mp_n: 0,
        mp_k: 0,
    }
}

/// Print a series once, prefixed so it is easy to grep out of bench logs.
pub fn announce(series: &tap_sim::Series) {
    println!("\n=== reproduction ===\n{series}====================\n");
}
