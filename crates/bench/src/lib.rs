//! Shared helpers for the Criterion benches.
//!
//! Each `fig*` bench regenerates its paper figure once (printing the series
//! so `cargo bench` output doubles as the reproduction record) and then
//! times the experiment kernel at a bench-friendly scale.

use tap_sim::{cli, Scale};

/// The tiny preset (`all --preset tiny`): small enough that Criterion's
/// repeated sampling stays fast, while every ratio of the paper's setup is
/// preserved.
pub fn bench_scale() -> Scale {
    cli::parse_line("all --preset tiny")
        .expect("the tiny preset parses")
        .scale
}

/// Print a series once, prefixed so it is easy to grep out of bench logs.
pub fn announce(series: &tap_sim::Series) {
    println!("\n=== reproduction ===\n{series}====================\n");
}
