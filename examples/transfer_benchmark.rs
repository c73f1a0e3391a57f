//! Interactive mini-version of Figure 6: what anonymity costs in seconds.
//!
//! ```text
//! cargo run --release --example transfer_benchmark [max_nodes]
//! ```
//!
//! Transfers a 2 Mb file across the emulated Internet (1–230 ms links,
//! 1.5 Mb/s) five ways — overtly, through basic TAP tunnels, and through
//! hint-optimized TAP tunnels at lengths 3 and 5 — and prints the
//! latency table the paper plots. It runs `tap-sim fig6 --nodes max_nodes`:
//! the quick preset, 3 × 60 transfers a network size.

use tap::sim::cli;
use tap::sim::experiments::latency;

fn main() {
    let max_nodes: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);

    let scale = cli::parse_line(&format!("fig6 --nodes {max_nodes}"))
        .expect("a node count of at least 1")
        .scale;
    println!(
        "2 Mb file, 1.5 Mb/s links, latency U[1,230] ms, {}x{} transfers per size\n",
        scale.latency_sims, scale.latency_transfers
    );
    let series = latency::run(&scale);
    println!("{series}");

    // Headline ratios at the largest size.
    let last = series.rows.last().expect("at least one size");
    let overt = last.values[0];
    let basic5 = last.values[1];
    let opt5 = last.values[2];
    println!(
        "at N={}: TAP_basic(l=5) costs {:.1}x overt; the §5 hint optimization cuts that to {:.1}x",
        last.x,
        basic5 / overt,
        opt5 / overt
    );
}
