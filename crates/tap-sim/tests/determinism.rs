//! The parallel trial engine's core contract: every figure's CSV is
//! byte-identical at any `--threads` value. Each experiment seeds its
//! trials from `engine::substream_seed`, so the schedule that ran a trial
//! must never leak into the numbers it produces.

use tap_sim::experiments::{
    churn, collusion, latency, node_failures, resilience, secure_routing, sweeps, throughput,
};
use tap_sim::{Scale, Series};

/// Small enough to keep the whole suite in CI seconds, large enough that
/// every figure produces non-trivial rows (several trials per pool).
fn tiny() -> Scale {
    Scale {
        nodes: 250,
        tunnels: 60,
        latency_sims: 2,
        latency_transfers: 8,
        churn_units: 3,
        churn_per_unit: 12,
        seed: 0xD37,
        ..Scale::quick()
    }
}

type Figure = fn(&Scale) -> Series;

fn figures() -> Vec<(&'static str, Figure)> {
    vec![
        ("fig2", node_failures::run as Figure),
        ("fig3", collusion::run),
        ("fig4a", sweeps::by_replication),
        ("fig4b", sweeps::by_length),
        ("fig5", churn::run),
        ("fig6", latency::run),
        ("secure", secure_routing::run),
        ("throughput", throughput::run),
    ]
}

#[test]
fn csvs_are_byte_identical_across_thread_counts() {
    for (name, run) in figures() {
        let sequential = run(&tiny().with_threads(1)).to_csv();
        for threads in [2, 4] {
            let parallel = run(&tiny().with_threads(threads)).to_csv();
            assert_eq!(
                sequential, parallel,
                "{name}: CSV diverged between --threads 1 and --threads {threads}"
            );
        }
    }
}

/// The committed goldens were produced by *pre-optimization* binaries at
/// the quick preset — fig5/fig6/secure by the pre-port serial loops
/// (plain `Network` replays, allocating onion path), the rest by the
/// binary preceding the wide-kernel crypto rewrite (scalar ChaCha20,
/// per-byte GF(2^8), one cipher sweep per onion layer). Every subsequent
/// implementation must reproduce them exactly. Quick-preset figures are
/// release-speed; under a debug profile this test is skipped rather than
/// stalling `cargo test`.
#[cfg_attr(
    debug_assertions,
    ignore = "quick-preset goldens are release-speed; run with `cargo test --release`"
)]
#[test]
fn quick_preset_csvs_match_the_pre_port_goldens() {
    let goldens: [(&str, Figure, &str); 9] = [
        (
            "fig2",
            node_failures::run as Figure,
            include_str!("goldens/fig2.csv"),
        ),
        ("fig3", collusion::run, include_str!("goldens/fig3.csv")),
        (
            "fig4a",
            sweeps::by_replication,
            include_str!("goldens/fig4a.csv"),
        ),
        (
            "fig4b",
            sweeps::by_length,
            include_str!("goldens/fig4b.csv"),
        ),
        ("fig5", churn::run, include_str!("goldens/fig5.csv")),
        ("fig6", latency::run, include_str!("goldens/fig6.csv")),
        (
            "secure",
            secure_routing::run,
            include_str!("goldens/secure.csv"),
        ),
        (
            "resilience",
            resilience::run,
            include_str!("goldens/resilience.csv"),
        ),
        (
            "throughput",
            throughput::run,
            include_str!("goldens/throughput.csv"),
        ),
    ];
    for (name, run, golden) in goldens {
        let got = run(&Scale::quick().with_threads(1)).to_csv();
        assert_eq!(
            golden, got,
            "{name}: quick-preset CSV diverged from the pre-optimization golden"
        );
    }
}

/// The coded-multipath resilience sweep (`resilience --multipath 5/3`)
/// against its pre-optimization golden: the erasure codec's SWAR
/// GF(2^8) path and the fused onion codec must leave every striped
/// transfer's outcome untouched.
#[cfg_attr(
    debug_assertions,
    ignore = "quick-preset goldens are release-speed; run with `cargo test --release`"
)]
#[test]
fn quick_preset_multipath_csv_matches_the_golden() {
    let scale = Scale {
        mp_n: 5,
        mp_k: 3,
        ..Scale::quick().with_threads(1)
    };
    let got = resilience::run(&scale).to_csv();
    assert_eq!(
        include_str!("goldens/resilience_mp.csv"),
        got,
        "resilience --multipath 5/3: CSV diverged from the pre-optimization golden"
    );
}

#[test]
fn resilience_multipath_csv_is_byte_identical_across_thread_counts() {
    // The coded-multipath comparison runs two phases per trial off the same
    // per-trial substream; neither phase's RNG may leak across trials, so
    // the sweep's CSV holds the byte-identity contract like every figure.
    let mp = Scale {
        mp_n: 5,
        mp_k: 3,
        fault_permille: 100,
        latency_sims: 1,
        latency_transfers: 12,
        ..tiny()
    };
    let sequential = resilience::run(&mp.with_threads(1)).to_csv();
    for threads in [2, 4] {
        let parallel = resilience::run(&mp.with_threads(threads)).to_csv();
        assert_eq!(
            sequential, parallel,
            "resilience --multipath 5/3: CSV diverged between --threads 1 and --threads {threads}"
        );
    }
}

#[test]
fn oversubscribed_pools_are_still_deterministic() {
    // More workers than trials: the pool must not invent or drop work.
    let a = collusion::run(&tiny().with_threads(64)).to_csv();
    let b = collusion::run(&tiny().with_threads(1)).to_csv();
    assert_eq!(a, b);
}
