//! Thread-count invariance of the figure pipeline, including faulted runs.
//!
//! The CI `determinism` job diffs full CSVs produced by the binary at
//! `--threads 1` vs `2`; this suite pins the same contract in-process so
//! a violation is caught by `cargo test` alone — and extends it to the
//! resilience sweep, whose trials drive seed-deterministic fault
//! injection ([`tap_netsim::FaultPlan`] owns its RNG substream, so losing
//! or duplicating a message must never depend on which worker thread ran
//! the trial).

use tap_sim::experiments::{node_failures, resilience};
use tap_sim::Scale;

fn quick_small() -> Scale {
    Scale {
        nodes: 250,
        tunnels: 120,
        latency_sims: 2,
        latency_transfers: 12,
        fault_permille: 150,
        ..Scale::quick()
    }
}

#[test]
fn faulted_resilience_sweep_is_byte_identical_across_thread_counts() {
    let base = quick_small();
    let s1 = resilience::run(&base.with_threads(1));
    let s4 = resilience::run(&base.with_threads(4));
    assert_eq!(
        s1.to_csv(),
        s4.to_csv(),
        "fault injection must be scheduling-independent"
    );
    // The runs actually injected faults — the invariance is not vacuous.
    let retries = s1.column("retries_per_xfer").unwrap();
    assert!(
        retries.iter().any(|r| *r > 0.0),
        "the faulted sweep must exercise the retry shim: {retries:?}"
    );
}

#[test]
fn fault_free_figures_are_thread_count_invariant_too() {
    let base = quick_small();
    let s1 = node_failures::run(&base.with_threads(1));
    let s3 = node_failures::run(&base.with_threads(3));
    assert_eq!(s1.to_csv(), s3.to_csv());
}

#[test]
fn fault_permille_zero_and_nonzero_differ_only_under_faults() {
    // Sanity for the CLI default: the knob changes the resilience rows
    // swept, never the clean baseline row.
    let on = resilience::run(&quick_small().with_threads(2));
    let off = resilience::run(&Scale {
        fault_permille: 0,
        ..quick_small()
    });
    assert_eq!(off.rows.len(), 1);
    let on_csv = on.to_csv();
    let off_csv = off.to_csv();
    let baseline_on = on_csv.lines().nth(1).unwrap().to_string();
    let baseline_off = off_csv.lines().nth(1).unwrap().to_string();
    assert_eq!(
        baseline_on, baseline_off,
        "the loss=0 control row is identical whatever the knob says"
    );
}

/// FNV-1a over `bytes`, folded onto `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `(count, sum)` of histogram `name` in a metrics report's JSON.
fn histogram_count_sum(json: &str, name: &str) -> (u64, u64) {
    let key = format!("\"{name}\":{{\"count\":");
    let rest = &json[json.find(&key).unwrap_or_else(|| panic!("{name} missing")) + key.len()..];
    let (count, rest) = rest.split_once(",\"sum\":").expect("count then sum");
    let sum = rest.split(',').next().expect("sum");
    (count.parse().expect("count"), sum.parse().expect("sum"))
}

#[test]
fn event_kernel_figures_match_their_recorded_digests() {
    use tap_sim::experiments::latency;

    // fig6 on the wire engine: the CSV and the wire histograms its
    // transfers record, folded into one digest.
    let scale = Scale {
        nodes: 300,
        latency_sims: 1,
        latency_transfers: 6,
        ..Scale::quick()
    };
    let s = latency::run(&scale);
    let json = s.metrics_json.as_deref().expect("fig6 reports metrics");
    let mut h = fnv1a(0xcbf2_9ce4_8422_2325, s.to_csv().as_bytes());
    for name in ["netsim.queue_delay_us", "netsim.propagation_us"] {
        let (count, sum) = histogram_count_sum(json, name);
        h = fnv1a(h, &count.to_le_bytes());
        h = fnv1a(h, &sum.to_le_bytes());
    }
    // Every TAP transfer serializes its onion beside the file;
    // `tests/fig6_engine.rs` checks that cost hop by hop.
    assert_eq!(h, 0x6151_4ae1_347b_99d9, "fig6 moved");
}
