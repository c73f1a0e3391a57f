//! Figure behaviour beyond the CSV pins of `tests/figure_pins.rs`: what the
//! `--faults` knob leaves alone, and fig6's wire histograms.

use tap_sim::experiments::resilience;
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
    // Re-recorded once when draws became keyed.
    assert_eq!(h, 0xa775_038f_4214_6891, "fig6 moved");
}
