//! Figure behaviour beyond the CSV pins of `tests/figure_pins.rs`: what the
//! `--faults` knob leaves alone, and fig6's wire histograms.

mod common;

use tap_sim::experiments::resilience;
use tap_sim::{cli, Scale};

use common::{fnv, pin, FNV_OFFSET};

/// The scale a command line configures.
fn scale(line: &str) -> Scale {
    cli::parse_line(line).expect("the line parses").scale
}

#[test]
fn fault_permille_zero_and_nonzero_differ_only_under_faults() {
    // Sanity for the CLI default: the knob changes the resilience rows
    // swept, never the clean baseline row.
    let on = resilience::run(&scale("resilience --preset tiny --faults 150 --threads 2"));
    let off = resilience::run(&scale("resilience --preset tiny --faults 0"));
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

    // fig6 on the wire engine at the tiny preset (`fig6 --preset tiny`):
    // the CSV and the wire histograms its transfers record, folded into one
    // digest.
    let s = latency::run(&scale("fig6 --preset tiny"));
    let json = s.metrics_json.as_deref().expect("fig6 reports metrics");
    let mut h = fnv(FNV_OFFSET, s.to_csv().as_bytes());
    for name in ["netsim.queue_delay_us", "netsim.propagation_us"] {
        let (count, sum) = histogram_count_sum(json, name);
        h = fnv(h, &count.to_le_bytes());
        h = fnv(h, &sum.to_le_bytes());
    }
    // Every TAP transfer serializes its onion beside the file;
    // `tests/fig6_engine.rs` checks that cost hop by hop.
    // Re-recorded when draws became keyed, and when the digest moved to the
    // tiny preset; the engine did not change either time.
    assert_eq!(h, 0x821b_065d_6207_27db, "fig6 moved: {}", pin(h));
}
