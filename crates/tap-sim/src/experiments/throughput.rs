//! Throughput figure — sustained transfers/sec and delivery latency vs.
//! offered load, on the serial event kernel.
//!
//! Not a figure of the paper: this is the repo's scalability check for the
//! netsim core (calendar-queue scheduler + [`Network`]). The workload is a
//! two-hop relay, the smallest shape that exercises both queue churn and
//! relayed traffic: every transfer `i` picks a deterministic
//! `(src, relay, dst)` triple, launches during a 100 ms ramp, and completes
//! when the second hop is delivered. Offered load sweeps
//! `nodes × {1, 2, 5, 10}` concurrent transfers, so the top point of a
//! `--nodes 100000` run keeps one million transfers in flight at once.
//!
//! Everything in the CSV (transfers/sec over *virtual* time, p50/p99
//! delivery latency) is a pure function of `(seed, nodes)`, byte-identical
//! at any `--threads` (see `tests/determinism.rs`). The wall-clock
//! events/sec figure is *not* reproducible run to run, so it travels in
//! [`Series::bench_extras`] and lands only in `BENCH_sim.json`, where
//! `scripts/bench_gate.py` holds a floor under it.

use std::time::Instant;

use tap_metrics::Registry;
use tap_netsim::latency::UniformLatency;
use tap_netsim::{EndpointId, Event, Network, NetworkConfig, SimDuration, TimerToken};

use crate::engine::substream_seed;
use crate::report::Series;
use crate::Scale;

/// Bytes per hop of a transfer: one full 1250-byte packet.
pub const TRANSFER_BYTES: u64 = 1_250;

/// Launch ramp: all transfers of a load point start within this window.
pub const RAMP_US: u64 = 100_000;

/// Offered-load sweep, as multiples of the node count.
pub const LOAD_MULTIPLIERS: [usize; 4] = [1, 2, 5, 10];

/// The swept offered-load points for a network of `nodes` endpoints.
pub fn offered_loads(nodes: usize) -> Vec<usize> {
    LOAD_MULTIPLIERS.iter().map(|m| m * nodes).collect()
}

/// `splitmix64` — the counter-stream primitive behind every route draw:
/// routes are pure functions of `(seed, transfer index)`, never of
/// scheduling order.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The `(src, relay, dst)` triple of transfer `i` — three distinct
/// endpoints, derived only from `(seed, i)`.
fn route(seed: u64, i: u64, nodes: usize) -> (usize, usize, usize) {
    // The CLI rejects `throughput` below three nodes: with one the relay
    // draw divides by zero, and with two no `dst` is free of both ends.
    debug_assert!(nodes >= 3, "a two-hop relay needs three distinct endpoints");
    let h0 = splitmix64(seed ^ i.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let h1 = splitmix64(h0);
    let h2 = splitmix64(h1);
    let src = (h0 % nodes as u64) as usize;
    let relay = (src + 1 + (h1 % (nodes as u64 - 1)) as usize) % nodes;
    let mut dst = (h2 % nodes as u64) as usize;
    while dst == src || dst == relay {
        dst = (dst + 1) % nodes;
    }
    (src, relay, dst)
}

/// The virtual launch time of transfer `i` out of `total`, inside the ramp.
fn launch_us(i: u64, total: u64) -> u64 {
    i * RAMP_US / total
}

/// One load point's outcome, in virtual time.
struct LoadPoint {
    /// Delivery latency (launch → second-hop delivery) per transfer, µs,
    /// in transfer-index order.
    latencies_us: Vec<u64>,
    /// Virtual time of the last delivery, µs.
    makespan_us: u64,
    /// Events the loop handed to the handler.
    events: u64,
}

/// Drive one offered-load point to quiescence and collect per-transfer
/// completion times.
fn run_load_point(nodes: usize, transfers: usize, seed: u64, metrics: &Registry) -> LoadPoint {
    let mut net: Network<u64, UniformLatency> = Network::new(
        NetworkConfig::paper_defaults(),
        UniformLatency::paper(seed ^ 0x7a9),
    );
    net.use_metrics(metrics.clone());
    let eps: Vec<EndpointId> = (0..nodes).map(|_| net.add_endpoint()).collect();
    let total = transfers as u64;
    for i in 0..total {
        net.set_timer(SimDuration::from_micros(launch_us(i, total)), TimerToken(i));
    }

    // Second-hop delivery instant per transfer, µs.
    let mut delivered_us = vec![0u64; transfers];
    let mut events = 0u64;
    net.run_until_quiet(|net, ev| {
        events += 1;
        match ev {
            Event::Timer { token, .. } => {
                let (src, relay, _) = route(seed, token.0, nodes);
                net.send(eps[src], eps[relay], TRANSFER_BYTES, token.0);
            }
            Event::Message(m) => {
                let i = m.payload;
                let (_, relay, dst) = route(seed, i, nodes);
                if m.dst == eps[relay] {
                    net.send(eps[relay], eps[dst], TRANSFER_BYTES, i);
                } else {
                    debug_assert_eq!(m.dst, eps[dst], "second hop lands on the route's dst");
                    delivered_us[i as usize] = m.delivered_at.as_micros();
                }
            }
        }
    });
    // No endpoint dies and no fault plan is installed, so every transfer's
    // three events (launch, relay, delivery) ran.
    debug_assert_eq!(
        events,
        3 * total,
        "every transfer completes in a live network"
    );

    let makespan_us = delivered_us.iter().copied().max().unwrap_or(0);
    let latencies_us = (0..total)
        .zip(&delivered_us)
        .map(|(i, &at)| at - launch_us(i, total))
        .collect();
    LoadPoint {
        latencies_us,
        makespan_us,
        events,
    }
}

/// Nearest-rank percentile (`q` in (0, 1]) of an unsorted sample, µs.
fn percentile_us(sample: &[u64], q: f64) -> u64 {
    assert!(!sample.is_empty(), "percentile of an empty sample");
    let mut sorted = sample.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Run the throughput sweep.
pub fn run(scale: &Scale) -> Series {
    let metrics = Registry::new();
    super::apply_journal(&metrics, scale);
    let mut series = Series::new(
        format!(
            "Throughput — sustained transfers/sec and delivery latency vs. offered load \
             ({} nodes)",
            scale.nodes
        ),
        "concurrent_transfers",
        vec!["transfers_per_sec".into(), "p50_ms".into(), "p99_ms".into()],
    );

    let wall_start = Instant::now();
    let mut total_events = 0u64;
    for (pi, &load) in offered_loads(scale.nodes).iter().enumerate() {
        let seed = substream_seed(scale.seed, "throughput", pi);
        let point = run_load_point(scale.nodes, load, seed, &metrics);
        total_events += point.events;
        let makespan_s = point.makespan_us as f64 / 1e6;
        let tps = load as f64 / makespan_s;
        let p50 = percentile_us(&point.latencies_us, 0.50) as f64 / 1e3;
        let p99 = percentile_us(&point.latencies_us, 0.99) as f64 / 1e3;
        series.push(load as f64, vec![tps, p50, p99]);
    }
    let wall = wall_start.elapsed().as_secs_f64();
    series.metrics_json = Some(metrics.snapshot().to_json());
    series.bench_extras.push((
        "events_per_sec".into(),
        total_events as f64 / wall.max(1e-9),
    ));
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            nodes: 30,
            seed: 11,
            ..Scale::quick()
        }
    }

    #[test]
    fn routes_are_distinct_and_stable() {
        for i in 0..500 {
            let (s, r, d) = route(42, i, 30);
            assert_eq!((s, r, d), route(42, i, 30), "pure function");
            assert!(s != r && r != d && s != d, "transfer {i}: {s} {r} {d}");
            assert!(s < 30 && r < 30 && d < 30);
        }
        // Minimum viable population.
        let (s, r, d) = route(7, 0, 3);
        assert!(s != r && r != d && s != d);
    }

    #[test]
    fn launch_ramp_is_monotone_and_bounded() {
        let total = 1_000;
        for i in 1..total {
            assert!(launch_us(i, total) >= launch_us(i - 1, total));
        }
        assert!(launch_us(total - 1, total) < RAMP_US);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sample: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&sample, 0.50), 50);
        assert_eq!(percentile_us(&sample, 0.99), 99);
        assert_eq!(percentile_us(&sample, 1.0), 100);
        assert_eq!(percentile_us(&[7], 0.5), 7);
    }

    #[test]
    fn figure_completes_and_reports_sane_numbers() {
        let s = run(&tiny());
        assert_eq!(s.rows.len(), LOAD_MULTIPLIERS.len());
        let tps = s.column("transfers_per_sec").unwrap();
        let p50 = s.column("p50_ms").unwrap();
        let p99 = s.column("p99_ms").unwrap();
        for i in 0..s.rows.len() {
            assert!(tps[i] > 0.0, "row {i}");
            // Two hops of U[1, 230] ms propagation: the fastest possible
            // transfer still takes ≥ 2 ms, and p99 dominates p50.
            assert!(p50[i] >= 2.0, "row {i}: p50 {}", p50[i]);
            assert!(p99[i] >= p50[i], "row {i}");
        }
        // Offered load doubles → completed transfers double over the same
        // ramp, so sustained tps must grow with load.
        assert!(tps[1] > tps[0], "{tps:?}");
        assert!(s
            .metrics_json
            .as_deref()
            .unwrap()
            .contains("netsim.timer_lag_us"));
        assert_eq!(s.bench_extras.len(), 1);
        assert_eq!(s.bench_extras[0].0, "events_per_sec");
        assert!(s.bench_extras[0].1 > 0.0);
    }
}
