//! Figure 6 — 2 Mb transfer latency vs. network size (§7.3).
//!
//! "We simulated the size of a P2P network from 100 to 10,000 nodes. Each
//! link … had a random latency from 1 ms to 230 ms … All links had a
//! simulated bandwidth of 1.5 Mb/s. A randomly chosen initiator
//! transferred a 2 Mb file with a random fileid to a node whose nodeid is
//! numerically closest to the fileid" — overtly, through TAP's basic
//! tunnels, and through TAP's §5 hint-optimized tunnels, at l ∈ {3, 5}.
//!
//! Every transfer runs on TAP's wire engine,
//! [`NetDriver`](tap_core::netdrive::NetDriver): the file rides
//! beside the onion, store-and-forward, one overlay hop at a time. A hop
//! costs its bytes' 1.5 Mb/s serialization plus the pairwise propagation
//! delay, the cost model of the paper's emulator; a TAP hop's bytes are
//! the file plus what is left of the onion.

use rand::Rng;

use tap_core::metrics::CoreInstruments;
use tap_core::netdrive::TimedReport;
use tap_core::transit::{Delivery, HintCache, TransitError, TransitOptions};
use tap_core::tunnel::Tunnel;
use tap_core::wire::Destination;
use tap_core::{Draws, Purpose, World};
use tap_id::Id;
use tap_metrics::Registry;
use tap_netsim::latency::UniformLatency;
use tap_pastry::PastryConfig;

use crate::engine::TrialPool;
use crate::report::Series;
use crate::Scale;

/// The transferred file: 2 Mb = 250 000 bytes.
pub const FILE_BYTES: u64 = 250_000;

/// Log-spaced network sizes from 100 up to `max` (inclusive).
fn network_sizes(max: usize) -> Vec<usize> {
    let max = max.max(100);
    let points = 5usize;
    let lo = 100f64;
    let hi = max as f64;
    let mut out: Vec<usize> = (0..points)
        .map(|i| {
            let f = i as f64 / (points - 1) as f64;
            (lo * (hi / lo).powf(f)).round() as usize
        })
        .collect();
    out.dedup();
    out
}

/// Run the experiment with the paper's uniform link model.
pub fn run(scale: &Scale) -> Series {
    let metrics = Registry::new();
    super::apply_journal(&metrics, scale);
    let mut series = Series::new(
        "Fig. 6 — 2 Mb transfer latency (seconds) vs. number of peer nodes [Uniform links]",
        "nodes",
        vec![
            "overt".into(),
            "tap_basic_l5".into(),
            "tap_opt_l5".into(),
            "tap_basic_l3".into(),
            "tap_opt_l3".into(),
        ],
    );

    // Building the overlay dominates a trial's cost at paper scale, so
    // build each size's world once and hand every trial a copy-on-write
    // fork (O(N) Arc bumps; the static network never kills a node, so
    // routing never evicts and nothing unshares).
    let draws = Draws::from(scale.seed ^ 0xF166);
    let sizes = network_sizes(scale.nodes);
    let bases: Vec<World> = sizes
        .iter()
        .map(|&n| {
            let base_draws = draws.child(Purpose::World, n as u64);
            let base = World::build(PastryConfig::paper_defaults(), n, base_draws);
            metrics.merge(base.metrics());
            base
        })
        .collect();

    // The paper's 30 independent simulations per network size are the
    // trial list: every (size, sim) pair is one trial on its own draws
    // with its own network + registry, reading the shared base overlays,
    // so the whole figure fans out across workers.
    let trials: Vec<(usize, usize)> = (0..sizes.len())
        .flat_map(|si| (0..scale.latency_sims).map(move |sim| (si, sim)))
        .collect();
    let pool = TrialPool::new(scale, draws);
    let results = pool.run(trials, |&(si, _sim), draws| {
        let trial_metrics = Registry::new();
        super::apply_journal(&trial_metrics, scale);
        let mut world = bases[si].fork(draws, &trial_metrics);
        let links = UniformLatency::paper(world.stream(Purpose::Wire).gen());
        let per_transfer = simulate_one(&mut world, scale.latency_transfers, links);
        (per_transfer, trial_metrics)
    });

    let mut results = results.into_iter();
    for &n in &sizes {
        let mut sums = [0.0f64; 5];
        for _ in 0..scale.latency_sims {
            let (per_transfer, trial_metrics) = results.next().expect("one trial per (size, sim)");
            for (slot, v) in per_transfer.iter().enumerate() {
                sums[slot] += v;
            }
            metrics.merge(&trial_metrics);
        }
        let denom = (scale.latency_sims * scale.latency_transfers) as f64;
        series.push(n as f64, sums.iter().map(|s| s / denom).collect());
    }
    series.metrics_json = Some(metrics.snapshot().to_json());
    series
}

/// One simulation on a fork of the size's base world: returns summed
/// seconds per variant.
///
/// Every transfer runs on the world's [`tap_core::netdrive::NetDriver`]:
/// the overt one along the plain route, each TAP one through a fresh
/// tunnel with the file travelling beside the onion. A transfer ends at
/// its last delivery before the next starts, so every NIC is idle at each
/// send and a transfer's time is its own store-and-forward cost, whatever
/// ran before it.
fn simulate_one(world: &mut World, transfers: usize, latency: UniformLatency) -> [f64; 5] {
    let mut driver = world.net_driver(latency);
    let instruments = CoreInstruments::new(world.metrics());

    let mut sums = [0.0f64; 5];
    for _ in 0..transfers {
        let initiator = world.random_node().expect("nodes exist");
        let fid = Id::random(&mut world.stream(Purpose::File));
        // Variant 0: overt transfer along the plain Pastry route.
        let overt = driver.drive_overt(&mut world.overlay, &world.thas, initiator, fid, FILE_BYTES);
        sums[0] += seconds(overt);
        // TAP variants: fresh tunnels per transfer, torn down afterwards.
        for (slot, &(l, hinted)) in [(5usize, false), (5, true), (3, false), (3, true)]
            .iter()
            .enumerate()
        {
            let hops = world.fresh_hops(initiator, l).expect("nodes exist");
            let tunnel = Tunnel::new(hops);
            let hints = hinted.then(|| {
                let mut cache = HintCache::default();
                cache.refresh(&world.overlay, &tunnel.hop_ids());
                cache
            });
            let onion = tunnel.build_onion_instrumented(
                &mut world.stream(Purpose::Flow),
                Destination::KeyRoot(fid),
                b"push",
                hints.as_ref(),
                Some(&instruments),
            );
            let outcome = driver.drive_timed_with_hints(
                &mut world.overlay,
                &world.thas,
                initiator,
                tunnel.entry_hopid(),
                onion,
                FILE_BYTES,
                TransitOptions {
                    use_hints: hinted,
                    ..TransitOptions::default()
                },
                None,
            );
            world.teardown(tunnel.hops());
            sums[slot + 1] += seconds(outcome);
        }
    }
    sums
}

/// A transfer's virtual seconds. The network is static and the wire clean,
/// so every transfer delivers.
fn seconds(outcome: Result<(Delivery, TimedReport), TransitError>) -> f64 {
    let (_, report) = outcome.expect("static network: transfers cannot break mid-experiment");
    report.elapsed.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_sizes_are_log_spaced() {
        let s = network_sizes(10_000);
        assert_eq!(s.first(), Some(&100));
        assert_eq!(s.last(), Some(&10_000));
        assert!(s.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(network_sizes(100), vec![100]);
    }
}
