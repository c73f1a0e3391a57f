//! Figure 6 — 2 Mb transfer latency vs. network size (§7.3).
//!
//! "We simulated the size of a P2P network from 100 to 10,000 nodes. Each
//! link … had a random latency from 1 ms to 230 ms … All links had a
//! simulated bandwidth of 1.5 Mb/s. A randomly chosen initiator
//! transferred a 2 Mb file with a random fileid to a node whose nodeid is
//! numerically closest to the fileid" — overtly, through TAP's basic
//! tunnels, and through TAP's §5 hint-optimized tunnels, at l ∈ {3, 5}.
//!
//! Every variant produces a node-level store-and-forward path; the path is
//! then replayed against the discrete-event network (per-hop 1.5 Mb/s
//! serialization plus pairwise propagation delay), exactly the cost model
//! of the paper's emulator.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tap_core::metrics::CoreInstruments;
use tap_core::tha::{Tha, ThaFactory};
use tap_core::transit::{self, HintCache, TransitOptions};
use tap_core::tunnel::Tunnel;
use tap_core::wire::Destination;
use tap_id::{Id, IdHashMap};
use tap_metrics::Registry;
use tap_netsim::latency::{EuclideanLatency, LatencyModel, UniformLatency};
use tap_netsim::{EndpointId, Event, Network, NetworkConfig, SimDuration};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, PastryConfig};

use crate::engine::{substream_seed, TrialPool};
use crate::report::Series;
use crate::Scale;

/// The transferred file: 2 Mb = 250 000 bytes.
pub const FILE_BYTES: u64 = 250_000;

/// Log-spaced network sizes from 100 up to `max` (inclusive).
pub fn network_sizes(max: usize) -> Vec<usize> {
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

/// Which pairwise-delay model the emulated Internet uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyModel {
    /// The paper's setting: each link U[1, 230] ms, independent.
    Uniform,
    /// Ablation: endpoints on a 2D torus; delay grows with distance
    /// (respects the triangle inequality, unlike independent draws).
    Euclidean,
}

/// Run the experiment with the paper's uniform link model.
pub fn run(scale: &Scale) -> Series {
    run_with_model(scale, TopologyModel::Uniform)
}

/// Run the experiment under a chosen topology model (the topology
/// ablation compares the two).
pub fn run_with_model(scale: &Scale, model: TopologyModel) -> Series {
    let metrics = Registry::new();
    super::apply_journal(&metrics, scale);
    let mut series = Series::new(
        format!(
            "Fig. 6 — 2 Mb transfer latency (seconds) vs. number of peer nodes [{model:?} links]"
        ),
        "nodes",
        vec![
            "overt".into(),
            "tap_basic_l5".into(),
            "tap_opt_l5".into(),
            "tap_basic_l3".into(),
            "tap_opt_l3".into(),
        ],
    );

    // Building the overlay dominates a trial's cost at paper scale, and
    // every sim at a given size routes over an identically-seeded one —
    // so build each size's overlay exactly once, up front, and hand every
    // trial a copy-on-write clone (O(N) Arc bumps; the static network
    // never kills a node, so routing never evicts and nothing unshares).
    let sizes = network_sizes(scale.nodes);
    let bases: Vec<(Overlay, Vec<Id>)> = sizes
        .iter()
        .map(|&n| {
            let mut rng = StdRng::seed_from_u64(substream_seed(scale.seed, "fig6-base", n));
            let mut overlay = Overlay::new(PastryConfig::paper_defaults());
            overlay.use_metrics(metrics.clone());
            let ids = (0..n).map(|_| overlay.add_random_node(&mut rng)).collect();
            (overlay, ids)
        })
        .collect();

    // The paper's 30 independent simulations per network size are the
    // trial list: every (size, sim) pair is one trial on its own RNG
    // substream with its own network + registry, reading the shared base
    // overlays, so the whole figure fans out across workers.
    let trials: Vec<(usize, usize)> = (0..sizes.len())
        .flat_map(|si| (0..scale.latency_sims).map(move |sim| (si, sim)))
        .collect();
    let pool = TrialPool::new(scale, "fig6");
    let results = pool.run(trials, |idx, &(si, _sim), _rng| {
        let trial_metrics = Registry::new();
        super::apply_journal(&trial_metrics, scale);
        let seed = pool.trial_seed(idx);
        let (base, ids) = &bases[si];
        let per_transfer = match model {
            TopologyModel::Uniform => simulate_one(
                base,
                ids,
                scale.latency_transfers,
                seed,
                UniformLatency::paper(seed ^ 0x1a7e),
                &trial_metrics,
            ),
            TopologyModel::Euclidean => simulate_one(
                base,
                ids,
                scale.latency_transfers,
                seed,
                EuclideanLatency::paper(seed ^ 0x1a7e),
                &trial_metrics,
            ),
        };
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

/// Measured throughput of the fused onion codec — the wire-level kernel
/// this figure's transfer times stand on. Seals a representative l = 5
/// onion (40-byte headers, 4 KiB core) from a warmed builder and reports
/// ciphered GB/s: every layer's keystream covers its whole body, so one
/// seal ciphers Σᵢ bodyᵢ bytes. Travels as a bench extra (BENCH_sim.json
/// only — never a figure CSV), where the bench gate holds a floor under
/// it. Not called by [`run`]: the 2 000 probe seals are not part of the
/// figure, so `tap-sim` runs them after it has stopped fig6's clock.
pub fn measure_cipher_gbps() -> f64 {
    use tap_crypto::chacha20::NONCE_LEN;
    use tap_crypto::cipher::{SymmetricKey, TAG_LEN};
    use tap_crypto::onion::{OnionBuilder, LAYER_MARGIN};

    const LAYERS: usize = 5;
    const HEADER: usize = 40;
    const CORE: usize = 4096;
    let mut rng = StdRng::seed_from_u64(0xC1BE6B);
    let layers: Vec<_> = (0..LAYERS)
        .map(|i| (SymmetricKey::generate(&mut rng), vec![i as u8; HEADER]))
        .collect();
    let core = vec![0xA5u8; CORE];
    let mut b = OnionBuilder::new();
    b.seal(&mut rng, &layers, &core); // warm the builder and caches

    let total = b.as_bytes().len();
    let ciphered_per_seal: usize = (0..LAYERS)
        .map(|i| {
            let start = i * (LAYER_MARGIN + HEADER);
            let end = total - i * TAG_LEN;
            // Layer i ciphers everything between its nonce and its tag.
            end - start - NONCE_LEN - TAG_LEN
        })
        .sum();

    let iters = 2000u32;
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        b.seal(&mut rng, &layers, &core);
    }
    let wall = t0.elapsed().as_secs_f64();
    iters as f64 * ciphered_per_seal as f64 / wall.max(1e-9) / 1e9
}

/// One simulation over a copy-on-write clone of the shared base overlay:
/// returns summed seconds per variant.
///
/// Each transfer's paths are built and replayed in turn on one serial
/// [`Network`]. A replay waits for its chain's last delivery before the
/// next path is built, so every NIC is idle at each send and a transfer's
/// time is its own store-and-forward cost, whatever ran before it.
fn simulate_one<L: LatencyModel>(
    base: &Overlay,
    ids: &[Id],
    transfers: usize,
    seed: u64,
    latency: L,
    metrics: &Registry,
) -> [f64; 5] {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut overlay = base.clone();
    overlay.use_metrics(metrics.clone());
    let mut net: Network<usize, L> = Network::new(NetworkConfig::paper_defaults(), latency);
    net.use_metrics(metrics.clone());
    let endpoint_of: IdHashMap<EndpointId> =
        ids.iter().map(|&id| (id, net.add_endpoint())).collect();
    let mut thas: ReplicaStore<Tha> = ReplicaStore::new(3);
    thas.use_metrics(metrics.clone());
    let instruments = CoreInstruments::new(metrics);

    let mut sums = [0.0f64; 5];
    for _ in 0..transfers {
        let initiator = overlay.random_node(&mut rng).expect("nodes exist");
        let fid = Id::random(&mut rng);

        // Variant 0: overt transfer along the plain Pastry route.
        let overt_path = overlay
            .route(initiator, fid)
            .expect("consistent overlay routes")
            .path;
        sums[0] += replay(&mut net, &endpoint_of, &overt_path).as_secs_f64();

        // TAP variants: fresh tunnels per transfer, torn down afterwards.
        for (slot, &(l, hinted)) in [(5usize, false), (5, true), (3, false), (3, true)]
            .iter()
            .enumerate()
        {
            let path = tap_path(
                &mut overlay,
                &mut thas,
                &mut rng,
                initiator,
                fid,
                l,
                hinted,
                &instruments,
            );
            sums[slot + 1] += replay(&mut net, &endpoint_of, &path).as_secs_f64();
        }
    }
    sums
}

/// A node path as a store-and-forward transfer on `net`: each hop ships
/// the whole file once the previous hop has delivered it. Consecutive
/// duplicates (a hop relaying to itself) are free, so a path of fewer than
/// two distinct nodes costs nothing.
fn replay<L: LatencyModel>(
    net: &mut Network<usize, L>,
    endpoint_of: &IdHashMap<EndpointId>,
    path: &[Id],
) -> SimDuration {
    let mut eps: Vec<EndpointId> = Vec::with_capacity(path.len());
    for id in path {
        let ep = endpoint_of[id];
        if eps.last() != Some(&ep) {
            eps.push(ep);
        }
    }
    if eps.len() < 2 {
        return SimDuration::ZERO;
    }
    let start = net.now();
    net.send(eps[0], eps[1], FILE_BYTES, 1);
    net.run_until_quiet(|net, ev| {
        if let Event::Message(m) = ev {
            let next = m.payload + 1;
            if next < eps.len() {
                net.send(eps[m.payload], eps[next], FILE_BYTES, next);
            }
        }
    });
    // The network carries nothing else, so it quiesces at the last hop's
    // delivery.
    net.now() - start
}

/// Build a fresh tunnel of length `l` for `initiator`, drive the transfer
/// header through it, and return the node-level path the file follows.
#[allow(clippy::too_many_arguments)]
fn tap_path(
    overlay: &mut Overlay,
    thas: &mut ReplicaStore<Tha>,
    rng: &mut StdRng,
    initiator: Id,
    fid: Id,
    l: usize,
    hinted: bool,
    instruments: &CoreInstruments,
) -> Vec<Id> {
    let mut factory = ThaFactory::new(rng, initiator);
    let mut hops = Vec::with_capacity(l);
    while hops.len() < l {
        let s = factory.next(rng);
        if thas
            .insert(overlay, s.hopid, s.stored())
            .expect("testbed overlay is non-empty")
        {
            hops.push(s);
        }
    }
    let tunnel = Tunnel::new(hops.clone());
    let hints = hinted.then(|| {
        let mut cache = HintCache::default();
        cache.refresh(overlay, &tunnel.hop_ids());
        cache
    });
    let onion = tunnel.build_onion_instrumented(
        rng,
        Destination::KeyRoot(fid),
        b"push",
        hints.as_ref(),
        Some(instruments),
    );
    let (_, report) = transit::drive_instrumented(
        overlay,
        thas,
        initiator,
        tunnel.entry_hopid(),
        onion,
        TransitOptions {
            use_hints: hinted,
            ..TransitOptions::default()
        },
        Some(instruments),
    )
    .expect("static network: tunnels cannot break mid-experiment");
    for h in &hops {
        thas.remove(h.hopid);
    }
    report.node_path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            nodes: 600,
            tunnels: 1,
            latency_sims: 2,
            latency_transfers: 12,
            seed: 3,
            ..Scale::quick()
        }
    }

    #[test]
    fn network_sizes_are_log_spaced() {
        let s = network_sizes(10_000);
        assert_eq!(s.first(), Some(&100));
        assert_eq!(s.last(), Some(&10_000));
        assert!(s.windows(2).all(|w| w[1] > w[0]));
        assert_eq!(network_sizes(100), vec![100]);
    }

    #[test]
    fn figure6_orderings() {
        let s = run(&tiny());
        let overt = s.column("overt").unwrap();
        let basic5 = s.column("tap_basic_l5").unwrap();
        let opt5 = s.column("tap_opt_l5").unwrap();
        let basic3 = s.column("tap_basic_l3").unwrap();
        let opt3 = s.column("tap_opt_l3").unwrap();

        for i in 0..s.rows.len() {
            // "TAP's basic tunneling mechanism introduces a significant
            // latency penalty" — basic ≫ overt.
            assert!(
                basic5[i] > overt[i] * 1.5,
                "row {i}: basic5 {} vs overt {}",
                basic5[i],
                overt[i]
            );
            // "A longer tunnel introduces bigger performance overhead."
            assert!(basic5[i] > basic3[i], "row {i}");
            // "TAP's performance optimized tunneling mechanism can
            // dramatically reduce the latency penalty."
            assert!(opt5[i] < basic5[i], "row {i}");
            assert!(opt3[i] < basic3[i], "row {i}");
            // The optimization cannot beat the overt direct route.
            assert!(opt3[i] >= overt[i] * 0.8, "row {i}");
        }

        // Transfer times are in a plausible absolute band: a 2 Mb file at
        // 1.5 Mb/s costs 1.33 s per store-and-forward hop, and every path
        // has at least one hop.
        assert!(overt.iter().all(|t| *t > 1.0), "{overt:?}");
        assert!(basic5.iter().all(|t| *t < 60.0), "{basic5:?}");
    }

    #[test]
    fn euclidean_topology_preserves_orderings() {
        let scale = Scale {
            nodes: 300,
            latency_sims: 1,
            latency_transfers: 10,
            ..tiny()
        };
        let s = run_with_model(&scale, TopologyModel::Euclidean);
        let overt = s.column("overt").unwrap();
        let basic5 = s.column("tap_basic_l5").unwrap();
        let opt5 = s.column("tap_opt_l5").unwrap();
        for i in 0..s.rows.len() {
            assert!(basic5[i] > overt[i], "row {i}");
            assert!(opt5[i] < basic5[i], "row {i}");
        }
    }

    #[test]
    fn replay_costs_match_hand_arithmetic() {
        let mut net: Network<usize, UniformLatency> =
            Network::new(NetworkConfig::paper_defaults(), UniformLatency::paper(9));
        let a = net.add_endpoint();
        let b = net.add_endpoint();
        let c = net.add_endpoint();
        let mut map = IdHashMap::default();
        let (ia, ib, ic) = (Id::from_u64(1), Id::from_u64(2), Id::from_u64(3));
        map.insert(ia, a);
        map.insert(ib, b);
        map.insert(ic, c);
        let d = replay(&mut net, &map, &[ia, ib, ic]);
        let expect =
            SimDuration::from_micros(2 * 1_333_334) + net.link_delay(a, b) + net.link_delay(b, c);
        assert_eq!(d, expect);
        // Degenerate paths cost nothing.
        assert_eq!(replay(&mut net, &map, &[ia]), SimDuration::ZERO);
        assert_eq!(replay(&mut net, &map, &[ia, ia]), SimDuration::ZERO);
    }
}
