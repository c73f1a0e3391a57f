//! Figure 6 bench: regenerate the transfer-latency table and time its
//! kernels on the wire engine fig6 runs on — the file carried through a
//! 5-hop tunnel, the file carried along the overt route, and the whole
//! quick-preset figure.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use bench::{announce, bench_scale};
use tap_core::netdrive::NetDriver;
use tap_core::tha::{Tha, ThaFactory};
use tap_core::transit::TransitOptions;
use tap_core::tunnel::Tunnel;
use tap_core::wire::Destination;
use tap_id::Id;
use tap_netsim::latency::UniformLatency;
use tap_netsim::{Network, NetworkConfig};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, PastryConfig};
use tap_sim::experiments::latency::{self, FILE_BYTES};

fn bench_fig6(c: &mut Criterion) {
    let scale = bench_scale();
    announce(&latency::run(&scale));

    let mut group = c.benchmark_group("fig6");
    group.sample_size(20);

    // Fixture: a 500-node overlay on fig6's wire, with one standing tunnel.
    let mut rng = StdRng::seed_from_u64(5);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    let net = Network::new(NetworkConfig::paper_defaults(), UniformLatency::paper(5));
    let mut driver = NetDriver::new(net);
    for _ in 0..500 {
        driver.register(overlay.add_random_node(&mut rng));
    }
    let initiator = overlay.random_node(&mut rng).unwrap();
    let mut thas: ReplicaStore<Tha> = ReplicaStore::new(3);
    let mut factory = ThaFactory::new(&mut rng, initiator);
    let hops: Vec<_> = (0..5)
        .map(|_| {
            let s = factory.next(&mut rng);
            thas.insert(&overlay, s.hopid, s.stored()).unwrap();
            s
        })
        .collect();
    let tunnel = Tunnel::new(hops);

    group.bench_function("tunnel_transit_l5_500_nodes", |b| {
        b.iter(|| {
            let fid = Id::random(&mut rng);
            let onion = tunnel.build_onion(&mut rng, Destination::KeyRoot(fid), b"f", None);
            driver
                .drive_timed_with_hints(
                    &mut overlay,
                    &thas,
                    initiator,
                    tunnel.entry_hopid(),
                    onion,
                    FILE_BYTES,
                    TransitOptions::default(),
                    None,
                )
                .expect("static network")
                .1
                .overlay_hops
        })
    });

    group.bench_function("overt_transfer_500_nodes", |b| {
        b.iter(|| {
            let fid = Id::random(&mut rng);
            driver
                .drive_overt(&mut overlay, initiator, fid, FILE_BYTES)
                .expect("static network")
                .1
                .overlay_hops
        })
    });

    group.bench_function("whole_figure_quick", |b| b.iter(|| latency::run(&scale)));
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
