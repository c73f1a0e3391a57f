//! Figure 6 bench: regenerate the transfer-latency table and time its
//! kernels on the wire engine fig6 runs on — the file carried through a
//! 5-hop tunnel, the file carried along the overt route, and the whole
//! tiny-preset figure.

use criterion::{criterion_group, criterion_main, Criterion};

use bench::{announce, bench_scale};
use tap_core::transit::TransitOptions;
use tap_core::tunnel::Tunnel;
use tap_core::wire::Destination;
use tap_core::{Purpose, World};
use tap_id::Id;
use tap_netsim::latency::UniformLatency;
use tap_pastry::PastryConfig;
use tap_sim::experiments::latency::{self, FILE_BYTES};

fn bench_fig6(c: &mut Criterion) {
    let scale = bench_scale();
    announce(&latency::run(&scale));

    let mut group = c.benchmark_group("fig6");
    group.sample_size(20);

    // Fixture: a 500-node world on fig6's wire, with one standing tunnel.
    let mut world = World::build(PastryConfig::paper_defaults(), 500, 5);
    let mut driver = world.net_driver(UniformLatency::paper(5));
    let initiator = world.random_node().unwrap();
    let tunnel = Tunnel::new(world.fresh_hops(initiator, 5).unwrap());

    group.bench_function("tunnel_transit_l5_500_nodes", |b| {
        b.iter(|| {
            let fid = Id::random(&mut world.stream(Purpose::File));
            let onion = tunnel.build_onion(
                &mut world.stream(Purpose::Flow),
                Destination::KeyRoot(fid),
                b"f",
                None,
            );
            driver
                .drive_timed_with_hints(
                    &mut world.overlay,
                    &world.thas,
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
            let fid = Id::random(&mut world.stream(Purpose::File));
            driver
                .drive_overt(&mut world.overlay, &world.thas, initiator, fid, FILE_BYTES)
                .expect("static network")
                .1
                .overlay_hops
        })
    });

    group.bench_function("whole_figure_tiny", |b| b.iter(|| latency::run(&scale)));
    group.finish();
}

criterion_group!(benches, bench_fig6);
criterion_main!(benches);
