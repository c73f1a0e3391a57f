//! Figure 4 bench: regenerate both parameter sweeps (replication factor
//! and tunnel length) and time the replica re-placement kernel the k-sweep
//! leans on.

use criterion::{criterion_group, criterion_main, Criterion};

use bench::{announce, bench_scale};
use tap_core::tha::Tha;
use tap_core::World;
use tap_pastry::storage::ReplicaStore;
use tap_pastry::PastryConfig;
use tap_sim::experiments::sweeps;

fn bench_fig4(c: &mut Criterion) {
    let scale = bench_scale();
    announce(&sweeps::by_replication(&scale));
    announce(&sweeps::by_length(&scale));

    let mut group = c.benchmark_group("fig4");
    group.sample_size(20);

    let mut world = World::build(PastryConfig::with_replication(3), scale.nodes, 3);
    let tunnels = world.deploy_tunnels(scale.tunnels, 5);
    for k in [1usize, 3, 8] {
        group.bench_function(format!("reinsert_1000_anchors_k{k}"), |b| {
            b.iter(|| {
                let mut store: ReplicaStore<Tha> = ReplicaStore::new(k);
                for (_, t) in &tunnels {
                    for h in t.hops() {
                        store.insert(&world.overlay, h.hopid, h.stored()).unwrap();
                    }
                }
                store.len()
            })
        });
    }
    group.bench_function("sweep_replication_tiny", |b| {
        b.iter(|| sweeps::by_replication(&scale))
    });
    group.bench_function("sweep_length_tiny", |b| {
        b.iter(|| sweeps::by_length(&scale))
    });
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
