//! Figure 3 bench: regenerate the collusion curve, then time the adversary
//! evaluation kernel (THA-pool lookup across all tunnels).

use criterion::{criterion_group, criterion_main, Criterion};

use bench::{announce, bench_scale};
use tap_core::{Collusion, Purpose, World};
use tap_pastry::PastryConfig;
use tap_sim::experiments::collusion;

fn bench_fig3(c: &mut Criterion) {
    let scale = bench_scale();
    announce(&collusion::run(&scale));

    let mut group = c.benchmark_group("fig3");
    group.sample_size(20);

    let mut world = World::build(PastryConfig::with_replication(3), scale.nodes, 2);
    let tunnels = world.deploy_tunnels(scale.tunnels, 5);
    let hop_lists: Vec<_> = tunnels.iter().map(|(_, t)| t.hop_ids()).collect();
    let mut rng = world.stream(Purpose::Collusion);
    let adv = Collusion::mark_fraction(&world.overlay, &mut rng, 0.2);
    let mut watched = world.thas.clone();
    watched.watch(adv.members());

    group.bench_function("corruption_rate_200_tunnels", |b| {
        b.iter(|| adv.corruption_rate(&world.thas, &hop_lists))
    });
    group.bench_function("corruption_rate_with_history", |b| {
        b.iter(|| adv.corruption_rate(&watched, &hop_lists))
    });
    group.bench_function("whole_figure_tiny", |b| b.iter(|| collusion::run(&scale)));
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
