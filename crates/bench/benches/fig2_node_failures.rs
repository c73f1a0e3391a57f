//! Figure 2 bench: regenerate the simultaneous-failure curves, then time
//! the two kernels that dominate it — tunnel-survival evaluation and the
//! real onion transit a spot check performs.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use bench::{announce, bench_scale};
use tap_core::World;
use tap_id::{Id, IdHashSet};
use tap_pastry::PastryConfig;
use tap_sim::experiments::node_failures;

fn bench_fig2(c: &mut Criterion) {
    let scale = bench_scale();
    announce(&node_failures::run(&scale));

    let mut group = c.benchmark_group("fig2");
    group.sample_size(20);

    // Kernel 1: the per-tunnel survival predicate over a 20% dead set.
    let mut world = World::build(PastryConfig::with_replication(3), scale.nodes, 1);
    let tunnels = world.deploy_tunnels(scale.tunnels, 5);
    let dead: IdHashSet = world
        .overlay
        .ids()
        .enumerate()
        .filter_map(|(i, id)| (i % 5 == 0).then_some(id))
        .collect();
    let hop_lists: Vec<Vec<Id>> = tunnels.iter().map(|(_, t)| t.hop_ids()).collect();
    group.bench_function("survival_predicate_200_tunnels", |b| {
        b.iter(|| {
            hop_lists
                .iter()
                .filter(|h| node_failures::tunnel_broken(&world.thas, h, &dead))
                .count()
        })
    });

    // Kernel 2: the whole figure at bench scale.
    group.bench_function("whole_figure_tiny", |b| {
        b.iter_batched(
            || scale,
            |s| node_failures::run(&s),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_fig2);
criterion_main!(benches);
