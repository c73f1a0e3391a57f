//! Figure 5 bench: regenerate the churn decay curves and time the
//! replication manager's churn handling (the experiment's inner loop).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use bench::{announce, bench_scale};
use tap_core::World;
use tap_pastry::PastryConfig;
use tap_sim::experiments::churn;

fn bench_fig5(c: &mut Criterion) {
    let scale = bench_scale();
    announce(&churn::run(&scale));

    let mut group = c.benchmark_group("fig5");
    group.sample_size(10);

    // Kernel: one full churn event (leave with repair + join with
    // rebalance) against a populated store.
    group.bench_function("one_churn_event_with_repair", |b| {
        b.iter_batched(
            || {
                let mut world = World::build(PastryConfig::with_replication(3), 400, 4);
                world.deploy_tunnels(150, 5);
                world
            },
            |mut world| {
                let victim = world.random_node().unwrap();
                world.leave(victim, true);
                world.join();
                world.thas.len()
            },
            BatchSize::PerIteration,
        )
    });

    group.bench_function("whole_figure_tiny", |b| b.iter(|| churn::run(&scale)));
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);
