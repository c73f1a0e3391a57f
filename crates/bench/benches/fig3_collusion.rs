//! Figure 3 bench: regenerate the collusion curve, then time the adversary
//! evaluation kernel (THA-pool lookup across all tunnels).

use criterion::{criterion_group, criterion_main, Criterion};

use bench::{announce, bench_scale};
use tap_core::Collusion;
use tap_sim::experiments::{collusion, Testbed};

fn bench_fig3(c: &mut Criterion) {
    let scale = bench_scale();
    announce(&collusion::run(&scale));

    let mut group = c.benchmark_group("fig3");
    group.sample_size(20);

    let mut tb = Testbed::build(scale.nodes, scale.tunnels, 3, 5, 2);
    let hop_lists = tb.hop_id_lists();
    let adv = Collusion::mark_fraction(&tb.overlay, &mut tb.rng, 0.2);
    let mut watched = tb.thas.clone();
    watched.watch(adv.members());

    group.bench_function("corruption_rate_200_tunnels", |b| {
        b.iter(|| adv.corruption_rate(&tb.thas, &hop_lists))
    });
    group.bench_function("corruption_rate_with_history", |b| {
        b.iter(|| adv.corruption_rate(&watched, &hop_lists))
    });
    group.bench_function("whole_figure_quick", |b| b.iter(|| collusion::run(&scale)));
    group.finish();
}

criterion_group!(benches, bench_fig3);
criterion_main!(benches);
