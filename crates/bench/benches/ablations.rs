//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each ablation prints its study table once (the reproduction record) and
//! registers one representative kernel with Criterion so regressions in
//! the underlying machinery are caught by timing.
//!
//! 1. `k` trades functionality for anonymity (replication frontier).
//! 2. `l` trades latency for anonymity (length frontier).
//! 3. IP hints go stale under churn (staleness→fallback rate).
//! 4. Scattered hopids resist region capture (§3.5).
//! 5. Tunnel refresh period bounds knowledge accumulation (§7.2).

use std::collections::HashSet;

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::seq::IteratorRandom;
use rand::SeedableRng;

use tap_core::tha::{Tha, ThaFactory};
use tap_core::transit::{self, HintCache, TransitOptions};
use tap_core::wire::Destination;
use tap_core::{Collusion, World};
use tap_id::{ArcRange, Id};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, PastryConfig};

const NODES: usize = 800;
const TUNNELS: usize = 400;

fn ablation_k_tradeoff() {
    println!("\n=== ablation 1: replication factor k — functionality vs anonymity ===");
    println!(
        "{:>3} {:>22} {:>22}",
        "k", "failure@p=0.3 (func.)", "corruption@p=0.1 (anon.)"
    );
    let mut world = World::build(PastryConfig::with_replication(3), NODES, 11);
    let tunnels = world.deploy_tunnels(TUNNELS, 5);
    let mut rng = StdRng::seed_from_u64(12);
    let dead: HashSet<Id> = world
        .overlay
        .ids()
        .choose_multiple(&mut rng, (NODES as f64 * 0.3) as usize)
        .into_iter()
        .collect();
    for k in [1usize, 2, 3, 4, 5, 6, 8] {
        let store = world.thas_replicated(k, world.metrics());
        let hop_lists: Vec<Vec<Id>> = tunnels.iter().map(|(_, t)| t.hop_ids()).collect();
        let failed = hop_lists
            .iter()
            .filter(|h| {
                h.iter()
                    .any(|hop| store.holders(*hop).iter().all(|x| dead.contains(x)))
            })
            .count() as f64
            / hop_lists.len() as f64;
        let adv = Collusion::mark_fraction(&world.overlay, &mut rng, 0.1);
        let corrupted = adv.corruption_rate(&store, &hop_lists);
        println!("{k:>3} {failed:>22.4} {corrupted:>22.4}");
    }
    println!("(raise k: failures fall, corruption rises — the paper's balance point is k=3..5)");
}

fn ablation_length_tradeoff() {
    println!("\n=== ablation 2: tunnel length l — latency vs anonymity ===");
    println!(
        "{:>3} {:>18} {:>22}",
        "l", "mean overlay hops", "corruption@p=0.1"
    );
    let base = World::build(PastryConfig::paper_defaults(), NODES, 13);
    for l in [1usize, 2, 3, 5, 7] {
        let mut w = base.fork(StdRng::seed_from_u64(14 + l as u64), base.metrics());
        let tunnels = w.deploy_tunnels(120, l);
        // Transit cost: drive a probe through each tunnel.
        let mut hops_total = 0usize;
        for (initiator, tun) in &tunnels {
            let probe = Id::random(&mut w.rng);
            let onion = tun.build_onion(&mut w.rng, Destination::KeyRoot(probe), b"p", None);
            let (_, report) = transit::drive(
                &mut w.overlay,
                &w.thas,
                *initiator,
                tun.entry_hopid(),
                onion,
                TransitOptions::default(),
            )
            .expect("static overlay");
            hops_total += report.overlay_hops;
        }
        let adv = Collusion::mark_fraction(&w.overlay, &mut w.rng, 0.1);
        let hop_lists: Vec<Vec<Id>> = tunnels.iter().map(|(_, t)| t.hop_ids()).collect();
        let corrupted = adv.corruption_rate(&w.thas, &hop_lists);
        println!(
            "{l:>3} {:>18.2} {corrupted:>22.4}",
            hops_total as f64 / tunnels.len() as f64
        );
    }
    println!("(the knee at l=5: anonymity flattens while latency keeps climbing)");
}

fn ablation_hint_staleness() {
    println!("\n=== ablation 3: hint staleness under churn (§5 fallback) ===");
    println!(
        "{:>18} {:>12} {:>12}",
        "churned fraction", "hint hits", "hint misses"
    );
    for churn_pct in [0usize, 5, 10, 20, 40] {
        let mut world = World::build(PastryConfig::with_replication(3), NODES, 15);
        let tunnels = world.deploy_tunnels(60, 5);
        // Record hints while the network is fresh.
        let caches: Vec<HintCache> = tunnels
            .iter()
            .map(|(_, t)| {
                let mut c = HintCache::default();
                c.refresh(&world.overlay, &t.hop_ids());
                c
            })
            .collect();
        // Churn.
        let n_churn = NODES * churn_pct / 100;
        for _ in 0..n_churn {
            let v = world.random_node().unwrap();
            world.leave(v, true);
            world.join();
        }
        // Drive with the stale caches.
        let (mut hits, mut misses) = (0usize, 0usize);
        for ((initiator, tun), cache) in tunnels.iter().zip(&caches) {
            if !world.overlay.is_live(*initiator) {
                continue;
            }
            let probe = Id::random(&mut world.rng);
            let onion = tun.build_onion(
                &mut world.rng,
                Destination::KeyRoot(probe),
                b"p",
                Some(cache),
            );
            if let Ok((_, report)) = transit::drive(
                &mut world.overlay,
                &world.thas,
                *initiator,
                tun.entry_hopid(),
                onion,
                TransitOptions::hinted(),
            ) {
                hits += report.hint_hits;
                misses += report.hint_misses;
            }
        }
        println!("{churn_pct:>17}% {hits:>12} {misses:>12}");
    }
    println!("(stale hints degrade gracefully into DHT routing — no failures, just hops)");
}

fn ablation_scatter() {
    println!("\n=== ablation 4: scattered vs clustered hopids (§3.5) ===");
    let mut rng = StdRng::seed_from_u64(16);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..NODES {
        overlay.add_random_node(&mut rng);
    }
    // Adversary captures one /4 region (every node with first digit 0xa).
    let mut adv = Collusion::new();
    for id in overlay.ids().collect::<Vec<_>>() {
        if id.digit(0, 4) == 0xa {
            adv.insert(id);
        }
    }
    let mut store: ReplicaStore<Tha> = ReplicaStore::new(3);
    let bucket = ArcRange::prefix_bucket(Id::ZERO.with_digit(0, 4, 0xa), 1, 4);
    let make =
        |rng: &mut StdRng, store: &mut ReplicaStore<Tha>, overlay: &Overlay, scattered: bool| {
            (0..150)
                .map(|_| {
                    let initiator = overlay.random_node(rng).unwrap();
                    let mut f = ThaFactory::new(rng, initiator);
                    (0..3u8)
                        .map(|j| {
                            let s = if scattered {
                                let d = [0x2u8, 0xa, 0xe][j as usize];
                                let b = ArcRange::prefix_bucket(Id::ZERO.with_digit(0, 4, d), 1, 4);
                                f.next_in(rng, &b)
                            } else {
                                f.next_in(rng, &bucket)
                            };
                            store.insert(overlay, s.hopid, s.stored()).unwrap();
                            s.hopid
                        })
                        .collect::<Vec<Id>>()
                })
                .collect::<Vec<_>>()
        };
    let clustered = make(&mut rng, &mut store, &overlay, false);
    let scattered = make(&mut rng, &mut store, &overlay, true);
    println!(
        "clustered-in-region corruption: {:.4}",
        adv.corruption_rate(&store, &clustered)
    );
    println!(
        "scattered (distinct prefixes):  {:.4}",
        adv.corruption_rate(&store, &scattered)
    );
    println!("(scattering caps region-capture adversaries at one hop per region)");
}

fn ablation_refresh_period() {
    println!("\n=== ablation 5: tunnel refresh period under churn (§7.2) ===");
    println!("{:>16} {:>22}", "refresh every", "corruption after 20u");
    for period in [1usize, 2, 5, 10, usize::MAX] {
        let mut world = World::build(PastryConfig::with_replication(3), NODES, 17);
        let mut tunnels = world.deploy_tunnels(TUNNELS, 5);
        let adv = Collusion::mark_fraction(&world.overlay, &mut world.rng, 0.1);
        world.thas.watch(adv.members());
        for unit in 1..=20usize {
            for _ in 0..(NODES / 20) {
                let v = loop {
                    let v = world.random_node().unwrap();
                    if !adv.contains(v) {
                        break v;
                    }
                };
                world.leave(v, true);
                world.join();
            }
            if period != usize::MAX && unit % period == 0 {
                for (_, t) in &tunnels {
                    world.teardown(t.hops());
                }
                tunnels = world.deploy_tunnels(TUNNELS, 5);
            }
        }
        let hop_lists: Vec<Vec<Id>> = tunnels.iter().map(|(_, t)| t.hop_ids()).collect();
        let rate = adv.corruption_rate(&world.thas, &hop_lists);
        let label = if period == usize::MAX {
            "never".to_string()
        } else {
            format!("{period} units")
        };
        println!("{label:>16} {rate:>22.4}");
    }
    println!("(shorter refresh period → flatter knowledge accumulation)");
}

fn bench_ablations(c: &mut Criterion) {
    ablation_k_tradeoff();
    ablation_length_tradeoff();
    ablation_hint_staleness();
    ablation_scatter();
    ablation_refresh_period();

    // One timed kernel per ablation family.
    let mut group = c.benchmark_group("ablations");
    group.sample_size(15);

    let mut world = World::build(PastryConfig::with_replication(3), 400, 18);
    let tunnels = world.deploy_tunnels(150, 5);
    let hop_lists: Vec<Vec<Id>> = tunnels.iter().map(|(_, t)| t.hop_ids()).collect();
    let adv = Collusion::mark_fraction(&world.overlay, &mut world.rng, 0.1);
    world.thas.watch(adv.members());
    group.bench_function("corruption_history_eval", |b| {
        b.iter(|| adv.corruption_rate(&world.thas, &hop_lists))
    });

    let mut rng = StdRng::seed_from_u64(19);
    let node = Id::random(&mut rng);
    let mut factory = ThaFactory::new(&mut rng, node);
    let bucket = ArcRange::prefix_bucket(Id::ZERO.with_digit(0, 4, 0x3), 1, 4);
    group.bench_function("scattered_anchor_generation", |b| {
        b.iter(|| factory.next_in(&mut rng, &bucket).hopid)
    });
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
