//! Figure 4 — the anonymity knobs (§7.2).
//!
//! (a) corruption vs. replication factor `k` (p = 0.1, l = 5): "a bigger
//! replication factor allows malicious nodes to be able to learn more
//! THAs"; (b) corruption vs. tunnel length `l` (p = 0.1, k = 3): "the
//! fraction decreases with the increasing tunnel length, and the tunnel
//! length of 5 catches the knee of the curve."

use tap_core::{Collusion, Draws, Purpose, World};
use tap_id::Id;
use tap_metrics::Registry;
use tap_pastry::PastryConfig;

use crate::engine::TrialPool;
use crate::experiments::apply_journal;
use crate::report::Series;
use crate::Scale;

/// Replication factors swept in Fig. 4(a). Bounded above by the leaf-set
/// reach (k ≤ |L|/2 + 1 with the paper's |L| = 16).
pub const REPLICATION_FACTORS: [usize; 7] = [1, 2, 3, 4, 5, 6, 8];

/// Tunnel lengths swept in Fig. 4(b).
pub const TUNNEL_LENGTHS: [usize; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Malicious fraction held fixed ("the value of p is fixed to be 0.1").
pub const P_MALICIOUS: f64 = 0.1;

/// Independent collusion draws averaged per point.
const DRAWS: u64 = 5;

/// Fig. 4(a): corruption vs. replication factor.
pub fn by_replication(scale: &Scale) -> Series {
    let l = 5;
    // Build once at k=3, then re-replicate the same hopids at each k.
    let draws = Draws::from(scale.seed ^ 0xF164A);
    let mut world = World::build(PastryConfig::with_replication(3), scale.nodes, draws);
    let tunnels = world.deploy_tunnels(scale.tunnels, l);
    apply_journal(world.metrics(), scale);
    let hop_lists: Vec<Vec<Id>> = tunnels.iter().map(|(_, t)| t.hop_ids()).collect();

    let mut series = Series::new(
        "Fig. 4(a) — corrupted tunnels vs. replication factor (p=0.1, l=5)",
        "replication_factor",
        vec!["corrupted".into(), "analytic".into()],
    );

    // One trial per replication factor: each rebuilds its own store over
    // the shared hopids and records into a private registry.
    let pool = TrialPool::new(scale, draws);
    let world_ref = &world;
    let trials = pool.run(REPLICATION_FACTORS.to_vec(), |&k, draws| {
        let trial_metrics = Registry::new();
        apply_journal(&trial_metrics, scale);
        let store = world_ref.thas_replicated(k, &trial_metrics);
        let mut total = 0.0;
        for d in 0..DRAWS {
            let mut rng = draws.stream(Purpose::Collusion, d);
            let collusion = Collusion::mark_fraction(&world_ref.overlay, &mut rng, P_MALICIOUS);
            total += collusion.corruption_rate(&store, &hop_lists);
        }
        let analytic = (1.0 - (1.0 - P_MALICIOUS).powi(k as i32)).powi(l as i32);
        (vec![total / DRAWS as f64, analytic], trial_metrics)
    });
    for (&k, (row, trial_metrics)) in REPLICATION_FACTORS.iter().zip(trials) {
        series.push(k as f64, row);
        world.metrics().merge(&trial_metrics);
    }
    series.metrics_json = Some(world.metrics().snapshot().to_json());
    series
}

/// Fig. 4(b): corruption vs. tunnel length.
pub fn by_length(scale: &Scale) -> Series {
    let k = 3;
    let mut series = Series::new(
        "Fig. 4(b) — corrupted tunnels vs. tunnel length (p=0.1, k=3)",
        "tunnel_length",
        vec!["corrupted".into(), "analytic".into()],
    );

    // One overlay reused across lengths; fresh tunnels per length on a
    // fork of it, each length an independent trial on its own draws.
    let draws = Draws::from(scale.seed ^ 0xF164B);
    let world = World::build(PastryConfig::with_replication(k), scale.nodes, draws);
    apply_journal(world.metrics(), scale);
    let pool = TrialPool::new(scale, draws);
    let trials = pool.run(TUNNEL_LENGTHS.to_vec(), |&l, draws| {
        let trial_metrics = Registry::new();
        apply_journal(&trial_metrics, scale);
        let mut trial = world.fork(draws, &trial_metrics);
        let tunnels = trial.deploy_tunnels(scale.tunnels, l);
        let hop_lists: Vec<Vec<Id>> = tunnels.iter().map(|(_, t)| t.hop_ids()).collect();
        let mut total = 0.0;
        for _ in 0..DRAWS {
            let mut rng = trial.stream(Purpose::Collusion);
            let collusion = Collusion::mark_fraction(&trial.overlay, &mut rng, P_MALICIOUS);
            total += collusion.corruption_rate(&trial.thas, &hop_lists);
        }
        let analytic = (1.0 - (1.0 - P_MALICIOUS).powi(k as i32)).powi(l as i32);
        (vec![total / DRAWS as f64, analytic], trial_metrics)
    });
    for (&l, (row, trial_metrics)) in TUNNEL_LENGTHS.iter().zip(trials) {
        series.push(l as f64, row);
        world.metrics().merge(&trial_metrics);
    }
    series.metrics_json = Some(world.metrics().snapshot().to_json());
    series
}
