//! Figure 2 — simultaneous node failures/leaves (§7.1).
//!
//! "We consider a 10^4 node network that forms 5,000 tunnels, and randomly
//! choose a fraction p of nodes that fail/leave. After node
//! failures/leaves, we measure the fraction of tunnels that could not
//! function. … the tunnel length is 5."
//!
//! Three curves: the fixed-node *current tunneling* baseline, TAP with
//! k = 3, and TAP with k = 5. A TAP tunnel functions iff every hop still
//! has a live THA replica holder (the post-failure root of the hopid is
//! then guaranteed to be one of them — proven by the transit layer and
//! spot-checked here end-to-end); a baseline tunnel functions iff every
//! relay node survived ([`FixedTunnel::intact`]).

use rand::seq::IteratorRandom;

use tap_core::transit::{self, TransitError, TransitOptions};
use tap_core::tunnel::Tunnel;
use tap_core::wire::Destination;
use tap_core::{Draws, FixedTunnel, Purpose, World};
use tap_id::{Id, IdHashSet};
use tap_metrics::Registry;
use tap_pastry::storage::ReplicaStore;
use tap_pastry::PastryConfig;

use crate::engine::TrialPool;
use crate::experiments::apply_journal;
use crate::report::Series;
use crate::Scale;

/// Failure fractions swept (the paper's x-axis).
pub const FAILURE_FRACTIONS: [f64; 10] =
    [0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50];

/// Tunnel length of all three curves (the paper's 5): each baseline
/// tunnel draws this many fixed relays apart from its initiator, so the
/// experiment needs more nodes than this (the CLI checks it).
pub const BASELINE_RELAYS: usize = 5;

/// How many tunnels per point get the full cryptographic transit check on
/// a cloned overlay (agreement with the membership predicate is asserted).
const SPOT_CHECKS: usize = 25;

/// Run the experiment.
pub fn run(scale: &Scale) -> Series {
    let l = BASELINE_RELAYS;
    // One overlay and one set of hopids; two stores at k=3 and k=5 so the
    // curves compare the replication factor on identical tunnels.
    let draws = Draws::from(scale.seed ^ 0xF162);
    let mut world = World::build(PastryConfig::with_replication(3), scale.nodes, draws);
    let tunnels = world.deploy_tunnels(scale.tunnels, l);
    apply_journal(world.metrics(), scale);
    let thas_k5 = world.thas_replicated(5, world.metrics());

    // Baseline: fixed-node tunnels of the same length, same initiators.
    // One needs `l` nodes besides its initiator, which the CLI guarantees;
    // a tunnel that could not form stays in line with `tunnels` as `None`
    // and counts as failed.
    let baselines: Vec<Option<FixedTunnel>> = tunnels
        .iter()
        .map(|(owner, _)| {
            let mut rng = world.stream(Purpose::Formation);
            FixedTunnel::form_random(&mut rng, &world.overlay, *owner, l)
        })
        .collect();

    let mut series = Series::new(
        "Fig. 2 — failed tunnels vs. fraction of failed nodes (N nodes, 5-hop tunnels)",
        "failed_fraction",
        vec![
            "current_tunneling".into(),
            "tap_k3".into(),
            "tap_k5".into(),
            "analytic_current".into(),
            "analytic_k3".into(),
            "analytic_k5".into(),
        ],
    );

    let all_ids: Vec<Id> = world.overlay.ids().collect();

    // One trial per swept failure fraction. Trials read the shared world
    // and draw their dead sets from their own keyed streams, so the sweep
    // parallelizes with bit-identical results at any thread count.
    let pool = TrialPool::new(scale, draws);
    let (world_ref, tunnels_ref) = (&world, &tunnels);
    let trials = pool.run(
        FAILURE_FRACTIONS.to_vec(),
        |&p, draws| -> (Vec<f64>, Registry) {
            let trial_metrics = Registry::new();
            apply_journal(&trial_metrics, scale);
            let dead_count = ((scale.nodes as f64) * p).round() as usize;
            let dead: IdHashSet = all_ids
                .iter()
                .copied()
                .choose_multiple(&mut draws.stream(Purpose::Failures, 0), dead_count)
                .into_iter()
                .collect();

            let mut surveyed = 0usize;
            let mut base_failed = 0usize;
            let mut k3_failed = 0usize;
            let mut k5_failed = 0usize;
            for ((owner, t), baseline) in tunnels_ref.iter().zip(baselines.iter()) {
                if dead.contains(owner) {
                    continue; // the user is gone; its tunnel is moot, not failed
                }
                surveyed += 1;
                let is_live = |n: Id| !dead.contains(&n);
                if !baseline.as_ref().is_some_and(|b| b.intact(is_live)) {
                    base_failed += 1;
                }
                if tunnel_broken(&world_ref.thas, t.hop_ids().as_slice(), &dead) {
                    k3_failed += 1;
                }
                if tunnel_broken(&thas_k5, t.hop_ids().as_slice(), &dead) {
                    k5_failed += 1;
                }
            }

            spot_check_with_transit(world_ref, tunnels_ref, &trial_metrics, &dead, draws);

            let n = surveyed.max(1) as f64;
            let row = vec![
                base_failed as f64 / n,
                k3_failed as f64 / n,
                k5_failed as f64 / n,
                1.0 - (1.0 - p).powi(l as i32),
                1.0 - (1.0 - p.powi(3)).powi(l as i32),
                1.0 - (1.0 - p.powi(5)).powi(l as i32),
            ];
            (row, trial_metrics)
        },
    );
    for (&p, (row, trial_metrics)) in FAILURE_FRACTIONS.iter().zip(trials) {
        series.push(p, row);
        world.metrics().merge(&trial_metrics);
    }
    series.metrics_json = Some(world.metrics().snapshot().to_json());
    series
}

/// A TAP tunnel is broken iff some hop lost *every* replica holder.
pub fn tunnel_broken(
    thas: &ReplicaStore<tap_core::tha::Tha>,
    hop_ids: &[Id],
    dead: &IdHashSet,
) -> bool {
    hop_ids
        .iter()
        .any(|h| thas.holders(*h).iter().all(|holder| dead.contains(holder)))
}

/// Drive a subsample of tunnels through real onion transit on a cloned
/// overlay with the dead set actually removed, and assert the result
/// agrees with [`tunnel_broken`]. Keeps the fast predicate honest.
///
/// Reads the shared world only; the overlay clone records into the
/// trial's private registry so parallel trials never contend. Tunnel `i`'s
/// probe key and onion draw from the trial's flow stream `i`.
fn spot_check_with_transit(
    world: &World,
    tunnels: &[(Id, Tunnel)],
    trial_metrics: &Registry,
    dead: &IdHashSet,
    draws: Draws,
) {
    // Copy-on-write: the clone shares every node handle with the world's
    // overlay, so this costs O(N) pointer bumps and the sweep point pays
    // only for the nodes the batch removal below actually repairs.
    let mut overlay = world.overlay.clone();
    overlay.use_metrics(trial_metrics.clone());
    // Sorted removal: HashSet iteration order varies per instance, and the
    // repair work each removal triggers must not. The batch API detaches
    // the whole dead set first and repairs each survivor exactly once.
    let mut dead_sorted: Vec<Id> = dead.iter().copied().collect();
    dead_sorted.sort();
    overlay.remove_nodes(&dead_sorted);
    for (flow, (owner, tunnel)) in tunnels.iter().take(SPOT_CHECKS).enumerate() {
        if dead.contains(owner) {
            continue;
        }
        let mut rng = draws.stream(Purpose::Flow, flow as u64);
        let probe = Destination::KeyRoot(Id::random(&mut rng));
        let onion = tunnel.build_onion(&mut rng, probe, b"fig2-probe", None);
        let outcome = transit::drive(
            &mut overlay,
            &world.thas,
            *owner,
            tunnel.entry_hopid(),
            onion,
            TransitOptions::default(),
        );
        let predicted_broken = tunnel_broken(&world.thas, &tunnel.hop_ids(), dead);
        match outcome {
            Ok(_) => assert!(
                !predicted_broken,
                "transit succeeded but predicate says broken"
            ),
            Err(TransitError::ThaLost { .. }) => assert!(
                predicted_broken,
                "transit lost a THA but predicate says intact"
            ),
            Err(e) => panic!("unexpected transit failure in spot check: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tunnel_broken_predicate() {
        let mut world = World::build(PastryConfig::with_replication(3), 150, 3);
        let (_, t) = world.deploy_tunnels(5, 3).swap_remove(0);
        let thas = &world.thas;
        let mut dead = IdHashSet::default();
        assert!(!tunnel_broken(thas, &t.hop_ids(), &dead));
        // Kill every holder of the first hop.
        for h in thas.holders(t.hop_ids()[0]) {
            dead.insert(*h);
        }
        assert!(tunnel_broken(thas, &t.hop_ids(), &dead));
        // One survivor rescues the hop.
        let revived = *thas.holders(t.hop_ids()[0]).first().unwrap();
        dead.remove(&revived);
        assert!(!tunnel_broken(thas, &t.hop_ids(), &dead));
    }
}
