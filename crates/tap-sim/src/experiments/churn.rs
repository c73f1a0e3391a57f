//! Figure 5 — THA accumulation under churn; refresh or decay (§7.2).
//!
//! "During each time unit, we simulate that a number of 100 benign nodes
//! leaves and then another set of 100 benign nodes joins the system. So
//! the fraction of malicious nodes p is kept on 0.1 after each time unit.
//! Then we measure the fraction of tunnels that are corrupted after each
//! time unit."
//!
//! The mechanism: when a benign replica holder leaves, the replication
//! manager re-replicates its THAs — sometimes onto a malicious node, which
//! pools the secret with the collusion *forever*. `unrefreshed` tunnels
//! therefore decay monotonically; `refreshed` tunnels (recreated every
//! unit) only ever expose one unit's worth of migrations.

use tap_core::tha::Tha;
use tap_core::{Collusion, Draws, Purpose, Tunnel, World};
use tap_id::Id;
use tap_pastry::storage::ReplicaStore;
use tap_pastry::PastryConfig;

use crate::engine::TrialPool;
use crate::experiments::apply_journal;
use crate::report::Series;
use crate::Scale;

/// Corruption rate over `lists`, sharded across the pool's workers. Churn
/// units are inherently sequential (each mutates the overlay), but the
/// per-tunnel scan inside a unit is embarrassingly parallel; exact counts
/// per shard sum to an order-independent total.
fn parallel_corruption_rate(
    pool: &TrialPool,
    collusion: &Collusion,
    thas: &ReplicaStore<Tha>,
    lists: &[Vec<Id>],
) -> f64 {
    if lists.is_empty() {
        return 0.0;
    }
    let chunk = lists.len().div_ceil(pool.threads());
    let shards: Vec<&[Vec<Id>]> = lists.chunks(chunk).collect();
    let counts = pool.run(shards, |shard, _| collusion.corrupted_count(thas, shard));
    counts.iter().sum::<usize>() as f64 / lists.len() as f64
}

/// Run the experiment.
pub fn run(scale: &Scale) -> Series {
    let (k, l) = (3, 5);
    let p = 0.1;
    let draws = Draws::from(scale.seed ^ 0xF165);
    let mut world = World::build(PastryConfig::with_replication(k), scale.nodes, draws);
    let unrefreshed = world.deploy_tunnels(scale.tunnels, l);
    apply_journal(world.metrics(), scale);

    // The collusion is fixed for the whole run; churn only moves benign
    // nodes ("malicious nodes instead can try to stay in system as long as
    // possible"). Its ledger starts now, before any replica has moved, so
    // it holds every THA a member was ever handed.
    let mut rng = world.stream(Purpose::Collusion);
    let collusion = Collusion::mark_fraction(&world.overlay, &mut rng, p);
    world.thas.watch(collusion.members());
    // `pick_benign` needs a benign node left for every leave of a unit;
    // the CLI rejects scales with `churn_per_unit > nodes / 2`, which
    // guarantees it.
    debug_assert!(
        scale.churn_per_unit <= world.overlay.len() - collusion.len(),
        "a unit's leaves would exhaust the benign nodes"
    );

    let unrefreshed_ids = hop_id_lists(&unrefreshed);
    let mut refreshed = world.deploy_tunnels(scale.tunnels, l);

    let mut series = Series::new(
        "Fig. 5 — corrupted tunnels over time under churn (k=3, l=5, p=0.1)",
        "time_unit",
        vec!["unrefreshed".into(), "refreshed".into()],
    );

    let pool = TrialPool::new(scale, draws);

    // t = 0: before any churn, both populations are at the static rate.
    series.push(
        0.0,
        vec![
            parallel_corruption_rate(&pool, &collusion, &world.thas, &unrefreshed_ids),
            parallel_corruption_rate(&pool, &collusion, &world.thas, &hop_id_lists(&refreshed)),
        ],
    );

    for unit in 1..=scale.churn_units {
        // 100 benign leaves, then 100 benign joins; replica repair runs
        // after each membership event, exactly as PAST's manager would.
        for _ in 0..scale.churn_per_unit {
            let victim = pick_benign(&mut world, &collusion);
            world.leave(victim, true);
        }
        for _ in 0..scale.churn_per_unit {
            world.join();
        }

        let unrefreshed_rate =
            parallel_corruption_rate(&pool, &collusion, &world.thas, &unrefreshed_ids);
        let refreshed_rate =
            parallel_corruption_rate(&pool, &collusion, &world.thas, &hop_id_lists(&refreshed));
        series.push(unit as f64, vec![unrefreshed_rate, refreshed_rate]);

        // Refresh: tear the refreshed population down and rebuild it.
        for (_, t) in &refreshed {
            world.teardown(t.hops());
        }
        refreshed = world.deploy_tunnels(scale.tunnels, l);
    }
    series.metrics_json = Some(world.metrics().snapshot().to_json());
    series
}

fn hop_id_lists(tunnels: &[(Id, Tunnel)]) -> Vec<Vec<Id>> {
    tunnels.iter().map(|(_, t)| t.hop_ids()).collect()
}

fn pick_benign(world: &mut World, collusion: &Collusion) -> Id {
    loop {
        let v = world.random_node().expect("overlay never empties");
        if !collusion.contains(v) {
            return v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_is_conserved() {
        // The churn loop swaps equal numbers in and out.
        let scale = crate::cli::parse_line("fig5 --preset tiny").unwrap().scale;
        let world = World::build(PastryConfig::with_replication(3), scale.nodes, 1);
        assert_eq!(world.overlay.len(), scale.nodes);
        let _ = run(&scale); // would panic internally if the ring emptied
    }
}
