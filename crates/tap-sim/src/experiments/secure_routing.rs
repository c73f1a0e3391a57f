//! Extension experiment — secure routing to a hopid (§9's open problem).
//!
//! Not a figure in the ICPP paper (which defers secure routing to the
//! authors' extended report); this experiment quantifies the three
//! mechanisms `tap-pastry::secure` provides, under both adversarial
//! forwarding behaviours:
//!
//! * **naive** — plain Pastry routing, one copy;
//! * **redundant** — fanout-8 copies scattered through random relays with
//!   the certified-id plausibility test;
//! * **iterative** — source-controlled lookup that ring-walks around
//!   unresponsive nodes.
//!
//! "Success" means reaching the closest *responsive* node to the key —
//! exactly the node that can serve a THA replica.

use rand::seq::IteratorRandom;

use tap_core::{Draws, Purpose, World};
use tap_id::Id;
use tap_pastry::secure::{
    adversarial_route, iterative_secure_lookup, redundant_route, AttemptOutcome, BehaviorMap,
    NodeBehavior,
};
use tap_pastry::{Overlay, PastryConfig};

use crate::engine::TrialPool;
use crate::report::Series;
use crate::Scale;

/// Malicious fractions swept.
pub const MALICIOUS_FRACTIONS: [f64; 5] = [0.05, 0.10, 0.20, 0.30, 0.40];

/// Redundant-routing fanout.
const FANOUT: usize = 8;

/// Trials per point.
const TRIALS: usize = 120;

/// Run the experiment for dropping adversaries (the harder case; against
/// misrouters the plausibility test alone is already decisive).
pub fn run(scale: &Scale) -> Series {
    let draws = Draws::from(scale.seed ^ 0x5EC);
    let world = World::build(PastryConfig::paper_defaults(), scale.nodes, draws);
    let metrics = world.metrics();
    super::apply_journal(metrics, scale);

    let mut series = Series::new(
        "Extension — secure routing success vs. malicious (dropping) fraction",
        "malicious_fraction",
        vec![
            "naive".into(),
            "redundant_f8".into(),
            "iterative".into(),
            "redundant_cost_hops".into(),
            "iterative_cost_queries".into(),
        ],
    );

    // One trial per malicious fraction: each clones the shared overlay
    // (the routing mechanisms take `&mut`) and records into a private
    // registry folded back in trial order. The clone is copy-on-write —
    // O(N) Arc bumps up front, and a trial pays full copies only for the
    // node handles its lazy table evictions actually touch.
    let pool = TrialPool::new(scale, draws);
    let overlay_ref = &world.overlay;
    let trials = pool.run(MALICIOUS_FRACTIONS.to_vec(), |&p, draws| {
        let trial_metrics = tap_metrics::Registry::new();
        super::apply_journal(&trial_metrics, scale);
        let mut overlay = overlay_ref.clone();
        overlay.use_metrics(trial_metrics.clone());
        let count = (overlay.len() as f64 * p).round() as usize;
        let behavior: BehaviorMap = overlay
            .ids()
            .choose_multiple(&mut draws.stream(Purpose::Collusion, 0), count)
            .into_iter()
            .map(|id| (id, NodeBehavior::Drop))
            .collect();

        let mut naive_ok = 0usize;
        let mut redundant_ok = 0usize;
        let mut iterative_ok = 0usize;
        let mut redundant_hops = 0usize;
        let mut iterative_queries = 0usize;
        for lookup in 0..TRIALS {
            let mut rng = draws.stream(Purpose::Pick, lookup as u64);
            let from = loop {
                let f = overlay.random_node(&mut rng).expect("non-empty");
                if !behavior.contains_key(&f) {
                    break f;
                }
            };
            let key = Id::random(&mut rng);
            let want = closest_responsive(&overlay, &behavior, key);

            if let AttemptOutcome::Claimed { root, .. } =
                adversarial_route(&mut overlay, &behavior, from, key).expect("routes")
            {
                if root == want {
                    naive_ok += 1;
                }
            }
            if let Ok(out) = redundant_route(&mut overlay, &behavior, &mut rng, from, key, FANOUT) {
                redundant_hops += out.total_hops;
                if out.root == want {
                    redundant_ok += 1;
                }
            }
            if let Ok(out) = iterative_secure_lookup(&mut overlay, &behavior, from, key, 200) {
                iterative_queries += out.queries;
                if out.root == want {
                    iterative_ok += 1;
                }
            }
        }
        let row = vec![
            naive_ok as f64 / TRIALS as f64,
            redundant_ok as f64 / TRIALS as f64,
            iterative_ok as f64 / TRIALS as f64,
            redundant_hops as f64 / TRIALS as f64,
            iterative_queries as f64 / TRIALS as f64,
        ];
        (row, trial_metrics)
    });
    for (&p, (row, trial_metrics)) in MALICIOUS_FRACTIONS.iter().zip(trials) {
        series.push(p, row);
        metrics.merge(&trial_metrics);
    }
    series.metrics_json = Some(metrics.snapshot().to_json());
    series
}

/// The closest node to `key` that answers queries (droppers excluded).
/// `closest_iter` walks the ring nearest-first lazily, so this stops after
/// ~1/(1-p) candidates instead of sorting the whole population per call.
fn closest_responsive(overlay: &Overlay, behavior: &BehaviorMap, key: Id) -> Id {
    overlay
        .closest_iter(key)
        .find(|n| !matches!(behavior.get(n), Some(NodeBehavior::Drop)))
        .expect("somebody is honest")
}
