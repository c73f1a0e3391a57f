//! Auditing anonymity against a colluding adversary.
//!
//! ```text
//! cargo run --release --example anonymity_audit
//! ```
//!
//! Plays the §6 threat model: an adversary controlling a fraction of nodes
//! pools every THA replica it is handed and tries to trace tunnels
//! (corruption case 1), or to sit on both ends of one (case 2). Prints how
//! the two TAP knobs — replication factor and tunnel length — move the
//! attack surface, and what periodic refresh buys under churn.

use tap::core::adversary::Collusion;
use tap::core::tha::{Tha, ThaFactory};
use tap::id::Id;
use tap::pastry::storage::ReplicaStore;
use tap::pastry::{Overlay, PastryConfig};

use rand::rngs::StdRng;
use rand::SeedableRng;

const NODES: usize = 2_000;
const TUNNELS: usize = 1_000;
const P_MALICIOUS: f64 = 0.1;

fn main() {
    let mut rng = StdRng::seed_from_u64(99);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..NODES {
        overlay.add_random_node(&mut rng);
    }
    let collusion = Collusion::mark_fraction(&overlay, &mut rng, P_MALICIOUS);
    println!(
        "{} nodes, {} colluding ({}%)\n",
        NODES,
        collusion.len(),
        (P_MALICIOUS * 100.0) as u32
    );

    println!("corruption (case 1) vs. the two anonymity knobs:");
    println!(
        "{:>3} {:>3} {:>12} {:>12}",
        "k", "l", "measured", "analytic"
    );
    for &(k, l) in &[(1usize, 5usize), (3, 5), (5, 5), (3, 1), (3, 3), (3, 8)] {
        let mut store: ReplicaStore<Tha> = ReplicaStore::new(k);
        let tunnels = make_tunnels(&overlay, &mut store, &mut rng, TUNNELS, l);
        let rate = collusion.corruption_rate(&store, &tunnels);
        let analytic = (1.0 - (1.0 - P_MALICIOUS).powi(k as i32)).powi(l as i32);
        println!("{k:>3} {l:>3} {rate:>12.4} {analytic:>12.4}");
    }

    // Case 2 (first + tail hop node controlled): the paper argues this is
    // weak because the first hop cannot know it is first; measure its raw
    // frequency anyway.
    let mut store: ReplicaStore<Tha> = ReplicaStore::new(3);
    let tunnels = make_tunnels(&overlay, &mut store, &mut rng, TUNNELS, 5);
    let case2 = tunnels
        .iter()
        .filter(|t| collusion.corrupts_case2(&overlay, t))
        .count() as f64
        / tunnels.len() as f64;
    println!(
        "\ncase 2 (first+tail node malicious): {case2:.4}  (analytic p² = {:.4})",
        P_MALICIOUS * P_MALICIOUS
    );

    // Churn decay: how much the adversary gains from replica migrations,
    // and what refreshing every 5 units recovers.
    println!("\nknowledge accumulation under churn (k=3, l=5, 2% churn/unit):");
    println!("{:>5} {:>12} {:>16}", "unit", "stale", "refreshed@5");
    // The ledger starts before any replica moves, so it holds every THA a
    // colluding node was ever handed; the refreshed copy inherits it.
    store.watch(collusion.members());
    let mut refreshed = tunnels.clone();
    let mut refreshed_store = store.clone();
    for unit in 1..=20 {
        for _ in 0..(NODES / 50) {
            let victim = loop {
                let v = overlay.random_node(&mut rng).unwrap();
                if !collusion.contains(v) {
                    break v;
                }
            };
            overlay.remove_node(victim);
            store.on_node_removed(&overlay, victim);
            refreshed_store.on_node_removed(&overlay, victim);
            let joined = overlay.add_random_node(&mut rng);
            store.on_node_added(&overlay, joined);
            refreshed_store.on_node_added(&overlay, joined);
        }
        if unit % 5 == 0 {
            // Refresh: retire and re-deploy the refreshed population.
            for t in &refreshed {
                for h in t {
                    refreshed_store.remove(*h);
                }
            }
            refreshed = make_tunnels(&overlay, &mut refreshed_store, &mut rng, TUNNELS, 5);
        }
        println!(
            "{unit:>5} {:>12.4} {:>16.4}",
            collusion.corruption_rate(&store, &tunnels),
            collusion.corruption_rate(&refreshed_store, &refreshed),
        );
    }
    println!("\nconclusion: refresh your tunnels (§7.2, Fig. 5).");
}

fn make_tunnels(
    overlay: &Overlay,
    store: &mut ReplicaStore<Tha>,
    rng: &mut StdRng,
    count: usize,
    l: usize,
) -> Vec<Vec<Id>> {
    (0..count)
        .map(|_| {
            let initiator = overlay.random_node(rng).unwrap();
            let mut factory = ThaFactory::new(rng, initiator);
            let mut hops = Vec::with_capacity(l);
            while hops.len() < l {
                let s = factory.next(rng);
                if store
                    .insert(overlay, s.hopid, s.stored())
                    .expect("overlay is non-empty")
                {
                    hops.push(s.hopid);
                }
            }
            hops
        })
        .collect()
}
