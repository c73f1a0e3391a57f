//! Figure 3 — colluding malicious nodes (§7.2).
//!
//! "We again consider a 10^4 node network, where some of them are
//! malicious and in the same colluding set. We assume the system has 5,000
//! tunnels and randomly choose a fraction p of nodes that are malicious.
//! The tunnel length is 5 … the replication factor k is 3. We first
//! measure the fraction of tunnels that can be corrupted by malicious
//! nodes."
//!
//! Corruption is the paper's case 1: the collusion holds the THAs of every
//! hop of the tunnel (§6). The analytic overlay `(1-(1-p)^k)^l` makes the
//! independence assumption explicit.

use tap_core::{Collusion, Draws, Purpose, World};
use tap_pastry::PastryConfig;

use crate::engine::TrialPool;
use crate::experiments::apply_journal;
use crate::report::Series;
use crate::Scale;

/// Malicious fractions swept (the paper's x-axis).
pub const MALICIOUS_FRACTIONS: [f64; 6] = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30];

/// Independent collusion draws averaged per point.
const DRAWS: u64 = 5;

/// Run the experiment.
pub fn run(scale: &Scale) -> Series {
    let (k, l) = (3, 5);
    let draws = Draws::from(scale.seed ^ 0xF163);
    let mut world = World::build(PastryConfig::with_replication(k), scale.nodes, draws);
    let tunnels = world.deploy_tunnels(scale.tunnels, l);
    apply_journal(world.metrics(), scale);
    let hop_lists: Vec<_> = tunnels.iter().map(|(_, t)| t.hop_ids()).collect();

    let mut series = Series::new(
        "Fig. 3 — corrupted tunnels vs. fraction of malicious nodes (k=3, l=5)",
        "malicious_fraction",
        vec!["corrupted".into(), "analytic".into()],
    );

    // One trial per malicious fraction: collusion `d` draws from the
    // trial's collusion stream `d`, the world is shared read-only.
    let pool = TrialPool::new(scale, draws);
    let world_ref = &world;
    let rows = pool.run(MALICIOUS_FRACTIONS.to_vec(), |&p, draws| {
        let mut total = 0.0;
        for d in 0..DRAWS {
            let mut rng = draws.stream(Purpose::Collusion, d);
            let collusion = Collusion::mark_fraction(&world_ref.overlay, &mut rng, p);
            total += collusion.corruption_rate(&world_ref.thas, &hop_lists);
        }
        let analytic = (1.0 - (1.0 - p).powi(k as i32)).powi(l as i32);
        vec![total / DRAWS as f64, analytic]
    });
    for (&p, row) in MALICIOUS_FRACTIONS.iter().zip(rows) {
        series.push(p, row);
    }
    series.metrics_json = Some(world.metrics().snapshot().to_json());
    series
}
