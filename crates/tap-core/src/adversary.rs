//! The colluding-adversary model (§6, §7.2).
//!
//! The adversary "operates a portion of nodes which collude with each
//! other"; any THA replica handed to a malicious node is pooled with the
//! whole collusion, forever. The paper analyses two corruption cases:
//!
//! * **Case 1** — the collusion holds "the THAs for all the hops following
//!   the initiator along a tunnel": it can peel every layer itself and read
//!   the route end to end.
//! * **Case 2** — the collusion controls at least the first and the tail
//!   tunnel hop node and correlates them by timing analysis. The paper
//!   argues this attack is weak (the first hop cannot know it is first)
//!   and focuses the evaluation on case 1; we implement both, defaulting
//!   to case 1 exactly as §7 does.
//!
//! "Forever" lives in the THA store's exposure ledger, where the replica
//! hand-offs happen: for Fig. 5's churn attack a caller runs
//! `thas.watch(collusion.members())` right after deploying, and every
//! question below then also counts the THAs a member was ever handed.
//! Without a ledger only current holders count.

use rand::seq::IteratorRandom;
use rand::Rng;
use tap_id::{Id, IdHashSet};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::Overlay;

use crate::tha::Tha;

/// A set of colluding malicious nodes.
#[derive(Debug, Clone, Default)]
pub struct Collusion {
    members: IdHashSet,
}

impl Collusion {
    /// An empty collusion.
    pub fn new() -> Self {
        Collusion::default()
    }

    /// Mark a specific node malicious.
    pub fn insert(&mut self, node: Id) {
        self.members.insert(node);
    }

    /// Corrupt a uniformly random fraction `p` of the overlay's current
    /// nodes (the paper "randomly choose\[s\] a fraction p of nodes that are
    /// malicious").
    pub fn mark_fraction<R: Rng + ?Sized>(overlay: &Overlay, rng: &mut R, p: f64) -> Collusion {
        assert!((0.0..=1.0).contains(&p), "fraction out of range");
        let count = ((overlay.len() as f64) * p).round() as usize;
        let members = overlay.ids().choose_multiple(rng, count);
        Collusion {
            members: members.into_iter().collect(),
        }
    }

    /// Whether `node` is malicious.
    pub fn contains(&self, node: Id) -> bool {
        self.members.contains(&node)
    }

    /// Number of malicious nodes.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the collusion is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Iterate over the malicious nodes.
    pub fn members(&self) -> impl Iterator<Item = Id> + '_ {
        self.members.iter().copied()
    }

    /// Whether the collusion knows the THA anchored at `hopid`: a member
    /// holds a replica now, or `thas`' exposure ledger says one was handed
    /// to a watched node ([`ReplicaStore::watch`]; Fig. 5's churn attack,
    /// "malicious nodes can take advantage of the leaves of other nodes to
    /// learn more THAs"). A store without a ledger answers for current
    /// holders only, which is the whole story in the static Fig. 3/4
    /// setting, where replica sets never move.
    pub fn knows_tha(&self, thas: &ReplicaStore<Tha>, hopid: Id) -> bool {
        thas.exposed(hopid) || thas.holders(hopid).iter().any(|h| self.members.contains(h))
    }

    /// Case 1: the collusion can trace the tunnel because it knows the THA
    /// of **every** hop (§6, §7.2 — the corruption criterion behind
    /// Figures 3, 4, and 5).
    pub(crate) fn corrupts_case1(&self, thas: &ReplicaStore<Tha>, hop_ids: &[Id]) -> bool {
        !hop_ids.is_empty() && hop_ids.iter().all(|h| self.knows_tha(thas, *h))
    }

    /// Case 2: the collusion controls the current first *and* tail tunnel
    /// hop nodes and can attempt end-to-end timing analysis (§6; evaluated
    /// only as an ablation, as in the paper).
    pub fn corrupts_case2(&self, overlay: &Overlay, hop_ids: &[Id]) -> bool {
        let (Some(first), Some(last)) = (hop_ids.first(), hop_ids.last()) else {
            return false;
        };
        let first_node = overlay.owner_of(*first);
        let tail_node = overlay.owner_of(*last);
        matches!((first_node, tail_node), (Some(f), Some(t))
            if self.members.contains(&f) && self.members.contains(&t))
    }

    /// Number of `tunnels` (given as hop-id lists) corrupted under case 1
    /// — the numerator of [`Collusion::corruption_rate`], exposed so
    /// callers can shard a scan across threads and sum the exact counts.
    pub fn corrupted_count(&self, thas: &ReplicaStore<Tha>, tunnels: &[Vec<Id>]) -> usize {
        tunnels
            .iter()
            .filter(|t| self.corrupts_case1(thas, t))
            .count()
    }

    /// Fraction of `tunnels` (given as hop-id lists) corrupted under
    /// case 1 — the quantity every anonymity figure plots.
    pub fn corruption_rate(&self, thas: &ReplicaStore<Tha>, tunnels: &[Vec<Id>]) -> f64 {
        if tunnels.is_empty() {
            return 0.0;
        }
        self.corrupted_count(thas, tunnels) as f64 / tunnels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use tap_pastry::PastryConfig;

    fn fixture(n: usize, k: usize, seed: u64) -> World {
        World::build(PastryConfig::with_replication(k), n, seed)
    }

    fn deploy(fx: &mut World, count: usize) -> Vec<Id> {
        let node = fx.random_node().unwrap();
        let hops = fx.fresh_hops(node, count).unwrap();
        hops.iter().map(|s| s.hopid).collect()
    }

    #[test]
    fn mark_fraction_sizes() {
        let fx = &mut fixture(200, 3, 1);
        let c = Collusion::mark_fraction(&fx.overlay, &mut fx.rng, 0.1);
        assert_eq!(c.len(), 20);
        assert!(c.members().all(|m| fx.overlay.is_live(m)));
        let none = Collusion::mark_fraction(&fx.overlay, &mut fx.rng, 0.0);
        assert!(none.is_empty());
    }

    #[test]
    fn knows_tha_via_current_holder() {
        let fx = &mut fixture(150, 3, 2);
        let hops = deploy(fx, 1);
        let holder = fx.thas.holders(hops[0])[1];
        let mut c = Collusion::new();
        assert!(!c.knows_tha(&fx.thas, hops[0]));
        c.insert(holder);
        assert!(c.knows_tha(&fx.thas, hops[0]));
    }

    #[test]
    fn history_knowledge_survives_replica_migration() {
        let fx = &mut fixture(150, 3, 3);
        let hops = deploy(fx, 1);
        let hop = hops[0];
        let malicious = fx.thas.holders(hop)[0];
        let mut c = Collusion::new();
        c.insert(malicious);
        let mut unwatched = fx.thas.clone();
        fx.thas.watch(c.members());
        // The malicious holder leaves; the replica migrates away.
        fx.overlay.remove_node(malicious);
        fx.thas.on_node_removed(&fx.overlay, malicious);
        unwatched.on_node_removed(&fx.overlay, malicious);
        assert!(
            !fx.thas.holders(hop).contains(&malicious),
            "replica moved on"
        );
        assert!(
            !c.knows_tha(&unwatched, hop),
            "current-holders view forgets"
        );
        assert!(c.knows_tha(&fx.thas, hop), "the ledger never forgets");
    }

    #[test]
    fn case1_requires_every_hop() {
        let fx = &mut fixture(200, 3, 4);
        let hops = deploy(fx, 5);
        let mut c = Collusion::new();
        // Know 4 of 5 hops: not corrupted.
        for h in &hops[..4] {
            c.insert(fx.thas.holders(*h)[0]);
        }
        assert!(!c.corrupts_case1(&fx.thas, &hops));
        c.insert(fx.thas.holders(hops[4])[0]);
        assert!(c.corrupts_case1(&fx.thas, &hops));
    }

    #[test]
    fn case2_first_and_tail() {
        let fx = &mut fixture(200, 3, 5);
        let hops = deploy(fx, 5);
        let first_node = fx.overlay.owner_of(hops[0]).unwrap();
        let tail_node = fx.overlay.owner_of(hops[4]).unwrap();
        let mut c = Collusion::new();
        c.insert(first_node);
        assert!(
            !c.corrupts_case2(&fx.overlay, &hops),
            "first alone is not enough"
        );
        c.insert(tail_node);
        assert!(c.corrupts_case2(&fx.overlay, &hops));
    }

    #[test]
    fn corruption_rate_statistics_match_closed_form() {
        // For hop THAs replicated on k nodes with malicious fraction p,
        // P(hop known) = 1 - (1-p)^k and P(tunnel corrupted) = that^l.
        // Check the measured rate against the analytic value — this is the
        // analytic skeleton of Figures 3 and 4.
        let fx = &mut fixture(2000, 3, 6);
        let c = Collusion::mark_fraction(&fx.overlay, &mut fx.rng, 0.3);
        let l = 2; // short tunnels keep the probability measurable
        let tunnels: Vec<Vec<Id>> = (0..400).map(|_| deploy(fx, l)).collect();
        let rate = c.corruption_rate(&fx.thas, &tunnels);
        let p_hop = 1.0 - 0.7f64.powi(3);
        let expect = p_hop.powi(l as i32);
        assert!(
            (rate - expect).abs() < 0.08,
            "measured {rate:.3} vs analytic {expect:.3}"
        );
    }

    #[test]
    fn empty_inputs() {
        let fx = &mut fixture(50, 3, 7);
        let c = Collusion::mark_fraction(&fx.overlay, &mut fx.rng, 0.5);
        assert!(!c.corrupts_case1(&fx.thas, &[]));
        assert!(!c.corrupts_case2(&fx.overlay, &[]));
        assert_eq!(c.corruption_rate(&fx.thas, &[]), 0.0);
        fx.thas.watch(c.members());
        assert!(!c.knows_tha(&fx.thas, Id::from_u64(1)), "unknown hop");
    }
}
