//! The substrate abstraction: what TAP actually requires of a structured
//! overlay.
//!
//! The paper: "we take Pastry/PAST as an example for structured P2P
//! systems. However, we believe that our tunneling approach can be easily
//! adapted to other systems [Chord, CAN, Tapestry, CFS, OceanStore]"
//! (§3). [`KeyRouter`] pins down the exact interface that belief rests
//! on — everything the THA store and the tunnel transit consume:
//!
//! * a *responsibility* function ([`KeyRouter::owner_of`]): which live
//!   node currently serves a key (numerically closest node in Pastry,
//!   successor in Chord);
//! * a *replica set* ([`KeyRouter::replica_set`]): the `k` live nodes a
//!   key's object is stored on, ordered so that index 0 is the
//!   responsible node and the failure of a prefix of the list promotes
//!   the next entry — the property TAP's hop failover needs;
//! * *decentralized routing* ([`KeyRouter::route_path`]) that converges
//!   on `owner_of(key)` using per-node state;
//! * ring neighbourhood views used by replica migration.
//!
//! `tap-core` is written against this trait; `tap-pastry::Overlay`
//! implements it here and the `tap-chord` crate implements it for a
//! from-scratch Chord, which is the portability demonstration.

use std::ops::Bound;

use tap_id::Id;

use crate::overlay::{Overlay, RouteError};

/// The overlay interface TAP builds on. See the module docs for the
/// contract each method carries.
pub trait KeyRouter {
    /// Whether `node` is currently a live member.
    fn is_live(&self, node: Id) -> bool;

    /// The live node currently responsible for `key`, if any.
    fn owner_of(&self, key: Id) -> Option<Id>;

    /// The ordered replica set for `key`: the responsible node first, then
    /// the nodes that take over (in order) as earlier entries fail —
    /// `k.min(node_count())` of them.
    fn replica_set(&self, key: Id, k: usize) -> Vec<Id>;

    /// The replica sets of `keys`, in order, appended to `out`, each
    /// exactly what [`KeyRouter::replica_set`] gives for its key. Replica
    /// repair asks for the keys of a whole ring arc at once, in clockwise
    /// order, so a substrate can answer from one walk of its ring; this
    /// body asks for one set a key.
    fn replica_sets(&self, keys: &[Id], k: usize, out: &mut Vec<Id>) {
        for &key in keys {
            out.extend(self.replica_set(key, k));
        }
    }

    /// Up to `n` live nodes following `from` in responsibility order
    /// (exclusive), appended to `out`. Used by replica migration.
    fn following(&self, from: Id, n: usize, out: &mut Vec<Id>);

    /// Up to `n` live nodes preceding `from` (exclusive), appended to `out`.
    fn preceding(&self, from: Id, n: usize, out: &mut Vec<Id>);

    /// Route `key` from `from` using per-node state; returns the node path
    /// (source first, responsible node last). `&mut self` because routing
    /// may repair stale per-node state along the way.
    fn route_path(&mut self, from: Id, key: Id) -> Result<Vec<Id>, RouteError>;

    /// Number of live nodes.
    fn node_count(&self) -> usize;
}

/// Copy-on-write snapshot support for a substrate: save the membership
/// state in O(nodes) pointer bumps, mutate freely, restore later. Kept
/// separate from [`KeyRouter`] (which stays object-safe — it is used as
/// `dyn KeyRouter`) because of the associated checkpoint type.
///
/// The contract, pinned down by the snapshot proptests in both overlay
/// crates: after `rollback(cp)` the substrate routes exactly like a deep
/// copy taken at `checkpoint()` time, and two live snapshots never
/// observe each other's writes.
pub trait Snapshots {
    /// Opaque saved state handle.
    type Checkpoint;

    /// Save the current membership state (cheap: structural sharing, no
    /// per-node routing state is copied).
    fn checkpoint(&self) -> Self::Checkpoint;

    /// Restore a saved state, discarding every membership mutation made
    /// since the checkpoint. Metrics wiring is untouched.
    fn rollback(&mut self, cp: &Self::Checkpoint);
}

impl Snapshots for Overlay {
    type Checkpoint = crate::overlay::OverlayCheckpoint;

    fn checkpoint(&self) -> Self::Checkpoint {
        Overlay::checkpoint(self)
    }

    fn rollback(&mut self, cp: &Self::Checkpoint) {
        Overlay::rollback(self, cp)
    }
}

impl KeyRouter for Overlay {
    fn is_live(&self, node: Id) -> bool {
        Overlay::is_live(self, node)
    }

    fn owner_of(&self, key: Id) -> Option<Id> {
        Overlay::owner_of(self, key)
    }

    fn replica_set(&self, key: Id, k: usize) -> Vec<Id> {
        Overlay::k_closest(self, key, k)
    }

    fn replica_sets(&self, keys: &[Id], k: usize, out: &mut Vec<Id>) {
        Overlay::replica_sets(self, keys, k, out)
    }

    fn following(&self, from: Id, n: usize, out: &mut Vec<Id>) {
        out.extend(self.ring().clockwise(Bound::Excluded(from)).take(n))
    }

    fn preceding(&self, from: Id, n: usize, out: &mut Vec<Id>) {
        out.extend(self.ring().counter_clockwise(Bound::Excluded(from)).take(n))
    }

    fn route_path(&mut self, from: Id, key: Id) -> Result<Vec<Id>, RouteError> {
        Overlay::route(self, from, key).map(|o| o.path)
    }

    fn node_count(&self) -> usize {
        Overlay::len(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PastryConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Exercise the Overlay through the trait object surface, exactly as a
    // substrate-generic caller would.
    fn build(n: usize, seed: u64) -> (Overlay, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ov = Overlay::new(PastryConfig::paper_defaults());
        for _ in 0..n {
            ov.add_random_node(&mut rng);
        }
        (ov, rng)
    }

    #[test]
    fn trait_surface_matches_inherent_methods() {
        let (mut ov, mut rng) = build(120, 1);
        let key = Id::random(&mut rng);
        let via_inherent = ov.owner_of(key);
        let router: &mut dyn KeyRouter = &mut ov;
        assert_eq!(router.owner_of(key), via_inherent);
        assert_eq!(router.node_count(), 120);
        let path = router.route_path(Id::ZERO, key);
        // Id::ZERO is (astronomically likely) not a member.
        assert!(path.is_err());
        let src = ov.random_node(&mut rng).unwrap();
        let router: &mut dyn KeyRouter = &mut ov;
        let path = router.route_path(src, key).unwrap();
        assert_eq!(*path.last().unwrap(), via_inherent.unwrap());
    }

    #[test]
    fn replica_set_contract_first_is_owner() {
        let (ov, mut rng) = build(80, 2);
        for _ in 0..20 {
            let key = Id::random(&mut rng);
            let set = KeyRouter::replica_set(&ov, key, 3);
            assert_eq!(set[0], ov.owner_of(key).unwrap());
            assert_eq!(set.len(), 3);
        }
    }
}
