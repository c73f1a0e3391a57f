//! PAST-style replicated storage: every object lives on the `k` live nodes
//! whose ids are numerically closest to the object's key.
//!
//! This is the "replication mechanism" TAP leans on (§2): a THA
//! `<hopid, K, H(PW)>` is "a small file stored on the system" whose replica
//! set tracks membership, so the *tunnel hop node* (the closest holder) is
//! always findable as long as one replica survives.
//!
//! Two views matter to the reproduction:
//!
//! * the **current** replica set ([`ObjectRecord::holders`]), which decides
//!   whether a tunnel hop is reachable (Fig. 2); and
//! * the **history** of every node that ever held a replica
//!   ([`ObjectRecord::ever_held`]) — "malicious nodes can take advantage of
//!   the leaves of other nodes to learn more THAs" (§7.2): a malicious node
//!   that was *ever* given a replica keeps the secret forever. Fig. 5's
//!   churn experiment is exactly this set growing over time.

use std::collections::BTreeSet;
use std::sync::Arc;

use tap_id::{Id, IdHashMap, IdHashSet};
use tap_metrics::{Counter, Registry};

use crate::substrate::KeyRouter;

/// Why a storage operation could not complete. Replication state depends on
/// overlay membership, which churns underneath the store — these conditions
/// are environmental, not caller bugs, so they surface as errors rather
/// than panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageError {
    /// The overlay has no live nodes to replicate onto (every node failed
    /// or left before the insert).
    EmptyOverlay,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::EmptyOverlay => {
                write!(f, "cannot replicate into an empty overlay")
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// A stored object and its replication state.
#[derive(Debug, Clone)]
pub struct ObjectRecord<V> {
    /// The stored value.
    pub value: V,
    /// Current replica set, numerically nearest holder first. The first
    /// entry is the object's root (TAP's tunnel hop node); the rest are the
    /// "tunnel hop node candidates".
    pub holders: Vec<Id>,
    /// Every node that ever appeared in the replica set.
    pub ever_held: IdHashSet,
}

/// Cached instrument handles for the store's churn-repair paths.
#[derive(Debug, Clone)]
struct StoreInstruments {
    registry: Registry,
    inserts: Arc<Counter>,
    evictions: Arc<Counter>,
    repairs: Arc<Counter>,
}

impl StoreInstruments {
    fn new(registry: Registry) -> Self {
        StoreInstruments {
            inserts: registry.counter("pastry.replica.inserts"),
            evictions: registry.counter("pastry.replica.evictions"),
            repairs: registry.counter("pastry.replica.repairs"),
            registry,
        }
    }
}

/// The replication manager.
#[derive(Debug, Clone)]
pub struct ReplicaStore<V> {
    k: usize,
    objects: IdHashMap<ObjectRecord<V>>,
    /// Inverted index: node → object keys it currently holds.
    held: IdHashMap<IdHashSet>,
    instruments: StoreInstruments,
}

impl<V> ReplicaStore<V> {
    /// A store with replication factor `k`, recording into its own private
    /// metrics registry (share one with [`ReplicaStore::use_metrics`]).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "replication factor must be at least 1");
        ReplicaStore {
            k,
            objects: IdHashMap::default(),
            held: IdHashMap::default(),
            instruments: StoreInstruments::new(Registry::new()),
        }
    }

    /// Record into `registry` from now on.
    pub fn use_metrics(&mut self, registry: Registry) {
        self.instruments = StoreInstruments::new(registry);
    }

    /// The metrics registry this store records into.
    pub fn metrics(&self) -> &Registry {
        &self.instruments.registry
    }

    /// The replication factor.
    pub fn replication(&self) -> usize {
        self.k
    }

    /// Number of stored objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Store `value` under `key`, replicating onto the `k` closest live
    /// nodes of `overlay`. Returns `Ok(false)` if the key is already
    /// present (PAST insertions are immutable; TAP deletes then redeploys)
    /// and [`StorageError::EmptyOverlay`] if there is no live node left to
    /// hold a replica.
    pub fn insert(
        &mut self,
        overlay: &impl KeyRouter,
        key: Id,
        value: V,
    ) -> Result<bool, StorageError> {
        if self.objects.contains_key(&key) {
            return Ok(false);
        }
        let holders = overlay.replica_set(key, self.k);
        if holders.is_empty() {
            return Err(StorageError::EmptyOverlay);
        }
        for h in &holders {
            self.held.entry(*h).or_default().insert(key);
        }
        let ever_held = holders.iter().copied().collect();
        self.objects.insert(
            key,
            ObjectRecord {
                value,
                holders,
                ever_held,
            },
        );
        self.instruments.inserts.inc();
        Ok(true)
    }

    /// Fetch an object's record.
    pub fn get(&self, key: Id) -> Option<&ObjectRecord<V>> {
        self.objects.get(&key)
    }

    /// Mutable access to a stored value (replica metadata stays intact).
    pub fn get_value_mut(&mut self, key: Id) -> Option<&mut V> {
        self.objects.get_mut(&key).map(|r| &mut r.value)
    }

    /// Remove an object entirely (TAP's THA deletion, after the owner has
    /// proven knowledge of PW at the protocol layer).
    pub fn remove(&mut self, key: Id) -> Option<V> {
        let rec = self.objects.remove(&key)?;
        for h in &rec.holders {
            if let Some(set) = self.held.get_mut(h) {
                set.remove(&key);
                if set.is_empty() {
                    self.held.remove(h);
                }
            }
        }
        Some(rec.value)
    }

    /// Current holders of `key`, nearest first (empty if unknown key).
    pub fn holders(&self, key: Id) -> &[Id] {
        self.objects
            .get(&key)
            .map(|r| r.holders.as_slice())
            .unwrap_or(&[])
    }

    /// Keys currently held by `node`.
    pub fn held_by(&self, node: Id) -> impl Iterator<Item = Id> + '_ {
        self.held.get(&node).into_iter().flatten().copied()
    }

    /// Iterate over `(key, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Id, &ObjectRecord<V>)> {
        self.objects.iter().map(|(k, v)| (*k, v))
    }

    fn reassign(&mut self, key: Id, new_holders: Vec<Id>) {
        // The inverted index can only reference stored keys; tolerate a
        // desynced index (churn-repair races in future async callers)
        // instead of crashing the node.
        debug_assert!(self.objects.contains_key(&key), "reassigning known key");
        let Some(rec) = self.objects.get_mut(&key) else {
            return;
        };
        if rec.holders == new_holders {
            return;
        }
        self.instruments.repairs.inc();
        for h in &rec.holders {
            if !new_holders.contains(h) {
                self.instruments.evictions.inc();
                if let Some(set) = self.held.get_mut(h) {
                    set.remove(&key);
                    if set.is_empty() {
                        self.held.remove(h);
                    }
                }
            }
        }
        for h in &new_holders {
            if !rec.holders.contains(h) {
                self.held.entry(*h).or_default().insert(key);
            }
            rec.ever_held.insert(*h);
        }
        rec.holders = new_holders;
    }

    /// Re-replicate a single object onto the overlay's *current* k-closest
    /// set. Returns `true` when the holder set actually changed.
    ///
    /// [`ReplicaStore::on_node_removed`] repairs eagerly when the caller
    /// knows which node vanished; this is the targeted variant for callers
    /// that only know an object's replica set has degraded (a takeover was
    /// observed in transit, a partition healed) and want that one anchor
    /// back to full strength.
    pub fn repair_key(&mut self, overlay: &impl KeyRouter, key: Id) -> bool {
        if !self.objects.contains_key(&key) {
            return false;
        }
        let new_holders = overlay.replica_set(key, self.k);
        if new_holders.is_empty() || self.holders(key) == new_holders {
            return false;
        }
        self.reassign(key, new_holders);
        true
    }

    /// Repair after `node` left or failed. Call **after** the overlay has
    /// removed it: each object the node held is re-replicated onto the new
    /// k-closest set (one of the candidates takes over as root, and the
    /// next ring neighbour is drafted as a fresh replica).
    pub fn on_node_removed(&mut self, overlay: &impl KeyRouter, node: Id) {
        let Some(keys) = self.held.remove(&node) else {
            return;
        };
        for key in keys {
            let new_holders = overlay.replica_set(key, self.k);
            self.reassign(key, new_holders);
        }
    }

    /// Repair after a whole batch of nodes left at once (the storage-side
    /// companion to `Overlay::remove_nodes`). Call **after** the overlay
    /// removed them: every object any departed node held is re-replicated
    /// onto the current k-closest set exactly once — an object that lost
    /// several holders in the same batch is repaired once, not once per
    /// casualty. Keys are repaired in id order, so the repair/eviction
    /// counters are independent of the input order.
    pub fn on_nodes_removed(&mut self, overlay: &impl KeyRouter, nodes: &[Id]) {
        let mut keys: BTreeSet<Id> = BTreeSet::new();
        for n in nodes {
            if let Some(held) = self.held.remove(n) {
                keys.extend(held);
            }
        }
        for key in keys {
            let new_holders = overlay.replica_set(key, self.k);
            self.reassign(key, new_holders);
        }
    }

    /// Rebalance after `node` joined. Call **after** the overlay has added
    /// it: objects whose key the newcomer is now among the `k` closest to
    /// migrate a replica onto it (and the displaced farthest holder drops
    /// out of the current set — though it keeps the secret in `ever_held`).
    pub fn on_node_added(&mut self, overlay: &impl KeyRouter, node: Id) {
        // Only objects one of the newcomer's two ring neighbours holds can
        // be affected. A replica set is k ring-contiguous nodes, so a set
        // the newcomer enters still contains a node next to it whenever
        // k >= 2, and that node held the object before; for k = 1 the one
        // holder it displaces is its neighbour. Every candidate is
        // recomputed in full, so a stale holder set heals on the way.
        let mut candidates: Vec<Id> = overlay
            .following(node, 1)
            .into_iter()
            .chain(overlay.preceding(node, 1))
            .flat_map(|n| self.held_by(n))
            .collect();
        // Id order: the order the `held` index fills in must not depend
        // on a hash set's.
        candidates.sort_unstable();
        candidates.dedup();
        for key in candidates {
            let new_holders = overlay.replica_set(key, self.k);
            self.reassign(key, new_holders);
        }
    }

    /// Assert every object's holder set equals the overlay oracle's
    /// k-closest. Test helper; O(objects · k · log N).
    pub fn assert_replica_invariant(&self, overlay: &impl KeyRouter) {
        for (key, rec) in &self.objects {
            let want = overlay.replica_set(*key, self.k);
            assert_eq!(
                rec.holders, want,
                "replica set for {key:?} diverged from k-closest"
            );
            for h in &want {
                assert!(rec.ever_held.contains(h), "history missing holder");
            }
        }
        // Inverted index consistency.
        for (node, keys) in &self.held {
            for key in keys {
                assert!(
                    self.objects[key].holders.contains(node),
                    "held index points at non-holder"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PastryConfig;
    use crate::overlay::Overlay;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn build(n: usize, seed: u64) -> (Overlay, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ov = Overlay::new(PastryConfig::paper_defaults());
        for _ in 0..n {
            ov.add_random_node(&mut rng);
        }
        (ov, rng)
    }

    #[test]
    fn insert_places_on_k_closest() {
        let (ov, mut rng) = build(100, 1);
        let mut store = ReplicaStore::new(3);
        let key = Id::random(&mut rng);
        assert!(store.insert(&ov, key, "tha").unwrap());
        assert_eq!(store.holders(key), ov.k_closest(key, 3));
        store.assert_replica_invariant(&ov);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let (ov, mut rng) = build(20, 2);
        let mut store = ReplicaStore::new(3);
        let key = Id::random(&mut rng);
        assert!(store.insert(&ov, key, 1).unwrap());
        assert!(!store.insert(&ov, key, 2).unwrap());
        assert_eq!(store.get(key).unwrap().value, 1);
    }

    #[test]
    fn remove_cleans_inverted_index() {
        let (ov, mut rng) = build(50, 3);
        let mut store = ReplicaStore::new(3);
        let key = Id::random(&mut rng);
        store.insert(&ov, key, 7u32).unwrap();
        let holder = store.holders(key)[0];
        assert_eq!(store.remove(key), Some(7));
        assert_eq!(store.remove(key), None);
        assert_eq!(store.held_by(holder).count(), 0);
        store.assert_replica_invariant(&ov);
    }

    #[test]
    fn failover_promotes_candidate() {
        let (mut ov, mut rng) = build(100, 4);
        let mut store = ReplicaStore::new(3);
        let key = Id::random(&mut rng);
        store.insert(&ov, key, ()).unwrap();
        let before = store.holders(key).to_vec();
        // Kill the root (the tunnel hop node).
        ov.remove_node(before[0]);
        store.on_node_removed(&ov, before[0]);
        let after = store.holders(key).to_vec();
        assert_eq!(after[0], before[1], "first candidate takes over as root");
        assert_eq!(after.len(), 3, "a fresh replica is drafted");
        store.assert_replica_invariant(&ov);
        // History remembers the dead root.
        assert!(store.get(key).unwrap().ever_held.contains(&before[0]));
    }

    #[test]
    fn batch_removal_repairs_each_object_once() {
        let (mut ov, mut rng) = build(150, 11);
        let mut store = ReplicaStore::new(3);
        let metrics = tap_metrics::Registry::new();
        store.use_metrics(metrics.clone());
        let mut keys = Vec::new();
        for _ in 0..80 {
            let k = Id::random(&mut rng);
            store.insert(&ov, k, ()).unwrap();
            keys.push(k);
        }
        // Kill an entire replica set at once: the object lost all three
        // holders in the same batch but must be reassigned exactly once.
        let victims: Vec<Id> = {
            let mut v = store.holders(keys[0]).to_vec();
            v.sort_unstable();
            v
        };
        let repairs_before = metrics.snapshot().counter("pastry.replica.repairs");
        assert_eq!(ov.remove_nodes(&victims), victims.len());
        store.on_nodes_removed(&ov, &victims);
        store.assert_replica_invariant(&ov);
        // keys[0] was repaired once; other objects holding a victim were
        // each repaired at most once too, so the repair count is bounded
        // by the number of affected objects (strictly fewer than the
        // per-casualty count when replica sets overlap).
        let repaired = metrics.snapshot().counter("pastry.replica.repairs") - repairs_before;
        let affected: usize = keys
            .iter()
            .filter(|k| {
                store
                    .get(**k)
                    .unwrap()
                    .ever_held
                    .iter()
                    .any(|h| victims.contains(h))
            })
            .count();
        assert!(repaired <= affected as u64, "{repaired} > {affected}");
        assert!(
            store.holders(keys[0]).len() == 3,
            "object back to full strength"
        );
    }

    #[test]
    fn join_migrates_replicas_to_newcomer() {
        let (mut ov, mut rng) = build(100, 5);
        let mut store = ReplicaStore::new(3);
        let key = Id::random(&mut rng);
        store.insert(&ov, key, ()).unwrap();
        // Join a node directly adjacent to the key: it must become root.
        let adjacent = key.wrapping_add(Id::from_u64(1));
        assert!(ov.add_node(adjacent));
        store.on_node_added(&ov, adjacent);
        assert_eq!(store.holders(key)[0], adjacent);
        store.assert_replica_invariant(&ov);
    }

    #[test]
    fn displaced_holder_keeps_history() {
        let (mut ov, mut rng) = build(60, 6);
        let mut store = ReplicaStore::new(3);
        let key = Id::random(&mut rng);
        store.insert(&ov, key, ()).unwrap();
        let displaced = store.holders(key)[2];
        let adjacent = key.wrapping_add(Id::from_u64(1));
        ov.add_node(adjacent);
        store.on_node_added(&ov, adjacent);
        assert!(!store.holders(key).contains(&displaced));
        assert!(store.get(key).unwrap().ever_held.contains(&displaced));
    }

    #[test]
    fn invariant_survives_heavy_churn() {
        let (mut ov, mut rng) = build(120, 7);
        let mut store = ReplicaStore::new(3);
        for _ in 0..200 {
            store.insert(&ov, Id::random(&mut rng), ()).unwrap();
        }
        for round in 0..60 {
            if rng.gen_bool(0.5) {
                let victim = ov.random_node(&mut rng).unwrap();
                ov.remove_node(victim);
                store.on_node_removed(&ov, victim);
            } else {
                let id = ov.add_random_node(&mut rng);
                store.on_node_added(&ov, id);
            }
            if round % 10 == 9 {
                store.assert_replica_invariant(&ov);
            }
        }
        store.assert_replica_invariant(&ov);
    }

    #[test]
    fn history_only_grows() {
        let (mut ov, mut rng) = build(80, 8);
        let mut store = ReplicaStore::new(3);
        let key = Id::random(&mut rng);
        store.insert(&ov, key, ()).unwrap();
        let mut prev: IdHashSet = store.get(key).unwrap().ever_held.clone();
        for _ in 0..30 {
            let victim = ov.random_node(&mut rng).unwrap();
            ov.remove_node(victim);
            store.on_node_removed(&ov, victim);
            let id = ov.add_random_node(&mut rng);
            store.on_node_added(&ov, id);
            let now = &store.get(key).unwrap().ever_held;
            assert!(prev.is_subset(now), "history shrank");
            prev = now.clone();
        }
    }

    #[test]
    fn small_overlay_replication_caps() {
        let (ov, mut rng) = build(2, 9);
        let mut store = ReplicaStore::new(5);
        let key = Id::random(&mut rng);
        store.insert(&ov, key, ()).unwrap();
        assert_eq!(store.holders(key).len(), 2, "only 2 nodes exist");
    }

    #[test]
    fn held_by_reflects_all_objects() {
        let (ov, mut rng) = build(30, 10);
        let mut store = ReplicaStore::new(3);
        let mut keys = Vec::new();
        for _ in 0..50 {
            let k = Id::random(&mut rng);
            store.insert(&ov, k, ()).unwrap();
            keys.push(k);
        }
        let mut total = 0;
        for n in ov.ids().collect::<Vec<_>>() {
            total += store.held_by(n).count();
        }
        assert_eq!(total, 50 * 3, "each object on exactly k nodes");
    }
}
