//! PAST-style replicated storage: every object lives on the `k` live nodes
//! whose ids are numerically closest to the object's key.
//!
//! This is the "replication mechanism" TAP leans on (§2): a THA
//! `<hopid, K, H(PW)>` is "a small file stored on the system" whose replica
//! set tracks membership, so the *tunnel hop node* (the closest holder) is
//! always findable as long as one replica survives.
//!
//! The store keeps each object's value and **current** replica set
//! ([`ObjectRecord::holders`]), which decides whether a tunnel hop is
//! reachable (Fig. 2), in one index: a [`Ring`] of records in key order.
//! A replica set is `k` ring-contiguous nodes (DESIGN.md §6i), so the keys
//! a membership event can move lie in one short arc around the node that
//! came or went. Repair reads their holders off one walk of that arc, asks
//! the overlay for all their new sets at once
//! ([`KeyRouter::replica_sets`], one walk of the overlay's ring), and
//! writes each set into its record in place on a second walk; a lookup by
//! key is one search of one short bucket.
//!
//! Exposure is opt-in. "Malicious nodes can take advantage of the leaves
//! of other nodes to learn more THAs" (§7.2): a malicious node *ever* given
//! a replica keeps the secret, and Fig. 5 plots that knowledge growing. A
//! caller modelling it installs an exposure ledger ([`ReplicaStore::watch`]);
//! without one, a replica hand-off costs one branch.

use std::ops::Bound;
use std::sync::Arc;

use tap_id::{Id, IdHashSet, Ring};
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

/// The stored keys ever handed to a watched node.
#[derive(Debug, Clone)]
struct Ledger {
    watched: IdHashSet,
    keys: IdHashSet,
}

impl Ledger {
    fn hand_off(&mut self, key: Id, holders: &[Id]) {
        if holders.iter().any(|h| self.watched.contains(h)) {
            self.keys.insert(key);
        }
    }
}

/// Buffers a membership event reuses: once they have grown, a repair
/// allocates nothing.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The walks of the ring either side of the event's node.
    before: Vec<Id>,
    after: Vec<Id>,
    /// A leave's departed ids, sorted and distinct.
    gone: Vec<Id>,
    /// The keys a repair recomputes, in ring order, and their replica
    /// sets, one after another.
    keys: Vec<Id>,
    sets: Vec<Id>,
}

/// The replication manager.
///
/// **Repair contract.** The membership hooks ([`ReplicaStore::on_node_added`],
/// [`ReplicaStore::on_node_removed`], [`ReplicaStore::on_nodes_removed`])
/// look for work in the arc around the node, which is exact when every
/// earlier membership change was reported to them. A key left stale by an
/// unreported leave (`fail_node` without repair, Fig. 2's regime) may lie
/// outside later arcs; [`ReplicaStore::repair_key`] heals it.
#[derive(Debug, Clone)]
pub struct ReplicaStore<V> {
    k: usize,
    /// Object per key, in ring order.
    records: Ring<ObjectRecord<V>>,
    ledger: Option<Ledger>,
    instruments: StoreInstruments,
    scratch: Scratch,
}

impl<V> ReplicaStore<V> {
    /// A store with replication factor `k`, recording into its own private
    /// metrics registry (share one with [`ReplicaStore::use_metrics`]).
    ///
    /// # Panics
    ///
    /// If `k` is 0: a store that keeps no replica of anything is a
    /// configuration error, not a state churn can bring about.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "replication factor must be at least 1");
        ReplicaStore {
            k,
            records: Ring::new(),
            ledger: None,
            instruments: StoreInstruments::new(Registry::new()),
            scratch: Scratch::default(),
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
        self.records.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
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
        if self.records.contains(key) {
            return Ok(false);
        }
        let holders = overlay.replica_set(key, self.k);
        if holders.is_empty() {
            return Err(StorageError::EmptyOverlay);
        }
        if let Some(ledger) = &mut self.ledger {
            ledger.hand_off(key, &holders);
        }
        self.records.put(key, ObjectRecord { value, holders });
        self.instruments.inserts.inc();
        Ok(true)
    }

    /// Fetch an object's record.
    pub fn get(&self, key: Id) -> Option<&ObjectRecord<V>> {
        self.records.get(key)
    }

    /// Remove an object entirely (TAP's THA deletion, after the owner has
    /// proven knowledge of PW at the protocol layer).
    pub fn remove(&mut self, key: Id) -> Option<V> {
        let rec = self.records.take(key)?;
        if let Some(ledger) = &mut self.ledger {
            ledger.keys.remove(&key);
        }
        Some(rec.value)
    }

    /// Current holders of `key`, nearest first (empty if unknown key).
    pub fn holders(&self, key: Id) -> &[Id] {
        self.records
            .get(key)
            .map(|r| r.holders.as_slice())
            .unwrap_or(&[])
    }

    /// Iterate over `(key, record)` pairs in ring order (ascending key).
    pub fn iter(&self) -> impl Iterator<Item = (Id, &ObjectRecord<V>)> {
        self.records.clockwise_entries(Bound::Unbounded)
    }

    /// Keep an exposure ledger for `nodes` from now on (replacing any
    /// earlier one): [`ReplicaStore::exposed`] then tells whether a key was
    /// handed to one of them. It starts from the current holders, so it
    /// equals "a watched node ever held a replica" only if no replica moved
    /// before this call: watch after deploying and before any churn, as
    /// Fig. 5 does (deploy, mark the collusion, watch, churn).
    pub fn watch(&mut self, nodes: impl IntoIterator<Item = Id>) {
        let watched = nodes.into_iter().collect();
        let mut ledger = Ledger {
            watched,
            keys: IdHashSet::default(),
        };
        for (key, rec) in self.records.clockwise_entries(Bound::Unbounded) {
            ledger.hand_off(key, &rec.holders);
        }
        self.ledger = Some(ledger);
    }

    /// Whether `key` is stored and was handed to a watched node since
    /// [`ReplicaStore::watch`]; `false` without a ledger.
    pub fn exposed(&self, key: Id) -> bool {
        self.ledger.as_ref().is_some_and(|l| l.keys.contains(&key))
    }

    /// Recompute the replica sets of the stored keys whose holders pass
    /// `touched` in the closed ring arc `(from, to)` — or on the whole ring
    /// when `arc` is `None` — and write each changed set into its record.
    /// One walk of the records reads the keys in ring order, one
    /// [`KeyRouter::replica_sets`] call answers them all, and a second walk
    /// from the first key writes the sets in place.
    fn repair_arc(
        &mut self,
        overlay: &impl KeyRouter,
        arc: Option<(Id, Id)>,
        touched: impl Fn(&[Id]) -> bool,
    ) {
        let (from, to) = arc.unwrap_or((Id::ZERO, Id::MAX));
        let span = from.clockwise_distance(to);
        let Scratch { keys, sets, .. } = &mut self.scratch;
        keys.clear();
        keys.extend(
            (self.records.clockwise_entries(Bound::Included(from)))
                .take_while(|(key, _)| from.clockwise_distance(*key) <= span)
                .filter(|(_, rec)| touched(&rec.holders))
                .map(|(key, _)| key),
        );
        let Some(&first) = keys.first() else {
            return;
        };
        sets.clear();
        overlay.replica_sets(keys, self.k, sets);
        // Every set is this long; none on a ring emptied by the event, so
        // every key's holders are emptied then.
        let take = self.k.min(overlay.node_count());
        debug_assert_eq!(sets.len(), keys.len() * take, "replica_sets contract");
        let mut i = 0;
        for (key, rec) in self.records.clockwise_entries_mut(first) {
            let Some(&next) = keys.get(i) else {
                break;
            };
            if key == next {
                let set = sets.get(i * take..(i + 1) * take).unwrap_or_default();
                rehome(key, rec, set, &self.instruments, &mut self.ledger);
                i += 1;
            }
        }
    }

    /// Re-replicate a single object onto the overlay's *current* k-closest
    /// set. Returns `true` when the holder set actually changed.
    ///
    /// [`ReplicaStore::on_node_removed`] repairs eagerly when the caller
    /// knows which node vanished; this is the targeted variant for callers
    /// that only know an object's replica set has degraded (a takeover was
    /// observed in transit, a partition healed, a leave went unreported)
    /// and want that one anchor back to full strength.
    pub fn repair_key(&mut self, overlay: &impl KeyRouter, key: Id) -> bool {
        let Some(rec) = self.records.get_mut(key) else {
            return false;
        };
        let new_holders = overlay.replica_set(key, self.k);
        !new_holders.is_empty()
            && rehome(key, rec, &new_holders, &self.instruments, &mut self.ledger)
    }

    /// The walks of `reach` live nodes either side of `node`, into the
    /// scratch buffers, and the closed arc between their far ends: `None`
    /// (the whole ring) when the ring holds at most `2·reach + 1` nodes and
    /// the walks may meet.
    fn walk_around(
        &mut self,
        overlay: &impl KeyRouter,
        node: Id,
        reach: usize,
    ) -> Option<(Id, Id)> {
        let Scratch { before, after, .. } = &mut self.scratch;
        before.clear();
        after.clear();
        overlay.preceding(node, reach, before);
        overlay.following(node, reach, after);
        match (before.last(), after.last()) {
            (Some(&from), Some(&to)) if overlay.node_count() > 2 * reach + 1 => Some((from, to)),
            _ => None,
        }
    }

    /// Repair after `node` left or failed. Call **after** the overlay has
    /// removed it: each object the node held is re-replicated onto the new
    /// k-closest set (one of the candidates takes over as root, and the
    /// next ring neighbour is drafted as a fresh replica). Those objects
    /// lie within `k` live nodes of it (see the repair contract).
    pub fn on_node_removed(&mut self, overlay: &impl KeyRouter, node: Id) {
        self.on_nodes_removed(overlay, &[node]);
    }

    /// Repair after a whole batch of nodes left at once (the storage-side
    /// companion to `Overlay::remove_nodes`). Call **after** the overlay
    /// removed them: every object any departed node held is re-replicated
    /// onto the current k-closest set exactly once — an object that lost
    /// several holders in the same batch is repaired once, not once per
    /// casualty. A leave only widens the arc `k` live nodes around each
    /// departed node, so it still covers every key that node held (see
    /// the repair contract).
    pub fn on_nodes_removed(&mut self, overlay: &impl KeyRouter, nodes: &[Id]) {
        let mut gone = std::mem::take(&mut self.scratch.gone);
        gone.clear();
        gone.extend_from_slice(nodes);
        gone.sort_unstable();
        gone.dedup();
        let touched = |holders: &[Id]| holders.iter().any(|h| gone.binary_search(h).is_ok());
        for &n in &gone {
            let arc = self.walk_around(overlay, n, self.k);
            self.repair_arc(overlay, arc, touched);
        }
        self.scratch.gone = gone;
    }

    /// Rebalance after `node` joined. Call **after** the overlay has added
    /// it: objects whose key the newcomer is now among the `k` closest to
    /// migrate a replica onto it (and the displaced farthest holder drops
    /// out of the current set, though an exposure ledger keeps the
    /// hand-off). Only objects one of its two ring neighbours holds can
    /// move (DESIGN.md §6i); they lie within `k + 1` live nodes of it, and
    /// the neighbours come from the same walks. Every candidate is
    /// recomputed in full (see the repair contract).
    pub fn on_node_added(&mut self, overlay: &impl KeyRouter, node: Id) {
        let arc = self.walk_around(overlay, node, self.k + 1);
        let neighbours =
            [self.scratch.before.first(), self.scratch.after.first()].map(|n| n.copied());
        let touched = |holders: &[Id]| neighbours.iter().flatten().any(|n| holders.contains(n));
        self.repair_arc(overlay, arc, touched);
    }

    /// The first stored key, in ring order, whose holders differ from the
    /// overlay's replica set for it; `None` when every set is exact.
    /// Diagnostic; O(objects · k · log N).
    pub fn replica_drift(&self, overlay: &impl KeyRouter) -> Option<Id> {
        self.iter()
            .find(|(key, rec)| rec.holders != overlay.replica_set(*key, self.k))
            .map(|(key, _)| key)
    }
}

/// Make `new` `key`'s holders, unless they already are: count the repair
/// and the holders it evicts, and hand the key to the ledger's watch.
/// Returns whether the holders changed. The record's buffer is reused.
fn rehome<V>(
    key: Id,
    rec: &mut ObjectRecord<V>,
    new: &[Id],
    instruments: &StoreInstruments,
    ledger: &mut Option<Ledger>,
) -> bool {
    if rec.holders == new {
        return false;
    }
    instruments.repairs.inc();
    let evicted = rec.holders.iter().filter(|h| !new.contains(h));
    instruments.evictions.add(evicted.count() as u64);
    if let Some(ledger) = ledger {
        ledger.hand_off(key, new);
    }
    rec.holders.clear();
    rec.holders.extend_from_slice(new);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PastryConfig;
    use crate::overlay::Overlay;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn build(n: usize, seed: u64) -> (Overlay, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ov = Overlay::new(PastryConfig::paper_defaults());
        for _ in 0..n {
            ov.add_random_node(&mut rng);
        }
        (ov, rng)
    }

    /// The keys `node` holds now, read off the records.
    fn held_by<V>(store: &ReplicaStore<V>, node: Id) -> BTreeSet<Id> {
        store
            .iter()
            .filter(|(_, rec)| rec.holders.contains(&node))
            .map(|(key, _)| key)
            .collect()
    }

    #[test]
    fn insert_places_on_k_closest() {
        let (ov, mut rng) = build(100, 1);
        let mut store = ReplicaStore::new(3);
        let key = Id::random(&mut rng);
        assert!(store.insert(&ov, key, "tha").unwrap());
        assert_eq!(store.holders(key), ov.k_closest(key, 3));
        assert_eq!(store.replica_drift(&ov), None);
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
    fn remove_forgets_the_key_everywhere() {
        let (ov, mut rng) = build(50, 3);
        let mut store = ReplicaStore::new(3);
        let key = Id::random(&mut rng);
        store.insert(&ov, key, 7u32).unwrap();
        let holder = store.holders(key)[0];
        store.watch([holder]);
        assert!(store.exposed(key));
        assert_eq!(store.remove(key), Some(7));
        assert_eq!(store.remove(key), None);
        assert!(held_by(&store, holder).is_empty());
        assert!(!store.exposed(key), "the ledger drops a removed key");
        assert_eq!(store.replica_drift(&ov), None);
    }

    #[test]
    fn failover_promotes_candidate() {
        let (mut ov, mut rng) = build(100, 4);
        let mut store = ReplicaStore::new(3);
        let key = Id::random(&mut rng);
        store.insert(&ov, key, ()).unwrap();
        let before = store.holders(key).to_vec();
        store.watch([before[0]]);
        // Kill the root (the tunnel hop node).
        ov.remove_node(before[0]);
        store.on_node_removed(&ov, before[0]);
        let after = store.holders(key).to_vec();
        assert_eq!(after[0], before[1], "first candidate takes over as root");
        assert_eq!(after.len(), 3, "a fresh replica is drafted");
        assert_eq!(store.replica_drift(&ov), None);
        // The ledger remembers the dead root's replica.
        assert!(store.exposed(key));
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
        store.watch(victims.iter().copied());
        let repairs_before = metrics.snapshot().counter("pastry.replica.repairs");
        assert_eq!(ov.remove_nodes(&victims), victims.len());
        store.on_nodes_removed(&ov, &victims);
        assert_eq!(store.replica_drift(&ov), None);
        // keys[0] was repaired once; other objects holding a victim were
        // each repaired at most once too, so the repair count is bounded
        // by the number of affected objects (strictly fewer than the
        // per-casualty count when replica sets overlap).
        let repaired = metrics.snapshot().counter("pastry.replica.repairs") - repairs_before;
        let affected = keys.iter().filter(|k| store.exposed(**k)).count();
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
        assert_eq!(store.replica_drift(&ov), None);
    }

    #[test]
    fn displaced_holder_stays_exposed() {
        let (mut ov, mut rng) = build(60, 6);
        let mut store = ReplicaStore::new(3);
        let key = Id::random(&mut rng);
        store.insert(&ov, key, ()).unwrap();
        let displaced = store.holders(key)[2];
        store.watch([displaced]);
        let adjacent = key.wrapping_add(Id::from_u64(1));
        ov.add_node(adjacent);
        store.on_node_added(&ov, adjacent);
        assert!(!store.holders(key).contains(&displaced));
        assert!(store.exposed(key));
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
                assert_eq!(store.replica_drift(&ov), None);
            }
        }
        assert_eq!(store.replica_drift(&ov), None);
    }

    #[test]
    fn exposure_only_grows_and_covers_current_holders() {
        let (mut ov, mut rng) = build(80, 8);
        let mut store = ReplicaStore::new(3);
        let keys: Vec<Id> = (0..60).map(|_| Id::random(&mut rng)).collect();
        for key in &keys {
            store.insert(&ov, *key, ()).unwrap();
        }
        let watched: Vec<Id> = ov.ids().step_by(8).collect();
        store.watch(watched.iter().copied());
        let exposed = |s: &ReplicaStore<()>| -> BTreeSet<Id> {
            keys.iter().copied().filter(|k| s.exposed(*k)).collect()
        };
        let mut prev = exposed(&store);
        for _ in 0..30 {
            let victim = loop {
                let v = ov.random_node(&mut rng).unwrap();
                if !watched.contains(&v) {
                    break v;
                }
            };
            ov.remove_node(victim);
            store.on_node_removed(&ov, victim);
            let id = ov.add_random_node(&mut rng);
            store.on_node_added(&ov, id);
            let now = exposed(&store);
            assert!(prev.is_subset(&now), "exposure shrank");
            for w in &watched {
                assert!(held_by(&store, *w).is_subset(&now));
            }
            prev = now;
        }
        assert_eq!(store.replica_drift(&ov), None);
    }

    #[test]
    fn a_ledger_is_off_until_watched_and_sees_later_inserts() {
        let (ov, mut rng) = build(40, 10);
        let mut store = ReplicaStore::new(3);
        let first = Id::random(&mut rng);
        store.insert(&ov, first, ()).unwrap();
        assert!(!store.exposed(first), "no ledger, no exposure");
        let root = store.holders(first)[0];
        store.watch([root]);
        assert!(store.exposed(first), "seeded from the current holders");
        // A key placed on the watched node after the call is exposed too.
        let later = root.wrapping_add(Id::from_u64(1));
        store.insert(&ov, later, ()).unwrap();
        assert!(store.holders(later).contains(&root));
        assert!(store.exposed(later));
        assert_eq!(store.replica_drift(&ov), None);
    }

    #[test]
    fn the_last_leave_empties_every_holder_set() {
        let (mut ov, mut rng) = build(4, 12);
        let mut store = ReplicaStore::new(3);
        let keys: Vec<Id> = (0..10).map(|_| Id::random(&mut rng)).collect();
        for key in &keys {
            store.insert(&ov, *key, ()).unwrap();
        }
        let members: Vec<Id> = ov.ids().collect();
        for (i, node) in members.iter().enumerate() {
            ov.remove_node(*node);
            store.on_node_removed(&ov, *node);
            assert_eq!(store.replica_drift(&ov), None, "after {} leaves", i + 1);
        }
        for key in &keys {
            assert!(
                store.holders(*key).is_empty(),
                "{key:?} kept a departed holder"
            );
        }
        // A newcomer's neighbours hold nothing, so nothing moves onto it.
        let id = ov.add_random_node(&mut rng);
        store.on_node_added(&ov, id);
        assert!(keys.iter().all(|key| store.holders(*key).is_empty()));
    }

    #[test]
    fn small_overlay_replication_caps() {
        let (ov, mut rng) = build(2, 9);
        let mut store = ReplicaStore::new(5);
        let key = Id::random(&mut rng);
        store.insert(&ov, key, ()).unwrap();
        assert_eq!(store.holders(key).len(), 2, "only 2 nodes exist");
    }
}
