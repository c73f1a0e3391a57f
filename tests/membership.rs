//! Replica repair on membership events, pinned from outside the crates.
//!
//! `ReplicaStore` finds the keys a join or leave can move by scanning the
//! arc of its ring-ordered keys around the node. Two things keep that
//! honest on both substrates:
//!
//! * a **work count** — how many oracle queries one join and one leave
//!   make, asserted as numbers through a counting [`KeyRouter`]; and
//! * a **differential** run against the store as it was before: a
//!   test-local copy with its per-node `held` index and per-object
//!   `ever_held` history, joined through the wide repair (candidate keys
//!   from `2k + 2` nodes on each side of the newcomer) and, on Pastry, a
//!   replica set found by sorting both sides' `k` nearest.

mod common;

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tap::chord::{ChordConfig, ChordOverlay};
use tap::id::{Id, IdHashMap, IdHashSet};
use tap::pastry::storage::ReplicaStore;
use tap::pastry::{KeyRouter, Overlay, PastryConfig, RouteError};
use tap_metrics::{Counter, Registry};

use common::{fnv, pin, FNV_OFFSET};

// ----------------------------------------------------------------------
// Work count
// ----------------------------------------------------------------------

/// Counts the oracle queries a store makes of the overlay underneath.
struct Counting<'a> {
    inner: &'a Overlay,
    following: RefCell<Vec<usize>>,
    preceding: RefCell<Vec<usize>>,
    replica_sets: Cell<usize>,
}

impl<'a> Counting<'a> {
    fn over(inner: &'a Overlay) -> Self {
        Counting {
            inner,
            following: RefCell::default(),
            preceding: RefCell::default(),
            replica_sets: Cell::new(0),
        }
    }
}

impl KeyRouter for Counting<'_> {
    fn is_live(&self, node: Id) -> bool {
        self.inner.is_live(node)
    }
    fn owner_of(&self, key: Id) -> Option<Id> {
        self.inner.owner_of(key)
    }
    fn replica_set(&self, key: Id, k: usize) -> Vec<Id> {
        self.replica_sets.set(self.replica_sets.get() + 1);
        self.inner.replica_set(key, k)
    }
    fn following(&self, from: Id, n: usize, out: &mut Vec<Id>) {
        self.following.borrow_mut().push(n);
        self.inner.following(from, n, out)
    }
    fn preceding(&self, from: Id, n: usize, out: &mut Vec<Id>) {
        self.preceding.borrow_mut().push(n);
        self.inner.preceding(from, n, out)
    }
    fn route_path(&mut self, from: Id, _key: Id) -> Result<Vec<Id>, RouteError> {
        Err(RouteError::UnknownSource(from))
    }
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
}

#[test]
fn one_membership_event_asks_the_ring_a_fixed_number_of_questions() {
    let mut rng = StdRng::seed_from_u64(15);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..2000 {
        overlay.add_random_node(&mut rng);
    }
    let mut store = ReplicaStore::new(3);
    for i in 0..5000u32 {
        store.insert(&overlay, Id::random(&mut rng), i).unwrap();
    }

    // The keys a node holds, read off the records.
    let held_by = |store: &ReplicaStore<u32>, nodes: &[Id]| -> BTreeSet<Id> {
        store
            .iter()
            .filter(|(_, rec)| nodes.iter().any(|n| rec.holders.contains(n)))
            .map(|(key, _)| key)
            .collect()
    };
    let (mut join_queries, mut leave_queries) = (0, 0);
    for _ in 0..40 {
        let id = overlay.add_random_node(&mut rng);
        let neighbours: Vec<Id> = overlay
            .successors(id, 1)
            .into_iter()
            .chain(overlay.predecessors(id, 1))
            .collect();
        let candidates = held_by(&store, &neighbours).len();
        let counting = Counting::over(&overlay);
        store.on_node_added(&counting, id);
        assert_eq!(*counting.following.borrow(), [4]);
        assert_eq!(*counting.preceding.borrow(), [4]);
        assert_eq!(counting.replica_sets.get(), candidates);
        join_queries += candidates;

        let victim = overlay.random_node(&mut rng).unwrap();
        let held = held_by(&store, &[victim]).len();
        overlay.remove_node(victim);
        let counting = Counting::over(&overlay);
        store.on_node_removed(&counting, victim);
        assert_eq!(*counting.following.borrow(), [3]);
        assert_eq!(*counting.preceding.borrow(), [3]);
        assert_eq!(counting.replica_sets.get(), held);
        leave_queries += held;
    }
    assert_eq!(store.replica_drift(&overlay), None);
    // 15 000 replicas on 2 000 nodes: 7.5 keys a node, so about 11 distinct
    // keys at a newcomer's two neighbours. A join walks k + 1 nodes each
    // way and a leave k, and each recomputes exactly the replica sets of
    // those keys. The run is a pure function of the seed; a change in
    // either total is a change in the work done.
    assert_eq!((join_queries, leave_queries), (443, 328));
}

// ----------------------------------------------------------------------
// The overlay at big-ring scale
// ----------------------------------------------------------------------

/// Every live node's leaf sides and populated routing-table cells in ring
/// order, the overlay's four counters, and how many node handles are still
/// the allocations `snap` holds.
fn fold_overlay(mut digest: u64, ov: &Overlay, snap: &Overlay) -> u64 {
    let cols = 1usize << ov.config().b;
    for id in ov.ids() {
        let node = ov.node(id).expect("ids() lists live nodes");
        for side in [node.leafset.clockwise(), node.leafset.counter_clockwise()] {
            digest = fnv(digest, &(side.len() as u64).to_le_bytes());
            for m in side {
                digest = fnv(digest, m.as_bytes());
            }
        }
        for r in 0..node.table.depth() {
            for c in 0..cols {
                if let Some(e) = node.table.entry(r, c) {
                    digest = fnv(digest, &[r as u8, c as u8]);
                    digest = fnv(digest, e.as_bytes());
                }
            }
        }
    }
    let counters = ov.metrics().snapshot();
    for name in [
        "pastry.leafset.repairs",
        "pastry.table.evictions",
        "pastry.stale_leafset_ref",
        "pastry.join.route_failed",
    ] {
        digest = fnv(digest, &counters.counter(name).to_le_bytes());
    }
    fnv(digest, &(ov.handles_shared_with(snap) as u64).to_le_bytes())
}

/// Recorded by running this test on the commit before a leave evicted the
/// departed id from its one natural cell and leaf sides were installed from
/// the event's window without a `Vec` per neighbour.
const CHURN_AT_SCALE: u64 = 0xbab0_4245_2077_5543;

#[test]
fn churn_at_scale_leaves_the_same_overlay() {
    // 3 000 nodes: every join and leave window (2·half = 16 ids a side)
    // sits inside the ring without wrapping, unlike the differential's
    // rings of at most 80. Joins and leaves one at a time, three batch
    // leaves (the second a ring-contiguous run, whose members name each
    // other), and routes that evict dead table entries lazily; every 50
    // events the whole overlay, its counters and its sharing with a
    // snapshot taken after the build are folded into one digest.
    let mut rng = StdRng::seed_from_u64(29);
    let mut ov = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..3000 {
        ov.add_random_node(&mut rng);
    }
    let snap = ov.clone();
    let (mut events, mut digest) = (0usize, FNV_OFFSET);
    let mut tick = |ov: &Overlay| {
        events += 1;
        if events % 50 == 0 {
            digest = fold_overlay(digest, ov, &snap);
        }
    };
    for i in 0..400 {
        let victim = ov.random_node(&mut rng).expect("non-empty overlay");
        assert!(ov.remove_node(victim));
        tick(&ov);
        ov.add_random_node(&mut rng);
        tick(&ov);
        if i % 2 == 0 {
            let from = ov.random_node(&mut rng).expect("non-empty overlay");
            let key = Id::random(&mut rng);
            let out = ov.route(from, key).expect("route completes");
            assert_eq!(Some(out.root), ov.owner_of(key));
            tick(&ov);
        }
        if matches!(i, 100 | 200 | 300) {
            let batch: Vec<Id> = if i == 200 {
                let first = ov.random_node(&mut rng).expect("non-empty overlay");
                std::iter::once(first)
                    .chain(ov.successors(first, 19))
                    .collect()
            } else {
                (0..20).filter_map(|_| ov.random_node(&mut rng)).collect()
            };
            assert!(ov.remove_nodes(&batch) > 15);
            tick(&ov);
        }
    }
    assert_eq!(ov.leafset_drift(), None);
    ov.assert_tables_structurally_valid();
    assert_eq!(events, 400 * 2 + 200 + 3);
    assert_eq!(digest, CHURN_AT_SCALE, "digest {}", pin(digest));
}

// ----------------------------------------------------------------------
// Differential against the wide repair
// ----------------------------------------------------------------------

/// A substrate the differential can drive: membership changes, plus the
/// replica set computed the way it was before this repair existed.
trait Ring: KeyRouter + Sized {
    fn empty() -> Self;
    fn join(&mut self, id: Id) -> bool;
    fn leave(&mut self, id: Id) -> bool;
    fn sample(&self, rng: &mut StdRng) -> Option<Id>;
    fn assert_exact(&self);
    fn reference_replica_set(&self, key: Id, k: usize) -> Vec<Id>;
}

impl Ring for Overlay {
    fn empty() -> Self {
        Overlay::new(PastryConfig::paper_defaults())
    }
    fn join(&mut self, id: Id) -> bool {
        self.add_node(id)
    }
    fn leave(&mut self, id: Id) -> bool {
        self.remove_node(id)
    }
    fn sample(&self, rng: &mut StdRng) -> Option<Id> {
        self.random_node(rng)
    }
    fn assert_exact(&self) {
        assert_eq!(self.leafset_drift(), None);
    }
    /// The k nearest on each side, merged by sorting on ring distance.
    fn reference_replica_set(&self, key: Id, k: usize) -> Vec<Id> {
        let take = k.min(self.len());
        let mut cands = self.successors(key, take);
        if self.is_live(key) {
            cands.push(key);
        }
        cands.extend(self.predecessors(key, take));
        cands.sort_by(|a, b| key.cmp_distance(*a, *b));
        cands.dedup();
        cands.truncate(take);
        cands
    }
}

impl Ring for ChordOverlay {
    fn empty() -> Self {
        ChordOverlay::new(ChordConfig::defaults())
    }
    fn join(&mut self, id: Id) -> bool {
        self.add_node(id)
    }
    fn leave(&mut self, id: Id) -> bool {
        self.remove_node(id)
    }
    fn sample(&self, rng: &mut StdRng) -> Option<Id> {
        self.random_node(rng)
    }
    fn assert_exact(&self) {
        self.assert_ring_exact();
    }
    /// Chord's successor-list replica set is not what changed.
    fn reference_replica_set(&self, key: Id, k: usize) -> Vec<Id> {
        self.replica_set(key, k)
    }
}

/// `R` with its replica set swapped for the reference one.
struct Reference<'a, R>(&'a R);

impl<R: Ring> KeyRouter for Reference<'_, R> {
    fn is_live(&self, node: Id) -> bool {
        self.0.is_live(node)
    }
    fn owner_of(&self, key: Id) -> Option<Id> {
        self.0.owner_of(key)
    }
    fn replica_set(&self, key: Id, k: usize) -> Vec<Id> {
        self.0.reference_replica_set(key, k)
    }
    fn following(&self, from: Id, n: usize, out: &mut Vec<Id>) {
        self.0.following(from, n, out)
    }
    fn preceding(&self, from: Id, n: usize, out: &mut Vec<Id>) {
        self.0.preceding(from, n, out)
    }
    fn route_path(&mut self, from: Id, _key: Id) -> Result<Vec<Id>, RouteError> {
        Err(RouteError::UnknownSource(from))
    }
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
}

// ----------------------------------------------------------------------
// The store as it was
// ----------------------------------------------------------------------

/// `ReplicaStore` before the ring-ordered rewrite, kept verbatim but for
/// the methods the differential never calls (`on_node_added`, `iter`,
/// `get_value_mut`, `assert_replica_invariant`): a per-node `held` index
/// and a per-object `ever_held` history beside the holders.
struct OldStore<V> {
    k: usize,
    objects: IdHashMap<OldRecord<V>>,
    /// Inverted index: node → object keys it currently holds.
    held: IdHashMap<IdHashSet>,
    instruments: OldInstruments,
}

struct OldRecord<V> {
    value: V,
    holders: Vec<Id>,
    /// Every node that ever appeared in the replica set.
    ever_held: IdHashSet,
}

struct OldInstruments {
    registry: Registry,
    inserts: Arc<Counter>,
    evictions: Arc<Counter>,
    repairs: Arc<Counter>,
}

impl OldInstruments {
    fn new(registry: Registry) -> Self {
        OldInstruments {
            inserts: registry.counter("pastry.replica.inserts"),
            evictions: registry.counter("pastry.replica.evictions"),
            repairs: registry.counter("pastry.replica.repairs"),
            registry,
        }
    }
}

impl<V> OldStore<V> {
    fn new(k: usize) -> Self {
        assert!(k >= 1, "replication factor must be at least 1");
        OldStore {
            k,
            objects: IdHashMap::default(),
            held: IdHashMap::default(),
            instruments: OldInstruments::new(Registry::new()),
        }
    }

    fn metrics(&self) -> &Registry {
        &self.instruments.registry
    }

    fn replication(&self) -> usize {
        self.k
    }

    fn len(&self) -> usize {
        self.objects.len()
    }

    fn insert(&mut self, overlay: &impl KeyRouter, key: Id, value: V) -> Result<bool, ()> {
        if self.objects.contains_key(&key) {
            return Ok(false);
        }
        let holders = overlay.replica_set(key, self.k);
        if holders.is_empty() {
            return Err(());
        }
        for h in &holders {
            self.held.entry(*h).or_default().insert(key);
        }
        let ever_held = holders.iter().copied().collect();
        self.objects.insert(
            key,
            OldRecord {
                value,
                holders,
                ever_held,
            },
        );
        self.instruments.inserts.inc();
        Ok(true)
    }

    fn get(&self, key: Id) -> Option<&OldRecord<V>> {
        self.objects.get(&key)
    }

    fn remove(&mut self, key: Id) -> Option<V> {
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

    fn holders(&self, key: Id) -> &[Id] {
        self.objects
            .get(&key)
            .map(|r| r.holders.as_slice())
            .unwrap_or(&[])
    }

    fn held_by(&self, node: Id) -> impl Iterator<Item = Id> + '_ {
        self.held.get(&node).into_iter().flatten().copied()
    }

    fn reassign(&mut self, key: Id, new_holders: Vec<Id>) {
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

    fn repair_key(&mut self, overlay: &impl KeyRouter, key: Id) -> bool {
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

    fn on_node_removed(&mut self, overlay: &impl KeyRouter, node: Id) {
        let Some(keys) = self.held.remove(&node) else {
            return;
        };
        for key in keys {
            let new_holders = overlay.replica_set(key, self.k);
            self.reassign(key, new_holders);
        }
    }

    fn on_nodes_removed(&mut self, overlay: &impl KeyRouter, nodes: &[Id]) {
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
}

/// The join repair before the neighbour repair: every key held within
/// `2k + 2` ring positions of the newcomer is a candidate.
fn wide_join_repair(store: &mut OldStore<u32>, ring: &impl KeyRouter, node: Id) {
    let reach = 2 * store.replication() + 2;
    let mut near = Vec::new();
    ring.following(node, reach, &mut near);
    ring.preceding(node, reach, &mut near);
    let mut candidates = BTreeSet::new();
    for n in near {
        candidates.extend(store.held_by(n));
    }
    for key in candidates {
        store.repair_key(ring, key);
    }
}

// ----------------------------------------------------------------------
// Differential
// ----------------------------------------------------------------------

const STORE_COUNTERS: [&str; 3] = [
    "pastry.replica.inserts",
    "pastry.replica.repairs",
    "pastry.replica.evictions",
];

struct Pair<R> {
    ring: R,
    new: ReplicaStore<u32>,
    old: OldStore<u32>,
    /// The nodes the new store's exposure ledger watches, installed while
    /// both stores were empty.
    watched: Vec<Id>,
    /// Every key and node the run has ever named.
    keys: Vec<Id>,
    nodes: BTreeSet<Id>,
    /// A leave went unreported since the last repair of every key on a
    /// non-empty ring: holders may be stale, differently in each store.
    stale: bool,
    /// A leave ever went unreported: the two stores' repair histories,
    /// hence their counters and ledgers, may differ for good.
    diverged: bool,
}

impl<R: Ring> Pair<R> {
    fn new(k: usize, watched: Vec<Id>) -> Self {
        let mut new = ReplicaStore::new(k);
        new.use_metrics(Registry::new());
        new.watch(watched.iter().copied());
        Pair {
            ring: R::empty(),
            new,
            old: OldStore::new(k),
            watched,
            keys: Vec::new(),
            nodes: BTreeSet::new(),
            stale: false,
            diverged: false,
        }
    }

    fn join(&mut self, id: Id) {
        if self.ring.join(id) {
            self.nodes.insert(id);
            self.new.on_node_added(&self.ring, id);
            wide_join_repair(&mut self.old, &Reference(&self.ring), id);
        }
        self.check("join");
    }

    fn leave(&mut self, id: Id) {
        assert!(self.ring.leave(id));
        self.new.on_node_removed(&self.ring, id);
        self.old.on_node_removed(&Reference(&self.ring), id);
        self.check("leave");
    }

    /// A leave neither store hears of (`fail_node(id, false)`).
    fn leave_unreported(&mut self, id: Id) {
        assert!(self.ring.leave(id));
        (self.stale, self.diverged) = (true, true);
        self.check("unreported leave");
    }

    fn leave_batch(&mut self, ids: &[Id]) {
        for id in ids {
            self.ring.leave(*id);
        }
        self.new.on_nodes_removed(&self.ring, ids);
        self.old.on_nodes_removed(&Reference(&self.ring), ids);
        self.check("batch leave");
    }

    fn insert(&mut self, key: Id, value: u32) {
        self.keys.push(key);
        let got = self.new.insert(&self.ring, key, value);
        assert_eq!(
            got.ok(),
            self.old.insert(&Reference(&self.ring), key, value).ok()
        );
        self.check("insert");
    }

    fn remove(&mut self, key: Id) {
        assert_eq!(self.new.remove(key), self.old.remove(key));
        self.check("remove");
    }

    fn repair_key(&mut self, key: Id) {
        let got = self.new.repair_key(&self.ring, key);
        let want = self.old.repair_key(&Reference(&self.ring), key);
        if !self.stale {
            assert_eq!(got, want, "repair_key");
        }
        self.check("repair key");
    }

    fn repair_every_key(&mut self) {
        for key in self.keys.clone() {
            self.new.repair_key(&self.ring, key);
            self.old.repair_key(&Reference(&self.ring), key);
        }
        // On an empty ring `repair_key` has nowhere to put a replica.
        if self.ring.node_count() > 0 {
            self.stale = false;
        }
        self.check("repair every key");
    }

    fn check(&self, what: &str) {
        self.ring.assert_exact();
        assert_eq!(self.new.len(), self.old.len(), "{what}: objects");
        if self.stale {
            return;
        }
        for key in &self.keys {
            let holders = self.new.holders(*key);
            assert_eq!(holders, self.old.holders(*key), "{what}: holders");
            // Keys whose every holder left while the ring emptied keep an
            // empty set; nothing can copy them onto a newcomer.
            if !holders.is_empty() {
                assert_eq!(holders, self.ring.replica_set(*key, self.new.replication()));
            }
        }
        for node in &self.nodes {
            let held: BTreeSet<Id> = self
                .new
                .iter()
                .filter(|(_, rec)| rec.holders.contains(node))
                .map(|(key, _)| key)
                .collect();
            let want: BTreeSet<Id> = self.old.held_by(*node).collect();
            assert_eq!(held, want, "{what}: holdings");
            assert!(self.ring.is_live(*node) || held.is_empty());
        }
        if self.diverged {
            return;
        }
        for key in &self.keys {
            let ever = self
                .old
                .get(*key)
                .is_some_and(|rec| rec.ever_held.iter().any(|h| self.watched.contains(h)));
            assert_eq!(self.new.exposed(*key), ever, "{what}: exposure");
        }
        let (got, want) = (self.new.metrics().snapshot(), self.old.metrics().snapshot());
        for name in STORE_COUNTERS {
            assert_eq!(got.counter(name), want.counter(name), "{what}: {name}");
        }
    }
}

/// Rings of 0 … 40 nodes: empty, smaller than `k`, smaller than a leaf set,
/// and larger than all three.
fn run<R: Ring>(seed: u64, k: usize, start: usize, script: &[u8]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let watched: Vec<Id> = (0..6).map(|_| Id::random(&mut rng)).collect();
    let mut pair = Pair::<R>::new(k, watched.clone());
    let pick_watched = |rng: &mut StdRng| watched[rng.gen_range(0..watched.len())];
    for i in 0..start {
        let id = if i % 3 == 0 {
            pick_watched(&mut rng)
        } else {
            Id::random(&mut rng)
        };
        pair.join(id);
        pair.insert(Id::random(&mut rng), i as u32);
    }
    for op in script {
        let live = pair.ring.node_count();
        match op % 9 {
            0 => pair.insert(Id::random(&mut rng), u32::from(*op)),
            1 if !pair.keys.is_empty() => {
                let key = pair.keys[rng.gen_range(0..pair.keys.len())];
                pair.remove(key);
            }
            2 | 3 if live < 40 => {
                // Next to a stored key (it must take a replica over), on a
                // live id (a no-op), on a watched id, or anywhere.
                let id = match (op / 9) % 5 {
                    0 if !pair.keys.is_empty() => {
                        let key = pair.keys[rng.gen_range(0..pair.keys.len())];
                        key.wrapping_add(Id::from_u64(1))
                    }
                    1 if live > 0 => pair.ring.sample(&mut rng).unwrap(),
                    2 => pick_watched(&mut rng),
                    _ => Id::random(&mut rng),
                };
                pair.join(id);
            }
            4 if live > 0 => {
                let victim = pair.ring.sample(&mut rng).unwrap();
                if op / 9 % 8 == 0 {
                    pair.leave_unreported(victim);
                } else {
                    pair.leave(victim);
                }
            }
            5 if live > 4 => {
                // A whole replica set at once, a stranger and a duplicate.
                let first = pair.ring.sample(&mut rng).unwrap();
                let mut batch = Vec::new();
                pair.ring.following(first, 2, &mut batch);
                batch.push(first);
                batch.extend(pair.ring.sample(&mut rng));
                batch.push(first);
                pair.leave_batch(&batch);
            }
            6 if !pair.keys.is_empty() => {
                let key = pair.keys[rng.gen_range(0..pair.keys.len())];
                pair.repair_key(key);
            }
            7 if op / 9 % 4 == 0 => pair.repair_every_key(),
            _ => {}
        }
    }
    pair.repair_every_key();
}

fn both_substrates(seed: u64, k: usize, start: usize, script: &[u8]) {
    let k = [1, 2, 3, 5][k];
    run::<Overlay>(seed, k, start, script);
    run::<ChordOverlay>(seed, k, start, script);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prop_neighbour_join_repair_matches_the_wide_repair(
        seed in any::<u64>(),
        k in 0usize..4,
        start in 1usize..=40,
        script in proptest::collection::vec(any::<u8>(), 20..80),
    ) {
        both_substrates(seed, k, start, &script);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]
    /// The same differential at CI scale (release, `--ignored`): 4 000
    /// cases of up to 200 ops.
    #[test]
    #[ignore]
    fn prop_ring_store_matches_the_old_store_4000_cases(
        seed in any::<u64>(),
        k in 0usize..4,
        start in 1usize..=40,
        script in proptest::collection::vec(any::<u8>(), 20..200),
    ) {
        both_substrates(seed, k, start, &script);
    }
}
