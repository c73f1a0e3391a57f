//! Replica repair on membership events, pinned from outside the crates.
//!
//! `ReplicaStore::on_node_added` looks for work only at the newcomer's two
//! ring neighbours. Two things keep that honest on both substrates:
//!
//! * a **work count** — how many oracle queries one join and one leave
//!   make, asserted as numbers through a counting [`KeyRouter`]; and
//! * a **differential** run against the repair as it was before: candidate
//!   keys from `2k + 2` nodes on each side of the newcomer and, on Pastry, a
//!   replica set found by sorting both sides' `k` nearest.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tap::chord::{ChordConfig, ChordOverlay};
use tap::id::Id;
use tap::pastry::storage::ReplicaStore;
use tap::pastry::{KeyRouter, Overlay, PastryConfig, RouteError};
use tap_metrics::Registry;

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
    fn following(&self, from: Id, n: usize) -> Vec<Id> {
        self.following.borrow_mut().push(n);
        self.inner.following(from, n)
    }
    fn preceding(&self, from: Id, n: usize) -> Vec<Id> {
        self.preceding.borrow_mut().push(n);
        self.inner.preceding(from, n)
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

    let (mut join_queries, mut leave_queries) = (0, 0);
    for _ in 0..40 {
        let id = overlay.add_random_node(&mut rng);
        let neighbours: BTreeSet<Id> = overlay
            .successors(id, 1)
            .into_iter()
            .chain(overlay.predecessors(id, 1))
            .flat_map(|n| store.held_by(n))
            .collect();
        let counting = Counting::over(&overlay);
        store.on_node_added(&counting, id);
        assert_eq!(*counting.following.borrow(), [1]);
        assert_eq!(*counting.preceding.borrow(), [1]);
        assert!(counting.replica_sets.get() <= neighbours.len());
        join_queries += counting.replica_sets.get();

        let victim = overlay.random_node(&mut rng).unwrap();
        let held = store.held_by(victim).count();
        overlay.remove_node(victim);
        let counting = Counting::over(&overlay);
        store.on_node_removed(&counting, victim);
        assert!(counting.following.borrow().is_empty());
        assert!(counting.preceding.borrow().is_empty());
        assert_eq!(counting.replica_sets.get(), held);
        leave_queries += held;
    }
    store.assert_replica_invariant(&overlay);
    // 15 000 replicas on 2 000 nodes: 7.5 keys a node, so about 12 distinct
    // keys at a newcomer's two neighbours. The run is a pure function of
    // the seed; a change in either total is a change in the work done.
    assert_eq!((join_queries, leave_queries), (443, 328));
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
        self.assert_leafsets_exact();
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
    fn following(&self, from: Id, n: usize) -> Vec<Id> {
        self.0.following(from, n)
    }
    fn preceding(&self, from: Id, n: usize) -> Vec<Id> {
        self.0.preceding(from, n)
    }
    fn route_path(&mut self, from: Id, _key: Id) -> Result<Vec<Id>, RouteError> {
        Err(RouteError::UnknownSource(from))
    }
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
}

/// The join repair as it was: every key held within `2k + 2` ring
/// positions of the newcomer is a candidate.
fn wide_join_repair(store: &mut ReplicaStore<u32>, ring: &impl KeyRouter, node: Id) {
    let reach = 2 * store.replication() + 2;
    let mut candidates = BTreeSet::new();
    for n in ring
        .following(node, reach)
        .into_iter()
        .chain(ring.preceding(node, reach))
    {
        candidates.extend(store.held_by(n));
    }
    for key in candidates {
        store.repair_key(ring, key);
    }
}

const STORE_COUNTERS: [&str; 3] = [
    "pastry.replica.inserts",
    "pastry.replica.repairs",
    "pastry.replica.evictions",
];

struct Pair<R> {
    ring: R,
    new: ReplicaStore<u32>,
    old: ReplicaStore<u32>,
    /// Every key and node the run has ever named.
    keys: Vec<Id>,
    nodes: BTreeSet<Id>,
}

impl<R: Ring> Pair<R> {
    fn new(k: usize) -> Self {
        let (mut new, mut old) = (ReplicaStore::new(k), ReplicaStore::new(k));
        new.use_metrics(Registry::new());
        old.use_metrics(Registry::new());
        Pair {
            ring: R::empty(),
            new,
            old,
            keys: Vec::new(),
            nodes: BTreeSet::new(),
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
        assert_eq!(got, self.old.insert(&Reference(&self.ring), key, value));
        self.check("insert");
    }

    fn remove(&mut self, key: Id) {
        assert_eq!(self.new.remove(key), self.old.remove(key));
        self.check("remove");
    }

    fn check(&self, what: &str) {
        self.ring.assert_exact();
        self.new.assert_replica_invariant(&self.ring);
        assert_eq!(self.new.len(), self.old.len(), "{what}: objects");
        for key in &self.keys {
            assert_eq!(
                self.new.holders(*key),
                self.old.holders(*key),
                "{what}: holders"
            );
            let history = |s: &ReplicaStore<u32>| -> Option<BTreeSet<Id>> {
                s.get(*key).map(|r| r.ever_held.iter().copied().collect())
            };
            assert_eq!(history(&self.new), history(&self.old), "{what}: ever_held");
        }
        for node in &self.nodes {
            let held = |s: &ReplicaStore<u32>| s.held_by(*node).collect::<BTreeSet<Id>>();
            assert_eq!(held(&self.new), held(&self.old), "{what}: held index");
            assert!(self.ring.is_live(*node) || held(&self.new).is_empty());
        }
        let (got, want) = (self.new.metrics().snapshot(), self.old.metrics().snapshot());
        for name in STORE_COUNTERS {
            assert_eq!(got.counter(name), want.counter(name), "{what}: {name}");
        }
    }
}

/// Rings of 1 … 40 nodes: smaller than `k`, smaller than a leaf set, and
/// larger than both.
fn run<R: Ring>(seed: u64, k: usize, start: usize, script: &[u8]) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pair = Pair::<R>::new(k);
    for i in 0..start {
        pair.join(Id::random(&mut rng));
        pair.insert(Id::random(&mut rng), i as u32);
    }
    for op in script {
        let live = pair.ring.node_count();
        match op % 6 {
            0 => pair.insert(Id::random(&mut rng), u32::from(*op)),
            1 if !pair.keys.is_empty() => {
                let key = pair.keys[rng.gen_range(0..pair.keys.len())];
                pair.remove(key);
            }
            2 | 3 if live < 40 => {
                // Next to a stored key (it must take a replica over), on a
                // live id (a no-op), or anywhere.
                let id = match (op / 6) % 4 {
                    0 if !pair.keys.is_empty() => {
                        let key = pair.keys[rng.gen_range(0..pair.keys.len())];
                        key.wrapping_add(Id::from_u64(1))
                    }
                    1 => pair.ring.sample(&mut rng).unwrap(),
                    _ => Id::random(&mut rng),
                };
                pair.join(id);
            }
            4 if live > 1 => {
                let victim = pair.ring.sample(&mut rng).unwrap();
                pair.leave(victim);
            }
            5 if live > 4 => {
                // A whole replica set at once, a stranger and a duplicate.
                let first = pair.ring.sample(&mut rng).unwrap();
                let mut batch = pair.ring.following(first, 2);
                batch.push(first);
                batch.extend(pair.ring.sample(&mut rng));
                batch.push(first);
                pair.leave_batch(&batch);
            }
            _ => {}
        }
    }
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
        let k = [1, 2, 3, 5][k];
        run::<Overlay>(seed, k, start, &script);
        run::<ChordOverlay>(seed, k, start, &script);
    }
}
