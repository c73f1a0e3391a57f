//! The Chord ring: membership, finger routing, successor-list failover.
//!
//! Like the Pastry overlay, node state is `Arc`-shared copy-on-write:
//! clones and [`ChordOverlay::checkpoint`] snapshots cost one pointer
//! bump per node, and a mutation copies only the node it touches.

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;

use rand::Rng;
use tap_id::{Id, Ring, ID_BITS};
use tap_pastry::substrate::{KeyRouter, Snapshots};
use tap_pastry::RouteError;

/// Chord parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChordConfig {
    /// Successor-list length `r` (Chord's failover depth; the paper on
    /// Chord suggests `r = Ω(log N)`; 8 covers the network sizes here).
    pub successor_list: usize,
    /// Replication factor for the DHash-style replica set exposed to TAP.
    pub replication: usize,
}

impl ChordConfig {
    /// `r = 8`, `k = 3` — comparable to the Pastry defaults.
    pub fn defaults() -> Self {
        ChordConfig {
            successor_list: 8,
            replication: 3,
        }
    }

    /// Panics on inconsistent parameters.
    pub fn validate(&self) {
        assert!(self.successor_list >= 2, "successor list too short");
        assert!(
            self.replication <= self.successor_list,
            "replicas live on the successor list ({} > {})",
            self.replication,
            self.successor_list
        );
    }
}

/// Per-node Chord state.
#[derive(Debug, Clone)]
pub struct ChordNode {
    /// The node's identifier.
    pub id: Id,
    /// `fingers[i]` ≈ `successor(id + 2^i)`; dead entries repaired lazily.
    pub fingers: Vec<Option<Id>>,
    /// The next `r` live successors, eagerly maintained.
    pub successor_list: Vec<Id>,
    /// The ring predecessor, eagerly maintained.
    pub predecessor: Option<Id>,
}

impl ChordNode {
    fn new(id: Id) -> Self {
        ChordNode {
            id,
            fingers: vec![None; ID_BITS as usize],
            successor_list: Vec::new(),
            predecessor: None,
        }
    }

    /// The immediate successor (self on a singleton ring).
    pub fn successor(&self) -> Id {
        self.successor_list.first().copied().unwrap_or(self.id)
    }

    /// Number of populated finger entries (diagnostics).
    pub fn finger_occupancy(&self) -> usize {
        self.fingers.iter().flatten().count()
    }
}

/// A simulated Chord overlay.
#[derive(Clone)]
pub struct ChordOverlay {
    config: ChordConfig,
    nodes: HashMap<Id, Arc<ChordNode>>,
    ring: Ring,
    order: Vec<Id>,
    pos: HashMap<Id, usize>,
}

/// A saved membership state from [`ChordOverlay::checkpoint`]: ring
/// indexes plus one `Arc` per node (pointer-sized, not finger-table-
/// sized).
#[derive(Clone)]
pub struct ChordCheckpoint {
    nodes: HashMap<Id, Arc<ChordNode>>,
    ring: Ring,
    order: Vec<Id>,
    pos: HashMap<Id, usize>,
}

impl ChordOverlay {
    /// An empty ring.
    pub fn new(config: ChordConfig) -> Self {
        config.validate();
        ChordOverlay {
            config,
            nodes: HashMap::new(),
            ring: Ring::new(),
            order: Vec::new(),
            pos: HashMap::new(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ChordConfig {
        &self.config
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Iterate over live node ids in ring order.
    pub fn ids(&self) -> impl Iterator<Item = Id> + '_ {
        self.ring.clockwise(Bound::Unbounded)
    }

    /// Borrow a node's state.
    pub fn node(&self, id: Id) -> Option<&ChordNode> {
        self.nodes.get(&id).map(|n| &**n)
    }

    /// Save the current membership state (structural sharing; no finger
    /// table or successor list is copied).
    pub fn checkpoint(&self) -> ChordCheckpoint {
        ChordCheckpoint {
            nodes: self.nodes.clone(),
            ring: self.ring.clone(),
            order: self.order.clone(),
            pos: self.pos.clone(),
        }
    }

    /// Restore a state saved by [`ChordOverlay::checkpoint`], discarding
    /// every membership mutation made since.
    pub fn rollback(&mut self, cp: &ChordCheckpoint) {
        self.nodes = cp.nodes.clone();
        self.ring.clone_from(&cp.ring);
        self.order = cp.order.clone();
        self.pos = cp.pos.clone();
    }

    /// A fully-owned copy sharing no node state with `self` (the deep
    /// oracle for the snapshot proptests).
    pub fn deep_clone(&self) -> ChordOverlay {
        ChordOverlay {
            config: self.config,
            nodes: self
                .nodes
                .iter()
                .map(|(&id, n)| (id, Arc::new(n.as_ref().clone())))
                .collect(),
            ring: self.ring.clone(),
            order: self.order.clone(),
            pos: self.pos.clone(),
        }
    }

    /// How many node handles are physically shared with `other`
    /// (diagnostics for the snapshot tests).
    pub fn handles_shared_with(&self, other: &ChordOverlay) -> usize {
        self.nodes
            .iter()
            .filter(|(id, n)| other.nodes.get(id).is_some_and(|o| Arc::ptr_eq(n, o)))
            .count()
    }

    /// A uniformly random live node.
    pub fn random_node<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Id> {
        if self.order.is_empty() {
            return None;
        }
        Some(self.order[rng.gen_range(0..self.order.len())])
    }

    /// Oracle: the first live node at or clockwise of `key` — Chord's
    /// `successor(key)`, the node responsible for it.
    pub fn successor_of(&self, key: Id) -> Option<Id> {
        self.ring.clockwise(Bound::Included(key)).next()
    }

    /// Oracle: `n` live nodes clockwise of `from` (exclusive).
    pub fn successors(&self, from: Id, n: usize) -> Vec<Id> {
        self.ring.clockwise(Bound::Excluded(from)).take(n).collect()
    }

    /// Oracle: `n` live nodes counter-clockwise of `from` (exclusive).
    pub fn predecessors(&self, from: Id, n: usize) -> Vec<Id> {
        (self.ring.counter_clockwise(Bound::Excluded(from)))
            .take(n)
            .collect()
    }

    /// Add a node with a fresh random id; returns it.
    pub fn add_random_node<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Id {
        loop {
            let id = Id::random(rng);
            if self.add_node(id) {
                return id;
            }
        }
    }

    /// Join `id`. Fingers are built by lookups (here: against the oracle,
    /// the converged result of `fix_fingers`); the successor lists and
    /// predecessor pointers of the ring neighbourhood are updated eagerly,
    /// as Chord's `stabilize()` would converge to. Returns `false` if the
    /// id is taken.
    pub fn add_node(&mut self, id: Id) -> bool {
        if self.ring.contains(id) {
            return false;
        }
        self.ring.insert(id);
        self.pos.insert(id, self.order.len());
        self.order.push(id);

        let mut node = ChordNode::new(id);
        self.init_fingers(&mut node);
        node.successor_list = self.successors(id, self.config.successor_list);
        node.predecessor = self.predecessors(id, 1).first().copied();
        self.nodes.insert(id, Arc::new(node));

        // Eager repair of the neighbourhood: the r predecessors now have a
        // new entry in their successor lists; the old successor gets a new
        // predecessor.
        self.repair_neighbourhood(id);
        true
    }

    /// Remove (leave or fail-stop) `id`. Idempotent: removing an id that
    /// is not (or no longer) live returns `false` and changes nothing.
    pub fn remove_node(&mut self, id: Id) -> bool {
        if !self.ring.remove(id) {
            return false;
        }
        self.nodes.remove(&id);
        if let Some(idx) = self.pos.remove(&id) {
            if let Some(last) = self.order.pop() {
                if last != id {
                    self.order[idx] = last;
                    self.pos.insert(last, idx);
                }
            }
        }
        self.repair_neighbourhood(id);
        true
    }

    /// Recompute successor lists and predecessor pointers for the `r`
    /// nodes preceding `around` and its successor.
    fn repair_neighbourhood(&mut self, around: Id) {
        let r = self.config.successor_list;
        let mut affected = self.predecessors(around, r);
        // The strict successor (exclusive — `successor_of` would return
        // `around` itself right after a join).
        affected.extend(self.successors(around, 1));
        if self.ring.contains(around) {
            affected.push(around);
        }
        for a in affected {
            let list = self.successors(a, r);
            let pred = self.predecessors(a, 1).first().copied();
            if let Some(slot) = self.nodes.get_mut(&a) {
                // Copy the node out of snapshot sharing only when the
                // repair actually changes it.
                if slot.successor_list != list || slot.predecessor != pred {
                    let n = Arc::make_mut(slot);
                    n.successor_list = list;
                    n.predecessor = pred;
                }
            }
        }
    }

    fn init_fingers(&self, node: &mut ChordNode) {
        let mut offset = Id::from_u64(1);
        for i in 0..ID_BITS as usize {
            let start = node.id.wrapping_add(offset);
            let target = self.successor_of(start).filter(|t| *t != node.id);
            node.fingers[i] = target;
            offset = offset.wrapping_add(offset); // 2^(i+1)
        }
    }

    /// The best live finger of `current` strictly inside `(current, key)`
    /// going clockwise — Chord's `closest_preceding_node`. Evicts dead
    /// fingers it inspects.
    fn closest_preceding(&mut self, current: Id, key: Id) -> Option<Id> {
        let node = self.nodes.get(&current)?;
        let mut best: Option<Id> = None;
        let mut dead: Vec<usize> = Vec::new();
        for (i, f) in node.fingers.iter().enumerate() {
            let Some(f) = *f else { continue };
            if !self.ring.contains(f) {
                dead.push(i);
                continue;
            }
            // f ∈ (current, key) clockwise, i.e. strictly before key.
            if f != key && f.between_cw(current, key) {
                // Prefer the one closest to (just before) the key.
                if best.is_none_or(|b| f.between_cw(b, key)) {
                    best = Some(f);
                }
            }
        }
        // Successor-list entries are candidates too (and are live by
        // maintenance).
        for s in &node.successor_list.clone() {
            if *s != key && s.between_cw(current, key) && best.is_none_or(|b| s.between_cw(b, key))
            {
                best = Some(*s);
            }
        }
        if !dead.is_empty() {
            if let Some(slot) = self.nodes.get_mut(&current) {
                let node = Arc::make_mut(slot);
                for i in dead {
                    // Lazy repair: replace with the oracle's converged
                    // value (what fix_fingers would eventually install),
                    // or clear.
                    node.fingers[i] = None;
                }
            }
        }
        best
    }

    /// Route `key` from `from` using per-node fingers; returns the node
    /// path ending at `successor(key)`.
    pub fn route(&mut self, from: Id, key: Id) -> Result<Vec<Id>, RouteError> {
        if self.ring.is_empty() {
            return Err(RouteError::EmptyOverlay);
        }
        if !self.ring.contains(from) {
            return Err(RouteError::UnknownSource(from));
        }
        let mut current = from;
        let mut path = vec![from];
        let max_hops = ID_BITS as usize + self.ring.len() + 16;
        loop {
            if path.len() > max_hops {
                return Err(RouteError::Loop);
            }
            // Am I responsible? (key ∈ (predecessor, current])
            let node = &self.nodes[&current];
            if let Some(pred) = node.predecessor {
                if current == key || key.between_cw(pred, current) {
                    return Ok(path);
                }
            } else if self.ring.len() == 1 {
                return Ok(path);
            }
            // Does the key fall to my immediate successor?
            let succ = self.live_successor(current)?;
            if succ == key || key.between_cw(current, succ) {
                path.push(succ);
                return Ok(path);
            }
            // Otherwise jump through the closest preceding finger.
            let next = self.closest_preceding(current, key).unwrap_or(succ);
            debug_assert!(self.ring.contains(next));
            if next == current {
                return Err(RouteError::Stuck { at: current, key });
            }
            path.push(next);
            current = next;
        }
    }

    /// First live entry of `current`'s successor list (repairing the list
    /// head if the maintained invariant was somehow violated).
    fn live_successor(&mut self, current: Id) -> Result<Id, RouteError> {
        let node = &self.nodes[&current];
        for s in &node.successor_list {
            if self.ring.contains(*s) {
                return Ok(*s);
            }
        }
        // Singleton ring or fully stale list.
        if self.ring.len() == 1 {
            return Ok(current);
        }
        Err(RouteError::Stuck {
            at: current,
            key: current,
        })
    }

    /// Assert every node's successor list and predecessor match the oracle
    /// ring exactly (test helper).
    pub fn assert_ring_exact(&self) {
        let r = self.config.successor_list;
        for (&id, node) in &self.nodes {
            assert_eq!(
                node.successor_list,
                self.successors(id, r),
                "successor list of {id:?} drifted"
            );
            assert_eq!(
                node.predecessor,
                self.predecessors(id, 1).first().copied(),
                "predecessor of {id:?} drifted"
            );
        }
    }
}

impl Snapshots for ChordOverlay {
    type Checkpoint = ChordCheckpoint;

    fn checkpoint(&self) -> Self::Checkpoint {
        ChordOverlay::checkpoint(self)
    }

    fn rollback(&mut self, cp: &Self::Checkpoint) {
        ChordOverlay::rollback(self, cp)
    }
}

impl KeyRouter for ChordOverlay {
    fn is_live(&self, node: Id) -> bool {
        self.ring.contains(node)
    }

    fn owner_of(&self, key: Id) -> Option<Id> {
        self.successor_of(key)
    }

    fn replica_set(&self, key: Id, k: usize) -> Vec<Id> {
        // DHash-style: the responsible node plus its k-1 successors.
        let Some(root) = self.successor_of(key) else {
            return Vec::new();
        };
        let mut out = vec![root];
        out.extend(self.successors(root, k.saturating_sub(1)));
        out.dedup();
        out
    }

    fn following(&self, from: Id, n: usize, out: &mut Vec<Id>) {
        out.extend(self.ring.clockwise(Bound::Excluded(from)).take(n))
    }

    fn preceding(&self, from: Id, n: usize, out: &mut Vec<Id>) {
        out.extend(self.ring.counter_clockwise(Bound::Excluded(from)).take(n))
    }

    fn route_path(&mut self, from: Id, key: Id) -> Result<Vec<Id>, RouteError> {
        self.route(from, key)
    }

    fn node_count(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tap_pastry::storage::ReplicaStore;

    fn build(n: usize, seed: u64) -> (ChordOverlay, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ov = ChordOverlay::new(ChordConfig::defaults());
        for _ in 0..n {
            ov.add_random_node(&mut rng);
        }
        (ov, rng)
    }

    #[test]
    fn singleton_owns_everything() {
        let (mut ov, mut rng) = build(1, 1);
        let only = ov.ids().next().unwrap();
        let key = Id::random(&mut rng);
        assert_eq!(ov.successor_of(key), Some(only));
        let path = ov.route(only, key).unwrap();
        assert_eq!(path, vec![only]);
    }

    #[test]
    fn route_reaches_oracle_successor() {
        let (mut ov, mut rng) = build(300, 2);
        for _ in 0..100 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            let want = ov.successor_of(key).unwrap();
            let path = ov.route(src, key).unwrap();
            assert_eq!(*path.last().unwrap(), want, "route vs oracle");
            assert_eq!(path[0], src);
        }
    }

    #[test]
    fn hop_counts_are_logarithmic() {
        let (mut ov, mut rng) = build(1_000, 3);
        let mut total = 0usize;
        let trials = 200;
        for _ in 0..trials {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            total += ov.route(src, key).unwrap().len() - 1;
        }
        let mean = total as f64 / trials as f64;
        // ½ log2(1000) ≈ 5; generous bound catches linear blowup.
        assert!(mean < 9.0, "mean hops {mean} too high for Chord at N=1000");
        assert!(mean > 2.0, "mean hops {mean} implausibly low");
    }

    #[test]
    fn ring_exact_after_churn() {
        let (mut ov, mut rng) = build(150, 4);
        for _ in 0..60 {
            if rng.gen_bool(0.5) && ov.len() > 10 {
                let victim = ov.random_node(&mut rng).unwrap();
                ov.remove_node(victim);
            } else {
                ov.add_random_node(&mut rng);
            }
        }
        ov.assert_ring_exact();
        // Routing still agrees with the oracle after churn.
        for _ in 0..50 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            assert_eq!(
                *ov.route(src, key).unwrap().last().unwrap(),
                ov.successor_of(key).unwrap()
            );
        }
    }

    #[test]
    fn mass_failure_routing_survives() {
        let (mut ov, mut rng) = build(400, 5);
        let ids: Vec<Id> = ov.ids().collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 10 < 3 {
                ov.remove_node(*id);
            }
        }
        for _ in 0..80 {
            let src = ov.random_node(&mut rng).unwrap();
            let key = Id::random(&mut rng);
            assert_eq!(
                *ov.route(src, key).unwrap().last().unwrap(),
                ov.successor_of(key).unwrap()
            );
        }
    }

    #[test]
    fn replica_set_is_successor_run() {
        let (ov, mut rng) = build(100, 6);
        for _ in 0..30 {
            let key = Id::random(&mut rng);
            let set = KeyRouter::replica_set(&ov, key, 3);
            assert_eq!(set.len(), 3);
            assert_eq!(set[0], ov.successor_of(key).unwrap());
            assert_eq!(set[1..], ov.successors(set[0], 2)[..]);
        }
    }

    #[test]
    fn replica_store_runs_over_chord() {
        // The PAST-style replication manager, unmodified, over Chord.
        let (mut ov, mut rng) = build(120, 7);
        let mut store: ReplicaStore<u32> = ReplicaStore::new(3);
        let mut keys = Vec::new();
        for i in 0..50 {
            let key = Id::random(&mut rng);
            assert!(store.insert(&ov, key, i).unwrap());
            keys.push(key);
        }
        assert_eq!(store.replica_drift(&ov), None);
        // Churn with repair.
        for _ in 0..30 {
            let victim = ov.random_node(&mut rng).unwrap();
            ov.remove_node(victim);
            store.on_node_removed(&ov, victim);
            let id = ov.add_random_node(&mut rng);
            store.on_node_added(&ov, id);
        }
        assert_eq!(store.replica_drift(&ov), None);
    }

    #[test]
    fn failover_promotes_next_successor() {
        let (mut ov, mut rng) = build(150, 8);
        let mut store: ReplicaStore<()> = ReplicaStore::new(3);
        let key = Id::random(&mut rng);
        store.insert(&ov, key, ()).unwrap();
        let before = store.holders(key).to_vec();
        ov.remove_node(before[0]);
        // Without repair: the new responsible node is the old candidate.
        assert_eq!(ov.successor_of(key), Some(before[1]));
        assert!(store.holders(key).contains(&before[1]));
    }

    #[test]
    fn duplicate_join_and_unknown_remove() {
        let (mut ov, _) = build(10, 9);
        let id = ov.ids().next().unwrap();
        assert!(!ov.add_node(id));
        assert!(!ov.remove_node(Id::from_u64(42)));
        assert_eq!(ov.len(), 10);
    }

    #[test]
    fn double_remove_is_idempotent() {
        let (mut ov, mut rng) = build(60, 11);
        let victim = ov.random_node(&mut rng).unwrap();
        assert!(ov.remove_node(victim));
        assert!(!ov.remove_node(victim), "second kill is a no-op");
        assert_eq!(ov.len(), 59);
        ov.assert_ring_exact();
    }

    #[test]
    fn checkpoint_rollback_restores_membership() {
        let (mut ov, mut rng) = build(120, 12);
        let before: Vec<Id> = ov.ids().collect();
        let cp = Snapshots::checkpoint(&ov);
        for _ in 0..30 {
            let victim = ov.random_node(&mut rng).unwrap();
            ov.remove_node(victim);
            ov.add_random_node(&mut rng);
        }
        assert_ne!(ov.ids().collect::<Vec<_>>(), before);
        Snapshots::rollback(&mut ov, &cp);
        assert_eq!(ov.ids().collect::<Vec<_>>(), before);
        ov.assert_ring_exact();
        // Rolled-back routing matches a pristine deep clone, key by key.
        let mut oracle = ov.deep_clone();
        let mut rng2 = StdRng::seed_from_u64(99);
        for _ in 0..40 {
            let src = ov.random_node(&mut rng2).unwrap();
            let key = Id::random(&mut rng2);
            assert_eq!(ov.route(src, key), oracle.route(src, key));
        }
    }

    #[test]
    fn cow_clones_isolate_writes_both_ways() {
        let (mut ov, mut rng) = build(80, 13);
        let mut snap = ov.clone();
        assert_eq!(ov.handles_shared_with(&snap), 80);
        let victim = ov.random_node(&mut rng).unwrap();
        assert!(ov.remove_node(victim));
        assert!(
            snap.node(victim).is_some(),
            "snapshot must not see the kill"
        );
        snap.assert_ring_exact();
        let victim2 = loop {
            let v = snap.random_node(&mut rng).unwrap();
            if ov.node(v).is_some() {
                break v;
            }
        };
        assert!(snap.remove_node(victim2));
        assert!(ov.node(victim2).is_some());
        ov.assert_ring_exact();
        snap.assert_ring_exact();
        assert!(ov.handles_shared_with(&snap) > 0, "untouched nodes shared");
    }

    #[test]
    fn finger_tables_shrink_distance() {
        let (ov, mut rng) = build(500, 10);
        // Sanity: fingers point at (or past) their interval starts.
        for _ in 0..20 {
            let n = ov.random_node(&mut rng).unwrap();
            let node = ov.node(n).unwrap();
            assert!(node.finger_occupancy() > 0);
            let mut offset = Id::from_u64(1);
            for f in node.fingers.iter() {
                let start = n.wrapping_add(offset);
                if let Some(f) = f {
                    // f was successor(start) when installed; later joins
                    // may have slid the true successor earlier, but f must
                    // still sit at-or-after the interval start (start ∈
                    // (n, f]), which is all routing progress needs.
                    assert!(
                        start == *f || start.between_cw(n, *f),
                        "finger {f:?} precedes its interval start"
                    );
                }
                offset = offset.wrapping_add(offset);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_route_agrees_with_oracle_under_churn(
            seed in any::<u64>(),
            script in proptest::collection::vec(any::<u8>(), 10..50),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ov = ChordOverlay::new(ChordConfig::defaults());
            for _ in 0..30 {
                ov.add_random_node(&mut rng);
            }
            for op in script {
                match op % 3 {
                    0 => {
                        ov.add_random_node(&mut rng);
                    }
                    1 if ov.len() > 5 => {
                        let victim = ov.random_node(&mut rng).unwrap();
                        ov.remove_node(victim);
                    }
                    _ => {
                        let src = ov.random_node(&mut rng).unwrap();
                        let key = Id::random(&mut rng);
                        let path = ov.route(src, key).unwrap();
                        prop_assert_eq!(
                            *path.last().unwrap(),
                            ov.successor_of(key).unwrap()
                        );
                    }
                }
            }
            ov.assert_ring_exact();
        }

        #[test]
        fn prop_replica_set_is_prefix_stable_under_failure(
            seed in any::<u64>(),
            kill in 0usize..3,
        ) {
            // Killing the first `kill` members of a replica set promotes
            // the (kill+1)-th to responsible — TAP's failover contract.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ov = ChordOverlay::new(ChordConfig::defaults());
            for _ in 0..60 {
                ov.add_random_node(&mut rng);
            }
            let key = Id::random(&mut rng);
            let set = KeyRouter::replica_set(&ov, key, 4);
            for victim in set.iter().take(kill) {
                ov.remove_node(*victim);
            }
            prop_assert_eq!(ov.successor_of(key), Some(set[kill]));
        }
    }
}
