//! Leaf sets: the `|L|` nodes numerically closest to a node, half clockwise
//! and half counter-clockwise on the ring.
//!
//! The leaf set serves two roles Pastry's correctness rests on: the final
//! routing step (if the key falls inside the leaf-set span, the closest
//! leaf is the root) and replica placement (PAST stores an object on the
//! root plus its nearest leaves). Leaf sets are kept eagerly consistent
//! under churn by [`crate::Overlay`].
//!
//! Each side is an exact-size `Arc`-shared slice: cloning a leaf set is two
//! pointer bumps, and a mutation writes only the one side it changes — in
//! place when no clone shares that side, else into a fresh allocation — the
//! copy-on-write contract overlay snapshots rely on. [`LeafSet::rebuild`],
//! the overlay's writer, compares each side before writing it. The farthest
//! member of each side is cached inline, so the span test every forwarding
//! step makes ([`LeafSet::covers`]) reads no heap.

use std::sync::Arc;

use tap_id::Id;

/// A node's leaf set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeafSet {
    owner: Id,
    half: usize,
    /// Clockwise (successor-side) neighbours, nearest first.
    cw: Arc<[Id]>,
    /// Counter-clockwise (predecessor-side) neighbours, nearest first.
    ccw: Arc<[Id]>,
    /// `cw.last()`, or the owner while that side is empty.
    cw_edge: Id,
    /// `ccw.last()`, or the owner while that side is empty.
    ccw_edge: Id,
}

impl LeafSet {
    /// An empty leaf set for `owner` keeping `half` entries per side.
    pub fn new(owner: Id, half: usize) -> Self {
        LeafSet {
            owner,
            half,
            cw: Arc::default(),
            ccw: Arc::default(),
            cw_edge: owner,
            ccw_edge: owner,
        }
    }

    /// The node this leaf set belongs to.
    pub fn owner(&self) -> Id {
        self.owner
    }

    /// Clockwise neighbours, nearest first.
    pub fn clockwise(&self) -> &[Id] {
        &self.cw
    }

    /// Counter-clockwise neighbours, nearest first.
    pub fn counter_clockwise(&self) -> &[Id] {
        &self.ccw
    }

    /// All members (both sides), without the owner.
    pub fn members(&self) -> impl Iterator<Item = Id> + '_ {
        self.cw.iter().chain(self.ccw.iter()).copied()
    }

    /// Number of members currently known.
    pub fn len(&self) -> usize {
        self.cw.len() + self.ccw.len()
    }

    /// True when no neighbours are known (singleton ring).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Install one side and its cached edge: in place when this set alone
    /// holds the side and its length stays, else in a fresh allocation.
    fn set_side(&mut self, cw_side: bool, ids: &[Id]) {
        let (side, edge) = if cw_side {
            (&mut self.cw, &mut self.cw_edge)
        } else {
            (&mut self.ccw, &mut self.ccw_edge)
        };
        match Arc::get_mut(side) {
            Some(own) if own.len() == ids.len() => own.copy_from_slice(ids),
            _ => *side = ids.into(),
        }
        *edge = ids.last().copied().unwrap_or(self.owner);
    }

    /// Replace the whole set from the ring's ids on each side of the owner,
    /// nearest first, trimmed to `half` per side. On rings smaller than
    /// `2·half + 1` the sides overlap in a run at the far end of `ccw`, so
    /// only when `ccw`'s last id is on the clockwise side is that run cut:
    /// [`LeafSet::len`] counts *distinct* members, and routing uses
    /// `len < 2·half` to recognize a ring it can see in its entirety.
    pub fn rebuild(&mut self, cw: &[Id], ccw: &[Id]) {
        debug_assert!(is_sorted_by_cw_distance(self.owner, cw));
        debug_assert!(is_sorted_by_ccw_distance(self.owner, ccw));
        let cw = &cw[..cw.len().min(self.half)];
        let mut ccw = &ccw[..ccw.len().min(self.half)];
        if ccw.last().is_some_and(|x| cw.contains(x)) {
            ccw = &ccw[..ccw.iter().take_while(|x| !cw.contains(x)).count()];
        }
        debug_assert!(ccw.iter().all(|x| !cw.contains(x)), "sides of one ring");
        // A side that does not change is not written, so it stays shared
        // with any snapshot.
        if *self.cw != *cw {
            self.set_side(true, cw);
        }
        if *self.ccw != *ccw {
            self.set_side(false, ccw);
        }
    }

    /// Insert a node, keeping each side sorted and trimmed. Returns whether
    /// the set changed. The node lands on the side where it is nearer.
    pub fn insert(&mut self, id: Id) -> bool {
        if id == self.owner || self.contains(id) {
            return false;
        }
        let cw_d = self.owner.clockwise_distance(id);
        let ccw_d = self.owner.counter_clockwise_distance(id);
        let cw_side = cw_d <= ccw_d;
        let owner = self.owner;
        let dist = |x: Id| {
            if cw_side {
                owner.clockwise_distance(x)
            } else {
                owner.counter_clockwise_distance(x)
            }
        };
        let key = if cw_side { cw_d } else { ccw_d };
        // Find the slot read-only; replace the side only when it changes.
        let side = if cw_side { &self.cw } else { &self.ccw };
        let pos = side
            .iter()
            .position(|&x| dist(x) > key)
            .unwrap_or(side.len());
        if pos >= self.half {
            return false;
        }
        let grown: Vec<Id> = side[..pos]
            .iter()
            .chain(std::iter::once(&id))
            .chain(&side[pos..])
            .take(self.half)
            .copied()
            .collect();
        self.set_side(cw_side, &grown);
        true
    }

    /// Remove a departed node. Returns whether it was present.
    pub fn remove(&mut self, id: Id) -> bool {
        for cw_side in [true, false] {
            let side = if cw_side { &self.cw } else { &self.ccw };
            if side.contains(&id) {
                let rest: Vec<Id> = side.iter().filter(|&&x| x != id).copied().collect();
                self.set_side(cw_side, &rest);
                return true;
            }
        }
        false
    }

    /// Whether `id` is a member.
    pub fn contains(&self, id: Id) -> bool {
        self.cw.contains(&id) || self.ccw.contains(&id)
    }

    /// Whether `key` lies within the span covered by the leaf set — i.e.
    /// between the farthest counter-clockwise and farthest clockwise
    /// members (inclusive). When it does, the routing root is a member of
    /// `leafset ∪ {owner}` and routing can finish in one exact step.
    pub fn covers(&self, key: Id) -> bool {
        if self.is_empty() {
            return true; // singleton: the owner is root for everything
        }
        // Arc from ccw_edge clockwise to cw_edge, inclusive on both ends.
        key == self.ccw_edge || key.between_cw(self.ccw_edge, self.cw_edge)
    }

    /// A fully-owned copy sharing no allocation with `self` (the deep
    /// oracle for the snapshot proptests).
    pub fn deep_clone(&self) -> LeafSet {
        LeafSet {
            cw: Arc::from(&*self.cw),
            ccw: Arc::from(&*self.ccw),
            ..*self
        }
    }

    /// The member of `leafset ∪ {owner}` numerically closest to `key`
    /// (deterministic tie-break via [`Id::cmp_distance`]).
    pub fn closest_to(&self, key: Id) -> Id {
        self.members()
            .map(|m| key.distance_key(m))
            .fold(key.distance_key(self.owner), Ord::min)
            .1
    }
}

fn is_sorted_by_cw_distance(owner: Id, xs: &[Id]) -> bool {
    xs.windows(2)
        .all(|w| owner.clockwise_distance(w[0]) <= owner.clockwise_distance(w[1]))
}

fn is_sorted_by_ccw_distance(owner: Id, xs: &[Id]) -> bool {
    xs.windows(2)
        .all(|w| owner.counter_clockwise_distance(w[0]) <= owner.counter_clockwise_distance(w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(v: u64) -> Id {
        Id::from_u64(v)
    }

    fn set_with(owner: u64, members: &[u64]) -> LeafSet {
        let mut ls = LeafSet::new(id(owner), 4);
        for &m in members {
            ls.insert(id(m));
        }
        ls
    }

    #[test]
    fn insert_sorts_by_side_distance() {
        let ls = set_with(100, &[110, 105, 90, 95, 120]);
        assert_eq!(ls.clockwise(), &[id(105), id(110), id(120)]);
        assert_eq!(ls.counter_clockwise(), &[id(95), id(90)]);
    }

    #[test]
    fn insert_dedups_and_ignores_owner() {
        let mut ls = set_with(100, &[105]);
        assert!(!ls.insert(id(105)));
        assert!(!ls.insert(id(100)));
        assert_eq!(ls.len(), 1);
    }

    #[test]
    fn insert_trims_to_half() {
        let mut ls = LeafSet::new(id(100), 4); // half = 4... per side
        for m in [101, 102, 103, 104, 105, 106] {
            ls.insert(id(m));
        }
        assert_eq!(ls.clockwise(), &[id(101), id(102), id(103), id(104)]);
        // A nearer node displaces the farthest.
        assert!(!ls.insert(id(101)), "already present");
        let mut ls2 = ls.clone();
        assert!(!ls2.insert(id(106)), "beyond capacity and farther");
    }

    #[test]
    fn nearer_node_displaces_farther() {
        let mut ls = LeafSet::new(id(100), 2); // one per side... half=2
        ls.insert(id(110));
        ls.insert(id(120));
        assert_eq!(ls.clockwise(), &[id(110), id(120)]);
        assert!(ls.insert(id(105)));
        assert_eq!(ls.clockwise(), &[id(105), id(110)]);
    }

    #[test]
    fn remove_either_side() {
        let mut ls = set_with(100, &[105, 95]);
        assert!(ls.remove(id(105)));
        assert!(ls.remove(id(95)));
        assert!(!ls.remove(id(42)));
        assert!(ls.is_empty());
    }

    #[test]
    fn covers_and_closest() {
        let ls = set_with(100, &[105, 110, 95, 90]);
        assert!(ls.covers(id(100)));
        assert!(ls.covers(id(107)));
        assert!(ls.covers(id(90)), "ccw edge inclusive");
        assert!(ls.covers(id(110)), "cw edge inclusive");
        assert!(!ls.covers(id(111)));
        assert!(!ls.covers(id(89)));
        assert_eq!(ls.closest_to(id(104)), id(105));
        assert_eq!(ls.closest_to(id(101)), id(100), "owner can be closest");
        assert_eq!(ls.closest_to(id(93)), id(95));
    }

    #[test]
    fn covers_wrapping_ring() {
        let mut ls = LeafSet::new(Id::from_u64(2), 4);
        ls.insert(Id::MAX); // predecessor across zero
        ls.insert(Id::from_u64(5));
        assert!(ls.covers(Id::ZERO));
        assert!(ls.covers(Id::from_u64(4)));
        assert!(!ls.covers(Id::from_u64(9)));
    }

    #[test]
    fn singleton_covers_everything() {
        let ls = LeafSet::new(id(7), 8);
        assert!(ls.covers(Id::MAX));
        assert_eq!(ls.closest_to(Id::MAX), id(7));
    }

    /// How many of the two sides are the same allocation in both sets.
    fn sides_shared(a: &LeafSet, b: &LeafSet) -> usize {
        usize::from(Arc::ptr_eq(&a.cw, &b.cw)) + usize::from(Arc::ptr_eq(&a.ccw, &b.ccw))
    }

    #[test]
    fn clones_share_sides_until_written() {
        let mut ls = set_with(100, &[105, 110, 95]);
        let snap = ls.clone();
        assert_eq!(sides_shared(&ls, &snap), 2);
        // Reads and no-op writes keep both sides shared.
        assert!(ls.covers(id(107)));
        assert!(!ls.insert(id(105)));
        assert!(!ls.remove(id(42)));
        assert_eq!(sides_shared(&ls, &snap), 2);
        // Writing the clockwise side replaces it; ccw stays shared.
        assert!(ls.insert(id(103)));
        assert_eq!(sides_shared(&ls, &snap), 1);
        assert_eq!(
            snap.clockwise(),
            &[id(105), id(110)],
            "snapshot must not see the insert"
        );
        // A rebuild that changes nothing keeps the current allocations;
        // one that changes a side swaps that side out and moves its edge.
        let before = ls.clone();
        ls.rebuild(&[id(103), id(105), id(110)], &[id(95)]);
        assert_eq!(sides_shared(&ls, &before), 2, "no-op rebuild");
        ls.rebuild(&[id(103), id(105), id(110)], &[id(95), id(90)]);
        assert_eq!(sides_shared(&ls, &before), 1);
        assert!(ls.covers(id(91)) && !before.covers(id(91)));
        // deep_clone shares nothing but compares equal.
        let deep = ls.deep_clone();
        assert_eq!(deep, ls);
        assert_eq!(sides_shared(&deep, &ls), 0);
    }

    #[test]
    fn rebuild_replaces_and_trims() {
        let mut ls = LeafSet::new(id(0), 2);
        ls.rebuild(&[id(1), id(2), id(3)], &[Id::MAX]);
        assert_eq!(ls.clockwise(), &[id(1), id(2)]);
        assert_eq!(ls.counter_clockwise(), &[Id::MAX]);
    }

    proptest! {
        #[test]
        fn prop_closest_is_truly_closest(
            owner in any::<[u8; 20]>(),
            members in proptest::collection::vec(any::<[u8; 20]>(), 1..12),
            key in any::<[u8; 20]>(),
        ) {
            let owner = Id::from_bytes(owner);
            let key = Id::from_bytes(key);
            let mut ls = LeafSet::new(owner, 8);
            for m in &members {
                ls.insert(Id::from_bytes(*m));
            }
            let best = ls.closest_to(key);
            let candidates: Vec<Id> =
                ls.members().chain(std::iter::once(owner)).collect();
            for c in candidates {
                prop_assert_ne!(
                    key.cmp_distance(c, best),
                    std::cmp::Ordering::Less,
                    "member closer than closest_to result"
                );
            }
        }

        /// `closest_to` is the `cmp_distance` minimum of members ∪ {owner},
        /// on leaf sets installed from a sorted ring — tiny ones included,
        /// where the two sides overlap and `rebuild` dedups them. Dense
        /// rings put every id an even step from `MAX − 16`, across zero, so
        /// that an odd key is an exact tie between two of them.
        #[test]
        fn prop_closest_to_is_the_cmp_distance_minimum(
            ring in proptest::collection::vec(any::<[u8; 20]>(), 1..24),
            half in 1usize..=8,
            at in any::<usize>(),
            key in any::<[u8; 20]>(),
            dense in any::<bool>(),
        ) {
            let place = |bytes: [u8; 20], step: u8| {
                if dense {
                    let off = u64::from(bytes[19] % (32 / step)) * u64::from(step);
                    Id::MAX.wrapping_sub(Id::from_u64(16)).wrapping_add(Id::from_u64(off))
                } else {
                    Id::from_bytes(bytes)
                }
            };
            let mut ring: Vec<Id> = ring.into_iter().map(|b| place(b, 2)).collect();
            ring.sort();
            ring.dedup();
            let key = place(key, 1);
            let n = ring.len();
            let at = at % n;
            let owner = ring[at];
            let cw: Vec<Id> = (1..n).map(|t| ring[(at + t) % n]).take(half).collect();
            let ccw: Vec<Id> = (1..n).map(|t| ring[(at + n - t) % n]).take(half).collect();
            let mut ls = LeafSet::new(owner, half);
            ls.rebuild(&cw, &ccw);
            prop_assert!(ls.len() < n, "overlapping sides are deduplicated");

            let want = ls
                .members()
                .chain(std::iter::once(owner))
                .min_by(|a, b| key.cmp_distance(*a, *b));
            prop_assert_eq!(Some(ls.closest_to(key)), want);
        }

        /// After any sequence of inserts, removes and rebuilds on a small
        /// ring (ids packed around zero, so sides wrap), the cached edges
        /// are the last member of each side — the owner when a side is
        /// empty — and `covers` answers as the sides alone would.
        #[test]
        fn prop_cached_edges_track_the_sides(
            ring in proptest::collection::vec(0u64..48, 1..41),
            at in any::<usize>(),
            half in 1usize..=8,
            ops in proptest::collection::vec((0u8..3, any::<usize>()), 0..40),
            keys in proptest::collection::vec(0u64..64, 8),
        ) {
            // Even offsets from MAX − 31 are ring ids; odd ones fall between.
            let place = |v: u64| {
                Id::MAX.wrapping_sub(Id::from_u64(31)).wrapping_add(Id::from_u64(v))
            };
            let mut ring: Vec<Id> = ring.into_iter().map(|v| place(2 * v)).collect();
            ring.sort();
            ring.dedup();
            let n = ring.len();
            let owner = ring[at % n];
            let mut ls = LeafSet::new(owner, half);
            for (op, pick) in std::iter::once((2, at)).chain(ops) {
                let x = ring[pick % n];
                match op {
                    0 => {
                        ls.insert(x);
                    }
                    1 => {
                        ls.remove(x);
                    }
                    _ => {
                        // The exact sides of a ring that lost `x` (if not
                        // the owner): what the overlay installs.
                        let live: Vec<Id> =
                            ring.iter().copied().filter(|&r| r == owner || r != x).collect();
                        let m = live.len();
                        let o = live.iter().position(|&r| r == owner).unwrap();
                        let cw: Vec<Id> = (1..m).map(|t| live[(o + t) % m]).take(half).collect();
                        let ccw: Vec<Id> =
                            (1..m).map(|t| live[(o + m - t) % m]).take(half).collect();
                        ls.rebuild(&cw, &ccw);
                    }
                }
                let cw_edge = ls.clockwise().last().copied().unwrap_or(owner);
                let ccw_edge = ls.counter_clockwise().last().copied().unwrap_or(owner);
                prop_assert_eq!((ls.cw_edge, ls.ccw_edge), (cw_edge, ccw_edge));
                for key in keys.iter().map(|&v| place(v)).chain([owner, Id::HALF]) {
                    let want =
                        ls.is_empty() || key == ccw_edge || key.between_cw(ccw_edge, cw_edge);
                    prop_assert_eq!(ls.covers(key), want, "key {:?}", key);
                }
            }
        }

        #[test]
        fn prop_sides_stay_sorted_under_churn(
            owner in any::<[u8; 20]>(),
            ops in proptest::collection::vec((any::<[u8; 20]>(), any::<bool>()), 0..40),
        ) {
            let owner = Id::from_bytes(owner);
            let mut ls = LeafSet::new(owner, 6);
            for (bytes, remove) in ops {
                let x = Id::from_bytes(bytes);
                if remove {
                    ls.remove(x);
                } else {
                    ls.insert(x);
                }
                prop_assert!(super::is_sorted_by_cw_distance(owner, ls.clockwise()));
                prop_assert!(super::is_sorted_by_ccw_distance(owner, ls.counter_clockwise()));
                prop_assert!(ls.clockwise().len() <= 6);
                prop_assert!(ls.counter_clockwise().len() <= 6);
            }
        }
    }
}
