//! Leaf sets: the `|L| = 16` nodes numerically closest to a node, half
//! clockwise and half counter-clockwise on the ring.
//!
//! The leaf set serves two roles Pastry's correctness rests on: the final
//! routing step (if the key falls inside the leaf-set span, the closest
//! leaf is the root) and replica placement (PAST stores an object on the
//! root plus its nearest leaves). Leaf sets are kept eagerly consistent
//! under churn by [`crate::Overlay`].
//!
//! Each side is a fixed `[Id; HALF]` plus its length, stored inline in the
//! node handle: a refresh writes in place and never allocates, and the
//! copy-on-write unit overlay snapshots rely on is the shared node handle
//! alone (DESIGN.md §6d). The set does not store its owner; the handle's id
//! is passed to the few methods that need it. The farthest member of each
//! side is cached ahead of the sides, so the span test every forwarding
//! step makes ([`LeafSet::covers`]) reads the handle's first lines only.

use std::fmt;

use tap_id::Id;

/// Leaf-set entries on each side of a node: Pastry's customary `|L| = 16`.
pub(crate) const HALF: usize = 8;

/// A node's leaf set. `repr(C)` keeps the cached edges and lengths ahead
/// of the two sides.
#[derive(Clone)]
#[repr(C)]
pub struct LeafSet {
    /// `clockwise().last()`, or the owner while that side is empty.
    cw_edge: Id,
    /// `counter_clockwise().last()`, or the owner while that side is empty.
    ccw_edge: Id,
    cw_len: u8,
    ccw_len: u8,
    /// Clockwise (successor-side) neighbours, nearest first; the first
    /// `cw_len` are live.
    cw: [Id; HALF],
    /// Counter-clockwise (predecessor-side) neighbours, nearest first.
    ccw: [Id; HALF],
}

impl LeafSet {
    /// An empty leaf set for `owner`.
    pub fn new(owner: Id) -> Self {
        LeafSet {
            cw_edge: owner,
            ccw_edge: owner,
            cw_len: 0,
            ccw_len: 0,
            cw: [Id::ZERO; HALF],
            ccw: [Id::ZERO; HALF],
        }
    }

    /// Clockwise neighbours, nearest first.
    pub fn clockwise(&self) -> &[Id] {
        &self.cw[..usize::from(self.cw_len)]
    }

    /// Counter-clockwise neighbours, nearest first.
    pub fn counter_clockwise(&self) -> &[Id] {
        &self.ccw[..usize::from(self.ccw_len)]
    }

    /// All members (both sides), without the owner.
    pub fn members(&self) -> impl Iterator<Item = Id> + '_ {
        self.clockwise()
            .iter()
            .chain(self.counter_clockwise())
            .copied()
    }

    /// Number of members currently known.
    pub fn len(&self) -> usize {
        usize::from(self.cw_len) + usize::from(self.ccw_len)
    }

    /// True when no neighbours are known (singleton ring).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write one side (at most [`HALF`] ids) and its cached edge in place.
    fn set_side(&mut self, owner: Id, cw_side: bool, ids: &[Id]) {
        let (side, len, edge) = if cw_side {
            (&mut self.cw, &mut self.cw_len, &mut self.cw_edge)
        } else {
            (&mut self.ccw, &mut self.ccw_len, &mut self.ccw_edge)
        };
        side[..ids.len()].copy_from_slice(ids);
        *len = ids.len() as u8;
        *edge = ids.last().copied().unwrap_or(owner);
    }

    /// Replace the whole set of `owner` from the ring's ids on each side of
    /// it, nearest first, trimmed to `HALF` (8, half of `|L|`) per side. On
    /// rings smaller than `2·HALF + 1` the sides overlap in a run at the far end of
    /// `ccw`, so only when `ccw`'s last id is on the clockwise side is that
    /// run cut: [`LeafSet::len`] counts *distinct* members, and routing
    /// uses `len < 2·HALF` to recognize a ring it can see in its entirety.
    pub fn rebuild(&mut self, owner: Id, cw: &[Id], ccw: &[Id]) {
        debug_assert!(is_sorted_by_cw_distance(owner, cw));
        debug_assert!(is_sorted_by_ccw_distance(owner, ccw));
        let cw = &cw[..cw.len().min(HALF)];
        let mut ccw = &ccw[..ccw.len().min(HALF)];
        if ccw.last().is_some_and(|x| cw.contains(x)) {
            ccw = &ccw[..ccw.iter().take_while(|x| !cw.contains(x)).count()];
        }
        debug_assert!(ccw.iter().all(|x| !cw.contains(x)), "sides of one ring");
        self.set_side(owner, true, cw);
        self.set_side(owner, false, ccw);
    }

    /// Whether `key` lies within the span covered by the leaf set — i.e.
    /// between the farthest counter-clockwise and farthest clockwise
    /// members (inclusive). When it does, the routing root is a member of
    /// `leafset ∪ {owner}` and routing can finish in one exact step.
    pub fn covers(&self, key: Id) -> bool {
        if self.is_empty() {
            return true; // singleton: the owner is root for everything
        }
        // The ring arc from ccw_edge clockwise to cw_edge, inclusive on both ends.
        key == self.ccw_edge || key.between_cw(self.ccw_edge, self.cw_edge)
    }

    /// The member of `leafset ∪ {owner}` numerically closest to `key`
    /// (deterministic tie-break via [`Id::cmp_distance`]): the nearer of
    /// the two members that bracket it.
    pub fn closest_to(&self, owner: Id, key: Id) -> Id {
        let (a, b) = self.bracket(owner, key);
        if key.cmp_distance(a, b).is_gt() {
            b
        } else {
            a
        }
    }

    /// Two members `(a, b)` of `leafset ∪ {owner}` with `key` on the
    /// clockwise arc from `a` (exclusive) to `b` (inclusive), and no member
    /// strictly inside that arc.
    ///
    /// In ring order the counter-clockwise side (farthest first), the owner
    /// and the clockwise side are distinct ids round one arc: `rebuild` cuts
    /// the sides' overlap on a small ring. Any other member therefore lies
    /// past `a` or `b` in either direction of travel from `key`, so it is
    /// strictly farther than one of them by ring distance, and the nearest
    /// member — ties included — is one of the pair. Only the key's side is
    /// walked, at most `HALF` ids; a key beyond both edges lies in the one
    /// gap of the arc, from `cw_edge` to `ccw_edge`.
    fn bracket(&self, owner: Id, key: Id) -> (Id, Id) {
        let (cw, ccw) = (self.clockwise(), self.counter_clockwise());
        if !cw.is_empty() && key.between_cw(owner, self.cw_edge) {
            let i = cw.iter().position(|&m| key.between_cw(owner, m));
            let i = i.unwrap_or(cw.len() - 1);
            (if i == 0 { owner } else { cw[i - 1] }, cw[i])
        } else if !ccw.is_empty() && key.between_cw(self.ccw_edge, owner) {
            let i = ccw.iter().position(|&m| key.between_cw(m, owner));
            let i = i.unwrap_or(ccw.len() - 1);
            (ccw[i], if i == 0 { owner } else { ccw[i - 1] })
        } else {
            (self.cw_edge, self.ccw_edge)
        }
    }
}

/// Equal when the sides and edges are; slots past a side's length are not
/// compared.
impl PartialEq for LeafSet {
    fn eq(&self, other: &Self) -> bool {
        (self.cw_edge, self.ccw_edge) == (other.cw_edge, other.ccw_edge)
            && self.clockwise() == other.clockwise()
            && self.counter_clockwise() == other.counter_clockwise()
    }
}

impl Eq for LeafSet {}

impl fmt::Debug for LeafSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LeafSet")
            .field("cw", &self.clockwise())
            .field("ccw", &self.counter_clockwise())
            .finish()
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

    /// Add `id` to `owner`'s set on the side where it is nearer, sorted
    /// and trimmed to `HALF`, the way one leaf-set exchange would; whether
    /// the set changed. The overlay installs whole sets with `rebuild`;
    /// this and [`remove`] build the fixtures.
    fn insert(ls: &mut LeafSet, owner: Id, id: Id) -> bool {
        if id == owner || ls.members().any(|m| m == id) {
            return false;
        }
        let cw_side = owner.clockwise_distance(id) <= owner.counter_clockwise_distance(id);
        let dist = |x: Id| {
            if cw_side {
                owner.clockwise_distance(x)
            } else {
                owner.counter_clockwise_distance(x)
            }
        };
        let side = if cw_side {
            ls.clockwise()
        } else {
            ls.counter_clockwise()
        };
        let mut side = side.to_vec();
        let pos = side.iter().position(|&x| dist(x) > dist(id));
        let pos = pos.unwrap_or(side.len());
        if pos >= HALF {
            return false;
        }
        side.insert(pos, id);
        side.truncate(HALF);
        ls.set_side(owner, cw_side, &side);
        true
    }

    /// Drop `id` from `owner`'s set; whether it was a member.
    fn remove(ls: &mut LeafSet, owner: Id, id: Id) -> bool {
        for cw_side in [true, false] {
            let side = if cw_side {
                ls.clockwise()
            } else {
                ls.counter_clockwise()
            };
            if let Some(at) = side.iter().position(|&x| x == id) {
                let mut rest = side.to_vec();
                rest.remove(at);
                ls.set_side(owner, cw_side, &rest);
                return true;
            }
        }
        false
    }

    /// What `closest_to` was before it bracketed the key: every member
    /// measured, the smallest distance key kept.
    fn closest_by_fold(ls: &LeafSet, owner: Id, key: Id) -> Id {
        ls.members()
            .map(|m| key.distance_key(m))
            .fold(key.distance_key(owner), Ord::min)
            .1
    }

    /// `x / 2`, rounded down.
    fn halved(x: Id) -> Id {
        let mut b = *x.as_bytes();
        let mut carry = 0;
        for byte in &mut b {
            (*byte, carry) = ((*byte >> 1) | (carry << 7), *byte & 1);
        }
        Id::from_bytes(b)
    }

    fn set_with(owner: u64, members: &[u64]) -> LeafSet {
        let mut ls = LeafSet::new(id(owner));
        for &m in members {
            insert(&mut ls, id(owner), id(m));
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
        assert!(!insert(&mut ls, id(100), id(105)));
        assert!(!insert(&mut ls, id(100), id(100)));
        assert_eq!(ls.len(), 1);
    }

    #[test]
    fn insert_trims_to_half() {
        let owner = id(100);
        let mut ls = LeafSet::new(owner); // HALF = 8 per side
        for m in 101..=110 {
            insert(&mut ls, owner, id(m));
        }
        let nearest: Vec<Id> = (101..=108).map(id).collect();
        assert_eq!(ls.clockwise(), &nearest[..]);
        assert!(!insert(&mut ls, owner, id(101)), "already present");
        let mut ls2 = ls.clone();
        assert!(
            !insert(&mut ls2, owner, id(110)),
            "beyond capacity and farther"
        );
    }

    #[test]
    fn nearer_node_displaces_farther() {
        let owner = id(100);
        let mut ls = LeafSet::new(owner);
        for m in (110..=180).step_by(10) {
            insert(&mut ls, owner, id(m));
        }
        assert_eq!(ls.clockwise().len(), HALF);
        assert_eq!(ls.clockwise().last(), Some(&id(180)));
        assert!(insert(&mut ls, owner, id(105)));
        assert_eq!(ls.clockwise()[..2], [id(105), id(110)]);
        assert_eq!(ls.clockwise().last(), Some(&id(170)), "the farthest left");
        assert!(ls.covers(id(170)) && !ls.covers(id(171)));
    }

    #[test]
    fn remove_either_side() {
        let mut ls = set_with(100, &[105, 95]);
        assert!(remove(&mut ls, id(100), id(105)));
        assert!(remove(&mut ls, id(100), id(95)));
        assert!(!remove(&mut ls, id(100), id(42)));
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
        assert_eq!(ls.closest_to(id(100), id(104)), id(105));
        assert_eq!(
            ls.closest_to(id(100), id(101)),
            id(100),
            "owner can be closest"
        );
        assert_eq!(ls.closest_to(id(100), id(93)), id(95));
    }

    #[test]
    fn covers_wrapping_ring() {
        let owner = Id::from_u64(2);
        let mut ls = LeafSet::new(owner);
        insert(&mut ls, owner, Id::MAX); // predecessor across zero
        insert(&mut ls, owner, Id::from_u64(5));
        assert!(ls.covers(Id::ZERO));
        assert!(ls.covers(Id::from_u64(4)));
        assert!(!ls.covers(Id::from_u64(9)));
    }

    #[test]
    fn singleton_covers_everything() {
        let ls = LeafSet::new(id(7));
        assert!(ls.covers(Id::MAX));
        assert_eq!(ls.closest_to(id(7), Id::MAX), id(7));
    }

    #[test]
    fn clones_are_independent_snapshots() {
        let owner = id(100);
        let mut ls = set_with(100, &[105, 110, 95]);
        let snap = ls.clone();
        // Reads and no-op writes change nothing.
        assert!(ls.covers(id(107)));
        assert!(!insert(&mut ls, owner, id(105)));
        assert!(!remove(&mut ls, owner, id(42)));
        assert_eq!(ls, snap);
        assert!(insert(&mut ls, owner, id(103)));
        assert_eq!(
            snap.clockwise(),
            &[id(105), id(110)],
            "snapshot must not see the insert"
        );
        // A rebuild that changes a side moves its edge, and only in the
        // set written.
        let before = ls.clone();
        ls.rebuild(owner, &[id(103), id(105), id(110)], &[id(95)]);
        assert_eq!(ls, before, "no-op rebuild");
        ls.rebuild(owner, &[id(103), id(105), id(110)], &[id(95), id(90)]);
        assert!(ls.covers(id(91)) && !before.covers(id(91)));
        assert_eq!(before.counter_clockwise(), &[id(95)]);
    }

    #[test]
    fn the_sides_come_after_the_edges() {
        // What `covers` reads sits ahead of the two sides, so a node
        // handle's first lines hold it (overlay.rs checks the handle).
        let sides = 2 * HALF * std::mem::size_of::<Id>();
        assert_eq!(
            std::mem::offset_of!(LeafSet, cw) + sides,
            std::mem::size_of::<LeafSet>()
        );
    }

    #[test]
    fn rebuild_replaces_and_trims() {
        let mut ls = LeafSet::new(id(0));
        let cw: Vec<Id> = (1..=10).map(id).collect();
        ls.rebuild(id(0), &cw, &[Id::MAX]);
        assert_eq!(ls.clockwise(), &cw[..HALF]);
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
            let mut ls = LeafSet::new(owner);
            for m in &members {
                insert(&mut ls, owner, Id::from_bytes(*m));
            }
            let best = ls.closest_to(owner, key);
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
            let cw: Vec<Id> = (1..n).map(|t| ring[(at + t) % n]).take(HALF).collect();
            let ccw: Vec<Id> = (1..n).map(|t| ring[(at + n - t) % n]).take(HALF).collect();
            let mut ls = LeafSet::new(owner);
            ls.rebuild(owner, &cw, &ccw);
            prop_assert!(ls.len() < n, "overlapping sides are deduplicated");

            let want = ls
                .members()
                .chain(std::iter::once(owner))
                .min_by(|a, b| key.cmp_distance(*a, *b));
            prop_assert_eq!(Some(ls.closest_to(owner, key)), want);
        }

        /// After any sequence of inserts, removes and rebuilds on a small
        /// ring (ids packed around zero, so sides wrap), the cached edges
        /// are the last member of each side — the owner when a side is
        /// empty — and `covers` answers as the sides alone would.
        #[test]
        fn prop_cached_edges_track_the_sides(
            ring in proptest::collection::vec(0u64..48, 1..41),
            at in any::<usize>(),
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
            let mut ls = LeafSet::new(owner);
            for (op, pick) in std::iter::once((2, at)).chain(ops) {
                let x = ring[pick % n];
                match op {
                    0 => {
                        insert(&mut ls, owner, x);
                    }
                    1 => {
                        remove(&mut ls, owner, x);
                    }
                    _ => {
                        // The exact sides of a ring that lost `x` (if not
                        // the owner): what the overlay installs.
                        let live: Vec<Id> =
                            ring.iter().copied().filter(|&r| r == owner || r != x).collect();
                        let m = live.len();
                        let o = live.iter().position(|&r| r == owner).unwrap();
                        let cw: Vec<Id> = (1..m).map(|t| live[(o + t) % m]).take(HALF).collect();
                        let ccw: Vec<Id> =
                            (1..m).map(|t| live[(o + m - t) % m]).take(HALF).collect();
                        ls.rebuild(owner, &cw, &ccw);
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
            let mut ls = LeafSet::new(owner);
            for (bytes, leave) in ops {
                let x = Id::from_bytes(bytes);
                if leave {
                    remove(&mut ls, owner, x);
                } else {
                    insert(&mut ls, owner, x);
                }
                prop_assert!(super::is_sorted_by_cw_distance(owner, ls.clockwise()));
                prop_assert!(super::is_sorted_by_ccw_distance(owner, ls.counter_clockwise()));
                prop_assert!(ls.clockwise().len() <= HALF);
                prop_assert!(ls.counter_clockwise().len() <= HALF);
            }
        }
    }

    // Microseconds a case: many cases, so that ties and edges recur.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// The bracketed `closest_to` is the old fold, on leaf sets from
        /// one member to two full sides: installed from a sorted ring (a
        /// whole small ring, where `rebuild` cuts the overlap, or sixteen
        /// of a larger one) or grown by inserts and removes. Keys are
        /// random, every member and its two neighbouring ids, the midpoint
        /// of every gap between members in ring order (an exact tie when
        /// the gap is even) and the ids just past each edge.
        #[test]
        fn prop_bracket_matches_the_fold(
            ring in proptest::collection::vec(any::<[u8; 20]>(), 1..40),
            at in any::<usize>(),
            dense in any::<bool>(),
            grown in proptest::collection::vec((any::<usize>(), any::<bool>()), 0..24),
            keys in proptest::collection::vec(any::<[u8; 20]>(), 4),
        ) {
            // Dense rings sit in 64 ids around zero, so gaps are small and
            // often even, and the sides wrap.
            let place = |bytes: [u8; 20]| {
                if dense {
                    Id::MAX
                        .wrapping_sub(Id::from_u64(31))
                        .wrapping_add(Id::from_u64(u64::from(bytes[19] % 64)))
                } else {
                    Id::from_bytes(bytes)
                }
            };
            let mut ring: Vec<Id> = ring.into_iter().map(place).collect();
            ring.sort();
            ring.dedup();
            let n = ring.len();
            let at = at % n;
            let owner = ring[at];
            let mut ls = LeafSet::new(owner);
            if grown.is_empty() {
                let cw: Vec<Id> = (1..n).map(|t| ring[(at + t) % n]).take(HALF).collect();
                let ccw: Vec<Id> = (1..n).map(|t| ring[(at + n - t) % n]).take(HALF).collect();
                ls.rebuild(owner, &cw, &ccw);
            } else {
                for (pick, leave) in grown {
                    let x = ring[pick % n];
                    if leave {
                        remove(&mut ls, owner, x);
                    } else {
                        insert(&mut ls, owner, x);
                    }
                }
            }
            let one = Id::from_u64(1);
            let mut arc: Vec<Id> = ls.counter_clockwise().iter().rev().copied().collect();
            arc.push(owner);
            arc.extend_from_slice(ls.clockwise());
            let mut probes: Vec<Id> = keys.into_iter().map(place).collect();
            for (i, &m) in arc.iter().enumerate() {
                probes.extend([m, m.wrapping_add(one), m.wrapping_sub(one)]);
                if let Some(&next) = arc.get(i + 1) {
                    probes.push(m.wrapping_add(halved(next.wrapping_sub(m))));
                }
            }
            for key in probes {
                prop_assert_eq!(
                    ls.closest_to(owner, key),
                    closest_by_fold(&ls, owner, key),
                    "key {:?}, cw {:?}, ccw {:?}",
                    key,
                    ls.clockwise(),
                    ls.counter_clockwise()
                );
            }
        }
    }
}
