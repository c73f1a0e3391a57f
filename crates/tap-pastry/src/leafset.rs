//! Leaf sets: the `|L| = 16` nodes numerically closest to a node, half
//! clockwise and half counter-clockwise on the ring.
//!
//! The leaf set serves two roles Pastry's correctness rests on: the final
//! routing step (if the key falls inside the leaf-set span, the closest
//! leaf is the root) and replica placement (PAST stores an object on the
//! root plus its nearest leaves). Leaf sets are kept eagerly consistent
//! under churn by [`crate::Overlay`].
//!
//! Each side is a fixed `[Slot; HALF]` plus its length, stored inline in
//! the node handle: a member is named by its [`Slot`] in the overlay's
//! member arena, as a routing-table cell is, so a side is 32 bytes, a
//! refresh writes in place and never allocates, and the copy-on-write unit
//! overlay snapshots rely on is the shared node handle alone (DESIGN.md
//! §6d). The set does not store its owner; the handle's id (and slot) is
//! passed to the few methods that need it, and the methods that need a
//! member's id take the arena's resolver. The farthest member of each side
//! is cached ahead of the sides as an id, so the span test every forwarding
//! step makes ([`LeafSet::covers`]) reads the handle's first lines only.

use std::fmt;

use tap_id::Id;

use crate::routing_table::Slot;

/// Leaf-set entries on each side of a node: Pastry's customary `|L| = 16`.
pub(crate) const HALF: usize = 8;

/// A node as leaf sets name it: its id and its member-arena slot, as the
/// ring walks pair them.
pub(crate) type Leaf = (Id, Slot);

/// A node's leaf set. `repr(C)` keeps the cached edges and lengths ahead
/// of the two sides.
#[derive(Clone)]
#[repr(C)]
pub(crate) struct LeafSet {
    /// The id of `clockwise().last()`, or the owner while that side is empty.
    cw_edge: Id,
    /// The id of `counter_clockwise().last()`, or the owner while that side
    /// is empty.
    ccw_edge: Id,
    cw_len: u8,
    ccw_len: u8,
    /// Clockwise (successor-side) neighbours, nearest first; the first
    /// `cw_len` are live.
    cw: [Slot; HALF],
    /// Counter-clockwise (predecessor-side) neighbours, nearest first.
    ccw: [Slot; HALF],
}

impl LeafSet {
    /// An empty leaf set for `owner`.
    pub(crate) fn new(owner: Id) -> Self {
        LeafSet {
            cw_edge: owner,
            ccw_edge: owner,
            cw_len: 0,
            ccw_len: 0,
            cw: [Slot::EMPTY; HALF],
            ccw: [Slot::EMPTY; HALF],
        }
    }

    /// Clockwise neighbours, nearest first.
    pub(crate) fn clockwise(&self) -> &[Slot] {
        &self.cw[..usize::from(self.cw_len)]
    }

    /// Counter-clockwise neighbours, nearest first.
    pub(crate) fn counter_clockwise(&self) -> &[Slot] {
        &self.ccw[..usize::from(self.ccw_len)]
    }

    /// All members (both sides), without the owner.
    pub(crate) fn members(&self) -> impl Iterator<Item = Slot> + '_ {
        self.clockwise()
            .iter()
            .chain(self.counter_clockwise())
            .copied()
    }

    /// Number of members currently known.
    pub(crate) fn len(&self) -> usize {
        usize::from(self.cw_len) + usize::from(self.ccw_len)
    }

    /// True when no neighbours are known (singleton ring).
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write one side (at most [`HALF`] members) and its cached edge in place.
    fn set_side(&mut self, owner: Id, cw_side: bool, members: &[Leaf]) {
        let (side, len, edge) = if cw_side {
            (&mut self.cw, &mut self.cw_len, &mut self.cw_edge)
        } else {
            (&mut self.ccw, &mut self.ccw_len, &mut self.ccw_edge)
        };
        for (cell, &(_, slot)) in side.iter_mut().zip(members) {
            *cell = slot;
        }
        *len = members.len() as u8;
        *edge = members.last().map_or(owner, |&(id, _)| id);
    }

    /// Replace the whole set of `owner` from the ring's members (id and
    /// slot) on each side of it, nearest first, trimmed to `HALF` (8, half
    /// of `|L|`) per side. On rings smaller than `2·HALF + 1` the sides
    /// overlap in a run at the far end of `ccw`, so only when `ccw`'s last
    /// member is on the clockwise side is that run cut: [`LeafSet::len`]
    /// counts *distinct* members, and routing uses `len < 2·HALF` to
    /// recognize a ring it can see in its entirety.
    pub(crate) fn rebuild(&mut self, owner: Id, cw: &[Leaf], ccw: &[Leaf]) {
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
    pub(crate) fn covers(&self, key: Id) -> bool {
        if self.is_empty() {
            return true; // singleton: the owner is root for everything
        }
        // The ring arc from ccw_edge clockwise to cw_edge, inclusive on both ends.
        key == self.ccw_edge || key.between_cw(self.ccw_edge, self.cw_edge)
    }

    /// The member of `leafset ∪ {owner}` numerically closest to `key`
    /// (deterministic tie-break via [`Id::cmp_distance`]), with its slot:
    /// the nearer of the two members that bracket it. `owner` is the
    /// owner's id and slot; `id_of` reads a member's id out of the arena.
    pub(crate) fn closest_to(&self, owner: Leaf, key: Id, id_of: impl Fn(Slot) -> Id) -> Leaf {
        let (a, b) = self.bracket(owner, key, id_of);
        if key.cmp_distance(a.0, b.0).is_gt() {
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
    /// searched, at most three member ids read; a key beyond both edges
    /// lies in the one gap of the arc, from `cw_edge` to `ccw_edge`.
    fn bracket(&self, owner: Leaf, key: Id, id_of: impl Fn(Slot) -> Id) -> (Leaf, Leaf) {
        let (cw, ccw) = (self.clockwise(), self.counter_clockwise());
        let o = owner.0;
        if !cw.is_empty() && key.between_cw(o, self.cw_edge) {
            search(owner, cw, self.cw_edge, |m| key.between_cw(o, m), id_of)
        } else if !ccw.is_empty() && key.between_cw(self.ccw_edge, o) {
            let (near, far) = search(owner, ccw, self.ccw_edge, |m| key.between_cw(m, o), id_of);
            (far, near)
        } else {
            let edge = |side: &[Slot], id| (id, side.last().copied().unwrap_or(owner.1));
            (edge(cw, self.cw_edge), edge(ccw, self.ccw_edge))
        }
    }
}

/// On a non-empty `side` (nearest first, its last member's id `edge`) whose
/// members fail `past` up to some member and pass it from there on: that
/// first passing member, and the one before it (the owner, before the
/// side's first). A binary search with the owner and the edge as its known
/// ends, so a full side of eight reads three member ids.
fn search(
    owner: Leaf,
    side: &[Slot],
    edge: Id,
    past: impl Fn(Id) -> bool,
    id_of: impl Fn(Slot) -> Id,
) -> (Leaf, Leaf) {
    // Positions count the owner as 0 and `side[i]` as `i + 1`; `lo` fails
    // `past` and `hi` passes it.
    let (mut lo, mut hi) = (0, side.len());
    let (mut below, mut above) = (owner, (edge, side[hi - 1]));
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let slot = side[mid - 1];
        let member = (id_of(slot), slot);
        if past(member.0) {
            (hi, above) = (mid, member);
        } else {
            (lo, below) = (mid, member);
        }
    }
    (below, above)
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

fn is_sorted_by_cw_distance(owner: Id, xs: &[Leaf]) -> bool {
    xs.windows(2)
        .all(|w| owner.clockwise_distance(w[0].0) <= owner.clockwise_distance(w[1].0))
}

fn is_sorted_by_ccw_distance(owner: Id, xs: &[Leaf]) -> bool {
    xs.windows(2).all(|w| {
        owner.counter_clockwise_distance(w[0].0) <= owner.counter_clockwise_distance(w[1].0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    fn id(v: u64) -> Id {
        Id::from_u64(v)
    }

    /// A leaf set and the arena its slots index: slot `i` names `arena[i]`,
    /// and the owner is slot 0. Tests speak ids; the fixture turns them
    /// into the slots the set holds and back.
    #[derive(Clone)]
    struct Fixture {
        owner: Id,
        arena: Vec<Id>,
        ls: LeafSet,
    }

    impl Fixture {
        fn new(owner: Id) -> Self {
            Fixture {
                owner,
                arena: vec![owner],
                ls: LeafSet::new(owner),
            }
        }

        /// `id` with its slot, handed out the first time `id` is seen.
        fn entry(&mut self, id: Id) -> Leaf {
            let at = self.arena.iter().position(|&x| x == id);
            let at = at.unwrap_or_else(|| {
                self.arena.push(id);
                self.arena.len() - 1
            });
            (id, Slot(at as u32))
        }

        fn entries(&mut self, ids: &[Id]) -> Vec<Leaf> {
            ids.iter().map(|&x| self.entry(x)).collect()
        }

        fn ids(&self, side: &[Slot]) -> Vec<Id> {
            side.iter().map(|s| self.arena[s.index()]).collect()
        }

        fn cw(&self) -> Vec<Id> {
            self.ids(self.ls.clockwise())
        }

        fn ccw(&self) -> Vec<Id> {
            self.ids(self.ls.counter_clockwise())
        }

        fn members(&self) -> Vec<Id> {
            self.ids(&self.ls.members().collect::<Vec<_>>())
        }

        fn rebuild(&mut self, cw: &[Id], ccw: &[Id]) {
            let (cw, ccw) = (self.entries(cw), self.entries(ccw));
            self.ls.rebuild(self.owner, &cw, &ccw);
        }

        fn set_side(&mut self, cw_side: bool, ids: &[Id]) {
            let side = self.entries(ids);
            self.ls.set_side(self.owner, cw_side, &side);
        }

        /// `closest_to` by id, checking that the slot it returns is its
        /// winner's.
        fn closest_to(&self, key: Id) -> Id {
            let arena = &self.arena;
            let (best, slot) =
                (self.ls).closest_to((self.owner, Slot(0)), key, |s| arena[s.index()]);
            assert_eq!(arena[slot.index()], best, "the slot names the winner");
            best
        }

        /// Add `id` on the side where it is nearer, sorted and trimmed to
        /// `HALF`, the way one leaf-set exchange would; whether the set
        /// changed. The overlay installs whole sets with `rebuild`; this
        /// and [`Fixture::remove`] build the fixtures.
        fn insert(&mut self, id: Id) -> bool {
            let owner = self.owner;
            if id == owner || self.members().contains(&id) {
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
            let mut side = if cw_side { self.cw() } else { self.ccw() };
            let pos = side.iter().position(|&x| dist(x) > dist(id));
            let pos = pos.unwrap_or(side.len());
            if pos >= HALF {
                return false;
            }
            side.insert(pos, id);
            side.truncate(HALF);
            self.set_side(cw_side, &side);
            true
        }

        /// Drop `id`; whether it was a member.
        fn remove(&mut self, id: Id) -> bool {
            for cw_side in [true, false] {
                let mut side = if cw_side { self.cw() } else { self.ccw() };
                if let Some(at) = side.iter().position(|&x| x == id) {
                    side.remove(at);
                    self.set_side(cw_side, &side);
                    return true;
                }
            }
            false
        }

        /// What `closest_to` was before it bracketed the key: every member
        /// measured, the smallest distance key kept.
        fn closest_by_fold(&self, key: Id) -> Id {
            (self.members().into_iter())
                .map(|m| (key.ring_distance(m), m))
                .fold((key.ring_distance(self.owner), self.owner), Ord::min)
                .1
        }
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

    fn set_with(owner: u64, members: &[u64]) -> Fixture {
        let mut fx = Fixture::new(id(owner));
        for &m in members {
            fx.insert(id(m));
        }
        fx
    }

    #[test]
    fn insert_sorts_by_side_distance() {
        let fx = set_with(100, &[110, 105, 90, 95, 120]);
        assert_eq!(fx.cw(), [id(105), id(110), id(120)]);
        assert_eq!(fx.ccw(), [id(95), id(90)]);
    }

    #[test]
    fn insert_dedups_and_ignores_owner() {
        let mut fx = set_with(100, &[105]);
        assert!(!fx.insert(id(105)));
        assert!(!fx.insert(id(100)));
        assert_eq!(fx.ls.len(), 1);
    }

    #[test]
    fn insert_trims_to_half() {
        let mut fx = Fixture::new(id(100)); // HALF = 8 per side
        for m in 101..=110 {
            fx.insert(id(m));
        }
        let nearest: Vec<Id> = (101..=108).map(id).collect();
        assert_eq!(fx.cw(), nearest);
        assert!(!fx.insert(id(101)), "already present");
        let mut fx2 = fx.clone();
        assert!(!fx2.insert(id(110)), "beyond capacity and farther");
    }

    #[test]
    fn nearer_node_displaces_farther() {
        let mut fx = Fixture::new(id(100));
        for m in (110..=180).step_by(10) {
            fx.insert(id(m));
        }
        assert_eq!(fx.cw().len(), HALF);
        assert_eq!(fx.cw().last(), Some(&id(180)));
        assert!(fx.insert(id(105)));
        assert_eq!(fx.cw()[..2], [id(105), id(110)]);
        assert_eq!(fx.cw().last(), Some(&id(170)), "the farthest left");
        assert!(fx.ls.covers(id(170)) && !fx.ls.covers(id(171)));
    }

    #[test]
    fn remove_either_side() {
        let mut fx = set_with(100, &[105, 95]);
        assert!(fx.remove(id(105)));
        assert!(fx.remove(id(95)));
        assert!(!fx.remove(id(42)));
        assert!(fx.ls.is_empty());
    }

    #[test]
    fn covers_and_closest() {
        let fx = set_with(100, &[105, 110, 95, 90]);
        let ls = &fx.ls;
        assert!(ls.covers(id(100)));
        assert!(ls.covers(id(107)));
        assert!(ls.covers(id(90)), "ccw edge inclusive");
        assert!(ls.covers(id(110)), "cw edge inclusive");
        assert!(!ls.covers(id(111)));
        assert!(!ls.covers(id(89)));
        assert_eq!(fx.closest_to(id(104)), id(105));
        assert_eq!(fx.closest_to(id(101)), id(100), "owner can be closest");
        assert_eq!(fx.closest_to(id(93)), id(95));
    }

    #[test]
    fn covers_wrapping_ring() {
        let mut fx = Fixture::new(Id::from_u64(2));
        fx.insert(Id::MAX); // predecessor across zero
        fx.insert(Id::from_u64(5));
        assert!(fx.ls.covers(Id::ZERO));
        assert!(fx.ls.covers(Id::from_u64(4)));
        assert!(!fx.ls.covers(Id::from_u64(9)));
    }

    #[test]
    fn singleton_covers_everything() {
        let fx = Fixture::new(id(7));
        assert!(fx.ls.covers(Id::MAX));
        assert_eq!(fx.closest_to(Id::MAX), id(7));
    }

    #[test]
    fn clones_are_independent_snapshots() {
        let mut fx = set_with(100, &[105, 110, 95]);
        let snap = fx.clone();
        // Reads and no-op writes change nothing.
        assert!(fx.ls.covers(id(107)));
        assert!(!fx.insert(id(105)));
        assert!(!fx.remove(id(42)));
        assert_eq!(fx.ls, snap.ls);
        assert!(fx.insert(id(103)));
        assert_eq!(
            snap.cw(),
            [id(105), id(110)],
            "snapshot must not see the insert"
        );
        // A rebuild that changes a side moves its edge, and only in the
        // set written.
        let before = fx.clone();
        fx.rebuild(&[id(103), id(105), id(110)], &[id(95)]);
        assert_eq!(fx.ls, before.ls, "no-op rebuild");
        fx.rebuild(&[id(103), id(105), id(110)], &[id(95), id(90)]);
        assert!(fx.ls.covers(id(91)) && !before.ls.covers(id(91)));
        assert_eq!(before.ccw(), [id(95)]);
    }

    #[test]
    fn the_sides_come_after_the_edges() {
        // What `covers` reads sits ahead of the two sides, so a node
        // handle's first lines hold it (overlay.rs checks the handle).
        let sides = 2 * HALF * std::mem::size_of::<Slot>();
        assert_eq!(
            std::mem::offset_of!(LeafSet, cw) + sides,
            std::mem::size_of::<LeafSet>()
        );
    }

    #[test]
    fn rebuild_replaces_and_trims() {
        let mut fx = Fixture::new(id(0));
        let cw: Vec<Id> = (1..=10).map(id).collect();
        fx.rebuild(&cw, &[Id::MAX]);
        assert_eq!(fx.cw(), &cw[..HALF]);
        assert_eq!(fx.ccw(), [Id::MAX]);
    }

    /// The bracket searches the key's side: with both sides full, no key
    /// costs more than three member-id reads, and the edges and the owner
    /// none.
    #[test]
    fn the_bracket_reads_at_most_three_member_ids() {
        let mut fx = Fixture::new(id(1000));
        let cw: Vec<Id> = (1..=HALF as u64).map(|d| id(1000 + 10 * d)).collect();
        let ccw: Vec<Id> = (1..=HALF as u64).map(|d| id(1000 - 10 * d)).collect();
        fx.rebuild(&cw, &ccw);
        let reads = Cell::new(0);
        let arena = &fx.arena;
        let mut most = 0;
        for key in (900..=1100).map(id) {
            reads.set(0);
            let id_of = |s: Slot| {
                reads.set(reads.get() + 1);
                arena[s.index()]
            };
            let (best, _) = fx.ls.closest_to((fx.owner, Slot(0)), key, id_of);
            assert_eq!(best, fx.closest_by_fold(key), "key {key:?}");
            most = most.max(reads.get());
        }
        assert_eq!(most, 3);
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
            let mut fx = Fixture::new(owner);
            for m in &members {
                fx.insert(Id::from_bytes(*m));
            }
            let best = fx.closest_to(key);
            for c in fx.members().into_iter().chain(std::iter::once(owner)) {
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
            let mut fx = Fixture::new(owner);
            fx.rebuild(&cw, &ccw);
            prop_assert!(fx.ls.len() < n, "overlapping sides are deduplicated");

            let want = fx
                .members()
                .into_iter()
                .chain(std::iter::once(owner))
                .min_by(|a, b| key.cmp_distance(*a, *b));
            prop_assert_eq!(Some(fx.closest_to(key)), want);
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
            let mut fx = Fixture::new(owner);
            for (op, pick) in std::iter::once((2, at)).chain(ops) {
                let x = ring[pick % n];
                match op {
                    0 => {
                        fx.insert(x);
                    }
                    1 => {
                        fx.remove(x);
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
                        fx.rebuild(&cw, &ccw);
                    }
                }
                let cw_edge = fx.cw().last().copied().unwrap_or(owner);
                let ccw_edge = fx.ccw().last().copied().unwrap_or(owner);
                prop_assert_eq!((fx.ls.cw_edge, fx.ls.ccw_edge), (cw_edge, ccw_edge));
                for key in keys.iter().map(|&v| place(v)).chain([owner, Id::HALF]) {
                    let want =
                        fx.ls.is_empty() || key == ccw_edge || key.between_cw(ccw_edge, cw_edge);
                    prop_assert_eq!(fx.ls.covers(key), want, "key {:?}", key);
                }
            }
        }

        #[test]
        fn prop_sides_stay_sorted_under_churn(
            owner in any::<[u8; 20]>(),
            ops in proptest::collection::vec((any::<[u8; 20]>(), any::<bool>()), 0..40),
        ) {
            let owner = Id::from_bytes(owner);
            let mut fx = Fixture::new(owner);
            for (bytes, leave) in ops {
                let x = Id::from_bytes(bytes);
                if leave {
                    fx.remove(x);
                } else {
                    fx.insert(x);
                }
                let (cw, ccw) = (fx.entries(&fx.cw()), fx.entries(&fx.ccw()));
                prop_assert!(super::is_sorted_by_cw_distance(owner, &cw));
                prop_assert!(super::is_sorted_by_ccw_distance(owner, &ccw));
                prop_assert!(cw.len() <= HALF);
                prop_assert!(ccw.len() <= HALF);
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
            let mut fx = Fixture::new(owner);
            if grown.is_empty() {
                let cw: Vec<Id> = (1..n).map(|t| ring[(at + t) % n]).take(HALF).collect();
                let ccw: Vec<Id> = (1..n).map(|t| ring[(at + n - t) % n]).take(HALF).collect();
                fx.rebuild(&cw, &ccw);
            } else {
                for (pick, leave) in grown {
                    let x = ring[pick % n];
                    if leave {
                        fx.remove(x);
                    } else {
                        fx.insert(x);
                    }
                }
            }
            let one = Id::from_u64(1);
            let mut arc: Vec<Id> = fx.ccw().into_iter().rev().collect();
            arc.push(owner);
            arc.extend(fx.cw());
            let mut probes: Vec<Id> = keys.into_iter().map(place).collect();
            for (i, &m) in arc.iter().enumerate() {
                probes.extend([m, m.wrapping_add(one), m.wrapping_sub(one)]);
                if let Some(&next) = arc.get(i + 1) {
                    probes.push(m.wrapping_add(halved(next.wrapping_sub(m))));
                }
            }
            for key in probes {
                prop_assert_eq!(
                    fx.closest_to(key),
                    fx.closest_by_fold(key),
                    "key {:?}, cw {:?}, ccw {:?}",
                    key,
                    fx.cw(),
                    fx.ccw()
                );
            }
        }
    }
}
