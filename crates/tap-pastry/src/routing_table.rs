//! Prefix routing tables.
//!
//! Row `r` of a node's table holds, for each digit value `d != own digit`,
//! some node whose id shares the first `r` digits with the owner and has
//! digit `d` at position `r`. Forwarding a key looks up row
//! `shared_prefix(owner, key)`, column `key.digit(row)` — each successful
//! hop extends the shared prefix by at least one digit, which bounds routes
//! at `log_{2^b} N` expected hops.
//!
//! A cell names its node by [`Slot`], the node's index in the overlay's
//! member arena, not by its 20-byte id: a cell is four bytes, and a
//! forwarding step reaches the next hop's liveness and handle with one
//! index instead of a hash probe. The table cannot read an id out of a
//! cell on its own, so the methods that need one (`absorb_row`,
//! `assert_invariants`) take the arena's resolver.
//!
//! The table is one flat row-major grid holding exactly the rows in use: in
//! an `N`-node network only the first `~log_{2^b} N` rows are ever
//! non-empty, so a 10^4-node overlay costs about 260 bytes of table per
//! node instead of the 2.5 KB a dense 40-row grid would take, and a lookup
//! is one index into one allocation.
//!
//! Every entry sits in its *natural cell* (row = prefix shared with the
//! owner, column = next digit): `consider`, the only writer, puts it there,
//! and `assert_invariants` checks it. So a node can occupy one cell only,
//! and `evict` reads and clears that cell instead of scanning.
//!
//! The grid is an exact-size `Box<[Slot]>` owned by the node handle, so the
//! handle is the one copy-on-write unit of an overlay snapshot: cloning a
//! table copies its grid.

use tap_id::Id;

/// A node's index in the overlay's member arena: what a table cell holds.
/// An id keeps its slot after it departs, so a cell that names it comes
/// alive again when it rejoins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Slot(pub(crate) u32);

impl Slot {
    /// What an empty cell holds; never an arena index.
    pub(crate) const EMPTY: Slot = Slot(u32::MAX);

    /// The arena index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One node's routing table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RoutingTable {
    owner: Id,
    b: u32,
    /// `cells[(r << b) + c]` — a node matching `r` digits with digit `c`
    /// next, or [`Slot::EMPTY`]. Exactly `depth × 2^b` long.
    cells: Box<[Slot]>,
}

impl RoutingTable {
    /// An empty table for `owner` with digit width `b`.
    pub(crate) fn new(owner: Id, b: u32) -> Self {
        debug_assert!((1..=8).contains(&b));
        RoutingTable {
            owner,
            b,
            cells: Box::default(),
        }
    }

    /// The index of `id`'s natural cell: shared prefix length, next digit.
    /// Past the grid for the owner itself, which shares every digit.
    fn cell_of(&self, id: Id) -> usize {
        let row = self.owner.shared_prefix_digits(id, self.b);
        (row << self.b) + id.digit(row, self.b) as usize
    }

    /// Row `r`'s cells; empty when the row is not allocated.
    fn row(&self, r: usize) -> &[Slot] {
        self.cells
            .get(r << self.b..(r + 1) << self.b)
            .unwrap_or_default()
    }

    /// The occupant of cell `i`, if the cell exists and is populated.
    fn at(&self, i: usize) -> Option<Slot> {
        self.cells.get(i).copied().filter(|&s| s != Slot::EMPTY)
    }

    /// The entry at `(row, col)`, if the row exists and is populated.
    pub(crate) fn entry(&self, row: usize, col: usize) -> Option<Slot> {
        debug_assert!(col < 1 << self.b);
        self.at((row << self.b) + col)
    }

    /// Install `candidate`, whose slot is `slot`, wherever it fits: row =
    /// shared prefix length, col = its next digit, growing the grid by
    /// whole rows to reach it. An empty cell is always taken; an occupied
    /// one is kept. Returns whether the table changed.
    pub(crate) fn consider(&mut self, candidate: Id, slot: Slot) -> bool {
        if candidate == self.owner {
            return false;
        }
        let i = self.cell_of(candidate);
        if self.at(i).is_some() {
            return false;
        }
        if self.cells.len() <= i {
            self.grow((i >> self.b) + 1);
        }
        self.cells[i] = slot;
        true
    }

    /// Widen the grid to `rows` whole rows, the new cells empty.
    fn grow(&mut self, rows: usize) {
        let mut grown = vec![Slot::EMPTY; rows << self.b].into_boxed_slice();
        grown[..self.cells.len()].copy_from_slice(&self.cells);
        self.cells = grown;
    }

    /// Clear `dead`'s natural cell if it holds `slot`, `dead`'s slot.
    /// Returns how many cells were cleared (0 or 1).
    pub(crate) fn evict(&mut self, dead: Id, slot: Slot) -> usize {
        let i = self.cell_of(dead);
        match self.cells.get_mut(i) {
            Some(cell) if *cell == slot && slot != Slot::EMPTY => {
                *cell = Slot::EMPTY;
                1
            }
            _ => 0,
        }
    }

    /// Clear every cell whose occupant satisfies `dead` (batch eviction
    /// after a mass failure: one pass instead of one
    /// [`RoutingTable::evict`] per dead node).
    pub(crate) fn evict_where<F: Fn(Slot) -> bool>(&mut self, dead: F) -> usize {
        let mut cleared = 0;
        for cell in self.cells.iter_mut() {
            if *cell != Slot::EMPTY && dead(*cell) {
                *cell = Slot::EMPTY;
                cleared += 1;
            }
        }
        cleared
    }

    /// The canonical next hop for `key`: the entry one digit deeper.
    pub(crate) fn next_hop(&self, key: Id) -> Option<Slot> {
        self.at(self.cell_of(key))
    }

    /// All populated entries (row-major).
    pub(crate) fn entries(&self) -> impl Iterator<Item = Slot> + '_ {
        self.cells.iter().copied().filter(|&s| s != Slot::EMPTY)
    }

    /// Copy every entry of `other`'s row `row` into this table (the join
    /// protocol: the i-th node on the join path donates its i-th row),
    /// keeping what is already here, as [`RoutingTable::consider`] would
    /// entry by entry. `id_of` reads a slot's id out of the member arena.
    ///
    /// A donor sharing more than `row` digits with the owner donates its
    /// row whole: each entry shares exactly `row` digits with the donor,
    /// hence with the owner, and the same next digit, so its cell here is
    /// its cell there — and no entry is the owner, whose cell in the
    /// donor's table is deeper. Any other donor's entries are placed one
    /// by one.
    pub(crate) fn absorb_row(
        &mut self,
        other: &RoutingTable,
        row: usize,
        id_of: impl Fn(Slot) -> Option<Id>,
    ) {
        let donated = other.row(row);
        if self.owner.shared_prefix_digits(other.owner, self.b) <= row {
            for &slot in donated.iter().filter(|&&s| s != Slot::EMPTY) {
                if let Some(id) = id_of(slot) {
                    self.consider(id, slot);
                }
            }
            return;
        }
        let start = row << self.b;
        if self.cells.len() <= start {
            if donated.iter().all(|&s| s == Slot::EMPTY) {
                return;
            }
            self.grow(row + 1);
        }
        debug_assert!((donated.iter().enumerate()).all(|(i, &slot)| {
            slot == Slot::EMPTY || id_of(slot).map(|id| self.cell_of(id)) == Some(start + i)
        }));
        let cells = &mut self.cells[start..start + donated.len()];
        for (cell, &slot) in cells.iter_mut().zip(donated) {
            if *cell == Slot::EMPTY {
                *cell = slot;
            }
        }
    }

    /// Highest allocated row index plus one (diagnostics).
    pub(crate) fn depth(&self) -> usize {
        self.cells.len() >> self.b
    }

    /// Check the structural invariant of every populated cell: it names an
    /// id (`id_of` resolves slots) other than the owner, which shares
    /// exactly `row` digits with the owner and whose digit at `row` is the
    /// column index. Panics on violation (test helper).
    pub(crate) fn assert_invariants(&self, id_of: impl Fn(Slot) -> Option<Id>) {
        let cells = self.cells.iter().copied().enumerate();
        for (i, slot) in cells.filter(|&(_, s)| s != Slot::EMPTY) {
            let id = id_of(slot);
            assert_ne!(id, Some(self.owner), "owner must not appear in own table");
            assert_eq!(
                id.map(|id| self.cell_of(id)),
                Some(i),
                "{slot:?} in cell {i}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn hexid(s: &str) -> Id {
        // Expand a short hex prefix to a full 40-char id padded with zeros.
        format!("{s:0<40}").parse().unwrap()
    }

    /// Slots handed out in first-seen order, as the overlay's member arena
    /// hands them out.
    #[derive(Default)]
    struct Arena(Vec<Id>);

    impl Arena {
        fn slot(&mut self, id: Id) -> Slot {
            let i = self.0.iter().position(|&x| x == id).unwrap_or_else(|| {
                self.0.push(id);
                self.0.len() - 1
            });
            Slot(i as u32)
        }

        fn id_of(&self, slot: Slot) -> Option<Id> {
            self.0.get(slot.index()).copied()
        }

        /// `consider` with `id`'s slot.
        fn put(&mut self, rt: &mut RoutingTable, id: Id) -> bool {
            let slot = self.slot(id);
            rt.consider(id, slot)
        }

        /// `evict` with `id`'s slot.
        fn evict(&mut self, rt: &mut RoutingTable, id: Id) -> usize {
            let slot = self.slot(id);
            rt.evict(id, slot)
        }

        fn entry(&self, rt: &RoutingTable, row: usize, col: usize) -> Option<Id> {
            rt.entry(row, col).and_then(|s| self.id_of(s))
        }

        fn entries(&self, rt: &RoutingTable) -> Vec<Id> {
            rt.entries().filter_map(|s| self.id_of(s)).collect()
        }

        fn next_hop(&self, rt: &RoutingTable, key: Id) -> Option<Id> {
            rt.next_hop(key).and_then(|s| self.id_of(s))
        }

        fn check(&self, rt: &RoutingTable) {
            rt.assert_invariants(|s| self.id_of(s));
        }

        /// `replace` with `id`'s slot.
        fn replace(&mut self, rt: &mut RoutingTable, id: Id) {
            let slot = self.slot(id);
            rt.replace(id, slot);
        }

        fn fallback_hop(&self, rt: &RoutingTable, key: Id) -> Option<Id> {
            rt.fallback_hop(key, |s| self.id_of(s))
                .and_then(|s| self.id_of(s))
        }
    }

    /// Writers and readers the overlay does not use, kept to test the
    /// table's placement rule and Pastry's rare-case rule on their own.
    impl RoutingTable {
        /// Force-install `candidate`, whose slot is `slot`, in its natural
        /// cell, evicting any previous occupant.
        fn replace(&mut self, candidate: Id, slot: Slot) {
            if candidate != self.owner && !self.consider(candidate, slot) {
                let i = self.cell_of(candidate);
                self.cells[i] = slot;
            }
        }

        /// Pastry's rare case over the table alone: the entry closest to
        /// `key` among those that share at least as long a prefix with
        /// `key` as the owner does *and* are numerically closer to it.
        /// `id_of` resolves slots.
        fn fallback_hop(&self, key: Id, id_of: impl Fn(Slot) -> Option<Id>) -> Option<Slot> {
            let own_prefix = self.owner.shared_prefix_digits(key, self.b);
            let mut best: Option<(Id, Slot)> = None;
            for (c, slot) in self.entries().filter_map(|s| Some((id_of(s)?, s))) {
                if c.shared_prefix_digits(key, self.b) >= own_prefix
                    && c.closer_to(key, self.owner)
                    && best.is_none_or(|(b, _)| c.closer_to(key, b))
                {
                    best = Some((c, slot));
                }
            }
            best.map(|(_, slot)| slot)
        }

        /// Number of populated cells.
        fn occupancy(&self) -> usize {
            self.entries().count()
        }

        /// `absorb_row` as it was before a deeper donor's row was copied
        /// whole: every donated entry placed by `consider`. The oracle of
        /// `prop_a_row_copy_is_the_per_cell_absorb` and of the join in
        /// `overlay/oracle.rs`.
        pub(crate) fn absorb_row_per_cell(
            &mut self,
            other: &RoutingTable,
            row: usize,
            id_of: impl Fn(Slot) -> Option<Id>,
        ) {
            for &slot in other.row(row).iter().filter(|&&s| s != Slot::EMPTY) {
                if let Some(id) = id_of(slot) {
                    self.consider(id, slot);
                }
            }
        }
    }

    /// A random id sharing exactly `digits` digits of width `b` with `x`.
    fn sharing(x: Id, digits: usize, b: u32, rng: &mut StdRng) -> Id {
        let mut y = Id::random(rng);
        for i in 0..digits {
            y = y.with_digit(i, b, x.digit(i, b));
        }
        let other = (x.digit(digits, b) as u32 + rng.gen_range(1..1u32 << b)) % (1 << b);
        y.with_digit(digits, b, other as u8)
    }

    #[test]
    fn consider_places_by_prefix_and_digit() {
        let mut a = Arena::default();
        let mut rt = RoutingTable::new(hexid("a1"), 4);
        assert!(a.put(&mut rt, hexid("b3")));
        assert!(a.put(&mut rt, hexid("a7")));
        assert_eq!(a.entry(&rt, 0, 0xb), Some(hexid("b3")));
        assert_eq!(a.entry(&rt, 1, 0x7), Some(hexid("a7")));
        a.check(&rt);
    }

    #[test]
    fn consider_keeps_existing_occupant() {
        let mut a = Arena::default();
        let mut rt = RoutingTable::new(hexid("00"), 4);
        assert!(a.put(&mut rt, hexid("f1")));
        assert!(!a.put(&mut rt, hexid("f2")), "cell already has an f-node");
        assert_eq!(a.entry(&rt, 0, 0xf), Some(hexid("f1")));
        a.replace(&mut rt, hexid("f2"));
        assert_eq!(a.entry(&rt, 0, 0xf), Some(hexid("f2")));
        a.replace(&mut rt, hexid("0f1")); // grows the grid to row 1
        assert_eq!(a.entry(&rt, 1, 0xf), Some(hexid("0f1")));
        assert_eq!(rt.occupancy(), 2);
        a.check(&rt);
    }

    #[test]
    fn owner_never_inserted() {
        let mut a = Arena::default();
        let mut rt = RoutingTable::new(hexid("aa"), 4);
        assert!(!a.put(&mut rt, hexid("aa")));
        a.replace(&mut rt, hexid("aa"));
        assert_eq!(rt.occupancy(), 0);
    }

    #[test]
    fn next_hop_extends_prefix() {
        let mut a = Arena::default();
        let owner = hexid("1234");
        let mut rt = RoutingTable::new(owner, 4);
        let target = hexid("1299");
        // A node sharing "12" and having next digit 9:
        let hop = hexid("129a");
        a.put(&mut rt, hop);
        assert_eq!(a.next_hop(&rt, target), Some(hop));
        assert!(
            hop.shared_prefix_digits(target, 4) > owner.shared_prefix_digits(target, 4),
            "hop must extend the shared prefix"
        );
    }

    #[test]
    fn next_hop_missing_slot_is_none() {
        let rt = RoutingTable::new(hexid("12"), 4);
        assert_eq!(rt.next_hop(hexid("34")), None);
    }

    #[test]
    fn evict_clears_only_the_named_slot() {
        let mut a = Arena::default();
        let mut rt = RoutingTable::new(hexid("00"), 4);
        a.put(&mut rt, hexid("ff"));
        // Another id whose natural cell is the same one: not the occupant.
        assert_eq!(a.evict(&mut rt, hexid("f1")), 0);
        assert_eq!(rt.evict(hexid("ff"), Slot::EMPTY), 0);
        assert_eq!(a.evict(&mut rt, hexid("ff")), 1);
        assert_eq!(rt.entry(0, 0xf), None);
        assert_eq!(a.evict(&mut rt, hexid("ff")), 0);
    }

    #[test]
    fn fallback_finds_closer_same_prefix_node() {
        let mut a = Arena::default();
        let owner = hexid("10");
        let key = hexid("1f");
        let mut rt = RoutingTable::new(owner, 4);
        // No entry in the canonical cell (row 1, col f)? Put one only in a
        // "wrong" position: a node 1e.. sits in row 1 col e.
        let helper = hexid("1e");
        a.put(&mut rt, helper);
        assert_eq!(rt.next_hop(key), None, "canonical cell empty");
        assert_eq!(a.fallback_hop(&rt, key), Some(helper));
    }

    #[test]
    fn fallback_rejects_farther_nodes() {
        let mut a = Arena::default();
        let owner = hexid("1f00");
        let key = hexid("1f11");
        let mut rt = RoutingTable::new(owner, 4);
        a.put(&mut rt, hexid("1a")); // same 1-digit prefix but farther from key
        assert_eq!(a.fallback_hop(&rt, key), None);
    }

    #[test]
    fn absorb_row_copies_entries() {
        let mut a = Arena::default();
        let donor_owner = hexid("1111");
        let mut donor = RoutingTable::new(donor_owner, 4);
        a.put(&mut donor, hexid("1511"));
        a.put(&mut donor, hexid("1911"));
        let mut rt = RoutingTable::new(hexid("1222"), 4);
        rt.absorb_row(&donor, 1, |s| a.id_of(s));
        // Both donated entries share 1 digit with the new owner too.
        assert_eq!(a.entry(&rt, 1, 5), Some(hexid("1511")));
        assert_eq!(a.entry(&rt, 1, 9), Some(hexid("1911")));
        a.check(&rt);
    }

    #[test]
    fn the_grid_is_exact_size_whole_rows_of_four_byte_cells() {
        let mut a = Arena::default();
        let mut rt = RoutingTable::new(hexid("00"), 4);
        a.put(&mut rt, hexid("a1")); // row 0
        a.put(&mut rt, hexid("001")); // row 2
        assert_eq!(std::mem::size_of::<Slot>(), 4);
        assert_eq!((rt.depth(), rt.cells.len()), (3, 3 << 4));
        assert_eq!(rt.row(1), [Slot::EMPTY; 16]);
    }

    #[test]
    fn evictions_through_one_clone_are_invisible_through_the_other() {
        let mut a = Arena::default();
        let mut rt = RoutingTable::new(hexid("00"), 4);
        a.put(&mut rt, hexid("a1")); // row 0 col a
        a.put(&mut rt, hexid("b1")); // row 0 col b
        a.put(&mut rt, hexid("0b")); // row 1 col b
        let snap = rt.clone();
        let dead = [a.slot(hexid("a1")), a.slot(hexid("b1"))];
        assert_eq!(rt.evict_where(|s| dead.contains(&s)), 2);
        assert_eq!(a.entries(&rt), [hexid("0b")]);
        assert_eq!(a.evict(&mut rt, hexid("0b")), 1);
        assert_eq!(rt.occupancy(), 0);
        assert_eq!(rt.depth(), 2, "eviction never shrinks the grid");
        assert_eq!(a.entries(&snap), [hexid("a1"), hexid("b1"), hexid("0b")]);
        a.check(&snap);
        a.check(&rt);
    }

    #[test]
    fn depth_grows_lazily() {
        let mut a = Arena::default();
        let mut rt = RoutingTable::new(hexid("00"), 4);
        assert_eq!(rt.depth(), 0);
        a.put(&mut rt, hexid("01"));
        assert_eq!(rt.depth(), 2, "row 1 allocated on demand");
    }

    proptest! {
        /// Every entry sits in its natural cell, so one cell answers for an
        /// id. Tables built by random `consider`, `replace`, `evict`,
        /// `absorb_row` and `evict_where` (ids near the owner too, so that
        /// deep rows fill):
        /// `next_hop(x) == x` agrees with a scan of the grid for present
        /// ids, absent ones and the owner; `evict` clears the cells
        /// `evict_where` clears and counts the same; evicting an absent id
        /// changes nothing.
        #[test]
        fn prop_one_cell_answers_for_an_id(
            seed in any::<u64>(),
            b in 1u32..=8,
            ops in proptest::collection::vec((0u8..5, any::<u64>()), 1..60),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = Arena::default();
            let owner = Id::random(&mut rng);
            let pick = |rng: &mut StdRng, bits: u64| {
                if bits.is_multiple_of(2) {
                    owner.flip_bit((bits >> 1) as usize % 160)
                } else {
                    Id::random(rng)
                }
            };
            let mut donor = RoutingTable::new(owner.flip_bit(100), b);
            for i in 0..40u64 {
                let x = pick(&mut rng, i * 7);
                a.put(&mut donor, x);
            }
            let mut rt = RoutingTable::new(owner, b);
            let mut seen: Vec<Id> = a.entries(&donor);
            for (op, bits) in ops {
                let x = pick(&mut rng, bits);
                seen.push(x);
                match op {
                    0 => {
                        a.put(&mut rt, x);
                    }
                    1 => a.replace(&mut rt, x),
                    2 => {
                        a.evict(&mut rt, x);
                    }
                    3 => rt.absorb_row(&donor, bits as usize % donor.depth().max(1), |s| a.id_of(s)),
                    _ => {
                        let ids = &a;
                        rt.evict_where(|s| ids.id_of(s).is_some_and(|y| y.low_u64() % 3 == bits % 3));
                    }
                }
            }
            a.check(&rt);
            let absent: Vec<Id> = (0..8).map(|_| Id::random(&mut rng)).collect();
            for x in seen.into_iter().chain(absent).chain([owner]) {
                let present = a.entries(&rt).contains(&x);
                prop_assert_eq!(a.next_hop(&rt, x) == Some(x), present);
                let slot = a.slot(x);
                let (mut one, mut scan) = (rt.clone(), rt.clone());
                prop_assert_eq!(one.evict(x, slot), scan.evict_where(|s| s == slot));
                prop_assert_eq!(&one, &scan);
                prop_assert!(a.next_hop(&one, x) != Some(x));
                prop_assert_eq!(one == rt, !present);
            }
        }

        /// A donated row lands where `consider` would put it entry by
        /// entry, whether the donor shares fewer digits with the owner
        /// than the row's index, as many, or more (the whole-row copy) —
        /// and a donor that shares exactly `row` digits names the owner's
        /// own slot in that row, as a donor does for an id re-joining.
        #[test]
        fn prop_a_row_copy_is_the_per_cell_absorb(
            seed in any::<u64>(),
            b in 1u32..=5,
            row in 0usize..6,
            relation in 0u8..3,
            fill in 0usize..60,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = Arena::default();
            let owner = Id::random(&mut rng);
            let shared = match relation {
                0 => rng.gen_range(0..row.max(1)),
                1 => row,
                _ => rng.gen_range(row + 1..row + 3),
            };
            let donor_id = sharing(owner, shared, b, &mut rng);
            let mut donor = RoutingTable::new(donor_id, b);
            a.put(&mut donor, owner);
            for _ in 0..fill {
                let depth = rng.gen_range(0..row + 2);
                let x = sharing(donor_id, depth, b, &mut rng);
                a.put(&mut donor, x);
            }
            let mut rt = RoutingTable::new(owner, b);
            for _ in 0..fill % 7 {
                let depth = rng.gen_range(0..row + 2);
                let x = sharing(owner, depth, b, &mut rng);
                a.put(&mut rt, x);
            }
            let (mut got, mut want) = (rt.clone(), rt);
            got.absorb_row(&donor, row, |s| a.id_of(s));
            want.absorb_row_per_cell(&donor, row, |s| a.id_of(s));
            prop_assert_eq!(&got, &want);
            a.check(&got);
        }

        /// The owner shares every digit with itself, so the table is asked
        /// for row `digits_for(b)` and the digit past the end: an empty
        /// answer at every digit width, never an index out of range.
        #[test]
        fn prop_owner_as_key_never_panics(
            owner in any::<[u8; 20]>(), b in 1u32..=8, fill in any::<u64>()
        ) {
            let owner = Id::from_bytes(owner);
            let mut a = Arena::default();
            let mut rt = RoutingTable::new(owner, b);
            let mut rng = StdRng::seed_from_u64(fill);
            for _ in 0..32 {
                a.put(&mut rt, Id::random(&mut rng));
            }
            // The deepest row a table can have: the owner with its last
            // bit flipped shares every digit but the final one.
            a.put(&mut rt, owner.flip_bit(159));
            prop_assert_eq!(rt.depth(), tap_id::digits_for(b));
            let before = rt.clone();
            prop_assert_eq!(rt.next_hop(owner), None);
            prop_assert!(!a.put(&mut rt, owner));
            a.replace(&mut rt, owner);
            prop_assert_eq!(a.fallback_hop(&rt, owner), None);
            prop_assert_eq!(a.evict(&mut rt, owner), 0);
            prop_assert_eq!(&rt, &before);
            a.check(&rt);
        }

        #[test]
        fn prop_invariants_hold_under_random_churn(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = Arena::default();
            let owner = Id::random(&mut rng);
            let mut rt = RoutingTable::new(owner, 4);
            let mut pool = Vec::new();
            for _ in 0..200 {
                let x = Id::random(&mut rng);
                pool.push(x);
                a.put(&mut rt, x);
            }
            for (i, x) in pool.iter().enumerate() {
                if i % 3 == 0 {
                    a.evict(&mut rt, *x);
                }
            }
            a.check(&rt);
        }

        #[test]
        fn prop_next_hop_always_extends_prefix(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = Arena::default();
            let owner = Id::random(&mut rng);
            let mut rt = RoutingTable::new(owner, 4);
            for _ in 0..300 {
                a.put(&mut rt, Id::random(&mut rng));
            }
            for _ in 0..50 {
                let key = Id::random(&mut rng);
                if let Some(hop) = a.next_hop(&rt, key) {
                    prop_assert!(
                        hop.shared_prefix_digits(key, 4)
                            > owner.shared_prefix_digits(key, 4)
                    );
                }
            }
        }

        #[test]
        fn prop_fallback_result_is_progress(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = Arena::default();
            let owner = Id::random(&mut rng);
            let mut rt = RoutingTable::new(owner, 4);
            for _ in 0..100 {
                a.put(&mut rt, Id::random(&mut rng));
            }
            for _ in 0..50 {
                let key = Id::random(&mut rng);
                if let Some(hop) = a.fallback_hop(&rt, key) {
                    prop_assert!(hop.closer_to(key, owner));
                    prop_assert!(
                        hop.shared_prefix_digits(key, 4)
                            >= owner.shared_prefix_digits(key, 4)
                    );
                }
            }
        }
    }
}
