//! Prefix routing tables.
//!
//! Row `r` of a node's table holds, for each digit value `d != own digit`,
//! some node whose id shares the first `r` digits with the owner and has
//! digit `d` at position `r`. Forwarding a key looks up row
//! `shared_prefix(owner, key)`, column `key.digit(row)` — each successful
//! hop extends the shared prefix by at least one digit, which bounds routes
//! at `log_{2^b} N` expected hops.
//!
//! The table is one flat row-major grid holding exactly the rows in use: in
//! an `N`-node network only the first `~log_{2^b} N` rows are ever
//! non-empty, so a 10^4-node overlay costs about 1.4 KB of table per node
//! instead of the 13 KB a dense 40-row matrix would take, and a lookup is
//! one index into one allocation.
//!
//! Every entry sits in its *natural slot* (row = prefix shared with the
//! owner, column = next digit): `consider` and `replace`, the only writers,
//! put it there, and `assert_invariants` checks it. So an id can occupy one
//! cell only, and `evict` reads and clears that cell instead of scanning.
//!
//! The grid is `Arc`-shared: cloning a table is one pointer bump, and the
//! clone shares the grid until the first write that changes a cell
//! ([`Arc::make_mut`] copies the grid then; a write that changes nothing
//! copies nothing). This is what makes whole overlay snapshots cost only
//! the nodes a sweep point actually touches.

use std::sync::Arc;

use tap_id::Id;

/// One node's routing table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    owner: Id,
    b: u32,
    /// `cells[(r << b) + c]` — a node matching `r` digits with digit `c`
    /// next. Exactly `depth × 2^b` long; copy-on-write shared between table
    /// clones.
    cells: Arc<[Option<Id>]>,
}

impl RoutingTable {
    /// An empty table for `owner` with digit width `b`.
    pub fn new(owner: Id, b: u32) -> Self {
        debug_assert!((1..=8).contains(&b));
        RoutingTable {
            owner,
            b,
            cells: Arc::default(),
        }
    }

    /// The natural `(row, col)` of `id`: shared prefix length, next digit.
    fn slot_of(&self, id: Id) -> (usize, usize) {
        let row = self.owner.shared_prefix_digits(id, self.b);
        (row, id.digit(row, self.b) as usize)
    }

    /// Row `r`'s cells; empty when the row is not allocated.
    fn row(&self, r: usize) -> &[Option<Id>] {
        self.cells
            .get(r << self.b..(r + 1) << self.b)
            .unwrap_or_default()
    }

    /// Write `candidate` into `(row, col)`, growing the grid by whole rows
    /// to reach it. Callers have checked that the cell changes.
    fn set(&mut self, row: usize, col: usize, candidate: Id) {
        if self.depth() <= row {
            let grown = (row + 1) << self.b;
            self.cells = (0..grown)
                .map(|i| self.cells.get(i).copied().flatten())
                .collect();
        }
        Arc::make_mut(&mut self.cells)[(row << self.b) + col] = Some(candidate);
    }

    /// The entry at `(row, col)`, if the row exists and is populated.
    pub fn entry(&self, row: usize, col: usize) -> Option<Id> {
        debug_assert!(col < 1 << self.b);
        self.cells.get((row << self.b) + col).copied().flatten()
    }

    /// Install `candidate` wherever it fits: row = shared prefix length,
    /// col = its next digit. An empty slot is always taken; an occupied
    /// slot is kept (Pastry replaces based on proximity, which the caller
    /// can express by calling [`RoutingTable::replace`]). Returns whether
    /// the table changed.
    pub fn consider(&mut self, candidate: Id) -> bool {
        if candidate == self.owner {
            return false;
        }
        let (row, col) = self.slot_of(candidate);
        // Read before write: an occupied slot must not unshare the grid.
        if self.entry(row, col).is_some() {
            return false;
        }
        self.set(row, col, candidate);
        true
    }

    /// Force-install `candidate` in its natural slot, evicting any previous
    /// occupant (used when a repair learns a fresher node).
    pub fn replace(&mut self, candidate: Id) {
        if candidate == self.owner {
            return;
        }
        let (row, col) = self.slot_of(candidate);
        // A no-op replace keeps the grid shared.
        if self.entry(row, col) != Some(candidate) {
            self.set(row, col, candidate);
        }
    }

    /// Whether `id` is in the table: its natural slot is the one cell it can occupy.
    fn holds(&self, id: Id) -> bool {
        self.next_hop(id) == Some(id)
    }

    /// Clear `dead`'s natural slot if it holds `dead`. Returns how many
    /// cells were cleared (0 or 1); a table without `dead` stays shared.
    pub fn evict(&mut self, dead: Id) -> usize {
        if !self.holds(dead) {
            return 0;
        }
        let (row, col) = self.slot_of(dead);
        Arc::make_mut(&mut self.cells)[(row << self.b) + col] = None;
        1
    }

    /// Clear every slot whose occupant satisfies `dead` (batch eviction
    /// after a mass failure: one pass instead of one
    /// [`RoutingTable::evict`] per dead node). A table with only surviving
    /// entries stays shared.
    pub fn evict_where<F: Fn(Id) -> bool>(&mut self, dead: F) -> usize {
        let is_dead = |slot: &Option<Id>| slot.is_some_and(&dead);
        // Scan shared; copy the grid only when it actually holds a victim.
        let Some(first) = self.cells.iter().position(is_dead) else {
            return 0;
        };
        let mut cleared = 0;
        for slot in &mut Arc::make_mut(&mut self.cells)[first..] {
            if is_dead(slot) {
                *slot = None;
                cleared += 1;
            }
        }
        cleared
    }

    /// The canonical next hop for `key`: the entry one digit deeper.
    pub fn next_hop(&self, key: Id) -> Option<Id> {
        let (row, col) = self.slot_of(key);
        self.entry(row, col)
    }

    /// Fallback search (Pastry's "rare case"): any known node that shares
    /// at least as long a prefix with `key` as the owner does *and* is
    /// numerically closer to `key` than the owner. Scans the table.
    pub fn fallback_hop(&self, key: Id) -> Option<Id> {
        let own_prefix = self.owner.shared_prefix_digits(key, self.b);
        let mut best: Option<Id> = None;
        for c in self.entries() {
            if c.shared_prefix_digits(key, self.b) >= own_prefix
                && c.closer_to(key, self.owner)
                && best.is_none_or(|b| c.closer_to(key, b))
            {
                best = Some(c);
            }
        }
        best
    }

    /// All populated entries (row-major).
    pub fn entries(&self) -> impl Iterator<Item = Id> + '_ {
        self.cells.iter().flatten().copied()
    }

    /// Copy every entry of `other`'s row `row` into this table (the join
    /// protocol: the i-th node on the join path donates its i-th row).
    pub fn absorb_row(&mut self, other: &RoutingTable, row: usize) {
        for id in other.row(row).iter().flatten() {
            self.consider(*id);
        }
    }

    /// A fully-owned copy: the grid is reallocated, sharing nothing with
    /// `self`. The oracle the snapshot proptests compare COW clones against.
    pub fn deep_clone(&self) -> RoutingTable {
        RoutingTable {
            owner: self.owner,
            b: self.b,
            cells: Arc::from(&*self.cells),
        }
    }

    /// Number of populated slots (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.entries().count()
    }

    /// Highest allocated row index plus one (diagnostics).
    pub fn depth(&self) -> usize {
        self.cells.len() >> self.b
    }

    /// Check the structural invariant of every populated slot: the entry
    /// shares exactly `row` digits with the owner and its digit at `row` is
    /// the column index. Panics on violation (test helper).
    pub fn assert_invariants(&self) {
        for (i, slot) in self.cells.iter().enumerate() {
            if let Some(id) = slot {
                assert_ne!(*id, self.owner, "owner must not appear in own table");
                assert_eq!(
                    self.slot_of(*id),
                    (i >> self.b, i & ((1 << self.b) - 1)),
                    "entry {id} in the wrong cell"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn hexid(s: &str) -> Id {
        // Expand a short hex prefix to a full 40-char id padded with zeros.
        format!("{s:0<40}").parse().unwrap()
    }

    #[test]
    fn consider_places_by_prefix_and_digit() {
        let mut rt = RoutingTable::new(hexid("a1"), 4);
        assert!(rt.consider(hexid("b3")));
        assert!(rt.consider(hexid("a7")));
        assert_eq!(rt.entry(0, 0xb), Some(hexid("b3")));
        assert_eq!(rt.entry(1, 0x7), Some(hexid("a7")));
        rt.assert_invariants();
    }

    #[test]
    fn consider_keeps_existing_occupant() {
        let mut rt = RoutingTable::new(hexid("00"), 4);
        assert!(rt.consider(hexid("f1")));
        assert!(!rt.consider(hexid("f2")), "slot already has an f-node");
        assert_eq!(rt.entry(0, 0xf), Some(hexid("f1")));
        rt.replace(hexid("f2"));
        assert_eq!(rt.entry(0, 0xf), Some(hexid("f2")));
    }

    #[test]
    fn owner_never_inserted() {
        let mut rt = RoutingTable::new(hexid("aa"), 4);
        assert!(!rt.consider(hexid("aa")));
        rt.replace(hexid("aa"));
        assert_eq!(rt.occupancy(), 0);
    }

    #[test]
    fn next_hop_extends_prefix() {
        let owner = hexid("1234");
        let mut rt = RoutingTable::new(owner, 4);
        let target = hexid("1299");
        // A node sharing "12" and having next digit 9:
        let hop = hexid("129a");
        rt.consider(hop);
        assert_eq!(rt.next_hop(target), Some(hop));
        let got = rt.next_hop(target).unwrap();
        assert!(
            got.shared_prefix_digits(target, 4) > owner.shared_prefix_digits(target, 4),
            "hop must extend the shared prefix"
        );
    }

    #[test]
    fn next_hop_missing_slot_is_none() {
        let rt = RoutingTable::new(hexid("12"), 4);
        assert_eq!(rt.next_hop(hexid("34")), None);
    }

    #[test]
    fn evict_clears_all_occurrences() {
        let mut rt = RoutingTable::new(hexid("00"), 4);
        rt.consider(hexid("ff"));
        assert_eq!(rt.evict(hexid("ff")), 1);
        assert_eq!(rt.entry(0, 0xf), None);
        assert_eq!(rt.evict(hexid("ff")), 0);
    }

    #[test]
    fn fallback_finds_closer_same_prefix_node() {
        let owner = hexid("10");
        let key = hexid("1f");
        let mut rt = RoutingTable::new(owner, 4);
        // No entry in the canonical slot (row 1, col f)? Put one only in a
        // "wrong" position: a node 1e.. sits in row 1 col e.
        let helper = hexid("1e");
        rt.consider(helper);
        assert_eq!(rt.next_hop(key), None, "canonical slot empty");
        assert_eq!(rt.fallback_hop(key), Some(helper));
    }

    #[test]
    fn fallback_rejects_farther_nodes() {
        let owner = hexid("1f00");
        let key = hexid("1f11");
        let mut rt = RoutingTable::new(owner, 4);
        rt.consider(hexid("1a")); // same 1-digit prefix but farther from key
        assert_eq!(rt.fallback_hop(key), None);
    }

    #[test]
    fn absorb_row_copies_entries() {
        let donor_owner = hexid("1111");
        let mut donor = RoutingTable::new(donor_owner, 4);
        donor.consider(hexid("1511"));
        donor.consider(hexid("1911"));
        let mut rt = RoutingTable::new(hexid("1222"), 4);
        rt.absorb_row(&donor, 1);
        // Both donated entries share 1 digit with the new owner too.
        assert_eq!(rt.entry(1, 5), Some(hexid("1511")));
        assert_eq!(rt.entry(1, 9), Some(hexid("1911")));
        rt.assert_invariants();
    }

    #[test]
    fn a_clone_shares_the_grid_until_the_first_effective_write() {
        let shared = |a: &RoutingTable, b: &RoutingTable| Arc::ptr_eq(&a.cells, &b.cells);
        let mut rt = RoutingTable::new(hexid("00"), 4);
        rt.consider(hexid("a1")); // row 0
        rt.consider(hexid("0b")); // row 1
        let snap = rt.clone();
        // Reads and writes that change nothing (occupied consider,
        // identical replace, eviction of an absent id, of the owner, of
        // nobody) never unshare.
        assert_eq!(snap.entry(0, 0xa), Some(hexid("a1")));
        assert!(!rt.consider(hexid("a2")));
        rt.replace(hexid("0b"));
        assert_eq!(rt.evict(hexid("77")), 0);
        assert_eq!(rt.evict(hexid("00")), 0);
        assert_eq!(rt.evict_where(|_| false), 0);
        assert!(shared(&rt, &snap));
        // The first effective write copies the grid; neither side sees the
        // other's writes from then on.
        rt.replace(hexid("0c"));
        assert!(!shared(&rt, &snap));
        assert_eq!(snap.entry(1, 0xc), None, "snapshot must not see the write");
        assert_eq!(rt.entry(1, 0xc), Some(hexid("0c")));
        let mut snap = snap;
        assert!(snap.consider(hexid("001"))); // grows the snapshot to row 2
        assert_eq!((snap.depth(), rt.depth()), (3, 2));
        assert_eq!(rt.next_hop(hexid("001")), None);
        // deep_clone is equal but shares nothing.
        let deep = rt.deep_clone();
        assert_eq!(deep, rt);
        assert!(!shared(&deep, &rt));
    }

    #[test]
    fn evictions_through_one_clone_are_invisible_through_the_other() {
        let mut rt = RoutingTable::new(hexid("00"), 4);
        rt.consider(hexid("a1")); // row 0 col a
        rt.consider(hexid("b1")); // row 0 col b
        rt.consider(hexid("0b")); // row 1 col b
        let snap = rt.clone();
        let dead = [hexid("a1"), hexid("b1")];
        assert_eq!(rt.evict_where(|id| dead.contains(&id)), 2);
        assert_eq!(rt.entries().collect::<Vec<_>>(), [hexid("0b")]);
        assert_eq!(rt.evict(hexid("0b")), 1);
        assert_eq!(rt.occupancy(), 0);
        assert_eq!(rt.depth(), 2, "eviction never shrinks the grid");
        assert_eq!(
            snap.entries().collect::<Vec<_>>(),
            [hexid("a1"), hexid("b1"), hexid("0b")]
        );
        snap.assert_invariants();
        rt.assert_invariants();
    }

    #[test]
    fn depth_grows_lazily() {
        let mut rt = RoutingTable::new(hexid("00"), 4);
        assert_eq!(rt.depth(), 0);
        rt.consider(hexid("01"));
        assert_eq!(rt.depth(), 2, "row 1 allocated on demand");
    }

    proptest! {
        /// Every entry sits in its natural slot, so one cell answers for an
        /// id. Tables built by random `consider`, `replace`, `absorb_row` and
        /// `evict_where` (ids near the owner too, so that deep rows fill):
        /// `holds` agrees with a scan of the grid for present ids, absent
        /// ones and the owner; `evict` clears the cells `evict_where` clears
        /// and counts the same; evicting an absent id leaves the grid shared.
        #[test]
        fn prop_one_cell_answers_for_an_id(
            seed in any::<u64>(),
            b in 1u32..=8,
            ops in proptest::collection::vec((0u8..4, any::<u64>()), 1..60),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
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
                donor.consider(x);
            }
            let mut rt = RoutingTable::new(owner, b);
            let mut seen: Vec<Id> = donor.entries().collect();
            for (op, bits) in ops {
                let x = pick(&mut rng, bits);
                seen.push(x);
                match op {
                    0 => {
                        rt.consider(x);
                    }
                    1 => rt.replace(x),
                    2 => rt.absorb_row(&donor, bits as usize % donor.depth().max(1)),
                    _ => {
                        rt.evict_where(|y| y.low_u64() % 3 == bits % 3);
                    }
                }
            }
            rt.assert_invariants();
            let absent: Vec<Id> = (0..8).map(|_| Id::random(&mut rng)).collect();
            for x in seen.into_iter().chain(absent).chain([owner]) {
                let present = rt.entries().any(|y| y == x);
                prop_assert_eq!(rt.holds(x), present);
                let (mut one, mut scan) = (rt.clone(), rt.clone());
                prop_assert_eq!(one.evict(x), scan.evict_where(|y| y == x));
                prop_assert_eq!(&one, &scan);
                prop_assert!(!one.holds(x));
                prop_assert_eq!(Arc::ptr_eq(&one.cells, &rt.cells), !present);
            }
        }

        /// The owner shares every digit with itself, so the table is asked
        /// for row `digits_for(b)` and the digit past the end: an empty
        /// answer at every digit width, never an index out of range.
        #[test]
        fn prop_owner_as_key_never_panics(
            owner in any::<[u8; 20]>(), b in 1u32..=8, fill in any::<u64>()
        ) {
            let owner = Id::from_bytes(owner);
            let mut rt = RoutingTable::new(owner, b);
            let mut rng = StdRng::seed_from_u64(fill);
            for _ in 0..32 {
                rt.consider(Id::random(&mut rng));
            }
            // The deepest row a table can have: the owner with its last
            // bit flipped shares every digit but the final one.
            rt.consider(owner.flip_bit(159));
            prop_assert_eq!(rt.depth(), tap_id::digits_for(b));
            let before = rt.clone();
            prop_assert_eq!(rt.next_hop(owner), None);
            prop_assert!(!rt.consider(owner));
            rt.replace(owner);
            prop_assert_eq!(rt.fallback_hop(owner), None);
            prop_assert_eq!(&rt, &before);
            rt.assert_invariants();
        }

        #[test]
        fn prop_invariants_hold_under_random_churn(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let owner = Id::random(&mut rng);
            let mut rt = RoutingTable::new(owner, 4);
            let mut pool = Vec::new();
            for _ in 0..200 {
                let x = Id::random(&mut rng);
                pool.push(x);
                rt.consider(x);
            }
            for (i, x) in pool.iter().enumerate() {
                if i % 3 == 0 {
                    rt.evict(*x);
                }
            }
            rt.assert_invariants();
        }

        #[test]
        fn prop_next_hop_always_extends_prefix(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let owner = Id::random(&mut rng);
            let mut rt = RoutingTable::new(owner, 4);
            for _ in 0..300 {
                rt.consider(Id::random(&mut rng));
            }
            for _ in 0..50 {
                let key = Id::random(&mut rng);
                if let Some(hop) = rt.next_hop(key) {
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
            let owner = Id::random(&mut rng);
            let mut rt = RoutingTable::new(owner, 4);
            for _ in 0..100 {
                rt.consider(Id::random(&mut rng));
            }
            for _ in 0..50 {
                let key = Id::random(&mut rng);
                if let Some(hop) = rt.fallback_hop(key) {
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
