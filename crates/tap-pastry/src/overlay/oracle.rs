//! The membership code as it stood before joins and leaves walked the ring
//! once, kept as the reference the differential proptest below compares
//! against: a sort-based `k_closest`, ring walks that build both ranges up
//! front, and a join/leave that asks the ring for every affected member's
//! `successors` and `predecessors` separately. Copied, not rewritten: the
//! edits are `ov.` for `self.`, `successor_inclusive` inlined and unwrapped,
//! the ranges read off a `BTreeSet` built from `ov.ids()` — the overlay's
//! own ring walks are what this oracle checks — and the node map's reads
//! and writes made through the member arena (`intern`, `detach`, `live`,
//! `live_mut`), with table cells and leaf-set members named by slot (a
//! rebuild's ids paired with theirs by `entries`), and a donated row
//! placed entry by entry (`absorb_row_per_cell`), as before the overlay
//! copied a deeper donor's row whole.

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;

use tap_id::{Id, IdHashSet};

use super::{NodeHandle, Overlay};
use crate::leafset::{Leaf, LeafSet, HALF};
use crate::routing_table::RoutingTable;
use crate::routing_table::Slot;

/// The ring as the ordered set the old code walked.
fn ring(ov: &Overlay) -> BTreeSet<Id> {
    ov.ids().collect()
}

pub(super) fn successors(ov: &Overlay, from: Id, n: usize) -> Vec<Id> {
    let ring = ring(ov);
    let mut out = Vec::with_capacity(n);
    for id in ring
        .range((Bound::Excluded(from), Bound::Unbounded))
        .chain(ring.range(..from))
    {
        if out.len() == n {
            break;
        }
        out.push(*id);
    }
    out
}

pub(super) fn predecessors(ov: &Overlay, from: Id, n: usize) -> Vec<Id> {
    let ring = ring(ov);
    let mut out = Vec::with_capacity(n);
    for id in ring
        .range(..from)
        .rev()
        .chain(ring.range((Bound::Excluded(from), Bound::Unbounded)).rev())
    {
        if out.len() == n {
            break;
        }
        out.push(*id);
    }
    out
}

/// `ids` with their slots, as the ring walks pair them.
fn entries(ov: &Overlay, ids: &[Id]) -> Vec<Leaf> {
    let slot = |id| ov.slot(id).expect("a ring member has joined");
    ids.iter().map(|&id| (id, slot(id))).collect()
}

pub(super) fn k_closest(ov: &Overlay, key: Id, k: usize) -> Vec<Id> {
    let take = k.min(ov.ring.len());
    let mut cands = successors(ov, key, take);
    if ov.ring.contains(key) {
        cands.push(key);
    }
    cands.extend(predecessors(ov, key, take));
    cands.sort_by(|a, b| key.cmp_distance(*a, *b));
    cands.dedup();
    cands.truncate(take);
    cands
}

pub(super) fn add_node(ov: &mut Overlay, id: Id) -> bool {
    let Some(slot) = ov.intern(id) else {
        return false;
    };
    let half = HALF;
    let mut table = RoutingTable::new(id, ov.config.b);
    let mut leafset = LeafSet::new(id);

    if !ov.ring.is_empty() {
        let ring = ring(ov);
        let bootstrap = *(ring.range(id.flip_bit(0)..).next())
            .or_else(|| ring.iter().next())
            .expect("non-empty ring");
        let outcome = ov
            .route(bootstrap, id)
            .expect("routing within a consistent overlay cannot fail");
        for (i, hop) in outcome.path.iter().enumerate() {
            let (hop_slot, donor) = ov.live(*hop).expect("a route visits live nodes");
            table.absorb_row_per_cell(&donor.table, i, |s| ov.id_of(s));
            if *hop == outcome.root {
                for r in i..donor.table.depth() {
                    table.absorb_row_per_cell(&donor.table, r, |s| ov.id_of(s));
                }
            }
            table.consider(*hop, hop_slot);
        }
        let cw = entries(ov, &successors(ov, id, half));
        let ccw = entries(ov, &predecessors(ov, id, half));
        leafset.rebuild(id, &cw, &ccw);
        for s in leafset.members().collect::<Vec<_>>() {
            table.consider(ov.leaf_id(s), s);
        }
    }

    let members: Vec<Id> = leafset.members().map(|s| ov.leaf_id(s)).collect();
    ov.ring.put(id, slot);
    let member = &mut ov.members[slot.index()];
    member.pos = ov.order.len() as u32;
    member.handle = Some(Arc::new(NodeHandle { table, leafset }));
    ov.order.push(slot);
    for m in &members {
        let cw = entries(ov, &successors(ov, *m, half));
        let ccw = entries(ov, &predecessors(ov, *m, half));
        let repaired = match ov.live_mut(*m) {
            Some(node) => {
                let peer = Arc::make_mut(node);
                peer.leafset.rebuild(*m, &cw, &ccw);
                peer.table.consider(id, slot);
                true
            }
            None => false,
        };
        if repaired {
            ov.instruments.leafset_repairs.inc();
        } else {
            ov.note_stale_leafset_ref(*m);
        }
    }
    true
}

pub(super) fn remove_node(ov: &mut Overlay, id: Id) -> bool {
    if ov.ring.take(id).is_none() {
        return false;
    }
    ov.detach(ov.slot(id).expect("a live id has a slot"));
    let half = HALF;
    let affected: Vec<Id> = successors(ov, id, half)
        .into_iter()
        .chain(predecessors(ov, id, half))
        .collect();
    for a in affected {
        repair_survivor(ov, a, &|x| x == id);
    }
    true
}

pub(super) fn remove_nodes(ov: &mut Overlay, ids: &[Id]) -> usize {
    let mut departed: Vec<(Id, Arc<NodeHandle>)> = Vec::new();
    for &id in ids {
        if ov.ring.take(id).is_none() {
            continue;
        }
        if let Some(handle) = ov.slot(id).and_then(|slot| ov.detach(slot)) {
            departed.push((id, handle));
        }
    }
    if departed.is_empty() {
        return 0;
    }
    let mut candidates: BTreeSet<Id> = BTreeSet::new();
    for (_, handle) in &departed {
        for m in handle.leafset.members().map(|s| ov.leaf_id(s)) {
            if ov.is_live(m) {
                candidates.insert(m);
            } else {
                ov.note_stale_leafset_ref(m);
            }
        }
    }
    let removed: IdHashSet = departed.iter().map(|&(id, _)| id).collect();
    for a in candidates {
        repair_survivor(ov, a, &|x| removed.contains(&x));
    }
    departed.len()
}

fn repair_survivor(ov: &mut Overlay, a: Id, dead: &dyn Fn(Id) -> bool) {
    let half = HALF;
    let (needs_leafset, dead_cells) = match ov.live(a) {
        Some((_, node)) => (
            node.leafset.members().map(|s| ov.leaf_id(s)).any(dead)
                || node.leafset.len() < 2 * half,
            (node.table.entries())
                .filter(|&s| ov.id_of(s).is_some_and(dead))
                .collect::<Vec<Slot>>(),
        ),
        None => {
            ov.note_stale_leafset_ref(a);
            return;
        }
    };
    let needs_eviction = !dead_cells.is_empty();
    if !needs_leafset && !needs_eviction {
        return;
    }
    let cw = entries(ov, &successors(ov, a, half));
    let ccw = entries(ov, &predecessors(ov, a, half));
    let repaired = match ov.live_mut(a) {
        Some(node) => {
            let node = Arc::make_mut(node);
            if needs_leafset {
                node.leafset.rebuild(a, &cw, &ccw);
            }
            if needs_eviction {
                node.table.evict_where(|s| dead_cells.contains(&s));
            }
            needs_leafset
        }
        None => false,
    };
    if repaired {
        ov.instruments.leafset_repairs.inc();
    }
}

mod differential {
    use super::super::{Overlay, TableView};
    use crate::config::PastryConfig;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tap_id::Id;

    const COUNTERS: [&str; 4] = [
        "pastry.leafset.repairs",
        "pastry.stale_leafset_ref",
        "pastry.table.evictions",
        "pastry.join.route_failed",
    ];

    /// A routing table's cells as ids, row-major.
    fn grid(table: TableView<'_>) -> Vec<Option<Id>> {
        let cells = (0..table.depth()).flat_map(|r| (0..16).map(move |c| (r, c)));
        cells.map(|(r, c)| table.entry(r, c)).collect()
    }

    /// Everything a membership event may touch, new code against old. Each
    /// side comes with the copy-on-write snapshot it took after the build:
    /// the new code must unshare no node handle the old code kept (a leaf
    /// set lives inside its handle).
    fn assert_same(
        (new, new_snap): (&Overlay, &Overlay),
        (old, old_snap): (&Overlay, &Overlay),
        rng: &mut StdRng,
        what: &str,
    ) {
        assert!(new.ids().eq(old.ids()), "{what}: membership");
        let ids = |ov: &Overlay| ov.members.iter().map(|m| m.id).collect::<Vec<_>>();
        assert_eq!(ids(new), ids(old), "{what}: member arena");
        assert_eq!(new.order, old.order, "{what}: sampling index");
        assert_eq!(
            new.handles_shared_with(new_snap),
            old.handles_shared_with(old_snap),
            "{what}: shared handles"
        );
        for id in new.ids() {
            // The arenas are equal, so equal slots are equal ids.
            let (leaves, want) = (
                &new.live(id).unwrap().1.leafset,
                &old.live(id).unwrap().1.leafset,
            );
            assert_eq!(leaves, want, "{what}: leaf set of {id:?}");
            let (node, want) = (new.node(id).unwrap(), old.node(id).unwrap());
            assert_eq!(
                grid(node.table),
                grid(want.table),
                "{what}: table of {id:?}"
            );
        }
        assert_eq!(new.leafset_drift(), None);
        let (got, want) = (new.metrics().snapshot(), old.metrics().snapshot());
        for name in COUNTERS {
            assert_eq!(got.counter(name), want.counter(name), "{what}: {name}");
        }

        // The oracle walks, from member keys and from keys between them.
        let n = new.len();
        let mut keys: Vec<Id> = (0..3).map(|_| Id::random(rng)).collect();
        keys.extend(new.random_node(rng));
        for key in keys {
            for k in [0, 1, 2, 3, 5, n, n + 3] {
                assert_eq!(new.k_closest(key, k), super::k_closest(old, key, k));
                assert_eq!(new.successors(key, k), super::successors(old, key, k));
                assert_eq!(new.predecessors(key, k), super::predecessors(old, key, k));
            }
            assert_eq!(
                new.owner_of(key),
                super::k_closest(old, key, 1).first().copied()
            );
        }
    }

    /// One differential run: `start` joins, then `script` drives joins,
    /// leaves, batch leaves and routes on both sides while rings stay
    /// under 80 nodes.
    fn run(seed: u64, start: usize, script: &[u8]) -> Result<(), TestCaseError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut new = Overlay::new(PastryConfig::paper_defaults());
        let mut old = Overlay::new(PastryConfig::paper_defaults());
        let (mut new_snap, mut old_snap) = (new.clone(), old.clone());
        for _ in 0..start {
            let id = Id::random(&mut rng);
            prop_assert_eq!(new.add_node(id), super::add_node(&mut old, id));
            assert_same((&new, &new_snap), (&old, &old_snap), &mut rng, "build");
        }
        (new_snap, old_snap) = (new.clone(), old.clone());
        for &op in script {
            match op % 4 {
                0 if new.len() < 80 => {
                    // A fresh id, or (rarely) a taken one.
                    let id = if op < 8 {
                        new.random_node(&mut rng).unwrap()
                    } else {
                        Id::random(&mut rng)
                    };
                    prop_assert_eq!(new.add_node(id), super::add_node(&mut old, id));
                    assert_same((&new, &new_snap), (&old, &old_snap), &mut rng, "join");
                }
                1 if new.len() > 1 => {
                    let victim = new.random_node(&mut rng).unwrap();
                    prop_assert_eq!(
                        new.remove_node(victim),
                        super::remove_node(&mut old, victim)
                    );
                    prop_assert!(!new.remove_node(victim), "second leave is a no-op");
                    assert_same((&new, &new_snap), (&old, &old_snap), &mut rng, "leave");
                }
                2 if new.len() > 4 => {
                    // A ring-contiguous run (its members reference each
                    // other: the stale-reference path), one stranger and
                    // one duplicate.
                    let first = new.random_node(&mut rng).unwrap();
                    let mut batch = new.successors(first, rng.gen_range(0..3));
                    batch.push(first);
                    batch.extend(new.random_node(&mut rng));
                    batch.push(first);
                    prop_assert_eq!(
                        new.remove_nodes(&batch),
                        super::remove_nodes(&mut old, &batch)
                    );
                    assert_same(
                        (&new, &new_snap),
                        (&old, &old_snap),
                        &mut rng,
                        "batch leave",
                    );
                }
                _ => {
                    // Routing evicts dead table entries lazily; keep
                    // both sides' tables in step.
                    let src = new.random_node(&mut rng).unwrap();
                    let key = Id::random(&mut rng);
                    let got = new.route(src, key).unwrap();
                    prop_assert_eq!(&got, &old.route(src, key).unwrap());
                    prop_assert_eq!(Some(got.root), new.owner_of(key));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// Rings of 1 … 80 nodes under `paper_defaults` (half = 8): smaller
        /// than a leaf-set side, smaller than a whole leaf set (17), no
        /// larger than the join/leave window (33), and larger, where the
        /// window does not wrap.
        #[test]
        fn prop_one_walk_membership_matches_the_per_member_oracle(
            seed in any::<u64>(),
            start in 1usize..=80,
            script in proptest::collection::vec(any::<u8>(), 10..50),
        ) {
            run(seed, start, &script)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1_000))]
        /// The same differential at CI scale (release, `--ignored`).
        #[test]
        #[ignore]
        fn prop_one_walk_membership_matches_the_per_member_oracle_1000_cases(
            seed in any::<u64>(),
            start in 1usize..=80,
            script in proptest::collection::vec(any::<u8>(), 10..100),
        ) {
            run(seed, start, &script)?;
        }
    }
}
