//! The membership code as it stood before joins and leaves walked the ring
//! once, kept as the reference the differential proptest below compares
//! against: a sort-based `k_closest`, ring walks that build both ranges up
//! front, and a join/leave that asks the ring for every affected member's
//! `successors` and `predecessors` separately. Copied, not rewritten: the
//! edits are `ov.` for `self.`, `successor_inclusive` inlined and unwrapped,
//! and the ranges read off a `BTreeSet` built from `ov.ids()` — the
//! overlay's own ring walks are what this oracle checks.

use std::collections::BTreeSet;
use std::ops::Bound;
use std::sync::Arc;

use tap_id::{Id, IdHashSet};

use super::{NodeHandle, Overlay};
use crate::leafset::{LeafSet, HALF};
use crate::routing_table::RoutingTable;

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
    if ov.nodes.contains_key(&id) {
        return false;
    }
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
            let donor = &ov.nodes[hop];
            table.absorb_row(&donor.table, i);
            if *hop == outcome.root {
                for r in i..donor.table.depth() {
                    table.absorb_row(&donor.table, r);
                }
            }
            table.consider(*hop);
        }
        leafset.rebuild(id, &successors(ov, id, half), &predecessors(ov, id, half));
        for m in leafset.members().collect::<Vec<_>>() {
            table.consider(m);
        }
    }

    let members: Vec<Id> = leafset.members().collect();
    ov.ring.insert(id);
    ov.pos.insert(id, ov.order.len());
    ov.order.push(id);
    ov.nodes
        .insert(id, Arc::new(NodeHandle { id, table, leafset }));
    for m in &members {
        let cw = successors(ov, *m, half);
        let ccw = predecessors(ov, *m, half);
        let repaired = match ov.nodes.get_mut(m) {
            Some(slot) => {
                let peer = Arc::make_mut(slot);
                peer.leafset.rebuild(*m, &cw, &ccw);
                peer.table.consider(id);
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
    if !ov.ring.remove(id) {
        return false;
    }
    ov.nodes.remove(&id);
    ov.detach_from_index(id);
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
    let mut departed: Vec<Arc<NodeHandle>> = Vec::new();
    for &id in ids {
        if !ov.ring.remove(id) {
            continue;
        }
        if let Some(handle) = ov.nodes.remove(&id) {
            departed.push(handle);
        }
        ov.detach_from_index(id);
    }
    if departed.is_empty() {
        return 0;
    }
    let mut candidates: BTreeSet<Id> = BTreeSet::new();
    for handle in &departed {
        for m in handle.leafset.members() {
            if ov.nodes.contains_key(&m) {
                candidates.insert(m);
            } else {
                ov.note_stale_leafset_ref(m);
            }
        }
    }
    let removed: IdHashSet = departed.iter().map(|h| h.id).collect();
    for a in candidates {
        repair_survivor(ov, a, &|x| removed.contains(&x));
    }
    departed.len()
}

fn repair_survivor(ov: &mut Overlay, a: Id, dead: &dyn Fn(Id) -> bool) {
    let half = HALF;
    let (needs_leafset, needs_eviction) = match ov.nodes.get(&a) {
        Some(node) => (
            node.leafset.members().any(dead) || node.leafset.len() < 2 * half,
            node.table.entries().any(dead),
        ),
        None => {
            ov.note_stale_leafset_ref(a);
            return;
        }
    };
    if !needs_leafset && !needs_eviction {
        return;
    }
    let cw = successors(ov, a, half);
    let ccw = predecessors(ov, a, half);
    let repaired = match ov.nodes.get_mut(&a) {
        Some(slot) => {
            let node = Arc::make_mut(slot);
            if needs_leafset {
                node.leafset.rebuild(a, &cw, &ccw);
            }
            if needs_eviction {
                node.table.evict_where(dead);
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
    use super::super::Overlay;
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
        assert_eq!(new.order, old.order, "{what}: sampling index");
        assert_eq!(
            new.handles_shared_with(new_snap),
            old.handles_shared_with(old_snap),
            "{what}: shared handles"
        );
        for (id, node) in &new.nodes {
            let want = &old.nodes[id];
            assert_eq!(node.leafset, want.leafset, "{what}: leaf set of {id:?}");
            assert_eq!(node.table, want.table, "{what}: routing table of {id:?}");
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
