//! Ring arithmetic and the routes built on it, pinned from outside the
//! crates.
//!
//! `Id` computes on wide limbs but stores, hashes and orders as twenty
//! big-endian bytes. The fixed vectors below sit on the seams a limb
//! rewrite can get wrong (carries across bit 128, the half-ring tie, the
//! zero-padded tail digit); the route pins hash whole Pastry and Chord
//! route paths, so any change to a comparison, a tie-break or a digit shows
//! as a different constant. The constants were recorded with the byte-wise
//! arithmetic this crate started with.

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{BuildHasher, Hash, Hasher};

use rand::rngs::StdRng;
use rand::SeedableRng;

use tap::chord::{ChordConfig, ChordOverlay};
use tap::id::{digits_for, BuildIdHasher, Id, IdHashMap};
use tap::pastry::{Overlay, PastryConfig};

fn hex(s: &str) -> Id {
    s.parse().expect("valid 40-digit hex id")
}

/// `2^128`: the lowest id whose low sixteen bytes are all zero.
fn two_pow_128() -> Id {
    hex("0000000100000000000000000000000000000000")
}

#[test]
fn add_and_sub_carry_across_bit_128() {
    let low_ones = Id::from_u128(u128::MAX);
    let one = Id::from_u64(1);
    assert_eq!(low_ones.wrapping_add(one), two_pow_128());
    assert_eq!(two_pow_128().wrapping_sub(one), low_ones);
    assert_eq!(Id::ZERO.wrapping_sub(one), Id::MAX);
    assert_eq!(Id::MAX.wrapping_add(one), Id::ZERO);
    // A carry that ripples through the whole low limb and stops in the top.
    let a = hex("00fffffeffffffffffffffffffffffffffffffff");
    assert_eq!(
        a.wrapping_add(one),
        hex("00ffffff00000000000000000000000000000000")
    );
    assert_eq!(
        hex("7fffffff00000000000000000000000000000000").wrapping_sub(low_ones),
        hex("7ffffffe00000000000000000000000000000001")
    );
}

#[test]
fn ring_distance_at_and_around_half() {
    let one = Id::from_u64(1);
    assert_eq!(Id::ZERO.ring_distance(Id::HALF), Id::HALF);
    assert_eq!(Id::HALF.ring_distance(Id::ZERO), Id::HALF);
    let past = Id::HALF.wrapping_add(one);
    assert_eq!(
        Id::ZERO.ring_distance(past),
        hex("7fffffffffffffffffffffffffffffffffffffff")
    );
    assert_eq!(Id::MAX.ring_distance(one), Id::from_u64(2));
    assert_eq!(
        two_pow_128().ring_distance(Id::from_u128(u128::MAX)),
        Id::from_u64(1)
    );
}

#[test]
fn cmp_distance_breaks_ties_on_the_smaller_id() {
    let key = two_pow_128();
    let below = key.wrapping_sub(Id::from_u64(9));
    let above = key.wrapping_add(Id::from_u64(9));
    assert_eq!(key.cmp_distance(below, above), Ordering::Less);
    assert_eq!(key.cmp_distance(above, below), Ordering::Greater);
    assert_eq!(key.cmp_distance(above, above), Ordering::Equal);
    assert!(below.closer_to(key, above));
    assert!(!above.closer_to(key, below));
    assert_eq!(key.ring_distance(above), Id::from_u64(9));
    assert!((key.ring_distance(below), below) < (key.ring_distance(above), above));
    // Antipodes: ZERO and HALF are both exactly HALF away from each other's
    // quarter points; the tie still resolves to the smaller id.
    let quarter = hex("4000000000000000000000000000000000000000");
    assert_eq!(quarter.cmp_distance(Id::ZERO, Id::HALF), Ordering::Less);
}

/// A scan's `DistanceKey` orders candidates exactly as the byte order of
/// the `(ring distance, candidate)` pair of `Id`s: across the
/// limb seam at bit 128, the half-ring tie and the wrap at zero.
#[test]
fn distance_key_order_is_the_byte_order_of_the_tuple() {
    let one = Id::from_u64(1);
    let mut ids = vec![
        Id::ZERO,
        one,
        Id::MAX,
        Id::HALF,
        Id::HALF.wrapping_sub(one),
        Id::HALF.wrapping_add(one),
        Id::from_u128(u128::MAX),
        two_pow_128(),
        two_pow_128().wrapping_add(one),
        hex("c000000000000000000000000000000000000000"),
        hex("f123456789abcdef0000000000000000000000ff"),
    ];
    let mut rng = StdRng::seed_from_u64(0xd15);
    ids.extend((0..8).map(|_| Id::random(&mut rng)));
    let bytes = |key: Id, c: Id| (*key.ring_distance(c).as_bytes(), *c.as_bytes());
    for &key in &ids {
        let measure = key.distance_keys();
        for &a in &ids {
            assert_eq!(measure(a).id(), a);
            for &b in &ids {
                assert_eq!(
                    measure(a).cmp(&measure(b)),
                    bytes(key, a).cmp(&bytes(key, b)),
                    "key {key}, candidates {a} and {b}"
                );
            }
        }
    }
}

#[test]
fn digits_and_prefixes_at_b3_and_b4() {
    let a = hex("f123456789abcdef0000000000000000000000ff");
    assert_eq!(a.digit(0, 4), 0xf);
    assert_eq!(a.digit(7, 4), 0x7);
    assert_eq!(a.digit(8, 4), 0x8, "first digit below bit 128");
    assert_eq!(a.digit(39, 4), 0xf);
    // b = 3 digits straddle byte and limb boundaries: digit 10 is bits
    // 30..33, two bits above bit 128 and one below.
    assert_eq!(a.digit(0, 3), 0b111);
    assert_eq!(a.digit(1, 3), 0b100);
    assert_eq!(a.digit(10, 3), 0b111);
    // Digit 53 has one real bit (159); it is padded with zeros on the right.
    assert_eq!(Id::MAX.digit(53, 3), 0b100);
    assert_eq!(Id::ZERO.with_digit(53, 3, 0b100), Id::from_u64(1));
    assert_eq!(Id::ZERO.with_digit(10, 3, 0b101).digit(10, 3), 0b101);

    let b = hex("f123456789abcdee0000000000000000000000ff");
    assert_eq!(a.shared_prefix_digits(b, 4), 15);
    assert_eq!(a.shared_prefix_digits(b, 3), 21);
    assert_eq!(a.shared_prefix_digits(a, 4), 40);
    assert_eq!(a.shared_prefix_digits(a, 3), 54);
    assert_eq!(Id::ZERO.shared_prefix_digits(Id::from_u64(1), 3), 53);
}

/// The digit one past the end is zero, not a panic: `RoutingTable::next_hop`
/// asks for it when the key is the table's owner.
#[test]
fn the_digit_past_the_end_is_zero() {
    for b in 1..=8u32 {
        assert_eq!(Id::MAX.digit(digits_for(b), b), 0, "b = {b}");
    }
    assert_eq!(Id::MAX.digit(40, 4), 0);
}

#[test]
fn between_cw_on_plain_wrapping_and_full_arcs() {
    let id = Id::from_u64;
    assert!(id(5).between_cw(id(3), id(7)));
    assert!(!id(3).between_cw(id(3), id(7)));
    assert!(id(7).between_cw(id(3), id(7)));
    assert!(id(1).between_cw(Id::MAX, id(3)));
    assert!(!id(5).between_cw(Id::MAX, id(3)));
    assert!(
        id(9).between_cw(id(2), id(2)),
        "from == to is the full ring"
    );
    assert!(two_pow_128().between_cw(Id::from_u128(u128::MAX), two_pow_128()));
}

#[test]
fn order_hash_and_layout_stay_on_the_bytes() {
    assert_eq!(std::mem::size_of::<Id>(), 20);
    assert_eq!(std::mem::align_of::<Id>(), 1);

    let mut ids = vec![
        Id::MAX,
        two_pow_128(),
        Id::from_u128(u128::MAX),
        Id::HALF,
        Id::ZERO,
        hex("0000000100000000000000000000000000000001"),
    ];
    ids.sort();
    let mut by_bytes = ids.clone();
    by_bytes.sort_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
    assert_eq!(ids, by_bytes);
    assert_eq!(ids[1], Id::from_u128(u128::MAX));
    assert_eq!(ids[2], two_pow_128());

    // `Hash` is the derived hash of the byte array.
    let fixed = hex("f123456789abcdef0000000000000000000000ff");
    let (mut a, mut b) = (DefaultHasher::new(), DefaultHasher::new());
    fixed.hash(&mut a);
    fixed.as_bytes().hash(&mut b);
    assert_eq!(a.finish(), b.finish());
    assert_eq!(BuildIdHasher::default().hash_one(fixed), ID_FOLD_HASH);

    // An `IdHashMap` iterates in an order fixed by those bytes.
    let mut rng = StdRng::seed_from_u64(19);
    let mut map = IdHashMap::default();
    for i in 0..64u64 {
        map.insert(Id::random(&mut rng), i);
    }
    let mut h = FNV_OFFSET;
    for (k, v) in &map {
        fnv1a(&mut h, k.as_bytes());
        fnv1a(&mut h, &v.to_be_bytes());
    }
    assert_eq!(h, ID_HASH_MAP_ORDER);
}

// ----------------------------------------------------------------------
// Route pins
// ----------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn hash_path(h: &mut u64, path: &[Id]) {
    fnv1a(h, &(path.len() as u64).to_be_bytes());
    for id in path {
        fnv1a(h, id.as_bytes());
    }
}

const NODES: usize = 2000;
const ROUTES: usize = 500;
const CHURN_PAIRS: usize = 200;

// Recorded at the commit before `Id` moved to limb arithmetic.
const ID_FOLD_HASH: u64 = 0x1af3_783f_8cf6_c95d;
const ID_HASH_MAP_ORDER: u64 = 0x31aa_8d85_9fc5_6443;
const PASTRY_ROUTES: u64 = 0xc308_839d_0d40_5fc0;
const PASTRY_ROUTES_AFTER_CHURN: u64 = 0xc4bc_036e_5e31_4211;
// Recorded at the commit before routing tables became one flat grid.
const PASTRY_ROUTES_AT_CHECKPOINT: u64 = 0x11a3_b2b0_5822_3e31;
const CHORD_ROUTES: u64 = 0xb6b1_c95a_5cb8_3bed;
const CHORD_ROUTES_AFTER_CHURN: u64 = 0xa307_ce43_e031_c3e3;
// Recorded at the commit before the leaf step bracketed the key and the
// rare-case scan compared limbs.
const PASTRY_EVICTIONS_AFTER_CHURN: u64 = 752;
const SMALL_RING_ROUTES: [(usize, u64); 7] = [
    (1, 0x51f8_8fd3_0df7_fd1d),
    (2, 0x9bf2_6dc3_6704_5ea7),
    (9, 0xbbe9_89ae_be43_a034),
    (16, 0xcd5a_f33d_2327_3236),
    (17, 0xa014_49d3_cf25_2971),
    (18, 0x79c6_dbe9_f001_dfed),
    (33, 0x1bea_2ee4_a3b1_080f),
];

#[test]
fn pastry_route_paths_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0x1d19);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..NODES {
        overlay.add_random_node(&mut rng);
    }
    let routes = |overlay: &mut Overlay, rng: &mut StdRng| {
        let mut h = FNV_OFFSET;
        for _ in 0..ROUTES {
            let from = overlay.random_node(rng).expect("non-empty overlay");
            let key = Id::random(rng);
            let out = overlay.route(from, key).expect("route completes");
            assert_eq!(Some(out.root), overlay.owner_of(key));
            hash_path(&mut h, &out.path);
        }
        h
    };
    assert_eq!(routes(&mut overlay, &mut rng), PASTRY_ROUTES);
    for _ in 0..CHURN_PAIRS {
        let victim = overlay.random_node(&mut rng).expect("non-empty overlay");
        assert!(overlay.remove_node(victim));
        overlay.add_random_node(&mut rng);
    }
    assert_eq!(routes(&mut overlay, &mut rng), PASTRY_ROUTES_AFTER_CHURN);
    // Rare-case scans evict the dead table entries they trip over.
    let evictions = overlay.metrics().counter("pastry.table.evictions").get();
    assert_eq!(evictions, PASTRY_EVICTIONS_AFTER_CHURN);
}

/// `x / 2`, rounded down.
fn halved(x: Id) -> Id {
    let mut b = *x.as_bytes();
    let mut carry = 0;
    for byte in &mut b {
        let low = *byte & 1;
        *byte = (*byte >> 1) | (carry << 7);
        carry = low;
    }
    Id::from_bytes(b)
}

/// Rings of up to two leaf sets and one: a leaf set that holds the whole
/// ring (N ≤ 2·HALF), the boundary where its two sides first stop
/// overlapping (N = 16, 17, 18), and a ring just past two of them. Keys
/// are random, every node's own id and its two ring neighbours' ids, so
/// that exact hits and half-way ties are routed too; each ring is routed
/// again after as many leave+join pairs as it has nodes.
#[test]
fn small_ring_route_paths_are_pinned() {
    let one = Id::from_u64(1);
    for (n, want) in SMALL_RING_ROUTES {
        let mut rng = StdRng::seed_from_u64(0x51_0000 + n as u64);
        let mut overlay = Overlay::new(PastryConfig::paper_defaults());
        for _ in 0..n {
            overlay.add_random_node(&mut rng);
        }
        let mut h = FNV_OFFSET;
        for round in 0..2 {
            if round == 1 {
                for _ in 0..n {
                    let victim = overlay.random_node(&mut rng).expect("non-empty overlay");
                    assert!(overlay.remove_node(victim));
                    overlay.add_random_node(&mut rng);
                }
            }
            let ids: Vec<Id> = overlay.ids().collect();
            let mut keys: Vec<Id> = (0..64).map(|_| Id::random(&mut rng)).collect();
            for (i, &id) in ids.iter().enumerate() {
                let next = ids[(i + 1) % ids.len()];
                // The midpoint of the gap to the next node: an exact tie
                // when the gap is even.
                let mid = id.wrapping_add(halved(next.wrapping_sub(id)));
                keys.extend([id, id.wrapping_add(one), id.wrapping_sub(one), mid]);
            }
            for key in keys {
                let from = overlay.random_node(&mut rng).expect("non-empty overlay");
                let out = overlay.route(from, key).expect("route completes");
                assert_eq!(Some(out.root), overlay.owner_of(key), "N = {n}");
                hash_path(&mut h, &out.path);
            }
        }
        assert_eq!(h, want, "N = {n}: {h:#x}");
    }
}

/// Churn between a `checkpoint` and its `rollback` copies node state on
/// write; the restored overlay must route every pair exactly as it did
/// before, and exactly as the per-row `Arc` layout this constant was
/// recorded with did.
#[test]
fn pastry_routes_survive_checkpoint_churn_and_rollback() {
    let mut rng = StdRng::seed_from_u64(0x5a9);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..NODES {
        overlay.add_random_node(&mut rng);
    }
    let pairs: Vec<(Id, Id)> = (0..ROUTES)
        .map(|_| {
            let from = overlay.random_node(&mut rng).expect("non-empty overlay");
            (from, Id::random(&mut rng))
        })
        .collect();
    let routes = |overlay: &mut Overlay| {
        let mut h = FNV_OFFSET;
        for &(from, key) in &pairs {
            let out = overlay.route(from, key).expect("route completes");
            hash_path(&mut h, &out.path);
        }
        h
    };
    let before = routes(&mut overlay);
    let saved = overlay.checkpoint();
    for _ in 0..CHURN_PAIRS {
        let victim = overlay.random_node(&mut rng).expect("non-empty overlay");
        assert!(overlay.remove_node(victim));
        overlay.add_random_node(&mut rng);
    }
    overlay.rollback(&saved);
    assert_eq!(routes(&mut overlay), before);
    assert_eq!(before, PASTRY_ROUTES_AT_CHECKPOINT);
}

// Recorded at the commit before routing-table cells named nodes by slot.
const REJOIN_ROUTES_WITHOUT: u64 = 0xc8e4_506c_a592_668c;
const REJOIN_ROUTES_WITH: u64 = 0xbfb8_438e_e5b0_681e;
const REJOIN_EVICTIONS: u64 = 97;
const ROLLBACK_ROUTES_CHURNED: u64 = 0x7fdd_a94f_2e8f_dc90;
const ROLLBACK_ROUTES: u64 = 0x9538_7a2f_a641_ea9a;

/// Routes `count` random keys from random live nodes and folds their paths.
fn pastry_routes(overlay: &mut Overlay, rng: &mut StdRng, count: usize) -> u64 {
    let mut h = FNV_OFFSET;
    for _ in 0..count {
        let from = overlay.random_node(rng).expect("non-empty overlay");
        let key = Id::random(rng);
        let out = overlay.route(from, key).expect("route completes");
        assert_eq!(Some(out.root), overlay.owner_of(key));
        hash_path(&mut h, &out.path);
    }
    h
}

/// A departed id that some routing tables still name comes back: the cells
/// that named it are live again, and routes use them as before it left.
#[test]
fn pastry_routes_through_a_rejoin_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0x2e10);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..500 {
        overlay.add_random_node(&mut rng);
    }
    let mut gone = Vec::new();
    while gone.len() < 50 {
        let victim = overlay.random_node(&mut rng).expect("non-empty overlay");
        assert!(overlay.remove_node(victim));
        gone.push(victim);
    }
    let without = pastry_routes(&mut overlay, &mut rng, 2000);
    let named = overlay
        .ids()
        .filter(|&id| {
            let node = overlay.node(id).expect("ids() lists live nodes");
            node.table.entries().any(|e| gone.contains(&e))
        })
        .count();
    assert!(named > 0, "some tables still name a departed id");
    for &id in &gone {
        assert!(overlay.add_node(id));
    }
    let with = pastry_routes(&mut overlay, &mut rng, 2000);
    let evictions = overlay.metrics().counter("pastry.table.evictions").get();
    assert_eq!(
        (without, with, evictions),
        (REJOIN_ROUTES_WITHOUT, REJOIN_ROUTES_WITH, REJOIN_EVICTIONS),
        "{without:#x} {with:#x} {evictions}"
    );
}

/// Two thousand leave+join pairs between a `checkpoint` and its `rollback`:
/// the restored overlay routes every pair as it did before the churn.
#[test]
fn pastry_routes_after_a_long_rollback_are_the_pre_churn_routes() {
    let mut rng = StdRng::seed_from_u64(0x7b1);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..NODES {
        overlay.add_random_node(&mut rng);
    }
    let pairs: Vec<(Id, Id)> = (0..ROUTES)
        .map(|_| {
            let from = overlay.random_node(&mut rng).expect("non-empty overlay");
            (from, Id::random(&mut rng))
        })
        .collect();
    let routes = |overlay: &mut Overlay| {
        let mut h = FNV_OFFSET;
        for &(from, key) in &pairs {
            let out = overlay.route(from, key).expect("route completes");
            hash_path(&mut h, &out.path);
        }
        h
    };
    let before = routes(&mut overlay);
    let saved = overlay.checkpoint();
    for _ in 0..2000 {
        let victim = overlay.random_node(&mut rng).expect("non-empty overlay");
        assert!(overlay.remove_node(victim));
        overlay.add_random_node(&mut rng);
    }
    let churned = pastry_routes(&mut overlay, &mut rng, ROUTES);
    overlay.rollback(&saved);
    assert_eq!(routes(&mut overlay), before);
    assert_eq!(
        (churned, before),
        (ROLLBACK_ROUTES_CHURNED, ROLLBACK_ROUTES),
        "{churned:#x} {before:#x}"
    );
}

// Recorded at the commit before leaf-set sides named their members by slot.
const LEAFSETS_BUILT: u64 = 0x0840_cf62_2a14_7138;
const LEAFSETS_CHURNED: u64 = 0x9de4_c4b3_0583_d4e7;

/// Every live node's id and leaf set, both sides nearest first, in ring
/// order, as [`Overlay::node`] reads them.
fn hash_leafsets(overlay: &Overlay) -> u64 {
    let mut h = FNV_OFFSET;
    for id in overlay.ids() {
        let node = overlay.node(id).expect("ids() lists live nodes");
        fnv1a(&mut h, id.as_bytes());
        for side in [node.leafset.clockwise(), node.leafset.counter_clockwise()] {
            fnv1a(&mut h, &(side.len() as u64).to_be_bytes());
            for m in side {
                fnv1a(&mut h, m.as_bytes());
            }
        }
    }
    h
}

/// The leaf sets of a 2 000-node overlay after its build, after 2 000
/// leave+join pairs under a held checkpoint, and after the rollback, which
/// restores the built ones.
#[test]
fn pastry_leaf_sets_through_churn_and_rollback_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0x1eaf);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..NODES {
        overlay.add_random_node(&mut rng);
    }
    let built = hash_leafsets(&overlay);
    let saved = overlay.checkpoint();
    for _ in 0..2000 {
        let victim = overlay.random_node(&mut rng).expect("non-empty overlay");
        assert!(overlay.remove_node(victim));
        overlay.add_random_node(&mut rng);
    }
    let churned = hash_leafsets(&overlay);
    overlay.rollback(&saved);
    assert_eq!(hash_leafsets(&overlay), built);
    assert_eq!(
        (built, churned),
        (LEAFSETS_BUILT, LEAFSETS_CHURNED),
        "{built:#x} {churned:#x}"
    );
}

#[test]
fn chord_route_paths_are_pinned() {
    let mut rng = StdRng::seed_from_u64(0xc40d);
    let mut ring = ChordOverlay::new(ChordConfig::defaults());
    for _ in 0..NODES {
        ring.add_random_node(&mut rng);
    }
    let routes = |ring: &mut ChordOverlay, rng: &mut StdRng| {
        let mut h = FNV_OFFSET;
        for _ in 0..ROUTES {
            let from = ring.random_node(rng).expect("non-empty ring");
            let key = Id::random(rng);
            let path = ring.route(from, key).expect("route completes");
            assert_eq!(path.last().copied(), ring.successor_of(key));
            hash_path(&mut h, &path);
        }
        h
    };
    assert_eq!(routes(&mut ring, &mut rng), CHORD_ROUTES);
    for _ in 0..CHURN_PAIRS {
        let victim = ring.random_node(&mut rng).expect("non-empty ring");
        assert!(ring.remove_node(victim));
        ring.add_random_node(&mut rng);
    }
    assert_eq!(routes(&mut ring, &mut rng), CHORD_ROUTES_AFTER_CHURN);
}
