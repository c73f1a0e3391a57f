//! [`Ring`]: the ordered id index every placement question walks — the
//! node closest to a key, the `k` closest, the `n` either side of a node —
//! with an optional value per id (a replica store's records).

use std::fmt;
use std::ops::Bound;

use crate::Id;

/// Fewest top bits the buckets are keyed by: sixteen buckets hold 64 ids,
/// so a store that fills and empties every transfer never resizes. (The
/// most is the 32 `bucket_of` reads, which a ring passes only past 2^34 ids.)
const MIN_BITS: u32 = 4;

/// A sorted map from [`Id`]s to `V` in `2^r` buckets keyed by the top `r`
/// bits, each a sorted `Vec` of `(id, value)` entries: a lookup is a shift
/// and a search of one short bucket, not a tree descent or a hash probe
/// into a cold line. Bucket order is numeric order, so the walks yield
/// exactly what a `BTreeMap<Id, V>` and its ranges yield. `r` grows when the
/// mean bucket holds more than four ids and shrinks below one, so a ring
/// hovering at one size rebuilds once; lookups and walks never allocate,
/// and buckets keep their capacity, so a ring that fills and empties
/// allocates nothing. Ids that are not uniform (tests' `Id::from_u64`
/// values all land in bucket 0) make one sorted `Vec`: slower, but exact.
///
/// `Ring<()>` (the default) is an ordered id set: [`Ring::insert`] and
/// [`Ring::remove`] take the id alone.
pub struct Ring<V = ()> {
    bits: u32,
    len: usize,
    buckets: Vec<Vec<(Id, V)>>,
}

impl<V> Ring<V> {
    /// An empty ring.
    pub fn new() -> Self {
        Ring {
            bits: MIN_BITS,
            len: 0,
            buckets: empty_buckets(MIN_BITS),
        }
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no id.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` is in the ring.
    pub fn contains(&self, id: Id) -> bool {
        self.find(id).1.is_ok()
    }

    /// `id`'s value.
    pub fn get(&self, id: Id) -> Option<&V> {
        let (bucket, at) = self.find(id);
        Some(&self.buckets[bucket][at.ok()?].1)
    }

    /// `id`'s value, to write.
    pub fn get_mut(&mut self, id: Id) -> Option<&mut V> {
        let (bucket, at) = self.find(id);
        Some(&mut self.buckets[bucket][at.ok()?].1)
    }

    /// Set `id`'s value; the value it replaces, if `id` was there.
    pub fn put(&mut self, id: Id, value: V) -> Option<V> {
        let (bucket, at) = self.find(id);
        let at = match at {
            Ok(at) => return Some(std::mem::replace(&mut self.buckets[bucket][at].1, value)),
            Err(at) => at,
        };
        self.buckets[bucket].insert(at, (id, value));
        self.len += 1;
        if self.len > 4 << self.bits {
            self.rebucket(self.bits + 1);
        }
        None
    }

    /// Drop `id`; its value, if it was there.
    pub fn take(&mut self, id: Id) -> Option<V> {
        let (bucket, at) = self.find(id);
        let (_, value) = self.buckets[bucket].remove(at.ok()?);
        self.len -= 1;
        if self.len < 1 << self.bits && self.bits > MIN_BITS {
            self.rebucket(self.bits - 1);
        }
        Some(value)
    }

    /// Every id once, clockwise from `from`: a live `Included` id leads
    /// the walk, an `Excluded` one is left out, and `Unbounded` starts at
    /// the smallest id.
    pub fn clockwise(&self, from: Bound<Id>) -> impl Iterator<Item = Id> + '_ {
        self.walk::<true>(from).map(|(id, _)| id)
    }

    /// The mirror image of [`Ring::clockwise`]: every id once,
    /// counter-clockwise from `from`; `Unbounded` starts at the largest id.
    pub fn counter_clockwise(&self, from: Bound<Id>) -> impl Iterator<Item = Id> + '_ {
        self.walk::<false>(from).map(|(id, _)| id)
    }

    /// [`Ring::clockwise`] with each id's value.
    pub fn clockwise_entries(&self, from: Bound<Id>) -> impl Iterator<Item = (Id, &V)> + '_ {
        self.walk::<true>(from)
    }

    /// [`Ring::counter_clockwise`] with each id's value.
    pub fn counter_clockwise_entries(
        &self,
        from: Bound<Id>,
    ) -> impl Iterator<Item = (Id, &V)> + '_ {
        self.walk::<false>(from)
    }

    /// [`Ring::clockwise_entries`] from `Included(from)`, each value to
    /// write: every entry once, the first at or after `from` leading.
    pub fn clockwise_entries_mut(&mut self, from: Id) -> impl Iterator<Item = (Id, &mut V)> + '_ {
        let (bucket, at) = self.find(from);
        let (head, tail) = self.buckets.split_at_mut(bucket);
        let (this, tail) = tail.split_at_mut(1);
        let (early, late) = this[0].split_at_mut(at.unwrap_or_else(|at| at));
        (late.iter_mut())
            .chain(tail.iter_mut().flatten())
            .chain(head.iter_mut().flatten())
            .chain(early)
            .map(|(id, value)| (*id, value))
    }

    fn bucket_of(&self, id: Id) -> usize {
        let [a, b, c, d, ..] = *id.as_bytes();
        (u32::from_be_bytes([a, b, c, d]) >> (32 - self.bits)) as usize
    }

    /// `id`'s bucket, and where in it `id` is (`Ok`) or would go (`Err`).
    fn find(&self, id: Id) -> (usize, Result<usize, usize>) {
        let bucket = self.bucket_of(id);
        let at = self.buckets[bucket].binary_search_by(|e| e.0.cmp(&id));
        (bucket, at)
    }

    fn walk<const CW: bool>(&self, from: Bound<Id>) -> Walk<'_, V, CW> {
        let last = self.buckets.len() - 1;
        let (bucket, at, left) = match from {
            Bound::Unbounded if CW => (0, 0, self.len),
            Bound::Unbounded => (last, self.buckets[last].len(), self.len),
            Bound::Included(id) | Bound::Excluded(id) => {
                let (bucket, found) = self.find(id);
                let (at, hit) = (found.unwrap_or_else(|at| at), found.is_ok());
                let skip = hit && matches!(from, Bound::Excluded(_));
                // `at` is the next id's index clockwise and one past it the
                // other way: it counts past a live `from` that clockwise
                // skips or counter-clockwise keeps.
                let at = at + usize::from(if CW { skip } else { hit && !skip });
                (bucket, at, self.len - usize::from(skip))
            }
        };
        Walk {
            buckets: &self.buckets,
            bucket,
            at,
            left,
        }
    }

    /// Re-key every entry by its id's top `bits` bits. Entries move in
    /// ascending order, so every bucket stays sorted.
    fn rebucket(&mut self, bits: u32) {
        let old = std::mem::replace(&mut self.buckets, empty_buckets(bits));
        self.bits = bits;
        for (id, value) in old.into_iter().flatten() {
            let bucket = self.bucket_of(id);
            self.buckets[bucket].push((id, value));
        }
    }
}

impl Ring {
    /// Add `id`; `false` if it was already there.
    pub fn insert(&mut self, id: Id) -> bool {
        self.put(id, ()).is_none()
    }

    /// Drop `id`; `false` if it was not there.
    pub fn remove(&mut self, id: Id) -> bool {
        self.take(id).is_some()
    }
}

fn empty_buckets<V>(bits: u32) -> Vec<Vec<(Id, V)>> {
    std::iter::repeat_with(Vec::new).take(1 << bits).collect()
}

impl<V> Default for Ring<V> {
    fn default() -> Self {
        Ring::new()
    }
}

impl<V: Clone> Clone for Ring<V> {
    fn clone(&self) -> Self {
        Ring {
            bits: self.bits,
            len: self.len,
            buckets: self.buckets.clone(),
        }
    }

    /// Reuses this ring's bucket allocations: a rollback to a checkpoint
    /// copies entries, not buffers.
    fn clone_from(&mut self, source: &Self) {
        self.bits = source.bits;
        self.len = source.len;
        self.buckets.clone_from(&source.buckets);
    }
}

/// Lists the ids, as a set.
impl<V> fmt::Debug for Ring<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.clockwise(Bound::Unbounded))
            .finish()
    }
}

/// `left` more entries from `buckets[bucket][at]` on (counter-clockwise,
/// `at - 1`).
struct Walk<'a, V, const CW: bool> {
    buckets: &'a [Vec<(Id, V)>],
    bucket: usize,
    at: usize,
    left: usize,
}

impl<'a, V, const CW: bool> Iterator for Walk<'a, V, CW> {
    type Item = (Id, &'a V);

    #[inline]
    fn next(&mut self) -> Option<(Id, &'a V)> {
        self.left = self.left.checked_sub(1)?;
        // An id is left to yield, so a bucket ahead holds one: the skips
        // end. The bucket count is a power of two.
        let buckets = self.buckets;
        let mask = buckets.len() - 1;
        let (id, value) = if CW {
            while self.at == buckets[self.bucket].len() {
                self.bucket = (self.bucket + 1) & mask;
                self.at = 0;
            }
            self.at += 1;
            &buckets[self.bucket][self.at - 1]
        } else {
            while self.at == 0 {
                self.bucket = self.bucket.wrapping_sub(1) & mask;
                self.at = buckets[self.bucket].len();
            }
            self.at -= 1;
            &buckets[self.bucket][self.at]
        };
        Some((*id, value))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};
    use std::ops::Bound::{Excluded, Included, Unbounded};

    /// What a walk from `from` yields, read off `BTreeMap` ranges.
    fn expected(map: &BTreeMap<Id, u64>, from: Bound<Id>, clockwise: bool) -> Vec<(Id, u64)> {
        let above = |f| map.range((Excluded(f), Unbounded));
        let walk: Vec<(&Id, &u64)> = match (from, clockwise) {
            (Unbounded, true) => map.iter().collect(),
            (Unbounded, false) => map.iter().rev().collect(),
            (Included(f), true) => map.range(f..).chain(map.range(..f)).collect(),
            (Excluded(f), true) => above(f).chain(map.range(..f)).collect(),
            (Included(f), false) => (map.get_key_value(&f).into_iter())
                .chain(map.range(..f).rev())
                .chain(above(f).rev())
                .collect(),
            (Excluded(f), false) => map.range(..f).rev().chain(above(f).rev()).collect(),
        };
        walk.into_iter().map(|(id, v)| (*id, *v)).collect()
    }

    /// Every walk from every probe, both ways, ids and entries, against the
    /// map; every probe's value; and the bucket count within its
    /// hysteresis band.
    fn check(
        ring: &Ring<u64>,
        map: &BTreeMap<Id, u64>,
        probes: &[Id],
    ) -> Result<(), TestCaseError> {
        prop_assert!(ring.bits >= MIN_BITS);
        prop_assert!(ring.len <= 4 << ring.bits);
        prop_assert!(ring.bits == MIN_BITS || ring.len >= 1 << ring.bits);
        prop_assert_eq!(ring.buckets.len(), 1 << ring.bits);
        prop_assert_eq!(ring.len(), map.len());
        prop_assert_eq!(ring.is_empty(), map.is_empty());
        let entries = |walk: Walk<'_, u64, true>| walk.map(|(id, v)| (id, *v)).collect::<Vec<_>>();
        let bounds = probes.iter().flat_map(|&p| [Included(p), Excluded(p)]);
        for from in bounds.chain([Unbounded]) {
            let (cw, ccw) = (expected(map, from, true), expected(map, from, false));
            let ids = |walk: &[(Id, u64)]| walk.iter().map(|e| e.0).collect::<Vec<_>>();
            prop_assert_eq!(ring.clockwise(from).size_hint().0, cw.len());
            prop_assert_eq!(ring.clockwise(from).collect::<Vec<_>>(), ids(&cw));
            prop_assert_eq!(ring.counter_clockwise(from).collect::<Vec<_>>(), ids(&ccw));
            prop_assert_eq!(entries(ring.walk::<true>(from)), cw.clone());
            let ccw_entries: Vec<(Id, u64)> =
                ring.walk::<false>(from).map(|(id, v)| (id, *v)).collect();
            prop_assert_eq!(ccw_entries, ccw.clone());
            let pub_cw: Vec<(Id, u64)> = ring
                .clockwise_entries(from)
                .map(|(id, v)| (id, *v))
                .collect();
            prop_assert_eq!(pub_cw, cw);
            let pub_ccw: Vec<(Id, u64)> = ring
                .counter_clockwise_entries(from)
                .map(|(id, v)| (id, *v))
                .collect();
            prop_assert_eq!(pub_ccw, ccw);
        }
        for p in probes {
            prop_assert_eq!(ring.contains(*p), map.contains_key(p));
            prop_assert_eq!(ring.get(*p), map.get(p));
        }
        Ok(())
    }

    /// Members, their neighbours (members or not), fresh ids and the ends
    /// of the ring.
    fn probes(map: &BTreeMap<Id, u64>, draw: &mut impl FnMut() -> Id) -> Vec<Id> {
        let mut probes = vec![Id::ZERO, Id::MAX, draw(), draw()];
        let one = Id::from_u64(1);
        for m in map.keys().step_by(map.len() / 3 + 1) {
            probes.extend([*m, m.wrapping_add(one), m.wrapping_sub(one)]);
        }
        probes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random inserts, overwrites, in-place writes and removes that fill
        /// a valued ring past `peak` ids and drain it again, so `r` crosses
        /// its resize boundaries both ways and every value must follow its
        /// id through each re-key; `kind` draws uniform ids, clustered
        /// `Id::from_u64` ones, or both. A clone and a `clone_from` taken at
        /// the peak must not see the drain.
        #[test]
        fn prop_walks_and_values_match_a_btreemap(
            seed in any::<u64>(), kind in 0u8..3, peak in 0usize..400
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draw = move || match kind {
                0 => Id::random(&mut rng),
                1 => Id::from_u64(rng.gen_range(0..2 * peak as u64 + 2)),
                _ if rng.gen() => Id::random(&mut rng),
                _ => Id::from_u64(rng.gen_range(0..64)),
            };
            let (mut ring, mut map) = (Ring::new(), BTreeMap::new());
            let mut snapshot = None;
            let mut filling = true;
            for step in 0..6 * peak + 8 {
                let bits = ring.bits;
                let insert = if filling { step % 4 != 0 } else { step % 4 == 0 };
                // Mostly fresh ids in, members out; now and then the other,
                // so an insert may overwrite.
                let member = map.keys().nth(step % (map.len() + 1)).copied();
                let id = match member {
                    Some(member) if (step % 5 == 0) == insert => member,
                    _ => draw(),
                };
                let value = step as u64;
                if insert {
                    prop_assert_eq!(ring.put(id, value), map.insert(id, value));
                } else {
                    prop_assert_eq!(ring.take(id), map.remove(&id));
                }
                if step % 7 == 3 {
                    let (got, want) = (ring.get_mut(id), map.get_mut(&id));
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some(want)) = (got, want) {
                        *got += 1_000_000;
                        *want += 1_000_000;
                    }
                }
                if step % 11 == 5 {
                    // A write walk from `id`, member or not, of up to a few
                    // more entries than the ring holds.
                    let want: Vec<Id> = expected(&map, Included(id), true)
                        .into_iter()
                        .map(|e| e.0)
                        .collect();
                    let mut walked = Vec::new();
                    for (at, value) in ring.clockwise_entries_mut(id).take(step % 13) {
                        walked.push(at);
                        *value += 1;
                        *map.get_mut(&at).unwrap() += 1;
                    }
                    prop_assert_eq!(&walked[..], &want[..walked.len()]);
                    prop_assert_eq!(walked.len(), want.len().min(step % 13));
                }
                if filling && map.len() >= peak {
                    let mut reused = Ring::new();
                    reused.put(Id::MAX, u64::MAX);
                    reused.clone_from(&ring);
                    snapshot = Some((ring.clone(), reused, map.clone()));
                }
                filling &= map.len() < peak;
                if ring.bits != bits || step % 64 == 0 {
                    check(&ring, &map, &probes(&map, &mut draw))?;
                }
            }
            for (id, value) in map.clone() {
                prop_assert_eq!(ring.take(id), Some(value));
                map.remove(&id);
            }
            check(&ring, &map, &probes(&map, &mut draw))?;
            if let Some((copy, reused, then)) = snapshot {
                check(&copy, &then, &probes(&then, &mut draw))?;
                check(&reused, &then, &probes(&then, &mut draw))?;
            }
        }
    }

    #[test]
    fn empty_and_one_id_rings() {
        let mut ring = Ring::new();
        let id = Id::from_u64(7);
        for from in [Included(id), Excluded(id), Unbounded] {
            assert_eq!(ring.clockwise(from).next(), None);
            assert_eq!(ring.counter_clockwise(from).next(), None);
        }
        assert!(ring.insert(id) && !ring.insert(id));
        for probe in [id, Id::ZERO, Id::MAX] {
            for from in [Included(probe), Unbounded] {
                assert_eq!(ring.clockwise(from).collect::<Vec<_>>(), [id]);
                assert_eq!(ring.counter_clockwise(from).collect::<Vec<_>>(), [id]);
            }
        }
        assert_eq!(ring.clockwise(Excluded(id)).count(), 0);
        let mut valued: Ring<u8> = Ring::new();
        assert_eq!(valued.clockwise_entries_mut(id).count(), 0);
        valued.put(id, 1);
        for probe in [id, Id::ZERO, Id::MAX] {
            for (_, value) in valued.clockwise_entries_mut(probe) {
                *value += 1;
            }
        }
        assert_eq!(valued.get(id), Some(&4));
        assert_eq!(ring.counter_clockwise(Excluded(id)).count(), 0);
        assert!(ring.remove(id) && !ring.remove(id) && ring.is_empty());
    }

    #[test]
    fn resizing_has_hysteresis() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut ring = Ring::new();
        let ids: Vec<Id> = (0..65).map(|_| Id::random(&mut rng)).collect();
        for id in &ids[..64] {
            ring.insert(*id);
        }
        assert_eq!(ring.bits, MIN_BITS, "64 ids fit the smallest ring");
        ring.insert(ids[64]);
        assert_eq!(ring.bits, MIN_BITS + 1, "the 65th grows it");
        // Hovering at the boundary that grew it does not shrink it.
        for _ in 0..3 {
            ring.remove(ids[64]);
            ring.insert(ids[64]);
        }
        assert_eq!(ring.bits, MIN_BITS + 1);
        for id in &ids[32..] {
            ring.remove(*id);
        }
        assert_eq!((ring.len(), ring.bits), (32, MIN_BITS + 1));
        ring.remove(ids[31]);
        assert_eq!(ring.bits, MIN_BITS, "fewer than one id a bucket shrinks it");
        for id in &ids[..31] {
            ring.remove(*id);
        }
        assert_eq!(ring.bits, MIN_BITS, "never below the floor");
    }

    #[test]
    fn a_clone_is_independent_of_its_source() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut source = Ring::new();
        for _ in 0..300 {
            source.insert(Id::random(&mut rng));
        }
        let before: Vec<Id> = source.clockwise(Unbounded).collect();
        let mut copy = source.clone();
        let mut small = Ring::new();
        small.insert(Id::from_u64(1));
        small.clone_from(&source);
        for id in &before[..250] {
            assert!(copy.remove(*id) && small.remove(*id));
        }
        copy.insert(Id::MAX);
        assert_eq!(source.clockwise(Unbounded).collect::<Vec<_>>(), before);
        assert_eq!(
            small.clockwise(Unbounded).collect::<Vec<_>>(),
            before[250..]
        );
        assert_eq!(copy.len(), 51);
        source.clone_from(&small);
        assert_eq!(
            source.clockwise(Unbounded).collect::<Vec<_>>(),
            before[250..]
        );
        assert_eq!(
            format!("{small:?}"),
            format!("{:?}", before[250..].iter().collect::<BTreeSet<_>>())
        );
    }
}
