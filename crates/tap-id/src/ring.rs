//! [`Ring`]: the ordered id set every placement question walks — the node
//! closest to a key, the `k` closest, the `n` either side of a node.

use std::fmt;
use std::ops::Bound;

use crate::Id;

/// Fewest top bits the buckets are keyed by: sixteen buckets hold 64 ids,
/// so a store that fills and empties every transfer never resizes. (The
/// most is the 32 `bucket_of` reads, which a ring passes only past 2^34 ids.)
const MIN_BITS: u32 = 4;

/// A sorted set of [`Id`]s in `2^r` buckets keyed by the top `r` bits, each
/// a sorted `Vec`: a lookup is a shift and a search of one short bucket, not
/// a tree descent. Bucket order is numeric order, so the walks yield exactly
/// what a `BTreeSet<Id>` and its ranges yield. `r` grows when the mean
/// bucket holds more than four ids and shrinks below one, so a ring
/// hovering at one size rebuilds once; lookups and walks never allocate.
/// Ids that are not uniform (tests' `Id::from_u64` values all land in
/// bucket 0) make one sorted `Vec`: slower, but exact.
pub struct Ring {
    bits: u32,
    len: usize,
    buckets: Vec<Vec<Id>>,
}

impl Ring {
    /// An empty ring.
    pub fn new() -> Self {
        Ring {
            bits: MIN_BITS,
            len: 0,
            buckets: vec![Vec::new(); 1 << MIN_BITS],
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

    /// Add `id`; `false` if it was already there.
    pub fn insert(&mut self, id: Id) -> bool {
        let (bucket, Err(at)) = self.find(id) else {
            return false;
        };
        self.buckets[bucket].insert(at, id);
        self.len += 1;
        if self.len > 4 << self.bits {
            self.rebucket(self.bits + 1);
        }
        true
    }

    /// Drop `id`; `false` if it was not there.
    pub fn remove(&mut self, id: Id) -> bool {
        let (bucket, Ok(at)) = self.find(id) else {
            return false;
        };
        self.buckets[bucket].remove(at);
        self.len -= 1;
        if self.len < 1 << self.bits && self.bits > MIN_BITS {
            self.rebucket(self.bits - 1);
        }
        true
    }

    /// Every id once, clockwise from `from`: a live `Included` id leads
    /// the walk, an `Excluded` one is left out, and `Unbounded` starts at
    /// the smallest id.
    pub fn clockwise(&self, from: Bound<Id>) -> impl Iterator<Item = Id> + '_ {
        self.walk::<true>(from)
    }

    /// The mirror image of [`Ring::clockwise`]: every id once,
    /// counter-clockwise from `from`; `Unbounded` starts at the largest id.
    pub fn counter_clockwise(&self, from: Bound<Id>) -> impl Iterator<Item = Id> + '_ {
        self.walk::<false>(from)
    }

    fn bucket_of(&self, id: Id) -> usize {
        let [a, b, c, d, ..] = *id.as_bytes();
        (u32::from_be_bytes([a, b, c, d]) >> (32 - self.bits)) as usize
    }

    /// `id`'s bucket, and where in it `id` is (`Ok`) or would go (`Err`).
    fn find(&self, id: Id) -> (usize, Result<usize, usize>) {
        let bucket = self.bucket_of(id);
        (bucket, self.buckets[bucket].binary_search(&id))
    }

    fn walk<const CW: bool>(&self, from: Bound<Id>) -> Walk<'_, CW> {
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

    /// Re-key every id by its top `bits` bits. Ids move in ascending order,
    /// so every bucket stays sorted.
    fn rebucket(&mut self, bits: u32) {
        let old = std::mem::replace(&mut self.buckets, vec![Vec::new(); 1 << bits]);
        self.bits = bits;
        for id in old.into_iter().flatten() {
            let bucket = self.bucket_of(id);
            self.buckets[bucket].push(id);
        }
    }
}

impl Default for Ring {
    fn default() -> Self {
        Ring::new()
    }
}

impl Clone for Ring {
    fn clone(&self) -> Self {
        Ring {
            buckets: self.buckets.clone(),
            ..*self
        }
    }

    /// Reuses this ring's bucket allocations: a rollback to a checkpoint
    /// copies ids, not buffers.
    fn clone_from(&mut self, source: &Self) {
        self.bits = source.bits;
        self.len = source.len;
        self.buckets.clone_from(&source.buckets);
    }
}

impl fmt::Debug for Ring {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.clockwise(Bound::Unbounded))
            .finish()
    }
}

/// `left` more ids from `buckets[bucket][at]` on (counter-clockwise, `at - 1`).
struct Walk<'a, const CW: bool> {
    buckets: &'a [Vec<Id>],
    bucket: usize,
    at: usize,
    left: usize,
}

impl<const CW: bool> Iterator for Walk<'_, CW> {
    type Item = Id;

    #[inline]
    fn next(&mut self) -> Option<Id> {
        self.left = self.left.checked_sub(1)?;
        // An id is left to yield, so a bucket ahead holds one: the skips
        // end. The bucket count is a power of two.
        let mask = self.buckets.len() - 1;
        if CW {
            while self.at == self.buckets[self.bucket].len() {
                self.bucket = (self.bucket + 1) & mask;
                self.at = 0;
            }
            self.at += 1;
            Some(self.buckets[self.bucket][self.at - 1])
        } else {
            while self.at == 0 {
                self.bucket = self.bucket.wrapping_sub(1) & mask;
                self.at = self.buckets[self.bucket].len();
            }
            self.at -= 1;
            Some(self.buckets[self.bucket][self.at])
        }
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
    use std::collections::BTreeSet;
    use std::ops::Bound::{Excluded, Included, Unbounded};

    /// What a walk from `from` yields, read off `BTreeSet` ranges.
    fn expected(set: &BTreeSet<Id>, from: Bound<Id>, clockwise: bool) -> Vec<Id> {
        let above = |f| set.range((Excluded(f), Unbounded));
        let walk: Vec<&Id> = match (from, clockwise) {
            (Unbounded, true) => set.iter().collect(),
            (Unbounded, false) => set.iter().rev().collect(),
            (Included(f), true) => set.range(f..).chain(set.range(..f)).collect(),
            (Excluded(f), true) => above(f).chain(set.range(..f)).collect(),
            (Included(f), false) => (set.get(&f).into_iter())
                .chain(set.range(..f).rev())
                .chain(above(f).rev())
                .collect(),
            (Excluded(f), false) => set.range(..f).rev().chain(above(f).rev()).collect(),
        };
        walk.into_iter().copied().collect()
    }

    /// Every walk from every probe, both ways, against the set; and the
    /// bucket count within its hysteresis band.
    fn check(ring: &Ring, set: &BTreeSet<Id>, probes: &[Id]) -> Result<(), TestCaseError> {
        prop_assert!(ring.bits >= MIN_BITS);
        prop_assert!(ring.len <= 4 << ring.bits);
        prop_assert!(ring.bits == MIN_BITS || ring.len >= 1 << ring.bits);
        prop_assert_eq!(ring.buckets.len(), 1 << ring.bits);
        prop_assert_eq!(ring.len(), set.len());
        prop_assert_eq!(ring.is_empty(), set.is_empty());
        prop_assert_eq!(
            ring.clockwise(Unbounded).collect::<Vec<_>>(),
            expected(set, Unbounded, true)
        );
        let bounds = probes.iter().flat_map(|&p| [Included(p), Excluded(p)]);
        for from in bounds.chain([Unbounded]) {
            let (cw, ccw) = (ring.clockwise(from), ring.counter_clockwise(from));
            prop_assert_eq!(cw.size_hint().0, expected(set, from, true).len());
            prop_assert_eq!(cw.collect::<Vec<_>>(), expected(set, from, true));
            prop_assert_eq!(ccw.collect::<Vec<_>>(), expected(set, from, false));
        }
        for p in probes {
            prop_assert_eq!(ring.contains(*p), set.contains(p));
        }
        Ok(())
    }

    /// Members, their neighbours (members or not), fresh ids and the ends
    /// of the ring.
    fn probes(set: &BTreeSet<Id>, draw: &mut impl FnMut() -> Id) -> Vec<Id> {
        let mut probes = vec![Id::ZERO, Id::MAX, draw(), draw()];
        let one = Id::from_u64(1);
        for m in set.iter().step_by(set.len() / 3 + 1) {
            probes.extend([*m, m.wrapping_add(one), m.wrapping_sub(one)]);
        }
        probes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random inserts and removes that fill a ring past `peak` ids and
        /// drain it again, so `r` crosses its resize boundaries both ways;
        /// `kind` draws uniform ids, clustered `Id::from_u64` ones, or both.
        #[test]
        fn prop_walks_match_btreeset_ranges(
            seed in any::<u64>(), kind in 0u8..3, peak in 0usize..400
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draw = move || match kind {
                0 => Id::random(&mut rng),
                1 => Id::from_u64(rng.gen_range(0..2 * peak as u64 + 2)),
                _ if rng.gen() => Id::random(&mut rng),
                _ => Id::from_u64(rng.gen_range(0..64)),
            };
            let (mut ring, mut set) = (Ring::new(), BTreeSet::new());
            let mut filling = true;
            for step in 0..6 * peak + 8 {
                let bits = ring.bits;
                let insert = if filling { step % 4 != 0 } else { step % 4 == 0 };
                // Mostly fresh ids in, members out; now and then the other.
                let member = set.iter().nth(step % (set.len() + 1)).copied();
                let id = match member {
                    Some(member) if (step % 5 == 0) == insert => member,
                    _ => draw(),
                };
                if insert {
                    prop_assert_eq!(ring.insert(id), set.insert(id));
                } else {
                    prop_assert_eq!(ring.remove(id), set.remove(&id));
                }
                filling &= set.len() < peak;
                if ring.bits != bits || step % 64 == 0 {
                    check(&ring, &set, &probes(&set, &mut draw))?;
                }
            }
            for id in set.clone() {
                prop_assert!(ring.remove(id) && set.remove(&id));
            }
            check(&ring, &set, &probes(&set, &mut draw))?;
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
