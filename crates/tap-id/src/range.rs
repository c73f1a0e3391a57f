//! Arcs (contiguous clockwise ranges) of the identifier ring.
//!
//! TAP's tunnel-formation rule (§3.5 of the paper) requires chosen hopids to
//! "scatter in the DHT identifier space as far as possible (i.e., with
//! different hopid's prefixes)". [`ArcRange`] gives us the vocabulary to
//! carve the ring into prefix buckets and to reason about which replica sets
//! a contiguous region of ids maps onto.

use crate::{digits_for, Id};
use rand::Rng;

/// A half-open clockwise arc `(start, end]` of the identifier ring.
///
/// Like [`Id::between_cw`], the start is exclusive and the end inclusive,
/// which makes consecutive arcs tile the ring without overlap. An arc with
/// `start == end` covers the whole ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArcRange {
    start: Id,
    end: Id,
}

impl ArcRange {
    /// The arc from `start` (exclusive) clockwise to `end` (inclusive).
    pub fn new(start: Id, end: Id) -> Self {
        ArcRange { start, end }
    }

    /// The whole ring.
    pub fn full() -> Self {
        ArcRange {
            start: Id::ZERO,
            end: Id::ZERO,
        }
    }

    /// The arc of all ids sharing the first `prefix_len` width-`b` digits
    /// with `id`.
    ///
    /// A `prefix_len` of zero is the whole ring; a `prefix_len` of
    /// [`digits_for`]`(b)` — or more: an id has no further digits to share —
    /// is the single point `id` (represented as the arc `(id-1, id]`).
    pub fn prefix_bucket(id: Id, prefix_len: usize, b: u32) -> Self {
        let total = digits_for(b);
        if prefix_len == 0 {
            return ArcRange::full();
        }
        if prefix_len >= total {
            return ArcRange::new(id.wrapping_sub(Id::from_u64(1)), id);
        }
        // Lowest id in the bucket: prefix then zeros.
        let mut lo = id;
        for d in prefix_len..total {
            lo = lo.with_digit(d, b, 0);
        }
        // Highest id: prefix then max digits.
        let maxd = ((1u32 << b) - 1) as u8;
        let mut hi = id;
        for d in prefix_len..total {
            hi = hi.with_digit(d, b, maxd);
        }
        ArcRange::new(lo.wrapping_sub(Id::from_u64(1)), hi)
    }

    /// Exclusive start of the arc.
    pub fn start(&self) -> Id {
        self.start
    }

    /// Inclusive end of the arc.
    pub fn end(&self) -> Id {
        self.end
    }

    /// Whether the arc covers the whole ring.
    pub fn is_full(&self) -> bool {
        self.start == self.end
    }

    /// Whether `id` lies inside the arc.
    pub fn contains(&self, id: Id) -> bool {
        id.between_cw(self.start, self.end)
    }

    /// Number of ids in the arc, saturating at `u128::MAX` (arcs wider than
    /// 2^128 are "huge" for every purpose we have).
    pub fn len_saturating(&self) -> u128 {
        match self.start.clockwise_distance(self.end).limbs() {
            (0, 0) => u128::MAX, // the full ring
            (0, len) => len,
            _ => u128::MAX,
        }
    }

    /// Draw an id uniformly from the arc.
    ///
    /// Samples an offset in `[0, span)` by masking a random 160-bit value to
    /// the bit length of the span and rejecting overshoots — acceptance is at
    /// least 1/2 per attempt regardless of the arc width, and the result is
    /// exactly uniform.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Id {
        let span = self.start.clockwise_distance(self.end);
        // All ones from the span's top set bit down.
        let (mask_hi, mask_lo) = match span.limbs() {
            (0, 0) => return Id::random(rng), // the full ring
            (0, lo) => (0, u128::MAX >> lo.leading_zeros()),
            (hi, _) => (u32::MAX >> hi.leading_zeros(), u128::MAX),
        };
        loop {
            let (hi, lo) = Id::random(rng).limbs();
            let off = Id::from_limbs((hi & mask_hi, lo & mask_lo));
            if off < span {
                // Offsets are 0-based over [0, span); the arc is (start, end]
                // so shift by one.
                return self.start.wrapping_add(off).wrapping_add(Id::from_u64(1));
            }
        }
    }
}

/// Partition the ring into the `2^b` arcs that share each possible value of
/// the first digit. Used by scattered hopid selection.
pub fn first_digit_buckets(b: u32) -> Vec<ArcRange> {
    let n = 1usize << b;
    (0..n)
        .map(|d| {
            let repr = Id::ZERO.with_digit(0, b, d as u8);
            ArcRange::prefix_bucket(repr, 1, b)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn full_ring_contains_everything() {
        let all = ArcRange::full();
        assert!(all.contains(Id::ZERO));
        assert!(all.contains(Id::MAX));
        assert!(all.is_full());
        assert_eq!(all.len_saturating(), u128::MAX);
    }

    #[test]
    fn prefix_bucket_first_hex_digit() {
        let id: Id = "a000000000000000000000000000000000000000".parse().unwrap();
        let bucket = ArcRange::prefix_bucket(id, 1, 4);
        assert!(bucket.contains(id));
        let inside: Id = "afffffffffffffffffffffffffffffffffffffff".parse().unwrap();
        assert!(bucket.contains(inside));
        let below: Id = "9fffffffffffffffffffffffffffffffffffffff".parse().unwrap();
        assert!(!bucket.contains(below));
        let above: Id = "b000000000000000000000000000000000000000".parse().unwrap();
        assert!(!bucket.contains(above));
    }

    #[test]
    fn prefix_bucket_point() {
        let id = Id::from_u64(42);
        let bucket = ArcRange::prefix_bucket(id, crate::digits_for(4), 4);
        assert!(bucket.contains(id));
        assert!(!bucket.contains(Id::from_u64(41)));
        assert!(!bucket.contains(Id::from_u64(43)));
        assert_eq!(bucket.len_saturating(), 1);
        let longer = ArcRange::prefix_bucket(id, crate::digits_for(4) + 1, 4);
        assert_eq!(longer, bucket, "no digits past the last to share");
    }

    #[test]
    fn buckets_tile_the_ring() {
        let buckets = first_digit_buckets(4);
        assert_eq!(buckets.len(), 16);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..256 {
            let id = Id::random(&mut rng);
            let hits = buckets.iter().filter(|r| r.contains(id)).count();
            assert_eq!(hits, 1, "{id} must be in exactly one bucket");
        }
    }

    #[test]
    fn sample_lands_in_arc() {
        let mut rng = StdRng::seed_from_u64(9);
        let buckets = first_digit_buckets(4);
        for bucket in &buckets {
            for _ in 0..16 {
                assert!(bucket.contains(bucket.sample(&mut rng)));
            }
        }
        // Narrow arc exercises the offset path.
        let narrow = ArcRange::new(Id::from_u64(10), Id::from_u64(13));
        for _ in 0..64 {
            let s = narrow.sample(&mut rng);
            assert!(narrow.contains(s), "{s} outside (10, 13]");
        }
    }

    #[test]
    fn len_of_small_arcs() {
        let arc = ArcRange::new(Id::from_u64(5), Id::from_u64(9));
        assert_eq!(arc.len_saturating(), 4);
        // Wrapping arc of the same width.
        let arc = ArcRange::new(Id::MAX, Id::from_u64(3));
        assert_eq!(arc.len_saturating(), 4);
    }

    /// Regression pin for `proptest-regressions/range.txt`: the shrunk case
    /// is the all-zero id with `plen = 2` (seed 3533236062246287576). Every
    /// prefix bucket of the all-zero id *wraps the ring origin* — its
    /// exclusive start is `Id::MAX` — so any sampler that computed
    /// `start + offset` without 160-bit wraparound, or mishandled the
    /// one-id-wide bucket at `plen = total`, would land outside the prefix.
    /// Exercise those buckets deterministically across many streams.
    #[test]
    fn regression_wrapped_bucket_sampling_keeps_prefix() {
        let total = crate::digits_for(4);
        for a in [Id::ZERO, Id::MAX] {
            for plen in [1usize, 2, total - 1, total] {
                let bucket = ArcRange::prefix_bucket(a, plen, 4);
                assert!(bucket.contains(a), "{a} missing from its own bucket");
                for seed in (0..64u64).chain([3533236062246287576]) {
                    let mut rng = StdRng::seed_from_u64(seed);
                    for _ in 0..16 {
                        let s = bucket.sample(&mut rng);
                        assert!(
                            a.shared_prefix_digits(s, 4) >= plen,
                            "sample {s} left the plen={plen} bucket of {a}"
                        );
                    }
                }
            }
        }
        // The all-zero id's buckets wrap: exclusive start above inclusive end.
        let wrapped = ArcRange::prefix_bucket(Id::ZERO, 2, 4);
        assert!(wrapped.start() > wrapped.end());
        assert_eq!(wrapped.start(), Id::MAX);
        // The one-id-wide bucket straddling the origin is (MAX, 0].
        let point = ArcRange::prefix_bucket(Id::ZERO, total, 4);
        assert_eq!(point.len_saturating(), 1);
        let mut rng = StdRng::seed_from_u64(3533236062246287576);
        assert_eq!(point.sample(&mut rng), Id::ZERO);
    }

    /// `sample` and `len_saturating` as they were on bytes — the reference
    /// for the draws the limb versions must reproduce one for one.
    fn oracle_sample(arc: &ArcRange, rng: &mut StdRng) -> Id {
        if arc.is_full() {
            return Id::random(rng);
        }
        let span = arc.start.clockwise_distance(arc.end);
        let sb = span.as_bytes();
        let top = sb.iter().position(|&b| b != 0).expect("span is non-zero");
        let mut mask = [0u8; crate::ID_BYTES];
        mask[top] = if sb[top].leading_zeros() == 0 {
            0xff
        } else {
            (1u8 << (8 - sb[top].leading_zeros())) - 1
        };
        for m in mask.iter_mut().skip(top + 1) {
            *m = 0xff;
        }
        loop {
            let mut raw = *Id::random(rng).as_bytes();
            for (r, m) in raw.iter_mut().zip(mask.iter()) {
                *r &= m;
            }
            let off = Id::from_bytes(raw);
            if off < span {
                return arc.start.wrapping_add(off).wrapping_add(Id::from_u64(1));
            }
        }
    }

    fn oracle_len_saturating(arc: &ArcRange) -> u128 {
        if arc.is_full() {
            return u128::MAX;
        }
        let span = arc.start.clockwise_distance(arc.end);
        let bytes = span.as_bytes();
        if bytes[..4].iter().any(|&b| b != 0) {
            return u128::MAX;
        }
        let mut be = [0u8; 16];
        be.copy_from_slice(&bytes[4..]);
        u128::from_be_bytes(be)
    }

    proptest! {
        /// Same ids from the same generator state, and the generator left in
        /// the same state: spans of every bit length, the full ring included.
        #[test]
        fn prop_sample_and_len_match_the_byte_oracle(
            start in any::<[u8; 20]>(), width in any::<[u8; 20]>(),
            bits in 0usize..=160, seed in any::<u64>()
        ) {
            let start = Id::from_bytes(start);
            // A span of exactly `bits` significant bits (0: the full ring).
            let mut span = Id::from_bytes(width);
            for bit in 0..160 - bits {
                if span.digit(bit, 1) == 1 {
                    span = span.flip_bit(bit);
                }
            }
            if bits > 0 && span.digit(160 - bits, 1) == 0 {
                span = span.flip_bit(160 - bits);
            }
            let arc = ArcRange::new(start, start.wrapping_add(span));
            prop_assert_eq!(arc.len_saturating(), oracle_len_saturating(&arc));
            let (mut ours, mut theirs) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            for _ in 0..4 {
                prop_assert_eq!(arc.sample(&mut ours), oracle_sample(&arc, &mut theirs));
            }
            prop_assert_eq!(Id::random(&mut ours), Id::random(&mut theirs));
        }

        #[test]
        fn prop_prefix_bucket_contains_exactly_matching_prefixes(
            a in any::<[u8; 20]>(), x in any::<[u8; 20]>(), plen in 0usize..=8
        ) {
            let (a, x) = (Id::from_bytes(a), Id::from_bytes(x));
            let bucket = ArcRange::prefix_bucket(a, plen, 4);
            let matches = a.shared_prefix_digits(x, 4) >= plen;
            prop_assert_eq!(bucket.contains(x), matches);
        }

        #[test]
        fn prop_sampling_preserves_prefix(
            a in any::<[u8; 20]>(), plen in 1usize..=40, seed in any::<u64>()
        ) {
            let a = Id::from_bytes(a);
            let bucket = ArcRange::prefix_bucket(a, plen, 4);
            let mut rng = StdRng::seed_from_u64(seed);
            let s = bucket.sample(&mut rng);
            prop_assert!(a.shared_prefix_digits(s, 4) >= plen);
        }
    }
}
