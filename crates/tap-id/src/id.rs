//! The [`Id`] type: a 160-bit unsigned integer on a circular ring.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

use rand::Rng;

/// Width of an identifier in bits.
pub const ID_BITS: u32 = 160;
/// Width of an identifier in bytes.
pub const ID_BYTES: usize = 20;

/// A 160-bit identifier in a circular (mod 2^160) space.
///
/// Used for node ids, file ids, and TAP hop ids alike. Stored as twenty
/// big-endian bytes — that is what `Eq`, `Hash`, [`Id::as_bytes`] and every
/// wire format see — and computed on as a `(u32, u128)` limb pair loaded
/// from those bytes, whose tuple order is the numeric order.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Id([u8; ID_BYTES]);

impl Id {
    /// The additive identity (all zero bits).
    pub const ZERO: Id = Id([0u8; ID_BYTES]);
    /// The maximum identifier (all one bits), i.e. `2^160 - 1`.
    pub const MAX: Id = Id([0xffu8; ID_BYTES]);
    /// Exactly half the ring, `2^159`. `ring_distance` never exceeds this.
    pub const HALF: Id = {
        let mut b = [0u8; ID_BYTES];
        b[0] = 0x80;
        Id(b)
    };

    /// Construct from big-endian bytes.
    #[inline]
    pub const fn from_bytes(bytes: [u8; ID_BYTES]) -> Self {
        Id(bytes)
    }

    /// The big-endian byte representation.
    #[inline]
    pub const fn as_bytes(&self) -> &[u8; ID_BYTES] {
        &self.0
    }

    /// The compute representation: the top 32 bits and the low 128.
    /// Loaded big-endian explicitly, so every host computes the same.
    #[inline]
    pub(crate) fn limbs(self) -> (u32, u128) {
        let [a, b, c, d, lo @ ..] = self.0;
        (u32::from_be_bytes([a, b, c, d]), u128::from_be_bytes(lo))
    }

    /// The inverse of [`Id::limbs`].
    #[inline]
    pub(crate) fn from_limbs((hi, lo): (u32, u128)) -> Id {
        let mut b = [0u8; ID_BYTES];
        b[..4].copy_from_slice(&hi.to_be_bytes());
        b[4..].copy_from_slice(&lo.to_be_bytes());
        Id(b)
    }

    /// Construct an id equal to a small integer (zero-extended to 160 bits).
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        Id::from_u128(v as u128)
    }

    /// Construct from a `u128` (zero-extended to 160 bits).
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        let mut b = [0u8; ID_BYTES];
        let be = v.to_be_bytes();
        let mut i = 0;
        while i < 16 {
            b[ID_BYTES - 16 + i] = be[i];
            i += 1;
        }
        Id(b)
    }

    /// The low 64 bits of the identifier (handy for cheap test assertions).
    #[inline]
    pub fn low_u64(&self) -> u64 {
        self.limbs().1 as u64
    }

    /// Draw an identifier uniformly at random.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut b = [0u8; ID_BYTES];
        rng.fill(&mut b[..]);
        Id(b)
    }

    /// Wrapping addition on the ring.
    #[inline]
    #[must_use]
    pub fn wrapping_add(self, rhs: Id) -> Id {
        let ((ah, al), (bh, bl)) = (self.limbs(), rhs.limbs());
        let (lo, carry) = al.overflowing_add(bl);
        Id::from_limbs((ah.wrapping_add(bh).wrapping_add(carry as u32), lo))
    }

    /// Wrapping subtraction on the ring (`self - rhs mod 2^160`).
    #[inline]
    #[must_use]
    pub fn wrapping_sub(self, rhs: Id) -> Id {
        Id::from_limbs(limb_sub(self.limbs(), rhs.limbs()))
    }

    /// Distance travelling clockwise (increasing ids) from `self` to `to`.
    #[inline]
    #[must_use]
    pub fn clockwise_distance(self, to: Id) -> Id {
        to.wrapping_sub(self)
    }

    /// Distance travelling counter-clockwise from `self` to `to`.
    #[inline]
    #[must_use]
    pub fn counter_clockwise_distance(self, to: Id) -> Id {
        self.wrapping_sub(to)
    }

    /// The minimal circular distance between two identifiers.
    ///
    /// This is the metric behind Pastry's "numerically closest nodeid":
    /// a key's root is the live node minimizing `ring_distance(nodeid, key)`.
    /// The result is at most [`Id::HALF`].
    #[inline]
    #[must_use]
    pub fn ring_distance(self, other: Id) -> Id {
        Id::from_limbs(limb_distance(self.limbs(), other.limbs()))
    }

    /// A measure of candidates against `self` whose order is
    /// [`Id::cmp_distance`]'s: it loads `self`'s limbs once and gives each
    /// candidate a [`DistanceKey`], which never goes back to bytes.
    #[inline]
    pub fn distance_keys(self) -> impl Fn(Id) -> DistanceKey + Copy {
        let key = self.limbs();
        move |candidate| {
            let candidate = candidate.limbs();
            DistanceKey {
                distance: limb_distance(key, candidate),
                candidate,
            }
        }
    }

    /// Compare two candidate ids by their ring distance to `self`,
    /// tie-breaking on the numerically smaller candidate so the relation is
    /// a total order (required for deterministic replica-set selection).
    #[inline]
    pub fn cmp_distance(&self, a: Id, b: Id) -> Ordering {
        let measure = self.distance_keys();
        measure(a).cmp(&measure(b))
    }

    /// Whether `self` is strictly closer to `target` than `other` is,
    /// under the same deterministic tie-break as [`Id::cmp_distance`].
    #[inline]
    pub fn closer_to(&self, target: Id, other: Id) -> bool {
        target.cmp_distance(*self, other) == Ordering::Less
    }

    /// The 128-bit window of the id that holds the `b ≤ 8` bits starting at
    /// `bit_off < 160`, and their offset inside it: the top of the id for a
    /// digit that starts in the high limb, the low limb otherwise. Shifting
    /// the low limb left pads a digit that runs past bit 159 with zeros.
    #[inline]
    fn digit_window(self, bit_off: usize) -> (u128, usize) {
        let (hi, lo) = self.limbs();
        if bit_off < 32 {
            (((hi as u128) << 96) | (lo >> 32), bit_off)
        } else {
            (lo, bit_off - 32)
        }
    }

    /// Extract digit `index` where digit 0 is the most significant,
    /// using `b` bits per digit (`1 <= b <= 8`).
    ///
    /// Digits that would run past bit 159 are zero-padded at the low end,
    /// matching how Pastry treats identifiers as fixed-length digit strings.
    /// Total in `index`: a digit that starts past bit 159 — `index >=`
    /// [`crate::digits_for`]`(b)` — is all padding and reads 0, which is
    /// what a routing table asks for when the key is its owner.
    #[inline]
    pub fn digit(&self, index: usize, b: u32) -> u8 {
        // `b` is a validated overlay constant, never wire or caller data.
        debug_assert!((1..=8).contains(&b), "digit width must be in 1..=8");
        let bit_off = index.saturating_mul(b as usize);
        if bit_off >= ID_BITS as usize {
            return 0;
        }
        let (window, off) = self.digit_window(bit_off);
        ((window << off) >> (128 - b)) as u8
    }

    /// Return a copy of `self` with digit `index` (width `b`) replaced by
    /// `value`, leaving all other bits untouched. Of a tail digit only the
    /// bits that exist are written; a digit that starts past bit 159 has
    /// none, so `self` comes back unchanged.
    #[inline]
    #[must_use]
    pub fn with_digit(self, index: usize, b: u32, value: u8) -> Id {
        debug_assert!((1..=8).contains(&b));
        debug_assert!((value as u32) < (1u32 << b), "digit value out of range");
        let bit_off = index.saturating_mul(b as usize);
        if bit_off >= ID_BITS as usize {
            return self;
        }
        let (window, off) = self.digit_window(bit_off);
        let mask = (u128::MAX << (128 - b)) >> off;
        let window = (window & !mask) | (((value as u128) << (128 - b)) >> off);
        let (hi, lo) = self.limbs();
        Id::from_limbs(if bit_off < 32 {
            ((window >> 96) as u32, (window << 32) | (lo & 0xffff_ffff))
        } else {
            (hi, window)
        })
    }

    /// Length of the common digit prefix of `self` and `other`, in digits of
    /// width `b`. Equal ids share all [`crate::digits_for`]`(b)` digits.
    #[inline]
    pub fn shared_prefix_digits(&self, other: Id, b: u32) -> usize {
        let ((ah, al), (bh, bl)) = (self.limbs(), other.limbs());
        let bit = match (ah ^ bh, al ^ bl) {
            (0, 0) => return crate::digits_for(b),
            (0, lo) => 32 + lo.leading_zeros(),
            (hi, _) => hi.leading_zeros(),
        };
        (bit / b) as usize
    }

    /// Flip the single bit `bit` (0 = most significant). Like a digit past
    /// the end, a bit past 159 does not exist and flipping it changes nothing.
    #[must_use]
    pub fn flip_bit(mut self, bit: usize) -> Id {
        if let Some(byte) = self.0.get_mut(bit / 8) {
            *byte ^= 0x80 >> (bit % 8);
        }
        self
    }

    /// Whether `self` lies on the clockwise arc from `from` (exclusive) to
    /// `to` (inclusive). The full arc `from == to` contains everything.
    #[inline]
    pub fn between_cw(&self, from: Id, to: Id) -> bool {
        if from == to {
            return true;
        }
        let from = from.limbs();
        let off = limb_sub(self.limbs(), from);
        off != (0, 0) && off <= limb_sub(to.limbs(), from)
    }

    /// Render as a 40-character lowercase hex string.
    pub fn to_hex(&self) -> String {
        const NIBBLES: &[u8; 16] = b"0123456789abcdef";
        let mut s = String::with_capacity(ID_BYTES * 2);
        for byte in self.0 {
            s.push(NIBBLES[(byte >> 4) as usize] as char);
            s.push(NIBBLES[(byte & 0xf) as usize] as char);
        }
        s
    }
}

/// `a - b mod 2^160` in limbs, for callers that only compare: one borrow
/// from the low limb into the top.
#[inline]
fn limb_sub((ah, al): (u32, u128), (bh, bl): (u32, u128)) -> (u32, u128) {
    let (lo, borrow) = al.overflowing_sub(bl);
    (ah.wrapping_sub(bh).wrapping_sub(borrow as u32), lo)
}

/// The ring distance on limbs: the smaller of the two directed distances,
/// which are each other's negation.
#[inline]
fn limb_distance(a: (u32, u128), b: (u32, u128)) -> (u32, u128) {
    limb_sub(b, a).min(limb_sub(a, b))
}

/// A candidate measured by [`Id::distance_keys`]: its ring distance to the
/// key, then the candidate itself, both in limbs. The derived order is
/// that of the `(ring distance, candidate)` tuple of `Id`s, and so that of
/// [`Id::cmp_distance`], because limb order is the bytes' order; a scan
/// that carries its incumbent's key measures every candidate once.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DistanceKey {
    distance: (u32, u128),
    candidate: (u32, u128),
}

impl DistanceKey {
    /// The candidate this key measured.
    #[inline]
    pub fn id(self) -> Id {
        Id::from_limbs(self.candidate)
    }
}

/// Numeric order, compared on the limbs. Equal to the lexicographic order
/// of the big-endian bytes, so it agrees with the derived `Eq`.
impl Ord for Id {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.limbs().cmp(&other.limbs())
    }
}

impl PartialOrd for Id {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Error parsing an [`Id`] from a hex string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdParseError {
    /// The string was not exactly 40 hex characters.
    BadLength(usize),
    /// A character was not a hex digit.
    BadChar(char),
}

impl fmt::Display for IdParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdParseError::BadLength(n) => {
                write!(f, "expected {} hex chars, got {n}", ID_BYTES * 2)
            }
            IdParseError::BadChar(c) => write!(f, "invalid hex character {c:?}"),
        }
    }
}

impl std::error::Error for IdParseError {}

impl FromStr for Id {
    type Err = IdParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != ID_BYTES * 2 {
            return Err(IdParseError::BadLength(s.len()));
        }
        let mut out = [0u8; ID_BYTES];
        for (i, c) in s.chars().enumerate() {
            let v = c.to_digit(16).ok_or(IdParseError::BadChar(c))? as u8;
            out[i / 2] = (out[i / 2] << 4) | v;
        }
        Ok(Id(out))
    }
}

impl fmt::Debug for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Abbreviate: the first 6 hex digits identify an id at a glance in
        // simulator logs while keeping routing-table dumps readable.
        write!(
            f,
            "Id({:02x}{:02x}{:02x}..)",
            self.0[0], self.0[1], self.0[2]
        )
    }
}

impl fmt::Display for Id {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// The byte-at-a-time arithmetic this type started with, kept as the
/// reference the differential proptests below compare the limb code
/// against. Copied, not rewritten: the edits are `a`/`x` for `self`.
#[cfg(test)]
mod oracle {
    use super::*;

    pub fn wrapping_add(a: Id, rhs: Id) -> Id {
        let mut out = [0u8; ID_BYTES];
        let mut carry = 0u16;
        for i in (0..ID_BYTES).rev() {
            let s = a.0[i] as u16 + rhs.0[i] as u16 + carry;
            out[i] = s as u8;
            carry = s >> 8;
        }
        Id(out)
    }

    pub fn wrapping_sub(a: Id, rhs: Id) -> Id {
        let mut out = [0u8; ID_BYTES];
        let mut borrow = 0i16;
        for i in (0..ID_BYTES).rev() {
            let d = a.0[i] as i16 - rhs.0[i] as i16 - borrow;
            if d < 0 {
                out[i] = (d + 256) as u8;
                borrow = 1;
            } else {
                out[i] = d as u8;
                borrow = 0;
            }
        }
        Id(out)
    }

    /// The derived order of the byte array.
    pub fn cmp(a: Id, b: Id) -> Ordering {
        a.0.cmp(&b.0)
    }

    pub fn ring_distance(a: Id, other: Id) -> Id {
        let cw = wrapping_sub(other, a);
        let ccw = wrapping_sub(a, other);
        if cmp(cw, ccw) != Ordering::Greater {
            cw
        } else {
            ccw
        }
    }

    pub fn cmp_distance(key: Id, a: Id, b: Id) -> Ordering {
        cmp(ring_distance(key, a), ring_distance(key, b)).then(cmp(a, b))
    }

    pub fn digit(x: Id, index: usize, b: u32) -> u8 {
        let bit_off = index * b as usize;
        assert!(bit_off < ID_BITS as usize, "digit index out of range");
        let avail = (ID_BITS as usize - bit_off).min(b as usize);
        let mut v = 0u8;
        for i in 0..avail {
            let bit = bit_off + i;
            let byte = x.0[bit / 8];
            let bitval = (byte >> (7 - (bit % 8))) & 1;
            v = (v << 1) | bitval;
        }
        v << (b as usize - avail)
    }

    pub fn with_digit(mut x: Id, index: usize, b: u32, value: u8) -> Id {
        let bit_off = index * b as usize;
        assert!(bit_off < ID_BITS as usize);
        let avail = (ID_BITS as usize - bit_off).min(b as usize);
        for i in 0..avail {
            let bit = bit_off + i;
            let bitval = (value >> (b as usize - 1 - i)) & 1;
            let byte = &mut x.0[bit / 8];
            let mask = 1u8 << (7 - (bit % 8));
            if bitval == 1 {
                *byte |= mask;
            } else {
                *byte &= !mask;
            }
        }
        x
    }

    pub fn shared_prefix_digits(a: Id, other: Id, b: u32) -> usize {
        let total = crate::digits_for(b);
        let mut byte = 0;
        while byte < ID_BYTES && a.0[byte] == other.0[byte] {
            byte += 1;
        }
        if byte == ID_BYTES {
            return total;
        }
        let bit = byte * 8 + (a.0[byte] ^ other.0[byte]).leading_zeros() as usize;
        (bit / b as usize).min(total)
    }

    pub fn between_cw(x: Id, from: Id, to: Id) -> bool {
        if from == to {
            return true;
        }
        let span = wrapping_sub(to, from);
        let off = wrapping_sub(x, from);
        cmp(off, Id::ZERO) == Ordering::Greater && cmp(off, span) != Ordering::Greater
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn id(v: u64) -> Id {
        Id::from_u64(v)
    }

    #[test]
    fn constants() {
        assert_eq!(Id::ZERO.low_u64(), 0);
        assert_eq!(Id::MAX.wrapping_add(id(1)), Id::ZERO);
        assert_eq!(Id::HALF.wrapping_add(Id::HALF), Id::ZERO);
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(id(3).wrapping_add(id(4)), id(7));
        assert_eq!(id(7).wrapping_sub(id(4)), id(3));
        assert_eq!(id(0).wrapping_sub(id(1)), Id::MAX);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = Id::from_u128(u128::MAX);
        let one = id(1);
        let sum = a.wrapping_add(one);
        // 2^128 has byte 3 (0-indexed from MSB) == 1 and the rest zero.
        let mut expect = [0u8; ID_BYTES];
        expect[3] = 1;
        assert_eq!(sum, Id::from_bytes(expect));
    }

    #[test]
    fn ring_distance_is_minimal_and_symmetric() {
        assert_eq!(id(10).ring_distance(id(13)), id(3));
        assert_eq!(id(13).ring_distance(id(10)), id(3));
        // Wrap-around: distance between 2^160-1 and 1 is 2.
        assert_eq!(Id::MAX.ring_distance(id(1)), id(2));
    }

    #[test]
    fn ring_distance_capped_at_half() {
        let a = Id::ZERO;
        let b = Id::HALF;
        assert_eq!(a.ring_distance(b), Id::HALF);
        let c = Id::HALF.wrapping_add(id(1));
        assert!(a.ring_distance(c) < Id::HALF);
    }

    #[test]
    fn cmp_distance_totally_orders_equidistant_points() {
        // 5 is equidistant from 3 and 7; tie-break picks numerically smaller.
        assert_eq!(id(5).cmp_distance(id(3), id(7)), Ordering::Less);
        assert_eq!(id(5).cmp_distance(id(7), id(3)), Ordering::Greater);
        assert_eq!(id(5).cmp_distance(id(3), id(3)), Ordering::Equal);
    }

    #[test]
    fn digit_extraction_hex() {
        let a: Id = "f123456789abcdef0000000000000000000000ff".parse().unwrap();
        assert_eq!(a.digit(0, 4), 0xf);
        assert_eq!(a.digit(1, 4), 0x1);
        assert_eq!(a.digit(15, 4), 0xf);
        assert_eq!(a.digit(39, 4), 0xf);
    }

    #[test]
    fn digit_extraction_binary_and_bytes() {
        let a = Id::HALF;
        assert_eq!(a.digit(0, 1), 1);
        assert_eq!(a.digit(1, 1), 0);
        assert_eq!(a.digit(0, 8), 0x80);
    }

    #[test]
    fn digit_nondividing_width_pads_tail() {
        // b=3: digit 53 covers bits 159..162 — only 1 real bit remains.
        let a = Id::MAX;
        assert_eq!(a.digit(53, 3), 0b100);
    }

    #[test]
    fn with_digit_roundtrip() {
        let a = Id::ZERO.with_digit(0, 4, 0xa).with_digit(39, 4, 0x5);
        assert_eq!(a.digit(0, 4), 0xa);
        assert_eq!(a.digit(39, 4), 0x5);
        assert_eq!(a.digit(20, 4), 0);
    }

    #[test]
    fn shared_prefix() {
        let a: Id = "aabbccdd00000000000000000000000000000000".parse().unwrap();
        let b: Id = "aabbccde00000000000000000000000000000000".parse().unwrap();
        assert_eq!(a.shared_prefix_digits(b, 4), 7);
        assert_eq!(a.shared_prefix_digits(a, 4), 40);
        assert_eq!(a.shared_prefix_digits(b, 1), 30);
        assert_eq!(Id::ZERO.shared_prefix_digits(Id::MAX, 4), 0);
    }

    #[test]
    fn between_cw_arcs() {
        assert!(id(5).between_cw(id(3), id(7)));
        assert!(!id(3).between_cw(id(3), id(7)), "from is exclusive");
        assert!(id(7).between_cw(id(3), id(7)), "to is inclusive");
        // Wrapping arc.
        assert!(id(1).between_cw(Id::MAX, id(3)));
        assert!(!id(5).between_cw(Id::MAX, id(3)));
        // Degenerate full arc.
        assert!(id(9).between_cw(id(2), id(2)));
    }

    #[test]
    fn hex_roundtrip_and_parse_errors() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..32 {
            let a = Id::random(&mut rng);
            assert_eq!(a.to_hex().parse::<Id>().unwrap(), a);
        }
        assert!(matches!(
            "abc".parse::<Id>(),
            Err(IdParseError::BadLength(3))
        ));
        let bad = "g".repeat(40);
        assert!(matches!(bad.parse::<Id>(), Err(IdParseError::BadChar('g'))));
    }

    #[test]
    fn flip_bit() {
        assert_eq!(Id::ZERO.flip_bit(0), Id::HALF);
        assert_eq!(Id::ZERO.flip_bit(159), id(1));
        assert_eq!(Id::ZERO.flip_bit(5).flip_bit(5), Id::ZERO);
        assert_eq!(Id::HALF.flip_bit(160), Id::HALF);
        assert_eq!(Id::HALF.flip_bit(usize::MAX), Id::HALF);
    }

    #[test]
    fn ordering_matches_numeric() {
        assert!(id(1) < id(2));
        assert!(Id::from_u128(1u128 << 100) > Id::MAX.wrapping_sub(Id::MAX));
        assert!(Id::HALF > Id::from_u128(u128::MAX));
    }

    /// An id for the differential tests: a third of the picks are uniform,
    /// the rest sit on or within two of a seam of the limb representation —
    /// the ring's ends and middle, bit 128 (the limb boundary), bit 64, and
    /// random ids whose low limb is all zeros or all ones, so that carries
    /// and borrows cross from one limb into the other.
    fn seam(pick: usize, bytes: [u8; ID_BYTES]) -> Id {
        let r = Id::from_bytes(bytes);
        let (hi, lo) = r.limbs();
        let base = match pick % 15 {
            0 => Id::ZERO,
            1 => Id::MAX, // 2^32 · 2^128 − 1
            2 => Id::HALF,
            3 => Id::from_limbs((1, 0)), // 2^128
            4 => Id::from_limbs((0, 1 << 64)),
            5 => Id::from_limbs((0x0000_ffff, u128::MAX)), // …00ffff…
            6 => Id::from_limbs((hi, 0)),
            7 => Id::from_limbs((hi, u128::MAX)),
            8 => Id::from_limbs((0, lo)),
            9 => Id::from_limbs((u32::MAX, lo)),
            _ => return r,
        };
        let near = Id::from_u64(u64::from(bytes[19] % 3));
        if bytes[18].is_multiple_of(2) {
            oracle::wrapping_add(base, near)
        } else {
            oracle::wrapping_sub(base, near)
        }
    }

    #[test]
    fn hash_and_layout_are_those_of_the_byte_array() {
        use std::hash::{BuildHasher, Hash, Hasher};
        assert_eq!(std::mem::size_of::<Id>(), ID_BYTES);
        assert_eq!(std::mem::align_of::<Id>(), 1);
        let fixed: Id = "f123456789abcdef0000000000000000000000ff".parse().unwrap();
        let mut derived = std::collections::hash_map::DefaultHasher::new();
        let mut bytes = std::collections::hash_map::DefaultHasher::new();
        fixed.hash(&mut derived);
        fixed.as_bytes().hash(&mut bytes);
        assert_eq!(derived.finish(), bytes.finish());
        // Recorded with the byte-wise `Id` this crate started with.
        assert_eq!(
            crate::BuildIdHasher::default().hash_one(fixed),
            0x1af3_783f_8cf6_c95d
        );
    }

    #[test]
    fn digits_past_the_end_are_zero_and_unwritable() {
        for b in 1..=8u32 {
            let total = crate::digits_for(b);
            for index in [total, total + 1, usize::MAX / 2, usize::MAX] {
                assert_eq!(Id::MAX.digit(index, b), 0, "b = {b}, index = {index}");
                assert_eq!(Id::HALF.with_digit(index, b, 1), Id::HALF);
            }
        }
    }

    proptest! {
        #[test]
        fn prop_add_sub_inverse(a in any::<[u8; 20]>(), b in any::<[u8; 20]>()) {
            let (a, b) = (Id::from_bytes(a), Id::from_bytes(b));
            prop_assert_eq!(a.wrapping_add(b).wrapping_sub(b), a);
            prop_assert_eq!(a.wrapping_sub(b).wrapping_add(b), a);
        }

        #[test]
        fn prop_add_commutes(a in any::<[u8; 20]>(), b in any::<[u8; 20]>()) {
            let (a, b) = (Id::from_bytes(a), Id::from_bytes(b));
            prop_assert_eq!(a.wrapping_add(b), b.wrapping_add(a));
        }

        #[test]
        fn prop_ring_distance_symmetric_and_bounded(
            a in any::<[u8; 20]>(), b in any::<[u8; 20]>()
        ) {
            let (a, b) = (Id::from_bytes(a), Id::from_bytes(b));
            let d = a.ring_distance(b);
            prop_assert_eq!(d, b.ring_distance(a));
            prop_assert!(d <= Id::HALF);
            prop_assert_eq!(a.ring_distance(a), Id::ZERO);
        }

        #[test]
        fn prop_ring_distance_triangle(
            a in any::<[u8; 20]>(), b in any::<[u8; 20]>(), c in any::<[u8; 20]>()
        ) {
            let (a, b, c) = (Id::from_bytes(a), Id::from_bytes(b), Id::from_bytes(c));
            // d(a,c) <= d(a,b) + d(b,c); the sum may wrap, in which case it
            // exceeds HALF >= d(a,c) anyway, so compare in 161-bit space.
            let ab = a.ring_distance(b);
            let bc = b.ring_distance(c);
            let ac = a.ring_distance(c);
            let (sum, overflow) = {
                let s = ab.wrapping_add(bc);
                (s, s < ab)
            };
            prop_assert!(overflow || ac <= sum);
        }

        #[test]
        fn prop_digit_roundtrip(bytes in any::<[u8; 20]>(), idx in 0usize..40) {
            let a = Id::from_bytes(bytes);
            let d = a.digit(idx, 4);
            prop_assert_eq!(a.with_digit(idx, 4, d), a);
            prop_assert_eq!(a.with_digit(idx, 4, (d + 1) % 16).digit(idx, 4), (d + 1) % 16);
        }

        #[test]
        fn prop_shared_prefix_consistent_with_digits(
            a in any::<[u8; 20]>(), b in any::<[u8; 20]>(), w in 1u32..=8
        ) {
            let (a, b) = (Id::from_bytes(a), Id::from_bytes(b));
            let p = a.shared_prefix_digits(b, w);
            for i in 0..p {
                prop_assert_eq!(a.digit(i, w), b.digit(i, w));
            }
            if p < crate::digits_for(w) {
                prop_assert_ne!(a.digit(p, w), b.digit(p, w));
            }
        }

        #[test]
        fn prop_between_cw_matches_distances(
            x in any::<[u8; 20]>(), from in any::<[u8; 20]>(), to in any::<[u8; 20]>()
        ) {
            let (x, from, to) = (Id::from_bytes(x), Id::from_bytes(from), Id::from_bytes(to));
            prop_assume!(from != to);
            let inside = x.between_cw(from, to);
            let expect = from.clockwise_distance(x) != Id::ZERO
                && from.clockwise_distance(x) <= from.clockwise_distance(to);
            prop_assert_eq!(inside, expect);
        }
    }

    // Differential against the byte-wise oracle. Many cases: a triple of
    // seam picks has 15^3 combinations and each case costs microseconds.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn prop_limb_arithmetic_matches_the_byte_oracle(
            picks in (0usize..15, 0usize..15, 0usize..15),
            a in any::<[u8; 20]>(), b in any::<[u8; 20]>(), c in any::<[u8; 20]>()
        ) {
            let (a, b, c) = (seam(picks.0, a), seam(picks.1, b), seam(picks.2, c));
            prop_assert_eq!(a.wrapping_add(b), oracle::wrapping_add(a, b));
            prop_assert_eq!(a.wrapping_sub(b), oracle::wrapping_sub(a, b));
            prop_assert_eq!(a.clockwise_distance(b), oracle::wrapping_sub(b, a));
            prop_assert_eq!(a.counter_clockwise_distance(b), oracle::wrapping_sub(a, b));
            prop_assert_eq!(a.ring_distance(b), oracle::ring_distance(a, b));
            prop_assert_eq!(a.cmp(&b), oracle::cmp(a, b));
            prop_assert_eq!(a.cmp(&b), a.as_bytes().cmp(b.as_bytes()));
            prop_assert_eq!(a.partial_cmp(&b), Some(oracle::cmp(a, b)));
            prop_assert_eq!(a.cmp_distance(b, c), oracle::cmp_distance(a, b, c));
            prop_assert_eq!(
                b.closer_to(a, c),
                oracle::cmp_distance(a, b, c) == Ordering::Less
            );
            let tuple = |x: Id| (a.ring_distance(x), x);
            prop_assert_eq!(tuple(b), (oracle::ring_distance(a, b), b));
            prop_assert_eq!(tuple(b).cmp(&tuple(c)), oracle::cmp_distance(a, b, c));
            let measure = a.distance_keys();
            prop_assert_eq!(measure(b).cmp(&measure(c)), oracle::cmp_distance(a, b, c));
            prop_assert_eq!(measure(b).id(), b);
            // Plain and wrapping arcs (whichever of b, c is larger), and
            // the full arc `from == to`.
            prop_assert_eq!(a.between_cw(b, c), oracle::between_cw(a, b, c));
            prop_assert_eq!(a.between_cw(c, b), oracle::between_cw(a, c, b));
            prop_assert!(a.between_cw(b, b));
            prop_assert_eq!(b.between_cw(b, c), b == c);
            prop_assert!(c.between_cw(b, c));
            prop_assert_eq!(a.low_u64().to_be_bytes(), a.as_bytes()[12..]);
            prop_assert_eq!(Id::from_limbs(a.limbs()), a);
        }

        #[test]
        fn prop_equidistant_ties_match_the_byte_oracle(
            picks in (0usize..15, 0usize..15),
            key in any::<[u8; 20]>(), delta in any::<[u8; 20]>()
        ) {
            let (key, delta) = (seam(picks.0, key), seam(picks.1, delta));
            let below = oracle::wrapping_sub(key, delta);
            let above = oracle::wrapping_add(key, delta);
            prop_assert_eq!(key.ring_distance(below), key.ring_distance(above));
            prop_assert_eq!(
                key.cmp_distance(below, above),
                oracle::cmp_distance(key, below, above)
            );
            prop_assert_eq!(key.cmp_distance(below, above), below.cmp(&above));
            let measure = key.distance_keys();
            prop_assert_eq!(measure(below).cmp(&measure(above)), below.cmp(&above));
            prop_assert_eq!(
                key.cmp_distance(above, below),
                key.cmp_distance(below, above).reverse()
            );
        }

        #[test]
        fn prop_digits_match_the_byte_oracle(
            picks in (0usize..15, 0usize..15),
            a in any::<[u8; 20]>(), other in any::<[u8; 20]>(),
            b in 1u32..=8, index in any::<usize>(), value in any::<u8>()
        ) {
            let (a, other) = (seam(picks.0, a), seam(picks.1, other));
            let index = index % crate::digits_for(b);
            let value = value & ((1u16 << b) - 1) as u8;
            prop_assert_eq!(a.digit(index, b), oracle::digit(a, index, b));
            prop_assert_eq!(
                a.with_digit(index, b, value),
                oracle::with_digit(a, index, b, value)
            );
            prop_assert_eq!(
                a.shared_prefix_digits(other, b),
                oracle::shared_prefix_digits(a, other, b)
            );
            // Ids that agree up to some bit: the prefix ends mid-id.
            let near = a.flip_bit(index * b as usize);
            prop_assert_eq!(
                a.shared_prefix_digits(near, b),
                oracle::shared_prefix_digits(a, near, b)
            );
        }

        #[test]
        fn prop_digit_functions_never_panic(
            bytes in any::<[u8; 20]>(), b in 1u32..=8, index in any::<usize>()
        ) {
            let a = Id::from_bytes(bytes);
            let total = crate::digits_for(b);
            let index = index % (total + 1);
            let d = a.digit(index, b);
            prop_assert!(u32::from(d) < 1 << b);
            prop_assert_eq!(a.with_digit(index, b, d), a);
            prop_assert_eq!(a.shared_prefix_digits(a, b), total);
            if index == total {
                prop_assert_eq!(d, 0);
                prop_assert_eq!(a.with_digit(index, b, 1), a);
            }
        }
    }
}
