//! # tap-id — the 160-bit circular identifier space
//!
//! Structured P2P overlays in the Pastry family assign every node and every
//! stored object a fixed-width identifier drawn uniformly from a circular
//! space. TAP (Zhu & Hu, ICPP 2004) additionally names *tunnel hops* in the
//! same space: a `hopid` is just an identifier, and the "tunnel hop node"
//! for a hop is the live node whose nodeid is numerically closest to it.
//!
//! This crate provides that identifier space:
//!
//! * [`Id`] — a 160-bit unsigned integer (the width of SHA-1 output, as used
//!   by Pastry/PAST and by TAP's `hopid = H(node_ID, hkey, t)` construction),
//!   with full wrapping ring arithmetic.
//! * Distance metrics: [`Id::ring_distance`] (minimal circular distance, the
//!   "numerically closest" relation Pastry's leaf set uses) and the directed
//!   clockwise/counter-clockwise distances.
//! * Digit / prefix arithmetic for prefix routing: [`Id::digit`],
//!   [`Id::shared_prefix_digits`], [`Id::with_digit`] for any digit width `b`.
//! * [`Ring`] — the ordered id set replica placement and hop lookup walk.
//!
//! ## Storage and compute representation
//!
//! An [`Id`] is *stored* as twenty big-endian bytes: `Copy`, 20 bytes,
//! alignment 1. `Eq` and `Hash` are derived from that array, so
//! [`Id::as_bytes`], every wire format, the [`IdHasher`] fold and with it
//! the iteration order of every [`IdHashMap`] are properties of the bytes
//! alone. It is *computed on* as a `(u32, u128)` limb pair — the top 32
//! bits and the low 128 — loaded from the bytes with `from_be_bytes`, never
//! in host order, so every host computes the same. Add and subtract are one
//! carry chain; `Ord`, the distances, [`Id::cmp_distance`] and
//! [`Id::between_cw`] compare limb tuples (tuple order is numeric order,
//! which is the bytes' lexicographic order); a shared prefix is
//! `leading_zeros` of the XOR and a digit is a shift and a mask. Identifier
//! arithmetic sits under every routing step, leaf-set scan and [`Ring`]
//! search, so all of it is `#[inline]` and none of it allocates. The
//! byte-at-a-time arithmetic the crate started with survives as the test
//! oracle the limb code is checked against.
//!
//! The digit functions are total in the digit index: a digit that starts at
//! or past bit 160 (`index >= digits_for(b)`) is all zero padding, so
//! [`Id::digit`] reads 0 and [`Id::with_digit`] changes nothing. A Pastry
//! routing table relies on this — asked for its owner's next hop it looks
//! up row `digits_for(b)`, which no table has.
//!
//! ## Example
//!
//! ```
//! use tap_id::Id;
//!
//! let a = Id::from_u64(0x1234);
//! let b = Id::from_u64(0x1239);
//! assert_eq!(a.ring_distance(b), Id::from_u64(5));
//!
//! // 160 bits = 40 hex digits when b = 4.
//! assert_eq!(a.digit(39, 4), 0x4);
//! assert_eq!(a.shared_prefix_digits(b, 4), 39);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hash;
mod id;
mod range;
mod ring;

pub use hash::{BuildIdHasher, IdHashMap, IdHashSet, IdHasher};
pub use id::{DistanceKey, Id, IdParseError, ID_BITS, ID_BYTES};
pub use range::{first_digit_buckets, ArcRange};
pub use ring::Ring;

/// Number of digits an [`Id`] has for a given digit width `b` (bits/digit).
///
/// Pastry writes identifiers as a sequence of base-`2^b` digits; with the
/// customary `b = 4` a 160-bit id has 40 hexadecimal digits.
#[inline]
pub const fn digits_for(b: u32) -> usize {
    (ID_BITS as usize).div_ceil(b as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_for_common_bases() {
        assert_eq!(digits_for(1), 160);
        assert_eq!(digits_for(2), 80);
        assert_eq!(digits_for(4), 40);
        assert_eq!(digits_for(8), 20);
        // Non-dividing width rounds up.
        assert_eq!(digits_for(3), 54);
    }
}
