//! # tap-crypto — the cryptographic substrate for TAP
//!
//! TAP (Zhu & Hu, ICPP 2004) assumes a handful of cryptographic facilities
//! without depending on any particular algorithm:
//!
//! * a uniform collision-resistant hash `H` for deriving hop identifiers
//!   (`hopid = H(node_ID, hkey, t)`, §3.2) and for password commitments
//!   (`H(PW)` inside a tunnel hop anchor, §3.1);
//! * a symmetric cipher for the mix-style layered encryption `{m}_K` that
//!   every tunnel hop peels or adds (Fig. 1, §2);
//! * per-node public/private keypairs ("relying on a public key
//!   infrastructure", §3.3) so a node can bootstrap its first tunnel with
//!   Onion Routing;
//! * a defence against THA flooding — the paper suggests "a CPU-based
//!   payment system that forces the node to solve some puzzles" (§3.3).
//!
//! This crate implements all four **from scratch** (no external crypto
//! dependencies), each validated against published test vectors:
//!
//! | need | implementation | vectors |
//! |------|----------------|---------|
//! | `H` | [`sha1`] (Pastry's id width) and [`sha256`] | FIPS 180-4 |
//! | KDF / commitments | [`hmac`] (HMAC-SHA-256) | RFC 4231 |
//! | `{m}_K` | [`chacha20`] + [`poly1305`] as [`cipher::SymmetricKey`]'s seal: AEAD_CHACHA20_POLY1305, empty AAD | RFC 8439 |
//! | keypairs | [`x25519`] Diffie–Hellman + [`pki`] sealed boxes | RFC 7748 |
//! | puzzles | [`puzzle`] hashcash-style partial preimage | self-checking |
//!
//! [`onion`] builds the layered (onion) encoding used by both TAP tunnels
//! and the Onion-Routing bootstrap path on top of [`cipher`]. [`ec`] adds a
//! zero-dependency GF(2^8) Reed–Solomon codec so `tap-core` can stripe one
//! transfer across `n` parallel tunnels and reconstruct from any `k`
//! fragments (erasure-coded multipath transfer).
//!
//! Everything here is deterministic given an RNG, `#![forbid(unsafe_code)]`,
//! and allocation-conscious: the per-hop operation on the tunnel hot path is
//! exactly one ChaCha20 pass plus one Poly1305, matching the paper's note that
//! "each tunnel hop performs only a single symmetric key operation per
//! message" (§4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chacha20;
pub mod cipher;
pub mod ec;
pub mod hmac;
pub mod onion;
pub mod pki;
pub mod poly1305;
pub mod puzzle;
pub mod sha1;
pub mod sha256;
pub mod x25519;

pub use cipher::{CipherError, SymmetricKey};
pub use pki::{KeyPair, PublicKey, SealedBox};
pub use puzzle::{Puzzle, PuzzleSolution};

use tap_id::Id;

/// Derive a 160-bit identifier by hashing the concatenation of `parts`.
///
/// This is the paper's `H(node_ID, hkey, t)` construction (§3.2): each part
/// is length-prefixed before hashing so that distinct part boundaries can
/// never collide ("12"+"3" vs "1"+"23").
pub fn derive_id(parts: &[&[u8]]) -> Id {
    let mut h = sha1::Sha1::new();
    frame(&mut h, parts);
    Id::from_bytes(h.finalize())
}

/// Feed `parts` to `h` the way [`derive_id`] frames them, each part
/// length-prefixed. A caller deriving many ids that share their first
/// parts frames those once and clones the hasher per id.
pub fn frame(h: &mut sha1::Sha1, parts: &[&[u8]]) {
    for p in parts {
        h.update(&(p.len() as u64).to_be_bytes());
        h.update(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hex test vectors as bytes; whitespace between digits is ignored.
    pub(crate) fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn derive_id_respects_boundaries() {
        let a = derive_id(&[b"12", b"3"]);
        let b = derive_id(&[b"1", b"23"]);
        assert_ne!(a, b, "length prefixing must separate part boundaries");
        assert_eq!(a, derive_id(&[b"12", b"3"]), "deterministic");
    }

    #[test]
    fn derive_id_is_sha1_of_framed_input() {
        let id = derive_id(&[b"abc"]);
        let mut h = sha1::Sha1::new();
        h.update(&3u64.to_be_bytes());
        h.update(b"abc");
        assert_eq!(*id.as_bytes(), h.finalize());
    }
}
