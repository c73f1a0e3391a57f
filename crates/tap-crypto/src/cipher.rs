//! Authenticated symmetric encryption — the `{m}_K` of the paper.
//!
//! A [`SymmetricKey`] is the `K` stored inside a tunnel hop anchor. Sealing
//! is ChaCha20 under a fresh random nonce with an HMAC-SHA-256 tag
//! (encrypt-then-MAC); the wire format is `nonce || ciphertext || tag`.
//! Opening verifies the tag before touching the ciphertext, so a tunnel hop
//! can reject tampered or mis-keyed layers instead of forwarding garbage.
//!
//! Keys are laid out as in RFC 8439 §2.6: `K` keys ChaCha20 directly, the
//! message body uses keystream blocks 1.., and block 0 under `(K, nonce)`
//! supplies the one-message MAC key. Per message that is one ChaCha20 block
//! and the two HMAC pad compressions before the first message byte.

use rand::Rng;

use crate::chacha20::{self, KEY_LEN, NONCE_LEN};
use crate::hmac::{derive_key, verify_tag, HmacKey};

/// Tag width (truncated HMAC-SHA-256; 16 bytes keeps per-layer overhead at
/// 28 bytes while leaving a 2^-128 forgery bound).
pub const TAG_LEN: usize = 16;
/// Total sealing overhead per layer: nonce plus tag.
pub const SEAL_OVERHEAD: usize = NONCE_LEN + TAG_LEN;

/// Errors from [`SymmetricKey::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CipherError {
    /// The buffer is shorter than `nonce || tag` can possibly be.
    TooShort,
    /// Authentication failed: wrong key or corrupted ciphertext.
    BadTag,
}

impl std::fmt::Display for CipherError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CipherError::TooShort => write!(f, "sealed message too short"),
            CipherError::BadTag => write!(f, "authentication tag mismatch"),
        }
    }
}

impl std::error::Error for CipherError {}

/// A 256-bit symmetric key (the `K` in a THA `<hopid, K, H(PW)>`).
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SymmetricKey([u8; KEY_LEN]);

impl std::fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material in logs.
        write!(f, "SymmetricKey(..)")
    }
}

impl SymmetricKey {
    /// Wrap existing key bytes.
    pub const fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        SymmetricKey(bytes)
    }

    /// Generate a fresh random key — the paper's "random bit-string as the
    /// symmetric key K" (§3.2).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut k = [0u8; KEY_LEN];
        rng.fill(&mut k[..]);
        SymmetricKey(k)
    }

    /// Derive a key from a shared secret (used after a DH exchange).
    pub fn derive(secret: &[u8], label: &str) -> Self {
        SymmetricKey(derive_key(secret, label, 0))
    }

    /// Raw key bytes.
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.0
    }

    /// The (cipher, MAC) keys for the message sealed under `nonce` — the
    /// RFC 8439 §2.6 layout with HMAC-SHA-256 where the RFC has Poly1305:
    /// `K` itself keys ChaCha20, and the first 32 bytes of keystream block
    /// 0 under `(K, nonce)` key the MAC, expanded to its two pad midstates.
    /// The body starts at block 1, so block 0 is never message keystream.
    /// One ChaCha20 block and two SHA-256 compressions; nothing is cached,
    /// a `SymmetricKey` stays its 32 bytes. Shared with the fused onion
    /// codec so both paths put the same bytes on the wire.
    pub(crate) fn subkeys(&self, nonce: &[u8; NONCE_LEN]) -> (&[u8; KEY_LEN], HmacKey) {
        let block0 = chacha20::block(&self.0, 0, nonce);
        (&self.0, HmacKey::new(&block0[..KEY_LEN]))
    }

    /// Encrypt and authenticate `plaintext` under a fresh nonce.
    pub fn seal<R: Rng + ?Sized>(&self, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
        let mut out = vec![0u8; plaintext.len() + SEAL_OVERHEAD];
        out[NONCE_LEN..NONCE_LEN + plaintext.len()].copy_from_slice(plaintext);
        self.seal_in_place(rng, &mut out);
        out
    }

    /// Seal in place: `buf` is `nonce slot (12) || plaintext || tag slot
    /// (16)`. The nonce slot is filled from `rng`, the plaintext region is
    /// encrypted where it lies, and the tag slot is overwritten — no
    /// allocation. After the call `buf` holds exactly the bytes
    /// [`SymmetricKey::seal`] would have produced for the same plaintext
    /// and RNG position (one 12-byte `rng.fill` either way).
    pub fn seal_in_place<R: Rng + ?Sized>(&self, rng: &mut R, buf: &mut [u8]) {
        assert!(
            buf.len() >= SEAL_OVERHEAD,
            "seal_in_place needs room for nonce and tag"
        );
        let body_end = buf.len() - TAG_LEN;
        rng.fill(&mut buf[..NONCE_LEN]);
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&buf[..NONCE_LEN]);
        let (enc_key, mac_key) = self.subkeys(&nonce);
        chacha20::apply_keystream(enc_key, &nonce, 1, &mut buf[NONCE_LEN..body_end]);
        let mut mac = mac_key.begin();
        mac.update(&buf[..body_end]);
        buf[body_end..].copy_from_slice(&mac.finalize()[..TAG_LEN]);
    }

    /// Verify and decrypt a message produced by [`SymmetricKey::seal`].
    pub fn open(&self, sealed: &[u8]) -> Result<Vec<u8>, CipherError> {
        let mut buf = sealed.to_vec();
        let range = self.open_in_place(&mut buf)?;
        buf.truncate(range.end);
        buf.drain(..range.start);
        Ok(buf)
    }

    /// Verify and decrypt in place: on success the plaintext sits at the
    /// returned range of `sealed` (between the nonce and the tag) and the
    /// only cipher pass is the in-place decrypt — no copies. On failure the
    /// buffer is untouched (the tag is checked before anything is written).
    pub fn open_in_place(&self, sealed: &mut [u8]) -> Result<std::ops::Range<usize>, CipherError> {
        if sealed.len() < SEAL_OVERHEAD {
            return Err(CipherError::TooShort);
        }
        let body_end = sealed.len() - TAG_LEN;
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&sealed[..NONCE_LEN]);
        let (enc_key, mac_key) = self.subkeys(&nonce);
        let mut mac = mac_key.begin();
        mac.update(&sealed[..body_end]);
        if !verify_tag(&sealed[body_end..], &mac.finalize()[..TAG_LEN]) {
            return Err(CipherError::BadTag);
        }
        chacha20::apply_keystream(enc_key, &nonce, 1, &mut sealed[NONCE_LEN..body_end]);
        Ok(NONCE_LEN..body_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn key(seed: u64) -> (SymmetricKey, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        (SymmetricKey::generate(&mut rng), rng)
    }

    #[test]
    fn roundtrip() {
        let (k, mut rng) = key(1);
        let msg = b"attack at dawn";
        let sealed = k.seal(&mut rng, msg);
        assert_eq!(sealed.len(), msg.len() + SEAL_OVERHEAD);
        assert_eq!(k.open(&sealed).unwrap(), msg);
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let (k, mut rng) = key(2);
        let sealed = k.seal(&mut rng, b"");
        assert_eq!(k.open(&sealed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn wrong_key_rejected() {
        let (k1, mut rng) = key(3);
        let (k2, _) = key(4);
        let sealed = k1.seal(&mut rng, b"secret");
        assert_eq!(k2.open(&sealed), Err(CipherError::BadTag));
    }

    #[test]
    fn tamper_any_byte_rejected() {
        let (k, mut rng) = key(5);
        let sealed = k.seal(&mut rng, b"hello world");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x40;
            assert_eq!(k.open(&bad), Err(CipherError::BadTag), "byte {i}");
        }
    }

    // The nonce selects the MAC key as well as the keystream, so a changed
    // nonce must fail authentication, never decrypt to garbage.
    #[test]
    fn any_nonce_bit_flip_is_a_bad_tag() {
        let (k, mut rng) = key(11);
        let sealed = k.seal(&mut rng, b"nonce-bound");
        for bit in 0..NONCE_LEN * 8 {
            let mut bad = sealed.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(k.open(&bad), Err(CipherError::BadTag), "nonce bit {bit}");
        }
    }

    #[test]
    fn mac_key_block_is_never_body_keystream() {
        let (k, mut rng) = key(12);
        // Sealing zeros exposes the body keystream as the ciphertext.
        let sealed = k.seal(&mut rng, &[0u8; 16 * chacha20::BLOCK_LEN]);
        let nonce: [u8; NONCE_LEN] = sealed[..NONCE_LEN].try_into().unwrap();
        let block0 = chacha20::block(k.as_bytes(), 0, &nonce);
        let body = &sealed[NONCE_LEN..sealed.len() - TAG_LEN];
        assert_eq!(
            body[..chacha20::BLOCK_LEN],
            chacha20::block(k.as_bytes(), 1, &nonce),
            "the body starts at counter 1"
        );
        for (i, ks) in body.chunks_exact(chacha20::BLOCK_LEN).enumerate() {
            assert_ne!(ks, block0, "body block {i} repeats the MAC-key block");
            assert_ne!(ks[..KEY_LEN], block0[..KEY_LEN], "body block {i}");
        }
    }

    #[test]
    fn tag_is_hmac_under_the_first_half_of_block_zero() {
        let (k, mut rng) = key(13);
        let sealed = k.seal(&mut rng, b"documented construction");
        let nonce: [u8; NONCE_LEN] = sealed[..NONCE_LEN].try_into().unwrap();
        let block0 = chacha20::block(k.as_bytes(), 0, &nonce);
        let (body, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        assert_eq!(
            tag,
            &crate::hmac::hmac_sha256(&block0[..KEY_LEN], body)[..TAG_LEN]
        );
    }

    #[test]
    fn symmetric_key_is_its_32_bytes() {
        // No cached schedule rides along: 25 000 standing THAs hold one each.
        assert_eq!(std::mem::size_of::<SymmetricKey>(), KEY_LEN);
    }

    #[test]
    fn truncation_rejected() {
        let (k, mut rng) = key(6);
        let sealed = k.seal(&mut rng, b"hello");
        assert_eq!(
            k.open(&sealed[..SEAL_OVERHEAD - 1]),
            Err(CipherError::TooShort)
        );
        assert_eq!(
            k.open(&sealed[..sealed.len() - 1]),
            Err(CipherError::BadTag)
        );
    }

    #[test]
    fn nonces_randomize_ciphertexts() {
        let (k, mut rng) = key(7);
        let a = k.seal(&mut rng, b"same message");
        let b = k.seal(&mut rng, b"same message");
        assert_ne!(a, b, "sealing twice must not repeat ciphertext");
        assert_eq!(k.open(&a).unwrap(), k.open(&b).unwrap());
    }

    #[test]
    fn derive_is_deterministic_and_label_separated() {
        let a = SymmetricKey::derive(b"shared", "fwd");
        let b = SymmetricKey::derive(b"shared", "fwd");
        let c = SymmetricKey::derive(b"shared", "rev");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn in_place_seal_matches_allocating_seal() {
        let (k, mut rng) = key(8);
        let msg = b"same bytes either way";
        // Two RNG clones at the same position must produce identical
        // ciphertext through both APIs.
        let mut rng2 = rng.clone();
        let sealed = k.seal(&mut rng, msg);
        let mut buf = vec![0u8; msg.len() + SEAL_OVERHEAD];
        buf[NONCE_LEN..NONCE_LEN + msg.len()].copy_from_slice(msg);
        k.seal_in_place(&mut rng2, &mut buf);
        assert_eq!(buf, sealed);
    }

    #[test]
    fn in_place_open_decrypts_between_nonce_and_tag() {
        let (k, mut rng) = key(9);
        let msg = b"peel me where I stand";
        let mut sealed = k.seal(&mut rng, msg);
        let range = k.open_in_place(&mut sealed).unwrap();
        assert_eq!(range, NONCE_LEN..NONCE_LEN + msg.len());
        assert_eq!(&sealed[range], msg);
    }

    #[test]
    fn in_place_open_leaves_buffer_untouched_on_bad_tag() {
        let (k, mut rng) = key(10);
        let mut sealed = k.seal(&mut rng, b"tamper target");
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        let before = sealed.clone();
        assert_eq!(k.open_in_place(&mut sealed), Err(CipherError::BadTag));
        assert_eq!(sealed, before, "failed open must not scribble");
        let mut short = sealed[..SEAL_OVERHEAD - 1].to_vec();
        assert_eq!(k.open_in_place(&mut short), Err(CipherError::TooShort));
    }

    proptest! {
        #[test]
        fn prop_seal_open_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512), seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = SymmetricKey::generate(&mut rng);
            let sealed = k.seal(&mut rng, &data);
            prop_assert_eq!(k.open(&sealed).unwrap(), data);
        }

        #[test]
        fn prop_in_place_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512), seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = SymmetricKey::generate(&mut rng);
            let mut buf = vec![0u8; data.len() + SEAL_OVERHEAD];
            buf[NONCE_LEN..NONCE_LEN + data.len()].copy_from_slice(&data);
            k.seal_in_place(&mut rng, &mut buf);
            let range = k.open_in_place(&mut buf).unwrap();
            prop_assert_eq!(&buf[range], &data[..]);
        }
    }
}
