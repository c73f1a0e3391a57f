//! Authenticated symmetric encryption — the `{m}_K` of the paper.
//!
//! A [`SymmetricKey`] is the `K` stored inside a tunnel hop anchor. Sealing
//! is AEAD_CHACHA20_POLY1305 (RFC 8439 §2.8) under a fresh random nonce and
//! with empty associated data; the wire format is `nonce || ciphertext ||
//! tag`. Opening verifies the tag before touching the ciphertext, so a
//! tunnel hop can reject tampered or mis-keyed layers instead of forwarding
//! garbage.
//!
//! `K` keys ChaCha20 directly, the message body uses keystream blocks 1..,
//! and the first half of block 0 under `(K, nonce)` is the one-time Poly1305
//! key (§2.6). Block 0 is a lane of the body's first kernel pass, not a
//! pass of its own (DESIGN.md §6h, "Cross-layer lanes"). The nonce is
//! authenticated through that key, not as MAC input. Because the MAC key
//! is one-time, a repeated `(K, nonce)` would cost forgeability on top of
//! the two-time pad — nonces are 96 random bits per message, so keep the
//! messages sealed under one `K` below 2^32 (DESIGN.md §3).

use rand::Rng;

use crate::chacha20::{KeystreamCursor, BLOCK_LEN, KEY_LEN, LANES, NONCE_LEN};
use crate::hmac::{derive_key, verify_tag};
use crate::poly1305::{self, Poly1305};

/// Tag width (Poly1305's; with the nonce, 28 bytes of overhead per layer).
pub const TAG_LEN: usize = poly1305::TAG_LEN;
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

    /// Point `cursor` at the keystream of a `body_len`-byte message sealed
    /// under `nonce` and return the message's keyed MAC (RFC 8439 §2.6):
    /// `K` itself keys ChaCha20, the first 32 bytes of block 0 key
    /// Poly1305, and the cursor is left at the body's first byte (counter
    /// 1), so block 0 is never message keystream. Block 0 and the body's
    /// first blocks come out of one kernel pass ([`first_window`]);
    /// nothing is cached, a `SymmetricKey` stays its 32 bytes.
    #[inline]
    pub(crate) fn stream(
        &self,
        nonce: &[u8; NONCE_LEN],
        body_len: usize,
        cursor: &mut KeystreamCursor,
    ) -> Poly1305 {
        cursor.restart(&self.0, nonce, 0);
        KeystreamCursor::fill_windows(std::slice::from_mut(cursor), |_| first_window(body_len));
        one_time_mac(cursor)
    }

    /// Encrypt and authenticate `plaintext` under a fresh nonce.
    pub fn seal<R: Rng + ?Sized>(&self, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + SEAL_OVERHEAD);
        out.extend_from_slice(&[0; NONCE_LEN]);
        out.extend_from_slice(plaintext);
        out.extend_from_slice(&[0; TAG_LEN]);
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
        let body = &mut buf[NONCE_LEN..body_end];
        let mut cursor = KeystreamCursor::new(&self.0, &nonce, 0);
        let mut mac = self.stream(&nonce, body.len(), &mut cursor);
        cursor.xor_into(body);
        mac.update(body);
        let tag = aead_tag(&mut mac, 0, body.len());
        buf[body_end..].copy_from_slice(&tag);
    }

    /// Verify and decrypt a message produced by [`SymmetricKey::seal`].
    pub fn open(&self, sealed: &[u8]) -> Result<Vec<u8>, CipherError> {
        let mut cursor = KeystreamCursor::new(&self.0, &[0; NONCE_LEN], 0);
        let body = self.verify(sealed, &mut cursor)?;
        let mut out = sealed[body].to_vec();
        cursor.xor_into(&mut out);
        Ok(out)
    }

    /// Verify and decrypt in place: on success the plaintext sits at the
    /// returned range of `sealed` (between the nonce and the tag) and the
    /// only cipher pass is the in-place decrypt — no copies. On failure the
    /// buffer is untouched (the tag is checked before anything is written).
    pub fn open_in_place(&self, sealed: &mut [u8]) -> Result<std::ops::Range<usize>, CipherError> {
        let mut cursor = KeystreamCursor::new(&self.0, &[0; NONCE_LEN], 0);
        let body = self.verify(sealed, &mut cursor)?;
        cursor.xor_into(&mut sealed[body.clone()]);
        Ok(body)
    }

    /// Check `sealed`'s tag; on success, where its ciphertext lies, with
    /// `cursor` at the keystream of its first byte (the window computed
    /// with the MAC key, not yet applied).
    #[inline]
    fn verify(
        &self,
        sealed: &[u8],
        cursor: &mut KeystreamCursor,
    ) -> Result<std::ops::Range<usize>, CipherError> {
        if sealed.len() < SEAL_OVERHEAD {
            return Err(CipherError::TooShort);
        }
        let body = NONCE_LEN..sealed.len() - TAG_LEN;
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&sealed[..NONCE_LEN]);
        let mut mac = self.stream(&nonce, body.len(), cursor);
        mac.update(&sealed[body.clone()]);
        let tag = aead_tag(&mut mac, 0, body.len());
        if !verify_tag(&sealed[body.end..], &tag) {
            return Err(CipherError::BadTag);
        }
        Ok(body)
    }
}

/// Keystream blocks to compute with a `body_len`-byte message's MAC key:
/// block 0 and the body's blocks while a window holds them all (15 or
/// fewer); for a longer body, as many whole blocks as leave the rest
/// whole 16-block passes, so no pass comes up short for the window's sake.
pub(crate) fn first_window(body_len: usize) -> usize {
    let blocks = body_len.div_ceil(BLOCK_LEN);
    1 + if blocks < LANES {
        blocks
    } else {
        body_len / BLOCK_LEN % LANES
    }
}

/// Poly1305 keyed by the first half of the next keystream block — block 0
/// for a cursor at counter 0, which it leaves at counter 1.
pub(crate) fn one_time_mac(cursor: &mut KeystreamCursor) -> Poly1305 {
    let mut block0 = [0u8; BLOCK_LEN];
    cursor.xor_into(&mut block0);
    let mut otk = [0u8; poly1305::KEY_LEN];
    otk.copy_from_slice(&block0[..poly1305::KEY_LEN]);
    Poly1305::new(&otk)
}

/// Finish the RFC 8439 §2.8 MAC input `aad ‖ pad16 ‖ ct ‖ pad16 ‖
/// le64(|aad|) ‖ le64(|ct|)` on a `mac` that has absorbed `aad ‖ pad16 ‖
/// ct` — with this crate's empty AAD, just `ct`, in any fragmentation — and
/// return the tag. `pad16` is zeros up to the next multiple of 16.
pub(crate) fn aead_tag(mac: &mut Poly1305, aad_len: usize, ct_len: usize) -> [u8; TAG_LEN] {
    mac.update(&[0u8; 16][..ct_len.wrapping_neg() % 16]);
    mac.update(&(aad_len as u64).to_le_bytes());
    mac.update(&(ct_len as u64).to_le_bytes());
    mac.tag()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chacha20;
    use crate::poly1305::tests::poly1305_reference;
    use crate::tests::unhex;
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
    fn seal_is_rfc8439_aead_with_empty_aad() {
        // The oracle first earns its keep on RFC 8439 §2.5.2.
        assert_eq!(
            poly1305_reference(
                &unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"),
                b"Cryptographic Forum Research Group"
            )[..],
            unhex("a8061dc1305136c6c22b8baf0c0127a9")
        );
        let (k, mut rng) = key(13);
        for msg in [
            &b""[..],
            b"documented construction",
            &[0x5A; 16],
            &[0xC3; 300],
        ] {
            let sealed = k.seal(&mut rng, msg);
            let nonce: [u8; NONCE_LEN] = sealed[..NONCE_LEN].try_into().unwrap();
            let (ct, tag) = sealed[NONCE_LEN..].split_at(msg.len());
            let mut expect_ct = msg.to_vec();
            chacha20::apply_keystream(k.as_bytes(), &nonce, 1, &mut expect_ct);
            assert_eq!(ct, expect_ct);
            // §2.8 MAC input, no AAD: ct ‖ pad16 ‖ le64(0) ‖ le64(|ct|).
            let mut mac_input = ct.to_vec();
            mac_input.resize(ct.len().next_multiple_of(16), 0);
            mac_input.extend_from_slice(&0u64.to_le_bytes());
            mac_input.extend_from_slice(&(ct.len() as u64).to_le_bytes());
            let block0 = chacha20::block(k.as_bytes(), 0, &nonce);
            assert_eq!(tag, poly1305_reference(&block0[..KEY_LEN], &mac_input));
        }
    }

    /// The §2.8 tag with associated data, from this module's own parts:
    /// `stream` keys the MAC and `aead_tag` closes it.
    fn tag_with_aad(key: &[u8], nonce: &[u8], aad: &[u8], ct: &[u8]) -> Vec<u8> {
        let key = SymmetricKey::from_bytes(key.try_into().unwrap());
        let nonce = nonce.try_into().unwrap();
        let mut cursor = KeystreamCursor::new(key.as_bytes(), nonce, 0);
        let mut mac = key.stream(nonce, ct.len(), &mut cursor);
        mac.update(aad);
        mac.update(&[0u8; 16][..aad.len().wrapping_neg() % 16]);
        mac.update(ct);
        aead_tag(&mut mac, aad.len(), ct.len()).to_vec()
    }

    // RFC 8439 §2.6.2: the Poly1305 key is the first half of block 0.
    #[test]
    fn rfc8439_section_2_6_2_key_generation_is_stream() {
        let key: [u8; KEY_LEN] = core::array::from_fn(|i| 0x80 + i as u8);
        let nonce: [u8; NONCE_LEN] = unhex("000000000001020304050607").try_into().unwrap();
        let otk = unhex("8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646");
        let k = SymmetricKey::from_bytes(key);
        let mut cursor = KeystreamCursor::new(&key, &nonce, 0);
        let mut mac = k.stream(&nonce, 3 * BLOCK_LEN, &mut cursor);
        let mut body = [0u8; 3 * BLOCK_LEN];
        cursor.xor_into(&mut body);
        let mut expect_body = [0u8; 3 * BLOCK_LEN];
        chacha20::apply_keystream(&key, &nonce, 1, &mut expect_body);
        assert_eq!(body, expect_body, "K keys the body from counter 1");
        let mut expect = Poly1305::new(otk[..].try_into().unwrap());
        for m in [&mut mac, &mut expect] {
            m.update(b"both halves of the key, r and s, show in a tag");
        }
        assert_eq!(mac.tag(), expect.tag());
    }

    // RFC 8439 §2.8.2: the AEAD example, associated data included.
    #[test]
    fn rfc8439_section_2_8_2_aead() {
        let key: [u8; KEY_LEN] = core::array::from_fn(|i| 0x80 + i as u8);
        let nonce = unhex("070000004041424344454647");
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let mut text = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it."
            .to_vec();
        chacha20::apply_keystream(&key, nonce[..].try_into().unwrap(), 1, &mut text);
        assert_eq!(
            text,
            unhex(
                "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6
                 3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36
                 92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc
                 3ff4def08e4b7a9de576d26586cec64b6116"
            )
        );
        assert_eq!(
            tag_with_aad(&key, &nonce, &aad, &text),
            unhex("1ae10b594f09e26a7e902ecbd0600691")
        );
    }

    // RFC 8439 A.5: the decryption example.
    #[test]
    fn rfc8439_appendix_a5_aead_decryption() {
        let key = unhex("1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0");
        let nonce = unhex("000000000102030405060708");
        let aad = unhex("f33388860000000000004e91");
        let mut text = unhex(
            "64a0861575861af460f062c79be643bd5e805cfd345cf389f108670ac76c8cb2
             4c6cfc18755d43eea09ee94e382d26b0bdb7b73c321b0100d4f03b7f355894cf
             332f830e710b97ce98c8a84abd0b948114ad176e008d33bd60f982b1ff37c855
             9797a06ef4f0ef61c186324e2b3506383606907b6a7c02b0f9f6157b53c867e4
             b9166c767b804d46a59b5216cde7a4e99040c5a40433225ee282a1b0a06c523e
             af4534d7f83fa1155b0047718cbc546a0d072b04b3564eea1b422273f548271a
             0bb2316053fa76991955ebd63159434ecebb4e466dae5a1073a6727627097a10
             49e617d91d361094fa68f0ff77987130305beaba2eda04df997b714d6c6f2c29
             a6ad5cb4022b02709b",
        );
        assert_eq!(
            tag_with_aad(&key, &nonce, &aad, &text),
            unhex("eead9d67890cbb22392336fea1851f38")
        );
        chacha20::apply_keystream(
            key[..].try_into().unwrap(),
            nonce[..].try_into().unwrap(),
            1,
            &mut text,
        );
        assert_eq!(
            String::from_utf8(text).unwrap(),
            "Internet-Drafts are draft documents valid for a maximum of six months and may be \
updated, replaced, or obsoleted by other documents at any time. It is inappropriate to use \
Internet-Drafts as reference material or to cite them other than as /\u{201c}work in \
progress./\u{201d}"
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

    /// Body lengths at the window's edges: empty, one byte, one block ± 1,
    /// the 15 body blocks a first window holds ± 1 and the 16 of a full
    /// pass ± 1; `pick` past the table takes `random` (up to 8 KiB).
    pub(crate) fn edge_or_random(pick: usize, random: usize) -> usize {
        const EDGES: [usize; 11] = [0, 1, 63, 64, 65, 959, 960, 961, 1023, 1024, 1025];
        EDGES.get(pick).copied().unwrap_or(random)
    }

    /// `seal_in_place` and `open_in_place` against the RFC 8439 steps
    /// spelled out: the MAC key from `block(K, 0, nonce)`, the body XORed
    /// one `block` at a time from counter 1, the §2.8 tag from the 26-bit
    /// Poly1305 oracle; then a flipped tag bit is `BadTag` and leaves the
    /// buffer as it was.
    fn aead_is_the_rfc_steps(len: usize, seed: u64, flip: usize) -> Result<(), TestCaseError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = SymmetricKey::generate(&mut rng);
        let plain: Vec<u8> = (0..len).map(|i| ((i as u64 * 131) ^ seed) as u8).collect();
        let mut sealed = vec![0u8; len + SEAL_OVERHEAD];
        sealed[NONCE_LEN..NONCE_LEN + len].copy_from_slice(&plain);
        k.seal_in_place(&mut rng, &mut sealed);

        let nonce: [u8; NONCE_LEN] = sealed[..NONCE_LEN].try_into().unwrap();
        let mut ct = plain.clone();
        for (i, chunk) in ct.chunks_mut(BLOCK_LEN).enumerate() {
            let ks = chacha20::block(k.as_bytes(), 1 + i as u32, &nonce);
            chunk.iter_mut().zip(ks).for_each(|(b, k)| *b ^= k);
        }
        let mut mac_input = ct.clone();
        mac_input.resize(len.next_multiple_of(16), 0);
        mac_input.extend_from_slice(&0u64.to_le_bytes());
        mac_input.extend_from_slice(&(len as u64).to_le_bytes());
        let block0 = chacha20::block(k.as_bytes(), 0, &nonce);
        prop_assert_eq!(&sealed[NONCE_LEN..NONCE_LEN + len], &ct[..]);
        prop_assert_eq!(
            &sealed[NONCE_LEN + len..],
            &poly1305_reference(&block0[..KEY_LEN], &mac_input)[..]
        );

        let mut tampered = sealed.clone();
        tampered[NONCE_LEN + len + flip / 8 % TAG_LEN] ^= 1 << (flip % 8);
        let before = tampered.clone();
        prop_assert_eq!(k.open_in_place(&mut tampered), Err(CipherError::BadTag));
        prop_assert_eq!(&tampered, &before);

        let body = k.open_in_place(&mut sealed).unwrap();
        prop_assert_eq!(&sealed[body], &plain[..]);
        Ok(())
    }

    proptest! {
        #[test]
        fn prop_aead_is_the_rfc_steps(
            pick in 0usize..16,
            random in 0usize..=8192,
            seed in any::<u64>(),
            flip in any::<usize>(),
        ) {
            aead_is_the_rfc_steps(edge_or_random(pick, random), seed, flip)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10_000))]
        /// The same differential at CI scale (release, `--ignored`).
        #[test]
        #[ignore]
        fn prop_aead_is_the_rfc_steps_10000_cases(
            pick in 0usize..16,
            random in 0usize..=8192,
            seed in any::<u64>(),
            flip in any::<usize>(),
        ) {
            aead_is_the_rfc_steps(edge_or_random(pick, random), seed, flip)?;
        }
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
