//! Tier-1 mirror of the `tap-crypto` AEAD pins: `cargo test -q` runs the root
//! package only, so the construction every onion layer and every retrieved
//! file is sealed with — AEAD_CHACHA20_POLY1305 (RFC 8439) with empty
//! associated data, as `nonce ‖ ct ‖ tag` — is checked here through public
//! items alone. The full vector set (A.3 #1–#11, §2.6.2, §2.8.2, A.5) and the
//! proptests live in the crate.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tap::crypto::chacha20::{self, NONCE_LEN};
use tap::crypto::cipher::{CipherError, SymmetricKey, SEAL_OVERHEAD, TAG_LEN};
use tap::crypto::poly1305::Poly1305;

fn poly1305(key: [u8; 32], msg: &[u8]) -> [u8; 16] {
    let mut mac = Poly1305::new(&key);
    mac.update(msg);
    mac.tag()
}

#[test]
fn poly1305_matches_rfc8439_vectors() {
    // §2.5.2.
    let key = [
        0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5, 0x06,
        0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf, 0x41, 0x49,
        0xf5, 0x1b,
    ];
    assert_eq!(
        poly1305(key, b"Cryptographic Forum Research Group"),
        [
            0xa8, 0x06, 0x1d, 0xc1, 0x30, 0x51, 0x36, 0xc6, 0xc2, 0x2b, 0x8b, 0xaf, 0x0c, 0x01,
            0x27, 0xa9
        ]
    );
    // A.3 #7: r = 1, and the three blocks sum past 2^130 − 5, so the tag is
    // right only if the carry out of the top limb wraps times 5.
    let mut key = [0u8; 32];
    key[0] = 1;
    let mut msg = [0xffu8; 48];
    msg[16] = 0xf0;
    msg[32..].fill(0);
    msg[32] = 0x11;
    let mut tag = [0u8; 16];
    tag[0] = 5;
    assert_eq!(poly1305(key, &msg), tag);
}

#[test]
fn seal_is_the_rfc8439_aead_with_empty_associated_data() {
    let mut rng = StdRng::seed_from_u64(16);
    let k = SymmetricKey::generate(&mut rng);
    let msg = b"one construction, the RFC's";
    let sealed = k.seal(&mut rng, msg);
    assert_eq!(sealed.len(), msg.len() + SEAL_OVERHEAD);
    let nonce: [u8; NONCE_LEN] = sealed[..NONCE_LEN].try_into().unwrap();
    let (ct, tag) = sealed[NONCE_LEN..].split_at(msg.len());

    // Body: ChaCha20 under K itself from block 1.
    let mut body = msg.to_vec();
    chacha20::apply_keystream(k.as_bytes(), &nonce, 1, &mut body);
    assert_eq!(ct, body);
    // Tag: Poly1305 under the first half of block 0 (§2.6) over
    // ct ‖ pad16 ‖ le64(|aad| = 0) ‖ le64(|ct|) (§2.8).
    let block0 = chacha20::block(k.as_bytes(), 0, &nonce);
    let mut mac = Poly1305::new(block0[..32].try_into().unwrap());
    mac.update(ct);
    mac.update(&[0u8; 16][..ct.len().next_multiple_of(16) - ct.len()]);
    mac.update(&0u64.to_le_bytes());
    mac.update(&(ct.len() as u64).to_le_bytes());
    assert_eq!(tag, mac.tag());
    assert_eq!(tag.len(), TAG_LEN);

    assert_eq!(k.open(&sealed).unwrap(), msg);
}

#[test]
fn any_tampered_byte_is_a_bad_tag_and_leaves_the_buffer_alone() {
    let mut rng = StdRng::seed_from_u64(17);
    let k = SymmetricKey::generate(&mut rng);
    let sealed = k.seal(&mut rng, b"nonce, body and tag are all bound");
    for i in 0..sealed.len() {
        let mut bad = sealed.clone();
        bad[i] ^= 0x40;
        let before = bad.clone();
        assert_eq!(k.open_in_place(&mut bad), Err(CipherError::BadTag), "{i}");
        assert_eq!(bad, before, "byte {i}: nothing is decrypted before the tag");
    }
}

#[test]
fn a_symmetric_key_is_its_32_bytes() {
    // No MAC state or key schedule rides along in a standing THA.
    assert_eq!(std::mem::size_of::<SymmetricKey>(), 32);
}
