//! Tier-1 mirror of the `tap-crypto` AEAD pins: `cargo test -q` runs the root
//! package only, so the construction every onion layer and every retrieved
//! file is sealed with — AEAD_CHACHA20_POLY1305 (RFC 8439) with empty
//! associated data, as `nonce ‖ ct ‖ tag` — is checked here through public
//! items alone, and so is the keystream under it: the multi-block kernel and
//! the cursor against a loop over the RFC's block function. The full vector
//! set (A.3 #1–#11, §2.6.2, §2.8.2, A.5) and the proptests live in the crate.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;

use tap::crypto::chacha20::{self, KeystreamCursor, BLOCK_LEN, NONCE_LEN};
use tap::crypto::cipher::{CipherError, SymmetricKey, SEAL_OVERHEAD, TAG_LEN};
use tap::crypto::poly1305::Poly1305;

use common::{fnv, pin, FNV_OFFSET};

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
fn poly1305_at_its_bounds_gives_the_tags_recorded_before_the_rewrite() {
    // All-0xff messages under the largest clamped r keep the accumulator
    // near its bound at every block; s = 2^128 − 1 makes the final addition
    // wrap. Lengths: empty, 1–64 whole blocks each with ragged tails of 1,
    // 8 and 15 bytes, then 1 MiB. One FNV-1a over the tags per key,
    // recorded on the 44-bit-limb arithmetic.
    let ones = vec![0xffu8; 1 << 20];
    let mut lens = vec![0];
    for blocks in 1..=64 {
        lens.extend([0, 1, 8, 15].map(|tail| 16 * blocks + tail));
    }
    lens.push(ones.len());
    let key =
        |r: [u8; 16], s: [u8; 16]| -> [u8; 32] { core::array::from_fn(|i| [r, s][i / 16][i % 16]) };
    let mut r1 = [0u8; 16];
    r1[0] = 1;
    let keys = [
        key([0xff; 16], [0; 16]),
        key([0xff; 16], [0xff; 16]),
        key([0; 16], [0xff; 16]),
        key(r1, [0; 16]),
    ];
    let got = keys.map(|key| {
        lens.iter()
            .fold(FNV_OFFSET, |h, &len| fnv(h, &poly1305(key, &ones[..len])))
    });
    assert_eq!(
        got,
        [
            0xc460_d49a_8bae_1ca6,
            0x8a1a_9459_1d31_35ad,
            0xfbff_f734_8d2b_0f85,
            0x55b6_6394_fc4e_a7bd,
        ],
        "{:?}",
        got.map(pin)
    );
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

/// `chacha20`'s private kernel width, in blocks: the lengths below sit on
/// and around its pass boundaries.
const LANES: usize = 16;

#[test]
fn keystream_kernel_and_cursor_match_the_block_function() {
    let key: [u8; 32] = core::array::from_fn(|i| 0xa0 ^ (i * 11) as u8);
    let nonce: [u8; NONCE_LEN] = core::array::from_fn(|i| (i * 29) as u8);
    let pass = LANES * BLOCK_LEN;
    let lens = [
        0,
        1,
        63,
        64,
        65,
        191,
        192,
        193,
        pass - 1,
        pass,
        pass + 1,
        2 * pass + 37,
        250_000,
    ];
    // The last one wraps inside the first pass.
    for counter in [0, 1, u32::MAX - 3] {
        let mut stream = vec![0u8; 250_000];
        for (i, chunk) in stream.chunks_mut(BLOCK_LEN).enumerate() {
            let ks = chacha20::block(&key, counter.wrapping_add(i as u32), &nonce);
            chunk.copy_from_slice(&ks[..chunk.len()]);
        }
        for len in lens {
            let mut got = vec![0u8; len];
            chacha20::apply_keystream(&key, &nonce, counter, &mut got);
            assert!(got == stream[..len], "len={len} counter={counter}");
            // The same bytes as a suffix: a cursor placed `len` bytes in
            // must produce what follows, in two ragged pieces.
            let mut rest = vec![0u8; (stream.len() - len).min(2 * pass + 37)];
            let mut cursor = KeystreamCursor::at_offset(&key, &nonce, counter, len);
            let cut = rest.len() / 3;
            let (head, tail) = rest.split_at_mut(cut);
            cursor.xor_into(head);
            cursor.xor_into(tail);
            assert!(
                rest == stream[len..len + rest.len()],
                "offset={len} counter={counter}"
            );
        }
    }
}

#[test]
fn a_sealed_250_kb_file_is_the_bytes_it_was_before_the_kernel_changed() {
    let mut rng = StdRng::seed_from_u64(21);
    let k = SymmetricKey::generate(&mut rng);
    let file: Vec<u8> = (0..250_000u32).map(|i| ((i * 131) >> 3) as u8).collect();
    let sealed = k.seal(&mut rng, &file);
    assert_eq!(sealed.len(), file.len() + SEAL_OVERHEAD);
    // FNV-1a of the sealed bytes, recorded at the commit before the
    // multi-block kernel was replaced: the wire must not move.
    let digest = fnv(FNV_OFFSET, &sealed);
    assert_eq!(digest, 0xedb3_1416_f8d7_a82c, "digest {}", pin(digest));
    assert!(k.open(&sealed).unwrap() == file);
}
