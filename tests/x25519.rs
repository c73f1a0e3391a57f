//! Tier-1 pin of the X25519 function and the sealed box built on it, through
//! `tap::crypto::{x25519, pki}` alone: the RFC 7748 vectors, a table of edge
//! u-coordinates whose outputs were recorded on the arithmetic this file
//! predates (radix 2^51 with a carry chain after every operation), and an
//! FNV digest of 32 `SealedBox`es from a seeded RNG recorded the same way —
//! a field-arithmetic rewrite moves neither a byte on the wire nor an RNG
//! draw. The differential oracle and the field-level proptests live in the
//! crate.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tap::crypto::pki::{KeyPair, SealedBox};
use tap::crypto::x25519::{public_key, x25519, BASEPOINT};

fn unhex32(s: &str) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, b) in out.iter_mut().enumerate() {
        *b = u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap();
    }
    out
}

fn hex(d: &[u8]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

const SCALAR_1: &str = "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4";
const SCALAR_2: &str = "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d";

#[test]
fn rfc7748_section_5_2_vectors() {
    let u1 = unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
    assert_eq!(
        hex(&x25519(&unhex32(SCALAR_1), &u1)),
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
    );
    // Vector 2's u has its top bit set: the RFC result needs it masked.
    let u2 = unhex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
    assert_eq!(
        hex(&x25519(&unhex32(SCALAR_2), &u2)),
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
    );
}

#[test]
fn rfc7748_iterated_vector_at_one_and_a_thousand_rounds() {
    let mut k = BASEPOINT;
    let mut u = BASEPOINT;
    for round in 1..=1000 {
        (k, u) = (x25519(&k, &u), k);
        if round == 1 {
            assert_eq!(
                hex(&k),
                "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
            );
        }
    }
    assert_eq!(
        hex(&k),
        "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
    );
}

#[test]
fn rfc7748_section_6_1_exchange() {
    let alice = unhex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
    let bob = unhex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
    let (alice_pub, bob_pub) = (public_key(&alice), public_key(&bob));
    assert_eq!(
        hex(&alice_pub),
        "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
    );
    assert_eq!(
        hex(&bob_pub),
        "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
    );
    let shared = x25519(&alice, &bob_pub);
    assert_eq!(shared, x25519(&bob, &alice_pub));
    assert_eq!(
        hex(&shared),
        "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
    );
}

fn small(u: u8) -> [u8; 32] {
    let mut out = [0u8; 32];
    out[0] = u;
    out
}

/// Little-endian `2^255 − 19 + delta`, for `delta ∈ −19..=18`.
fn p_plus(delta: i8) -> [u8; 32] {
    let mut u = [0xffu8; 32];
    u[0] = (0xed + i16::from(delta)) as u8;
    u[31] = 0x7f;
    u
}

#[test]
fn edge_u_coordinates_give_the_outputs_recorded_before_the_rewrite() {
    let scalars = [unhex32(SCALAR_1), unhex32(SCALAR_2), [0xff; 32]];

    // Points of order 1, 2, 4 and 8 (and their non-canonical encodings p and
    // p + 1): a clamped scalar is a multiple of 8, so the ladder ends on
    // z = 0, `invert` maps zero to zero, and the output is all zero.
    let low_order = [
        [0u8; 32],
        small(1),
        p_plus(-1),
        p_plus(0),
        p_plus(1),
        unhex32("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
        unhex32("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
    ];
    for u in &low_order {
        for k in &scalars {
            assert_eq!(x25519(k, u), [0u8; 32], "u = {}", hex(u));
        }
    }

    // The base point, and 2^255 − 1 ≡ 18 written with the top bit set, which
    // RFC 7748 §5 says is masked off: it must read as `p + 18` does.
    let recorded = [
        (
            small(9),
            [
                "1c9fd88f45606d932a80c71824ae151d15d73e77de38e8e000852e614fae7019",
                "ff63fe57bfbf43fa3f563628b149af704d3db625369c49983650347a6a71e00e",
                "847c0d2c375234f365e660955187a3735a0f7613d1609d3a6a4d8c53aeaa5a22",
            ],
        ),
        (
            [0xff; 32],
            [
                "76b00406ce7e87774c0038dd8d89b188047977f8828ca1dcb8f98bb5d5d0cf48",
                "32585876114b2dc59dcca5040125822e29784188d7f449f4153ea4ac41796042",
                "96186d56afdbfeda62f0d07168fa8b142b3d8530e9705fd818cfd33591ea927f",
            ],
        ),
    ];
    for (u, outputs) in &recorded {
        for (k, want) in scalars.iter().zip(outputs) {
            assert_eq!(hex(&x25519(k, u)), *want, "u = {}", hex(u));
        }
    }
    for k in &scalars {
        assert_eq!(x25519(k, &[0xff; 32]), x25519(k, &p_plus(18)));
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[test]
fn sealed_boxes_are_the_bytes_they_were_before_the_rewrite() {
    let mut rng = StdRng::seed_from_u64(24);
    let recipient = KeyPair::generate(&mut rng);
    let mut digest = FNV_OFFSET;
    for i in 0..32usize {
        let plaintext: Vec<u8> = (0..i * 7).map(|j| (i + j) as u8).collect();
        let boxed = SealedBox::seal(&mut rng, &recipient.public(), &plaintext);
        for &b in boxed.ephemeral.0.iter().chain(&boxed.sealed) {
            digest = (digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        assert_eq!(recipient.open(&boxed).unwrap(), plaintext);
    }
    assert_eq!(digest, 0x5755_c775_fdbd_127a, "{digest:#018x}");
}
