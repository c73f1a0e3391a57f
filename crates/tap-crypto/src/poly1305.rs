//! The Poly1305 one-time authenticator (RFC 8439 §2.5) — the MAC half of
//! [`crate::cipher`]'s AEAD.
//!
//! The tag is `((m_1·r^n + m_2·r^(n-1) + … + m_n·r) mod 2^130 − 5) + s`
//! truncated to 128 bits, where the `m_i` are the 16-byte message blocks,
//! each with a 1 bit appended, and `(r, s)` is the 32-byte key. One code
//! path on every host, no tables, nothing secret-dependent in control flow.
//!
//! The arithmetic is radix 2^64: `r = r0 + r1·2^64` and the accumulator
//! `h = h0 + h1·2^64 + h2·2^128` with `h2` a few bits wide. Clamping clears
//! the low two bits of `r1`, so `r1·2^128 = (r1/4)·2^130 ≡ 5·r1/4 = s1 =
//! r1 + (r1 >> 2)` mod `p = 2^130 − 5` exactly, and a block costs four full
//! `u64 × u64 → u128` products, two small ones by `h2` and two carry chains.
//! What keeps every sum inside its word, block after block:
//!
//! | quantity | bound | from |
//! |---|---|---|
//! | `r0`, `r1` | < 2^60 | the clamp clears each word's top four bits |
//! | `s1` | < 2^61 | `r1 + r1/4` |
//! | `h2` after a block | ≤ 4 | `(d2 & 3)` plus one carry |
//! | `a2`, the top of `h + block` | ≤ 6 | `h2` + one carry + the appended bit |
//! | column sums of `d0`, `d1` | < 2^127 | two products < 2^125, terms < 2^64 |
//! | `d2 = a2·r0 + (d1 >> 64)` | < 2^63 | `6·(2^60 − 1) + 2^61` |
//! | `c = 5·⌊d2/4⌋` | < 2^64 | `d2 + d2/4` |
//!
//! With `h2 ≤ 4`, `h < 5·2^128 < 2p`, so the tag needs one conditional
//! subtraction of `p`.
//!
//! A key must authenticate **one** message: two tags under the same `(r, s)`
//! give `r` away. [`crate::cipher::SymmetricKey`] draws a fresh one per
//! `(K, nonce)` from ChaCha20 block 0. The one deliberate exception is
//! [`crate::ec`]'s fragment check, which runs every fragment under one
//! fixed key published in the source: there the tag is an error-detecting
//! code, a polynomial evaluated at a known point, and authenticates nothing.

/// Key width in bytes: `r` (clamped on load) then `s`.
pub const KEY_LEN: usize = 32;
/// Tag width in bytes.
pub const TAG_LEN: usize = 16;
const BLOCK_LEN: usize = 16;

/// Streaming Poly1305 under one key.
#[derive(Clone)]
pub struct Poly1305 {
    r: [u64; 2],
    h: [u64; 3],
    pad: u128,
    buf: [u8; BLOCK_LEN],
    buffered: usize,
}

impl Poly1305 {
    /// Key the authenticator; `r` is clamped as the RFC requires.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let word = |i: usize| u64::from_le_bytes(core::array::from_fn(|j| key[8 * i + j]));
        Poly1305 {
            r: [
                word(0) & 0x0fff_fffc_0fff_ffff,
                word(1) & 0x0fff_fffc_0fff_fffc,
            ],
            h: [0; 3],
            pad: u128::from(word(2)) | u128::from(word(3)) << 64,
            buf: [0; BLOCK_LEN],
            buffered: 0,
        }
    }

    /// `h = (h + block + hibit·2^128) · r mod 2^130 − 5` per block, `h` kept
    /// below `2p` (`h2 ≤ 4`, the module doc's bounds).
    fn blocks(&mut self, blocks: &[[u8; BLOCK_LEN]], hibit: u64) {
        let [r0, r1] = self.r;
        let s1 = r1 + (r1 >> 2);
        let mul = |a: u64, b: u64| u128::from(a) * u128::from(b);
        let [h0, h1, mut h2] = self.h;
        let mut h = u128::from(h0) | u128::from(h1) << 64;
        for block in blocks {
            let (a, carry) = h.overflowing_add(u128::from_le_bytes(*block));
            let (a0, a1, a2) = (a as u64, (a >> 64) as u64, h2 + u64::from(carry) + hibit);

            let d0 = mul(a0, r0) + mul(a1, s1);
            let d1 = mul(a0, r1) + mul(a1, r0) + u128::from(a2 * s1) + (d0 >> 64);
            let d2 = a2 * r0 + (d1 >> 64) as u64;

            // d2·2^128 = (d2 & 3)·2^128 + ⌊d2/4⌋·2^130 ≡ … + 5·⌊d2/4⌋.
            let low = u128::from(d0 as u64) | d1 << 64;
            let carry;
            (h, carry) = low.overflowing_add(u128::from((d2 >> 2) + (d2 & !3)));
            h2 = (d2 & 3) + u64::from(carry);
            debug_assert!(h2 <= 4);
        }
        self.h = [h as u64, (h >> 64) as u64, h2];
    }

    /// Absorb message bytes; any fragmentation gives the same tag.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buffered > 0 {
            let take = data.len().min(BLOCK_LEN - self.buffered);
            self.buf[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < BLOCK_LEN {
                return;
            }
            let block = self.buf;
            self.blocks(&[block], 1);
            self.buffered = 0;
        }
        let (full, rest) = data.as_chunks::<BLOCK_LEN>();
        self.blocks(full, 1);
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// The tag over everything absorbed so far. Does not consume or change
    /// the state, so a streaming caller can keep one authenticator per
    /// message in a reusable `Vec`.
    pub fn tag(&self) -> [u8; TAG_LEN] {
        let mut fin = self.clone();
        if fin.buffered > 0 {
            // A short last block carries its own 1 byte instead of the 2^128 bit.
            let mut block = [0u8; BLOCK_LEN];
            block[..fin.buffered].copy_from_slice(&fin.buf[..fin.buffered]);
            block[fin.buffered] = 1;
            fin.blocks(&[block], 0);
        }
        let [h0, h1, h2] = fin.h;
        let h = u128::from(h0) | u128::from(h1) << 64;

        // h < 2p, so h mod p is h or h − p = h + 5 − 2^130: keep g = h + 5
        // iff it reaches bit 130. Only its low 128 bits are needed.
        let (g, carry) = h.overflowing_add(5);
        let keep_g = 0u128.wrapping_sub(u128::from((h2 + u64::from(carry)) >> 2));
        let h = (h & !keep_g) | (g & keep_g);

        // tag = (h + s) mod 2^128.
        h.wrapping_add(fin.pad).to_le_bytes()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::tests::unhex;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tag(key: &[u8], msg: &[u8]) -> Vec<u8> {
        let mut mac = Poly1305::new(key.try_into().unwrap());
        mac.update(msg);
        mac.tag().to_vec()
    }

    /// Poly1305 by the definition, in five 26-bit limbs (130 = 5 · 26, so a
    /// limb past the top wraps times exactly 5): shares no arithmetic with
    /// the radix-2^64 kernel. Not constant-time; a test oracle.
    pub(crate) fn poly1305_reference(key: &[u8], msg: &[u8]) -> [u8; TAG_LEN] {
        const M: u64 = (1 << 26) - 1;
        let le = |b: &[u8]| b.iter().rev().fold(0u128, |v, &x| v << 8 | u128::from(x));
        let limbs = |v: u128| -> [u64; 5] { core::array::from_fn(|k| (v >> (26 * k)) as u64 & M) };
        let carry = |x: [u64; 5], mut c: u64| -> ([u64; 5], u64) {
            let h = x.map(|limb| {
                let t = limb + c;
                c = t >> 26;
                t & M
            });
            (h, c)
        };
        let r = limbs(le(&key[..16]) & 0x0fff_fffc_0fff_fffc_0fff_fffc_0fff_ffff);
        let mut h = [0u64; 5];
        for chunk in msg.chunks(16) {
            // The block with a 1 byte appended; byte 16 is limb 4's bit 24.
            let mut block = [0u8; 17];
            block[..chunk.len()].copy_from_slice(chunk);
            block[chunk.len()] = 1;
            let m = limbs(le(&block[..16]));
            for k in 0..5 {
                h[k] += m[k];
            }
            h[4] += u64::from(block[16]) << 24;
            let wrap = |i: usize, j: usize| if j <= i { r[i - j] } else { 5 * r[i + 5 - j] };
            let (x, c) = carry(
                core::array::from_fn(|i| (0..5).map(|j| h[j] * wrap(i, j)).sum()),
                0,
            );
            h = x;
            h[0] += 5 * c;
            h[1] += h[0] >> 26;
            h[0] &= M;
        }
        for _ in 0..2 {
            let (x, c) = carry(h, 0);
            h = x;
            h[0] += 5 * c;
        }
        // h − p = h + 5 − 2^130: take it iff the + 5 carried out of the top.
        if let (g, 1) = carry(h, 5) {
            h = g;
        }
        let h = (0..5).fold(0u128, |v, k| v | u128::from(h[k]) << (26 * k));
        h.wrapping_add(le(&key[16..32])).to_le_bytes()
    }

    /// The kernel's tag with `msg` fed to `update` in pieces cut at `cuts`
    /// (each taken modulo `msg.len() + 1`).
    fn tag_in_pieces(key: &[u8; KEY_LEN], msg: &[u8], cuts: &[usize]) -> [u8; TAG_LEN] {
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (msg.len() + 1)).collect();
        cuts.sort_unstable();
        let mut mac = Poly1305::new(key);
        let mut at = 0;
        for cut in cuts {
            mac.update(&msg[at..cut]);
            at = cut;
        }
        mac.update(&msg[at..]);
        mac.tag()
    }

    /// A key at an edge of the arithmetic, with `s = 2^128 − 1` so the
    /// final `+ s` wraps: the largest clamped r, under which `h` sits near
    /// its bound, or r = 1, under which all-ones blocks keep `h + block`
    /// near 2^128 and the fold's carry into `h2` is taken.
    fn edge_key(r_is_one: bool) -> [u8; KEY_LEN] {
        core::array::from_fn(|i| match i {
            0 if r_is_one => 1,
            1..16 if r_is_one => 0,
            _ => 0xff,
        })
    }

    // 2^16 all-ones blocks under each edge key; a debug build checks
    // `h2 ≤ 4` at every block.
    #[test]
    fn all_ones_blocks_under_the_edge_keys_hold_the_bound() {
        let msg = vec![0xff; BLOCK_LEN << 16];
        for key in [edge_key(false), edge_key(true)] {
            assert_eq!(
                tag_in_pieces(&key, &msg, &[]),
                poly1305_reference(&key, &msg)
            );
        }
    }

    #[test]
    #[ignore = "a second in release, ~40 s in debug: CI's release-mode job runs it"]
    fn poly1305_matches_oracle_million() {
        let mut rng = StdRng::seed_from_u64(1305);
        let mut msg = [0u8; 1024];
        for case in 0..1_000_000 {
            let mut key: [u8; KEY_LEN] = rng.gen();
            let len = rng.gen_range(0..=msg.len());
            rng.fill(&mut msg[..len]);
            // Half the cases: an edge key over all-ones bytes.
            if case % 4 < 2 {
                key = edge_key(case % 4 == 1);
                msg[..len].fill(0xff);
            }
            let cuts = [rng.gen()];
            assert_eq!(
                tag_in_pieces(&key, &msg[..len], &cuts),
                poly1305_reference(&key, &msg[..len]),
                "case {case}"
            );
        }
    }

    // RFC 8439 §2.5.2.
    #[test]
    fn rfc8439_section_2_5_2() {
        let key = unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
        assert_eq!(
            tag(&key, b"Cryptographic Forum Research Group"),
            unhex("a8061dc1305136c6c22b8baf0c0127a9")
        );
    }

    const IETF: &[u8] = b"Any submission to the IETF intended by the Contributor for \
publication as all or part of an IETF Internet-Draft or RFC and any statement made within \
the context of an IETF activity is considered an \"IETF Contribution\". Such statements \
include oral statements in IETF sessions, as well as written and electronic communications \
made at any time or place, which are addressed to";

    const JABBERWOCKY: &[u8] = b"'Twas brillig, and the slithy toves\nDid gyre and gimble in \
the wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";

    // RFC 8439 A.3, all eleven: (key, message, tag). #5–#11 are the edge
    // cases — h ≥ p before the final reduction, carries out of 2^130 and
    // out of 2^128, and the s addition wrapping.
    #[test]
    fn rfc8439_appendix_a3() {
        let zero = "00000000000000000000000000000000";
        let ones = "ffffffffffffffffffffffffffffffff";
        let r1 = "01000000000000000000000000000000";
        let r2 = "02000000000000000000000000000000";
        let r10 = "01000000000000000400000000000000";
        let ietf_key = "36e5f6b5c5e06070f0efca96227a863e";
        let blocks10 = "e33594d7505e43b90000000000000000 3394d7505e4379cd0100000000000000 \
                        00000000000000000000000000000000";
        let vectors: [(String, Vec<u8>, &str); 11] = [
            (format!("{zero}{zero}"), vec![0u8; 64], zero),
            (format!("{zero}{ietf_key}"), IETF.to_vec(), ietf_key),
            (
                format!("{ietf_key}{zero}"),
                IETF.to_vec(),
                "f3477e7cd95417af89a6b8794c310cf0",
            ),
            (
                "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0".into(),
                JABBERWOCKY.to_vec(),
                "4541669a7eaaee61e708dc7cbcc5eb62",
            ),
            (
                format!("{r2}{zero}"),
                unhex(ones),
                "03000000000000000000000000000000",
            ),
            (
                format!("{r2}{ones}"),
                unhex(r2),
                "03000000000000000000000000000000",
            ),
            (
                format!("{r1}{zero}"),
                unhex(&format!(
                    "{ones} f0ffffffffffffffffffffffffffffff 11000000000000000000000000000000"
                )),
                "05000000000000000000000000000000",
            ),
            (
                format!("{r1}{zero}"),
                unhex(&format!(
                    "{ones} fbfefefefefefefefefefefefefefefe 01010101010101010101010101010101"
                )),
                zero,
            ),
            (
                format!("{r2}{zero}"),
                unhex("fdffffffffffffffffffffffffffffff"),
                "faffffffffffffffffffffffffffffff",
            ),
            (
                format!("{r10}{zero}"),
                unhex(&format!("{blocks10} {r1}")),
                "14000000000000005500000000000000",
            ),
            (
                format!("{r10}{zero}"),
                unhex(blocks10),
                "13000000000000000000000000000000",
            ),
        ];
        for (i, (key, msg, want)) in vectors.iter().enumerate() {
            assert_eq!(tag(&unhex(key), msg), unhex(want), "A.3 #{}", i + 1);
        }
    }

    #[test]
    fn tag_does_not_disturb_the_stream() {
        let key = [0x5Au8; KEY_LEN];
        let mut mac = Poly1305::new(&key);
        mac.update(&IETF[..37]);
        assert_eq!(mac.tag().to_vec(), tag(&key, &IETF[..37]));
        mac.update(&IETF[37..]);
        assert_eq!(mac.tag().to_vec(), tag(&key, IETF));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        // Any fragmentation gives the oracle's tag. A quarter of the keys are
        // each edge key, over messages fifteen bytes in sixteen 0xff; the
        // other half are random keys over random bytes.
        #[test]
        fn prop_fragmented_update_matches_the_oracle(
            key in any::<[u8; KEY_LEN]>(),
            edge in 0u8..4,
            bytes in proptest::collection::vec((any::<u8>(), 0u8..16), 0..701),
            cuts in proptest::collection::vec(any::<usize>(), 0..8),
        ) {
            let key = if edge < 2 { edge_key(edge == 1) } else { key };
            let msg: Vec<u8> = bytes
                .iter()
                .map(|&(b, pick)| if edge < 2 && pick > 0 { 0xff } else { b })
                .collect();
            prop_assert_eq!(tag_in_pieces(&key, &msg, &cuts), poly1305_reference(&key, &msg));
        }
    }
}
