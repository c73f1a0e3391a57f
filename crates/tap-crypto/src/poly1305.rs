//! The Poly1305 one-time authenticator (RFC 8439 §2.5) — the MAC half of
//! [`crate::cipher`]'s AEAD.
//!
//! The tag is `((m_1·r^n + m_2·r^(n-1) + … + m_n·r) mod 2^130 − 5) + s`
//! truncated to 128 bits, where the `m_i` are the 16-byte message blocks,
//! each with a 1 bit appended, and `(r, s)` is the 32-byte key. The
//! accumulator lives in three 44/44/42-bit limbs so that a block costs nine
//! `u64 × u64 → u128` products and no carry can overflow; one code path on
//! every host, no tables, nothing secret-dependent in control flow.
//!
//! A key must authenticate **one** message: two tags under the same `(r, s)`
//! give `r` away. [`crate::cipher::SymmetricKey`] draws a fresh one per
//! `(K, nonce)` from ChaCha20 block 0.

/// Key width in bytes: `r` (clamped on load) then `s`.
pub const KEY_LEN: usize = 32;
/// Tag width in bytes.
pub const TAG_LEN: usize = 16;
const BLOCK_LEN: usize = 16;

const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// The 2^128 bit appended to every full block, as seen by the top limb.
const HIBIT: u64 = 1 << 40;

fn le64(b: &[u8; BLOCK_LEN]) -> (u64, u64) {
    let v = u128::from_le_bytes(*b);
    (v as u64, (v >> 64) as u64)
}

/// Streaming Poly1305 under one key.
#[derive(Clone)]
pub struct Poly1305 {
    r: [u64; 3],
    /// `r[1]` and `r[2]` times 20: the `5 · 2^2` that folds a product limb
    /// at weight 2^132 back to weight 2^0 (limbs 0 and 1 are 44 bits wide,
    /// so the wrap crosses 2^130 two bits late).
    s: [u64; 2],
    h: [u64; 3],
    pad: (u64, u64),
    buf: [u8; BLOCK_LEN],
    buffered: usize,
}

impl Poly1305 {
    /// Key the authenticator; `r` is clamped as the RFC requires.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        let word = |i: usize| u64::from_le_bytes(core::array::from_fn(|j| key[8 * i + j]));
        let (t0, t1) = (word(0), word(1));
        let r = [
            t0 & 0xffc_0fff_ffff,
            ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff,
            (t1 >> 24) & 0x00f_ffff_fc0f,
        ];
        Poly1305 {
            r,
            s: [r[1] * 20, r[2] * 20],
            h: [0; 3],
            pad: (word(2), word(3)),
            buf: [0; BLOCK_LEN],
            buffered: 0,
        }
    }

    /// `h = (h + block + hibit·2^128) · r mod 2^130 − 5` per block, `h` kept
    /// partially reduced (limbs within a bit of their width).
    fn blocks(&mut self, blocks: &[[u8; BLOCK_LEN]], hibit: u64) {
        let [r0, r1, r2] = self.r.map(u128::from);
        let [s1, s2] = self.s.map(u128::from);
        let [mut h0, mut h1, mut h2] = self.h;
        for block in blocks {
            let (t0, t1) = le64(block);
            h0 += t0 & MASK44;
            h1 += ((t0 >> 44) | (t1 << 20)) & MASK44;
            h2 += ((t1 >> 24) & MASK42) | hibit;

            let (a0, a1, a2) = (u128::from(h0), u128::from(h1), u128::from(h2));
            let d0 = a0 * r0 + a1 * s2 + a2 * s1;
            let d1 = a0 * r1 + a1 * r0 + a2 * s2;
            let d2 = a0 * r2 + a1 * r1 + a2 * r0;

            h0 = d0 as u64 & MASK44;
            let d1 = d1 + (d0 >> 44);
            h1 = d1 as u64 & MASK44;
            let d2 = d2 + (d1 >> 44);
            h2 = d2 as u64 & MASK42;
            h0 += (d2 >> 42) as u64 * 5;
            h1 += h0 >> 44;
            h0 &= MASK44;
        }
        self.h = [h0, h1, h2];
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
            self.blocks(&[block], HIBIT);
            self.buffered = 0;
        }
        let (full, rest) = data.as_chunks::<BLOCK_LEN>();
        self.blocks(full, HIBIT);
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// The tag over everything absorbed so far. Does not consume or change
    /// the state, so a streaming caller can keep one authenticator per
    /// message in a reusable `Vec`.
    pub fn tag(&self) -> [u8; TAG_LEN] {
        let mut fin = self.clone();
        if fin.buffered > 0 {
            // A short last block carries its own 1 byte instead of HIBIT.
            let mut block = [0u8; BLOCK_LEN];
            block[..fin.buffered].copy_from_slice(&fin.buf[..fin.buffered]);
            block[fin.buffered] = 1;
            fin.blocks(&[block], 0);
        }
        let [mut h0, mut h1, mut h2] = fin.h;

        // Carry h fully, twice round the 2^130 = 5 wrap.
        let mut c = h1 >> 44;
        h1 &= MASK44;
        for _ in 0..2 {
            h2 += c;
            c = h2 >> 42;
            h2 &= MASK42;
            h0 += c * 5;
            c = h0 >> 44;
            h0 &= MASK44;
            h1 += c;
            c = h1 >> 44;
            h1 &= MASK44;
        }
        h2 += c;

        // g = h − p = h + 5 − 2^130; keep g iff it did not borrow (h ≥ p).
        let mut g0 = h0 + 5;
        let mut g1 = h1 + (g0 >> 44);
        g0 &= MASK44;
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        g1 &= MASK44;
        let keep_g = (g2 >> 63).wrapping_sub(1);
        h0 = (h0 & !keep_g) | (g0 & keep_g);
        h1 = (h1 & !keep_g) | (g1 & keep_g);
        h2 = (h2 & !keep_g) | (g2 & keep_g);

        // tag = (h + s) mod 2^128.
        let h = u128::from(h0) | u128::from(h1) << 44 | u128::from(h2) << 88;
        let s = u128::from(fin.pad.0) | u128::from(fin.pad.1) << 64;
        h.wrapping_add(s).to_le_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::unhex;
    use proptest::prelude::*;

    fn tag(key: &[u8], msg: &[u8]) -> Vec<u8> {
        let mut mac = Poly1305::new(key.try_into().unwrap());
        mac.update(msg);
        mac.tag().to_vec()
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
        #[test]
        fn prop_fragmented_update_equals_one_update(
            msg in proptest::collection::vec(any::<u8>(), 0..400),
            cuts in proptest::collection::vec(any::<usize>(), 0..8),
            key in proptest::collection::vec(any::<u8>(), KEY_LEN),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (msg.len() + 1)).collect();
            cuts.sort_unstable();
            let mut mac = Poly1305::new(key[..].try_into().unwrap());
            let mut at = 0;
            for cut in cuts {
                mac.update(&msg[at..cut]);
                at = cut;
            }
            mac.update(&msg[at..]);
            prop_assert_eq!(mac.tag().to_vec(), tag(&key, &msg));
        }
    }
}
