//! SHA-1 (FIPS 180-4), the hash Pastry and PAST use for 160-bit identifiers.
//!
//! SHA-1 is cryptographically broken for collision resistance against a
//! motivated attacker, but it is what the paper (and FreePastry 1.3) used to
//! derive ids, and the identifier space it induces is exactly what we need
//! to reproduce. Anything security-critical in this workspace (MACs, key
//! derivation) uses [`crate::sha256`] instead.

/// Output width in bytes.
pub const DIGEST_LEN: usize = 20;
const BLOCK_LEN: usize = 64;

/// Incremental SHA-1 hasher.
#[derive(Clone, Debug)]
pub struct Sha1 {
    state: [u32; 5],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// A fresh hasher with the FIPS initial state.
    pub fn new() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            len: 0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(BLOCK_LEN - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == BLOCK_LEN {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        while let Some((block, tail)) = rest.split_first_chunk() {
            compress(&mut self.state, block);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finish and return the 20-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // FIPS 180-4 §5.1.1 in one shot, as `Sha256::finalize` does: 0x80,
        // zeros to 56 mod 64, then the bit length — spilling into a second
        // block when the tail leaves no room for the length.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= BLOCK_LEN - 8 {
            compress(&mut self.state, &self.buf);
            self.buf.fill(0);
        }
        let bit_len = self.len.wrapping_mul(8);
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; DIGEST_LEN];
        for (o, w) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

fn compress(state: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 80];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..80 {
        w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
    }
    // The four stages of twenty rounds, each with its own function and
    // constant, as four loops: no round picks its function at run time.
    let mut v = *state;
    rounds(&mut v, &w[..20], 0x5A827999, |b, c, d| (b & c) | (!b & d));
    rounds(&mut v, &w[20..40], 0x6ED9EBA1, |b, c, d| b ^ c ^ d);
    rounds(&mut v, &w[40..60], 0x8F1BBCDC, |b, c, d| {
        (b & c) | (b & d) | (c & d)
    });
    rounds(&mut v, &w[60..], 0xCA62C1D6, |b, c, d| b ^ c ^ d);
    for (s, v) in state.iter_mut().zip(v) {
        *s = s.wrapping_add(v);
    }
}

/// One stage: a round per word of `w`, with round function `f` and
/// constant `k`, on the working variables `a..e`.
#[inline(always)]
fn rounds(v: &mut [u32; 5], w: &[u32], k: u32, f: impl Fn(u32, u32, u32) -> u32) {
    let [mut a, mut b, mut c, mut d, mut e] = *v;
    for &wi in w {
        let tmp = a
            .rotate_left(5)
            .wrapping_add(f(b, c, d))
            .wrapping_add(e)
            .wrapping_add(k)
            .wrapping_add(wi);
        e = d;
        d = c;
        c = b.rotate_left(30);
        b = a;
        a = tmp;
    }
    *v = [a, b, c, d, e];
}

/// One-shot SHA-1 of `data`.
pub fn sha1(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha1::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-4 / RFC 3174 test vectors.
    #[test]
    fn fips_vectors() {
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hex(&sha1(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
        assert_eq!(
            hex(&sha1(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha1(&data), "split at {split}");
        }
    }

    /// The padding as it was written before `finalize` did it in one
    /// shot: one `update` a byte.
    fn bytewise_finalize(mut h: Sha1) -> [u8; DIGEST_LEN] {
        let bit_len = h.len.wrapping_mul(8);
        h.update(&[0x80]);
        while h.buf_len != BLOCK_LEN - 8 {
            h.update(&[0]);
        }
        h.update(&bit_len.to_be_bytes());
        assert_eq!(h.buf_len, 0);
        let mut out = [0u8; DIGEST_LEN];
        for (i, w) in h.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    #[test]
    fn one_shot_padding_matches_the_bytewise_padding() {
        let data: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        for len in 0..=data.len() {
            let mut h = Sha1::new();
            h.update(&data[..len / 3]);
            h.update(&data[len / 3..len]);
            assert_eq!(h.clone().finalize(), bytewise_finalize(h), "length {len}");
        }
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths that straddle the 55/56/64-byte padding edges must all
        // be distinct and stable.
        let mut seen = std::collections::HashSet::new();
        for len in 50..70 {
            let data = vec![0xabu8; len];
            assert!(seen.insert(sha1(&data)), "collision at length {len}");
        }
    }

    /// `compress` as it was before its stages became four loops: one loop
    /// of eighty rounds that picks each round's function and constant.
    fn compress_one_loop(state: &mut [u32; 5], block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 80];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A827999),
                20..=39 => (b ^ c ^ d, 0x6ED9EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1BBCDC),
                _ => (b ^ c ^ d, 0xCA62C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }

    proptest! {
        // Any state and any block come out of the four stage loops as they
        // came out of the one loop.
        #[test]
        fn prop_stage_loops_equal_the_one_loop(
            state in any::<[u8; DIGEST_LEN]>(),
            block in any::<[u8; BLOCK_LEN]>(),
        ) {
            let state: [u32; 5] =
                core::array::from_fn(|i| u32::from_be_bytes(state[4 * i..4 * i + 4].try_into().unwrap()));
            let (mut got, mut want) = (state, state);
            compress(&mut got, &block);
            compress_one_loop(&mut want, &block);
            prop_assert_eq!(got, want);
        }
    }
}
