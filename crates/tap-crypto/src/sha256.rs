//! SHA-256 (FIPS 180-4). Used for a THA's password commitment `H(PW)`,
//! HMAC-SHA-256 key derivation, the puzzles and the erasure codec's payload
//! digest — everywhere the workspace needs a hash that is actually collision
//! resistant (see [`crate::sha1`]). Messages are authenticated by Poly1305,
//! and [`crate::ec`]'s fragment check is Poly1305 under a public key.

/// Output width in bytes.
pub const DIGEST_LEN: usize = 32;
const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const IV: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub(crate) struct Sha256 {
    state: [u32; 8],
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher with the FIPS initial state.
    pub fn new() -> Self {
        Sha256::resume(IV, 0)
    }

    /// A hasher that has already absorbed `len` bytes (a whole number of
    /// blocks) and reached chaining value `state` — how [`crate::hmac`]
    /// restarts from a key's precomputed pad block.
    pub(crate) fn resume(state: [u32; 8], len: u64) -> Self {
        debug_assert_eq!(len % BLOCK_LEN as u64, 0);
        Sha256 {
            state,
            len,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// The chaining value after absorbing exactly `block` from the initial
    /// state.
    pub(crate) fn midstate(block: &[u8; BLOCK_LEN]) -> [u32; 8] {
        let mut state = IV;
        compress(&mut state, block);
        state
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
            if self.buf_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let mut blocks = rest.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            compress(
                &mut self.state,
                block.try_into().expect("chunks_exact yields whole blocks"),
            );
        }
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Finish and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // FIPS 180-4 §5.1.1 in one shot: 0x80, zeros to 56 mod 64, then
        // the bit length — spilling into a second block when the tail
        // leaves no room for the length.
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

/// One round with the working variables named in their current rotation:
/// instead of shifting `a..h` down one place per round, the caller rotates
/// the argument list, so eight rounds return every name to its start.
/// `$bc` carries `b ^ c` from round to round — this round's `a ^ b` is the
/// next round's `b ^ c` — so `Maj(a, b, c) = ((a ^ b) & (b ^ c)) ^ b`
/// costs one fresh XOR, and `$c` itself is never read.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
     $bc:ident, $k:expr, $w:expr) => {
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add($g ^ ($e & ($f ^ $g)))
            .wrapping_add($k)
            .wrapping_add($w);
        $d = $d.wrapping_add(t1);
        let ab = $a ^ $b;
        $h = t1
            .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add((ab & $bc) ^ $b);
        $bc = ab;
    };
}

/// The SHA-256 compression function over one block, read in place. The
/// message schedule is a 16-word ring: from round 16 on, round `t`
/// overwrites `w[t mod 16]` with `W_t` just before consuming it.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 16];
    for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    let mut bc = b ^ c;
    macro_rules! sched {
        ($i:expr) => {{
            let w15 = w[($i + 1) % 16];
            let w2 = w[($i + 14) % 16];
            w[$i] = w[$i]
                .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                .wrapping_add(w[($i + 9) % 16])
                .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
            w[$i]
        }};
    }
    let (k, k_scheduled) = K.split_at(16);
    for i in [0, 8] {
        round!(a, b, c, d, e, f, g, h, bc, k[i], w[i]);
        round!(h, a, b, c, d, e, f, g, bc, k[i + 1], w[i + 1]);
        round!(g, h, a, b, c, d, e, f, bc, k[i + 2], w[i + 2]);
        round!(f, g, h, a, b, c, d, e, bc, k[i + 3], w[i + 3]);
        round!(e, f, g, h, a, b, c, d, bc, k[i + 4], w[i + 4]);
        round!(d, e, f, g, h, a, b, c, bc, k[i + 5], w[i + 5]);
        round!(c, d, e, f, g, h, a, b, bc, k[i + 6], w[i + 6]);
        round!(b, c, d, e, f, g, h, a, bc, k[i + 7], w[i + 7]);
    }
    for k in k_scheduled.chunks_exact(16) {
        for i in [0, 8] {
            round!(a, b, c, d, e, f, g, h, bc, k[i], sched!(i));
            round!(h, a, b, c, d, e, f, g, bc, k[i + 1], sched!(i + 1));
            round!(g, h, a, b, c, d, e, f, bc, k[i + 2], sched!(i + 2));
            round!(f, g, h, a, b, c, d, e, bc, k[i + 3], sched!(i + 3));
            round!(e, f, g, h, a, b, c, d, bc, k[i + 4], sched!(i + 4));
            round!(d, e, f, g, h, a, b, c, bc, k[i + 5], sched!(i + 5));
            round!(c, d, e, f, g, h, a, b, bc, k[i + 6], sched!(i + 6));
            round!(b, c, d, e, f, g, h, a, bc, k[i + 7], sched!(i + 7));
        }
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook hasher this module shipped before the rewrite — full
    /// 64-word schedule, every block copied before compression, padding
    /// fed through `update` a byte at a time. Kept as the oracle.
    struct Oracle {
        state: [u32; 8],
        len: u64,
        buf: Vec<u8>,
    }

    impl Oracle {
        fn new() -> Self {
            Oracle {
                state: IV,
                len: 0,
                buf: Vec::new(),
            }
        }

        fn update(&mut self, data: &[u8]) {
            self.len += data.len() as u64;
            self.buf.extend_from_slice(data);
            while self.buf.len() >= BLOCK_LEN {
                let block: Vec<u8> = self.buf.drain(..BLOCK_LEN).collect();
                self.compress(&block);
            }
        }

        fn finalize(mut self) -> [u8; DIGEST_LEN] {
            let bit_len = self.len * 8;
            self.update(&[0x80]);
            while self.buf.len() != BLOCK_LEN - 8 {
                self.update(&[0]);
            }
            self.update(&bit_len.to_be_bytes());
            assert!(self.buf.is_empty());
            let mut out = [0u8; DIGEST_LEN];
            for (i, w) in self.state.iter().enumerate() {
                out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
            }
            out
        }

        fn compress(&mut self, block: &[u8]) {
            let mut w = [0u32; 64];
            for (i, chunk) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            }
            for i in 16..64 {
                let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
                let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
                w[i] = w[i - 16]
                    .wrapping_add(s0)
                    .wrapping_add(w[i - 7])
                    .wrapping_add(s1);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
            for i in 0..64 {
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ ((!e) & g);
                let t1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(K[i])
                    .wrapping_add(w[i]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            for (s, v) in self.state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *s = s.wrapping_add(v);
            }
        }
    }

    fn oracle(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Oracle::new();
        h.update(data);
        h.finalize()
    }

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // FIPS 180-4 test vectors.
    #[test]
    fn fips_vectors() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    // Every length at which the padding changes shape: empty, one byte,
    // the last length that fits the bit count in the same block (55), the
    // first that spills (56), block edges, and the same again one block on.
    #[test]
    fn padding_boundaries_match_the_oracle() {
        let data: Vec<u8> = (0..128u32).map(|i| (i * 7 + 3) as u8).collect();
        for len in [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            assert_eq!(sha256(&data[..len]), oracle(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn resume_continues_from_a_midstate() {
        let data: Vec<u8> = (0..200u8).collect();
        let (head, tail) = data.split_at(BLOCK_LEN);
        let mut h = Sha256::resume(Sha256::midstate(head.try_into().unwrap()), BLOCK_LEN as u64);
        h.update(tail);
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(777).collect();
        for split in [0usize, 1, 63, 64, 65, 100, 776, 777] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }
    proptest! {
        #[test]
        fn prop_any_update_split_matches_the_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..400),
            cuts in proptest::collection::vec(any::<usize>(), 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut h = Sha256::new();
            let mut at = 0;
            for cut in cuts {
                h.update(&data[at..cut]);
                at = cut;
            }
            h.update(&data[at..]);
            prop_assert_eq!(h.finalize(), oracle(&data));
        }
    }
}
