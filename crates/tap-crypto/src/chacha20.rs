//! The ChaCha20 stream cipher (RFC 8439), our `{m}_K`.
//!
//! The paper treats the symmetric cipher as a black box; we pick ChaCha20
//! because it is simple enough to implement from scratch without lookup
//! tables or unsafe code, and because RFC 8439 publishes complete
//! intermediate test vectors to validate against.
//!
//! Two keystream engines share one round function:
//!
//! * [`block`] — the scalar reference, one 64-byte block per call, kept
//!   verbatim against the RFC vectors;
//! * a wide kernel computing [`WIDE_BLOCKS`] independent blocks per
//!   round-function invocation over interleaved `[u32; WIDE_BLOCKS]` lanes,
//!   so the sixteen quarter-round data dependencies overlap across lanes
//!   (ILP / autovectorization) instead of serializing.
//!
//! [`KeystreamCursor`] positions the keystream at any *byte* offset and
//! feeds from whichever engine fits the remaining demand; it is
//! counter-continuous with the scalar stream everywhere, so every consumer
//! — [`apply_keystream`], the sealed-cipher path, the fused onion codec —
//! produces bit-identical output to the one-block-at-a-time loop.

/// Key width in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce width in bytes (the RFC 8439 96-bit nonce).
pub const NONCE_LEN: usize = 12;
/// Keystream block width in bytes.
pub const BLOCK_LEN: usize = 64;
/// Blocks the wide kernel produces per round-function invocation.
pub const WIDE_BLOCKS: usize = 4;

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// RFC 8439 §2.3 initial state for `(key, counter, nonce)`.
#[inline]
fn init_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = [0u32; 16];
    // "expand 32-byte k"
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[i * 4],
            nonce[i * 4 + 1],
            nonce[i * 4 + 2],
            nonce[i * 4 + 3],
        ]);
    }
    state
}

/// Compute one 64-byte keystream block for `(key, counter, nonce)`.
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    let state = init_state(key, counter, nonce);
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }
    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let v = working[i].wrapping_add(state[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// One quarter-round step over all [`WIDE_BLOCKS`] lanes at once. Each
/// state word is a `[u32; WIDE_BLOCKS]` row; the fixed-trip-count lane
/// loops compile to straight-line SIMD (or at worst four independent
/// scalar chains), which is the whole point: the rotate/add/xor latency
/// chain of one block overlaps with three others.
#[inline(always)]
// Each lane loop reads one row of `s` and writes another; iterator zips
// can't borrow two rows of the same array at once, and the fixed-trip
// indexed form is exactly the shape the autovectorizer wants.
#[allow(clippy::needless_range_loop)]
fn quarter_round_wide(s: &mut [[u32; WIDE_BLOCKS]; 16], a: usize, b: usize, c: usize, d: usize) {
    for l in 0..WIDE_BLOCKS {
        s[a][l] = s[a][l].wrapping_add(s[b][l]);
    }
    for l in 0..WIDE_BLOCKS {
        s[d][l] = (s[d][l] ^ s[a][l]).rotate_left(16);
    }
    for l in 0..WIDE_BLOCKS {
        s[c][l] = s[c][l].wrapping_add(s[d][l]);
    }
    for l in 0..WIDE_BLOCKS {
        s[b][l] = (s[b][l] ^ s[c][l]).rotate_left(12);
    }
    for l in 0..WIDE_BLOCKS {
        s[a][l] = s[a][l].wrapping_add(s[b][l]);
    }
    for l in 0..WIDE_BLOCKS {
        s[d][l] = (s[d][l] ^ s[a][l]).rotate_left(8);
    }
    for l in 0..WIDE_BLOCKS {
        s[c][l] = s[c][l].wrapping_add(s[d][l]);
    }
    for l in 0..WIDE_BLOCKS {
        s[b][l] = (s[b][l] ^ s[c][l]).rotate_left(7);
    }
}

/// Compute [`WIDE_BLOCKS`] consecutive keystream blocks (counters
/// `counter`, `counter+1`, … with the same wrapping semantics as the
/// scalar loop) in one interleaved round-function pass. `out[l*64..]`
/// holds the block for counter `counter + l` — bit-identical to
/// [`block`] at that counter.
fn blocks_wide(
    key: &[u8; KEY_LEN],
    counter: u32,
    nonce: &[u8; NONCE_LEN],
    out: &mut [u8; BLOCK_LEN * WIDE_BLOCKS],
) {
    let base = init_state(key, counter, nonce);
    let mut init = [[0u32; WIDE_BLOCKS]; 16];
    for (i, row) in init.iter_mut().enumerate() {
        *row = [base[i]; WIDE_BLOCKS];
    }
    for (l, slot) in init[12].iter_mut().enumerate() {
        *slot = counter.wrapping_add(l as u32);
    }
    let mut s = init;
    for _ in 0..10 {
        quarter_round_wide(&mut s, 0, 4, 8, 12);
        quarter_round_wide(&mut s, 1, 5, 9, 13);
        quarter_round_wide(&mut s, 2, 6, 10, 14);
        quarter_round_wide(&mut s, 3, 7, 11, 15);
        quarter_round_wide(&mut s, 0, 5, 10, 15);
        quarter_round_wide(&mut s, 1, 6, 11, 12);
        quarter_round_wide(&mut s, 2, 7, 8, 13);
        quarter_round_wide(&mut s, 3, 4, 9, 14);
    }
    for l in 0..WIDE_BLOCKS {
        for i in 0..16 {
            let v = s[i][l].wrapping_add(init[i][l]);
            let at = l * BLOCK_LEN + i * 4;
            out[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
    }
}

/// XOR `ks` into `dst`, eight bytes per `u64` step.
#[inline]
fn xor_bytes(dst: &mut [u8], ks: &[u8]) {
    debug_assert!(ks.len() >= dst.len());
    let (words, tail) = dst.as_chunks_mut::<8>();
    let (ks_words, _) = ks.as_chunks::<8>();
    let ks_tail = &ks[words.len() * 8..];
    for (d, k) in words.iter_mut().zip(ks_words) {
        *d = (u64::from_le_bytes(*d) ^ u64::from_le_bytes(*k)).to_le_bytes();
    }
    for (d, k) in tail.iter_mut().zip(ks_tail) {
        *d ^= k;
    }
}

/// A sequential view of one `(key, nonce, initial_counter)` keystream,
/// positionable at any byte offset. Keystream is generated on demand —
/// through the wide kernel when at least three blocks are wanted, the
/// scalar [`block`] otherwise — and buffered, so arbitrarily fragmented
/// [`KeystreamCursor::xor_into`] calls still see every block computed
/// exactly once. The bytes produced are identical to the scalar stream at
/// the same offsets, whatever the call pattern.
#[derive(Debug, Clone)]
pub struct KeystreamCursor {
    key: [u8; KEY_LEN],
    nonce: [u8; NONCE_LEN],
    /// Counter of the next block to generate.
    counter: u32,
    buf: [u8; BLOCK_LEN * WIDE_BLOCKS],
    /// Next unconsumed byte in `buf[..len]`.
    pos: usize,
    /// Valid bytes in `buf`.
    len: usize,
}

impl KeystreamCursor {
    /// A cursor at byte 0 of the stream starting at `initial_counter`
    /// (the position [`apply_keystream`] starts from).
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], initial_counter: u32) -> Self {
        KeystreamCursor {
            key: *key,
            nonce: *nonce,
            counter: initial_counter,
            buf: [0u8; BLOCK_LEN * WIDE_BLOCKS],
            pos: 0,
            len: 0,
        }
    }

    /// A cursor positioned `byte_offset` bytes into the same stream:
    /// counter-continuous with [`apply_keystream`]`(key, nonce,
    /// initial_counter, ..)` at that offset, including mid-block.
    pub fn at_offset(
        key: &[u8; KEY_LEN],
        nonce: &[u8; NONCE_LEN],
        initial_counter: u32,
        byte_offset: usize,
    ) -> Self {
        let mut c = KeystreamCursor::new(key, nonce, initial_counter);
        c.counter = initial_counter.wrapping_add((byte_offset / BLOCK_LEN) as u32);
        let skip = byte_offset % BLOCK_LEN;
        if skip != 0 {
            // Materialize the straddled block and discard its head.
            let b = block(&c.key, c.counter, &c.nonce);
            c.buf[..BLOCK_LEN].copy_from_slice(&b);
            c.counter = c.counter.wrapping_add(1);
            c.pos = skip;
            c.len = BLOCK_LEN;
        }
        c
    }

    /// XOR the next `data.len()` keystream bytes into `data`, advancing
    /// the cursor.
    pub fn xor_into(&mut self, mut data: &mut [u8]) {
        loop {
            let avail = self.len - self.pos;
            if avail > 0 {
                let take = avail.min(data.len());
                xor_bytes(&mut data[..take], &self.buf[self.pos..self.pos + take]);
                self.pos += take;
                data = &mut data[take..];
            }
            if data.is_empty() {
                return;
            }
            self.refill(data.len());
        }
    }

    /// Generate more keystream into the (exhausted) buffer. Demand of
    /// three blocks or more goes through the wide kernel — its four lanes
    /// cost well under three scalar blocks — smaller demand computes
    /// exactly the scalar blocks it needs, so short messages never pay
    /// for keystream they throw away.
    fn refill(&mut self, demand: usize) {
        debug_assert_eq!(self.pos, self.len, "refill only on an empty buffer");
        let blocks_needed = demand.div_ceil(BLOCK_LEN);
        if blocks_needed >= WIDE_BLOCKS - 1 {
            blocks_wide(&self.key, self.counter, &self.nonce, &mut self.buf);
            self.counter = self.counter.wrapping_add(WIDE_BLOCKS as u32);
            self.len = BLOCK_LEN * WIDE_BLOCKS;
        } else {
            for i in 0..blocks_needed {
                let b = block(&self.key, self.counter, &self.nonce);
                self.buf[i * BLOCK_LEN..(i + 1) * BLOCK_LEN].copy_from_slice(&b);
                self.counter = self.counter.wrapping_add(1);
            }
            self.len = blocks_needed * BLOCK_LEN;
        }
        self.pos = 0;
    }
}

/// XOR `data` in place with the ChaCha20 keystream starting at block
/// `initial_counter`. Encryption and decryption are the same operation.
pub fn apply_keystream(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &mut [u8],
) {
    KeystreamCursor::new(key, nonce, initial_counter).xor_into(data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::unhex;
    use proptest::prelude::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The pre-rewrite scalar loop, verbatim: the reference every wide
    /// path must match byte for byte.
    fn apply_keystream_scalar(
        key: &[u8; KEY_LEN],
        nonce: &[u8; NONCE_LEN],
        initial_counter: u32,
        data: &mut [u8],
    ) {
        let mut counter = initial_counter;
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let ks = block(key, counter, nonce);
            for (byte, k) in chunk.iter_mut().zip(ks.iter()) {
                *byte ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    // RFC 8439 §2.3.2: the block function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let out = block(&key, 1, &nonce);
        assert_eq!(
            hex(&out),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    // RFC 8439 §2.4.2: encryption of the "sunscreen" plaintext.
    #[test]
    fn rfc8439_encryption_vector() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could \
offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        apply_keystream(&key, &nonce, 1, &mut data);
        let expect = unhex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        assert_eq!(data, expect);
        // Round-trip back to plaintext.
        apply_keystream(&key, &nonce, 1, &mut data);
        assert_eq!(&data, plaintext);
    }

    // RFC 8439 A.1 test vectors #1 and #2: four consecutive keystream
    // blocks in one buffer exercise the wide kernel against published
    // bytes (the §2 vectors above never span more than two blocks).
    #[test]
    fn rfc8439_appendix_a1_multi_block_keystream() {
        let key = [0u8; 32];
        let nonce = [0u8; 12];
        let mut stream = vec![0u8; 4 * BLOCK_LEN];
        apply_keystream(&key, &nonce, 0, &mut stream);
        // A.1 #1: counter 0.
        assert_eq!(
            hex(&stream[..BLOCK_LEN]),
            "76b8e0ada0f13d90405d6ae55386bd28bdd219b8a08ded1aa836efcc8b770dc7\
             da41597c5157488d7724e03fb8d84a376a43b8f41518a11cc387b669b2ee6586"
        );
        // A.1 #2: counter 1, same zero key and nonce.
        assert_eq!(
            hex(&stream[BLOCK_LEN..2 * BLOCK_LEN]),
            "9f07e7be5551387a98ba977c732d080dcb0f29a048e3656912c6533e32ee7aed\
             29b721769ce64e43d57133b074d839d531ed1f28510afb45ace10a1f4b794d6f"
        );
        // Counters 2 and 3 pin the remaining wide lanes to the scalar
        // block function (itself pinned to §2.3.2 above).
        assert_eq!(
            &stream[2 * BLOCK_LEN..3 * BLOCK_LEN],
            &block(&key, 2, &nonce)
        );
        assert_eq!(&stream[3 * BLOCK_LEN..], &block(&key, 3, &nonce));
    }

    #[test]
    fn keystream_is_counter_continuous() {
        // Applying to one long buffer equals applying block by block.
        let key = [7u8; 32];
        let nonce = [3u8; 12];
        let mut whole = vec![0u8; 200];
        apply_keystream(&key, &nonce, 5, &mut whole);
        let mut pieces = vec![0u8; 200];
        apply_keystream(&key, &nonce, 5, &mut pieces[..64]);
        apply_keystream(&key, &nonce, 6, &mut pieces[64..128]);
        apply_keystream(&key, &nonce, 7, &mut pieces[128..192]);
        apply_keystream(&key, &nonce, 8, &mut pieces[192..]);
        assert_eq!(whole, pieces);
    }

    #[test]
    fn distinct_nonces_give_distinct_streams() {
        let key = [1u8; 32];
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        apply_keystream(&key, &[0u8; 12], 0, &mut a);
        apply_keystream(&key, &[1u8; 12], 0, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn wide_blocks_match_scalar_blocks_across_counter_wrap() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 7) as u8);
        let nonce: [u8; 12] = core::array::from_fn(|i| (i * 13) as u8);
        for counter in [0u32, 1, 1000, u32::MAX - 3, u32::MAX - 1, u32::MAX] {
            let mut wide = [0u8; BLOCK_LEN * WIDE_BLOCKS];
            blocks_wide(&key, counter, &nonce, &mut wide);
            for l in 0..WIDE_BLOCKS {
                assert_eq!(
                    &wide[l * BLOCK_LEN..(l + 1) * BLOCK_LEN],
                    &block(&key, counter.wrapping_add(l as u32), &nonce),
                    "counter={counter} lane={l}"
                );
            }
        }
    }

    #[test]
    fn cursor_at_offset_matches_stream_suffix() {
        let key = [9u8; 32];
        let nonce = [4u8; 12];
        let mut reference = vec![0u8; 1000];
        apply_keystream_scalar(&key, &nonce, 1, &mut reference);
        for offset in [0usize, 1, 63, 64, 65, 128, 257, 640, 999] {
            let mut got = vec![0u8; 1000 - offset];
            KeystreamCursor::at_offset(&key, &nonce, 1, offset).xor_into(&mut got);
            assert_eq!(got, reference[offset..], "offset={offset}");
        }
    }

    proptest! {
        // Tentpole equivalence: the wide path is bit-identical to the
        // scalar loop at arbitrary lengths and counters, including
        // counter-boundary and counter-wrap starts.
        #[test]
        fn prop_wide_equals_scalar(
            len in 0usize..1200,
            counter_seed in any::<u32>(),
            wrap_case in 0usize..3,
            key_seed in any::<u64>(),
        ) {
            // Exercise arbitrary counters plus the wrap boundary and zero.
            let counter = match wrap_case {
                0 => counter_seed,
                1 => u32::MAX - 2,
                _ => 0,
            };
            let key: [u8; 32] = core::array::from_fn(|i| (key_seed >> (i % 8)) as u8 ^ i as u8);
            let nonce: [u8; 12] = core::array::from_fn(|i| (key_seed >> (2 * i % 60)) as u8);
            let mut wide = vec![0xA5u8; len];
            let mut scalar = wide.clone();
            apply_keystream(&key, &nonce, counter, &mut wide);
            apply_keystream_scalar(&key, &nonce, counter, &mut scalar);
            prop_assert_eq!(wide, scalar);
        }

        // A cursor consumed in arbitrary fragments — unaligned offsets,
        // splits inside and across block boundaries — equals one scalar
        // sweep of the same region.
        #[test]
        fn prop_fragmented_cursor_equals_scalar(
            pieces in proptest::collection::vec(1usize..150, 1..12),
            start_offset in 0usize..200,
            counter in any::<u32>(),
        ) {
            let key = [0x42u8; 32];
            let nonce = [0x17u8; 12];
            let total: usize = pieces.iter().sum();
            let mut reference = vec![0u8; start_offset + total];
            apply_keystream_scalar(&key, &nonce, counter, &mut reference);

            let mut got = vec![0u8; total];
            let mut cursor = KeystreamCursor::at_offset(&key, &nonce, counter, start_offset);
            let mut at = 0;
            for p in pieces {
                cursor.xor_into(&mut got[at..at + p]);
                at += p;
            }
            prop_assert_eq!(&got[..], &reference[start_offset..]);
        }
    }
}
