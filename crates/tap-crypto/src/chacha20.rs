//! The ChaCha20 stream cipher (RFC 8439), our `{m}_K`.
//!
//! The paper treats the symmetric cipher as a black box; we pick ChaCha20
//! because it is simple enough to implement from scratch without lookup
//! tables or unsafe code, and because RFC 8439 publishes complete
//! intermediate test vectors to validate against.
//!
//! [`block`] is the RFC's block function, one 64-byte block per call, kept
//! verbatim against the RFC vectors: it serves ragged tails, passes too
//! short for a vector step and the tests' oracle. Everything else goes
//! through one multi-block kernel, `rounds`: the same twenty rounds on up
//! to `LANES` blocks at once — sixteen state rows, one `u32` per block in
//! each — where every lane starts from its own initial state, so one pass
//! can hold blocks of different `(key, nonce, counter)`s. A long stream's
//! consecutive blocks are one case of it (`xor_blocks`), the first blocks
//! of several streams another (`KeystreamCursor::fill_windows`).
//!
//! [`KeystreamCursor`] positions the keystream at any *byte* offset; it is
//! counter-continuous with the one-block-at-a-time stream everywhere, so
//! every consumer — [`apply_keystream`], the sealed-cipher path, the fused
//! onion codec — produces the bytes that loop would.

/// Key width in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce width in bytes (the RFC 8439 96-bit nonce).
pub const NONCE_LEN: usize = 12;
/// Keystream block width in bytes.
pub const BLOCK_LEN: usize = 64;
/// Most blocks one kernel pass computes, and most a cursor's window holds.
/// LLVM learns `n <= LANES` from the lane kernel's call sites, which slice
/// rows `LANES` long: a lane loop it knows to run 8 times or fewer is
/// unrolled before the loop vectoriser sees it, and one it knows to run
/// fewer than 16 times the vectoriser declines. 16 is the smallest width
/// that comes out as vector code (DESIGN.md §6h).
pub(crate) const LANES: usize = 16;
/// Fewest blocks worth a kernel pass: under one vector's width the lane
/// loop runs no vector step, and [`block`] is cheaper.
const MIN_LANES: usize = 4;
/// Keystream bytes a cursor's window holds: one full pass.
const WINDOW_LEN: usize = LANES * BLOCK_LEN;

/// A block's initial state: the constants, key, counter (word 12) and
/// nonce of RFC 8439 §2.3.
type State = [u32; 16];

#[inline(always)]
fn quarter_round(state: &mut State, a: usize, b: usize, c: usize, d: usize) {
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
fn init_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> State {
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
    block_of(&init_state(key, counter, nonce))
}

/// The block function on an initial state.
fn block_of(state: &State) -> [u8; BLOCK_LEN] {
    let mut working = *state;
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

/// One quarter round on `a.len()` blocks at once: element `l` of each row
/// is that state word of block `l`.
///
/// The shape is the point (DESIGN.md §6h): the whole quarter round in one
/// loop body, in a function of its own so that no caller's constants are
/// inlined into it. Such a loop is still a loop when LLVM's *loop*
/// vectoriser runs, and comes out as four-lane
/// `paddd`/`pxor`/`pslld`/`psrld`/`por` on baseline x86-64. A lane loop
/// over `[u32; 4]` rows is fully unrolled first, the SLP vectoriser gives
/// up on the result, and what is left is one scalar `rol` per lane. The
/// rows are slices, not `[u32; LANES]`, so that a short pass runs only its
/// own lanes. `scripts/check_vectorised.sh` holds the compiler to it.
#[inline(never)]
fn quarter_round_lanes(a: &mut [u32], b: &mut [u32], c: &mut [u32], d: &mut [u32]) {
    let n = a.len();
    let (b, c, d) = (&mut b[..n], &mut c[..n], &mut d[..n]);
    for l in 0..n {
        a[l] = a[l].wrapping_add(b[l]);
        d[l] = (d[l] ^ a[l]).rotate_left(16);
        c[l] = c[l].wrapping_add(d[l]);
        b[l] = (b[l] ^ c[l]).rotate_left(12);
        a[l] = a[l].wrapping_add(b[l]);
        d[l] = (d[l] ^ a[l]).rotate_left(8);
        c[l] = c[l].wrapping_add(d[l]);
        b[l] = (b[l] ^ c[l]).rotate_left(7);
    }
}

/// The state words of up to [`LANES`] blocks, one lane a block: word `i`
/// of lane `l` is `[i / 4][i % 4][l]`. Every quarter round takes its a
/// from rows 0–3, b from 4–7, c from 8–11 and d from 12–15, so the four
/// groups can be borrowed apart once.
type Lanes = [[[u32; LANES]; 4]; 4];

/// One pass of the kernel: the twenty rounds, in place, on lanes `0..n` of
/// `s`. Lanes share nothing but the pass, so each may start from its own
/// key, nonce and counter; a lane's keystream block is its rounds' result
/// plus its initial state, word by word, added as the caller reads it out.
#[inline(always)]
fn rounds(s: &mut Lanes, n: usize) {
    let [a, b, c, d] = s;
    for _ in 0..10 {
        // A column round (`shift` 0), then a diagonal one.
        for shift in 0..2 {
            for i in 0..4 {
                quarter_round_lanes(
                    &mut a[i][..n],
                    &mut b[(i + shift) % 4][..n],
                    &mut c[(i + 2 * shift) % 4][..n],
                    &mut d[(i + 3 * shift) % 4][..n],
                );
            }
        }
    }
}

/// XOR the keystream blocks at counters `state[12]`, `state[12] + 1`, …
/// (wrapping, as the one-block loop does) into `data`, a whole number of
/// blocks and at most [`LANES`] of them, each bit-identical to [`block`] at
/// its counter: the kernel's consecutive-counter pass, one stream in every
/// lane.
fn xor_blocks(state: &State, data: &mut [u8]) {
    let n = data.len() / BLOCK_LEN;
    debug_assert!(n <= LANES && data.len() == n * BLOCK_LEN);
    let word = |i: usize, l: usize| {
        if i == 12 {
            state[12].wrapping_add(l as u32)
        } else {
            state[i]
        }
    };
    let mut s: Lanes = core::array::from_fn(|g| {
        core::array::from_fn(|r| core::array::from_fn(|l| word(4 * g + r, l)))
    });
    rounds(&mut s, n);
    for (l, out) in data.chunks_exact_mut(BLOCK_LEN).enumerate() {
        for (i, bytes) in out.as_chunks_mut::<4>().0.iter_mut().enumerate() {
            let ks = s[i / 4][i % 4][l].wrapping_add(word(i, l));
            *bytes = (u32::from_le_bytes(*bytes) ^ ks).to_le_bytes();
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
/// positionable at any byte offset.
///
/// Whole blocks are XORed into the caller's bytes as they are computed.
/// Keystream computed ahead of the position waits in a window of up to 16
/// blocks: the block a call ends (or [`KeystreamCursor::at_offset`]
/// starts) inside, or the blocks the crate's AEAD and onion seal computed
/// for several cursors in shared kernel passes. Arbitrarily fragmented [`KeystreamCursor::xor_into`]
/// calls therefore see every block computed exactly once, and the bytes
/// produced are identical to the one-block-at-a-time stream at the same
/// offsets, whatever the call pattern.
#[derive(Debug, Clone)]
pub struct KeystreamCursor {
    /// Initial state of the next block to generate; word 12 is its counter.
    state: State,
    /// `window[pos..len]` are the stream's next bytes, already computed.
    window: [u8; WINDOW_LEN],
    pos: usize,
    len: usize,
}

impl KeystreamCursor {
    /// A cursor at byte 0 of the stream starting at `initial_counter`
    /// (the position [`apply_keystream`] starts from).
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], initial_counter: u32) -> Self {
        KeystreamCursor {
            state: init_state(key, initial_counter, nonce),
            window: [0u8; WINDOW_LEN],
            pos: 0,
            len: 0,
        }
    }

    /// Move this cursor to byte 0 of another stream, as
    /// [`KeystreamCursor::new`] would place it, without clearing the
    /// window it is about to overwrite.
    pub(crate) fn restart(
        &mut self,
        key: &[u8; KEY_LEN],
        nonce: &[u8; NONCE_LEN],
        initial_counter: u32,
    ) {
        self.state = init_state(key, initial_counter, nonce);
        self.pos = 0;
        self.len = 0;
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
        let counter = initial_counter.wrapping_add((byte_offset / BLOCK_LEN) as u32);
        let mut c = KeystreamCursor::new(key, nonce, counter);
        let skip = byte_offset % BLOCK_LEN;
        if skip != 0 {
            // Materialize the straddled block and discard its head.
            c.next_carry(skip);
        }
        c
    }

    /// Compute the next block into the window, its first `pos` bytes spent.
    fn next_carry(&mut self, pos: usize) {
        self.window[..BLOCK_LEN].copy_from_slice(&block_of(&self.state));
        self.advance(1);
        self.pos = pos;
        self.len = BLOCK_LEN;
    }

    fn advance(&mut self, blocks: usize) {
        self.state[12] = self.state[12].wrapping_add(blocks as u32);
    }

    /// Fill every cursor's window with its next `blocks(i)` keystream
    /// blocks (`i` indexes `cursors`; at most [`LANES`] are taken), the
    /// blocks of all of them computed together in passes of up to `LANES`
    /// lanes. A cursor must have spent its window, as a new one has; what
    /// it produces afterwards is unchanged, only computed sooner.
    pub(crate) fn fill_windows(cursors: &mut [KeystreamCursor], blocks: impl Fn(usize) -> usize) {
        let mut init: Lanes = [[[0; LANES]; 4]; 4];
        // Where each lane's block goes: (cursor, byte offset in its window).
        let mut dest = [(0usize, 0usize); LANES];
        let mut n = 0;
        for c in 0..cursors.len() {
            let cursor = &mut cursors[c];
            debug_assert_eq!(cursor.pos, cursor.len, "fill over an unspent window");
            cursor.pos = 0;
            cursor.len = blocks(c).min(LANES) * BLOCK_LEN;
            for at in (0..cursor.len).step_by(BLOCK_LEN) {
                let cursor = &mut cursors[c];
                for (i, &w) in cursor.state.iter().enumerate() {
                    init[i / 4][i % 4][n] = w;
                }
                cursor.advance(1);
                dest[n] = (c, at);
                n += 1;
                if n == LANES {
                    Self::store_lanes(cursors, &init, &dest);
                    n = 0;
                }
            }
        }
        Self::store_lanes(cursors, &init, &dest[..n]);
    }

    /// Compute lanes `0..dest.len()` of `init` and store lane `l`'s block
    /// at `dest[l]`.
    fn store_lanes(cursors: &mut [KeystreamCursor], init: &Lanes, dest: &[(usize, usize)]) {
        if dest.len() < MIN_LANES {
            for (l, &(c, at)) in dest.iter().enumerate() {
                let state = core::array::from_fn(|i| init[i / 4][i % 4][l]);
                cursors[c].window[at..at + BLOCK_LEN].copy_from_slice(&block_of(&state));
            }
            return;
        }
        let mut s = *init;
        rounds(&mut s, dest.len());
        for (l, &(c, at)) in dest.iter().enumerate() {
            let out = &mut cursors[c].window[at..at + BLOCK_LEN];
            for (i, bytes) in out.as_chunks_mut::<4>().0.iter_mut().enumerate() {
                let (g, r) = (i / 4, i % 4);
                *bytes = s[g][r][l].wrapping_add(init[g][r][l]).to_le_bytes();
            }
        }
    }

    /// XOR the next `data.len()` keystream bytes into `data`, advancing
    /// the cursor.
    #[inline]
    pub fn xor_into(&mut self, data: &mut [u8]) {
        let (head, rest) = data.split_at_mut(data.len().min(self.len - self.pos));
        xor_bytes(head, &self.window[self.pos..self.len]);
        self.pos += head.len();
        if !rest.is_empty() {
            self.xor_past_window(rest);
        }
    }

    /// [`KeystreamCursor::xor_into`] once the window is spent.
    fn xor_past_window(&mut self, data: &mut [u8]) {
        let (whole, tail) = data.split_at_mut(data.len() / BLOCK_LEN * BLOCK_LEN);
        for pass in whole.chunks_mut(WINDOW_LEN) {
            let n = pass.len() / BLOCK_LEN;
            if n >= MIN_LANES {
                xor_blocks(&self.state, pass);
                self.advance(n);
            } else {
                for one in pass.chunks_exact_mut(BLOCK_LEN) {
                    xor_bytes(one, &block_of(&self.state));
                    self.advance(1);
                }
            }
        }
        if !tail.is_empty() {
            self.next_carry(tail.len());
            xor_bytes(tail, &self.window[..BLOCK_LEN]);
        }
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

    /// The one-block-at-a-time loop: the reference every kernel and cursor
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

    // RFC 8439 A.1 test vectors #1 and #2 as lanes 0 and 1 of a full
    // kernel pass (the §2 vectors above never span more than two blocks);
    // the other lanes and the two blocks after the pass are pinned to the
    // block function, itself pinned to §2.3.2 above.
    #[test]
    fn rfc8439_appendix_a1_multi_block_keystream() {
        let key = [0u8; 32];
        let nonce = [0u8; 12];
        let mut stream = vec![0u8; (LANES + 2) * BLOCK_LEN];
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
        for (counter, ks) in stream.chunks_exact(BLOCK_LEN).enumerate().skip(2) {
            assert_eq!(ks, block(&key, counter as u32, &nonce), "block {counter}");
        }
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

    /// `apply_keystream` against the one-block loop on a patterned buffer.
    fn assert_matches_scalar(len: usize, counter: u32) {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 7) as u8);
        let nonce: [u8; 12] = core::array::from_fn(|i| (i * 13) as u8);
        let mut got: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        let mut expect = got.clone();
        apply_keystream(&key, &nonce, counter, &mut got);
        apply_keystream_scalar(&key, &nonce, counter, &mut expect);
        assert_eq!(got, expect, "len={len} counter={counter}");
    }

    // Every lane count a pass can have: with four-lane vectors, `n % 4`
    // lanes go through the lane loop's scalar epilogue, and under
    // `MIN_LANES` the blocks never reach the kernel. Each count alone, then
    // behind one and two full passes, one byte short and one byte over.
    #[test]
    fn every_lane_count_and_pass_boundary_matches_scalar() {
        for full_passes in 0..3 {
            for lanes in 0..=LANES {
                let edge = (full_passes * LANES + lanes) * BLOCK_LEN;
                for len in [edge.saturating_sub(1), edge, edge + 1] {
                    assert_matches_scalar(len, 1);
                }
            }
        }
    }

    // The counter wraps *inside* a pass, at every lane, and inside the
    // second pass too.
    #[test]
    fn counter_wraps_at_every_lane_of_a_pass() {
        for k in 0..LANES as u32 {
            assert_matches_scalar(2 * LANES * BLOCK_LEN + 37, u32::MAX - k);
            assert_matches_scalar(
                2 * LANES * BLOCK_LEN,
                (u32::MAX - k).wrapping_sub(LANES as u32),
            );
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
        // The kernel path is bit-identical to the scalar loop at arbitrary
        // lengths (up to three passes and a tail) and counters, including
        // counter-boundary and counter-wrap starts.
        #[test]
        fn prop_kernel_equals_scalar(
            len in 0usize..(3 * LANES * BLOCK_LEN + 200),
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
            let mut got = vec![0xA5u8; len];
            let mut scalar = got.clone();
            apply_keystream(&key, &nonce, counter, &mut got);
            apply_keystream_scalar(&key, &nonce, counter, &mut scalar);
            prop_assert_eq!(got, scalar);
        }

        // A cursor consumed in arbitrary fragments — unaligned offsets,
        // splits inside and across block boundaries, pieces from one byte
        // (window only) to two passes (straight into the buffer) — equals
        // one scalar sweep of the same region. After the straddled block
        // is spent the cursor's window is filled with `window` blocks, as
        // the AEAD and the onion seal fill theirs, and the next piece ends
        // within two bytes of the window's edge.
        #[test]
        fn prop_fragmented_cursor_equals_scalar(
            pieces in proptest::collection::vec(1usize..=2 * LANES * BLOCK_LEN, 1..12),
            start_offset in 0usize..200,
            counter in any::<u32>(),
            window in 0usize..=LANES,
            edge in 0usize..5,
        ) {
            let key = [0x42u8; 32];
            let nonce = [0x17u8; 12];
            let lead = (BLOCK_LEN - start_offset % BLOCK_LEN) % BLOCK_LEN;
            let cut = (window * BLOCK_LEN + edge).saturating_sub(2);
            let lens: Vec<usize> = [lead, cut].into_iter().chain(pieces).collect();
            let total: usize = lens.iter().sum();
            let mut reference = vec![0u8; start_offset + total];
            apply_keystream_scalar(&key, &nonce, counter, &mut reference);

            let mut got = vec![0u8; total];
            let mut cursor = KeystreamCursor::at_offset(&key, &nonce, counter, start_offset);
            let mut at = 0;
            for (k, p) in lens.into_iter().enumerate() {
                if k == 1 {
                    KeystreamCursor::fill_windows(std::slice::from_mut(&mut cursor), |_| window);
                }
                cursor.xor_into(&mut got[at..at + p]);
                at += p;
            }
            prop_assert_eq!(&got[..], &reference[start_offset..]);
        }

        // Windows filled together — up to twenty streams of different keys,
        // nonces and counters, wrapping ones included, so passes mix
        // streams, one stream's window spans two passes and a last pass
        // may be too short for the kernel — hold each stream's own bytes,
        // and each cursor carries on past its window where the scalar
        // loop does.
        #[test]
        fn prop_shared_passes_equal_each_stream(
            counts in proptest::collection::vec(0usize..=LANES + 2, 0..21),
            seed in any::<u64>(),
            wrap in any::<bool>(),
        ) {
            let stream = |i: usize| {
                let key: [u8; KEY_LEN] = core::array::from_fn(|b| (seed >> (b % 8)) as u8 ^ (i * 31 + b) as u8);
                let nonce: [u8; NONCE_LEN] = core::array::from_fn(|b| (seed >> (b % 7)) as u8 ^ i as u8);
                let counter = if wrap { u32::MAX - (i % 5) as u32 } else { (seed as u32).wrapping_mul(i as u32 + 1) };
                (key, nonce, counter)
            };
            let mut cursors: Vec<KeystreamCursor> = (0..counts.len())
                .map(|i| {
                    let (key, nonce, counter) = stream(i);
                    KeystreamCursor::new(&key, &nonce, counter)
                })
                .collect();
            KeystreamCursor::fill_windows(&mut cursors, |i| counts[i]);
            for (i, cursor) in cursors.iter_mut().enumerate() {
                let (key, nonce, counter) = stream(i);
                let len = counts[i].min(LANES) * BLOCK_LEN + 100;
                let mut got = vec![0x3Cu8; len];
                let mut expect = got.clone();
                cursor.xor_into(&mut got[..7]);
                cursor.xor_into(&mut got[7..]);
                apply_keystream_scalar(&key, &nonce, counter, &mut expect);
                prop_assert_eq!(got, expect, "stream {} of {}", i, counts.len());
            }
        }
    }
}
