//! Reed–Solomon erasure coding over GF(2^8) for multipath tunnel transfer.
//!
//! TAP transfers historically rode a single forward tunnel: one lossy link
//! or partition window forces the full retry/backoff gauntlet, and one
//! relay sees the entire payload. Striping each payload into `n` coded
//! fragments — any `k` of which reconstruct it — lets `tap-core` ship a
//! transfer across `n` disjoint tunnels concurrently and tolerate up to
//! `n − k` stripe failures without a retry (craftnet's 5/3 design).
//!
//! The codec is systematic and zero-dependency:
//!
//! * arithmetic is GF(2^8) with the AES-adjacent primitive polynomial
//!   `x^8 + x^4 + x^3 + x^2 + 1` (0x11d), via compile-time exp/log tables;
//! * the payload is cut into ~3 KB chunks; each chunk is split into `k`
//!   data shards (zero-padded) interpreted as evaluations of a degree
//!   `< k` polynomial at the field points `0..k`, and the `n − k` parity
//!   shards are the evaluations at points `k..n` (Lagrange interpolation);
//! * fragment `i` carries shard `i` of every chunk, so geometry is fully
//!   derivable from `(payload_len, n, k, chunk)` — no side metadata;
//! * every fragment carries a 4-byte check over its header and body plus
//!   an 8-byte digest of the whole payload, so a corrupted fragment is
//!   *detected* and skipped rather than silently poisoning the decode.
//!
//! The fragment check is an error-detecting code, not a MAC: the first
//! four bytes of a Poly1305 tag under `FRAGMENT_CHECK_KEY`, a public
//! constant. Anyone who alters a fragment can recompute it, as they could
//! any unkeyed hash, so it only ever catches accidents — which a polynomial
//! evaluated at a fixed non-zero point does at a third of a nanosecond a
//! byte. The payload digest (truncated SHA-256) is the one cryptographic
//! check: the leg from a tunnel's tail to its destination carries the
//! fragment outside any AEAD, and the digest is what stands there.
//!
//! `k = 1` degenerates to replication and `(1, 1)` to the identity code,
//! which is exactly the single-path fallback `tap-core` uses when a small
//! or churning overlay cannot supply `n` disjoint tunnels.

use crate::poly1305::Poly1305;
use crate::sha256::sha256;

/// Fragment header: `[n][k][index][payload_len: u32 BE][payload digest; 8][check; 4]`.
pub const HEADER_LEN: usize = CHECK_AT + FRAGMENT_CHECK_LEN;
const PAYLOAD_DIGEST_LEN: usize = 8;
const FRAGMENT_CHECK_LEN: usize = 4;
/// Offset of the check: it covers the header bytes before it and the body.
const CHECK_AT: usize = 3 + 4 + PAYLOAD_DIGEST_LEN;

/// The fragment check's Poly1305 key — public on purpose (module doc). Its
/// clamped `r` is `0x0079_7260_0d70_6174` and `0x0266_2060_0520_6f74`:
/// neither word is zero (`r = 0` makes every tag `s`) or small.
const FRAGMENT_CHECK_KEY: [u8; 32] = *b"tap-crypto ec fragment check key";

/// The first four bytes of the Poly1305 tag of `header[..CHECK_AT] ‖ body`.
fn fragment_check(header: &[u8], body: &[u8]) -> [u8; FRAGMENT_CHECK_LEN] {
    let mut mac = Poly1305::new(&FRAGMENT_CHECK_KEY);
    mac.update(&header[..CHECK_AT]);
    mac.update(body);
    let tag = mac.tag();
    [tag[0], tag[1], tag[2], tag[3]]
}

// GF(2^8) exp/log tables for the primitive polynomial 0x11d with generator
// 2, built at compile time. EXP is doubled so `EXP[LOG[a] + LOG[b]]` never
// needs a modular reduction (the sum is at most 508).
const GF_TABLES: ([u8; 512], [u8; 256]) = build_gf_tables();
const GF_EXP: [u8; 512] = GF_TABLES.0;
const GF_LOG: [u8; 256] = GF_TABLES.1;

const fn build_gf_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= 0x11d;
        }
        i += 1;
    }
    while i < 512 {
        exp[i] = exp[i - 255];
        i += 1;
    }
    (exp, log)
}

#[inline]
fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        GF_EXP[GF_LOG[a as usize] as usize + GF_LOG[b as usize] as usize]
    }
}

/// `dst[i] ^= coeff · src[i]` over GF(2^8) — the encode/reconstruct inner
/// loop. `log(coeff)` is looked up once per call, not once per byte as
/// going through [`gf_mul`] would; coefficient 1 is a plain XOR sweep (at
/// k = 3 the first parity shard is the XOR of the data shards: that is half
/// of a 5/3 encode's calls). DESIGN.md §6h has the wider variant measured
/// against it and why none is worth writing.
#[doc(hidden)]
pub fn gf_mul_acc(coeff: u8, src: &[u8], dst: &mut [u8]) {
    debug_assert!(src.len() >= dst.len());
    if coeff == 0 {
        return;
    }
    if coeff == 1 {
        for (d, &s) in dst.iter_mut().zip(src.iter()) {
            *d ^= s;
        }
        return;
    }
    let log_c = GF_LOG[coeff as usize] as usize;
    for (d, &s) in dst.iter_mut().zip(src.iter()) {
        if s != 0 {
            *d ^= GF_EXP[log_c + GF_LOG[s as usize] as usize];
        }
    }
}

#[inline]
fn gf_inv(a: u8) -> u8 {
    debug_assert_ne!(a, 0, "zero has no inverse in GF(2^8)");
    GF_EXP[255 - GF_LOG[a as usize] as usize]
}

/// The Lagrange row evaluating the degree `< xs.len()` polynomial defined
/// by values at the field points `xs` at the target point `e`: the value
/// at `e` is the GF dot product of the row with the values at `xs`.
fn lagrange_row(xs: &[u8], e: u8) -> Vec<u8> {
    xs.iter()
        .enumerate()
        .map(|(j, &xj)| {
            if xj == e {
                return 1;
            }
            if xs.contains(&e) {
                return 0;
            }
            let mut num = 1u8;
            let mut den = 1u8;
            for (m, &xm) in xs.iter().enumerate() {
                if m == j {
                    continue;
                }
                num = gf_mul(num, e ^ xm);
                den = gf_mul(den, xj ^ xm);
            }
            gf_mul(num, gf_inv(den))
        })
        .collect()
}

/// Why encoding or reconstruction could not proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcError {
    /// `(n, k)` outside `1 ≤ k ≤ n ≤ MAX_FRAGMENTS`, or a zero chunk size.
    BadConfig,
    /// Payload length exceeds the `u32` carried in fragment headers.
    TooLarge,
    /// A fragment failed its header or checksum validation.
    Corrupt,
    /// Fewer intact fragments than the `k` the code requires.
    NotEnough {
        /// Intact, config-consistent fragments seen.
        have: usize,
        /// The `k` of the code.
        need: usize,
    },
    /// Intact fragments disagree on payload length or digest — the caller
    /// mixed fragments from different transfers.
    Inconsistent,
    /// The reconstructed payload failed its end-to-end digest check.
    DigestMismatch,
}

impl std::fmt::Display for EcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcError::BadConfig => write!(f, "erasure config outside 1 <= k <= n <= 64"),
            EcError::TooLarge => write!(f, "payload exceeds u32 length"),
            EcError::Corrupt => write!(f, "fragment failed checksum validation"),
            EcError::NotEnough { have, need } => {
                write!(f, "{have} intact fragments, {need} required")
            }
            EcError::Inconsistent => write!(f, "fragments from different transfers mixed"),
            EcError::DigestMismatch => write!(f, "reconstructed payload digest mismatch"),
        }
    }
}

impl std::error::Error for EcError {}

/// Validated header of a single fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FragmentMeta {
    /// Total fragments the transfer was encoded into.
    pub n: u8,
    /// Fragments required to reconstruct.
    pub k: u8,
    /// This fragment's shard index in `0..n`.
    pub index: u8,
    /// Length of the original payload in bytes.
    pub payload_len: u32,
    /// Truncated SHA-256 of the original payload.
    pub digest: [u8; PAYLOAD_DIGEST_LEN],
}

/// A fragment's header, checked without a config in hand: the fragment
/// check holds and `1 ≤ k ≤ n`, `index < n`. Whether the body has the
/// length the header implies is [`EcConfig::reconstruct`]'s check.
pub fn fragment_meta(fragment: &[u8]) -> Result<FragmentMeta, EcError> {
    let (meta, _) = parse_fragment(fragment)?;
    Ok(meta)
}

fn parse_fragment(fragment: &[u8]) -> Result<(FragmentMeta, &[u8]), EcError> {
    if fragment.len() < HEADER_LEN {
        return Err(EcError::Corrupt);
    }
    let (header, body) = fragment.split_at(HEADER_LEN);
    if fragment_check(header, body) != header[CHECK_AT..] {
        return Err(EcError::Corrupt);
    }
    let meta = FragmentMeta {
        n: header[0],
        k: header[1],
        index: header[2],
        payload_len: u32::from_be_bytes([header[3], header[4], header[5], header[6]]),
        digest: core::array::from_fn(|i| header[7 + i]),
    };
    if meta.k == 0 || meta.k > meta.n || meta.index >= meta.n {
        return Err(EcError::Corrupt);
    }
    Ok((meta, body))
}

/// Result of [`EcConfig::reconstruct`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reconstruction {
    /// The decoded payload, byte-identical to what was encoded.
    pub payload: Vec<u8>,
    /// How many fragments the decode actually consumed (always `k`).
    pub fragments_used: usize,
    /// Positions (in the input slice) of fragments that failed validation
    /// and were skipped. Detection, not correction: a corrupted fragment
    /// never contributes to the decode.
    pub corrupt: Vec<usize>,
}

/// An `(n, k)` Reed–Solomon configuration with a chunking granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EcConfig {
    n: u8,
    k: u8,
    chunk: usize,
}

impl EcConfig {
    /// Default chunk granularity (~3 KB, craftnet's stripe unit).
    pub const DEFAULT_CHUNK: usize = 3072;
    /// Ceiling on `n`: stripe bitmasks elsewhere fit in a `u64`.
    pub(crate) const MAX_FRAGMENTS: u8 = 64;

    /// An `(n, k)` code over [`Self::DEFAULT_CHUNK`]-byte chunks.
    pub fn new(n: u8, k: u8) -> Result<EcConfig, EcError> {
        EcConfig::with_chunk(n, k, EcConfig::DEFAULT_CHUNK)
    }

    /// An `(n, k)` code with an explicit chunk size (tests use small chunks
    /// to exercise multi-chunk geometry cheaply).
    pub fn with_chunk(n: u8, k: u8, chunk: usize) -> Result<EcConfig, EcError> {
        if k == 0 || k > n || n > EcConfig::MAX_FRAGMENTS || chunk == 0 {
            return Err(EcError::BadConfig);
        }
        Ok(EcConfig { n, k, chunk })
    }

    /// Total fragments produced by [`Self::encode`].
    pub fn n(&self) -> u8 {
        self.n
    }

    /// Fragments required by [`Self::reconstruct`].
    pub fn k(&self) -> u8 {
        self.k
    }

    /// Chunk granularity in bytes.
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Body length of each fragment of a `payload_len`-byte payload: a
    /// chunk of `c` bytes puts a `⌈c/k⌉`-byte shard in every fragment, and
    /// every chunk but a ragged last one is `chunk` bytes. Closed form, so
    /// a header claiming `u32::MAX` bytes costs nothing to check.
    fn body_len(&self, payload_len: usize) -> usize {
        let k = usize::from(self.k);
        payload_len / self.chunk * self.chunk.div_ceil(k) + (payload_len % self.chunk).div_ceil(k)
    }

    /// On-wire length of each fragment for a payload of `payload_len` bytes.
    pub fn fragment_len(&self, payload_len: usize) -> usize {
        HEADER_LEN + self.body_len(payload_len)
    }

    /// Encode `payload` into `n` fragments, any `k` of which reconstruct it.
    /// Each is allocated at its exact length and written once, in place:
    /// header, then chunk by chunk its shard, then the check.
    pub fn encode(&self, payload: &[u8]) -> Result<Vec<Vec<u8>>, EcError> {
        let payload_len = u32::try_from(payload.len()).map_err(|_| EcError::TooLarge)?;
        let k = usize::from(self.k);
        let digest = payload_digest(payload);
        let mut frags: Vec<Vec<u8>> = (0..self.n)
            .map(|index| {
                let mut frag = Vec::with_capacity(self.fragment_len(payload.len()));
                frag.extend_from_slice(&[self.n, self.k, index]);
                frag.extend_from_slice(&payload_len.to_be_bytes());
                frag.extend_from_slice(&digest);
                frag.resize(HEADER_LEN, 0);
                frag
            })
            .collect();
        let data_points: Vec<u8> = (0..self.k).collect();
        let parity_rows: Vec<Vec<u8>> = (self.k..self.n)
            .map(|e| lagrange_row(&data_points, e))
            .collect();

        let mut at = HEADER_LEN;
        for data in payload.chunks(self.chunk) {
            let s = data.len().div_ceil(k);
            // Data shard i is the chunk's i-th s-byte piece, zero-padded;
            // a chunk has at most k pieces, so parity shards start at zero.
            let mut pieces = data.chunks(s);
            for frag in frags.iter_mut() {
                frag.extend_from_slice(pieces.next().unwrap_or_default());
                frag.resize(at + s, 0);
            }
            let (data_frags, parity_frags) = frags.split_at_mut(k);
            for (parity, row) in parity_frags.iter_mut().zip(&parity_rows) {
                for (&coeff, src) in row.iter().zip(data_frags.iter()) {
                    gf_mul_acc(coeff, &src[at..], &mut parity[at..]);
                }
            }
            at += s;
        }
        for frag in &mut frags {
            seal_fragment(frag);
        }
        Ok(frags)
    }

    /// Reconstruct the payload from any `k` intact fragments (any order,
    /// duplicates and corrupted fragments tolerated and reported).
    pub fn reconstruct(&self, fragments: &[Vec<u8>]) -> Result<Reconstruction, EcError> {
        let k = usize::from(self.k);
        let mut corrupt = Vec::new();
        // Each intact fragment's body by shard index; the first copy wins.
        let mut present = [None::<&[u8]>; EcConfig::MAX_FRAGMENTS as usize];
        let mut reference: Option<(u32, [u8; PAYLOAD_DIGEST_LEN])> = None;
        for (pos, fragment) in fragments.iter().enumerate() {
            let parsed = parse_fragment(fragment).ok().filter(|(meta, body)| {
                (meta.n, meta.k) == (self.n, self.k)
                    && body.len() == self.body_len(meta.payload_len as usize)
            });
            let Some((meta, body)) = parsed else {
                corrupt.push(pos);
                continue;
            };
            match reference {
                None => reference = Some((meta.payload_len, meta.digest)),
                Some((len, digest)) if len != meta.payload_len || digest != meta.digest => {
                    return Err(EcError::Inconsistent);
                }
                Some(_) => {}
            }
            present[usize::from(meta.index)].get_or_insert(body);
        }
        // The k lowest shard indices that arrived: every data shard that
        // arrived is among them. Any kept fragment set `reference`.
        let kept: Vec<(u8, &[u8])> = (0..self.n)
            .zip(present)
            .filter_map(|(index, body)| Some((index, body?)))
            .take(k)
            .collect();
        let Some((payload_len, digest)) = reference.filter(|_| kept.len() == k) else {
            return Err(EcError::NotEnough {
                have: kept.len(),
                need: k,
            });
        };

        let xs: Vec<u8> = kept.iter().map(|&(index, _)| index).collect();
        // One interpolation row per *missing* data shard; a shard that
        // arrived copies straight out of its body and needs none.
        let rows: Vec<Vec<u8>> = (0..self.k)
            .zip(present)
            .map(|(i, body)| match body {
                Some(_) => Vec::new(),
                None => lagrange_row(&xs, i),
            })
            .collect();

        let mut payload = vec![0u8; payload_len as usize];
        let mut body_off = 0;
        for chunk in payload.chunks_mut(self.chunk) {
            let s = chunk.len().div_ceil(k);
            // Data shard i fills the chunk's i-th s-byte piece; a short
            // chunk has fewer than k pieces and the last may be ragged.
            for ((row, shard), dst) in rows.iter().zip(present).zip(chunk.chunks_mut(s)) {
                match shard {
                    Some(body) => dst.copy_from_slice(&body[body_off..body_off + dst.len()]),
                    None => {
                        for (&coeff, (_, body)) in row.iter().zip(&kept) {
                            // `dst` may be shorter than the shard at the
                            // payload tail; the kernel clamps to it.
                            gf_mul_acc(coeff, &body[body_off..body_off + s], dst);
                        }
                    }
                }
            }
            body_off += s;
        }
        if payload_digest(&payload) != digest {
            return Err(EcError::DigestMismatch);
        }
        Ok(Reconstruction {
            payload,
            fragments_used: k,
            corrupt,
        })
    }
}

/// Write the check of a fragment whose other bytes are final.
fn seal_fragment(frag: &mut [u8]) {
    let (header, body) = frag.split_at_mut(HEADER_LEN);
    let check = fragment_check(header, body);
    header[CHECK_AT..].copy_from_slice(&check);
}

fn payload_digest(payload: &[u8]) -> [u8; PAYLOAD_DIGEST_LEN] {
    let full = sha256(payload);
    core::array::from_fn(|i| full[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_payload(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u32).wrapping_mul(31).to_le_bytes()[0] ^ (i >> 8) as u8)
            .collect()
    }

    #[test]
    fn mul_acc_matches_per_byte_gf_mul_for_every_coefficient() {
        let src: Vec<u8> = (0..61u8)
            .map(|i| i.wrapping_mul(37).wrapping_add(5))
            .collect();
        for coeff in 0u16..=255 {
            let coeff = coeff as u8;
            let mut kernel = vec![0x5Au8; 61];
            let mut reference = kernel.clone();
            gf_mul_acc(coeff, &src, &mut kernel);
            for (p, &b) in reference.iter_mut().zip(src.iter()) {
                *p ^= gf_mul(coeff, b);
            }
            assert_eq!(kernel, reference, "coeff={coeff}");
        }
    }

    #[test]
    fn gf_tables_are_a_group() {
        for a in 1u16..=255 {
            let a = a as u8;
            assert_eq!(gf_mul(a, gf_inv(a)), 1, "a * a^-1 == 1 for a={a}");
            assert_eq!(gf_mul(a, 1), a);
            assert_eq!(gf_mul(a, 0), 0);
        }
        // Distributivity spot check across the generator orbit.
        assert_eq!(gf_mul(3, gf_mul(7, 9)), gf_mul(gf_mul(3, 7), 9));
    }

    #[test]
    fn default_config_is_five_three() {
        let cfg = EcConfig::new(5, 3).unwrap();
        assert_eq!((cfg.n(), cfg.k(), cfg.chunk()), (5, 3, 3072));
        assert!(EcConfig::new(0, 0).is_err());
        assert!(EcConfig::new(3, 5).is_err());
        assert!(EcConfig::new(65, 3).is_err());
        assert!(EcConfig::with_chunk(5, 3, 0).is_err());
    }

    #[test]
    fn roundtrip_multi_chunk_unaligned() {
        let cfg = EcConfig::new(5, 3).unwrap();
        let payload = sample_payload(2 * 3072 + 17);
        let frags = cfg.encode(&payload).unwrap();
        assert_eq!(frags.len(), 5);
        for f in &frags {
            assert_eq!(f.len(), cfg.fragment_len(payload.len()));
        }
        // Drop the two data fragments carrying the front of the payload:
        // reconstruction must come entirely out of parity.
        let kept = frags[2..].to_vec();
        let r = cfg.reconstruct(&kept).unwrap();
        assert_eq!(r.payload, payload);
        assert_eq!(r.fragments_used, 3);
        assert!(r.corrupt.is_empty());
    }

    #[test]
    fn empty_and_single_byte_payloads() {
        let cfg = EcConfig::new(5, 3).unwrap();
        for len in [0usize, 1] {
            let payload = sample_payload(len);
            let frags = cfg.encode(&payload).unwrap();
            let r = cfg.reconstruct(&frags[..3]).unwrap();
            assert_eq!(r.payload, payload, "len={len}");
        }
    }

    #[test]
    fn identity_and_replication_degenerate_codes() {
        let single = EcConfig::new(1, 1).unwrap();
        let payload = sample_payload(100);
        let frags = single.encode(&payload).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!(single.reconstruct(&frags).unwrap().payload, payload);

        let replicated = EcConfig::new(3, 1).unwrap();
        let frags = replicated.encode(&payload).unwrap();
        for f in &frags {
            let r = replicated.reconstruct(std::slice::from_ref(f)).unwrap();
            assert_eq!(r.payload, payload, "any single replica suffices");
        }
    }

    #[test]
    fn mixed_transfers_are_rejected() {
        let cfg = EcConfig::new(5, 3).unwrap();
        let a = cfg.encode(&sample_payload(64)).unwrap();
        let b = cfg.encode(&sample_payload(65)).unwrap();
        let mixed = vec![a[0].clone(), a[1].clone(), b[2].clone()];
        assert_eq!(cfg.reconstruct(&mixed), Err(EcError::Inconsistent));
    }

    #[test]
    fn meta_reports_header_fields() {
        let cfg = EcConfig::new(5, 3).unwrap();
        let frags = cfg.encode(&sample_payload(10)).unwrap();
        let meta = fragment_meta(&frags[4]).unwrap();
        assert_eq!(
            (meta.n, meta.k, meta.index, meta.payload_len),
            (5, 3, 4, 10)
        );
        assert_eq!(fragment_meta(b"short"), Err(EcError::Corrupt));
    }

    /// `frag` with its check recomputed over whatever header and body it
    /// now has: the check's key is public, so anyone can put this on the wire.
    fn recheck(mut frag: Vec<u8>) -> Vec<u8> {
        seal_fragment(&mut frag);
        frag
    }

    /// Recorded on the first build with the Poly1305 check (the SHA-256
    /// check before it gave other bytes): the check of each fragment of a
    /// 5/3 code over 48-byte chunks, at payloads of 0, 1, 47 and 200 bytes,
    /// read big-endian.
    #[rustfmt::skip]
    const CHECKS_5_3: [[u32; 5]; 4] = [
        [0xd86e_bd30, 0xda71_3192, 0xd774_a5f3, 0xd977_1955, 0xdb7a_8db6],
        [0xc45a_074c, 0xc65d_7bad, 0xc360_ef0e, 0xc563_6370, 0xc266_d7d1],
        [0x013b_dfb9, 0xc5b4_4c61, 0x4b01_cf7e, 0x0b00_ebc4, 0x034f_3565],
        [0x6949_63e7, 0x4fb4_5ab4, 0x496a_c2d1, 0xe31c_2cc4, 0x5d8c_274f],
    ];

    /// The pinned bytes, and each one the independent 26-bit-limb Poly1305
    /// oracle's tag prefix over `header[..CHECK_AT] ‖ body`.
    #[test]
    fn check_bytes_are_the_ones_recorded() {
        let cfg = EcConfig::with_chunk(5, 3, 48).unwrap();
        let got = [0, 1, 47, 200].map(|len| {
            let frags = cfg.encode(&sample_payload(len)).unwrap();
            core::array::from_fn(|i| {
                let (header, body) = frags[i].split_at(HEADER_LEN);
                let covered = [&header[..CHECK_AT], body].concat();
                let oracle =
                    crate::poly1305::tests::poly1305_reference(&FRAGMENT_CHECK_KEY, &covered);
                assert_eq!(header[CHECK_AT..], oracle[..FRAGMENT_CHECK_LEN]);
                u32::from_be_bytes(oracle[..4].try_into().unwrap())
            })
        });
        assert_eq!(got, CHECKS_5_3);
    }

    // RFC 8439's clamp. With r = 0 every check would be `s`, whatever the
    // fragment; a small word would leave most of h's bits unmixed.
    #[test]
    fn the_check_key_clamps_to_a_large_r() {
        let word =
            |i: usize| u64::from_le_bytes(FRAGMENT_CHECK_KEY[8 * i..8 * i + 8].try_into().unwrap());
        let r = [
            word(0) & 0x0fff_fffc_0fff_ffff,
            word(1) & 0x0fff_fffc_0fff_fffc,
        ];
        assert_eq!(r, [0x0079_7260_0d70_6174, 0x0266_2060_0520_6f74]);
        assert!(r.iter().all(|&w| w > 1 << 48), "{r:x?}");
    }

    #[test]
    fn every_single_bit_flip_is_corrupt() {
        let cfg = EcConfig::with_chunk(5, 3, 48).unwrap();
        for len in [1, 47, 200] {
            for frag in cfg.encode(&sample_payload(len)).unwrap() {
                assert!(fragment_meta(&frag).is_ok());
                for bit in 0..8 * frag.len() {
                    let mut flipped = frag.clone();
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    assert_eq!(
                        fragment_meta(&flipped),
                        Err(EcError::Corrupt),
                        "len={len} bit={bit}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_byte_appended_or_dropped_is_corrupt() {
        let cfg = EcConfig::with_chunk(5, 3, 48).unwrap();
        let payload = sample_payload(200);
        for (victim, append) in [(1, true), (3, false)] {
            let mut frags = cfg.encode(&payload).unwrap();
            if append {
                frags[victim].push(0xA5);
            } else {
                frags[victim].pop();
            }
            assert_eq!(fragment_meta(&frags[victim]), Err(EcError::Corrupt));
            let r = cfg.reconstruct(&frags).unwrap();
            assert_eq!(r.corrupt, vec![victim]);
            assert_eq!(r.payload, payload);
        }
    }

    fn reforge(frag: &[u8], n: u8, k: u8, index: u8, payload_len: u32) -> Vec<u8> {
        let mut frag = frag.to_vec();
        frag[..3].copy_from_slice(&[n, k, index]);
        frag[3..7].copy_from_slice(&payload_len.to_be_bytes());
        recheck(frag)
    }

    #[test]
    fn a_checksummed_header_claiming_u32_max_bytes_is_corrupt() {
        let cfg = EcConfig::new(5, 3).unwrap();
        let payload = sample_payload(100);
        let mut frags = cfg.encode(&payload).unwrap();
        frags[0] = reforge(&frags[0], 5, 3, 0, u32::MAX);
        assert_eq!(fragment_meta(&frags[0]).unwrap().payload_len, u32::MAX);
        let r = cfg.reconstruct(&frags).unwrap();
        assert_eq!(r.corrupt, vec![0]);
        assert_eq!(r.payload, payload);
    }

    proptest! {
        // Kernel ≡ per-byte `gf_mul` at arbitrary lengths, offsets into a
        // larger buffer, accumulator contents and coefficients.
        #[test]
        fn prop_mul_acc_equals_per_byte_gf_mul(
            coeff in any::<u8>(),
            src in proptest::collection::vec(any::<u8>(), 0..300),
            skip in 0usize..8,
            acc_seed in any::<u8>(),
        ) {
            let src = if skip < src.len() { &src[skip..] } else { &src[..0] };
            let mut kernel = vec![acc_seed; src.len()];
            gf_mul_acc(coeff, src, &mut kernel);
            let reference: Vec<u8> = src.iter().map(|&b| acc_seed ^ gf_mul(coeff, b)).collect();
            prop_assert_eq!(kernel, reference);
        }

        // The full codec stays correct over the whole (n, k) envelope up
        // to MAX_FRAGMENTS = 64.
        #[test]
        fn prop_roundtrip_all_nk_up_to_64(
            n in 1u8..=64,
            k_seed in any::<u8>(),
            payload in proptest::collection::vec(any::<u8>(), 0..300),
            drop_seed in any::<u64>(),
        ) {
            let k = 1 + k_seed % n;
            let cfg = EcConfig::with_chunk(n, k, 96).unwrap();
            let frags = cfg.encode(&payload).unwrap();
            prop_assert_eq!(frags.len(), n as usize);
            // Keep a pseudo-random k-subset of the n fragments.
            let mut kept: Vec<Vec<u8>> = Vec::with_capacity(k as usize);
            let mut state = drop_seed | 1;
            let mut order: Vec<usize> = (0..n as usize).collect();
            for i in (1..order.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                order.swap(i, (state >> 33) as usize % (i + 1));
            }
            for &i in order.iter().take(k as usize) {
                kept.push(frags[i].clone());
            }
            let r = cfg.reconstruct(&kept).unwrap();
            prop_assert_eq!(r.payload, payload);
            prop_assert_eq!(r.fragments_used, k as usize);
        }

        #[test]
        fn roundtrip_under_every_erasure_pattern(
            n in 2u8..7,
            k_seed in any::<u8>(),
            payload in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let k = 1 + k_seed % n;
            let cfg = EcConfig::with_chunk(n, k, 48).unwrap();
            let frags = cfg.encode(&payload).unwrap();
            // Every erasure pattern losing up to n - k fragments.
            for mask in 0u32..(1u32 << n) {
                if mask.count_ones() < k as u32 {
                    continue;
                }
                let kept: Vec<Vec<u8>> = frags
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, f)| f.clone())
                    .collect();
                let r = cfg.reconstruct(&kept).unwrap();
                prop_assert_eq!(&r.payload, &payload, "mask {:05b}", mask);
                prop_assert!(r.corrupt.is_empty());
            }
            // Below k intact fragments, reconstruction refuses.
            if k > 1 {
                let starved = frags[..k as usize - 1].to_vec();
                prop_assert_eq!(
                    cfg.reconstruct(&starved),
                    Err(EcError::NotEnough { have: k as usize - 1, need: k as usize })
                );
            }
        }

        #[test]
        fn corrupted_fragment_is_detected(
            payload in proptest::collection::vec(any::<u8>(), 1..160),
            victim_seed in any::<u8>(),
            flip_seed in any::<u64>(),
        ) {
            let cfg = EcConfig::with_chunk(5, 3, 48).unwrap();
            let mut frags = cfg.encode(&payload).unwrap();
            let victim = (victim_seed % 5) as usize;
            let flip_at = flip_seed as usize % frags[victim].len();
            frags[victim][flip_at] ^= 0x41;
            // With all five fragments present the corrupted one is skipped
            // and reported; the decode still succeeds from the other four.
            let r = cfg.reconstruct(&frags).unwrap();
            prop_assert_eq!(&r.payload, &payload);
            prop_assert_eq!(&r.corrupt, &vec![victim]);
            // With exactly k fragments including the corrupted one, the
            // decode refuses rather than returning garbage.
            let kept = frags[victim.min(2)..victim.min(2) + 3].to_vec();
            let starved = cfg.reconstruct(&kept);
            prop_assert!(
                starved == Err(EcError::NotEnough { have: 2, need: 3 }),
                "expected NotEnough, got {:?}", starved
            );
        }

        // Whatever arrives — noise, noise with a valid check, a genuine
        // fragment cut short or with a bit flipped, or one whose header was
        // rewritten and its check recomputed, from codes of other (n, k) —
        // `fragment_meta` and `reconstruct` return instead of panicking, and
        // a decode that succeeds is the payload that was encoded.
        #[test]
        fn damaged_fragments_never_panic(
            payload in proptest::collection::vec(any::<u8>(), 0..200),
            codes in (1u8..8, any::<u8>(), 1u8..8, any::<u8>()),
            noise in proptest::collection::vec(any::<u8>(), 0..64),
            damage in proptest::collection::vec((0u8..4, any::<usize>(), any::<u32>()), 1..8),
        ) {
            let (n, k_seed, n2, k2_seed) = codes;
            let cfg = EcConfig::with_chunk(n, 1 + k_seed % n, 48).unwrap();
            let other = EcConfig::with_chunk(n2, 1 + k2_seed % n2, 32).unwrap();
            let mut genuine = cfg.encode(&payload).unwrap();
            genuine.extend(other.encode(&payload).unwrap());
            let mut frags = vec![noise.clone()];
            if noise.len() >= HEADER_LEN {
                frags.push(recheck(noise));
            }
            for (i, &(how, at, value)) in damage.iter().enumerate() {
                let f = &genuine[i % genuine.len()];
                frags.push(match how {
                    0 => f[..at % (f.len() + 1)].to_vec(),
                    1 => {
                        let mut f = f.clone();
                        let at = at % f.len();
                        f[at] ^= 1 << (value % 8);
                        f
                    }
                    2 => {
                        let n = 1 + (value % 8) as u8;
                        let k = 1 + (value >> 3) as u8 % n;
                        let index = (value >> 6) as u8 % n;
                        let lens = [u32::MAX, value, payload.len() as u32 + 1, payload.len() as u32];
                        reforge(f, n, k, index, lens[at % lens.len()])
                    }
                    _ => f.clone(),
                });
            }
            for f in &frags {
                if let Ok(meta) = fragment_meta(f) {
                    prop_assert!(1 <= meta.k && meta.k <= meta.n && meta.index < meta.n);
                }
            }
            for code in [cfg, other] {
                if let Ok(r) = code.reconstruct(&frags) {
                    prop_assert_eq!(&r.payload, &payload);
                }
            }
        }
    }
}
