//! Layered (onion) encryption — the message format of Fig. 1.
//!
//! The initiator produces `{h2, {h3, {D, m}_K3}_K2}_K1`: each layer carries
//! a routing header for the *next* hop plus the sealed remainder. This
//! module provides the generic wrap/peel machinery over
//! [`crate::cipher::SymmetricKey`]s; the TAP crate supplies the concrete
//! header types.
//!
//! Headers are serialized with a tiny length-prefixed framing (no external
//! serialization dependency on the hot path) so a peel is exactly: one
//! `open`, split header from remainder, done — the "single symmetric key
//! operation per message" the paper promises (§4).

use rand::Rng;

use crate::chacha20::{KeystreamCursor, NONCE_LEN};
use crate::cipher::{aead_tag, CipherError, SymmetricKey, TAG_LEN};
use crate::poly1305::Poly1305;

/// Framing prefix: a big-endian `u32` header length.
const LEN_PREFIX: usize = 4;

/// Front-margin bytes [`OnionBuilder`] consumes per layer *beyond* the
/// header itself (nonce plus framing prefix) — size reservations with
/// `LAYER_MARGIN + header.len()` per layer never regrow.
pub const LAYER_MARGIN: usize = NONCE_LEN + LEN_PREFIX;

/// One decrypted layer: the routing header for this hop and the still-sealed
/// remainder destined for the next hop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeeledLayer {
    /// This hop's routing header bytes.
    pub header: Vec<u8>,
    /// The sealed inner onion (empty at the innermost layer).
    pub inner: Vec<u8>,
}

/// Errors from peeling an onion layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnionError {
    /// The layer failed authentication (wrong key or tampering).
    Crypto(CipherError),
    /// The decrypted plaintext did not parse as a framed layer.
    Malformed,
}

impl From<CipherError> for OnionError {
    fn from(e: CipherError) -> Self {
        OnionError::Crypto(e)
    }
}

impl std::fmt::Display for OnionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OnionError::Crypto(e) => write!(f, "onion layer crypto failure: {e}"),
            OnionError::Malformed => write!(f, "onion layer framing malformed"),
        }
    }
}

impl std::error::Error for OnionError {}

/// Build an onion from the inside out.
///
/// `layers` is ordered **outermost first** — the same order the message will
/// traverse hops — where each element is `(key, header)`: the symmetric key
/// the hop holds and the routing header it should see. `core` is the
/// innermost payload revealed to the final hop alongside its header.
///
/// With hops `[(K1, h1'), (K2, h2'), (K3, h3')]` and core `m` this produces
/// `{h1', {h2', {h3', m}_K3}_K2}_K1` — matching Fig. 1 when each `hi'` names
/// the *next* destination.
pub fn wrap<R: Rng + ?Sized>(
    rng: &mut R,
    layers: &[(SymmetricKey, Vec<u8>)],
    core: &[u8],
) -> Vec<u8> {
    let mut b = OnionBuilder::new();
    b.seal(rng, layers, core);
    b.into_vec()
}

/// Builds an onion in one buffer, two ways:
///
/// * [`OnionBuilder::seal`] — the fused codec: the whole layout is written
///   as plaintext first, then **one** left-to-right pass applies all `l`
///   layers' keystreams chunk by chunk (each layer a [`KeystreamCursor`],
///   each MAC a streaming [`Poly1305`]), instead of the layered builder's
///   `l` full-buffer cipher sweeps. Headers, nonce draws and tags are
///   byte-for-byte those of the layered path at the same RNG position.
/// * [`OnionBuilder::add_layer`] — the layered path, one seal per call
///   ([`SymmetricKey::seal_in_place`]); kept as the timeable and testable
///   reference the fused pass is pinned against.
///
/// `add_layer` adds layers **innermost first** (the reverse of [`wrap`]'s
/// argument order). A builder is reusable across transfers: every buffer —
/// the onion itself and the per-layer cursor/MAC scratch — retains its
/// capacity, so steady-state sealing allocates nothing.
pub struct OnionBuilder {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    // Fused-seal scratch, reused across `seal` calls.
    layer_starts: Vec<usize>,
    cursors: Vec<KeystreamCursor>,
    macs: Vec<Poly1305>,
}

impl std::fmt::Debug for OnionBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The scratch holds key-derived cipher states; print only shape.
        f.debug_struct("OnionBuilder")
            .field("len", &(self.end - self.start))
            .field("layers", &self.layer_starts.len())
            .finish_non_exhaustive()
    }
}

impl Default for OnionBuilder {
    fn default() -> Self {
        OnionBuilder::new()
    }
}

impl OnionBuilder {
    /// An empty builder; [`OnionBuilder::seal`] it per transfer, or start
    /// layering from [`OnionBuilder::with_margin`].
    pub fn new() -> OnionBuilder {
        OnionBuilder {
            buf: Vec::new(),
            start: 0,
            end: 0,
            layer_starts: Vec::new(),
            cursors: Vec::new(),
            macs: Vec::new(),
        }
    }

    /// Start from the innermost payload, reserving `margin` front bytes —
    /// enough when it is ≥ Σ per-layer `NONCE_LEN + LEN_PREFIX + header.len()`
    /// (the builder regrows if an `add_layer` outruns the reservation).
    pub fn with_margin(core: &[u8], margin: usize, layers_hint: usize) -> OnionBuilder {
        let mut buf = vec![0u8; margin + core.len()];
        buf[margin..].copy_from_slice(core);
        buf.reserve(layers_hint * TAG_LEN);
        OnionBuilder {
            buf,
            start: margin,
            end: margin + core.len(),
            layer_starts: Vec::new(),
            cursors: Vec::new(),
            macs: Vec::new(),
        }
    }

    /// Seal a complete onion in one fused pass, replacing the builder's
    /// previous contents. `layers` is ordered outermost first, as in
    /// [`wrap`].
    ///
    /// Correctness sketch: layer `i`'s ciphertext body is the buffer
    /// region `(s_i + 12) .. (e_i − 16)`, and bodies nest — so walking the
    /// buffer left to right, every chunk's final bytes are
    /// `plain ⊕ ks_c ⊕ … ⊕ ks_0` for the `c+1` layers covering it, and
    /// each *intermediate* value in that chain (innermost keystream first)
    /// is exactly what layer `j`'s MAC saw in the layered build. Chaining
    /// in place and feeding each layer's streaming MAC as its keystream is
    /// applied therefore reproduces every tag; tags land innermost-first
    /// at the buffer tail, so each MAC completes precisely when the sweep
    /// reaches its tag slot, and the freshly written tag bytes then chain
    /// through the remaining outer layers like any other plaintext.
    /// Per-layer keystream consumption is strictly left-to-right over a
    /// contiguous body, which is what lets one [`KeystreamCursor`] per
    /// layer feed the whole pass from the wide block kernel.
    pub fn seal<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        layers: &[(SymmetricKey, Vec<u8>)],
        core: &[u8],
    ) {
        assert!(!layers.is_empty(), "an onion needs at least one layer");
        let l = layers.len();
        let mut total = core.len() + l * TAG_LEN;
        for (_, h) in layers {
            total += LAYER_MARGIN + h.len();
        }
        self.buf.clear();
        self.buf.resize(total, 0);
        self.start = 0;
        self.end = total;
        self.layer_starts.clear();
        self.cursors.clear();
        self.macs.clear();

        // Plaintext skeleton: per-layer frame prefix + header, then core.
        let mut pos = 0;
        for (_, h) in layers {
            self.layer_starts.push(pos);
            let fs = pos + NONCE_LEN;
            self.buf[fs..fs + LEN_PREFIX].copy_from_slice(&(h.len() as u32).to_be_bytes());
            self.buf[fs + LEN_PREFIX..fs + LEN_PREFIX + h.len()].copy_from_slice(h);
            pos += LAYER_MARGIN + h.len();
        }
        let core_start = pos;
        self.buf[core_start..core_start + core.len()].copy_from_slice(core);

        // Nonces innermost first — the layered builder's exact RNG draw
        // order, one 12-byte fill per layer.
        for i in (0..l).rev() {
            let s = self.layer_starts[i];
            rng.fill(&mut self.buf[s..s + NONCE_LEN]);
        }

        // Per-layer streaming cipher and MAC states.
        for (i, (key, _)) in layers.iter().enumerate() {
            let s = self.layer_starts[i];
            let mut nonce = [0u8; NONCE_LEN];
            nonce.copy_from_slice(&self.buf[s..s + NONCE_LEN]);
            let (enc_key, mac) = key.subkeys(&nonce);
            self.cursors.push(KeystreamCursor::new(enc_key, &nonce, 1));
            self.macs.push(mac);
        }

        /// XOR the keystreams of layers `depth-1 .. 0` (innermost covering
        /// layer outward) into `buf[range]` in place, feeding each
        /// intermediate state to that layer's MAC.
        fn chain(
            buf: &mut [u8],
            range: std::ops::Range<usize>,
            cursors: &mut [KeystreamCursor],
            macs: &mut [Poly1305],
            depth: usize,
        ) {
            for j in (0..depth).rev() {
                cursors[j].xor_into(&mut buf[range.clone()]);
                macs[j].update(&buf[range.clone()]);
            }
        }

        let OnionBuilder {
            buf,
            layer_starts,
            cursors,
            macs,
            ..
        } = self;

        // The single pass. Layer i's nonce is ciphertext to layers 0..i
        // only (its own MAC is keyed by it, not fed it); its frame is
        // encrypted by 0..=i.
        for i in 0..l {
            let s = layer_starts[i];
            chain(buf, s..s + NONCE_LEN, cursors, macs, i);
            let frame_end = if i + 1 < l {
                layer_starts[i + 1]
            } else {
                core_start
            };
            chain(buf, s + NONCE_LEN..frame_end, cursors, macs, i + 1);
        }
        chain(buf, core_start..core_start + core.len(), cursors, macs, l);
        // Tags, innermost outward: MAC i has consumed exactly its body
        // [s_i + 12, e_i − 16) when the sweep reaches its slot.
        let mut at = core_start + core.len();
        for i in (0..l).rev() {
            let tag = aead_tag(&mut macs[i], 0, at - (layer_starts[i] + NONCE_LEN));
            buf[at..at + TAG_LEN].copy_from_slice(&tag);
            chain(buf, at..at + TAG_LEN, cursors, macs, i);
            at += TAG_LEN;
        }
    }

    /// Wrap the current region in one more layer keyed by `key`, showing
    /// `header` to the hop that will peel it.
    pub fn add_layer<R: Rng + ?Sized>(&mut self, rng: &mut R, key: &SymmetricKey, header: &[u8]) {
        let need = LAYER_MARGIN + header.len();
        if self.start < need {
            // The reservation was short: regrow the front margin.
            let extra = (need - self.start).max(64);
            let mut grown = vec![0u8; extra + self.buf.len()];
            grown[extra..].copy_from_slice(&self.buf);
            self.buf = grown;
            self.start += extra;
            self.end += extra;
        }
        let frame_start = self.start - LEN_PREFIX - header.len();
        self.buf[frame_start..frame_start + LEN_PREFIX]
            .copy_from_slice(&(header.len() as u32).to_be_bytes());
        self.buf[frame_start + LEN_PREFIX..self.start].copy_from_slice(header);
        self.start = frame_start - NONCE_LEN;
        self.end += TAG_LEN;
        if self.buf.len() < self.end {
            self.buf.resize(self.end, 0);
        }
        key.seal_in_place(rng, &mut self.buf[self.start..self.end]);
    }

    /// The sealed onion built so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Finish, reusing the build buffer as the onion (one `memmove`, no
    /// allocation).
    pub fn into_vec(mut self) -> Vec<u8> {
        self.buf.truncate(self.end);
        self.buf.drain(..self.start);
        self.buf
    }
}

/// A reusable peel buffer: load a sealed onion once, then every
/// [`LayerBuf::peel`] is a single in-place cipher pass. The header comes
/// back as a borrowed view and the inner onion simply *is* the same buffer,
/// narrowed — the per-hop transit loop allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct LayerBuf {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl LayerBuf {
    /// An empty buffer; [`LayerBuf::load`] it before peeling.
    pub fn new() -> LayerBuf {
        LayerBuf::default()
    }

    /// Adopt an owned onion without copying.
    pub fn from_vec(onion: Vec<u8>) -> LayerBuf {
        let end = onion.len();
        LayerBuf {
            buf: onion,
            start: 0,
            end,
        }
    }

    /// Finish, reusing the backing buffer for the remaining bytes (one
    /// `memmove`, no allocation).
    pub fn into_vec(mut self) -> Vec<u8> {
        self.buf.truncate(self.end);
        self.buf.drain(..self.start);
        self.buf
    }

    /// Load a sealed onion, reusing the buffer's capacity.
    pub fn load(&mut self, onion: &[u8]) {
        self.buf.clear();
        self.buf.extend_from_slice(onion);
        self.start = 0;
        self.end = onion.len();
    }

    /// The current contents: the sealed remainder after each peel, or the
    /// core payload once the innermost layer has been peeled.
    pub fn bytes(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer currently holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Copy the current contents out (the final residue travels onward as
    /// an owned value; everything before that stays borrowed).
    pub fn to_vec(&self) -> Vec<u8> {
        self.bytes().to_vec()
    }

    /// Peel one layer in place and return this hop's header as a view into
    /// the buffer. Afterwards [`LayerBuf::bytes`] is the sealed remainder.
    /// On [`OnionError::Crypto`] the buffer is unchanged; on
    /// [`OnionError::Malformed`] its contents are unspecified (the caller
    /// is aborting the transit either way).
    pub fn peel(&mut self, key: &SymmetricKey) -> Result<&[u8], OnionError> {
        let plain = key
            .open_in_place(&mut self.buf[self.start..self.end])
            .map(|r| self.start + r.start..self.start + r.end)?;
        if plain.len() < LEN_PREFIX {
            return Err(OnionError::Malformed);
        }
        let p = &self.buf[plain.start..plain.start + LEN_PREFIX];
        let hlen = u32::from_be_bytes([p[0], p[1], p[2], p[3]]) as usize;
        // `hlen` is the peer's u32: compare without adding to it, so a
        // 32-bit host cannot overflow on 0xFFFF_FFFF.
        if hlen > plain.len() - LEN_PREFIX {
            return Err(OnionError::Malformed);
        }
        let header = plain.start + LEN_PREFIX..plain.start + LEN_PREFIX + hlen;
        self.start = header.end;
        self.end = plain.end;
        Ok(&self.buf[header])
    }
}

/// Peel one layer with `key`, returning this hop's header and the sealed
/// remainder (the innermost layer's remainder is the core payload).
pub fn peel(key: &SymmetricKey, onion: &[u8]) -> Result<PeeledLayer, OnionError> {
    let mut buf = LayerBuf::new();
    buf.load(onion);
    let header = buf.peel(key)?.to_vec();
    Ok(PeeledLayer {
        header,
        inner: buf.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Peel an entire onion with a known key sequence (outermost first),
    /// returning every header plus the core payload; real hops only ever
    /// peel their own single layer.
    fn peel_all(
        keys: &[SymmetricKey],
        onion: &[u8],
    ) -> Result<(Vec<Vec<u8>>, Vec<u8>), OnionError> {
        let mut headers = Vec::with_capacity(keys.len());
        let mut buf = LayerBuf::new();
        buf.load(onion);
        for key in keys {
            headers.push(buf.peel(key)?.to_vec());
        }
        Ok((headers, buf.to_vec()))
    }

    fn keys(n: usize, seed: u64) -> (Vec<SymmetricKey>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ks = (0..n).map(|_| SymmetricKey::generate(&mut rng)).collect();
        (ks, rng)
    }

    #[test]
    fn three_hop_onion_matches_fig1() {
        let (ks, mut rng) = keys(3, 1);
        let layers: Vec<_> = ks
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, format!("hop-header-{i}").into_bytes()))
            .collect();
        let onion = wrap(&mut rng, &layers, b"{D, m}");

        // Hop 1 peels with K1, sees its header, forwards the inner onion.
        let l1 = peel(&ks[0], &onion).unwrap();
        assert_eq!(l1.header, b"hop-header-0");
        let l2 = peel(&ks[1], &l1.inner).unwrap();
        assert_eq!(l2.header, b"hop-header-1");
        let l3 = peel(&ks[2], &l2.inner).unwrap();
        assert_eq!(l3.header, b"hop-header-2");
        assert_eq!(l3.inner, b"{D, m}");
    }

    #[test]
    fn peel_all_agrees_with_sequential_peels() {
        let (ks, mut rng) = keys(5, 2);
        let layers: Vec<_> = ks.iter().map(|k| (*k, vec![0xAA; 8])).collect();
        let onion = wrap(&mut rng, &layers, b"core");
        let (headers, core) = peel_all(&ks, &onion).unwrap();
        assert_eq!(headers.len(), 5);
        assert!(headers.iter().all(|h| h == &vec![0xAA; 8]));
        assert_eq!(core, b"core");
    }

    #[test]
    fn wrong_hop_key_fails_cleanly() {
        let (ks, mut rng) = keys(2, 3);
        let layers: Vec<_> = ks.iter().map(|k| (*k, b"h".to_vec())).collect();
        let onion = wrap(&mut rng, &layers, b"core");
        // Peeling the outer layer with the inner key must fail.
        assert!(matches!(
            peel(&ks[1], &onion),
            Err(OnionError::Crypto(CipherError::BadTag))
        ));
    }

    #[test]
    fn out_of_order_peeling_fails() {
        let (ks, mut rng) = keys(3, 4);
        let layers: Vec<_> = ks.iter().map(|k| (*k, b"h".to_vec())).collect();
        let onion = wrap(&mut rng, &layers, b"core");
        let l1 = peel(&ks[0], &onion).unwrap();
        // Skipping hop 2 and trying hop 3's key on hop 2's layer fails.
        assert!(peel(&ks[2], &l1.inner).is_err());
    }

    #[test]
    fn single_layer_onion() {
        let (ks, mut rng) = keys(1, 5);
        let onion = wrap(&mut rng, &[(ks[0], b"only".to_vec())], b"payload");
        let l = peel(&ks[0], &onion).unwrap();
        assert_eq!(l.header, b"only");
        assert_eq!(l.inner, b"payload");
    }

    #[test]
    fn empty_header_and_core() {
        let (ks, mut rng) = keys(2, 6);
        let layers: Vec<_> = ks.iter().map(|k| (*k, Vec::new())).collect();
        let onion = wrap(&mut rng, &layers, b"");
        let (headers, core) = peel_all(&ks, &onion).unwrap();
        assert!(headers.iter().all(|h| h.is_empty()));
        assert!(core.is_empty());
    }

    #[test]
    fn wrap_bytes_match_a_manual_seal_chain() {
        // The in-place builder must be byte-identical to sealing framed
        // layers one Vec at a time from the same RNG position.
        let (ks, rng) = keys(3, 8);
        let layers: Vec<_> = ks
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, vec![i as u8; 5 + i]))
            .collect();
        let mut a_rng = rng.clone();
        let mut b_rng = rng;
        let onion = wrap(&mut a_rng, &layers, b"core bytes");

        let mut inner = b"core bytes".to_vec();
        for (key, header) in layers.iter().rev() {
            let mut plain = (header.len() as u32).to_be_bytes().to_vec();
            plain.extend_from_slice(header);
            plain.extend_from_slice(&inner);
            inner = key.seal(&mut b_rng, &plain);
        }
        assert_eq!(onion, inner);
    }

    /// The layered reference path: one [`SymmetricKey::seal_in_place`] full
    /// sweep per layer, innermost first.
    fn wrap_layered(rng: &mut StdRng, layers: &[(SymmetricKey, Vec<u8>)], core: &[u8]) -> Vec<u8> {
        let margin: usize = layers.iter().map(|(_, h)| LAYER_MARGIN + h.len()).sum();
        let mut b = OnionBuilder::with_margin(core, margin, layers.len());
        for (key, header) in layers.iter().rev() {
            b.add_layer(rng, key, header);
        }
        b.into_vec()
    }

    #[test]
    fn fused_seal_matches_layered_builder() {
        for l in 1..=7 {
            let (ks, rng) = keys(l, 20 + l as u64);
            let layers: Vec<_> = ks
                .iter()
                .enumerate()
                .map(|(i, k)| (*k, vec![0x30 + i as u8; 3 * i + 1]))
                .collect();
            let mut a_rng = rng.clone();
            let mut b_rng = rng;
            let fused = wrap(&mut a_rng, &layers, b"fused == layered");
            let layered = wrap_layered(&mut b_rng, &layers, b"fused == layered");
            assert_eq!(fused, layered, "l={l}");
            assert_eq!(
                a_rng.gen::<u64>(),
                b_rng.gen::<u64>(),
                "RNG positions must agree after sealing"
            );
        }
    }

    #[test]
    fn reused_builder_seals_are_independent() {
        let (ks, mut rng) = keys(5, 30);
        let mut b = OnionBuilder::new();
        // Same builder across transfers of different shapes; each onion
        // must peel as if built fresh.
        for (round, core) in [&b"first"[..], b"a much longer second core", b""]
            .iter()
            .enumerate()
        {
            let layers: Vec<_> = ks
                .iter()
                .take(2 + round)
                .enumerate()
                .map(|(i, k)| (*k, vec![i as u8; 4 + round]))
                .collect();
            b.seal(&mut rng, &layers, core);
            let onion = b.as_bytes().to_vec();
            let (headers, peeled) = peel_all(&ks[..2 + round], &onion).unwrap();
            assert_eq!(headers.len(), 2 + round);
            assert_eq!(peeled, *core, "round {round}");
        }
    }

    #[test]
    fn layer_buf_peels_match_allocating_peels_and_reuse_is_clean() {
        let (ks, mut rng) = keys(4, 9);
        let layers: Vec<_> = ks
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, format!("header-{i}").into_bytes()))
            .collect();
        let onion = wrap(&mut rng, &layers, b"the core");

        let mut buf = LayerBuf::new();
        // Load twice: the second pass must be unaffected by the first
        // (reuse across transits is the whole point).
        for _ in 0..2 {
            buf.load(&onion);
            let mut cursor = onion.clone();
            for k in &ks {
                let reference = peel(k, &cursor).unwrap();
                let header = buf.peel(k).unwrap();
                assert_eq!(header, &reference.header[..]);
                assert_eq!(buf.bytes(), &reference.inner[..]);
                cursor = reference.inner;
            }
            assert_eq!(buf.bytes(), b"the core");
        }
    }

    #[test]
    fn layer_buf_rejects_what_peel_rejects() {
        let (ks, mut rng) = keys(2, 10);
        let layers: Vec<_> = ks.iter().map(|k| (*k, b"h".to_vec())).collect();
        let onion = wrap(&mut rng, &layers, b"core");
        let mut buf = LayerBuf::new();
        buf.load(&onion);
        assert!(matches!(
            buf.peel(&ks[1]),
            Err(OnionError::Crypto(CipherError::BadTag))
        ));
        // A failed authentication leaves the buffer usable.
        assert_eq!(buf.peel(&ks[0]).unwrap(), b"h");
        buf.load(b"xx");
        assert!(matches!(
            buf.peel(&ks[0]),
            Err(OnionError::Crypto(CipherError::TooShort))
        ));
    }

    #[test]
    fn builder_regrows_when_the_margin_is_short() {
        let (ks, mut rng) = keys(2, 11);
        // Deliberately reserve nothing: every add_layer must regrow.
        let mut b = OnionBuilder::with_margin(b"payload", 0, 0);
        b.add_layer(&mut rng, &ks[1], b"inner-header");
        b.add_layer(&mut rng, &ks[0], b"outer-header");
        let onion = b.into_vec();
        let (headers, core) = peel_all(&ks, &onion).unwrap();
        assert_eq!(
            headers,
            vec![b"outer-header".to_vec(), b"inner-header".to_vec()]
        );
        assert_eq!(core, b"payload");
    }

    #[test]
    fn malformed_frame_detected() {
        let (ks, mut rng) = keys(1, 7);
        // Seal a plaintext that claims a longer header than it carries.
        let mut bogus = 100u32.to_be_bytes().to_vec();
        bogus.extend_from_slice(b"short");
        let sealed = ks[0].seal(&mut rng, &bogus);
        assert_eq!(peel(&ks[0], &sealed), Err(OnionError::Malformed));
    }

    proptest! {
        #[test]
        fn prop_wrap_peel_roundtrip(
            n in 1usize..6,
            core in proptest::collection::vec(any::<u8>(), 0..128),
            headers in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 6),
            seed in any::<u64>(),
        ) {
            let (ks, mut rng) = keys(n, seed);
            let layers: Vec<_> = ks
                .iter()
                .zip(headers.iter())
                .map(|(k, h)| (*k, h.clone()))
                .collect();
            let onion = wrap(&mut rng, &layers, &core);
            let (got_headers, got_core) = peel_all(&ks, &onion).unwrap();
            prop_assert_eq!(got_core, core);
            for (g, h) in got_headers.iter().zip(headers.iter()) {
                prop_assert_eq!(g, h);
            }
        }

        #[test]
        fn prop_layer_sizes_leak_only_depth(
            n in 1usize..5,
            seed in any::<u64>(),
        ) {
            // Each layer adds a fixed overhead: size reveals at most the
            // remaining depth, never the content.
            let (ks, mut rng) = keys(n, seed);
            let layers: Vec<_> = ks.iter().map(|k| (*k, vec![7u8; 16])).collect();
            let a = wrap(&mut rng, &layers, &[0u8; 64]);
            let b = wrap(&mut rng, &layers, &[1u8; 64]);
            prop_assert_eq!(a.len(), b.len());
        }

        #[test]
        fn prop_fused_seal_equals_layered_builder(
            n in 1usize..8,
            core in proptest::collection::vec(any::<u8>(), 0..300),
            headers in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 8),
            seed in any::<u64>(),
        ) {
            let (ks, rng) = keys(n, seed);
            let layers: Vec<_> = ks
                .iter()
                .zip(headers.iter())
                .map(|(k, h)| (*k, h.clone()))
                .collect();
            let mut a_rng = rng.clone();
            let mut b_rng = rng;
            let fused = wrap(&mut a_rng, &layers, &core);
            let layered = wrap_layered(&mut b_rng, &layers, &core);
            prop_assert_eq!(fused, layered);
            prop_assert_eq!(a_rng.gen::<u64>(), b_rng.gen::<u64>());
        }
        // ROADMAP 5(d): nothing a peer can put on the wire may panic a hop.
        #[test]
        fn prop_peel_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
            seed in any::<u64>(),
        ) {
            let (ks, _) = keys(1, seed);
            let mut buf = LayerBuf::new();
            buf.load(&bytes);
            let err = buf.peel(&ks[0]).err();
            prop_assert!(matches!(err, Some(OnionError::Crypto(_))), "{err:?}");
            prop_assert_eq!(buf.bytes(), &bytes[..]);
        }

        #[test]
        fn prop_peel_rejects_truncated_and_bit_flipped_onions(
            n in 1usize..5,
            core in proptest::collection::vec(any::<u8>(), 0..64),
            cut in any::<usize>(),
            flip in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let (ks, mut rng) = keys(n, seed);
            let layers: Vec<_> = ks.iter().map(|k| (*k, vec![0x5A; 9])).collect();
            let onion = wrap(&mut rng, &layers, &core);
            let truncated = &onion[..cut % onion.len()];
            let mut flipped = onion.clone();
            let bit = flip % (onion.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);

            let mut buf = LayerBuf::new();
            for damaged in [truncated, &flipped[..]] {
                buf.load(damaged);
                let err = buf.peel(&ks[0]).err();
                prop_assert!(matches!(err, Some(OnionError::Crypto(_))), "{err:?}");
                // A failed authentication must leave the buffer as loaded.
                prop_assert_eq!(buf.bytes(), damaged);
            }
        }

        #[test]
        fn prop_peel_never_panics_on_an_authentic_but_arbitrary_frame(
            plain in proptest::collection::vec(any::<u8>(), 0..200),
            seed in any::<u64>(),
        ) {
            // A keyholder can seal any plaintext; the frame parser sees it
            // only after the tag verifies, and must still bound every read.
            let (ks, mut rng) = keys(1, seed);
            let mut buf = LayerBuf::from_vec(ks[0].seal(&mut rng, &plain));
            match buf.peel(&ks[0]).map(<[u8]>::len) {
                Ok(hlen) => prop_assert_eq!(LEN_PREFIX + hlen + buf.len(), plain.len()),
                Err(e) => prop_assert_eq!(e, OnionError::Malformed),
            }
        }
    }
}
