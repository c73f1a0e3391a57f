//! Anonymous file retrieval — the paper's sample application (§4).
//!
//! The initiator `I` builds a forward tunnel `T_f` and a *distinct* reply
//! tunnel `T_r`, then sends
//! `M = {hid_2, {hid_3, {fid, K_I, T_r}_K3}_K2}_K1` through `T_f`. The tail
//! hands `(fid, K_I, T_r)` to the responder `R` (the root of `fid`), which
//! returns `{f}_Kf` and `{Kf}_{K_I}` back through `T_r`. Using different
//! tunnels for request and reply "makes it harder for an adversary to
//! correlate a request with a reply".

use rand::Rng;

use tap_crypto::chacha20::NONCE_LEN;
use tap_crypto::cipher::TAG_LEN;
use tap_crypto::{KeyPair, PublicKey, SealedBox, SymmetricKey};
use tap_id::{Id, ID_BYTES};
use tap_netsim::latency::LatencyModel;
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{KeyRouter, Overlay};

use crate::metrics::CoreInstruments;
use crate::netdrive::{NetDriver, TimedReport};
use crate::tha::Tha;
use crate::transit::{self, Delivery, HintCache, TransitError, TransitOptions, TransitReport};
use crate::tunnel::{ReplyTunnel, Tunnel, FAKEONION_LEN};
use crate::wire::Destination;

/// A file stored in the PAST-style file store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredFile {
    /// The file contents.
    pub data: Vec<u8>,
}

/// Why a retrieval failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetrievalError {
    /// The forward tunnel broke.
    Forward(TransitError),
    /// The reply tunnel broke.
    Reply(TransitError),
    /// The responder does not hold the requested file.
    NoSuchFile {
        /// The requested file id.
        fid: Id,
    },
    /// A message failed to parse or decrypt end-to-end.
    Corrupt,
    /// The reply surfaced at a node other than the initiator.
    Misdelivered {
        /// Where the reply actually landed.
        node: Id,
    },
}

impl std::fmt::Display for RetrievalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetrievalError::Forward(e) => write!(f, "forward tunnel failed: {e}"),
            RetrievalError::Reply(e) => write!(f, "reply tunnel failed: {e}"),
            RetrievalError::NoSuchFile { fid } => write!(f, "no file stored under {fid:?}"),
            RetrievalError::Corrupt => write!(f, "retrieval message corrupt"),
            RetrievalError::Misdelivered { node } => {
                write!(f, "reply landed at {node:?}, not the initiator")
            }
        }
    }
}

impl std::error::Error for RetrievalError {}

/// Metrics from one retrieval: [`TransitReport`]s from [`retrieve`],
/// [`TimedReport`]s from [`retrieve_timed`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RetrievalReport<T = TransitReport> {
    /// Transit of the request along `T_f` (plus the tail → R hop).
    pub forward: T,
    /// Transit of the reply along `T_r`.
    pub reply: T,
    /// Size of the encrypted file payload on the reply path, in bytes.
    pub reply_bytes: usize,
}

/// The request core `(fid, K_I, T_r)` and its codec.
struct Request {
    fid: Id,
    reply_key: PublicKey,
    reply_entry: Id,
    reply_onion: Vec<u8>,
}

impl Request {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.fid.as_bytes());
        out.extend_from_slice(&self.reply_key.0);
        out.extend_from_slice(self.reply_entry.as_bytes());
        out.extend_from_slice(&(self.reply_onion.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.reply_onion);
        out
    }

    fn decode(bytes: &[u8]) -> Option<Request> {
        let (fid, rest) = bytes.split_first_chunk::<ID_BYTES>()?;
        let (pk, rest) = rest.split_first_chunk::<32>()?;
        let (entry, rest) = rest.split_first_chunk::<ID_BYTES>()?;
        let (len, rest) = rest.split_first_chunk::<LEN_PREFIX>()?;
        (rest.len() == u32::from_be_bytes(*len) as usize).then(|| Request {
            fid: Id::from_bytes(*fid),
            reply_key: PublicKey(*pk),
            reply_entry: Id::from_bytes(*entry),
            reply_onion: rest.to_vec(),
        })
    }
}

/// Width of the reply's two big-endian `u32` length prefixes.
const LEN_PREFIX: usize = 4;

/// The responder's half of the reply `({f}_Kf, {Kf}_{K_I})`: draw `K_f`, seal
/// the file under it where it lies and box `K_f` to `reply_key`, all in one
/// buffer — `len ‖ nonce ‖ ct ‖ tag ‖ ephemeral ‖ len ‖ boxed K_f`.
fn seal_reply<R: Rng + ?Sized>(rng: &mut R, file: &[u8], reply_key: &PublicKey) -> Vec<u8> {
    let k_f = SymmetricKey::generate(rng);
    let sealed_len = NONCE_LEN + file.len() + TAG_LEN;
    // The box: ephemeral key, prefix, and a sealed 32-byte key.
    let box_len = 32 + LEN_PREFIX + NONCE_LEN + 32 + TAG_LEN;
    let mut out = Vec::with_capacity(LEN_PREFIX + sealed_len + box_len);
    out.extend_from_slice(&(sealed_len as u32).to_be_bytes());
    out.extend_from_slice(&[0; NONCE_LEN]);
    out.extend_from_slice(file);
    out.extend_from_slice(&[0; TAG_LEN]);
    k_f.seal_in_place(rng, &mut out[LEN_PREFIX..]);
    let key_box = SealedBox::seal(rng, reply_key, k_f.as_bytes());
    out.extend_from_slice(&key_box.ephemeral.0);
    out.extend_from_slice(&(key_box.sealed.len() as u32).to_be_bytes());
    out.extend_from_slice(&key_box.sealed);
    out
}

/// The initiator's half: check every offset against the bytes that arrived,
/// unbox `K_f` with `k_i`, open the file where it lies and return `reply`
/// narrowed to it. Anything short, overlong, mis-keyed or tampered with is
/// [`RetrievalError::Corrupt`].
fn open_reply(k_i: &KeyPair, mut reply: Vec<u8>) -> Result<Vec<u8>, RetrievalError> {
    let parse = |bytes: &[u8]| {
        let (len, rest) = bytes.split_first_chunk::<LEN_PREFIX>()?;
        let sealed_len = u32::from_be_bytes(*len) as usize;
        let (_, rest) = rest.split_at_checked(sealed_len)?;
        let (ephemeral, rest) = rest.split_first_chunk::<32>()?;
        let (len, sealed) = rest.split_first_chunk::<LEN_PREFIX>()?;
        (sealed.len() == u32::from_be_bytes(*len) as usize).then(|| {
            let key_box = SealedBox {
                ephemeral: PublicKey(*ephemeral),
                sealed: sealed.to_vec(),
            };
            (sealed_len, key_box)
        })
    };
    let (sealed_len, key_box) = parse(&reply).ok_or(RetrievalError::Corrupt)?;
    let k_f = k_i.open(&key_box).map_err(|_| RetrievalError::Corrupt)?;
    let k_f = SymmetricKey::from_bytes(k_f.try_into().map_err(|_| RetrievalError::Corrupt)?);
    let file = k_f
        .open_in_place(&mut reply[LEN_PREFIX..LEN_PREFIX + sealed_len])
        .map_err(|_| RetrievalError::Corrupt)?;
    reply.truncate(LEN_PREFIX + file.end);
    reply.drain(..LEN_PREFIX + file.start);
    Ok(reply)
}

/// Everything the retrieval protocol needs from the environment. Generic
/// over the substrate (`O` defaults to Pastry's [`Overlay`]; the Chord
/// substrate drops in unchanged).
pub struct RetrievalContext<'a, O: KeyRouter = Overlay> {
    /// The overlay (mutated only through lazy routing repair).
    pub overlay: &'a mut O,
    /// The THA store.
    pub thas: &'a ReplicaStore<Tha>,
    /// The file store.
    pub files: &'a ReplicaStore<StoredFile>,
    /// Instruments to record onion timings / takeovers / retries into.
    pub metrics: Option<&'a CoreInstruments>,
}

/// Run the full §4 protocol: request `fid` through `fwd`, receive the file
/// back through `rev` terminating at `bid`. Returns the plaintext file.
#[allow(clippy::too_many_arguments)]
pub fn retrieve<R: Rng + ?Sized, O: KeyRouter>(
    rng: &mut R,
    ctx: &mut RetrievalContext<'_, O>,
    initiator: Id,
    fid: Id,
    fwd: &Tunnel,
    rev: &Tunnel,
    bid: Id,
    hints: Option<&HintCache>,
    options: TransitOptions,
) -> Result<(Vec<u8>, RetrievalReport), RetrievalError> {
    let request = request(rng, ctx.metrics, fid, fwd, rev, bid, hints);
    let (thas, metrics) = (ctx.thas, ctx.metrics);
    exchange(
        rng,
        ctx,
        initiator,
        request,
        |overlay, from, entry, onion, _| {
            transit::drive_instrumented(overlay, thas, from, entry, onion, options, metrics)
        },
    )
}

/// [`retrieve`] as timed wire traffic through a [`NetDriver`]: both the
/// request and the reply cross the emulated network, so fault injection
/// (loss, duplication, partitions, crash-restart) bites, the driver's
/// timeout/retry shim reacts, and a hinted hop that times out demotes its
/// [`HintCache`] entry and falls back to overlay routing (§5).
#[allow(clippy::too_many_arguments)]
pub fn retrieve_timed<R: Rng + ?Sized, O: KeyRouter, L: LatencyModel>(
    rng: &mut R,
    ctx: &mut RetrievalContext<'_, O>,
    driver: &mut NetDriver<L>,
    initiator: Id,
    fid: Id,
    fwd: &Tunnel,
    rev: &Tunnel,
    bid: Id,
    mut hints: Option<&mut HintCache>,
    options: TransitOptions,
) -> Result<(Vec<u8>, RetrievalReport<TimedReport>), RetrievalError> {
    // Built while the cache is only read; driving may demote through it.
    let request = request(rng, ctx.metrics, fid, fwd, rev, bid, hints.as_deref());
    let thas = ctx.thas;
    exchange(
        rng,
        ctx,
        initiator,
        request,
        |overlay, from, entry, onion, payload| {
            let hints = hints.as_deref_mut();
            driver
                .drive_timed_with_hints(overlay, thas, from, entry, onion, payload, options, hints)
        },
    )
}

/// The initiator's opening move, drawing from `rng` in this order: the
/// temporary key pair `K_I` (fresh per retrieval, so replies cannot be
/// linked across requests), the reply tunnel `T_r` to `bid`, and the
/// forward onion carrying `(fid, K_I, T_r)` to `fid`'s root. Returns `K_I`,
/// the forward tunnel's entry and the onion.
fn request<R: Rng + ?Sized>(
    rng: &mut R,
    metrics: Option<&CoreInstruments>,
    fid: Id,
    fwd: &Tunnel,
    rev: &Tunnel,
    bid: Id,
    hints: Option<&HintCache>,
) -> (KeyPair, Id, Vec<u8>) {
    let k_i = KeyPair::generate(rng);
    let reply_tunnel = ReplyTunnel::build(rng, rev, bid, FAKEONION_LEN, hints);
    let request = Request {
        fid,
        reply_key: k_i.public(),
        reply_entry: reply_tunnel.entry_hopid,
        reply_onion: reply_tunnel.onion,
    };
    let core = request.encode();
    let onion = fwd.build_onion_instrumented(rng, Destination::KeyRoot(fid), &core, hints, metrics);
    (k_i, fwd.entry_hopid(), onion)
}

/// The rest of §4 once the request is built: `drive(overlay, from, entry
/// hopid, onion, payload bytes)` carries the request from the initiator to
/// the responder `R`, `R` seals the file, `drive` carries the reply back
/// with the file alongside, and the initiator opens it. The two fronts
/// differ only in `drive`.
fn exchange<R: Rng + ?Sized, O: KeyRouter, T>(
    rng: &mut R,
    ctx: &mut RetrievalContext<'_, O>,
    initiator: Id,
    (k_i, entry, onion): (KeyPair, Id, Vec<u8>),
    mut drive: impl FnMut(&mut O, Id, Id, Vec<u8>, u64) -> Result<(Delivery, T), TransitError>,
) -> Result<(Vec<u8>, RetrievalReport<T>), RetrievalError> {
    // ---- forward path ----
    let (delivery, forward) =
        drive(ctx.overlay, initiator, entry, onion, 0).map_err(RetrievalError::Forward)?;
    let Delivery::ToDestination {
        node: responder,
        core,
    } = delivery
    else {
        return Err(RetrievalError::Corrupt);
    };

    // ---- responder R ----
    let request = Request::decode(&core).ok_or(RetrievalError::Corrupt)?;
    let record = ctx
        .files
        .get(request.fid)
        .ok_or(RetrievalError::NoSuchFile { fid: request.fid })?;
    debug_assert!(
        record.holders.contains(&responder),
        "the forward tunnel delivered to the fid root, which must hold it"
    );
    let reply = seal_reply(rng, &record.value.data, &request.reply_key);
    let reply_bytes = reply.len();

    // ---- reply path, the file travelling alongside ----
    let (delivery, reply_report) = drive(
        ctx.overlay,
        responder,
        request.reply_entry,
        request.reply_onion,
        reply_bytes as u64,
    )
    .map_err(RetrievalError::Reply)?;
    let Delivery::AtAnchorlessRoot { node: landed, .. } = delivery else {
        return Err(RetrievalError::Corrupt);
    };
    if landed != initiator {
        return Err(RetrievalError::Misdelivered { node: landed });
    }

    // ---- initiator decrypts ----
    let file = open_reply(&k_i, reply)?;
    let report = RetrievalReport {
        forward,
        reply: reply_report,
        reply_bytes,
    };
    Ok((file, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draws::Purpose::{self, Flow};
    use crate::world::World;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tap_netsim::latency::UniformLatency;
    use tap_netsim::{Network, NetworkConfig};
    use tap_pastry::PastryConfig;

    /// A world of `n` nodes, an initiator, and its forward and reply
    /// tunnels of `l` hops.
    fn world(n: usize, seed: u64, l: usize) -> (World, Id, Tunnel, Tunnel) {
        let mut w = World::build(PastryConfig::paper_defaults(), n, seed);
        let initiator = w.random_node().unwrap();
        w.deploy_anchors_direct(initiator, l * 8).unwrap();
        let fwd = w.form_tunnel(initiator, l).unwrap();
        let rev = w.form_tunnel(initiator, l).unwrap();
        (w, initiator, fwd, rev)
    }

    /// `initiator` retrieves `fid` in `w` over `fwd` and `rev`.
    fn fetch(
        w: &mut World,
        (initiator, fid): (Id, Id),
        (fwd, rev): (&Tunnel, &Tunnel),
        options: TransitOptions,
    ) -> Result<(Vec<u8>, RetrievalReport), RetrievalError> {
        let bid = w.choose_bid(initiator).unwrap();
        let mut rng = w.stream(Flow);
        let mut ctx = RetrievalContext {
            overlay: &mut w.overlay,
            thas: &w.thas,
            files: &w.files,
            metrics: None,
        };
        retrieve(
            &mut rng, &mut ctx, initiator, fid, fwd, rev, bid, None, options,
        )
    }

    #[test]
    fn end_to_end_retrieval() {
        let (mut w, initiator, fwd, rev) = world(200, 1, 3);
        let fid = w.store_file(b"the secret document".to_vec()).unwrap();
        let (file, report) = fetch(
            &mut w,
            (initiator, fid),
            (&fwd, &rev),
            TransitOptions::default(),
        )
        .unwrap();
        assert_eq!(file, b"the secret document");
        assert_eq!(report.forward.hops_resolved, 3);
        assert_eq!(report.reply.hops_resolved, 3);
        assert!(report.reply_bytes > b"the secret document".len());
    }

    #[test]
    fn request_and_reply_use_disjoint_hops() {
        let (_, _, fwd, rev) = world(200, 2, 3);
        let fwd_set: std::collections::HashSet<Id> = fwd.hop_ids().into_iter().collect();
        assert!(
            rev.hop_ids().iter().all(|h| !fwd_set.contains(h)),
            "forward and reply tunnels must not share THAs"
        );
    }

    #[test]
    fn missing_file_reported() {
        let (mut w, initiator, fwd, rev) = world(150, 3, 3);
        let fid = Id::random(&mut w.stream(Purpose::File));
        let err = fetch(
            &mut w,
            (initiator, fid),
            (&fwd, &rev),
            TransitOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, RetrievalError::NoSuchFile { fid });
    }

    #[test]
    fn retrieval_survives_hop_failure_on_each_path() {
        let (mut w, initiator, fwd, rev) = world(250, 4, 3);
        let fid = w.store_file(b"resilient".to_vec()).unwrap();
        // Kill the current hop node of one forward hop and one reply hop.
        for hop in [fwd.hop_ids()[1], rev.hop_ids()[1]] {
            let root = w.overlay.owner_of(hop).unwrap();
            if root != initiator {
                w.overlay.remove_node(root);
            }
        }
        // Retrieval resolves the file's root after the failure, so an
        // error here would be a real bug.
        let (file, _) = fetch(
            &mut w,
            (initiator, fid),
            (&fwd, &rev),
            TransitOptions::default(),
        )
        .expect("retrieval should have survived");
        assert_eq!(file, b"resilient");
    }

    #[test]
    fn hinted_retrieval_works_and_is_cheaper() {
        let (mut w, initiator, fwd, rev) = world(300, 5, 5);
        let fid = w.store_file(b"speedy".to_vec()).unwrap();
        // Hints are embedded by the onion builder; the §5 path also needs
        // them inside the tunnels, which `World::retrieve_file`
        // exercises. Here we verify plain vs. hinted transit parity at the
        // protocol level (hints off = baseline).
        let (file, report) = fetch(
            &mut w,
            (initiator, fid),
            (&fwd, &rev),
            TransitOptions::hinted(),
        )
        .unwrap();
        assert_eq!(file, b"speedy");
        assert!(report.forward.overlay_hops >= 5);
    }

    /// A genuine reply carrying `file`, and the key pair it is boxed to.
    fn reply_of(file: &[u8], seed: u64) -> (KeyPair, Vec<u8>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k_i = KeyPair::generate(&mut rng);
        let reply = seal_reply(&mut rng, file, &k_i.public());
        (k_i, reply)
    }

    #[test]
    fn reply_round_trips_at_block_boundaries() {
        for len in [0usize, 1, 63, 64, 65, 250_000] {
            let file: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let (k_i, reply) = reply_of(&file, len as u64);
            // The layout `retrieve` reports as `reply_bytes`: two prefixes,
            // the sealed file, the ephemeral key and the sealed `K_f`.
            assert_eq!(reply.len(), 4 + (len + 28) + 32 + 4 + (32 + 28));
            assert_eq!(reply.capacity(), reply.len(), "len={len}: sized once");
            assert_eq!(open_reply(&k_i, reply), Ok(file), "len={len}");
        }
    }

    #[test]
    fn a_reply_opens_only_under_its_own_key_pair() {
        let (_, reply) = reply_of(b"not for you", 7);
        let (other, _) = reply_of(b"", 8);
        assert_eq!(open_reply(&other, reply), Err(RetrievalError::Corrupt));
    }

    #[test]
    fn retrieve_and_retrieve_timed_stay_in_step() {
        // The twins share `seal_reply`/`open_reply` and draw from the RNG in
        // the same order, so one seed gives one file and one reply size.
        let run = |timed: bool| {
            let (mut w, initiator, fwd, rev) = world(200, 6, 3);
            let data: Vec<u8> = (0..5000u32).map(|i| (i * 7) as u8).collect();
            let fid = w.store_file(data.clone()).unwrap();
            let bid = w.choose_bid(initiator).unwrap();
            let mut rng = w.stream(Flow);
            let mut ctx = RetrievalContext {
                overlay: &mut w.overlay,
                thas: &w.thas,
                files: &w.files,
                metrics: None,
            };
            let options = TransitOptions::default();
            let (file, reply_bytes) = if timed {
                let mut driver = NetDriver::new(Network::new(
                    NetworkConfig::paper_defaults(),
                    UniformLatency::paper(6),
                ));
                let (file, report) = retrieve_timed(
                    &mut rng,
                    &mut ctx,
                    &mut driver,
                    initiator,
                    fid,
                    &fwd,
                    &rev,
                    bid,
                    None,
                    options,
                )
                .unwrap();
                (file, report.reply_bytes)
            } else {
                let (file, report) = retrieve(
                    &mut rng, &mut ctx, initiator, fid, &fwd, &rev, bid, None, options,
                )
                .unwrap();
                (file, report.reply_bytes)
            };
            assert_eq!(file, data);
            (file, reply_bytes, rng.gen::<u64>())
        };
        assert_eq!(run(false), run(true));
    }

    proptest! {
        // Nothing a peer can put in the reply may panic the initiator.
        #[test]
        fn prop_open_reply_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..600),
            seed in any::<u64>(),
        ) {
            let k_i = KeyPair::generate(&mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(open_reply(&k_i, bytes), Err(RetrievalError::Corrupt));
        }

        #[test]
        fn prop_open_reply_rejects_truncated_and_bit_flipped_replies(
            file in proptest::collection::vec(any::<u8>(), 0..200),
            cut in any::<usize>(),
            flip in any::<usize>(),
            seed in any::<u64>(),
        ) {
            let (k_i, reply) = reply_of(&file, seed);
            let truncated = reply[..cut % reply.len()].to_vec();
            let mut flipped = reply.clone();
            let bit = flip % (reply.len() * 8);
            flipped[bit / 8] ^= 1 << (bit % 8);
            for damaged in [truncated, flipped] {
                prop_assert_eq!(open_reply(&k_i, damaged), Err(RetrievalError::Corrupt));
            }
            prop_assert_eq!(open_reply(&k_i, reply), Ok(file));
        }
    }
}
