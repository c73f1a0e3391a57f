//! Erasure-coded multipath transfer across parallel tunnels.
//!
//! A single forward tunnel makes every transfer hostage to its weakest
//! link: one lossy hop or partition window forces the full retry/backoff
//! gauntlet, and one relay sees the entire payload. This module stripes a
//! payload with the [`tap_crypto::ec`] Reed–Solomon codec into `n`
//! fragments, builds one onion per fragment over `n` *disjoint* tunnels
//! (no shared hopids — §3.5 scatter applied across stripes, not just
//! within one tunnel), ships them concurrently as one flow set through the
//! wire engine (`NetDriver::drive_striped`), and reconstructs the payload
//! as soon as any `k` fragments arrive.
//!
//! Fragments are tagged on three levels: the netsim flow tag names the
//! wire chain, the stripe index names the tunnel, and the fragment header
//! ([`tap_crypto::ec::FragmentMeta`]) carries `(index, n, k)` so the
//! receiver can regroup fragments without trusting arrival order.
//!
//! **Degradation is explicit policy, never a panic.** When fewer than `n`
//! disjoint tunnels exist (small overlay, heavy churn):
//!
//! * `k ≤ m < n` tunnels — stripe over an `(m, k)` code: same
//!   reconstruction threshold, less slack;
//! * `m < k` tunnels — fall back to single-path over the best tunnel with
//!   the identity `(1, 1)` code;
//!
//! both journal a `core.ec.degraded` event and bump the counter of the
//! same name. Zero tunnels is the caller's error ([`MultipathError::NoTunnels`]).

use rand::Rng;

use tap_crypto::ec::{EcConfig, EcError};
use tap_id::Id;
use tap_netsim::latency::LatencyModel;
use tap_pastry::storage::ReplicaStore;
use tap_pastry::KeyRouter;

use crate::metrics::CoreInstruments;
use crate::netdrive::{MultipathReport, NetDriver};
use crate::tha::{Tha, ThaSecret};
use crate::transit::{HintCache, TransitError, TransitOptions};
use crate::tunnel::Tunnel;
use crate::wire::Destination;

/// The `(n, k)` stripe configuration of a multipath transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultipathConfig {
    /// Stripes (tunnels, fragments) per transfer.
    pub n: u8,
    /// Fragments required to reconstruct the payload.
    pub k: u8,
    /// Erasure-code chunk granularity in bytes.
    pub chunk: usize,
}

impl Default for MultipathConfig {
    /// craftnet's 5/3 over ~3 KB chunks.
    fn default() -> Self {
        MultipathConfig {
            n: 5,
            k: 3,
            chunk: EcConfig::DEFAULT_CHUNK,
        }
    }
}

impl MultipathConfig {
    /// An `(n, k)` config over the default chunk size.
    pub fn new(n: u8, k: u8) -> Self {
        MultipathConfig {
            n,
            k,
            chunk: EcConfig::DEFAULT_CHUNK,
        }
    }
}

/// Why a multipath transfer failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MultipathError {
    /// The caller supplied no tunnels at all — nothing was sent, no
    /// give-up was counted.
    NoTunnels,
    /// Encoding or reconstruction failed (bad config, too few intact
    /// fragments despite enough deliveries — should not happen unless
    /// fragments were tampered with in flight).
    Code(EcError),
    /// The wire transfer died: more stripes failed than the code
    /// tolerates ([`TransitError::StripesExhausted`]), already counted as
    /// exactly one `core.transit.giveups`.
    Transit(TransitError),
}

impl std::fmt::Display for MultipathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultipathError::NoTunnels => write!(f, "no tunnels available for multipath"),
            MultipathError::Code(e) => write!(f, "erasure coding failed: {e}"),
            MultipathError::Transit(e) => write!(f, "striped transit failed: {e}"),
        }
    }
}

impl std::error::Error for MultipathError {}

impl From<EcError> for MultipathError {
    fn from(e: EcError) -> Self {
        MultipathError::Code(e)
    }
}

impl From<TransitError> for MultipathError {
    fn from(e: TransitError) -> Self {
        MultipathError::Transit(e)
    }
}

/// What a successful striped send produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultipathOutcome {
    /// The payload as reconstructed at the receiver — byte-identical to
    /// what was sent (the EC digest guarantees it).
    pub payload: Vec<u8>,
    /// Stripes actually used (`< config.n` exactly when `degraded`).
    pub stripes_used: usize,
    /// Whether the transfer fell below the configured `n` stripes.
    pub degraded: bool,
    /// Fragments that arrived corrupted and were skipped by the decode.
    pub corrupt_fragments: usize,
    /// Wire-level accounting of the stripe set.
    pub report: MultipathReport,
}

/// Form up to `count` tunnels of length `l` with *globally* disjoint
/// hopids: no anchor serves two stripes, so no relay holds the THA of more
/// than one stripe's hop. Returns fewer than `count` tunnels (possibly
/// none) when the pool runs dry — the degradation policy in
/// [`send_striped`] takes it from there.
pub fn form_disjoint_tunnels<R: Rng + ?Sized>(
    rng: &mut R,
    pool: &[ThaSecret],
    count: usize,
    l: usize,
    b: u32,
) -> Vec<Tunnel> {
    let mut remaining: Vec<ThaSecret> = pool.to_vec();
    let mut tunnels = Vec::with_capacity(count);
    while tunnels.len() < count {
        let Some(t) = Tunnel::form_scattered(rng, &remaining, l, b) else {
            break;
        };
        let used = t.hop_ids();
        remaining.retain(|s| !used.contains(&s.hopid));
        tunnels.push(t);
    }
    tunnels
}

/// Stripe `payload` across `tunnels` to `dest` and reconstruct it from the
/// first `k` fragments that arrive.
///
/// Applies the degradation policy (see module docs) to however many
/// tunnels the caller could form, encodes, builds one onion per stripe,
/// runs `NetDriver::drive_striped`, and decodes. `instruments` records
/// fragment/stripe/laggard counters plus the `core.ec.degraded` journal
/// event; the per-*transfer* delivered-or-gave-up invariant is enforced by
/// the driver underneath.
#[allow(clippy::too_many_arguments)]
pub fn send_striped<L: LatencyModel, R: Rng + ?Sized>(
    driver: &mut NetDriver<L>,
    overlay: &mut impl KeyRouter,
    thas: &ReplicaStore<Tha>,
    rng: &mut R,
    from: Id,
    dest: Id,
    tunnels: &[Tunnel],
    payload: &[u8],
    config: MultipathConfig,
    options: TransitOptions,
    hints: Option<&mut HintCache>,
    instruments: Option<&CoreInstruments>,
) -> Result<MultipathOutcome, MultipathError> {
    if tunnels.is_empty() {
        return Err(MultipathError::NoTunnels);
    }
    let m = tunnels.len().min(config.n as usize);
    let degraded = m < config.n as usize;
    let (code, used) = if m >= config.k as usize {
        (EcConfig::with_chunk(m as u8, config.k, config.chunk)?, m)
    } else {
        // Too few tunnels even for the reconstruction threshold: ship the
        // whole payload single-path under the identity code.
        (EcConfig::with_chunk(1, 1, config.chunk)?, 1)
    };
    if degraded {
        if let Some(ins) = instruments {
            ins.record_ec_degraded(config.n as usize, used);
        }
    }

    let fragments = code.encode(payload)?;
    debug_assert_eq!(fragments.len(), used);
    // One reusable builder for all stripes: after the first stripe warms
    // it, each remaining onion costs the fused cipher pass plus exactly
    // one exact-size output copy.
    let mut builder = tap_crypto::onion::OnionBuilder::new();
    let stripes: Vec<(Id, Vec<u8>)> = tunnels[..used]
        .iter()
        .zip(&fragments)
        .map(|(t, frag)| {
            t.build_onion_into(
                rng,
                Destination::Node(dest),
                frag,
                hints.as_deref(),
                &mut builder,
            );
            (t.entry_hopid(), builder.as_bytes().to_vec())
        })
        .collect();

    let (delivered, report) = driver.drive_striped(
        overlay,
        thas,
        from,
        stripes,
        code.k() as usize,
        options,
        hints,
    )?;
    let cores: Vec<Vec<u8>> = delivered.into_iter().map(|(_, core)| core).collect();
    let decoded = code.reconstruct(&cores)?;
    Ok(MultipathOutcome {
        payload: decoded.payload,
        stripes_used: used,
        degraded,
        corrupt_fragments: decoded.corrupt.len(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draws::Purpose;
    use crate::world::World;
    use tap_metrics::Registry;
    use tap_netsim::latency::UniformLatency;
    use tap_netsim::{Network, NetworkConfig};
    use tap_pastry::PastryConfig;

    struct Fx {
        world: World,
        initiator: Id,
        driver: NetDriver<UniformLatency>,
        registry: Registry,
    }

    fn fixture(n: usize, seed: u64) -> Fx {
        let mut world = World::build(PastryConfig::paper_defaults(), n, seed);
        let initiator = world.random_node().unwrap();
        let mut driver = NetDriver::new(Network::new(
            NetworkConfig::paper_defaults(),
            UniformLatency::paper(seed),
        ));
        let registry = Registry::new();
        driver.use_instruments(CoreInstruments::new(&registry));
        Fx {
            world,
            initiator,
            driver,
            registry,
        }
    }

    /// Deploy `count` anchors and return their secrets as a pool.
    fn anchor_pool(fx: &mut Fx, count: usize) -> Vec<ThaSecret> {
        fx.world.fresh_hops(fx.initiator, count).unwrap()
    }

    fn pick_dest(fx: &mut Fx) -> Id {
        loop {
            let d = fx.world.random_node().unwrap();
            if d != fx.initiator {
                break d;
            }
        }
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 131 + 7) as u8).collect()
    }

    #[test]
    fn full_five_three_transfer_roundtrips() {
        let mut fx = fixture(300, 31);
        let pool = anchor_pool(&mut fx, 30);
        let tunnels =
            form_disjoint_tunnels(&mut fx.world.stream(Purpose::Formation), &pool, 5, 3, 4);
        assert_eq!(tunnels.len(), 5);
        let dest = pick_dest(&mut fx);
        let sent = payload(9216); // three default chunks
        let mut flow = fx.world.stream(Purpose::Flow);
        let out = send_striped(
            &mut fx.driver,
            &mut fx.world.overlay,
            &fx.world.thas,
            &mut flow,
            fx.initiator,
            dest,
            &tunnels,
            &sent,
            MultipathConfig::default(),
            TransitOptions::default(),
            None,
            Some(&CoreInstruments::new(&fx.registry)),
        )
        .unwrap();
        assert_eq!(out.payload, sent);
        assert_eq!(out.stripes_used, 5);
        assert!(!out.degraded);
        assert_eq!(out.corrupt_fragments, 0);
        assert_eq!(out.report.stripes_total, 5);
        let snap = fx.registry.snapshot();
        assert_eq!(snap.counter("core.ec.degraded"), 0);
        assert!(snap.counter("core.mp.fragments_delivered") >= 3);
        // Disjoint stripes: wire bytes per stripe ≈ payload/k, so total
        // wire bytes stay well under n× the single-path cost.
        assert!(out.report.bytes_on_wire > 0);
    }

    #[test]
    fn degrades_to_fewer_stripes_with_journal() {
        let mut fx = fixture(300, 32);
        // Pool supports only 4 disjoint 3-hop tunnels.
        let pool = anchor_pool(&mut fx, 12);
        let tunnels =
            form_disjoint_tunnels(&mut fx.world.stream(Purpose::Formation), &pool, 5, 3, 4);
        assert_eq!(tunnels.len(), 4);
        let journal = fx.registry.install_journal(16);
        let dest = pick_dest(&mut fx);
        let sent = payload(4000);
        let mut flow = fx.world.stream(Purpose::Flow);
        let out = send_striped(
            &mut fx.driver,
            &mut fx.world.overlay,
            &fx.world.thas,
            &mut flow,
            fx.initiator,
            dest,
            &tunnels,
            &sent,
            MultipathConfig::default(),
            TransitOptions::default(),
            None,
            Some(&CoreInstruments::new(&fx.registry)),
        )
        .unwrap();
        assert_eq!(out.payload, sent);
        assert_eq!(out.stripes_used, 4, "(4, 3) code over the 4 tunnels");
        assert!(out.degraded);
        assert_eq!(fx.registry.snapshot().counter("core.ec.degraded"), 1);
        let events = journal.snapshot();
        assert!(
            events
                .iter()
                .any(|e| e.kind == "core.ec.degraded" && e.detail.contains("formed 4")),
            "degradation must be journaled: {events:?}"
        );
    }

    #[test]
    fn degrades_to_single_path_below_k() {
        let mut fx = fixture(300, 33);
        // Pool supports only 2 disjoint tunnels — under k = 3.
        let pool = anchor_pool(&mut fx, 6);
        let tunnels =
            form_disjoint_tunnels(&mut fx.world.stream(Purpose::Formation), &pool, 5, 3, 4);
        assert_eq!(tunnels.len(), 2);
        let dest = pick_dest(&mut fx);
        let sent = payload(5000);
        let mut flow = fx.world.stream(Purpose::Flow);
        let out = send_striped(
            &mut fx.driver,
            &mut fx.world.overlay,
            &fx.world.thas,
            &mut flow,
            fx.initiator,
            dest,
            &tunnels,
            &sent,
            MultipathConfig::default(),
            TransitOptions::default(),
            None,
            Some(&CoreInstruments::new(&fx.registry)),
        )
        .unwrap();
        assert_eq!(out.payload, sent);
        assert_eq!(out.stripes_used, 1, "single-path identity code");
        assert!(out.degraded);
        assert_eq!(fx.registry.snapshot().counter("core.ec.degraded"), 1);
    }

    #[test]
    fn zero_tunnels_is_an_explicit_error() {
        let mut fx = fixture(200, 34);
        let dest = pick_dest(&mut fx);
        let mut flow = fx.world.stream(Purpose::Flow);
        let err = send_striped(
            &mut fx.driver,
            &mut fx.world.overlay,
            &fx.world.thas,
            &mut flow,
            fx.initiator,
            dest,
            &[],
            b"payload",
            MultipathConfig::default(),
            TransitOptions::default(),
            None,
            None,
        )
        .unwrap_err();
        assert_eq!(err, MultipathError::NoTunnels);
    }

    #[test]
    fn disjoint_tunnels_share_no_hopids() {
        let mut fx = fixture(250, 35);
        let pool = anchor_pool(&mut fx, 40);
        let tunnels =
            form_disjoint_tunnels(&mut fx.world.stream(Purpose::Formation), &pool, 5, 4, 4);
        assert_eq!(tunnels.len(), 5);
        let mut all: Vec<Id> = tunnels.iter().flat_map(|t| t.hop_ids()).collect();
        let before = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), before, "no hopid serves two stripes");
    }
}
