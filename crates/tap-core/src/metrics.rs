//! Cached [`tap_metrics`] handles for this crate's hot paths.
//!
//! All tap-core instrumentation flows through [`CoreInstruments`]: one
//! registry lookup per metric at construction, plain atomic operations on
//! the cached handles afterwards. [`crate::World`] makes one where it needs
//! threads it (as `Option<&CoreInstruments>`) into transit and retrieval;
//! standalone callers of [`crate::transit::drive`] pay nothing.

use std::sync::Arc;

use tap_id::Id;
use tap_metrics::{Counter, Histogram, Registry};

/// Metric names recorded by tap-core.
///
/// * `core.onion.wrap_us` — histogram, wall-clock microseconds to seal one
///   complete onion (encrypt side; the fused codec applies every layer's
///   keystream in one pass, so the sample covers all layers).
/// * `core.onion.peel_us` — histogram, wall-clock microseconds to open one
///   onion layer (decrypt side, recorded per hop during transit).
/// * `core.transit.retries` — counter, direct-address (§5 hint) attempts
///   that failed and fell back to overlay routing, plus per-hop resends
///   after a delivery timeout in the timed driver.
/// * `core.transit.backoff_us` — histogram, microseconds slept between a
///   timeout and the resend it triggered (exponential per attempt).
/// * `core.transit.giveups` — counter, transfers abandoned, once per
///   transfer: a single path whose routed hop spent its retry budget
///   (never a hinted attempt with its fallback pending), or a stripe set
///   with too few stripes left.
/// * `core.tha.takeovers` — counter, tunnel hops served by a replica
///   candidate instead of the node that was root at deployment time. Each
///   takeover also emits a `core.tha.takeover` event naming the hopid.
/// * `core.mp.fragments_delivered` — counter, erasure-coded fragments that
///   completed their stripe during a multipath transfer.
/// * `core.mp.stripe_giveups` — counter, individual stripes abandoned
///   (retry budget, broken tunnel) beneath a transfer that may still
///   succeed from the surviving fragments.
/// * `core.mp.laggards_cancelled` — counter, in-flight stripes whose
///   watchdogs were cancelled because `k` other fragments already
///   reconstructed the transfer.
/// * `core.ec.degraded` — counter, multipath transfers that could not form
///   the configured `n` disjoint tunnels and fell back to fewer stripes or
///   single-path. Each also emits a `core.ec.degraded` event.
#[derive(Clone)]
pub struct CoreInstruments {
    registry: Registry,
    /// Per-layer onion seal (encrypt) timing, microseconds.
    pub onion_wrap_us: Arc<Histogram>,
    /// Per-layer onion open (decrypt) timing, microseconds.
    pub onion_peel_us: Arc<Histogram>,
    /// Hint attempts that failed and retried via overlay routing, and
    /// timed-driver resends after a timeout.
    pub transit_retries: Arc<Counter>,
    /// Microseconds between a timeout and its resend.
    pub transit_backoff_us: Arc<Histogram>,
    /// Transfers abandoned, once per transfer.
    pub transit_giveups: Arc<Counter>,
    /// Hops served by a replica candidate rather than the original root.
    pub tha_takeovers: Arc<Counter>,
    /// Erasure-coded fragments delivered across all multipath transfers.
    pub mp_fragments_delivered: Arc<Counter>,
    /// Stripes abandoned beneath a (possibly still successful) transfer.
    pub mp_stripe_giveups: Arc<Counter>,
    /// Laggard stripes cancelled after `k` fragments already arrived.
    pub mp_laggards_cancelled: Arc<Counter>,
    /// Multipath transfers that degraded below the configured stripe count.
    pub ec_degraded: Arc<Counter>,
}

impl CoreInstruments {
    /// Resolve (or create) this crate's instruments in `registry`.
    pub fn new(registry: &Registry) -> Self {
        CoreInstruments {
            registry: registry.clone(),
            onion_wrap_us: registry.histogram("core.onion.wrap_us"),
            onion_peel_us: registry.histogram("core.onion.peel_us"),
            transit_retries: registry.counter("core.transit.retries"),
            transit_backoff_us: registry.histogram("core.transit.backoff_us"),
            transit_giveups: registry.counter("core.transit.giveups"),
            tha_takeovers: registry.counter("core.tha.takeovers"),
            mp_fragments_delivered: registry.counter("core.mp.fragments_delivered"),
            mp_stripe_giveups: registry.counter("core.mp.stripe_giveups"),
            mp_laggards_cancelled: registry.counter("core.mp.laggards_cancelled"),
            ec_degraded: registry.counter("core.ec.degraded"),
        }
    }

    /// The registry these instruments record into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Record a replica takeover of `hopid` by `node` (counter + event).
    /// tap-core has no clock of its own, so events carry `at_micros = 0`;
    /// the journal preserves insertion order regardless.
    pub fn record_takeover(&self, hopid: Id, node: Id) {
        self.tha_takeovers.inc();
        self.registry.emit(
            0,
            "core.tha.takeover",
            format_args!("hopid={hopid:?} node={node:?}"),
        );
    }

    /// Record a multipath transfer that could not form its configured `n`
    /// disjoint tunnels and degraded to `got` stripes (counter + event).
    /// Degradation is explicit policy, never a panic, so the journal names
    /// the shortfall.
    pub(crate) fn record_ec_degraded(&self, wanted: usize, got: usize) {
        self.ec_degraded.inc();
        self.registry.emit(
            0,
            "core.ec.degraded",
            format_args!("wanted={wanted} stripes, formed {got}"),
        );
    }
}

impl std::fmt::Debug for CoreInstruments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreInstruments").finish_non_exhaustive()
    }
}
