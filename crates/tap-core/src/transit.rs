//! Driving messages through tunnels over the live overlay (§2, §5).
//!
//! Transit is where TAP's fault tolerance actually plays out. For each
//! tunnel hop the message is routed *by hopid*: the overlay delivers it to
//! whatever node is currently numerically closest, and that node — the
//! original tunnel hop node or a replica candidate that took over — peels
//! one layer and forwards. A hop is lost only when every replica holder of
//! its THA has failed ([`TransitError::ThaLost`]).
//!
//! The §5 optimization rides along: when an onion layer carries an address
//! hint and the hinted node is still the hop's root, the message takes one
//! direct hop instead of `log_{2^b} N` routing hops; a stale hint falls
//! back to routing transparently. The [`HintCache`] is the initiator-side
//! "cache of the mappings between a tunnel hop hopid and the IP address of
//! its tunnel hop node".
//!
//! One protocol, two fronts. The per-hop protocol is written once, as the
//! flow machine of [`crate::netdrive`]: a flow's next leg (a route by
//! hopid, a direct hop to a hinted node or the destination) and its arrival
//! (THA check, peel, follow the header). The timed front puts each leg on
//! the emulated wire, where a stale hint is learnt by timeout. The logical
//! front here, [`drive`], takes each leg at once and decides by oracle what
//! it cannot wait for: a hint is good only while its node is live and the
//! hop's root, a hop whose root holds no replica is [`TransitError::ThaLost`]
//! before anything is routed, and the [`TransitReport`] (node path, hint
//! hits and misses), takeovers and per-peel timings are its to keep.

use std::time::Instant;

use tap_id::{Id, IdHashMap};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{KeyRouter, RouteError};

use crate::metrics::CoreInstruments;
use crate::netdrive::Flow;
use crate::tha::Tha;

/// Initiator-side cache: hopid → the node last seen serving that hop.
///
/// Stands in for the paper's IP-address cache; in the simulator a node's
/// identity plays the role of its address.
#[derive(Debug, Clone, Default)]
pub struct HintCache {
    map: IdHashMap<Id>,
}

impl HintCache {
    /// Remember that `node` currently serves `hopid`.
    pub fn record(&mut self, hopid: Id, node: Id) {
        self.map.insert(hopid, node);
    }

    /// The cached node for `hopid`, if any.
    pub fn lookup(&self, hopid: Id) -> Option<Id> {
        self.map.get(&hopid).copied()
    }

    /// Refresh the cache for `hopids` from the overlay oracle (the paper:
    /// the initiator "can periodically refresh the cache").
    pub fn refresh(&mut self, overlay: &impl KeyRouter, hopids: &[Id]) {
        for h in hopids {
            if let Some(root) = overlay.owner_of(*h) {
                self.record(*h, root);
            }
        }
    }

    /// Drop the cached mapping for `hopid`, returning the demoted node.
    ///
    /// The §5 fallback: "It first tries the IP address; if it fails, then
    /// routes the message to the tunnel hop node corresponding to the
    /// hopid." A hint can be wrong without the oracle noticing — the node
    /// may still be overlay-live but unreachable on the wire (crashed
    /// endpoint, partition) — so the timed driver demotes a hint when the
    /// *direct attempt times out*, not only on an explicit oracle miss.
    pub(crate) fn demote(&mut self, hopid: Id) -> Option<Id> {
        self.map.remove(&hopid)
    }

    /// Number of cached mappings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Why transit failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransitError {
    /// Every replica of this hop's THA is gone: the tunnel is broken.
    ThaLost {
        /// The unreachable hop.
        hopid: Id,
    },
    /// A layer failed to decrypt or parse at the named hop (tampering or a
    /// mis-built tunnel).
    BadLayer {
        /// The hop whose layer failed.
        hopid: Id,
    },
    /// The overlay could not route (empty or inconsistent).
    Routing(RouteError),
    /// The final destination node is dead.
    DeadDestination {
        /// The dead destination.
        node: Id,
    },
    /// A wire hop kept timing out until the retry budget ran out (timed
    /// driver only; the logical driver has no wire to time out on).
    RetriesExhausted {
        /// The hopid whose segment could not be delivered.
        hopid: Id,
        /// Send attempts made (first try plus retries).
        attempts: u32,
    },
    /// A multipath transfer lost more stripes than its erasure code
    /// tolerates: fewer than `need` fragments can still arrive.
    StripesExhausted {
        /// Fragments that did arrive before the transfer became hopeless.
        delivered: usize,
        /// Fragments the erasure code requires.
        need: usize,
    },
}

impl std::fmt::Display for TransitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransitError::ThaLost { hopid } => {
                write!(f, "all replicas of hop {hopid:?} failed")
            }
            TransitError::BadLayer { hopid } => {
                write!(f, "onion layer at hop {hopid:?} failed to open")
            }
            TransitError::Routing(e) => write!(f, "overlay routing failed: {e}"),
            TransitError::DeadDestination { node } => {
                write!(f, "destination {node:?} is dead")
            }
            TransitError::RetriesExhausted { hopid, attempts } => {
                write!(f, "gave up on hop {hopid:?} after {attempts} send attempts")
            }
            TransitError::StripesExhausted { delivered, need } => {
                write!(
                    f,
                    "multipath transfer dead: {delivered} fragments delivered, {need} needed, \
                     too few stripes left"
                )
            }
        }
    }
}

impl std::error::Error for TransitError {}

impl From<RouteError> for TransitError {
    fn from(e: RouteError) -> Self {
        TransitError::Routing(e)
    }
}

/// How the message left the tunnel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// The tail hop delivered the core payload to a destination node.
    ToDestination {
        /// The node the payload was handed to.
        node: Id,
        /// The decrypted core payload.
        core: Vec<u8>,
    },
    /// The message arrived at the root of an identifier that anchors no
    /// THA — the `bid` terminal of a reply tunnel (§4): only the true
    /// initiator recognises it.
    AtAnchorlessRoot {
        /// The node that received the message (the initiator, for a
        /// well-formed reply tunnel).
        node: Id,
        /// The unpeeled residue (the fakeonion, for a reply tunnel).
        residue: Vec<u8>,
    },
}

/// Metrics gathered while traversing a tunnel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitReport {
    /// Tunnel hops successfully resolved (layers peeled).
    pub hops_resolved: usize,
    /// Total overlay (Pastry) routing hops across all tunnel hops.
    pub overlay_hops: usize,
    /// Overlay hops that were short-circuited by a fresh address hint.
    pub hint_hits: usize,
    /// Hints that were stale and fell back to routing.
    pub hint_misses: usize,
    /// The node-level path, segment per tunnel hop: every node the onion
    /// reached, from the initiator on (diagnostics and tests).
    pub node_path: Vec<Id>,
}

/// Traversal options.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransitOptions {
    /// Honor address hints embedded in onion layers (§5, `TAP_opt`).
    pub use_hints: bool,
    /// Resends allowed per wire hop after the first attempt times out
    /// (timed driver only; exponential backoff between attempts). Zero —
    /// the default — keeps the historical fire-and-forget behaviour:
    /// a single undelivered hop ends the traversal with
    /// [`TransitError::RetriesExhausted`].
    pub retry_budget: u32,
}

impl TransitOptions {
    /// Hint-following traversal (§5, `TAP_opt`) with no retry budget.
    pub fn hinted() -> Self {
        TransitOptions {
            use_hints: true,
            ..TransitOptions::default()
        }
    }
}

/// Drive `onion` from `from` through the tunnel starting at `entry_hop`.
///
/// Per hop: resolve the hopid to its current root, verify the root holds a
/// THA replica, peel one layer with the THA key, and follow the revealed
/// header. Returns the terminal [`Delivery`] plus a [`TransitReport`].
pub fn drive(
    overlay: &mut impl KeyRouter,
    thas: &ReplicaStore<Tha>,
    from: Id,
    entry_hop: Id,
    onion_bytes: Vec<u8>,
    options: TransitOptions,
) -> Result<(Delivery, TransitReport), TransitError> {
    drive_instrumented(overlay, thas, from, entry_hop, onion_bytes, options, None)
}

/// [`drive`], recording per-layer decrypt timings, replica takeovers and
/// hint-retry counts into `instruments` when provided.
///
/// The wire engine's flow machine stepped without a wire: every leg the
/// machine decides is taken at once and counted into the report, then
/// `Flow::arrive` peels and follows the header. In front of the machine
/// sit the decisions only an oracle can make (`resolve_hop`).
#[allow(clippy::too_many_arguments)]
pub fn drive_instrumented(
    overlay: &mut impl KeyRouter,
    thas: &ReplicaStore<Tha>,
    from: Id,
    entry_hop: Id,
    onion_bytes: Vec<u8>,
    options: TransitOptions,
    instruments: Option<&CoreInstruments>,
) -> Result<(Delivery, TransitReport), TransitError> {
    let mut flow = Flow::new(from, entry_hop, onion_bytes, 0);
    let mut report = TransitReport {
        node_path: vec![from],
        ..TransitReport::default()
    };
    loop {
        let leg = if flow.delivering.is_some() {
            Some(flow.next_leg(overlay, options.use_hints)?)
        } else {
            let root = resolve_hop(overlay, thas, &mut flow, &mut report, options, instruments)?;
            root.map(|root| flow.hop_leg(overlay, options.use_hints, root))
                .transpose()?
        };
        if let Some(leg) = leg {
            let onward = leg.path().get(1..).unwrap_or_default();
            report.overlay_hops += onward.len();
            report.node_path.extend_from_slice(onward);
        }
        let peel_started = instruments.map(|_| Instant::now());
        flow.arrive(thas);
        // A hop's arrival peels a layer; the delivery leg's hands the core over.
        if let (Some(ins), Some(t0)) = (instruments, peel_started) {
            if flow.report.hops_resolved > report.hops_resolved {
                ins.onion_peel_us.record(t0.elapsed().as_micros() as u64);
            }
        }
        report.hops_resolved = flow.report.hops_resolved;
        if let Some(end) = flow.end.take() {
            return end.map(|delivery| (delivery, report));
        }
    }
}

/// What the logical front decides for hop `flow.hop` before it is routed,
/// by oracle, since there is no wire to learn it from:
///
/// * the hop's current root must hold a THA replica, or every holder has
///   failed and the tunnel is lost ([`TransitError::ThaLost`], with nothing
///   routed); a root other than the deposit-time one is a takeover;
/// * a §5 hint is good only if its node is alive and still the root — a
///   stale one is a miss and a retry, dropped so the hop is routed by id.
///
/// Returns the root to take the hop's leg to, or `None` when a good hint
/// names the node the onion already sits on and there is no leg to take.
fn resolve_hop(
    overlay: &impl KeyRouter,
    thas: &ReplicaStore<Tha>,
    flow: &mut Flow,
    report: &mut TransitReport,
    options: TransitOptions,
    instruments: Option<&CoreInstruments>,
) -> Result<Option<Id>, TransitError> {
    let hop = flow.hop;
    let root = overlay.owner_of(hop).ok_or(RouteError::EmptyOverlay)?;
    // No record: a terminal identifier that anchors nothing (a reply
    // tunnel's bid), routed to like any hop.
    if let Some(record) = thas.get(hop) {
        if !record.holders.contains(&root) {
            return Err(TransitError::ThaLost { hopid: hop });
        }
        if let Some(ins) = instruments {
            // holders[0] was the root when the THA was deposited; anyone
            // else serving the hop is a replica candidate that took over.
            if record.holders.first() != Some(&root) {
                ins.record_takeover(hop, root);
            }
        }
    }
    let Some(hint) = flow.hint.filter(|_| options.use_hints) else {
        return Ok(Some(root));
    };
    // "It first tries the IP address; if it fails, then routes the message
    // to the tunnel hop node corresponding to the hopid."
    if overlay.is_live(hint) && hint == root {
        report.hint_hits += 1;
        return Ok((hint != flow.current).then_some(root));
    }
    report.hint_misses += 1;
    if let Some(ins) = instruments {
        ins.transit_retries.inc();
    }
    flow.hint = None;
    Ok(Some(root))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draws::Purpose::Flow;
    use crate::tunnel::{ReplyTunnel, Tunnel};
    use crate::wire::Destination;
    use crate::world::World;
    use tap_pastry::PastryConfig;

    /// A world of `n` nodes replicating `k` ways, and the node that sends.
    fn world(n: usize, k: usize, seed: u64) -> (World, Id) {
        let mut w = World::build(PastryConfig::with_replication(k), n, seed);
        let initiator = w.random_node().unwrap();
        (w, initiator)
    }

    /// A scattered tunnel of `l` hops from `4l` fresh anchors of `owner`.
    fn deploy_tunnel(w: &mut World, owner: Id, l: usize) -> Tunnel {
        w.deploy_anchors_direct(owner, l * 4).unwrap();
        w.form_tunnel(owner, l).unwrap()
    }

    #[test]
    fn forward_transit_delivers_plaintext() {
        let (mut w, initiator) = world(150, 3, 1);
        let t = deploy_tunnel(&mut w, initiator, 3);
        let dest = w.random_node().unwrap();
        let onion = t.build_onion(
            &mut w.stream(Flow),
            Destination::Node(dest),
            b"anonymous hello",
            None,
        );
        let (delivery, report) = drive(
            &mut w.overlay,
            &w.thas,
            initiator,
            t.entry_hopid(),
            onion,
            TransitOptions::default(),
        )
        .unwrap();
        assert_eq!(
            delivery,
            Delivery::ToDestination {
                node: dest,
                core: b"anonymous hello".to_vec()
            }
        );
        assert_eq!(report.hops_resolved, 3);
        assert!(report.overlay_hops >= 3, "at least one hop per tunnel hop");
        assert_eq!(report.node_path.last(), Some(&dest));
    }

    #[test]
    fn transit_survives_hop_node_failure() {
        // Kill the current tunnel hop node of the middle hop; a replica
        // candidate must take over (the paper's §2 walkthrough).
        let (mut w, initiator) = world(150, 3, 2);
        let t = deploy_tunnel(&mut w, initiator, 3);
        let mid_hop = t.hops()[1].hopid;
        let old_root = w.overlay.owner_of(mid_hop).unwrap();
        assert_eq!(w.thas.holders(mid_hop)[0], old_root);
        w.overlay.remove_node(old_root);
        // NOTE: no replica repair — the message must still get through via
        // a surviving candidate.
        let dest = loop {
            let d = w.random_node().unwrap();
            if d != old_root {
                break d;
            }
        };
        let onion = t.build_onion(&mut w.stream(Flow), Destination::Node(dest), b"m", None);
        let (delivery, _) = drive(
            &mut w.overlay,
            &w.thas,
            initiator,
            t.entry_hopid(),
            onion,
            TransitOptions::default(),
        )
        .unwrap();
        let new_root = w.overlay.owner_of(mid_hop).unwrap();
        assert_ne!(new_root, old_root);
        assert!(
            w.thas.holders(mid_hop).contains(&new_root),
            "the candidate that took over held a replica"
        );
        assert!(matches!(delivery, Delivery::ToDestination { .. }));
    }

    #[test]
    fn transit_fails_when_all_replicas_die() {
        let (mut w, initiator) = world(150, 3, 3);
        let t = deploy_tunnel(&mut w, initiator, 3);
        let mid_hop = t.hops()[1].hopid;
        for holder in w.thas.holders(mid_hop).to_vec() {
            w.overlay.remove_node(holder);
        }
        let dest = w.random_node().unwrap();
        let onion = t.build_onion(&mut w.stream(Flow), Destination::Node(dest), b"m", None);
        let err = drive(
            &mut w.overlay,
            &w.thas,
            initiator,
            t.entry_hopid(),
            onion,
            TransitOptions::default(),
        )
        .unwrap_err();
        assert_eq!(err, TransitError::ThaLost { hopid: mid_hop });
    }

    #[test]
    fn hints_short_circuit_routing() {
        let (mut w, initiator) = world(200, 3, 4);
        let t = deploy_tunnel(&mut w, initiator, 4);
        let mut hints = HintCache::default();
        hints.refresh(&w.overlay, &t.hop_ids());
        let dest = w.random_node().unwrap();
        let onion = t.build_onion(
            &mut w.stream(Flow),
            Destination::Node(dest),
            b"m",
            Some(&hints),
        );
        // Entry hop also benefits: the initiator knows the first hop node.
        let (_, with_hints) = drive(
            &mut w.overlay,
            &w.thas,
            initiator,
            t.entry_hopid(),
            onion.clone(),
            TransitOptions::hinted(),
        )
        .unwrap();
        let onion2 = t.build_onion(&mut w.stream(Flow), Destination::Node(dest), b"m", None);
        let (_, without) = drive(
            &mut w.overlay,
            &w.thas,
            initiator,
            t.entry_hopid(),
            onion2,
            TransitOptions::default(),
        )
        .unwrap();
        assert_eq!(with_hints.hint_hits, 3, "hops 2..=4 carried hints");
        assert!(
            with_hints.overlay_hops <= without.overlay_hops,
            "hints must not lengthen the path ({} > {})",
            with_hints.overlay_hops,
            without.overlay_hops
        );
    }

    #[test]
    fn stale_hint_falls_back_to_routing() {
        let (mut w, initiator) = world(200, 3, 5);
        let t = deploy_tunnel(&mut w, initiator, 3);
        let mut hints = HintCache::default();
        hints.refresh(&w.overlay, &t.hop_ids());
        // Kill the hinted node of hop 2 — the hint goes stale.
        let hinted = hints.lookup(t.hops()[1].hopid).unwrap();
        w.overlay.remove_node(hinted);
        let dest = loop {
            let d = w.random_node().unwrap();
            if d != hinted {
                break d;
            }
        };
        let onion = t.build_onion(
            &mut w.stream(Flow),
            Destination::Node(dest),
            b"m",
            Some(&hints),
        );
        let (delivery, report) = drive(
            &mut w.overlay,
            &w.thas,
            initiator,
            t.entry_hopid(),
            onion,
            TransitOptions::hinted(),
        )
        .unwrap();
        assert!(matches!(delivery, Delivery::ToDestination { .. }));
        assert!(report.hint_misses >= 1, "the dead hint must be detected");
    }

    #[test]
    fn reply_tunnel_returns_to_initiator() {
        let (mut w, initiator) = world(150, 3, 6);
        let fwd = deploy_tunnel(&mut w, initiator, 3);
        let rev = deploy_tunnel(&mut w, initiator, 3);
        // bid: an id whose root is the initiator — halfway to the ring
        // successor works if closer to the initiator than to anyone else;
        // simplest correct choice here: one above the initiator's own id.
        let bid = initiator.wrapping_add(Id::from_u64(1));
        assert_eq!(w.overlay.owner_of(bid), Some(initiator));
        let rt = ReplyTunnel::build(&mut w.stream(Flow), &rev, bid, 48, None);

        // Pretend a responder got the request through `fwd` and now sends
        // the reply back through `rt`.
        let dest = w.random_node().unwrap();
        let req = fwd.build_onion(&mut w.stream(Flow), Destination::Node(dest), b"req", None);
        let (d1, _) = drive(
            &mut w.overlay,
            &w.thas,
            initiator,
            fwd.entry_hopid(),
            req,
            TransitOptions::default(),
        )
        .unwrap();
        let responder = match d1 {
            Delivery::ToDestination { node, .. } => node,
            other => panic!("unexpected {other:?}"),
        };
        let (d2, _) = drive(
            &mut w.overlay,
            &w.thas,
            responder,
            rt.entry_hopid,
            rt.onion.clone(),
            TransitOptions::default(),
        )
        .unwrap();
        match d2 {
            Delivery::AtAnchorlessRoot { node, residue } => {
                assert_eq!(node, initiator, "reply must reach the initiator");
                assert_eq!(residue.len(), 48, "fakeonion intact");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn tampered_onion_is_rejected_at_first_hop() {
        let (mut w, initiator) = world(100, 3, 7);
        let t = deploy_tunnel(&mut w, initiator, 3);
        let dest = w.random_node().unwrap();
        let mut onion = t.build_onion(&mut w.stream(Flow), Destination::Node(dest), b"m", None);
        let mid = onion.len() / 2;
        onion[mid] ^= 0xff;
        let err = drive(
            &mut w.overlay,
            &w.thas,
            initiator,
            t.entry_hopid(),
            onion,
            TransitOptions::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            TransitError::BadLayer {
                hopid: t.entry_hopid()
            }
        );
    }

    #[test]
    fn dead_destination_reported() {
        let (mut w, initiator) = world(100, 3, 8);
        let t = deploy_tunnel(&mut w, initiator, 3);
        let dest = loop {
            let d = w.random_node().unwrap();
            if d != initiator && !t.hop_ids().contains(&d) {
                break d;
            }
        };
        w.overlay.remove_node(dest);
        let onion = t.build_onion(&mut w.stream(Flow), Destination::Node(dest), b"m", None);
        let result = drive(
            &mut w.overlay,
            &w.thas,
            initiator,
            t.entry_hopid(),
            onion,
            TransitOptions::default(),
        );
        match result {
            Err(TransitError::DeadDestination { node }) => assert_eq!(node, dest),
            // The dead node might have been a THA holder too; then the
            // tunnel itself broke first, which is also a legal outcome.
            Err(TransitError::ThaLost { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
