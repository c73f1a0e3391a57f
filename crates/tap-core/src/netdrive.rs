//! Timed, message-driven tunnel transit over the emulated network.
//!
//! This module holds TAP's one per-hop protocol, the flow machine: `Flow`'s
//! next leg and its arrival (THA check, peel, follow the header). Here it
//! runs as *actual wire traffic* through `tap-netsim`; the logical driver,
//! [`crate::transit::drive`], steps the same machine without a wire. On
//! the wire every overlay hop is a
//! store-and-forward message whose size is the real onion byte count plus
//! the application payload. Two fidelity details fall out for free:
//!
//! * **per-layer shrinkage** — each peel removes one layer's sealing
//!   overhead plus its header, so early hops carry more bytes than late
//!   ones, exactly as a real deployment would;
//! * **serialization vs. propagation** — transfer time composes from the
//!   1.5 Mb/s uplink serialization and the per-link latency, the §7.3 cost
//!   model, with the NIC queueing the emulator enforces.
//!
//! There is one engine: `NetDriver::run` steps a set of `Flow`s — one
//! per tunnel — through a single event loop. A single-path transfer
//! ([`NetDriver::drive_timed_with_hints`], or [`NetDriver::drive_overt`]
//! with no tunnel at all) is the one-flow set; a stripe
//! set (`NetDriver::drive_striped`) is `n` flows of which `k` must
//! arrive. The two fronts decide what the machine cannot: what an
//! anchorless root means, which error a caller sees, and every count that
//! is per *transfer* (give-ups, `core.mp.*`, who saw which stripe) — the
//! machine books only what every wire hop books alike
//! (`core.transit.retries`, `core.transit.backoff_us`).

use tap_crypto::onion;
use tap_id::{Id, IdHashMap};
use tap_netsim::latency::LatencyModel;
use tap_netsim::{EndpointId, Event, Network, SimDuration, SimTime, TimerHandle, TimerToken};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{KeyRouter, RouteError};

use crate::metrics::CoreInstruments;
use crate::tha::Tha;
use crate::transit::{Delivery, HintCache, TransitError, TransitOptions};
use crate::wire::{Destination, HopHeader};

/// Maps overlay nodes onto network endpoints and owns the event loop.
pub struct NetDriver<L: LatencyModel> {
    net: Network<u64, L>,
    endpoint_of: IdHashMap<EndpointId>,
    /// Tags every [`Segment`]'s messages (high payload bits) so late
    /// deliveries and duplicates from an earlier chain can never be
    /// mistaken for the current one's progress, and names the chain's
    /// watchdog: a chain has one armed at a time and cancels it before the
    /// next, so no stale timer of its own can fire.
    flow_seq: u64,
    instruments: Option<CoreInstruments>,
}

/// Timing gathered by a timed traversal.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimedReport {
    /// Wall-clock (virtual) duration of the whole traversal.
    pub elapsed: SimDuration,
    /// Total bytes that crossed links.
    pub bytes_on_wire: u64,
    /// Overlay hops taken.
    pub overlay_hops: usize,
    /// Tunnel hops resolved.
    pub hops_resolved: usize,
}

/// Accounting for one erasure-coded multipath transfer
/// ([`crate::multipath::send_striped`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultipathReport {
    /// Virtual time from first send to the `need`-th fragment arriving.
    pub elapsed: SimDuration,
    /// Total bytes that crossed links, all stripes summed.
    pub bytes_on_wire: u64,
    /// Overlay hops taken across all stripes.
    pub overlay_hops: usize,
    /// Tunnel hops resolved across all stripes.
    pub hops_resolved: usize,
    /// Stripes launched.
    pub stripes_total: usize,
    /// Fragments that completed their tunnel.
    pub stripes_delivered: usize,
    /// Stripes abandoned (retry budget, broken tunnel) before completion.
    pub stripes_failed: usize,
    /// In-flight stripes whose watchdogs were cancelled because enough
    /// fragments had already arrived.
    pub laggards_cancelled: usize,
    /// Per-hop resends across all stripes.
    pub retries: u64,
    /// The most stripes of this transfer any single relay carried — the
    /// anonymity surface (a single-path transfer scores the full stripe
    /// count on every relay).
    pub max_stripes_per_relay: u32,
}

/// One in-flight store-and-forward chain belonging to a flow.
struct Segment {
    eps: Vec<EndpointId>,
    /// Index into `eps` of the endpoint the pending hop is addressed to.
    expect: usize,
    attempts: u32,
    flow: u64,
    guard: TimerHandle,
    /// A §5 direct attempt at a hinted address: exhausting the budget
    /// demotes the hint and re-routes instead of ending the flow.
    hinted: bool,
    wire: u64,
}

/// One onion's traversal of one tunnel: where it is, what it still has to
/// do, what it has cost so far and — once over — how it ended.
pub(crate) struct Flow {
    pub(crate) current: Id,
    pub(crate) hop: Id,
    /// Node the segment in flight ships toward: `hop`'s root (the THA check
    /// on arrival must test the root the segment was routed to), or the
    /// destination on the delivery leg. Between legs it is `current`.
    root: Id,
    pub(crate) hint: Option<Id>,
    /// One buffer for the whole traversal: every peel is one in-place
    /// cipher pass, and the shrinking region is also the wire size.
    onion: onion::LayerBuf,
    /// Application data travelling beside the onion (a file on a reply
    /// path); zero for a stripe.
    payload_bytes: u64,
    /// Set once the tail hop revealed the delivery header.
    pub(crate) delivering: Option<Destination>,
    segment: Option<Segment>,
    /// What this flow alone has cost; `elapsed` is the front's to fill.
    pub(crate) report: TimedReport,
    /// Watchdog resends (a demoted hint is not one).
    retries: u64,
    /// `None` while on the wire — and for good, if the transfer was
    /// decided without this flow.
    pub(crate) end: Option<Result<Delivery, TransitError>>,
}

impl Flow {
    pub(crate) fn new(from: Id, entry_hop: Id, onion_bytes: Vec<u8>, payload_bytes: u64) -> Flow {
        Flow {
            current: from,
            hop: entry_hop,
            root: from,
            hint: None,
            onion: onion::LayerBuf::from_vec(onion_bytes),
            payload_bytes,
            delivering: None,
            segment: None,
            report: TimedReport::default(),
            retries: 0,
            end: None,
        }
    }

    /// The next segment's [`Leg`], fixing `root`, the node it ships toward.
    pub(crate) fn next_leg(
        &mut self,
        overlay: &mut impl KeyRouter,
        use_hints: bool,
    ) -> Result<Leg, TransitError> {
        match self.delivering {
            Some(Destination::Node(n)) if !overlay.is_live(n) => {
                Err(TransitError::DeadDestination { node: n })
            }
            Some(Destination::Node(n)) => {
                self.root = n;
                Ok(Leg::Direct([self.current, n]))
            }
            Some(Destination::KeyRoot(key)) => {
                let path = overlay.route_path(self.current, key)?;
                self.root = path.last().copied().unwrap_or(self.current);
                Ok(Leg::Routed(path))
            }
            None => {
                let root = overlay.owner_of(self.hop).ok_or(RouteError::EmptyOverlay)?;
                self.hop_leg(overlay, use_hints, root)
            }
        }
    }

    /// The leg toward `root`, the node serving hop `hop`: straight to a §5
    /// hint, or a route by hopid. No oracle is consulted about a hint: a
    /// real initiator cannot know it went stale except by the attempt
    /// timing out.
    pub(crate) fn hop_leg(
        &mut self,
        overlay: &mut impl KeyRouter,
        use_hints: bool,
        root: Id,
    ) -> Result<Leg, TransitError> {
        self.root = root;
        match self.hint {
            Some(h) if use_hints && h != self.current => Ok(Leg::Direct([self.current, h])),
            _ => Ok(Leg::Routed(overlay.route_path(self.current, self.hop)?)),
        }
    }

    /// The onion arrived at `root`: on the delivery leg hand over the core;
    /// for hop `hop` run the THA check, peel one layer, follow the header.
    /// Returns whether the flow has another segment to launch.
    pub(crate) fn arrive(&mut self, thas: &ReplicaStore<Tha>) -> bool {
        if self.delivering.is_some() {
            self.end = Some(Ok(Delivery::ToDestination {
                node: self.root,
                core: std::mem::take(&mut self.onion).into_vec(),
            }));
            return false;
        }
        let Some(record) = thas.get(self.hop) else {
            // An identifier that anchors nothing: §4's `bid` terminal for a
            // reply tunnel, a lost fragment for a stripe — the fronts judge.
            self.end = Some(Ok(Delivery::AtAnchorlessRoot {
                node: self.root,
                residue: std::mem::take(&mut self.onion).into_vec(),
            }));
            return false;
        };
        if !record.holders.contains(&self.root) {
            self.end = Some(Err(TransitError::ThaLost { hopid: self.hop }));
            return false;
        }
        self.current = self.root;
        let peeled = self.onion.peel(&record.value.key);
        let Some(header) = peeled.ok().and_then(|b| HopHeader::decode(b).ok()) else {
            self.end = Some(Err(TransitError::BadLayer { hopid: self.hop }));
            return false;
        };
        self.report.hops_resolved += 1;
        match header {
            HopHeader::Forward { next_hop, hint } => {
                self.hop = next_hop;
                self.hint = hint;
            }
            HopHeader::Deliver { dest } => self.delivering = Some(dest),
        }
        true
    }
}

/// The nodes a segment visits: one hop straight to a known address (the
/// destination node, or a §5 attempt at a hinted one) or a route by key.
pub(crate) enum Leg {
    Direct([Id; 2]),
    Routed(Vec<Id>),
}

impl Leg {
    /// The nodes visited, from where the onion is: a direct leg to the
    /// node it already sits on visits nothing beyond it.
    pub(crate) fn path(&self) -> &[Id] {
        match self {
            Leg::Direct(pair) if pair[0] == pair[1] => &pair[..1],
            Leg::Direct(pair) => pair,
            Leg::Routed(path) => path,
        }
    }
}

/// The in-flight segment `hit` matches, and the index of its flow.
fn in_flight(flows: &mut [Flow], hit: impl Fn(&Segment) -> bool) -> Option<(usize, &mut Segment)> {
    flows
        .iter_mut()
        .enumerate()
        .find_map(|(i, f)| Some((i, f.segment.as_mut().filter(|s| hit(s))?)))
}

/// What the machine steps its flows against.
struct FlowCx<'a, R, F> {
    overlay: &'a mut R,
    thas: &'a ReplicaStore<Tha>,
    options: TransitOptions,
    hints: Option<&'a mut HintCache>,
    /// Told `(flow index, node path, is the delivery leg)` for every
    /// segment a flow sets out on, zero-length ones included.
    on_segment: F,
}

impl<L: LatencyModel> NetDriver<L> {
    /// Wrap a network; endpoints are registered lazily per node.
    pub fn new(net: Network<u64, L>) -> Self {
        NetDriver {
            net,
            endpoint_of: IdHashMap::default(),
            flow_seq: 0,
            instruments: None,
        }
    }

    /// Record retries/backoff/giveups into `instruments` from now on.
    pub fn use_instruments(&mut self, instruments: CoreInstruments) {
        self.instruments = Some(instruments);
    }

    /// Current virtual time of the underlying network.
    pub fn now(&self) -> SimTime {
        self.net.now()
    }

    /// The underlying network — for installing a
    /// [`tap_netsim::FaultPlan`], cutting partitions, or reading stats.
    pub fn network_mut(&mut self) -> &mut Network<u64, L> {
        &mut self.net
    }

    /// Pre-create the endpoint for `node` (normally lazy on first send).
    /// Chaos harnesses need ids up front to schedule crash/restart plans.
    pub fn register(&mut self, node: Id) -> EndpointId {
        self.endpoint(node)
    }

    /// Crash `node`'s endpoint on the wire (the overlay keeps thinking it
    /// is live — exactly the split-brain the §5 hint fallback handles).
    pub fn kill_node(&mut self, node: Id) {
        let e = self.endpoint(node);
        self.net.kill(e);
    }

    /// Bring `node`'s endpoint back.
    pub fn revive_node(&mut self, node: Id) {
        let e = self.endpoint(node);
        self.net.revive(e);
    }

    /// The endpoint for `node`, creating it on first use.
    fn endpoint(&mut self, node: Id) -> EndpointId {
        match self.endpoint_of.get(&node) {
            Some(e) => *e,
            None => {
                let e = self.net.add_endpoint();
                self.endpoint_of.insert(node, e);
                e
            }
        }
    }

    /// Timeout before resending a hop carrying `bytes`: the worst-case
    /// delivery (serialization at 1.5 Mb/s plus the 230 ms latency
    /// ceiling), doubled per attempt already made.
    fn resend_timeout(bytes: u64, attempt: u32) -> SimDuration {
        let serialization_us = bytes.saturating_mul(16) / 3;
        let base = SimDuration::from_micros(serialization_us + 500_000);
        base.mul(1u64 << attempt.min(16))
    }

    /// Drive `onion_bytes` (plus `payload_bytes` of application data
    /// travelling alongside, e.g. a file on a reply path) through the
    /// tunnel starting at `entry_hop`, as timed wire traffic, demoting
    /// through the initiator-side [`HintCache`] if one is given. The §5
    /// fallback at wire fidelity: a hinted direct hop that *times out*
    /// (hinted node overlay-live but crashed or partitioned on the wire)
    /// evicts the hint and re-ships the segment via overlay routing,
    /// instead of giving up on the whole traversal.
    ///
    /// The single-path front of `NetDriver::run` (one `Flow`, `need = 1`):
    /// an anchorless root is a delivery (the §4 `bid` terminal), and only a
    /// terminal [`TransitError::RetriesExhausted`] — never a hinted attempt
    /// that still had its fallback, never a broken tunnel — is a
    /// `core.transit.giveups`.
    #[allow(clippy::too_many_arguments)]
    pub fn drive_timed_with_hints(
        &mut self,
        overlay: &mut impl KeyRouter,
        thas: &ReplicaStore<Tha>,
        from: Id,
        entry_hop: Id,
        onion_bytes: Vec<u8>,
        payload_bytes: u64,
        options: TransitOptions,
        hints: Option<&mut HintCache>,
    ) -> Result<(Delivery, TimedReport), TransitError> {
        let flow = Flow::new(from, entry_hop, onion_bytes, payload_bytes);
        self.drive_one(overlay, thas, flow, options, hints)
    }

    /// Ship `payload_bytes` from `from` to the root of `key` along the
    /// plain overlay route, with no tunnel: Fig. 6's overt transfer, timed
    /// on the same wire as a tunnelled one. The single-path front with its
    /// flow created already on its delivery leg, carrying an empty onion,
    /// so it anchors nothing and reads no THA from `thas`.
    pub fn drive_overt(
        &mut self,
        overlay: &mut impl KeyRouter,
        thas: &ReplicaStore<Tha>,
        from: Id,
        key: Id,
        payload_bytes: u64,
    ) -> Result<(Delivery, TimedReport), TransitError> {
        let mut flow = Flow::new(from, key, Vec::new(), payload_bytes);
        flow.delivering = Some(Destination::KeyRoot(key));
        self.drive_one(overlay, thas, flow, TransitOptions::default(), None)
    }

    /// Step one flow to its end; the single-path fronts' shared body.
    fn drive_one(
        &mut self,
        overlay: &mut impl KeyRouter,
        thas: &ReplicaStore<Tha>,
        mut flow: Flow,
        options: TransitOptions,
        hints: Option<&mut HintCache>,
    ) -> Result<(Delivery, TimedReport), TransitError> {
        let start = self.net.now();
        let mut cx = FlowCx {
            overlay,
            thas,
            options,
            hints,
            on_segment: |_: usize, _: &[Id], _: bool| {},
        };
        self.run(&mut cx, std::slice::from_mut(&mut flow), 1);
        // The machine stops once one flow delivered or none still can, so a
        // lone flow has ended; one cut short never heard back from its hop.
        let cut_short = TransitError::RetriesExhausted {
            hopid: flow.hop,
            attempts: 0,
        };
        match flow.end.unwrap_or(Err(cut_short)) {
            Ok(delivery) => {
                flow.report.elapsed = self.net.now() - start;
                Ok((delivery, flow.report))
            }
            Err(e) => {
                if let (TransitError::RetriesExhausted { .. }, Some(ins)) = (&e, &self.instruments)
                {
                    ins.transit_giveups.inc();
                }
                Err(e)
            }
        }
    }

    /// Drive `stripes` — one `(entry hopid, onion)` per disjoint tunnel —
    /// through the wire *concurrently*, returning as soon as any `need`
    /// fragment cores have been delivered: the erasure-coded multipath
    /// transfer, as the stripe-set front of [`NetDriver::run`]. A stripe
    /// that ends any other way than at its destination — an anchorless root
    /// included: that terminal only makes sense for reply tunnels — only
    /// fails *that stripe* (`core.mp.stripe_giveups`); the transfer
    /// survives while `need` fragments can still arrive.
    ///
    /// The exactly-one-delivery-or-give-up invariant holds per *transfer*:
    /// `Ok` delivers exactly once, and every `Err` increments
    /// `core.transit.giveups` exactly once.
    ///
    /// Returns the delivered `(stripe index, core)` pairs in stripe order —
    /// at least `need` of them — plus a [`MultipathReport`].
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    pub(crate) fn drive_striped(
        &mut self,
        overlay: &mut impl KeyRouter,
        thas: &ReplicaStore<Tha>,
        from: Id,
        stripes: Vec<(Id, Vec<u8>)>,
        need: usize,
        options: TransitOptions,
        hints: Option<&mut HintCache>,
    ) -> Result<(Vec<(usize, Vec<u8>)>, MultipathReport), TransitError> {
        // The one caller, `send_striped`, takes both from an `EcConfig`,
        // which admits only 1 ≤ k ≤ n ≤ 64.
        debug_assert!(need >= 1, "a transfer needs at least one fragment");
        debug_assert!(stripes.len() <= 64, "stripe bitmasks are u64");
        let start = self.net.now();
        let mut flows: Vec<Flow> = stripes
            .into_iter()
            .map(|(entry_hop, onion_bytes)| Flow::new(from, entry_hop, onion_bytes, 0))
            .collect();
        // node -> bitmask of stripes whose fragments crossed it: every
        // relay that stores or forwards a fragment sees its stripe. The
        // initiator and the final destination see all fragments by design.
        let mut seen: IdHashMap<u64> = IdHashMap::default();
        let mut cx = FlowCx {
            overlay,
            thas,
            options,
            hints,
            on_segment: |si: usize, path: &[Id], to_dest: bool| {
                for (pi, node) in path.iter().enumerate() {
                    if *node == from || (to_dest && pi + 1 == path.len()) {
                        continue;
                    }
                    *seen.entry(*node).or_insert(0) |= 1u64 << si;
                }
            },
        };
        self.run(&mut cx, &mut flows, need);

        let mut report = MultipathReport {
            elapsed: self.net.now() - start,
            stripes_total: flows.len(),
            ..MultipathReport::default()
        };
        let mut delivered = Vec::with_capacity(need);
        for (si, flow) in flows.into_iter().enumerate() {
            report.bytes_on_wire += flow.report.bytes_on_wire;
            report.overlay_hops += flow.report.overlay_hops;
            report.hops_resolved += flow.report.hops_resolved;
            report.retries += flow.retries;
            match flow.end {
                Some(Ok(Delivery::ToDestination { core, .. })) => delivered.push((si, core)),
                Some(_) => report.stripes_failed += 1,
                None => report.laggards_cancelled += 1,
            }
        }
        report.stripes_delivered = delivered.len();
        let hopeless = delivered.len() < need;
        if let Some(ins) = &self.instruments {
            ins.mp_fragments_delivered.add(delivered.len() as u64);
            ins.mp_stripe_giveups.add(report.stripes_failed as u64);
            if hopeless {
                ins.transit_giveups.inc();
            } else {
                ins.mp_laggards_cancelled
                    .add(report.laggards_cancelled as u64);
            }
        }
        if hopeless {
            return Err(TransitError::StripesExhausted {
                delivered: delivered.len(),
                need,
            });
        }
        report.max_stripes_per_relay = seen
            .values()
            .map(|mask| mask.count_ones())
            .max()
            .unwrap_or(0);
        Ok((delivered, report))
    }

    /// The wire engine — the only event loop in this crate. Launches every
    /// flow, then steps them all on one clock until `need` of them have
    /// delivered to their destination or too few still can, so flows
    /// genuinely race on virtual time instead of running back-to-back.
    ///
    /// Every wire hop is guarded by a watchdog: if the message vanishes
    /// (fault-injected loss, a crashed relay, a partition) it is resent up
    /// to `options.retry_budget` times with exponential backoff; past that a
    /// §5 direct attempt demotes its hint and re-routes by hopid, and a
    /// routed segment ends its flow with [`TransitError::RetriesExhausted`].
    ///
    /// On return every flow either carries how it ended or, if the
    /// transfer was decided without it, has had its pending watchdog
    /// cancelled (a spent timer must not fire into a later run or inflate
    /// `netsim.timer_lag_us`); the messages it leaves in flight are inert,
    /// their flow tags match no future chain.
    fn run<R: KeyRouter, F: FnMut(usize, &[Id], bool)>(
        &mut self,
        cx: &mut FlowCx<'_, R, F>,
        flows: &mut [Flow],
        need: usize,
    ) {
        for (i, flow) in flows.iter_mut().enumerate() {
            self.launch(cx, i, flow);
        }
        loop {
            let arrived = |f: &&Flow| matches!(f.end, Some(Ok(Delivery::ToDestination { .. })));
            let delivered = flows.iter().filter(arrived).count();
            let active = flows.iter().filter(|f| f.end.is_none()).count();
            if delivered >= need || delivered + active < need {
                break;
            }
            let Some(ev) = self.net.next_event() else {
                // Every active flow keeps a watchdog armed, so the queue
                // cannot drain under one. If it has, the flows left are cut
                // short like laggards and the front gives up, once.
                debug_assert!(false, "an active flow keeps the event queue non-empty");
                break;
            };
            match ev {
                Event::Message(m) => {
                    let tag = m.payload >> 16;
                    let idx = (m.payload & 0xFFFF) as usize;
                    let live = |s: &Segment| s.flow == tag && s.expect == idx;
                    let Some((i, seg)) = in_flight(flows, live) else {
                        // Leftover of a finished flow or an earlier chain,
                        // or a duplicate of an already-advanced hop.
                        continue;
                    };
                    self.net.cancel_timer(seg.guard);
                    if idx + 1 < seg.eps.len() {
                        // Store-and-forward: advance the chain one hop.
                        seg.expect += 1;
                        seg.attempts = 0;
                        seg.guard = self.transmit(&seg.eps, seg.expect, seg.flow, seg.wire, 0);
                        continue;
                    }
                    let (hops, wire) = (seg.eps.len() - 1, seg.wire);
                    let flow = &mut flows[i];
                    flow.segment = None;
                    flow.report.overlay_hops += hops;
                    flow.report.bytes_on_wire += wire * hops as u64;
                    if flow.arrive(cx.thas) {
                        self.launch(cx, i, flow);
                    }
                }
                Event::Timer { token, .. } => {
                    let Some((i, seg)) = in_flight(flows, |s| s.flow == token.0) else {
                        continue; // foreign timer sharing the network
                    };
                    if seg.attempts < cx.options.retry_budget {
                        if let Some(ins) = &self.instruments {
                            ins.transit_retries.inc();
                            ins.transit_backoff_us
                                .record(Self::resend_timeout(seg.wire, seg.attempts).as_micros());
                        }
                        seg.attempts += 1;
                        seg.guard =
                            self.transmit(&seg.eps, seg.expect, seg.flow, seg.wire, seg.attempts);
                        flows[i].retries += 1;
                        continue;
                    }
                    let (hinted, attempts) = (seg.hinted, seg.attempts + 1);
                    let flow = &mut flows[i];
                    flow.segment = None;
                    if hinted {
                        // §5: the direct attempt timed out — demote the
                        // stale hint, re-route this segment by hopid.
                        if let Some(cache) = cx.hints.as_deref_mut() {
                            cache.demote(flow.hop);
                        }
                        if let Some(ins) = &self.instruments {
                            ins.transit_retries.inc();
                        }
                        flow.hint = None;
                        self.launch(cx, i, flow);
                    } else {
                        flow.end = Some(Err(TransitError::RetriesExhausted {
                            hopid: flow.hop,
                            attempts,
                        }));
                    }
                }
            }
        }
        for seg in flows.iter_mut().filter_map(|f| f.segment.take()) {
            self.net.cancel_timer(seg.guard);
        }
    }

    /// Arm the watchdog for the hop addressed to `eps[expect]`, then put the
    /// hop on the wire: the one place either happens. The order is
    /// load-bearing — callers bump `flow_seq` (a new chain), cancel the
    /// previous guard (a hop arrived) or count the resend (a timeout)
    /// *before* this, and the timer enters the event queue before the
    /// message does; queue sequence numbers break virtual-time ties, so any
    /// other order moves the wire trace that every golden CSV and
    /// `sim_digest` is pinned on.
    fn transmit(
        &mut self,
        eps: &[EndpointId],
        expect: usize,
        flow: u64,
        wire: u64,
        attempt: u32,
    ) -> TimerHandle {
        let timeout = Self::resend_timeout(wire, attempt);
        let guard = self.net.arm_timer(timeout, TimerToken(flow));
        // Payloads carry `flow << 16 | hop index`: the flow tag rejects
        // leftovers from other chains outright, and within a chain the
        // index exposes duplicates of an already-advanced hop (fault-
        // injected duplication, or a resend racing its slow original).
        self.net.send(
            eps[expect - 1],
            eps[expect],
            wire,
            (flow << 16) | expect as u64,
        );
        guard
    }

    /// Decide and launch the next wire segment of flow `i`, looping
    /// through zero-length segments (the onion already sits on the target
    /// node: no tag, no watchdog, no message) until real wire traffic
    /// starts or the flow ends.
    fn launch<R: KeyRouter, F: FnMut(usize, &[Id], bool)>(
        &mut self,
        cx: &mut FlowCx<'_, R, F>,
        i: usize,
        flow: &mut Flow,
    ) {
        loop {
            let to_dest = flow.delivering.is_some();
            let leg = match flow.next_leg(cx.overlay, cx.options.use_hints) {
                Ok(leg) => leg,
                Err(e) => {
                    flow.end = Some(Err(e));
                    return;
                }
            };
            let (path, hinted): (&[Id], bool) = match &leg {
                Leg::Direct(pair) => (pair, !to_dest),
                Leg::Routed(path) => (path, false),
            };
            (cx.on_segment)(i, path, to_dest);
            let wire = flow.onion.len() as u64 + flow.payload_bytes;
            let mut eps = Vec::with_capacity(path.len());
            for n in path {
                let e = self.endpoint(*n);
                if eps.last() != Some(&e) {
                    eps.push(e);
                }
            }
            if eps.len() >= 2 {
                debug_assert!(eps.len() < (1 << 16), "hop index fits the low bits");
                self.flow_seq += 1;
                let tag = self.flow_seq;
                let guard = self.transmit(&eps, 1, tag, wire, 0);
                flow.segment = Some(Segment {
                    eps,
                    expect: 1,
                    attempts: 0,
                    flow: tag,
                    guard,
                    hinted,
                    wire,
                });
                return;
            }
            // Zero-length segment: complete the phase here and keep going.
            if !flow.arrive(cx.thas) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draws::Purpose;
    use crate::transit;
    use crate::tunnel::Tunnel;
    use crate::world::World;
    use tap_netsim::latency::UniformLatency;
    use tap_netsim::NetworkConfig;
    use tap_pastry::PastryConfig;

    struct Fx {
        world: World,
        initiator: Id,
        driver: NetDriver<UniformLatency>,
    }

    fn fixture(n: usize, seed: u64) -> Fx {
        let mut world = World::build(PastryConfig::paper_defaults(), n, seed);
        let initiator = world.random_node().unwrap();
        let driver = NetDriver::new(Network::new(
            NetworkConfig::paper_defaults(),
            UniformLatency::paper(seed),
        ));
        Fx {
            world,
            initiator,
            driver,
        }
    }

    fn tunnel(fx: &mut Fx, l: usize) -> Tunnel {
        Tunnel::new(fx.world.fresh_hops(fx.initiator, l).unwrap())
    }

    #[test]
    fn timed_transit_delivers_and_times() {
        let mut fx = fixture(200, 1);
        let t = tunnel(&mut fx, 3);
        let dest = loop {
            let d = fx.world.random_node().unwrap();
            if d != fx.initiator {
                break d;
            }
        };
        let onion = t.build_onion(
            &mut fx.world.stream(Purpose::Flow),
            Destination::Node(dest),
            b"payload",
            None,
        );
        let (delivery, timed) = fx
            .driver
            .drive_timed_with_hints(
                &mut fx.world.overlay,
                &fx.world.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                0,
                TransitOptions::default(),
                None,
            )
            .unwrap();
        match delivery {
            Delivery::ToDestination { node, core } => {
                assert_eq!(node, dest);
                assert_eq!(core, b"payload");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(timed.hops_resolved, 3);
        assert!(timed.elapsed > SimDuration::ZERO);
        assert!(timed.bytes_on_wire > 0);
        // Every overlay hop needs ≥ 1ms propagation.
        assert!(timed.elapsed >= SimDuration::from_millis(timed.overlay_hops as u64));
    }

    #[test]
    fn agrees_with_logical_transit_on_path_shape() {
        // The wire and transit::drive must agree on which nodes carry the
        // message and on the terminal delivery.
        let mut fx = fixture(250, 2);
        let t = tunnel(&mut fx, 4);
        let dest = loop {
            let d = fx.world.random_node().unwrap();
            if d != fx.initiator {
                break d;
            }
        };
        let onion = t.build_onion(
            &mut fx.world.stream(Purpose::Flow),
            Destination::Node(dest),
            b"m",
            None,
        );
        let (d_logical, logical) = transit::drive(
            &mut fx.world.overlay,
            &fx.world.thas,
            fx.initiator,
            t.entry_hopid(),
            onion.clone(),
            TransitOptions::default(),
        )
        .unwrap();
        let (d_timed, timed) = fx
            .driver
            .drive_timed_with_hints(
                &mut fx.world.overlay,
                &fx.world.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                0,
                TransitOptions::default(),
                None,
            )
            .unwrap();
        assert_eq!(d_logical, d_timed);
        assert_eq!(logical.hops_resolved, timed.hops_resolved);
        assert_eq!(logical.overlay_hops, timed.overlay_hops);
    }

    #[test]
    fn onion_shrinks_on_the_wire() {
        // With zero application payload, per-hop wire bytes must strictly
        // decrease (one sealing layer + header gone per peel) — verify via
        // total accounting: bytes_on_wire < first_len × overlay_hops.
        let mut fx = fixture(200, 3);
        let t = tunnel(&mut fx, 5);
        let dest = loop {
            let d = fx.world.random_node().unwrap();
            if d != fx.initiator {
                break d;
            }
        };
        let onion = t.build_onion(
            &mut fx.world.stream(Purpose::Flow),
            Destination::Node(dest),
            b"x",
            None,
        );
        let outer_len = onion.len() as u64;
        let (_, timed) = fx
            .driver
            .drive_timed_with_hints(
                &mut fx.world.overlay,
                &fx.world.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                0,
                TransitOptions::default(),
                None,
            )
            .unwrap();
        assert!(
            timed.bytes_on_wire < outer_len * timed.overlay_hops as u64,
            "later hops must carry strictly fewer bytes"
        );
    }

    #[test]
    fn hints_cut_wall_clock_time() {
        let mut fx = fixture(400, 4);
        let t = tunnel(&mut fx, 5);
        let mut hints = crate::transit::HintCache::default();
        hints.refresh(&fx.world.overlay, &t.hop_ids());
        let dest = loop {
            let d = fx.world.random_node().unwrap();
            if d != fx.initiator {
                break d;
            }
        };
        // 2 Mb file travelling alongside the onion, as in Fig. 6.
        let onion_plain = t.build_onion(
            &mut fx.world.stream(Purpose::Flow),
            Destination::Node(dest),
            b"f",
            None,
        );
        let (_, plain) = fx
            .driver
            .drive_timed_with_hints(
                &mut fx.world.overlay,
                &fx.world.thas,
                fx.initiator,
                t.entry_hopid(),
                onion_plain,
                250_000,
                TransitOptions::default(),
                None,
            )
            .unwrap();
        let onion_hinted = t.build_onion(
            &mut fx.world.stream(Purpose::Flow),
            Destination::Node(dest),
            b"f",
            Some(&hints),
        );
        let (_, hinted) = fx
            .driver
            .drive_timed_with_hints(
                &mut fx.world.overlay,
                &fx.world.thas,
                fx.initiator,
                t.entry_hopid(),
                onion_hinted,
                250_000,
                TransitOptions::hinted(),
                None,
            )
            .unwrap();
        assert!(
            hinted.elapsed < plain.elapsed,
            "hints must cut seconds: {} vs {}",
            hinted.elapsed,
            plain.elapsed
        );
        assert!(hinted.bytes_on_wire < plain.bytes_on_wire);
    }

    #[test]
    fn retries_carry_transit_through_heavy_loss() {
        let mut fx = fixture(200, 6);
        let t = tunnel(&mut fx, 3);
        let registry = tap_metrics::Registry::new();
        fx.driver
            .use_instruments(crate::metrics::CoreInstruments::new(&registry));
        fx.driver
            .network_mut()
            .install_faults(tap_netsim::FaultPlan::new(99).with_loss(300));
        let dest = loop {
            let d = fx.world.random_node().unwrap();
            if d != fx.initiator {
                break d;
            }
        };
        let onion = t.build_onion(
            &mut fx.world.stream(Purpose::Flow),
            Destination::Node(dest),
            b"hard",
            None,
        );
        let (delivery, timed) = fx
            .driver
            .drive_timed_with_hints(
                &mut fx.world.overlay,
                &fx.world.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                0,
                TransitOptions {
                    retry_budget: 8,
                    ..TransitOptions::default()
                },
                None,
            )
            .unwrap();
        assert!(matches!(delivery, Delivery::ToDestination { .. }));
        assert_eq!(timed.hops_resolved, 3);
        let report = registry.snapshot();
        // 30% loss over many hops all but guarantees at least one resend
        // (if none happened, the test still proves delivery works).
        assert_eq!(report.counter("core.transit.giveups"), 0);
        let retries = report.counter("core.transit.retries");
        if retries > 0 {
            let backoff = report.histogram("core.transit.backoff_us").unwrap();
            assert_eq!(backoff.count, retries, "every resend recorded a wait");
        }
    }

    #[test]
    fn exhausted_budget_gives_up_cleanly() {
        let mut fx = fixture(150, 7);
        let t = tunnel(&mut fx, 3);
        let registry = tap_metrics::Registry::new();
        fx.driver
            .use_instruments(crate::metrics::CoreInstruments::new(&registry));
        // Total loss: nothing ever arrives.
        fx.driver
            .network_mut()
            .install_faults(tap_netsim::FaultPlan::new(1).with_loss(1000));
        let dest = fx.world.random_node().unwrap();
        let onion = t.build_onion(
            &mut fx.world.stream(Purpose::Flow),
            Destination::Node(dest),
            b"x",
            None,
        );
        let err = fx
            .driver
            .drive_timed_with_hints(
                &mut fx.world.overlay,
                &fx.world.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                0,
                TransitOptions {
                    retry_budget: 2,
                    ..TransitOptions::default()
                },
                None,
            )
            .unwrap_err();
        match err {
            TransitError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 3),
            other => panic!("unexpected {other:?}"),
        }
        let report = registry.snapshot();
        assert_eq!(report.counter("core.transit.giveups"), 1);
        assert_eq!(report.counter("core.transit.retries"), 2);
    }

    #[test]
    fn duplicated_deliveries_do_not_derail_the_chain() {
        let mut fx = fixture(200, 8);
        let t = tunnel(&mut fx, 4);
        fx.driver
            .network_mut()
            .install_faults(tap_netsim::FaultPlan::new(4).with_duplication(1000));
        let dest = loop {
            let d = fx.world.random_node().unwrap();
            if d != fx.initiator {
                break d;
            }
        };
        let onion = t.build_onion(
            &mut fx.world.stream(Purpose::Flow),
            Destination::Node(dest),
            b"dup",
            None,
        );
        let (delivery, timed) = fx
            .driver
            .drive_timed_with_hints(
                &mut fx.world.overlay,
                &fx.world.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                0,
                TransitOptions::default(),
                None,
            )
            .unwrap();
        match delivery {
            Delivery::ToDestination { node, core } => {
                assert_eq!(node, dest);
                assert_eq!(core, b"dup");
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(timed.hops_resolved, 4);
    }

    #[test]
    fn timed_out_hint_demotes_and_falls_back() {
        let mut fx = fixture(250, 9);
        let t = tunnel(&mut fx, 3);
        let mut hints = crate::transit::HintCache::default();
        hints.refresh(&fx.world.overlay, &t.hop_ids());
        let registry = tap_metrics::Registry::new();
        fx.driver
            .use_instruments(crate::metrics::CoreInstruments::new(&registry));
        // Crash the hinted node of hop 2 on the WIRE only: the overlay
        // oracle still says it is live and root, so the oracle-level
        // staleness check passes and the direct send must time out.
        let hinted = hints.lookup(t.hops()[1].hopid).unwrap();
        fx.driver.kill_node(hinted);
        assert!(fx.world.overlay.is_live(hinted), "split-brain precondition");
        let dest = loop {
            let d = fx.world.random_node().unwrap();
            if d != fx.initiator && d != hinted {
                break d;
            }
        };
        let onion = t.build_onion(
            &mut fx.world.stream(Purpose::Flow),
            Destination::Node(dest),
            b"m",
            Some(&hints),
        );
        let before = hints.len();
        let result = fx.driver.drive_timed_with_hints(
            &mut fx.world.overlay,
            &fx.world.thas,
            fx.initiator,
            t.entry_hopid(),
            onion,
            0,
            TransitOptions {
                use_hints: true,
                retry_budget: 1,
            },
            Some(&mut hints),
        );
        // The fallback routes via the overlay — but the real root IS the
        // crashed node (oracle split-brain), so the fallback itself may
        // also time out. Both outcomes are legal; what matters is the
        // hint got demoted rather than looping forever.
        assert!(hints.len() < before, "stale hint must be evicted");
        assert!(hints.lookup(t.hops()[1].hopid).is_none());
        if let Err(e) = result {
            assert!(matches!(e, TransitError::RetriesExhausted { .. }));
        }
    }

    /// `count` tunnels with globally distinct hopids (fresh random anchors
    /// are distinct with overwhelming probability; assert anyway).
    fn disjoint_tunnels(fx: &mut Fx, count: usize, l: usize) -> Vec<Tunnel> {
        let tunnels: Vec<Tunnel> = (0..count).map(|_| tunnel(fx, l)).collect();
        let mut all: Vec<Id> = tunnels.iter().flat_map(|t| t.hop_ids()).collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count * l, "stripes must not share hopids");
        tunnels
    }

    fn pick_dest(fx: &mut Fx) -> Id {
        loop {
            let d = fx.world.random_node().unwrap();
            if d != fx.initiator {
                break d;
            }
        }
    }

    #[test]
    fn striped_transfer_delivers_every_fragment() {
        let mut fx = fixture(250, 21);
        let tunnels = disjoint_tunnels(&mut fx, 3, 3);
        let dest = pick_dest(&mut fx);
        let cores: Vec<Vec<u8>> = (0..3u8).map(|i| vec![b'f', i, i, i]).collect();
        let stripes: Vec<(Id, Vec<u8>)> = tunnels
            .iter()
            .zip(&cores)
            .map(|(t, core)| {
                (
                    t.entry_hopid(),
                    t.build_onion(
                        &mut fx.world.stream(Purpose::Flow),
                        Destination::Node(dest),
                        core,
                        None,
                    ),
                )
            })
            .collect();
        let (delivered, report) = fx
            .driver
            .drive_striped(
                &mut fx.world.overlay,
                &fx.world.thas,
                fx.initiator,
                stripes,
                3,
                TransitOptions::default(),
                None,
            )
            .unwrap();
        assert_eq!(delivered.len(), 3);
        for (si, core) in &delivered {
            assert_eq!(core, &cores[*si], "stripe {si} core intact");
        }
        assert_eq!(report.stripes_delivered, 3);
        assert_eq!(report.stripes_failed, 0);
        assert_eq!(report.laggards_cancelled, 0);
        assert_eq!(report.hops_resolved, 9, "three 3-hop tunnels");
        assert!(report.elapsed > SimDuration::ZERO);
        // Disjoint hopids keep any one relay under the full stripe count
        // most of the time; it can never exceed it.
        assert!(report.max_stripes_per_relay <= 3);
    }

    #[test]
    fn striped_transfer_survives_k_of_n_and_cancels_laggards() {
        let mut fx = fixture(250, 22);
        let tunnels = disjoint_tunnels(&mut fx, 3, 3);
        let dest = pick_dest(&mut fx);
        let registry = tap_metrics::Registry::new();
        fx.driver
            .use_instruments(crate::metrics::CoreInstruments::new(&registry));
        // Black-hole stripe 0 at the wire: its entry root is overlay-live
        // but crashed, so the stripe sits in watchdog backoff while the
        // other two race ahead.
        let stalled_root = fx.world.overlay.owner_of(tunnels[0].entry_hopid()).unwrap();
        assert_ne!(stalled_root, fx.initiator, "seed keeps the root remote");
        fx.driver.kill_node(stalled_root);
        let stripes: Vec<(Id, Vec<u8>)> = tunnels
            .iter()
            .map(|t| {
                (
                    t.entry_hopid(),
                    t.build_onion(
                        &mut fx.world.stream(Purpose::Flow),
                        Destination::Node(dest),
                        b"frag",
                        None,
                    ),
                )
            })
            .collect();
        let (delivered, report) = fx
            .driver
            .drive_striped(
                &mut fx.world.overlay,
                &fx.world.thas,
                fx.initiator,
                stripes,
                2,
                TransitOptions {
                    retry_budget: 10,
                    ..TransitOptions::default()
                },
                None,
            )
            .unwrap();
        assert_eq!(delivered.len(), 2);
        assert!(
            delivered.iter().all(|(si, _)| *si != 0),
            "the stalled stripe cannot have delivered"
        );
        assert_eq!(
            report.laggards_cancelled, 1,
            "stripe 0 cancelled mid-backoff"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.mp.fragments_delivered"), 2);
        assert_eq!(snap.counter("core.mp.laggards_cancelled"), 1);
        assert_eq!(
            snap.counter("core.transit.giveups"),
            0,
            "the transfer delivered"
        );
        // Satellite invariant: the laggard's watchdog was cancelled via its
        // handle, so draining the network surfaces NO timer events — spent
        // timers must not fire into later chains or skew timer histograms.
        let mut stray_timers = 0u32;
        fx.driver.network_mut().run_until_quiet(|_, ev| {
            if matches!(ev, Event::Timer { .. }) {
                stray_timers += 1;
            }
        });
        assert_eq!(
            stray_timers, 0,
            "no spent watchdog may outlive the transfer"
        );
    }

    #[test]
    fn striped_transfer_gives_up_exactly_once_when_hopeless() {
        let mut fx = fixture(250, 23);
        let tunnels = disjoint_tunnels(&mut fx, 3, 3);
        let dest = pick_dest(&mut fx);
        let registry = tap_metrics::Registry::new();
        fx.driver
            .use_instruments(crate::metrics::CoreInstruments::new(&registry));
        // Kill two of three entry roots: at most one fragment can arrive,
        // and need = 2 becomes unsatisfiable.
        for t in &tunnels[..2] {
            let root = fx.world.overlay.owner_of(t.entry_hopid()).unwrap();
            assert_ne!(root, fx.initiator);
            fx.driver.kill_node(root);
        }
        let stripes: Vec<(Id, Vec<u8>)> = tunnels
            .iter()
            .map(|t| {
                (
                    t.entry_hopid(),
                    t.build_onion(
                        &mut fx.world.stream(Purpose::Flow),
                        Destination::Node(dest),
                        b"frag",
                        None,
                    ),
                )
            })
            .collect();
        let err = fx
            .driver
            .drive_striped(
                &mut fx.world.overlay,
                &fx.world.thas,
                fx.initiator,
                stripes,
                2,
                TransitOptions {
                    retry_budget: 1,
                    ..TransitOptions::default()
                },
                None,
            )
            .unwrap_err();
        match err {
            TransitError::StripesExhausted { delivered, need } => {
                assert!(delivered < 2);
                assert_eq!(need, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("core.transit.giveups"),
            1,
            "delivered XOR gave-up, exactly once per transfer"
        );
        assert_eq!(snap.counter("core.mp.stripe_giveups"), 2);
        // No watchdog survives the give-up either.
        let mut stray_timers = 0u32;
        fx.driver.network_mut().run_until_quiet(|_, ev| {
            if matches!(ev, Event::Timer { .. }) {
                stray_timers += 1;
            }
        });
        assert_eq!(stray_timers, 0);
    }

    /// What one transfer leaves behind, whichever front ran it.
    #[derive(Debug, PartialEq)]
    struct Aftermath {
        /// `(core, elapsed, bytes_on_wire, overlay_hops, hops_resolved)`,
        /// or `None` for a transfer that gave up.
        delivered: Option<(Vec<u8>, SimDuration, u64, usize, usize)>,
        now: SimTime,
        traffic: tap_netsim::TrafficStats,
        retries: u64,
        hints: Vec<Option<Id>>,
    }

    /// One l = 3 transfer in a fresh world built from `seed`, under
    /// `scenario` (0: clean wire; 1: 10 % loss + 2 % duplication, budget 6;
    /// 2: hints on, hop 2's hinted node dead on the wire), through the
    /// single-path front or as a one-stripe set with `need = 1`.
    fn aftermath(seed: u64, scenario: u32, striped: bool) -> Aftermath {
        let mut fx = fixture(200, 0xa11 + seed);
        let t = tunnel(&mut fx, 3);
        let registry = tap_metrics::Registry::new();
        fx.driver
            .use_instruments(crate::metrics::CoreInstruments::new(&registry));
        let mut hints = crate::transit::HintCache::default();
        let mut options = TransitOptions::default();
        match scenario {
            0 => {}
            1 => {
                options.retry_budget = 6;
                let plan = tap_netsim::FaultPlan::new(seed)
                    .with_loss(100)
                    .with_duplication(20);
                fx.driver.network_mut().install_faults(plan);
            }
            _ => {
                options.use_hints = true;
                options.retry_budget = 1;
                hints.refresh(&fx.world.overlay, &t.hop_ids());
                // Even seeds kill the hop's true root (the fallback times
                // out as well); odd seeds a stale hint's node (the fallback
                // delivers).
                let hop2 = t.hops()[1].hopid;
                if seed % 2 == 1 {
                    let stale = pick_dest(&mut fx);
                    hints.record(hop2, stale);
                }
                let hinted = hints.lookup(hop2).unwrap();
                fx.driver.kill_node(hinted);
            }
        }
        let dest = pick_dest(&mut fx);
        let onion = t.build_onion(
            &mut fx.world.stream(Purpose::Flow),
            Destination::Node(dest),
            b"same",
            Some(&hints),
        );
        let delivered = if striped {
            match fx.driver.drive_striped(
                &mut fx.world.overlay,
                &fx.world.thas,
                fx.initiator,
                vec![(t.entry_hopid(), onion)],
                1,
                options,
                Some(&mut hints),
            ) {
                Ok((mut cores, r)) => {
                    assert_eq!((cores.len(), cores[0].0), (1, 0));
                    let core = cores.pop().unwrap().1;
                    Some((
                        core,
                        r.elapsed,
                        r.bytes_on_wire,
                        r.overlay_hops,
                        r.hops_resolved,
                    ))
                }
                Err(e) => {
                    let hopeless = TransitError::StripesExhausted {
                        delivered: 0,
                        need: 1,
                    };
                    assert_eq!(e, hopeless);
                    None
                }
            }
        } else {
            match fx.driver.drive_timed_with_hints(
                &mut fx.world.overlay,
                &fx.world.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                0,
                options,
                Some(&mut hints),
            ) {
                Ok((Delivery::ToDestination { node, core }, r)) => {
                    assert_eq!(node, dest);
                    Some((
                        core,
                        r.elapsed,
                        r.bytes_on_wire,
                        r.overlay_hops,
                        r.hops_resolved,
                    ))
                }
                Err(TransitError::RetriesExhausted { .. }) => None,
                other => panic!("unexpected {other:?}"),
            }
        };
        Aftermath {
            delivered,
            now: fx.driver.now(),
            traffic: fx.driver.network_mut().stats().clone(),
            retries: registry.snapshot().counter("core.transit.retries"),
            hints: t.hop_ids().into_iter().map(|h| hints.lookup(h)).collect(),
        }
    }

    /// The guard that the two fronts agree: a single-path transfer and a
    /// one-stripe set with `need = 1` put the same traffic on the wire.
    #[test]
    fn one_stripe_is_a_single_path_transfer() {
        let (mut delivered, mut gave_up) = ([0; 3], 0);
        for seed in 0..10 {
            for scenario in 0..3 {
                let single = aftermath(seed, scenario, false);
                let stripe = aftermath(seed, scenario, true);
                assert_eq!(single, stripe, "seed {seed}, scenario {scenario}");
                match single.delivered {
                    Some(_) => delivered[scenario as usize] += 1,
                    None => gave_up += 1,
                }
            }
        }
        assert_eq!(delivered[0], 10, "a clean wire delivers");
        assert!(delivered[1] >= 8, "a budget of 6 rides out 10 % loss");
        assert!(delivered[2] >= 3, "no seed delivered after a demotion");
        assert!(gave_up >= 3, "no seed exercised the give-up side");
    }

    #[test]
    fn broken_tunnel_reported_before_wasting_bandwidth() {
        let mut fx = fixture(200, 5);
        let t = tunnel(&mut fx, 3);
        let victim = t.hop_ids()[0];
        for holder in fx.world.thas.holders(victim).to_vec() {
            if holder != fx.initiator {
                fx.world.overlay.remove_node(holder);
            }
        }
        let dest = fx.world.random_node().unwrap();
        let onion = t.build_onion(
            &mut fx.world.stream(Purpose::Flow),
            Destination::Node(dest),
            b"x",
            None,
        );
        let err = fx
            .driver
            .drive_timed_with_hints(
                &mut fx.world.overlay,
                &fx.world.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                250_000,
                TransitOptions::default(),
                None,
            )
            .unwrap_err();
        assert_eq!(err, TransitError::ThaLost { hopid: victim });
    }
}
