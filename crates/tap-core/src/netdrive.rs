//! Timed, message-driven tunnel transit over the emulated network.
//!
//! [`crate::transit::drive`] resolves a tunnel logically (who peels what, which
//! node serves each hop); this module runs the same traversal as *actual
//! wire traffic* through `tap-netsim`: every overlay hop is a
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
//! The Fig. 6 experiment replays precomputed paths for throughput; this
//! driver exists to validate that shortcut (see the agreement test) and to
//! let applications measure end-to-end seconds for single flows.

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
    /// Distinguishes each (hop, attempt)'s timeout timer from stale ones
    /// still sitting in the heap after a delivery won the race.
    timer_seq: u64,
    /// Tags every [`NetDriver::ship`] chain's messages (high payload bits)
    /// so late deliveries and duplicates from an earlier chain can never
    /// be mistaken for the current one's progress.
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
/// ([`NetDriver::drive_striped`]).
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

/// One in-flight store-and-forward chain belonging to a stripe.
struct Segment {
    eps: Vec<EndpointId>,
    expect: usize,
    attempts: u32,
    flow: u64,
    watchdog: TimerToken,
    guard: TimerHandle,
    hinted: bool,
    wire: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StripeStatus {
    Active,
    Delivered,
    Failed,
}

/// Program counter of one stripe inside [`NetDriver::drive_striped`].
struct StripeState {
    current: Id,
    hop: Id,
    /// Root the current phase-A segment is shipping toward (the THA check
    /// on arrival must test the root the segment was routed to).
    root: Id,
    hint: Option<Id>,
    onion: Option<onion::LayerBuf>,
    /// Set once the tail hop revealed the delivery header.
    delivering: Option<Destination>,
    segment: Option<Segment>,
    status: StripeStatus,
}

/// Shared mutable context threaded through the striped event loop.
struct StripedCx<'h> {
    from: Id,
    options: TransitOptions,
    hints: Option<&'h mut HintCache>,
    /// node -> bitmask of stripes whose fragments crossed it.
    seen: IdHashMap<u64>,
    report: MultipathReport,
    delivered: Vec<(usize, Vec<u8>)>,
}

impl<L: LatencyModel> NetDriver<L> {
    /// Wrap a network; endpoints are registered lazily per node.
    pub fn new(net: Network<u64, L>) -> Self {
        NetDriver {
            net,
            endpoint_of: IdHashMap::default(),
            timer_seq: 0,
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

    /// Ship `bytes` along consecutive node pairs of `path`, store-and-
    /// forward, and return when the last byte arrives.
    ///
    /// Each hop is guarded by a delivery timeout: if the message vanishes
    /// (fault-injected loss, a crashed relay, a partition) the driver
    /// resends it up to `options.retry_budget` times with exponential
    /// backoff, then gives up with [`TransitError::RetriesExhausted`].
    /// Duplicate deliveries (fault-injected duplication, or a resend
    /// racing its slow original) are detected by hop index and ignored.
    ///
    /// `terminal` marks whether exhausting the budget abandons the whole
    /// traversal (counted as `core.transit.giveups`) or the caller still
    /// has a fallback (the hinted direct attempt) — only terminal
    /// exhaustion is a give-up.
    fn ship(
        &mut self,
        path: &[Id],
        bytes: u64,
        hopid: Id,
        options: TransitOptions,
        terminal: bool,
    ) -> Result<(SimDuration, usize), TransitError> {
        let mut eps = Vec::with_capacity(path.len());
        for n in path {
            let e = self.endpoint(*n);
            if eps.last() != Some(&e) {
                eps.push(e);
            }
        }
        if eps.len() < 2 {
            return Ok((SimDuration::ZERO, 0));
        }
        let start = self.net.now();
        // Payloads carry `flow << 16 | hop index`: the flow tag rejects
        // leftovers from earlier chains outright, and within this chain
        // the index exposes duplicates of an already-advanced hop.
        self.flow_seq += 1;
        let flow = self.flow_seq;
        debug_assert!(eps.len() < (1 << 16), "hop index fits the low bits");
        let tag = |idx: usize| (flow << 16) | idx as u64;
        let mut expect = 1usize;
        let mut attempts = 0u32;
        let (mut watchdog, mut guard) = self.arm_watchdog(bytes, attempts);
        self.net.send(eps[0], eps[1], bytes, tag(1));
        while let Some(ev) = self.net.next_event() {
            match ev {
                Event::Message(m) => {
                    if m.payload >> 16 != flow {
                        continue; // leftover from an earlier chain
                    }
                    let idx = (m.payload & 0xFFFF) as usize;
                    if idx != expect {
                        continue; // duplicate of an already-advanced hop
                    }
                    if idx + 1 == eps.len() {
                        // Retire the pending watchdog instead of letting it
                        // fire into a later chain's drain as a stale token.
                        self.net.cancel_timer(guard);
                        return Ok((m.delivered_at - start, eps.len() - 1));
                    }
                    expect += 1;
                    attempts = 0;
                    self.net.cancel_timer(guard);
                    (watchdog, guard) = self.arm_watchdog(bytes, attempts);
                    self.net.send(eps[idx], eps[idx + 1], bytes, tag(expect));
                }
                Event::Timer { token, .. } => {
                    if token != watchdog {
                        // Cancellation makes this unreachable for our own
                        // watchdogs; kept as defense against foreign timers
                        // sharing the network.
                        continue;
                    }
                    if attempts >= options.retry_budget {
                        if terminal {
                            if let Some(ins) = &self.instruments {
                                ins.transit_giveups.inc();
                            }
                        }
                        return Err(TransitError::RetriesExhausted {
                            hopid,
                            attempts: attempts + 1,
                        });
                    }
                    if let Some(ins) = &self.instruments {
                        ins.transit_retries.inc();
                        ins.transit_backoff_us
                            .record(Self::resend_timeout(bytes, attempts).as_micros());
                    }
                    attempts += 1;
                    (watchdog, guard) = self.arm_watchdog(bytes, attempts);
                    self.net
                        .send(eps[expect - 1], eps[expect], bytes, tag(expect));
                }
            }
        }
        unreachable!("an armed watchdog timer keeps the event queue non-empty")
    }

    /// Arm the per-hop delivery watchdog; the handle cancels it once the
    /// hop completes (a fired or cancelled handle is inert).
    fn arm_watchdog(&mut self, bytes: u64, attempt: u32) -> (TimerToken, TimerHandle) {
        self.timer_seq += 1;
        let token = TimerToken(self.timer_seq);
        let handle = self
            .net
            .arm_timer(Self::resend_timeout(bytes, attempt), token);
        (token, handle)
    }

    /// Drive `onion_bytes` (plus `payload_bytes` of application data
    /// travelling alongside, e.g. a file on a reply path) through the
    /// tunnel starting at `entry_hop`, as timed wire traffic.
    #[allow(clippy::too_many_arguments)]
    pub fn drive_timed(
        &mut self,
        overlay: &mut impl KeyRouter,
        thas: &ReplicaStore<Tha>,
        from: Id,
        entry_hop: Id,
        onion_bytes: Vec<u8>,
        payload_bytes: u64,
        options: TransitOptions,
    ) -> Result<(Delivery, TimedReport), TransitError> {
        self.drive_timed_with_hints(
            overlay,
            thas,
            from,
            entry_hop,
            onion_bytes,
            payload_bytes,
            options,
            None,
        )
    }

    /// [`NetDriver::drive_timed`] with an initiator-side [`HintCache`] to
    /// demote through. The §5 fallback at wire fidelity: a hinted direct
    /// hop that *times out* (hinted node overlay-live but crashed or
    /// partitioned on the wire) evicts the hint and re-ships the segment
    /// via overlay routing, instead of giving up on the whole traversal.
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
        mut hints: Option<&mut HintCache>,
    ) -> Result<(Delivery, TimedReport), TransitError> {
        let mut report = TimedReport::default();
        let start = self.net.now();
        let mut current = from;
        let mut hop = entry_hop;
        let mut hint: Option<Id> = None;
        // One buffer for the whole traversal: every peel is one in-place
        // cipher pass, and the shrinking region is also the wire size.
        let mut onion = onion::LayerBuf::from_vec(onion_bytes);

        loop {
            let root = overlay.owner_of(hop).ok_or(RouteError::EmptyOverlay)?;
            let wire = onion.len() as u64 + payload_bytes;

            // §5 verbatim: "It first tries the IP address; if it fails,
            // then routes the message to the tunnel hop node corresponding
            // to the hopid." No oracle consultation here — a real
            // initiator cannot know the hint went stale except by the
            // attempt timing out, which is exactly what ship() detects.
            let hinted = match (options.use_hints, hint) {
                (true, Some(h)) if h != current => Some(h),
                _ => None,
            };
            let segment: Vec<Id> = match hinted {
                Some(h) => vec![current, h],
                None => overlay.route_path(current, hop)?,
            };
            let shipped = match self.ship(&segment, wire, hop, options, hinted.is_none()) {
                Err(TransitError::RetriesExhausted { .. }) if hinted.is_some() => {
                    // Direct attempt timed out: demote the stale hint and
                    // fall back to hopid routing (§5).
                    if let Some(cache) = hints.as_deref_mut() {
                        cache.demote(hop);
                    }
                    if let Some(ins) = &self.instruments {
                        ins.transit_retries.inc();
                    }
                    let fallback = overlay.route_path(current, hop)?;
                    self.ship(&fallback, wire, hop, options, true)?
                }
                other => other?,
            };
            let (_, hops) = shipped;
            report.overlay_hops += hops;
            report.bytes_on_wire += wire * hops as u64;

            let Some(record) = thas.get(hop) else {
                report.elapsed = self.net.now() - start;
                return Ok((
                    Delivery::AtAnchorlessRoot {
                        node: root,
                        residue: onion.into_vec(),
                    },
                    report,
                ));
            };
            if !record.holders.contains(&root) {
                return Err(TransitError::ThaLost { hopid: hop });
            }
            current = root;

            let header_bytes = onion
                .peel(&record.value.key)
                .map_err(|_| TransitError::BadLayer { hopid: hop })?;
            let header = HopHeader::decode(header_bytes)
                .map_err(|_| TransitError::BadLayer { hopid: hop })?;
            report.hops_resolved += 1;

            match header {
                HopHeader::Forward {
                    next_hop,
                    hint: next_hint,
                } => {
                    hop = next_hop;
                    hint = next_hint;
                }
                HopHeader::Deliver { dest } => {
                    let wire = onion.len() as u64 + payload_bytes;
                    let node = match dest {
                        Destination::Node(n) => {
                            if !overlay.is_live(n) {
                                return Err(TransitError::DeadDestination { node: n });
                            }
                            let (_, hops) = self.ship(&[current, n], wire, hop, options, true)?;
                            report.overlay_hops += hops;
                            report.bytes_on_wire += wire * hops as u64;
                            n
                        }
                        Destination::KeyRoot(key) => {
                            let path = overlay.route_path(current, key)?;
                            let root = *path.last().ok_or(RouteError::EmptyOverlay)?;
                            let (_, hops) = self.ship(&path, wire, hop, options, true)?;
                            report.overlay_hops += hops;
                            report.bytes_on_wire += wire * hops as u64;
                            root
                        }
                    };
                    report.elapsed = self.net.now() - start;
                    return Ok((
                        Delivery::ToDestination {
                            node,
                            core: onion.into_vec(),
                        },
                        report,
                    ));
                }
            }
        }
    }

    /// Drive `stripes` — one `(entry hopid, onion)` per disjoint tunnel —
    /// through the wire *concurrently*, returning as soon as any `need`
    /// fragment cores have been delivered.
    ///
    /// This is the erasure-coded multipath transfer: one event loop
    /// interleaves every stripe's store-and-forward chain, so stripes
    /// genuinely race on virtual time instead of running back-to-back.
    /// Each wire segment keeps the single-path machinery — per-hop
    /// watchdog, exponential backoff, flow-tagged duplicate rejection, §5
    /// hint demotion on a timed-out direct attempt — but a stripe
    /// exhausting its retry budget only fails *that stripe*; the transfer
    /// survives while `need` fragments can still arrive.
    ///
    /// On success the laggard stripes' pending watchdogs are cancelled
    /// through their [`TimerHandle`]s (spent timers must not fire into
    /// later drains or inflate `netsim.timer_lag_us`), and the in-flight
    /// messages they leave behind are inert: their flow tags match no
    /// future chain.
    ///
    /// The exactly-one-delivery-or-give-up invariant holds per *transfer*:
    /// `Ok` delivers exactly once, and every `Err` increments
    /// `core.transit.giveups` exactly once, with per-stripe accounting
    /// (`core.mp.stripe_giveups`) beneath it.
    ///
    /// Returns the delivered `(stripe index, core)` pairs — at least
    /// `need` of them — plus a [`MultipathReport`].
    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    pub fn drive_striped(
        &mut self,
        overlay: &mut impl KeyRouter,
        thas: &ReplicaStore<Tha>,
        from: Id,
        stripes: Vec<(Id, Vec<u8>)>,
        need: usize,
        options: TransitOptions,
        hints: Option<&mut HintCache>,
    ) -> Result<(Vec<(usize, Vec<u8>)>, MultipathReport), TransitError> {
        assert!(need >= 1, "a transfer needs at least one fragment");
        assert!(stripes.len() <= 64, "stripe bitmasks are u64");
        let start = self.net.now();
        let mut cx = StripedCx {
            from,
            options,
            hints,
            seen: IdHashMap::default(),
            report: MultipathReport {
                stripes_total: stripes.len(),
                ..MultipathReport::default()
            },
            delivered: Vec::with_capacity(need),
        };
        let mut states: Vec<StripeState> = stripes
            .into_iter()
            .map(|(entry_hop, onion_bytes)| StripeState {
                current: from,
                hop: entry_hop,
                root: from,
                hint: None,
                onion: Some(onion::LayerBuf::from_vec(onion_bytes)),
                delivering: None,
                segment: None,
                status: StripeStatus::Active,
            })
            .collect();

        for (si, state) in states.iter_mut().enumerate() {
            self.stripe_launch(overlay, thas, si, state, &mut cx);
        }

        loop {
            if cx.delivered.len() >= need {
                break;
            }
            let active = states
                .iter()
                .filter(|s| s.status == StripeStatus::Active)
                .count();
            if cx.delivered.len() + active < need {
                // Hopeless: more stripes are dead than the code tolerates.
                // Retire the survivors' watchdogs and give up the transfer
                // — exactly once, per the transfer-level invariant.
                for s in &mut states {
                    if let Some(seg) = s.segment.take() {
                        self.net.cancel_timer(seg.guard);
                    }
                }
                if let Some(ins) = &self.instruments {
                    ins.transit_giveups.inc();
                }
                return Err(TransitError::StripesExhausted {
                    delivered: cx.delivered.len(),
                    need,
                });
            }
            let Some(ev) = self.net.next_event() else {
                unreachable!("an active stripe keeps a watchdog armed and the queue non-empty")
            };
            match ev {
                Event::Message(m) => {
                    let flow = m.payload >> 16;
                    let idx = (m.payload & 0xFFFF) as usize;
                    let Some(si) = states
                        .iter()
                        .position(|s| s.segment.as_ref().map(|g| g.flow) == Some(flow))
                    else {
                        continue; // leftover of a finished stripe or earlier chain
                    };
                    let s = &mut states[si];
                    let seg = s.segment.as_mut().expect("position matched on segment");
                    if idx != seg.expect {
                        continue; // duplicate of an already-advanced hop
                    }
                    if idx + 1 < seg.eps.len() {
                        // Store-and-forward: advance the chain one hop.
                        seg.expect += 1;
                        seg.attempts = 0;
                        self.net.cancel_timer(seg.guard);
                        let (watchdog, guard) = self.arm_watchdog(seg.wire, 0);
                        let seg = s.segment.as_mut().expect("still armed");
                        seg.watchdog = watchdog;
                        seg.guard = guard;
                        let (src, dst) = (seg.eps[seg.expect - 1], seg.eps[seg.expect]);
                        let (wire, tag) = (seg.wire, (seg.flow << 16) | seg.expect as u64);
                        self.net.send(src, dst, wire, tag);
                        continue;
                    }
                    // Segment complete.
                    let seg = s.segment.take().expect("matched above");
                    self.net.cancel_timer(seg.guard);
                    cx.report.overlay_hops += seg.eps.len() - 1;
                    cx.report.bytes_on_wire += seg.wire * (seg.eps.len() - 1) as u64;
                    if s.delivering.is_some() {
                        self.stripe_finish(si, s, &mut cx);
                    } else if self.stripe_arrive(thas, s, &mut cx) {
                        self.stripe_launch(overlay, thas, si, s, &mut cx);
                    }
                }
                Event::Timer { token, .. } => {
                    let Some(si) = states
                        .iter()
                        .position(|s| s.segment.as_ref().map(|g| g.watchdog) == Some(token))
                    else {
                        continue; // foreign timer sharing the network
                    };
                    let s = &mut states[si];
                    let seg = s.segment.as_mut().expect("position matched on segment");
                    if seg.attempts >= options.retry_budget {
                        let seg = s.segment.take().expect("matched above");
                        if seg.hinted {
                            // §5: the direct attempt timed out — demote the
                            // stale hint, re-route this segment via overlay.
                            if let Some(cache) = cx.hints.as_deref_mut() {
                                cache.demote(s.hop);
                            }
                            if let Some(ins) = &self.instruments {
                                ins.transit_retries.inc();
                            }
                            s.hint = None;
                            self.stripe_launch(overlay, thas, si, s, &mut cx);
                        } else {
                            self.stripe_fail(s, &mut cx);
                        }
                    } else {
                        if let Some(ins) = &self.instruments {
                            ins.transit_retries.inc();
                            ins.transit_backoff_us
                                .record(Self::resend_timeout(seg.wire, seg.attempts).as_micros());
                        }
                        cx.report.retries += 1;
                        seg.attempts += 1;
                        let (watchdog, guard) = self.arm_watchdog(seg.wire, seg.attempts);
                        let seg = s.segment.as_mut().expect("still armed");
                        seg.watchdog = watchdog;
                        seg.guard = guard;
                        let (src, dst) = (seg.eps[seg.expect - 1], seg.eps[seg.expect]);
                        let (wire, tag) = (seg.wire, (seg.flow << 16) | seg.expect as u64);
                        self.net.send(src, dst, wire, tag);
                    }
                }
            }
        }

        // Success: retire the laggards' watchdogs through their handles so
        // spent timers never fire into a later drain.
        for s in &mut states {
            if let Some(seg) = s.segment.take() {
                self.net.cancel_timer(seg.guard);
                cx.report.laggards_cancelled += 1;
                if let Some(ins) = &self.instruments {
                    ins.mp_laggards_cancelled.inc();
                }
            }
        }
        cx.report.elapsed = self.net.now() - start;
        cx.report.max_stripes_per_relay = cx
            .seen
            .values()
            .map(|mask| mask.count_ones())
            .max()
            .unwrap_or(0);
        Ok((cx.delivered, cx.report))
    }

    /// Decide and launch the next wire segment for stripe `si`, looping
    /// through zero-length segments (the onion already sits on the target
    /// node) until real wire traffic starts or the stripe terminates.
    fn stripe_launch(
        &mut self,
        overlay: &mut impl KeyRouter,
        thas: &ReplicaStore<Tha>,
        si: usize,
        s: &mut StripeState,
        cx: &mut StripedCx<'_>,
    ) {
        loop {
            let (path, hinted) = if let Some(dest) = &s.delivering {
                let path = match dest {
                    Destination::Node(n) => {
                        if !overlay.is_live(*n) {
                            return self.stripe_fail(s, cx);
                        }
                        vec![s.current, *n]
                    }
                    Destination::KeyRoot(key) => match overlay.route_path(s.current, *key) {
                        Ok(p) => p,
                        Err(_) => return self.stripe_fail(s, cx),
                    },
                };
                (path, false)
            } else {
                let Some(root) = overlay.owner_of(s.hop) else {
                    return self.stripe_fail(s, cx);
                };
                s.root = root;
                let hinted_target = match (cx.options.use_hints, s.hint) {
                    (true, Some(h)) if h != s.current => Some(h),
                    _ => None,
                };
                match hinted_target {
                    Some(h) => (vec![s.current, h], true),
                    None => match overlay.route_path(s.current, s.hop) {
                        Ok(p) => (p, false),
                        Err(_) => return self.stripe_fail(s, cx),
                    },
                }
            };
            // Anonymity-surface accounting: every relay that stores or
            // forwards this fragment sees stripe `si`. The initiator and
            // the final destination see all fragments by design.
            let to_dest = s.delivering.is_some();
            for (pi, node) in path.iter().enumerate() {
                if *node == cx.from || (to_dest && pi + 1 == path.len()) {
                    continue;
                }
                *cx.seen.entry(*node).or_insert(0) |= 1u64 << (si as u32 & 63);
            }
            let wire = s.onion.as_ref().map_or(0, |o| o.len()) as u64;
            let mut eps = Vec::with_capacity(path.len());
            for n in &path {
                let e = self.endpoint(*n);
                if eps.last() != Some(&e) {
                    eps.push(e);
                }
            }
            if eps.len() >= 2 {
                self.flow_seq += 1;
                let flow = self.flow_seq;
                debug_assert!(eps.len() < (1 << 16), "hop index fits the low bits");
                let (watchdog, guard) = self.arm_watchdog(wire, 0);
                self.net.send(eps[0], eps[1], wire, (flow << 16) | 1);
                s.segment = Some(Segment {
                    eps,
                    expect: 1,
                    attempts: 0,
                    flow,
                    watchdog,
                    guard,
                    hinted,
                    wire,
                });
                return;
            }
            // Zero-length segment: the onion is already where it needs to
            // be. Complete the phase immediately and keep going.
            if to_dest {
                return self.stripe_finish(si, s, cx);
            }
            if !self.stripe_arrive(thas, s, cx) {
                return;
            }
        }
    }

    /// The stripe's onion arrived at `s.root` for hop `s.hop`: run the THA
    /// check, peel one layer, follow the header. Returns whether the
    /// stripe should launch another segment.
    fn stripe_arrive(
        &mut self,
        thas: &ReplicaStore<Tha>,
        s: &mut StripeState,
        cx: &mut StripedCx<'_>,
    ) -> bool {
        // A fragment landing at an anchorless root cannot be delivered —
        // that terminal only makes sense for reply tunnels, not stripes.
        let Some(record) = thas.get(s.hop) else {
            self.stripe_fail(s, cx);
            return false;
        };
        if !record.holders.contains(&s.root) {
            self.stripe_fail(s, cx);
            return false;
        }
        s.current = s.root;
        let onion = s.onion.as_mut().expect("active stripe owns its onion");
        let Ok(header_bytes) = onion.peel(&record.value.key) else {
            self.stripe_fail(s, cx);
            return false;
        };
        let Ok(header) = HopHeader::decode(header_bytes) else {
            self.stripe_fail(s, cx);
            return false;
        };
        cx.report.hops_resolved += 1;
        match header {
            HopHeader::Forward {
                next_hop,
                hint: next_hint,
            } => {
                s.hop = next_hop;
                s.hint = next_hint;
            }
            HopHeader::Deliver { dest } => s.delivering = Some(dest),
        }
        true
    }

    /// The stripe's delivery leg completed: hand over the fragment core.
    fn stripe_finish(&mut self, si: usize, s: &mut StripeState, cx: &mut StripedCx<'_>) {
        let core = s
            .onion
            .take()
            .expect("active stripe owns its onion")
            .into_vec();
        s.status = StripeStatus::Delivered;
        cx.report.stripes_delivered += 1;
        if let Some(ins) = &self.instruments {
            ins.mp_fragments_delivered.inc();
        }
        cx.delivered.push((si, core));
    }

    /// Abandon one stripe (broken tunnel, dead destination, exhausted
    /// retries). The transfer keeps going while enough stripes survive.
    fn stripe_fail(&mut self, s: &mut StripeState, cx: &mut StripedCx<'_>) {
        debug_assert!(s.segment.is_none(), "fail with the watchdog retired");
        s.status = StripeStatus::Failed;
        cx.report.stripes_failed += 1;
        if let Some(ins) = &self.instruments {
            ins.mp_stripe_giveups.inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tha::ThaFactory;
    use crate::transit;
    use crate::tunnel::Tunnel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tap_netsim::latency::UniformLatency;
    use tap_netsim::NetworkConfig;
    use tap_pastry::{Overlay, PastryConfig};

    struct Fx {
        overlay: Overlay,
        thas: ReplicaStore<Tha>,
        rng: StdRng,
        initiator: Id,
        driver: NetDriver<UniformLatency>,
    }

    fn fixture(n: usize, seed: u64) -> Fx {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut overlay = Overlay::new(PastryConfig::paper_defaults());
        for _ in 0..n {
            overlay.add_random_node(&mut rng);
        }
        let initiator = overlay.random_node(&mut rng).unwrap();
        let driver = NetDriver::new(Network::new(
            NetworkConfig::paper_defaults(),
            UniformLatency::paper(seed),
        ));
        Fx {
            overlay,
            thas: ReplicaStore::new(3),
            rng,
            initiator,
            driver,
        }
    }

    fn tunnel(fx: &mut Fx, l: usize) -> Tunnel {
        let mut f = ThaFactory::new(&mut fx.rng, fx.initiator);
        let mut hops = Vec::new();
        while hops.len() < l {
            let s = f.next(&mut fx.rng);
            if fx.thas.insert(&fx.overlay, s.hopid, s.stored()).unwrap() {
                hops.push(s);
            }
        }
        Tunnel::new(hops)
    }

    #[test]
    fn timed_transit_delivers_and_times() {
        let mut fx = fixture(200, 1);
        let t = tunnel(&mut fx, 3);
        let dest = loop {
            let d = fx.overlay.random_node(&mut fx.rng).unwrap();
            if d != fx.initiator {
                break d;
            }
        };
        let onion = t.build_onion(&mut fx.rng, Destination::Node(dest), b"payload", None);
        let (delivery, timed) = fx
            .driver
            .drive_timed(
                &mut fx.overlay,
                &fx.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                0,
                TransitOptions::default(),
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
        // drive_timed and transit::drive must agree on which nodes carry
        // the message and on the terminal delivery.
        let mut fx = fixture(250, 2);
        let t = tunnel(&mut fx, 4);
        let dest = loop {
            let d = fx.overlay.random_node(&mut fx.rng).unwrap();
            if d != fx.initiator {
                break d;
            }
        };
        let onion = t.build_onion(&mut fx.rng, Destination::Node(dest), b"m", None);
        let (d_logical, logical) = transit::drive(
            &mut fx.overlay,
            &fx.thas,
            fx.initiator,
            t.entry_hopid(),
            onion.clone(),
            TransitOptions::default(),
        )
        .unwrap();
        let (d_timed, timed) = fx
            .driver
            .drive_timed(
                &mut fx.overlay,
                &fx.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                0,
                TransitOptions::default(),
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
            let d = fx.overlay.random_node(&mut fx.rng).unwrap();
            if d != fx.initiator {
                break d;
            }
        };
        let onion = t.build_onion(&mut fx.rng, Destination::Node(dest), b"x", None);
        let outer_len = onion.len() as u64;
        let (_, timed) = fx
            .driver
            .drive_timed(
                &mut fx.overlay,
                &fx.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                0,
                TransitOptions::default(),
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
        hints.refresh(&fx.overlay, &t.hop_ids());
        let dest = loop {
            let d = fx.overlay.random_node(&mut fx.rng).unwrap();
            if d != fx.initiator {
                break d;
            }
        };
        // 2 Mb file travelling alongside the onion, as in Fig. 6.
        let onion_plain = t.build_onion(&mut fx.rng, Destination::Node(dest), b"f", None);
        let (_, plain) = fx
            .driver
            .drive_timed(
                &mut fx.overlay,
                &fx.thas,
                fx.initiator,
                t.entry_hopid(),
                onion_plain,
                250_000,
                TransitOptions::default(),
            )
            .unwrap();
        let onion_hinted = t.build_onion(&mut fx.rng, Destination::Node(dest), b"f", Some(&hints));
        let (_, hinted) = fx
            .driver
            .drive_timed(
                &mut fx.overlay,
                &fx.thas,
                fx.initiator,
                t.entry_hopid(),
                onion_hinted,
                250_000,
                TransitOptions::hinted(),
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
            let d = fx.overlay.random_node(&mut fx.rng).unwrap();
            if d != fx.initiator {
                break d;
            }
        };
        let onion = t.build_onion(&mut fx.rng, Destination::Node(dest), b"hard", None);
        let (delivery, timed) = fx
            .driver
            .drive_timed(
                &mut fx.overlay,
                &fx.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                0,
                TransitOptions {
                    retry_budget: 8,
                    ..TransitOptions::default()
                },
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
        let dest = fx.overlay.random_node(&mut fx.rng).unwrap();
        let onion = t.build_onion(&mut fx.rng, Destination::Node(dest), b"x", None);
        let err = fx
            .driver
            .drive_timed(
                &mut fx.overlay,
                &fx.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                0,
                TransitOptions {
                    retry_budget: 2,
                    ..TransitOptions::default()
                },
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
            let d = fx.overlay.random_node(&mut fx.rng).unwrap();
            if d != fx.initiator {
                break d;
            }
        };
        let onion = t.build_onion(&mut fx.rng, Destination::Node(dest), b"dup", None);
        let (delivery, timed) = fx
            .driver
            .drive_timed(
                &mut fx.overlay,
                &fx.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                0,
                TransitOptions::default(),
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
        hints.refresh(&fx.overlay, &t.hop_ids());
        let registry = tap_metrics::Registry::new();
        fx.driver
            .use_instruments(crate::metrics::CoreInstruments::new(&registry));
        // Crash the hinted node of hop 2 on the WIRE only: the overlay
        // oracle still says it is live and root, so the oracle-level
        // staleness check passes and the direct send must time out.
        let hinted = hints.lookup(t.hops()[1].hopid).unwrap();
        fx.driver.kill_node(hinted);
        assert!(fx.overlay.is_live(hinted), "split-brain precondition");
        let dest = loop {
            let d = fx.overlay.random_node(&mut fx.rng).unwrap();
            if d != fx.initiator && d != hinted {
                break d;
            }
        };
        let onion = t.build_onion(&mut fx.rng, Destination::Node(dest), b"m", Some(&hints));
        let before = hints.len();
        let result = fx.driver.drive_timed_with_hints(
            &mut fx.overlay,
            &fx.thas,
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
            let d = fx.overlay.random_node(&mut fx.rng).unwrap();
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
                    t.build_onion(&mut fx.rng, Destination::Node(dest), core, None),
                )
            })
            .collect();
        let (delivered, report) = fx
            .driver
            .drive_striped(
                &mut fx.overlay,
                &fx.thas,
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
        let stalled_root = fx.overlay.owner_of(tunnels[0].entry_hopid()).unwrap();
        assert_ne!(stalled_root, fx.initiator, "seed keeps the root remote");
        fx.driver.kill_node(stalled_root);
        let stripes: Vec<(Id, Vec<u8>)> = tunnels
            .iter()
            .map(|t| {
                (
                    t.entry_hopid(),
                    t.build_onion(&mut fx.rng, Destination::Node(dest), b"frag", None),
                )
            })
            .collect();
        let (delivered, report) = fx
            .driver
            .drive_striped(
                &mut fx.overlay,
                &fx.thas,
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
            let root = fx.overlay.owner_of(t.entry_hopid()).unwrap();
            assert_ne!(root, fx.initiator);
            fx.driver.kill_node(root);
        }
        let stripes: Vec<(Id, Vec<u8>)> = tunnels
            .iter()
            .map(|t| {
                (
                    t.entry_hopid(),
                    t.build_onion(&mut fx.rng, Destination::Node(dest), b"frag", None),
                )
            })
            .collect();
        let err = fx
            .driver
            .drive_striped(
                &mut fx.overlay,
                &fx.thas,
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

    #[test]
    fn broken_tunnel_reported_before_wasting_bandwidth() {
        let mut fx = fixture(200, 5);
        let t = tunnel(&mut fx, 3);
        let victim = t.hop_ids()[0];
        for holder in fx.thas.holders(victim).to_vec() {
            if holder != fx.initiator {
                fx.overlay.remove_node(holder);
            }
        }
        let dest = fx.overlay.random_node(&mut fx.rng).unwrap();
        let onion = t.build_onion(&mut fx.rng, Destination::Node(dest), b"x", None);
        let err = fx
            .driver
            .drive_timed(
                &mut fx.overlay,
                &fx.thas,
                fx.initiator,
                t.entry_hopid(),
                onion,
                250_000,
                TransitOptions::default(),
            )
            .unwrap_err();
        assert_eq!(err, TransitError::ThaLost { hopid: victim });
    }
}
