//! The event kernel: endpoints, timers, and message delivery.

use std::sync::Arc;

use tap_metrics::{Counter, Histogram, Registry};

use crate::bandwidth::Nic;
use crate::fault::{FaultAction, FaultPlan};
use crate::latency::LatencyModel;
use crate::sched::{CalendarQueue, EventHandle};
use crate::time::{SimDuration, SimTime};

/// Index of an endpoint attached to the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EndpointId(u32);

impl EndpointId {
    /// Build from a dense index (test/bench helper; real ids come from
    /// [`Network::add_endpoint`]). `None` when the index does not fit the
    /// id's 32-bit representation.
    pub fn from_index(i: usize) -> Option<Self> {
        u32::try_from(i).ok().map(EndpointId)
    }

    /// The dense index of this endpoint.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Caller-defined timer identifier, returned inside [`Event::Timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerToken(pub u64);

/// Handle to a pending timer, returned by [`Network::arm_timer`] and
/// consumed by [`Network::cancel_timer`]. Stale handles (the timer already
/// fired or was cancelled) are harmless: cancellation simply reports
/// `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle {
    inner: EventHandle,
    at: SimTime,
}

impl TimerHandle {
    /// The instant the timer is scheduled to fire.
    pub fn fires_at(self) -> SimTime {
        self.at
    }
}

/// A message handed to its destination endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredMessage<M> {
    /// Sender.
    pub src: EndpointId,
    /// Receiver.
    pub dst: EndpointId,
    /// Simulated wire size in bytes (drives the bandwidth model).
    pub bytes: u64,
    /// When [`Network::send`] was called.
    pub sent_at: SimTime,
    /// When the last bit arrived at `dst`.
    pub delivered_at: SimTime,
    /// The payload.
    pub payload: M,
}

/// An event surfaced by [`Network::next_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<M> {
    /// A message arrived at a live endpoint.
    Message(DeliveredMessage<M>),
    /// A timer set with [`Network::set_timer`] fired.
    Timer {
        /// The token supplied when the timer was set.
        token: TimerToken,
        /// The instant the timer fired.
        at: SimTime,
    },
}

/// Static network parameters.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Per-endpoint uplink bandwidth in bits/second.
    pub bandwidth_bps: u64,
    /// Fixed per-message processing delay added at the receiver (models
    /// deserialize + handler cost; zero by default, as in the paper).
    pub processing_delay: SimDuration,
}

impl NetworkConfig {
    /// The paper's §7.3 parameters: 1.5 Mb/s links, no processing delay.
    pub fn paper_defaults() -> Self {
        NetworkConfig {
            bandwidth_bps: 1_500_000,
            processing_delay: SimDuration::ZERO,
        }
    }

    /// Infinite-bandwidth control-plane profile: propagation latency only.
    ///
    /// The anonymity experiments (Figs 2–5) count *which* nodes see what,
    /// not transfer seconds; running them without the bandwidth model keeps
    /// them fast while using the identical code paths.
    pub fn latency_only() -> Self {
        NetworkConfig {
            bandwidth_bps: u64::MAX,
            processing_delay: SimDuration::ZERO,
        }
    }
}

/// Counters accumulated over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Messages accepted by [`Network::send`].
    pub messages_sent: u64,
    /// Messages actually delivered to a live endpoint.
    pub messages_delivered: u64,
    /// Messages dropped (dead sender or dead receiver).
    pub messages_dropped: u64,
    /// Total bytes accepted for transmission.
    pub bytes_sent: u64,
}

enum Pending<M> {
    Message {
        src: EndpointId,
        dst: EndpointId,
        bytes: u64,
        sent_at: SimTime,
        payload: M,
    },
    Timer {
        token: TimerToken,
        scheduled: SimTime,
    },
    /// A scheduled crash/restart from the installed [`FaultPlan`];
    /// processed inside the kernel, never surfaced as an [`Event`].
    Fault {
        endpoint: EndpointId,
        action: FaultAction,
    },
}

/// The event budget of [`Network::run_until_quiet_bounded`] ran out before
/// the simulation quiesced — the drain is spinning (e.g. a duplication
/// storm or a reply loop) rather than converging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Livelock {
    /// Events handed to the callback before the budget was exhausted.
    pub events_processed: u64,
    /// Virtual time when the budget ran out. Together with
    /// `events_processed` this makes a chaos-test failure diagnosable from
    /// the error alone — no journal replay needed to see how far the
    /// simulation got before it started spinning.
    pub at: SimTime,
}

impl std::fmt::Display for Livelock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "event budget exhausted after {} events at virtual time {} without quiescing",
            self.events_processed, self.at
        )
    }
}

impl std::error::Error for Livelock {}

/// Cached instrument handles so the hot send/deliver path records without
/// touching the registry's name map.
struct NetInstruments {
    registry: Registry,
    queue_delay_us: Arc<Histogram>,
    propagation_us: Arc<Histogram>,
    timer_lag_us: Arc<Histogram>,
    dropped: Arc<Counter>,
    bad_endpoint: Arc<Counter>,
    fault_losses: Arc<Counter>,
    fault_dups: Arc<Counter>,
    fault_partition_drops: Arc<Counter>,
    fault_crashes: Arc<Counter>,
    fault_restarts: Arc<Counter>,
    fault_delay_us: Arc<Histogram>,
}

impl NetInstruments {
    fn new(registry: Registry) -> Self {
        NetInstruments {
            queue_delay_us: registry.histogram("netsim.queue_delay_us"),
            propagation_us: registry.histogram("netsim.propagation_us"),
            timer_lag_us: registry.histogram("netsim.timer_lag_us"),
            dropped: registry.counter("netsim.messages_dropped"),
            bad_endpoint: registry.counter("netsim.bad_endpoint"),
            fault_losses: registry.counter("netsim.fault.losses"),
            fault_dups: registry.counter("netsim.fault.dups"),
            fault_partition_drops: registry.counter("netsim.fault.partition_drops"),
            fault_crashes: registry.counter("netsim.fault.crashes"),
            fault_restarts: registry.counter("netsim.fault.restarts"),
            fault_delay_us: registry.histogram("netsim.fault.delay_us"),
            registry,
        }
    }
}

/// A simulated network of endpoints exchanging messages of type `M`.
///
/// Single-threaded and pull-based: every call to [`Network::next_event`]
/// advances virtual time to the next scheduled occurrence and returns it.
///
/// Events live in a [`CalendarQueue`]; same-instant events pop in schedule
/// (FIFO) order under the queue's monotone sequence numbers — see the
/// ordering invariant in [`crate::sched`].
pub struct Network<M, L: LatencyModel = crate::latency::UniformLatency> {
    config: NetworkConfig,
    latency: L,
    now: SimTime,
    queue: CalendarQueue<Pending<M>>,
    nics: Vec<Nic>,
    alive: Vec<bool>,
    stats: TrafficStats,
    instruments: NetInstruments,
    faults: Option<FaultPlan>,
}

impl<M, L: LatencyModel> Network<M, L> {
    /// A new, empty network recording into its own private metrics
    /// registry (share one across subsystems with [`Network::use_metrics`]).
    pub fn new(config: NetworkConfig, latency: L) -> Self {
        Network {
            config,
            latency,
            now: SimTime::ZERO,
            queue: CalendarQueue::new(),
            nics: Vec::new(),
            alive: Vec::new(),
            stats: TrafficStats::default(),
            instruments: NetInstruments::new(Registry::new()),
            faults: None,
        }
    }

    /// Attach a fault-injection plan: its crash/restart schedule enters the
    /// event heap now (instants already in the past are clamped to `now`),
    /// and its probabilistic knobs apply to every subsequent transmission.
    /// Installing a second plan replaces the knobs and *adds* the new
    /// schedule.
    pub fn install_faults(&mut self, mut plan: FaultPlan) {
        for f in plan.take_schedule() {
            let at = f.at.max(self.now);
            self.push(
                at,
                Pending::Fault {
                    endpoint: f.endpoint,
                    action: f.action,
                },
            );
        }
        self.faults = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Install (or replace) a named bidirectional partition between
    /// `group_a` and `group_b`: until [`Network::heal`] removes it, every
    /// message crossing the cut is dropped — whether it is sent or would
    /// arrive while the cut is active. Installs a passive [`FaultPlan`]
    /// (all probabilistic knobs off) when none is attached yet.
    pub fn partition(&mut self, name: &str, group_a: &[EndpointId], group_b: &[EndpointId]) {
        self.faults
            .get_or_insert_with(|| FaultPlan::new(0))
            .partition(name, group_a, group_b);
        self.instruments.registry.emit(
            self.now.as_micros(),
            "netsim.partition",
            format_args!("{name}: {} vs {} endpoints", group_a.len(), group_b.len()),
        );
    }

    /// Heal the named partition. Returns whether it existed.
    pub fn heal(&mut self, name: &str) -> bool {
        let healed = self.faults.as_mut().is_some_and(|p| p.heal(name));
        if healed {
            self.instruments.registry.emit(
                self.now.as_micros(),
                "netsim.heal",
                format_args!("{name}"),
            );
        }
        healed
    }

    /// Record into `registry` from now on (earlier samples stay in the old
    /// registry). Lets one registry aggregate the whole simulation stack.
    pub fn use_metrics(&mut self, registry: Registry) {
        self.instruments = NetInstruments::new(registry);
    }

    /// The metrics registry this network records into.
    pub fn metrics(&self) -> &Registry {
        &self.instruments.registry
    }

    /// Attach a new, live endpoint.
    pub fn add_endpoint(&mut self) -> EndpointId {
        let id =
            EndpointId::from_index(self.nics.len()).expect("more than u32::MAX endpoints attached");
        self.nics.push(Nic::new(self.config.bandwidth_bps));
        self.alive.push(true);
        self.latency.on_endpoint_added(id);
        id
    }

    /// Number of endpoints ever attached (dead ones included).
    pub fn endpoint_count(&self) -> usize {
        self.nics.len()
    }

    /// True when `id` belongs to this network instance. An id minted by
    /// *another* `Network` (or a stale index) is counted and journaled as
    /// `netsim.bad_endpoint` instead of panicking with an opaque
    /// out-of-bounds index.
    fn known_endpoint(&self, id: EndpointId, op: &str) -> bool {
        if id.index() < self.alive.len() {
            return true;
        }
        self.instruments.bad_endpoint.inc();
        self.instruments.registry.emit(
            self.now.as_micros(),
            "netsim.bad_endpoint",
            format_args!("{op} on unknown endpoint {}", id.index()),
        );
        false
    }

    /// Whether the endpoint is currently live. An endpoint from another
    /// network instance is reported dead (and journaled, see
    /// [`Network::known_endpoint`]).
    pub fn is_alive(&self, id: EndpointId) -> bool {
        self.known_endpoint(id, "is_alive") && self.alive[id.index()]
    }

    /// Kill an endpoint: it stops sending, and anything in flight to it is
    /// silently dropped on arrival (fail-stop, like the paper's node
    /// failures). Foreign endpoints are journaled and ignored.
    pub fn kill(&mut self, id: EndpointId) {
        if self.known_endpoint(id, "kill") {
            self.alive[id.index()] = false;
            self.nics[id.index()].reset(self.now);
        }
    }

    /// Revive a previously killed endpoint (a rejoining node; note that in
    /// the overlay a rejoin is a *new* node — the overlay layer decides).
    /// Foreign endpoints are journaled and ignored.
    pub fn revive(&mut self, id: EndpointId) {
        if self.known_endpoint(id, "revive") {
            self.alive[id.index()] = true;
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cumulative traffic counters.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// The propagation delay the latency model assigns to `(a, b)`.
    pub fn link_delay(&self, a: EndpointId, b: EndpointId) -> SimDuration {
        self.latency.delay(a, b)
    }

    /// Queue `payload` from `src` to `dst`. Returns the scheduled delivery
    /// instant, or `None` if the sender is dead (nothing is sent).
    ///
    /// Delivery = serialization on `src`'s uplink (FIFO behind earlier
    /// sends) + propagation delay + receiver processing delay. Whether the
    /// receiver is alive is checked at *delivery* time, so a message can be
    /// outrun by a failure, exactly the race TAP's replica failover handles.
    ///
    /// With a [`FaultPlan`] installed the transmission may additionally be
    /// lost, duplicated, delayed, or severed by a partition — and the
    /// *sender cannot tell*: the returned instant is the estimate a real
    /// sender would have, whether or not the message survives. Recovering
    /// from silence is the caller's job (timers + retries).
    pub fn send(
        &mut self,
        src: EndpointId,
        dst: EndpointId,
        bytes: u64,
        payload: M,
    ) -> Option<SimTime>
    where
        M: Clone,
    {
        if !self.alive[src.index()] {
            self.stats.messages_dropped += 1;
            self.instruments.dropped.inc();
            self.instruments.registry.emit(
                self.now.as_micros(),
                "netsim.drop",
                format_args!("dead sender {}", src.index()),
            );
            return None;
        }
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes;
        let tx_done = self.nics[src.index()].transmit(self.now, bytes);
        let propagation = self.latency.delay(src, dst);
        // Queueing = FIFO wait behind earlier sends plus serialization.
        self.instruments
            .queue_delay_us
            .record((tx_done - self.now).as_micros());
        self.instruments
            .propagation_us
            .record(propagation.as_micros());
        let mut arrive = tx_done + propagation + self.config.processing_delay;

        let verdict = self.faults.as_mut().map(|p| p.transmission(src, dst));
        if let Some(v) = verdict {
            if let Some(cut) = v.partitioned {
                self.stats.messages_dropped += 1;
                self.instruments.fault_partition_drops.inc();
                self.instruments.registry.emit(
                    self.now.as_micros(),
                    "netsim.fault.partition_drop",
                    format_args!("{} -> {} severed by {cut}", src.index(), dst.index()),
                );
                return Some(arrive);
            }
            if v.lost {
                self.stats.messages_dropped += 1;
                self.instruments.fault_losses.inc();
                self.instruments.registry.emit(
                    self.now.as_micros(),
                    "netsim.fault.loss",
                    format_args!("{} -> {}", src.index(), dst.index()),
                );
                return Some(arrive);
            }
            if v.extra_delay > SimDuration::ZERO {
                self.instruments
                    .fault_delay_us
                    .record(v.extra_delay.as_micros());
                arrive += v.extra_delay;
            }
            if v.duplicated {
                self.instruments.fault_dups.inc();
                self.push(
                    arrive,
                    Pending::Message {
                        src,
                        dst,
                        bytes,
                        sent_at: self.now,
                        payload: payload.clone(),
                    },
                );
            }
        }
        self.push(
            arrive,
            Pending::Message {
                src,
                dst,
                bytes,
                sent_at: self.now,
                payload,
            },
        );
        Some(arrive)
    }

    /// Schedule a timer `after` from now carrying `token`.
    pub fn set_timer(&mut self, after: SimDuration, token: TimerToken) -> SimTime {
        self.arm_timer(after, token).fires_at()
    }

    /// [`Network::set_timer`], returning a handle that can later cancel the
    /// timer ([`Network::cancel_timer`]) — the cheap way to retire watchdog
    /// timers whose transfer already completed, instead of letting them
    /// fire and filtering stale tokens at delivery.
    pub fn arm_timer(&mut self, after: SimDuration, token: TimerToken) -> TimerHandle {
        let at = self.now + after;
        let inner = self.queue.push(
            at,
            Pending::Timer {
                token,
                scheduled: at,
            },
        );
        TimerHandle { inner, at }
    }

    /// Remove a pending timer before it fires. Returns whether the timer
    /// was still pending (a handle whose timer already fired or was
    /// cancelled reports `false`).
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.queue.cancel(handle.inner).is_some()
    }

    fn push(&mut self, at: SimTime, pending: Pending<M>) {
        self.queue.push(at, pending);
    }

    /// The time of the next scheduled occurrence, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|k| k.at)
    }

    /// Pending occurrences (messages in flight, armed timers, scheduled
    /// faults).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Advance to and return the next event. Messages whose destination has
    /// died in the meantime are dropped transparently (time still advances
    /// past them). Returns `None` when the simulation has quiesced.
    pub fn next_event(&mut self) -> Option<Event<M>> {
        while let Some((key, pending)) = self.queue.pop() {
            let entry_at = key.at;
            debug_assert!(entry_at >= self.now, "time must be monotone");
            self.now = entry_at;
            match pending {
                Pending::Timer { token, scheduled } => {
                    // In virtual time the lag is zero by construction; the
                    // histogram pins that invariant and counts fires, and
                    // any nonzero drift is journaled loudly.
                    let lag = (entry_at - scheduled).as_micros();
                    self.instruments.timer_lag_us.record(lag);
                    if lag != 0 {
                        self.instruments.registry.emit(
                            entry_at.as_micros(),
                            "netsim.timer_drift",
                            format_args!("token {} fired {lag}us late", token.0),
                        );
                    }
                    return Some(Event::Timer {
                        token,
                        at: entry_at,
                    });
                }
                Pending::Message {
                    src,
                    dst,
                    bytes,
                    sent_at,
                    payload,
                } => {
                    if !self.alive[dst.index()] {
                        self.stats.messages_dropped += 1;
                        self.instruments.dropped.inc();
                        self.instruments.registry.emit(
                            entry_at.as_micros(),
                            "netsim.drop",
                            format_args!("dead receiver {}", dst.index()),
                        );
                        continue;
                    }
                    // A partition installed *after* the send still severs
                    // the message: the cut is checked again at arrival, so
                    // in-flight traffic cannot tunnel through it.
                    let cut = self
                        .faults
                        .as_ref()
                        .and_then(|p| p.severed_by(src, dst))
                        .map(String::from);
                    if let Some(cut) = cut {
                        self.stats.messages_dropped += 1;
                        self.instruments.fault_partition_drops.inc();
                        self.instruments.registry.emit(
                            entry_at.as_micros(),
                            "netsim.fault.partition_drop",
                            format_args!(
                                "{} -> {} severed by {cut} at arrival",
                                src.index(),
                                dst.index()
                            ),
                        );
                        continue;
                    }
                    self.stats.messages_delivered += 1;
                    return Some(Event::Message(DeliveredMessage {
                        src,
                        dst,
                        bytes,
                        sent_at,
                        delivered_at: entry_at,
                        payload,
                    }));
                }
                Pending::Fault { endpoint, action } => {
                    if !self.known_endpoint(endpoint, "scheduled fault") {
                        continue;
                    }
                    match action {
                        FaultAction::Crash => {
                            self.alive[endpoint.index()] = false;
                            self.nics[endpoint.index()].reset(self.now);
                            self.instruments.fault_crashes.inc();
                            self.instruments.registry.emit(
                                entry_at.as_micros(),
                                "netsim.fault.crash",
                                format_args!("endpoint {}", endpoint.index()),
                            );
                        }
                        FaultAction::Restart => {
                            self.alive[endpoint.index()] = true;
                            self.instruments.fault_restarts.inc();
                            self.instruments.registry.emit(
                                entry_at.as_micros(),
                                "netsim.fault.restart",
                                format_args!("endpoint {}", endpoint.index()),
                            );
                        }
                    }
                    continue;
                }
            }
        }
        None
    }

    /// Drain events until quiescence, calling `f` for each. The closure may
    /// send further messages through the `&mut Network` it is given.
    pub fn run_until_quiet(&mut self, mut f: impl FnMut(&mut Self, Event<M>)) {
        while let Some(ev) = self.next_event() {
            f(self, ev);
        }
    }

    /// [`Network::run_until_quiet`], but abort with [`Livelock`] once
    /// `max_events` events have been handed to `f` without quiescing. Use
    /// under fault injection: a duplication storm or a retry loop that
    /// answers every timeout with another send would otherwise spin the
    /// drain forever. On success returns how many events were processed.
    pub fn run_until_quiet_bounded(
        &mut self,
        max_events: u64,
        mut f: impl FnMut(&mut Self, Event<M>),
    ) -> Result<u64, Livelock> {
        let mut processed = 0u64;
        while let Some(ev) = self.next_event() {
            // Every popped event is handed to `f` — including the one that
            // exhausts the budget. Aborting *before* the callback would
            // silently discard a popped event and leave the network
            // inconsistent for callers that inspect or resume after a
            // livelock; instead the budget check runs after, and remaining
            // work stays queued.
            processed += 1;
            f(self, ev);
            if processed >= max_events && self.queue.peek().is_some() {
                self.instruments.registry.emit(
                    self.now.as_micros(),
                    "netsim.livelock",
                    format_args!("budget of {max_events} events exhausted"),
                );
                return Err(Livelock {
                    events_processed: processed,
                    at: self.now,
                });
            }
        }
        Ok(processed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::UniformLatency;

    type Net = Network<u32, UniformLatency>;

    fn net() -> Net {
        Network::new(NetworkConfig::paper_defaults(), UniformLatency::paper(1))
    }

    #[test]
    fn basic_delivery_and_timing() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        let expect = n.send(a, b, 1_500, 42).unwrap();
        match n.next_event().unwrap() {
            Event::Message(m) => {
                assert_eq!((m.src, m.dst, m.payload), (a, b, 42));
                assert_eq!(m.delivered_at, expect);
                // 1500 bytes at 1.5Mb/s = 8ms serialization, plus 1-230ms.
                let total = m.delivered_at - m.sent_at;
                assert!(total >= SimDuration::from_millis(9));
                assert!(total <= SimDuration::from_millis(238));
                let prop = n.link_delay(a, b);
                assert_eq!(total, SimDuration::from_millis(8) + prop);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(n.next_event().is_none(), "quiescent after one delivery");
    }

    #[test]
    fn foreign_endpoints_are_journaled_not_panics() {
        let mut other = net();
        for _ in 0..5 {
            other.add_endpoint();
        }
        let foreign = other.add_endpoint(); // index 5 — unknown to `n`

        let mut n = net();
        let journal = n.metrics().install_journal(8);
        let a = n.add_endpoint();
        assert!(n.is_alive(a));

        // A foreign id must not panic: reported dead, kill/revive ignored.
        assert!(!n.is_alive(foreign));
        n.kill(foreign);
        n.revive(foreign);
        assert!(n.is_alive(a), "known endpoints unaffected");

        let report = n.metrics().snapshot();
        assert_eq!(report.counter("netsim.bad_endpoint"), 3);
        let events = journal.snapshot();
        assert_eq!(events.len(), 3);
        assert!(events.iter().all(|e| e.kind == "netsim.bad_endpoint"));
        assert!(events[0].detail.contains("is_alive"));
        assert!(events[1].detail.contains("kill"));
        assert!(events[2].detail.contains("revive"));
    }

    #[test]
    fn fifo_uplink_orders_same_destination_traffic() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        n.send(a, b, 150_000, 1); // 0.8s serialization
        n.send(a, b, 150_000, 2); // finishes at 1.6s
        let t1 = match n.next_event().unwrap() {
            Event::Message(m) => {
                assert_eq!(m.payload, 1);
                m.delivered_at
            }
            _ => unreachable!(),
        };
        let t2 = match n.next_event().unwrap() {
            Event::Message(m) => {
                assert_eq!(m.payload, 2);
                m.delivered_at
            }
            _ => unreachable!(),
        };
        assert_eq!(t2 - t1, SimDuration::from_micros(800_000));
    }

    #[test]
    fn dead_sender_sends_nothing() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        n.kill(a);
        assert!(n.send(a, b, 10, 1).is_none());
        assert!(n.next_event().is_none());
        assert_eq!(n.stats().messages_dropped, 1);
        assert_eq!(n.stats().messages_sent, 0);
    }

    #[test]
    fn death_races_inflight_message() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        n.send(a, b, 10, 7);
        n.kill(b); // dies before delivery
        assert!(n.next_event().is_none(), "message dropped at arrival");
        assert_eq!(n.stats().messages_dropped, 1);
    }

    #[test]
    fn revive_allows_future_traffic_but_not_inflight() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        n.send(a, b, 10, 1);
        n.kill(b);
        assert!(n.next_event().is_none());
        n.revive(b);
        n.send(a, b, 10, 2);
        match n.next_event().unwrap() {
            Event::Message(m) => assert_eq!(m.payload, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn timers_interleave_with_messages_in_time_order() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        n.set_timer(SimDuration::from_millis(1), TimerToken(99));
        n.send(a, b, 0, 5); // zero bytes: pure propagation (>= 1ms)
        let first = n.next_event().unwrap();
        match first {
            Event::Timer { token, at } => {
                assert_eq!(token, TimerToken(99));
                assert_eq!(at, SimTime::from_micros(1_000));
            }
            Event::Message(_) => {
                // Propagation could legitimately be exactly 1ms; then the
                // message (seq 1) comes after the timer (seq 0) anyway.
                panic!("timer must fire first at equal-or-earlier time");
            }
        }
        assert!(matches!(n.next_event(), Some(Event::Message(_))));
    }

    #[test]
    fn deterministic_event_order_on_ties() {
        // Two zero-latency-path timers at the same instant pop FIFO.
        let mut n = net();
        n.set_timer(SimDuration::from_millis(5), TimerToken(1));
        n.set_timer(SimDuration::from_millis(5), TimerToken(2));
        match (n.next_event().unwrap(), n.next_event().unwrap()) {
            (Event::Timer { token: t1, .. }, Event::Timer { token: t2, .. }) => {
                assert_eq!((t1, t2), (TimerToken(1), TimerToken(2)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn time_is_monotone_across_many_events() {
        let mut n = net();
        let eps: Vec<_> = (0..10).map(|_| n.add_endpoint()).collect();
        for i in 0..10usize {
            for j in 0..10usize {
                if i != j {
                    n.send(eps[i], eps[j], (i * 100 + j) as u64, 0);
                }
            }
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some(ev) = n.next_event() {
            if let Event::Message(m) = ev {
                assert!(m.delivered_at >= last);
                last = m.delivered_at;
                count += 1;
            }
        }
        assert_eq!(count, 90);
        assert_eq!(n.stats().messages_delivered, 90);
    }

    #[test]
    fn same_pair_traffic_is_fifo() {
        // Messages between one (src, dst) pair always arrive in send
        // order: serialization is FIFO and the propagation delay per pair
        // is constant.
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        for i in 0..50u32 {
            n.send(a, b, (i as u64 % 7) * 100, i);
        }
        let mut expected = 0;
        while let Some(Event::Message(m)) = n.next_event() {
            assert_eq!(m.payload, expected);
            expected += 1;
        }
        assert_eq!(expected, 50);
    }

    #[test]
    fn stats_account_for_every_message() {
        let mut n = net();
        let eps: Vec<_> = (0..6).map(|_| n.add_endpoint()).collect();
        n.kill(eps[5]);
        let mut sent = 0u64;
        let mut to_dead = 0u64;
        for i in 0..60u32 {
            let src = eps[(i % 5) as usize];
            let dst = eps[((i as usize) * 3 + 1) % 6];
            if src != dst && n.send(src, dst, 10, i).is_some() {
                sent += 1;
                if dst == eps[5] {
                    to_dead += 1;
                }
            }
        }
        while n.next_event().is_some() {}
        let s = n.stats();
        assert_eq!(s.messages_sent, sent);
        assert_eq!(s.messages_delivered, sent - to_dead);
        assert_eq!(s.messages_dropped, to_dead);
    }

    #[test]
    fn metrics_capture_delays_and_drops() {
        let mut n = net();
        let registry = tap_metrics::Registry::new();
        registry.install_journal(16);
        n.use_metrics(registry.clone());
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        n.send(a, b, 1_500, 1); // 8ms serialization
        n.send(a, b, 1_500, 2); // queues behind the first: 16ms from now
        n.set_timer(SimDuration::from_millis(1), TimerToken(7));
        n.kill(b);
        while n.next_event().is_some() {}

        let report = registry.snapshot();
        let queue = report.histogram("netsim.queue_delay_us").unwrap();
        assert_eq!(queue.count, 2);
        assert_eq!(queue.min, 8_000);
        assert_eq!(queue.max, 16_000);
        let prop = report.histogram("netsim.propagation_us").unwrap();
        assert_eq!(prop.count, 2);
        assert_eq!(prop.min, prop.max, "same pair, same propagation");
        let lag = report.histogram("netsim.timer_lag_us").unwrap();
        assert_eq!((lag.count, lag.max), (1, 0), "virtual timers never drift");
        assert_eq!(report.counter("netsim.messages_dropped"), 2);
        assert_eq!(report.events.len(), 2, "one journal entry per drop");
        assert!(report.events.iter().all(|e| e.kind == "netsim.drop"));
        // The network's own traffic stats and the registry must agree.
        assert_eq!(
            n.stats().messages_dropped,
            report.counter("netsim.messages_dropped")
        );
    }

    fn count_messages(n: &mut Net) -> u64 {
        let mut delivered = 0;
        while let Some(ev) = n.next_event() {
            if matches!(ev, Event::Message(_)) {
                delivered += 1;
            }
        }
        delivered
    }

    #[test]
    fn lossy_plan_drops_but_sender_cannot_tell() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        n.install_faults(FaultPlan::new(11).with_loss(500));
        let mut accepted = 0u64;
        for i in 0..200u32 {
            // Loss is invisible at the send site: every live send returns
            // a scheduled arrival.
            assert!(n.send(a, b, 10, i).is_some());
            accepted += 1;
        }
        let delivered = count_messages(&mut n);
        assert!(delivered < accepted, "some messages must be lost");
        assert!(delivered > 0, "50% loss should not kill everything");
        let report = n.metrics().snapshot();
        assert_eq!(report.counter("netsim.fault.losses"), accepted - delivered);
        assert_eq!(n.stats().messages_dropped, accepted - delivered);
    }

    #[test]
    fn duplication_delivers_twice() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        n.install_faults(FaultPlan::new(3).with_duplication(1000));
        n.send(a, b, 10, 7);
        assert_eq!(count_messages(&mut n), 2);
        assert_eq!(n.metrics().snapshot().counter("netsim.fault.dups"), 1);
    }

    #[test]
    fn partitions_sever_in_flight_traffic_until_healed() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        let c = n.add_endpoint();
        n.send(a, b, 10, 1); // in flight before the cut
        n.partition("cut", &[a], &[b]);
        n.send(a, b, 10, 2); // sent across the active cut
        n.send(a, c, 10, 3); // unaffected pair
        let mut got = Vec::new();
        n.run_until_quiet(|_, ev| {
            if let Event::Message(m) = ev {
                got.push(m.payload);
            }
        });
        assert_eq!(got, vec![3], "both a->b copies severed");
        let report = n.metrics().snapshot();
        assert_eq!(report.counter("netsim.fault.partition_drops"), 2);

        assert!(n.heal("cut"));
        assert!(!n.heal("cut"), "second heal is a no-op");
        n.send(a, b, 10, 4);
        assert_eq!(count_messages(&mut n), 1, "healed link carries traffic");
    }

    #[test]
    fn scheduled_crash_restart_toggles_liveness_silently() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        n.install_faults(
            FaultPlan::new(0)
                .with_crash(b, SimTime::from_micros(1))
                .with_restart(b, SimTime::from_micros(2_000_000)),
        );
        // Arrives well before the restart: dropped at the dead receiver.
        n.send(a, b, 10, 1);
        let mut seen = Vec::new();
        n.run_until_quiet(|_, ev| {
            if let Event::Message(m) = ev {
                seen.push(m.payload);
            }
        });
        assert!(seen.is_empty(), "first message hit the crashed endpoint");
        // Both schedule entries were consumed internally; the restart at
        // t=2s has fired, so a resend now goes through.
        assert!(n.now() >= SimTime::from_micros(2_000_000));
        n.send(a, b, 10, 2);
        n.run_until_quiet(|_, ev| {
            if let Event::Message(m) = ev {
                seen.push(m.payload);
            }
        });
        assert_eq!(seen, vec![2]);
        let report = n.metrics().snapshot();
        assert_eq!(report.counter("netsim.fault.crashes"), 1);
        assert_eq!(report.counter("netsim.fault.restarts"), 1);
    }

    #[test]
    fn jitter_shifts_arrival_and_records_histogram() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        let clean = n.send(a, b, 10, 0).unwrap();
        while n.next_event().is_some() {}
        n.install_faults(FaultPlan::new(5).with_jitter(SimDuration::from_millis(50)));
        let mut max_seen = SimTime::ZERO;
        for i in 0..50u32 {
            // Zero-byte messages: no FIFO queueing, so each arrival is
            // propagation + jitter only.
            let at = n.send(a, b, 0, i).unwrap();
            max_seen = max_seen.max(at);
        }
        while n.next_event().is_some() {}
        let prop = n.link_delay(a, b);
        assert!(clean >= SimTime::ZERO + prop);
        let report = n.metrics().snapshot();
        let h = report.histogram("netsim.fault.delay_us").unwrap();
        assert!(h.count > 0, "jitter draws recorded");
        assert!(h.max <= 50_000, "bounded by the configured maximum");
    }

    #[test]
    fn bounded_drain_reports_livelock() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        let journal = n.metrics().install_journal(8);
        n.send(a, b, 10, 0);
        // Pathological handler: answers every delivery with another send.
        let err = n
            .run_until_quiet_bounded(100, |net, ev| {
                if let Event::Message(m) = ev {
                    net.send(m.dst, m.src, 10, m.payload);
                }
            })
            .unwrap_err();
        assert_eq!(err.events_processed, 100);
        assert!(err.at > SimTime::ZERO, "livelock carries the virtual time");
        assert!(err.to_string().contains("100 events"));
        assert!(
            err.to_string().contains(&format!("{}", err.at)),
            "virtual time appears in the message: {err}"
        );
        let events = journal.snapshot();
        assert!(events.iter().any(|e| e.kind == "netsim.livelock"));

        // A well-behaved drain reports its event count.
        let mut quiet = net();
        let a = quiet.add_endpoint();
        let b = quiet.add_endpoint();
        quiet.send(a, b, 10, 1);
        assert_eq!(quiet.run_until_quiet_bounded(100, |_, _| {}), Ok(1));
    }

    #[test]
    fn livelock_loses_no_events() {
        // Regression: the budget-exceeding event used to be popped and
        // discarded on the Err path. Every scheduled timer must reach the
        // callback exactly once — across the Livelock boundary.
        let mut n = net();
        for i in 0..10u64 {
            n.set_timer(SimDuration::from_millis(i + 1), TimerToken(i));
        }
        let mut seen = Vec::new();
        let err = n
            .run_until_quiet_bounded(4, |_, ev| {
                if let Event::Timer { token, .. } = ev {
                    seen.push(token.0);
                }
            })
            .unwrap_err();
        assert_eq!(err.events_processed, 4);
        assert_eq!(seen, vec![0, 1, 2, 3], "budgeted events all reached f");
        assert_eq!(n.pending_events(), 6, "the rest stay queued, none lost");
        // Resuming the drain picks up exactly where the budget ran out.
        assert_eq!(
            n.run_until_quiet_bounded(100, |_, ev| {
                if let Event::Timer { token, .. } = ev {
                    seen.push(token.0);
                }
            }),
            Ok(6)
        );
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn exact_budget_with_quiescence_is_not_a_livelock() {
        // Spending the whole budget is fine if nothing remains afterwards.
        let mut n = net();
        n.set_timer(SimDuration::from_millis(1), TimerToken(0));
        n.set_timer(SimDuration::from_millis(2), TimerToken(1));
        assert_eq!(n.run_until_quiet_bounded(2, |_, _| {}), Ok(2));
    }

    #[test]
    fn cancelled_timers_never_fire() {
        let mut n = net();
        let h1 = n.arm_timer(SimDuration::from_millis(1), TimerToken(1));
        let h2 = n.arm_timer(SimDuration::from_millis(2), TimerToken(2));
        assert_eq!(h1.fires_at(), SimTime::from_micros(1_000));
        assert!(n.cancel_timer(h1));
        assert!(!n.cancel_timer(h1), "second cancel reports stale");
        let mut fired = Vec::new();
        n.run_until_quiet(|_, ev| {
            if let Event::Timer { token, .. } = ev {
                fired.push(token.0);
            }
        });
        assert_eq!(fired, vec![2], "only the un-cancelled timer fires");
        assert!(!n.cancel_timer(h2), "cancel after fire reports stale");
    }

    #[test]
    fn run_until_quiet_supports_reentrant_sends() {
        let mut n = net();
        let a = n.add_endpoint();
        let b = n.add_endpoint();
        n.send(a, b, 10, 3);
        let mut hops = Vec::new();
        n.run_until_quiet(|net, ev| {
            if let Event::Message(m) = ev {
                hops.push(m.payload);
                if m.payload > 0 {
                    net.send(m.dst, m.src, 10, m.payload - 1);
                }
            }
        });
        assert_eq!(hops, vec![3, 2, 1, 0], "ping-pong until counter hits 0");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::latency::UniformLatency;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_all_live_traffic_delivered_in_time_order(
            ops in proptest::collection::vec((0usize..8, 0usize..8, 0u64..5_000), 1..80),
            seed in any::<u64>(),
        ) {
            let mut net: Network<usize, UniformLatency> =
                Network::new(NetworkConfig::paper_defaults(), UniformLatency::paper(seed));
            let eps: Vec<_> = (0..8).map(|_| net.add_endpoint()).collect();
            let mut expected = 0u64;
            for (s, d, bytes) in &ops {
                if s != d {
                    let at = net.send(eps[*s], eps[*d], *bytes, 0).unwrap();
                    prop_assert!(at >= net.now());
                    expected += 1;
                }
            }
            let mut last = SimTime::ZERO;
            let mut delivered = 0u64;
            while let Some(ev) = net.next_event() {
                if let Event::Message(m) = ev {
                    prop_assert!(m.delivered_at >= last, "time went backwards");
                    prop_assert!(m.delivered_at >= m.sent_at);
                    // Lower bound: propagation alone.
                    prop_assert!(
                        m.delivered_at - m.sent_at >= net.link_delay(m.src, m.dst)
                    );
                    last = m.delivered_at;
                    delivered += 1;
                }
            }
            prop_assert_eq!(delivered, expected, "no live message may vanish");
        }

        #[test]
        fn prop_kills_only_drop_their_own_traffic(
            seed in any::<u64>(),
            kill_idx in 0usize..4,
        ) {
            let mut net: Network<u32, UniformLatency> =
                Network::new(NetworkConfig::latency_only(), UniformLatency::paper(seed));
            let eps: Vec<_> = (0..4).map(|_| net.add_endpoint()).collect();
            for i in 0..4usize {
                for j in 0..4usize {
                    if i != j {
                        net.send(eps[i], eps[j], 1, (i * 4 + j) as u32);
                    }
                }
            }
            net.kill(eps[kill_idx]);
            let mut got = Vec::new();
            while let Some(ev) = net.next_event() {
                if let Event::Message(m) = ev {
                    prop_assert_ne!(m.dst, eps[kill_idx], "dead endpoint received");
                    got.push(m.payload);
                }
            }
            // Exactly the 9 messages not addressed to the victim arrive.
            prop_assert_eq!(got.len(), 9);
        }
    }
}
