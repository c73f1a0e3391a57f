//! Seed-deterministic fault injection for the event kernel.
//!
//! A [`FaultPlan`] attached to a [`Network`](crate::Network) via
//! [`Network::install_faults`](crate::Network::install_faults) perturbs the
//! otherwise perfectly reliable emulation with the failure modes a real
//! deployment sees:
//!
//! * **probabilistic loss** — a transmitted message silently vanishes (the
//!   sender still pays NIC serialization, like a dropped UDP datagram);
//! * **duplication** — a message is delivered twice;
//! * **delay jitter and spikes** — extra arrival delay, drawn uniformly up
//!   to a bound, plus rarer fixed-size spikes (a congested queue);
//! * **named bidirectional partitions** — messages crossing the cut drop,
//!   at send *and* at delivery, until the partition is healed;
//! * **scheduled crash/restart** — endpoints go down and come back at
//!   planned virtual times, without the caller driving `kill`/`revive`.
//!
//! The crash/restart schedule and every delayed redelivery ride the
//! kernel's [`CalendarQueue`](crate::sched::CalendarQueue) like any other
//! event, so fault timing obeys the same `(timestamp, sequence)` total
//! order — including the FIFO-at-equal-timestamps invariant — as normal
//! traffic.
//!
//! Every probabilistic decision is drawn from the plan's **own** RNG
//! substream (a splitmix64 counter stream over the plan's seed — the same
//! discipline the simulation harness uses for trial substreams), and the
//! kernel consumes it in event order. Faulted runs are therefore exactly as
//! reproducible as clean ones: same seed, same schedule, same bytes out,
//! at any worker-thread count above the kernel.
//!
//! Probabilities are integer **permille** (0–1000): the plan stays `Eq`-
//! comparable and CSV-stable with no floating point anywhere.

use std::collections::{BTreeMap, HashSet};

use crate::latency::splitmix64;
use crate::network::EndpointId;
use crate::time::{SimDuration, SimTime};

/// What a scheduled fault does to its endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultAction {
    /// The endpoint fails: in-flight traffic to it is dropped on arrival
    /// and its NIC queue is cleared.
    Crash,
    /// The endpoint comes back up (traffic dropped while down stays lost).
    Restart,
}

/// One entry of a crash/restart schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ScheduledFault {
    /// When the fault fires (virtual time).
    pub at: SimTime,
    /// The endpoint it applies to.
    pub endpoint: EndpointId,
    /// Crash or restart.
    pub action: FaultAction,
}

/// A named bidirectional cut between two endpoint groups.
#[derive(Debug, Clone, Default)]
struct Partition {
    a: HashSet<u32>,
    b: HashSet<u32>,
}

impl Partition {
    fn severs(&self, x: EndpointId, y: EndpointId) -> bool {
        let (x, y) = (x.index() as u32, y.index() as u32);
        (self.a.contains(&x) && self.b.contains(&y)) || (self.a.contains(&y) && self.b.contains(&x))
    }
}

/// The kernel's per-transmission fault verdict (internal).
#[derive(Debug, Clone, Default)]
pub(crate) struct TxVerdict {
    /// The message crosses an active partition: drop, naming the cut.
    pub partitioned: Option<String>,
    /// The message is lost outright.
    pub lost: bool,
    /// The message is delivered twice.
    pub duplicated: bool,
    /// Extra arrival delay (jitter + spike).
    pub extra_delay: SimDuration,
}

/// Deterministic fault-injection configuration and state.
///
/// Build one with the `with_*` combinators, then hand it to
/// [`Network::install_faults`](crate::Network::install_faults). All knobs
/// default to off, so `FaultPlan::new(seed)` alone changes nothing.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// splitmix64 counter state; advanced once per probabilistic draw.
    state: u64,
    loss_permille: u32,
    dup_permille: u32,
    jitter_max: SimDuration,
    spike_permille: u32,
    spike_delay: SimDuration,
    /// Named cuts, ordered for deterministic first-match journaling.
    partitions: BTreeMap<String, Partition>,
    schedule: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// A plan with every fault disabled, drawing from `seed`'s substream.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            state: splitmix64(seed ^ 0xFA17_FA17_FA17_FA17),
            loss_permille: 0,
            dup_permille: 0,
            jitter_max: SimDuration::ZERO,
            spike_permille: 0,
            spike_delay: SimDuration::ZERO,
            partitions: BTreeMap::new(),
            schedule: Vec::new(),
        }
    }

    /// Lose each transmitted message with probability `permille`/1000.
    pub fn with_loss(mut self, permille: u32) -> Self {
        assert!(permille <= 1000, "loss probability is permille (0..=1000)");
        self.loss_permille = permille;
        self
    }

    /// Deliver each surviving message twice with probability
    /// `permille`/1000.
    pub fn with_duplication(mut self, permille: u32) -> Self {
        assert!(permille <= 1000, "dup probability is permille (0..=1000)");
        self.dup_permille = permille;
        self
    }

    /// Add uniform extra delay in `[0, max]` to every delivery.
    pub fn with_jitter(mut self, max: SimDuration) -> Self {
        self.jitter_max = max;
        self
    }

    /// With probability `permille`/1000, add a further fixed `delay` spike.
    pub fn with_spike(mut self, permille: u32, delay: SimDuration) -> Self {
        assert!(permille <= 1000, "spike probability is permille (0..=1000)");
        self.spike_permille = permille;
        self.spike_delay = delay;
        self
    }

    /// Schedule `endpoint` to crash at virtual time `at`.
    pub fn with_crash(mut self, endpoint: EndpointId, at: SimTime) -> Self {
        self.schedule.push(ScheduledFault {
            at,
            endpoint,
            action: FaultAction::Crash,
        });
        self
    }

    /// Schedule `endpoint` to come back up at virtual time `at`.
    pub fn with_restart(mut self, endpoint: EndpointId, at: SimTime) -> Self {
        self.schedule.push(ScheduledFault {
            at,
            endpoint,
            action: FaultAction::Restart,
        });
        self
    }

    /// The crash/restart schedule (drained by the kernel at install time).
    pub(crate) fn take_schedule(&mut self) -> Vec<ScheduledFault> {
        std::mem::take(&mut self.schedule)
    }

    /// Install (or replace) the named cut severing `group_a` from
    /// `group_b`. Traffic within each group is unaffected.
    pub fn partition(&mut self, name: &str, group_a: &[EndpointId], group_b: &[EndpointId]) {
        let cut = Partition {
            a: group_a.iter().map(|e| e.index() as u32).collect(),
            b: group_b.iter().map(|e| e.index() as u32).collect(),
        };
        self.partitions.insert(name.to_string(), cut);
    }

    /// Heal the named cut. Returns whether it existed.
    pub fn heal(&mut self, name: &str) -> bool {
        self.partitions.remove(name).is_some()
    }

    /// The first active cut severing `a` from `b`, if any. No RNG draw.
    pub(crate) fn severed_by(&self, a: EndpointId, b: EndpointId) -> Option<&str> {
        self.partitions
            .iter()
            .find(|(_, p)| p.severs(a, b))
            .map(|(n, _)| n.as_str())
    }

    /// One uniform draw from the plan's substream.
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.state)
    }

    /// A Bernoulli draw at `permille`/1000. Draws only when the knob is on,
    /// so disabled faults never perturb the stream.
    fn roll(&mut self, permille: u32) -> bool {
        permille > 0 && self.next_u64() % 1000 < u64::from(permille)
    }

    /// The fault verdict for one transmission `src → dst`. Consumes RNG
    /// draws in a fixed order (loss, duplication, jitter, spike), so the
    /// stream position is a pure function of the transmission sequence.
    pub(crate) fn transmission(&mut self, src: EndpointId, dst: EndpointId) -> TxVerdict {
        if let Some(name) = self.severed_by(src, dst) {
            return TxVerdict {
                partitioned: Some(name.to_string()),
                ..TxVerdict::default()
            };
        }
        let lost = self.roll(self.loss_permille);
        let duplicated = !lost && self.roll(self.dup_permille);
        let mut extra = SimDuration::ZERO;
        if self.jitter_max > SimDuration::ZERO {
            let span = self.jitter_max.as_micros() + 1;
            extra += SimDuration::from_micros(self.next_u64() % span);
        }
        if self.roll(self.spike_permille) {
            extra += self.spike_delay;
        }
        TxVerdict {
            partitioned: None,
            lost,
            duplicated,
            extra_delay: extra,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(i: usize) -> EndpointId {
        EndpointId::from_index(i).expect("test index fits u32")
    }

    #[test]
    fn passive_plan_changes_nothing_and_draws_nothing() {
        let mut p = FaultPlan::new(7);
        let before = p.state;
        for i in 0..50 {
            let v = p.transmission(ep(i), ep(i + 1));
            assert!(v.partitioned.is_none());
            assert!(!v.lost && !v.duplicated);
            assert_eq!(v.extra_delay, SimDuration::ZERO);
        }
        assert_eq!(p.state, before, "disabled knobs must not consume draws");
    }

    #[test]
    fn loss_rate_tracks_permille() {
        let mut p = FaultPlan::new(11).with_loss(100);
        let n = 10_000;
        let lost = (0..n).filter(|_| p.transmission(ep(0), ep(1)).lost).count();
        let rate = lost as f64 / n as f64;
        assert!(
            (0.08..0.12).contains(&rate),
            "10% loss knob measured at {rate}"
        );
    }

    #[test]
    fn verdicts_are_seed_deterministic() {
        let run = |seed: u64| -> Vec<(bool, bool, u64)> {
            let mut p = FaultPlan::new(seed)
                .with_loss(200)
                .with_duplication(150)
                .with_jitter(SimDuration::from_millis(30))
                .with_spike(50, SimDuration::from_millis(500));
            (0..200)
                .map(|i| {
                    let v = p.transmission(ep(i % 7), ep((i + 1) % 7));
                    (v.lost, v.duplicated, v.extra_delay.as_micros())
                })
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed, same verdicts");
        assert_ne!(run(42), run(43), "distinct seeds diverge");
    }

    #[test]
    fn partitions_sever_both_directions_until_healed() {
        let mut p = FaultPlan::new(0);
        p.partition("west-east", &[ep(0), ep(1)], &[ep(2)]);
        assert_eq!(p.severed_by(ep(0), ep(2)), Some("west-east"));
        assert_eq!(p.severed_by(ep(2), ep(1)), Some("west-east"));
        assert_eq!(p.severed_by(ep(0), ep(1)), None, "intra-group ok");
        assert_eq!(p.severed_by(ep(2), ep(3)), None, "outsiders ok");
        assert!(p.transmission(ep(0), ep(2)).partitioned.is_some());
        assert!(p.heal("west-east"));
        assert!(!p.heal("west-east"), "already healed");
        assert_eq!(p.severed_by(ep(0), ep(2)), None);
        assert!(p.transmission(ep(0), ep(2)).partitioned.is_none());
    }

    #[test]
    fn jitter_is_bounded_and_spikes_add() {
        let mut p = FaultPlan::new(3).with_jitter(SimDuration::from_millis(10));
        for _ in 0..500 {
            let v = p.transmission(ep(0), ep(1));
            assert!(v.extra_delay <= SimDuration::from_millis(10));
        }
        let mut p = FaultPlan::new(3).with_spike(1000, SimDuration::from_millis(700));
        let v = p.transmission(ep(0), ep(1));
        assert_eq!(v.extra_delay, SimDuration::from_millis(700));
    }

    #[test]
    fn schedule_accumulates_in_order() {
        let mut p = FaultPlan::new(0)
            .with_crash(ep(4), SimTime::from_micros(10))
            .with_restart(ep(4), SimTime::from_micros(20));
        let sched = p.take_schedule();
        assert_eq!(sched.len(), 2);
        assert_eq!(sched[0].action, FaultAction::Crash);
        assert_eq!(sched[1].action, FaultAction::Restart);
        assert!(p.take_schedule().is_empty(), "drained once");
    }
}
