//! # tap-netsim — deterministic discrete-event network emulation
//!
//! The TAP paper evaluates everything on "a network emulation environment,
//! through which the instances of the node software communicate", with all
//! peers in a single process (§7). The performance experiment (§7.3) pins
//! the emulation parameters down precisely:
//!
//! > "Each link in the network had a random latency from 1 ms to 230 ms,
//! > randomly selected in a fashion that approximates an Internet network.
//! > All links had a simulated bandwidth of 1.5 Mb/s."
//!
//! This crate is that environment, rebuilt as a deterministic discrete-event
//! simulator:
//!
//! * [`SimTime`] / [`SimDuration`] — integer microsecond virtual time, so
//!   runs are exactly reproducible and never drift.
//! * [`latency::LatencyModel`] — pluggable pairwise propagation delay.
//!   [`latency::UniformLatency`] draws each (unordered) endpoint pair's
//!   delay from `U[min, max]` by hashing the pair — O(1) memory even for
//!   the paper's 10^4-node networks.
//! * [`Network`] — the event kernel: endpoints, timers, message delivery,
//!   endpoint failure (messages to a dead endpoint vanish, like UDP), and
//!   traffic counters. Each endpoint has a 1.5 Mb/s serializing uplink:
//!   transmissions queue FIFO behind one another, so a 2 Mb file transfer
//!   occupies the link for its full serialization time (store-and-forward
//!   per overlay hop, as in the paper's transfer-latency figure).
//!
//! The simulator is generic over the message type, single-threaded, and
//! pull-based: callers drain events with [`Network::next_event`] and react,
//! which keeps the overlay logic (in `tap-pastry` / `tap-core`) free of
//! callbacks and lifetimes. It is the workspace's one event kernel: every
//! figure runs on it, and parallelism lives a level up, in independent
//! trials that each own a `Network`.
//!
//! ```
//! use tap_netsim::{latency::UniformLatency, Network, NetworkConfig, Event};
//!
//! let mut net: Network<&'static str> =
//!     Network::new(NetworkConfig::paper_defaults(), UniformLatency::paper(42));
//! let a = net.add_endpoint();
//! let b = net.add_endpoint();
//! net.send(a, b, 100, "hello");
//! match net.next_event() {
//!     Some(Event::Message(m)) => {
//!         assert_eq!(m.dst, b);
//!         assert_eq!(m.payload, "hello");
//!     }
//!     other => panic!("expected delivery, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
pub mod fault;
pub mod latency;
mod network;
pub mod sched;
mod time;

pub use fault::FaultPlan;
pub use network::{
    DeliveredMessage, EndpointId, Event, Network, NetworkConfig, TimerHandle, TimerToken,
    TrafficStats,
};
pub use sched::{CalendarQueue, EventHandle, EventKey};
pub use time::{SimDuration, SimTime};
