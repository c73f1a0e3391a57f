//! # tap-core — TAP: tunneling for anonymity in structured P2P systems
//!
//! This crate is the paper's contribution (Zhu & Hu, ICPP 2004): anonymous
//! mix tunnels that are **decoupled from fixed nodes**. A tunnel is a
//! sequence of *tunnel hops*, each named by a `hopid` in the DHT identifier
//! space rather than by an address; the node currently serving a hop is
//! simply the live node whose nodeid is numerically closest to the hopid.
//! Because the hop's secrets — the *tunnel hop anchor* (THA)
//! `<hopid, K, H(PW)>` — are replicated on the `k` closest nodes by the
//! PAST replication manager, a hop survives any failure that leaves at
//! least one replica holder alive: a candidate simply becomes the new
//! tunnel hop node. That is the whole trick, and everything else in the
//! paper follows from it.
//!
//! Module map (paper section in parentheses):
//!
//! * [`tha`] — THA generation `hopid = H(node_ID, hkey, t)`, the stored
//!   form, and password-based ownership (§3.1–§3.2).
//! * [`deploy`] — anonymous THA deployment over an Onion-Routing bootstrap
//!   path, with CPU-puzzle flood payment (§3.3).
//! * [`tunnel`] — forming tunnels from scattered hopids and building the
//!   layered forward/reply onions of Fig. 1 and §4 (§3.5, §4).
//! * [`wire`] — the per-hop routing headers inside onion layers.
//! * [`transit`] — driving a message through a tunnel over the overlay:
//!   hop resolution via routing + replication, failover to candidates, and
//!   the IP-hint performance optimization (§2, §5).
//! * [`baseline`] — "current tunneling": the fixed-node tunnel Fig. 2
//!   compares against, as the relays it draws and one liveness predicate
//!   (§1).
//! * [`adversary`] — colluding malicious nodes pooling THAs; corruption
//!   cases 1 and 2 (§6).
//! * [`retrieval`] — the sample application: anonymous file retrieval with
//!   a distinct reply tunnel (§4). A reply tunnel is also §1's anonymous
//!   e-mail reply block: a [`ReplyTunnel`] driven by [`transit::drive`].
//! * [`netdrive`] — timed, message-driven transit over the emulated
//!   network: the real onion bytes as wire traffic, layer shrinkage and
//!   NIC queueing included.
//! * [`multipath`] — erasure-coded multipath transfer: stripe one payload
//!   across `n` disjoint tunnels, reconstruct from any `k` fragments,
//!   degrade explicitly when the overlay cannot supply `n` tunnels.
//! * [`world`] — one deployment: overlay, stores, draws and registry wired
//!   together once, the API the figures and the examples drive.
//! * [`draws`] — one keyed random stream per kind of decision.
//! * [`metrics`] — cached `tap-metrics` handles (onion layer timings,
//!   transit retries, THA takeovers) shared by transit and retrieval.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod baseline;
pub mod deploy;
pub mod draws;
pub mod metrics;
pub mod multipath;
pub mod netdrive;
pub mod retrieval;
pub mod tha;
pub mod transit;
pub mod tunnel;
pub mod wire;
pub mod world;

pub use adversary::Collusion;
pub use baseline::FixedTunnel;
pub use draws::{Draws, Purpose};
pub use metrics::CoreInstruments;
pub use tha::{Tha, ThaFactory, ThaSecret};
pub use transit::{HintCache, TransitError, TransitReport};
pub use tunnel::{ReplyTunnel, Tunnel};
pub use world::{World, WorldError};
