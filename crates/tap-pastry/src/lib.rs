//! # tap-pastry — the Pastry/PAST substrate
//!
//! TAP is built "relying on the P2P routing infrastructure and replication
//! mechanism" of Pastry and PAST (Rowstron & Druschel, 2001). The paper's
//! implementation sat on FreePastry 1.3; this crate is the equivalent
//! substrate in Rust, scoped to what the evaluation exercises:
//!
//! * **Prefix routing** ([`Overlay::route`], [`TableView`]): each hop
//!   forwards to a node sharing at least one more identifier digit with the
//!   key, reaching the key's *root* (the live node with the numerically
//!   closest nodeid) in `~log_{2^b} N` hops — the constant the paper's
//!   performance analysis (§5) turns on.
//! * **Leaf sets** ([`LeafSetView`]): the `|L|` nodes numerically closest to
//!   each node, maintained eagerly under churn; they make routing's last
//!   hop exact and define replica placement.
//! * **Join, leave, and fail-stop failure** ([`Overlay`]): joins route to
//!   the new id and initialize tables from the nodes met on the way; leaves
//!   and failures trigger leaf-set repair; routing-table entries pointing at
//!   dead nodes are repaired lazily at routing time, as in Pastry.
//! * **k-closest replication** ([`storage::ReplicaStore`]): PAST's
//!   replication manager — every object lives on the `k` nodes closest to
//!   its key, and membership changes migrate replicas so the invariant is
//!   restored. THAs are exactly such objects ("it can be envisioned a small
//!   file stored on the system", §3.1). Which objects were ever handed to a
//!   colluding node is what TAP's adversary analysis needs; a caller that
//!   asks installs an opt-in exposure ledger on the store.
//!
//! The [`Overlay`] is a single-process simulation of the whole network
//! (as the paper's was: "the peer nodes were configured to run in a single
//! Java VM"). An oracle view ([`Overlay::owner_of`], [`Overlay::k_closest`])
//! exists alongside the per-node state; tests assert that decentralized
//! routing agrees with the oracle, which is the correctness property TAP
//! depends on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod leafset;
mod overlay;
mod routing_table;
pub mod secure;
pub mod storage;
pub mod substrate;

pub use config::PastryConfig;
pub use overlay::{
    LeafIds, LeafSetView, NodeView, Overlay, OverlayCheckpoint, RouteError, RouteOutcome, TableView,
};
pub use substrate::{KeyRouter, Snapshots};
