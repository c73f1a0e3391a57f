//! # tap — umbrella crate for the TAP reproduction
//!
//! Re-exports the public API of every workspace crate so that examples and
//! integration tests can write `use tap::...` and downstream users can pull
//! a single dependency.
//!
//! The interesting documentation lives on the member crates:
//!
//! * [`tap_id`] — the 160-bit circular identifier space.
//! * [`tap_crypto`] — from-scratch crypto substrate (SHA-1/256, HMAC,
//!   the ChaCha20-Poly1305 AEAD, layered onion encryption, X25519).
//! * [`tap_netsim`] — deterministic discrete-event network emulator.
//! * [`tap_pastry`] — Pastry routing/location substrate plus the PAST-style
//!   replication manager, and the [`tap_pastry::KeyRouter`] substrate trait.
//! * [`tap_chord`] — a from-scratch Chord implementing the same substrate
//!   trait (the paper's "easily adapted to other systems" claim, proven).
//! * [`tap_core`] — TAP itself: tunnel hop anchors, fault-tolerant
//!   anonymous tunnels and reply tunnels, the IP-hint optimization, the
//!   adversary model, and the fixed-node "current tunneling" baseline as
//!   the relays it draws and its liveness predicate.
//! * [`tap_sim`] — the experiment harness that regenerates Figures 2–6 of
//!   the paper.

#![forbid(unsafe_code)]

pub use tap_chord as chord;
pub use tap_core as core;
pub use tap_crypto as crypto;
pub use tap_id as id;
pub use tap_netsim as netsim;
pub use tap_pastry as pastry;
pub use tap_sim as sim;

pub use tap_id::Id;
