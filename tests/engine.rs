//! The wire engine seen from outside: what `drive_timed_with_hints` and
//! `send_striped` put on the wire is pinned byte for byte, and the
//! single-path verdict is checked against the logical driver under random
//! fault schedules (ROADMAP item 1). The erasure codec's fragment layout is
//! pinned beside them, check bytes aside.

use std::time::Instant;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tap_core::metrics::CoreInstruments;
use tap_core::multipath::{send_striped, MultipathConfig};
use tap_core::netdrive::NetDriver;
use tap_core::retrieval::{retrieve, retrieve_timed, RetrievalContext, StoredFile};
use tap_core::tha::{Tha, ThaFactory, ThaSecret};
use tap_core::transit::{self, Delivery, HintCache, TransitError, TransitOptions, TransitReport};
use tap_core::tunnel::{ReplyTunnel, Tunnel};
use tap_core::wire::{Destination, HopHeader};
use tap_core::World;
use tap_crypto::ec::{fragment_meta, EcConfig, EcError};
use tap_crypto::onion;
use tap_id::Id;
use tap_metrics::{HistogramSnapshot, Registry};
use tap_netsim::latency::UniformLatency;
use tap_netsim::{Event, FaultPlan, Network, NetworkConfig};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{KeyRouter, Overlay, PastryConfig, RouteError};

/// A world with its own wire, recording into its own registry. Endpoints
/// register on first use, so the wire is not [`World::net_driver`]'s.
struct Rig {
    world: World,
    driver: NetDriver<UniformLatency>,
    registry: Registry,
}

fn world(nodes: usize, seed: u64) -> Rig {
    let world = World::build(PastryConfig::paper_defaults(), nodes, seed);
    let registry = Registry::new();
    let mut net: Network<u64, UniformLatency> =
        Network::new(NetworkConfig::paper_defaults(), UniformLatency::paper(seed));
    net.use_metrics(registry.clone());
    let mut driver = NetDriver::new(net);
    driver.use_instruments(CoreInstruments::new(&registry));
    Rig {
        world,
        driver,
        registry,
    }
}

fn tunnel(w: &mut Rig, initiator: Id, l: usize) -> Tunnel {
    Tunnel::new(w.world.fresh_hops(initiator, l).expect("non-empty overlay"))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |d, &b| (d ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Recorded by running this test on the commit before the single-path
/// front moved onto the flow machine (PR 22's tree, blocking `ship()`).
const TRACE_OF_200_TRANSFERS: u64 = 0xf7de_eb73_aadf_2fbf;

/// 200 single-path transfers through one world — l = 3 and 5, hinted and
/// basic, to a node, to a key's root and down a reply tunnel to an
/// anchorless `bid`, with and without a 250 000-byte file alongside, under
/// 10 % loss, 2 % duplication and one relay dead on the wire — leave the
/// deliveries, reports, traffic counters and clock they left before.
#[test]
fn two_hundred_transfers_leave_the_same_trace() {
    let mut w = world(200, 0xe791);
    w.driver
        .network_mut()
        .install_faults(FaultPlan::new(0xe791).with_loss(100).with_duplication(20));
    let dead = w
        .world
        .overlay
        .random_node(&mut w.world.rng)
        .expect("non-empty overlay");
    w.driver.kill_node(dead);

    let mut digest = FNV_OFFSET;
    let (mut delivered, mut anchorless, mut gave_up) = (0, 0, 0);
    for i in 0..200usize {
        let l = [3, 5][i % 2];
        let hinted = (i / 2) % 2 == 1;
        let payload_bytes = [0, 250_000][(i / 12) % 2];
        let initiator = loop {
            let n = w
                .world
                .overlay
                .random_node(&mut w.world.rng)
                .expect("non-empty overlay");
            if n != dead {
                break n;
            }
        };
        let t = tunnel(&mut w, initiator, l);
        let mut hints = HintCache::default();
        if hinted {
            hints.refresh(&w.world.overlay, &t.hop_ids());
            if i % 8 == 2 {
                // A stale hint: the direct attempt at hop 2 must time out,
                // demote and fall back to the hopid.
                hints.record(t.hops()[1].hopid, dead);
            }
        }
        let cache = hinted.then_some(&hints);
        let (entry, onion) = match (i / 4) % 3 {
            0 => {
                let dest = w
                    .world
                    .overlay
                    .random_node(&mut w.world.rng)
                    .expect("non-empty overlay");
                let onion = t.build_onion(
                    &mut w.world.rng,
                    Destination::Node(dest),
                    b"to a node",
                    cache,
                );
                (t.entry_hopid(), onion)
            }
            1 => {
                let key = Id::random(&mut w.world.rng);
                let onion = t.build_onion(
                    &mut w.world.rng,
                    Destination::KeyRoot(key),
                    b"to a key",
                    cache,
                );
                (t.entry_hopid(), onion)
            }
            _ => {
                let bid = initiator.wrapping_add(Id::from_u64(1));
                let reply = ReplyTunnel::build(&mut w.world.rng, &t, bid, 96, cache);
                (reply.entry_hopid, reply.onion)
            }
        };
        let from = w
            .world
            .overlay
            .random_node(&mut w.world.rng)
            .expect("non-empty overlay");
        let options = TransitOptions {
            use_hints: hinted,
            retry_budget: 3,
        };
        let result = w.driver.drive_timed_with_hints(
            &mut w.world.overlay,
            &w.world.thas,
            from,
            entry,
            onion,
            payload_bytes,
            options,
            hinted.then_some(&mut hints),
        );
        match &result {
            Ok((transit::Delivery::ToDestination { .. }, _)) => delivered += 1,
            Ok((transit::Delivery::AtAnchorlessRoot { .. }, _)) => anchorless += 1,
            Err(TransitError::RetriesExhausted { .. }) => gave_up += 1,
            Err(e) => panic!("transfer {i}: {e}"),
        }
        let stats = w.driver.network_mut().stats().clone();
        let line = format!("{result:?} {stats:?} {:?} {}", w.driver.now(), hints.len());
        digest = fnv(digest, line.as_bytes());
    }
    assert!(
        delivered >= 100 && anchorless >= 50,
        "{delivered} + {anchorless}"
    );
    assert!(gave_up >= 1, "the faults never ended a transfer");
    let snap = w.registry.snapshot();
    assert_eq!(snap.counter("core.transit.giveups"), gave_up);
    assert!(snap.counter("core.transit.retries") > 0);
    assert_eq!(digest, TRACE_OF_200_TRANSFERS, "digest {digest:#018x}");
}

/// Both recorded by running these tests on the commit before the fragment
/// check became Poly1305 under a public key (SHA-256 check, copy-out encode).
const TRACE_OF_50_STRIPED_TRANSFERS: u64 = 0xb300_8163_f5f0_0f39;
const FRAGMENT_LAYOUT: u64 = 0xf815_4bf2_03c7_02a7;

/// 50 striped transfers through one world — a full 5/3 code over five
/// tunnels, a degraded (4, 3) over four, and the identity-code fallback over
/// two; payloads of 0, 1, 9 216 and 3·3 072 + 17 bytes; 10 % loss, 2 %
/// duplication and one relay dead on the wire — leave the deliveries,
/// reports, traffic counters and clock they left before. What a fragment
/// carries is sealed inside its onion, so its check bytes move none of this.
#[test]
fn fifty_striped_transfers_leave_the_same_trace() {
    let mut w = world(200, 0x5712);
    w.driver
        .network_mut()
        .install_faults(FaultPlan::new(0x5712).with_loss(100).with_duplication(20));
    let dead = w
        .world
        .overlay
        .random_node(&mut w.world.rng)
        .expect("non-empty overlay");
    w.driver.kill_node(dead);
    let live = |w: &mut Rig| loop {
        let n = w
            .world
            .overlay
            .random_node(&mut w.world.rng)
            .expect("non-empty overlay");
        if n != dead {
            break n;
        }
    };

    let mut digest = FNV_OFFSET;
    let (mut delivered, mut fallbacks, mut failed) = (0, 0, 0);
    for i in 0..50usize {
        let stripes = [5, 4, 2][i % 3];
        let len = [0, 1, 9216, 3 * 3072 + 17][(i / 3) % 4];
        let sent: Vec<u8> = (0..len).map(|j| (j * 131 + i) as u8).collect();
        let initiator = live(&mut w);
        let dest = live(&mut w);
        let tunnels: Vec<Tunnel> = (0..stripes).map(|_| tunnel(&mut w, initiator, 3)).collect();
        let result = send_striped(
            &mut w.driver,
            &mut w.world.overlay,
            &w.world.thas,
            &mut w.world.rng,
            initiator,
            dest,
            &tunnels,
            &sent,
            MultipathConfig::default(),
            TransitOptions {
                use_hints: false,
                retry_budget: 3,
            },
            None,
            None,
        );
        let line = match &result {
            Ok(out) => {
                delivered += 1;
                fallbacks += usize::from(out.stripes_used == 1);
                format!(
                    "{} {} {} {} {:?}",
                    out.payload == sent,
                    out.stripes_used,
                    out.degraded,
                    out.corrupt_fragments,
                    out.report
                )
            }
            Err(e) => {
                failed += 1;
                format!("{e:?}")
            }
        };
        let stats = w.driver.network_mut().stats().clone();
        let line = format!("{line} {stats:?} {:?}", w.driver.now());
        digest = fnv(digest, line.as_bytes());
    }
    assert!(
        delivered >= 30 && fallbacks >= 5,
        "{delivered} delivered, {fallbacks} single-path"
    );
    assert!(failed >= 1, "the faults never ended a transfer");
    assert_eq!(
        digest, TRACE_OF_50_STRIPED_TRANSFERS,
        "digest {digest:#018x}"
    );
}

/// Every fragment of every code in the grid is the bytes it was, bar the
/// four check bytes (15..19, after `n, k, index`, the length and the
/// 8-byte payload digest); and the check covers the whole header and the
/// body: a bit flipped in `n`, the length, the digest or the last byte is
/// caught.
#[test]
fn fragment_layout_is_unchanged() {
    const CHECK: std::ops::Range<usize> = 15..19;
    let mut digest = FNV_OFFSET;
    for (n, k) in [(1, 1), (3, 1), (5, 3), (8, 5)] {
        for chunk in [48, 3072] {
            let code = EcConfig::with_chunk(n, k, chunk).expect("valid code");
            for len in [0usize, 1, 47, 3072, 9217] {
                let payload: Vec<u8> = (0..len).map(|j| (j * 37 + len) as u8).collect();
                let fragments = code.encode(&payload).expect("payload fits a u32");
                assert_eq!(fragments.len(), usize::from(n));
                for mut f in fragments {
                    assert_eq!(f.len(), code.fragment_len(len));
                    assert!(fragment_meta(&f).is_ok());
                    for at in [0, 3, 7, f.len() - 1] {
                        f[at] ^= 1;
                        assert_eq!(fragment_meta(&f), Err(EcError::Corrupt), "byte {at}");
                        f[at] ^= 1;
                    }
                    f[CHECK].fill(0);
                    digest = fnv(digest, &f);
                }
            }
        }
    }
    assert_eq!(digest, FRAGMENT_LAYOUT, "digest {digest:#018x}");
}

/// A tunnel addressed to its own tail: the tail hop's node is the
/// destination, so the delivery leg goes nowhere. Neither driver may count
/// a hop for it, and the logical driver's path may not list the node twice.
#[test]
fn a_tail_that_is_its_destination_costs_no_hop() {
    let mut w = world(100, 5);
    let initiator = w
        .world
        .overlay
        .random_node(&mut w.world.rng)
        .expect("non-empty overlay");
    let t = tunnel(&mut w, initiator, 3);
    let tail = w
        .world
        .overlay
        .owner_of(t.hop_ids()[2])
        .expect("non-empty overlay");
    let onion = t.build_onion(
        &mut w.world.rng,
        Destination::Node(tail),
        b"to the tail",
        None,
    );
    let options = TransitOptions::default();
    let (logical_delivery, logical) = transit::drive(
        &mut w.world.overlay.clone(),
        &w.world.thas,
        initiator,
        t.entry_hopid(),
        onion.clone(),
        options,
    )
    .expect("a healthy overlay resolves the tunnel");
    let (timed_delivery, timed) = w
        .driver
        .drive_timed_with_hints(
            &mut w.world.overlay,
            &w.world.thas,
            initiator,
            t.entry_hopid(),
            onion,
            0,
            options,
            None,
        )
        .expect("a clean wire delivers");
    assert_eq!(logical_delivery, timed_delivery);
    assert_eq!(logical.hops_resolved, 3);
    assert_eq!(logical.overlay_hops, timed.overlay_hops);
    assert_eq!(logical.overlay_hops + 1, logical.node_path.len());
    assert!(
        logical.node_path.windows(2).all(|p| p[0] != p[1]),
        "{:?}",
        logical.node_path
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// With hints off the wire engine and the logical driver resolve the
    /// same tunnel the same way whenever the fault schedule lets the
    /// transfer through, and a transfer ends exactly once either way.
    #[test]
    fn prop_wire_engine_agrees_with_the_logical_driver(
        seed in any::<u64>(),
        l in 1usize..=5,
        loss in 0u32..=300,
        duplication in 0u32..=200,
        dest_kind in 0u8..3,
    ) {
        let mut w = world(80, seed);
        w.driver.network_mut().install_faults(
            FaultPlan::new(seed).with_loss(loss).with_duplication(duplication),
        );
        let initiator = w.world.overlay.random_node(&mut w.world.rng).expect("non-empty overlay");
        let t = tunnel(&mut w, initiator, l);
        let dest = match dest_kind {
            0 => Destination::KeyRoot(Id::random(&mut w.world.rng)),
            1 => Destination::Node(w.world.overlay.random_node(&mut w.world.rng).expect("non-empty overlay")),
            // The tail's own node: a delivery leg of no hops.
            _ => Destination::Node(w.world.overlay.owner_of(t.hop_ids()[l - 1]).expect("non-empty overlay")),
        };
        let core: Vec<u8> = (0..w.world.rng.gen_range(1..200usize)).map(|i| i as u8).collect();
        let onion = t.build_onion(&mut w.world.rng, dest, &core, None);
        let options = TransitOptions { use_hints: false, retry_budget: 8 };

        let mut oracle = w.world.overlay.clone();
        let logical = transit::drive(&mut oracle, &w.world.thas, initiator, t.entry_hopid(), onion.clone(), options)
            .expect("a healthy overlay resolves the tunnel");
        let timed = w.driver.drive_timed_with_hints(
            &mut w.world.overlay, &w.world.thas, initiator, t.entry_hopid(), onion, 0, options,
            None,
        );

        let giveups = w.registry.snapshot().counter("core.transit.giveups");
        match timed {
            Ok((delivery, report)) => {
                prop_assert_eq!(delivery, logical.0);
                prop_assert_eq!(report.hops_resolved, logical.1.hops_resolved);
                prop_assert_eq!(report.overlay_hops, logical.1.overlay_hops);
                prop_assert_eq!(giveups, 0);
            }
            Err(e) => {
                prop_assert!(matches!(e, TransitError::RetriesExhausted { .. }), "{e}");
                prop_assert_eq!(giveups, 1);
            }
        }
        // Nothing the transfer armed outlives it.
        let mut stray_timers = 0;
        w.driver.network_mut().run_until_quiet(|_, ev| {
            if matches!(ev, Event::Timer { .. }) {
                stray_timers += 1;
            }
        });
        prop_assert_eq!(stray_timers, 0);
        let lag = w.registry.snapshot().histogram("netsim.timer_lag_us").map_or(0, |h| h.max);
        prop_assert_eq!(lag, 0);
    }
}

/// What a registry holds that the host's clock does not move: every
/// counter, every journaled event and every histogram, bar the two
/// wall-clock onion timings, of which only the sample count is kept.
fn telemetry(registry: &Registry) -> String {
    let mut snap = registry.snapshot();
    for wall in ["core.onion.peel_us", "core.onion.wrap_us"] {
        if let Some(h) = snap.histograms.get_mut(wall) {
            *h = HistogramSnapshot {
                count: h.count,
                ..HistogramSnapshot::default()
            };
        }
    }
    format!("{snap:?}")
}

fn live_node(w: &mut Rig) -> Id {
    w.world
        .overlay
        .random_node(&mut w.world.rng)
        .expect("non-empty overlay")
}

/// Both recorded by running these tests on the commit before the logical
/// driver became a front over the flow machine, with the tail-hop fix of
/// `a_tail_that_is_its_destination_costs_no_hop` already in. The first
/// digests every counter by name; it was re-recorded when the always-zero
/// `core.tha.re_replications` counter left the registry, and equals the
/// old trace with that one key dropped from each counter map.
const TRACE_OF_300_LOGICAL_TRANSFERS: u64 = 0xa9f7_1062_7b0a_639d;
const TRACE_OF_80_RETRIEVALS: u64 = 0x6f66_4bfb_9460_9f73;

/// 300 `drive_instrumented` transfers through one 200-node world whose
/// nodes leave between batches without telling the THA store (so replica
/// candidates take hops over, and whole THAs go missing) — l = 1..=5;
/// unhinted, and hinted with fresh hints, hints at a live node that is not
/// the root and hints at a departed node; to a node, to the tail's own
/// node, to a departed node, to a key's root and down a reply tunnel to
/// `bid`; one onion in ten tampered with — return what they returned
/// before and leave the same counters, route lengths, peel count and
/// takeover journal.
#[test]
fn three_hundred_logical_transfers_leave_the_same_trace() {
    let mut w = world(200, 0x7a05);
    w.world.overlay.use_metrics(w.registry.clone());
    w.registry.install_journal(1 << 12);
    let ins = CoreInstruments::new(&w.registry);
    let mut tunnels: Vec<Tunnel> = Vec::new();
    let mut departed: Vec<Id> = Vec::new();
    let mut digest = FNV_OFFSET;
    let mut outcomes = std::collections::BTreeMap::<&str, usize>::new();
    for i in 0..300usize {
        if i % 30 == 29 {
            // A batch ends: four nodes and every holder of one hop leave.
            let mut leaving: Vec<Id> = (0..4).map(|_| live_node(&mut w)).collect();
            let victim = &tunnels[w.world.rng.gen_range(0..tunnels.len())];
            leaving.extend_from_slice(w.world.thas.holders(victim.entry_hopid()));
            for n in leaving {
                if w.world.overlay.remove_node(n) {
                    departed.push(n);
                }
            }
        }
        let l = 1 + i % 5;
        let initiator = live_node(&mut w);
        // Every third transfer reuses a tunnel that may predate departures.
        let t = if i % 3 == 2 {
            tunnels[w.world.rng.gen_range(0..tunnels.len())].clone()
        } else {
            let t = tunnel(&mut w, initiator, l);
            tunnels.push(t.clone());
            t
        };
        let last = t.hop_ids()[t.len() - 1];
        let mut hints = HintCache::default();
        let hint_mode = (i / 5) % 4;
        if hint_mode > 0 {
            hints.refresh(&w.world.overlay, &t.hop_ids());
            let hop = t.hop_ids()[i % t.len()];
            match hint_mode {
                2 => hints.record(hop, live_node(&mut w)),
                3 if !departed.is_empty() => {
                    hints.record(hop, departed[i % departed.len()]);
                }
                _ => {}
            }
        }
        let cache = (hint_mode > 0).then_some(&hints);
        let core = vec![i as u8; i % 40];
        let dest = match w.world.rng.gen_range(0..5u8) {
            0 => Some(Destination::Node(live_node(&mut w))),
            1 => Some(Destination::Node(
                w.world.overlay.owner_of(last).expect("non-empty overlay"),
            )),
            2 if !departed.is_empty() => Some(Destination::Node(departed[i % departed.len()])),
            3 => Some(Destination::KeyRoot(Id::random(&mut w.world.rng))),
            _ => None,
        };
        let (from, entry, mut onion) = match dest {
            Some(dest) => {
                let onion = t.build_onion(&mut w.world.rng, dest, &core, cache);
                (initiator, t.entry_hopid(), onion)
            }
            None => {
                let bid = initiator.wrapping_add(Id::from_u64(1));
                let reply = ReplyTunnel::build(&mut w.world.rng, &t, bid, 96, cache);
                (live_node(&mut w), reply.entry_hopid, reply.onion)
            }
        };
        if i % 10 == 7 {
            let at = (i * 7) % onion.len();
            onion[at] ^= 0x40;
        }
        let options = TransitOptions {
            use_hints: hint_mode > 0,
            retry_budget: 0,
        };
        let result = transit::drive_instrumented(
            &mut w.world.overlay,
            &w.world.thas,
            from,
            entry,
            onion,
            options,
            Some(&ins),
        );
        let outcome = match &result {
            Ok((Delivery::ToDestination { .. }, _)) => "delivered",
            Ok((Delivery::AtAnchorlessRoot { .. }, _)) => "anchorless",
            Err(TransitError::ThaLost { .. }) => "tha_lost",
            Err(TransitError::BadLayer { .. }) => "bad_layer",
            Err(TransitError::DeadDestination { .. }) => "dead_destination",
            Err(e) => panic!("transfer {i}: {e}"),
        };
        *outcomes.entry(outcome).or_default() += 1;
        let counters = w.registry.snapshot().counters;
        digest = fnv(digest, format!("{result:?} {counters:?}").as_bytes());
    }
    digest = fnv(digest, telemetry(&w.registry).as_bytes());
    let snap = w.registry.snapshot();
    for (outcome, at_least) in [
        ("delivered", 120),
        ("anchorless", 30),
        ("tha_lost", 5),
        ("bad_layer", 15),
        ("dead_destination", 5),
    ] {
        assert!(outcomes.get(outcome) >= Some(&at_least), "{outcomes:?}");
    }
    assert!(snap.counter("core.tha.takeovers") > 0);
    assert!(snap.counter("core.transit.retries") > 0);
    assert_eq!(
        digest, TRACE_OF_300_LOGICAL_TRANSFERS,
        "digest {digest:#018x}"
    );
}

/// 40 `retrieve` and 40 `retrieve_timed` calls through one world whose
/// nodes leave between batches (the file store is told, the THA store is
/// not), hinted and basic, over 5 % loss, return the same files and
/// reports and leave the caller's RNG where they left it.
#[test]
fn forty_retrievals_a_side_leave_the_same_trace() {
    let mut w = world(150, 0x4e7);
    w.driver
        .network_mut()
        .install_faults(FaultPlan::new(0x4e7).with_loss(50));
    let ins = CoreInstruments::new(&w.registry);
    let mut files: ReplicaStore<StoredFile> = ReplicaStore::new(3);
    let fids: Vec<Id> = [0usize, 1, 100, 3000]
        .iter()
        .map(|&len| {
            let fid = Id::random(&mut w.world.rng);
            let data = (0..len).map(|j| (j * 31 + len) as u8).collect();
            files
                .insert(&w.world.overlay, fid, StoredFile { data })
                .expect("non-empty overlay");
            fid
        })
        .collect();
    let mut digest = FNV_OFFSET;
    let mut delivered = 0;
    for i in 0..80usize {
        if i % 20 == 19 {
            for _ in 0..3 {
                let n = live_node(&mut w);
                w.world.overlay.remove_node(n);
                files.on_node_removed(&w.world.overlay, n);
            }
        }
        let initiator = live_node(&mut w);
        let fwd = tunnel(&mut w, initiator, 1 + i % 3);
        let rev = tunnel(&mut w, initiator, 1 + (i / 3) % 3);
        let bid = initiator.wrapping_add(Id::from_u64(1));
        let fid = fids[(i / 2) % fids.len()];
        let hinted = (i / 8) % 2 == 1;
        let mut hints = HintCache::default();
        if hinted {
            hints.refresh(&w.world.overlay, &fwd.hop_ids());
            hints.refresh(&w.world.overlay, &rev.hop_ids());
        }
        let options = TransitOptions {
            use_hints: hinted,
            retry_budget: 2,
        };
        let mut ctx = RetrievalContext {
            overlay: &mut w.world.overlay,
            thas: &w.world.thas,
            files: &files,
            metrics: Some(&ins),
        };
        let outcome = if i % 2 == 0 {
            retrieve(
                &mut w.world.rng,
                &mut ctx,
                initiator,
                fid,
                &fwd,
                &rev,
                bid,
                hinted.then_some(&hints),
                options,
            )
            .map(|(file, r)| {
                (
                    file,
                    format!("{:?} {:?} {}", r.forward, r.reply, r.reply_bytes),
                )
            })
        } else {
            retrieve_timed(
                &mut w.world.rng,
                &mut ctx,
                &mut w.driver,
                initiator,
                fid,
                &fwd,
                &rev,
                bid,
                hinted.then_some(&mut hints),
                options,
            )
            .map(|(file, r)| {
                (
                    file,
                    format!("{:?} {:?} {}", r.forward, r.reply, r.reply_bytes),
                )
            })
        };
        let line = match outcome {
            Ok((file, report)) => {
                delivered += 1;
                digest = fnv(digest, &file);
                report
            }
            Err(e) => format!("{e:?}"),
        };
        let line = format!("{line} {} {}", hints.len(), w.world.rng.gen::<u64>());
        digest = fnv(digest, line.as_bytes());
    }
    assert!(delivered >= 50, "{delivered} of 80 delivered");
    assert_eq!(digest, TRACE_OF_80_RETRIEVALS, "digest {digest:#018x}");
}

/// The logical driver as it was before it became a front over the flow
/// machine — its own hop loop and `self_route`, copied verbatim through the
/// public API (with the tail-hop fix) — kept as the differential oracle.
#[allow(clippy::too_many_arguments)]
fn old_drive_instrumented(
    overlay: &mut impl KeyRouter,
    thas: &ReplicaStore<Tha>,
    from: Id,
    entry_hop: Id,
    onion_bytes: Vec<u8>,
    options: TransitOptions,
    instruments: Option<&CoreInstruments>,
) -> Result<(Delivery, TransitReport), TransitError> {
    let mut report = TransitReport {
        node_path: vec![from],
        ..TransitReport::default()
    };
    let mut current_node = from;
    let mut hop = entry_hop;
    let mut hint: Option<Id> = None;
    // One buffer for the whole traversal: each hop's peel is a single
    // in-place cipher pass, the header a borrowed view.
    let mut onion = onion::LayerBuf::from_vec(onion_bytes);

    loop {
        // Resolve the hopid to the node currently serving it.
        let root = overlay.owner_of(hop).ok_or(RouteError::EmptyOverlay)?;

        let Some(record) = thas.get(hop) else {
            // No THA was ever anchored here: this is a terminal identifier
            // (a reply tunnel's bid). Route the message to its root.
            old_self_route(
                overlay,
                current_node,
                hop,
                root,
                hint,
                &mut report,
                options,
                instruments,
            )?;
            return Ok((
                Delivery::AtAnchorlessRoot {
                    node: root,
                    residue: onion.into_vec(),
                },
                report,
            ));
        };

        // Fault-tolerance check: the root serves the hop only if it holds
        // a replica. If every holder failed simultaneously, the THA — and
        // with it the tunnel — is lost (no repair has run yet).
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

        old_self_route(
            overlay,
            current_node,
            hop,
            root,
            hint,
            &mut report,
            options,
            instruments,
        )?;
        current_node = root;

        // The hop node peels one layer with its replica's key, in place.
        let peel_started = instruments.map(|_| Instant::now());
        let header_bytes = onion
            .peel(&record.value.key)
            .map_err(|_| TransitError::BadLayer { hopid: hop })?;
        if let (Some(ins), Some(t0)) = (instruments, peel_started) {
            ins.onion_peel_us.record(t0.elapsed().as_micros() as u64);
        }
        let header =
            HopHeader::decode(header_bytes).map_err(|_| TransitError::BadLayer { hopid: hop })?;
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
                let node = match dest {
                    Destination::Node(n) => {
                        if !overlay.is_live(n) {
                            return Err(TransitError::DeadDestination { node: n });
                        }
                        // Tail relays directly to D (one logical hop),
                        // unless the tail is D.
                        if n != current_node {
                            report.overlay_hops += 1;
                            report.node_path.push(n);
                        }
                        n
                    }
                    Destination::KeyRoot(key) => {
                        let path = overlay.route_path(current_node, key)?;
                        // Routers return at least the start node; a router
                        // that violates that mid-churn is a routing fault,
                        // not a reason to take the process down.
                        let Some(&root) = path.last() else {
                            return Err(RouteError::EmptyOverlay.into());
                        };
                        report.overlay_hops += path.len() - 1;
                        report.node_path.extend(path.into_iter().skip(1));
                        root
                    }
                };
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

/// Move from `current` to the root of `hop` (already resolved by the
/// caller), preferring a fresh hint.
#[allow(clippy::too_many_arguments)]
fn old_self_route(
    overlay: &mut impl KeyRouter,
    current: Id,
    hop: Id,
    root: Id,
    hint: Option<Id>,
    report: &mut TransitReport,
    options: TransitOptions,
    instruments: Option<&CoreInstruments>,
) -> Result<(), TransitError> {
    if options.use_hints {
        if let Some(h) = hint {
            // "It first tries the IP address; if it fails, then routes the
            // message to the tunnel hop node corresponding to the hopid."
            // A hint is good when the node is alive *and* still the root.
            if overlay.is_live(h) && root == h {
                report.hint_hits += 1;
                if h != current {
                    report.overlay_hops += 1;
                    report.node_path.push(h);
                }
                return Ok(());
            }
            report.hint_misses += 1;
            if let Some(ins) = instruments {
                ins.transit_retries.inc();
            }
        }
    }
    let path = overlay.route_path(current, hop)?;
    report.overlay_hops += path.len().saturating_sub(1);
    report.node_path.extend(path.into_iter().skip(1));
    Ok(())
}

/// One random world driven through the logical front and through the old
/// driver, each on its own copy of the overlay recording into its own
/// registry: 20–160 nodes, k = 1..=3, l = 1..=5, up to N/4 nodes gone
/// without the THA store being told; hints off, fresh, at a live non-root
/// or at a departed node; to a node, the tail's own node, a departed node,
/// a key's root or down a reply tunnel to `bid`; one onion in ten tampered
/// with. Both must return the same thing, leave the same telemetry and
/// leave routing state that routes a probe the same way.
fn logical_front_matches_old_driver(seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (n, k, l) = (
        rng.gen_range(20..=160usize),
        rng.gen_range(1..=3usize),
        rng.gen_range(1..=5usize),
    );
    let mut overlay = Overlay::new(PastryConfig::with_replication(k));
    for _ in 0..n {
        overlay.add_random_node(&mut rng);
    }
    let mut thas: ReplicaStore<Tha> = ReplicaStore::new(k);
    let initiator = overlay.random_node(&mut rng).expect("non-empty overlay");
    let mut factory = ThaFactory::new(&mut rng, initiator);
    let mut hops: Vec<ThaSecret> = Vec::with_capacity(l);
    while hops.len() < l {
        let s = match hops.last() {
            // Now and then a hop anchored right beside the one before it:
            // both share a root, so a good hint names the node the onion
            // is already on.
            Some(prev) if rng.gen_range(0..3u8) == 0 => ThaSecret {
                hopid: prev.hopid.wrapping_add(Id::from_u64(1)),
                ..factory.next(&mut rng)
            },
            _ => factory.next(&mut rng),
        };
        if thas
            .insert(&overlay, s.hopid, s.stored())
            .expect("non-empty overlay")
        {
            hops.push(s);
        }
    }
    let t = Tunnel::new(hops);
    let mut hints = HintCache::default();
    hints.refresh(&overlay, &t.hop_ids());
    let mut departed = Vec::new();
    for _ in 0..rng.gen_range(0..=n / 4) {
        let gone = overlay.random_node(&mut rng).expect("non-empty overlay");
        overlay.remove_node(gone);
        departed.push(gone);
    }
    let live = |rng: &mut StdRng, overlay: &Overlay| overlay.random_node(rng).expect("non-empty");
    let hint_mode = rng.gen_range(0..4u8);
    match hint_mode {
        1 => hints.refresh(&overlay, &t.hop_ids()),
        2 => hints.record(t.hop_ids()[rng.gen_range(0..l)], live(&mut rng, &overlay)),
        _ => {}
    }
    let cache = (hint_mode > 0).then_some(&hints);
    let from = live(&mut rng, &overlay);
    let dest = match rng.gen_range(0..5u8) {
        0 => Some(Destination::Node(live(&mut rng, &overlay))),
        1 => Some(Destination::Node(
            overlay.owner_of(t.hop_ids()[l - 1]).expect("non-empty"),
        )),
        2 if !departed.is_empty() => Some(Destination::Node(
            departed[rng.gen_range(0..departed.len())],
        )),
        3 => Some(Destination::KeyRoot(Id::random(&mut rng))),
        _ => None,
    };
    let (entry, mut onion) = match dest {
        Some(dest) => (
            t.entry_hopid(),
            t.build_onion(&mut rng, dest, b"core", cache),
        ),
        None => {
            let bid = initiator.wrapping_add(Id::from_u64(1));
            let reply = ReplyTunnel::build(&mut rng, &t, bid, 48, cache);
            (reply.entry_hopid, reply.onion)
        }
    };
    if rng.gen_range(0..10u8) == 0 {
        let at = rng.gen_range(0..onion.len());
        onion[at] ^= 1 << rng.gen_range(0..8u8);
    }
    let options = TransitOptions {
        use_hints: rng.gen_range(0..4u8) > 0,
        retry_budget: 0,
    };
    let probe = (live(&mut rng, &overlay), Id::random(&mut rng));

    let run = |old: bool| {
        let registry = Registry::new();
        registry.install_journal(256);
        let ins = CoreInstruments::new(&registry);
        let mut overlay = overlay.clone();
        overlay.use_metrics(registry.clone());
        let onion = onion.clone();
        let result = if old {
            old_drive_instrumented(&mut overlay, &thas, from, entry, onion, options, Some(&ins))
        } else {
            transit::drive_instrumented(
                &mut overlay,
                &thas,
                from,
                entry,
                onion,
                options,
                Some(&ins),
            )
        };
        let probe = overlay.route_path(probe.0, probe.1);
        (result, telemetry(&registry), probe)
    };
    let (old, new) = (run(true), run(false));
    prop_assert_eq!(&new.0, &old.0, "result");
    prop_assert_eq!(&new.1, &old.1, "telemetry");
    prop_assert_eq!(&new.2, &old.2, "probe route");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn prop_logical_front_agrees_with_the_old_driver(seed in any::<u64>()) {
        logical_front_matches_old_driver(seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]
    /// The same differential at CI scale (release, `--ignored`).
    #[test]
    #[ignore]
    fn prop_logical_front_agrees_with_the_old_driver_4000_cases(seed in any::<u64>()) {
        logical_front_matches_old_driver(seed)?;
    }
}
