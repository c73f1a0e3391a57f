//! The wire engine seen from outside: what `drive_timed_with_hints` and
//! `send_striped` put on the wire is pinned byte for byte, and the
//! single-path verdict is checked against the logical driver under random
//! fault schedules (ROADMAP item 1). The erasure codec's fragment layout is
//! pinned beside them, check bytes aside.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tap_core::metrics::CoreInstruments;
use tap_core::multipath::{send_striped, MultipathConfig};
use tap_core::netdrive::NetDriver;
use tap_core::tha::{Tha, ThaFactory};
use tap_core::transit::{self, HintCache, TransitError, TransitOptions};
use tap_core::tunnel::{ReplyTunnel, Tunnel};
use tap_core::wire::Destination;
use tap_crypto::ec::{fragment_meta, EcConfig, EcError};
use tap_id::Id;
use tap_metrics::Registry;
use tap_netsim::latency::UniformLatency;
use tap_netsim::{Event, FaultPlan, Network, NetworkConfig};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, PastryConfig};

struct World {
    rng: StdRng,
    overlay: Overlay,
    thas: ReplicaStore<Tha>,
    driver: NetDriver<UniformLatency>,
    registry: Registry,
}

fn world(nodes: usize, seed: u64) -> World {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..nodes {
        overlay.add_random_node(&mut rng);
    }
    let registry = Registry::new();
    let mut net: Network<u64, UniformLatency> =
        Network::new(NetworkConfig::paper_defaults(), UniformLatency::paper(seed));
    net.use_metrics(registry.clone());
    let mut driver = NetDriver::new(net);
    driver.use_instruments(CoreInstruments::new(&registry));
    World {
        rng,
        overlay,
        thas: ReplicaStore::new(3),
        driver,
        registry,
    }
}

fn tunnel(w: &mut World, initiator: Id, l: usize) -> Tunnel {
    let mut factory = ThaFactory::new(&mut w.rng, initiator);
    let mut hops = Vec::with_capacity(l);
    while hops.len() < l {
        let s = factory.next(&mut w.rng);
        if w.thas
            .insert(&w.overlay, s.hopid, s.stored())
            .expect("non-empty overlay")
        {
            hops.push(s);
        }
    }
    Tunnel::new(hops)
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
        .overlay
        .random_node(&mut w.rng)
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
                .overlay
                .random_node(&mut w.rng)
                .expect("non-empty overlay");
            if n != dead {
                break n;
            }
        };
        let t = tunnel(&mut w, initiator, l);
        let mut hints = HintCache::default();
        if hinted {
            hints.refresh(&w.overlay, &t.hop_ids());
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
                    .overlay
                    .random_node(&mut w.rng)
                    .expect("non-empty overlay");
                let onion = t.build_onion(&mut w.rng, Destination::Node(dest), b"to a node", cache);
                (t.entry_hopid(), onion)
            }
            1 => {
                let key = Id::random(&mut w.rng);
                let onion =
                    t.build_onion(&mut w.rng, Destination::KeyRoot(key), b"to a key", cache);
                (t.entry_hopid(), onion)
            }
            _ => {
                let bid = initiator.wrapping_add(Id::from_u64(1));
                let reply = ReplyTunnel::build(&mut w.rng, &t, bid, 96, cache);
                (reply.entry_hopid, reply.onion)
            }
        };
        let from = w
            .overlay
            .random_node(&mut w.rng)
            .expect("non-empty overlay");
        let options = TransitOptions {
            use_hints: hinted,
            retry_budget: 3,
        };
        let result = w.driver.drive_timed_with_hints(
            &mut w.overlay,
            &w.thas,
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
        .overlay
        .random_node(&mut w.rng)
        .expect("non-empty overlay");
    w.driver.kill_node(dead);
    let live = |w: &mut World| loop {
        let n = w
            .overlay
            .random_node(&mut w.rng)
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
            &mut w.overlay,
            &w.thas,
            &mut w.rng,
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
        to_key in any::<bool>(),
    ) {
        let mut w = world(80, seed);
        w.driver.network_mut().install_faults(
            FaultPlan::new(seed).with_loss(loss).with_duplication(duplication),
        );
        let initiator = w.overlay.random_node(&mut w.rng).expect("non-empty overlay");
        let t = tunnel(&mut w, initiator, l);
        let dest = if to_key {
            Destination::KeyRoot(Id::random(&mut w.rng))
        } else {
            Destination::Node(w.overlay.random_node(&mut w.rng).expect("non-empty overlay"))
        };
        let core: Vec<u8> = (0..w.rng.gen_range(1..200usize)).map(|i| i as u8).collect();
        let onion = t.build_onion(&mut w.rng, dest, &core, None);
        let options = TransitOptions { use_hints: false, retry_budget: 8 };

        let mut oracle = w.overlay.clone();
        let logical = transit::drive(&mut oracle, &w.thas, initiator, t.entry_hopid(), onion.clone(), options)
            .expect("a healthy overlay resolves the tunnel");
        let timed = w.driver.drive_timed(
            &mut w.overlay, &w.thas, initiator, t.entry_hopid(), onion, 0, options,
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
