//! Chaos harness — retrieve-file workloads on a misbehaving wire.
//!
//! The acceptance bar for the fault-injection layer: under 10% per-link
//! loss, one partition/heal cycle, and a scheduled crash-restart window,
//! a batch of §4 anonymous retrievals must complete with **zero panics**,
//! every non-delivery accounted as a clean give-up in `tap-metrics`
//! (bounded, no livelock), and the whole run byte-reproducible from its
//! seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tap_core::metrics::CoreInstruments;
use tap_core::multipath::{form_disjoint_tunnels, send_striped, MultipathConfig};
use tap_core::netdrive::NetDriver;
use tap_core::retrieval::{self, RetrievalContext, RetrievalError, StoredFile};
use tap_core::tha::{Tha, ThaFactory};
use tap_core::transit::{HintCache, TransitError, TransitOptions};
use tap_core::tunnel::Tunnel;
use tap_id::Id;
use tap_metrics::Registry;
use tap_netsim::latency::UniformLatency;
use tap_netsim::{EndpointId, FaultPlan, Network, NetworkConfig, SimDuration, SimTime};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, PastryConfig};

const NODES: usize = 300;
const TRANSFERS: usize = 30;
const LOSS_PERMILLE: u32 = 100; // the acceptance criterion's 10%
const RETRY_BUDGET: u32 = 6;

/// The per-run outcome a chaos run is judged (and replayed) on.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ChaosOutcome {
    /// Per-transfer delivery pattern, in workload order.
    delivered: Vec<bool>,
    retries: u64,
    giveups: u64,
    losses: u64,
    partition_drops: u64,
    crashes: u64,
    restarts: u64,
}

fn run_chaos(seed: u64) -> ChaosOutcome {
    let registry = Registry::new();
    registry.install_journal(512);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    overlay.use_metrics(registry.clone());
    let mut net: Network<u64, UniformLatency> = Network::new(
        NetworkConfig::paper_defaults(),
        UniformLatency::paper(seed ^ 0xc4a0),
    );
    net.use_metrics(registry.clone());
    let mut driver = NetDriver::new(net);
    driver.use_instruments(CoreInstruments::new(&registry));

    let mut eps: Vec<EndpointId> = Vec::with_capacity(NODES);
    for _ in 0..NODES {
        let id = overlay.add_random_node(&mut rng);
        eps.push(driver.register(id));
    }
    let mut thas: ReplicaStore<Tha> = ReplicaStore::new(3);
    thas.use_metrics(registry.clone());
    let mut files: ReplicaStore<StoredFile> = ReplicaStore::new(3);
    files.use_metrics(registry.clone());

    // 10% loss plus a *scheduled* crash-restart window: every 40th
    // endpoint drops off the wire between t = 20 s and t = 120 s of
    // virtual time (the overlay keeps believing them live).
    let mut plan = FaultPlan::new(seed).with_loss(LOSS_PERMILLE);
    for ep in eps.iter().copied().step_by(40) {
        plan = plan
            .with_crash(ep, SimTime::ZERO + SimDuration::from_millis(20_000))
            .with_restart(ep, SimTime::ZERO + SimDuration::from_millis(120_000));
    }
    driver.network_mut().install_faults(plan);

    // One partition/heal cycle across the middle third of the workload,
    // cutting every 25th endpoint off from the rest.
    let cut_a: Vec<EndpointId> = eps.iter().copied().step_by(25).collect();
    let cut_b: Vec<EndpointId> = eps
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 25 != 0)
        .map(|(_, e)| *e)
        .collect();

    let mut delivered = Vec::with_capacity(TRANSFERS);
    for t in 0..TRANSFERS {
        if t == TRANSFERS / 3 {
            driver.network_mut().partition("chaos-cut", &cut_a, &cut_b);
        }
        if t == 2 * TRANSFERS / 3 {
            assert!(driver.network_mut().heal("chaos-cut"));
        }
        delivered.push(one_retrieval(
            &mut rng,
            &mut overlay,
            &mut thas,
            &mut files,
            &mut driver,
        ));
    }

    let snap = registry.snapshot();
    ChaosOutcome {
        delivered,
        retries: snap.counter("core.transit.retries"),
        giveups: snap.counter("core.transit.giveups"),
        losses: snap.counter("netsim.fault.losses"),
        partition_drops: snap.counter("netsim.fault.partition_drops"),
        crashes: snap.counter("netsim.fault.crashes"),
        restarts: snap.counter("netsim.fault.restarts"),
    }
}

/// One full §4 retrieve-file exchange over the wire; true iff the file
/// came back intact. Any failure mode other than a clean retry-exhaustion
/// is a harness bug and panics.
fn one_retrieval(
    rng: &mut StdRng,
    overlay: &mut Overlay,
    thas: &mut ReplicaStore<Tha>,
    files: &mut ReplicaStore<StoredFile>,
    driver: &mut NetDriver<UniformLatency>,
) -> bool {
    let initiator = overlay.random_node(rng).expect("non-empty overlay");
    let mut factory = ThaFactory::new(rng, initiator);
    let mut build_tunnel = |thas: &mut ReplicaStore<Tha>, rng: &mut StdRng| {
        let mut hops = Vec::with_capacity(3);
        while hops.len() < 3 {
            let s = factory.next(rng);
            if thas
                .insert(overlay, s.hopid, s.stored())
                .expect("overlay never empties")
            {
                hops.push(s);
            }
        }
        Tunnel::new(hops)
    };
    let fwd = build_tunnel(thas, rng);
    let rev = build_tunnel(thas, rng);

    let payload = b"chaos-proof file contents".to_vec();
    let fid = Id::random(rng);
    files
        .insert(
            overlay,
            fid,
            StoredFile {
                data: payload.clone(),
            },
        )
        .expect("overlay never empties");
    let bid = initiator.wrapping_add(Id::from_u64(1));

    let mut hints = HintCache::default();
    hints.refresh(overlay, &fwd.hop_ids());
    hints.refresh(overlay, &rev.hop_ids());

    let outcome = {
        let mut ctx = RetrievalContext {
            overlay,
            thas,
            files,
            metrics: None,
        };
        retrieval::retrieve_timed(
            rng,
            &mut ctx,
            driver,
            initiator,
            fid,
            &fwd,
            &rev,
            bid,
            Some(&mut hints),
            TransitOptions {
                use_hints: true,
                retry_budget: RETRY_BUDGET,
            },
        )
    };

    for hopid in fwd.hop_ids().into_iter().chain(rev.hop_ids()) {
        thas.remove(hopid);
    }
    files.remove(fid);

    match outcome {
        Ok((file, _)) => {
            assert_eq!(file, payload, "a delivered file must be intact");
            true
        }
        Err(RetrievalError::Forward(TransitError::RetriesExhausted { .. }))
        | Err(RetrievalError::Reply(TransitError::RetriesExhausted { .. })) => false,
        Err(e) => panic!("chaos must degrade gracefully, got: {e}"),
    }
}

#[test]
fn retrievals_degrade_gracefully_under_chaos() {
    let outcome = run_chaos(0xc4a05);
    let ok = outcome.delivered.iter().filter(|d| **d).count();

    // The faults actually happened: messages were lost, the cut dropped
    // traffic, and the schedule fired both ways.
    assert!(outcome.losses > 0, "loss injection never fired");
    assert!(outcome.crashes > 0, "crash schedule never fired");
    assert_eq!(outcome.crashes, outcome.restarts, "every crash healed");

    // Graceful degradation: the retry shim keeps the majority of
    // retrievals alive, and every non-delivery is a *bounded, accounted*
    // give-up — not a hang, not a panic.
    assert!(outcome.retries > 0, "10% loss must force resends");
    assert!(
        ok * 2 > TRANSFERS,
        "most retrievals must survive: {ok}/{TRANSFERS}"
    );
    let failed = (TRANSFERS - ok) as u64;
    assert!(
        outcome.giveups >= failed,
        "each failed retrieval ends in a recorded give-up"
    );
    // Forward giveup + reply giveup per transfer is the ceiling.
    assert!(
        outcome.giveups <= 2 * outcome.delivered.len() as u64,
        "give-ups are bounded by the workload size"
    );
}

#[test]
fn chaos_replays_byte_identically_from_its_seed() {
    let a = run_chaos(7);
    let b = run_chaos(7);
    assert_eq!(a, b, "same seed, same chaos, same outcome");
    let c = run_chaos(8);
    assert_ne!(
        a.losses, c.losses,
        "a different seed draws a different fault stream"
    );
}

/// The per-run outcome of the multipath chaos scenario, for seed replay.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MpChaosOutcome {
    payload_intact: bool,
    stripes_delivered: usize,
    stripes_failed: usize,
    laggards_cancelled: usize,
    corrupt_fragments: usize,
    stripe_giveups: u64,
    transfer_giveups: u64,
    losses: u64,
    crashes: u64,
    timer_lag_max_us: u64,
}

/// One erasure-coded 5/3 multipath transfer under 10% per-link loss, with
/// the wire bisecting the stripe set *mid-transfer*: every endpoint
/// serving a tunnel hop of stripes 0 and 1 crashes 100 ms (virtual) after
/// the fragments launch — while they are in flight — severing two of the
/// five disjoint tunnels from the rest of the network.
fn run_mp_chaos(seed: u64) -> MpChaosOutcome {
    let registry = Registry::new();
    registry.install_journal(256);
    let mut rng = StdRng::seed_from_u64(seed);

    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    overlay.use_metrics(registry.clone());
    let mut net: Network<u64, UniformLatency> = Network::new(
        NetworkConfig::paper_defaults(),
        UniformLatency::paper(seed ^ 0x3a9),
    );
    net.use_metrics(registry.clone());
    let mut driver = NetDriver::new(net);
    driver.use_instruments(CoreInstruments::new(&registry));

    let mut ep_of = std::collections::HashMap::new();
    for _ in 0..NODES {
        let id = overlay.add_random_node(&mut rng);
        ep_of.insert(id, driver.register(id));
    }
    let mut thas: ReplicaStore<Tha> = ReplicaStore::new(3);
    thas.use_metrics(registry.clone());

    let initiator = overlay.random_node(&mut rng).expect("non-empty overlay");
    let mut factory = ThaFactory::new(&mut rng, initiator);
    let mut pool = Vec::new();
    while pool.len() < 30 {
        let s = factory.next(&mut rng);
        if thas
            .insert(&overlay, s.hopid, s.stored())
            .expect("overlay never empties")
        {
            pool.push(s);
        }
    }
    let tunnels = form_disjoint_tunnels(&mut rng, &pool, 5, 3, 4);
    assert_eq!(tunnels.len(), 5, "the pool supports a full stripe set");

    // 10% loss everywhere, plus the mid-transfer bisection: the serving
    // endpoints of stripes 0 and 1 drop off the wire at t = 100 ms, when
    // their fragments are in flight, and come back long after the
    // surviving stripes have decided the transfer.
    let mut plan = FaultPlan::new(seed).with_loss(LOSS_PERMILLE);
    for t in &tunnels[..2] {
        for hopid in t.hop_ids() {
            let root = overlay.owner_of(hopid).expect("non-empty overlay");
            let ep = ep_of[&root];
            plan = plan
                .with_crash(ep, SimTime::ZERO + SimDuration::from_millis(100))
                .with_restart(ep, SimTime::ZERO + SimDuration::from_millis(600_000));
        }
    }
    driver.network_mut().install_faults(plan);

    let mut hints = HintCache::default();
    let hop_ids: Vec<Id> = tunnels.iter().flat_map(|t| t.hop_ids()).collect();
    hints.refresh(&overlay, &hop_ids);
    let dest = loop {
        let d = overlay.random_node(&mut rng).expect("non-empty overlay");
        if d != initiator {
            break d;
        }
    };
    let payload: Vec<u8> = (0..9216).map(|i| (i * 131 + 7) as u8).collect();

    let out = send_striped(
        &mut driver,
        &mut overlay,
        &thas,
        &mut rng,
        initiator,
        dest,
        &tunnels,
        &payload,
        MultipathConfig::default(),
        TransitOptions {
            use_hints: true,
            retry_budget: RETRY_BUDGET,
        },
        Some(&mut hints),
        Some(&CoreInstruments::new(&registry)),
    )
    .expect("the surviving stripes must carry the transfer");

    // Drain whatever the laggard stripes left on the wire: their cancelled
    // watchdogs must never fire, so `netsim.timer_lag_us` stays clean.
    while driver.network_mut().next_event().is_some() {}

    let snap = registry.snapshot();
    MpChaosOutcome {
        payload_intact: out.payload == payload,
        stripes_delivered: out.report.stripes_delivered,
        stripes_failed: out.report.stripes_failed,
        laggards_cancelled: out.report.laggards_cancelled,
        corrupt_fragments: out.corrupt_fragments,
        stripe_giveups: snap.counter("core.mp.stripe_giveups"),
        transfer_giveups: snap.counter("core.transit.giveups"),
        losses: snap.counter("netsim.fault.losses"),
        crashes: snap.counter("netsim.fault.crashes"),
        timer_lag_max_us: snap.histogram("netsim.timer_lag_us").map_or(0, |h| h.max),
    }
}

#[test]
fn multipath_transfer_survives_a_mid_transfer_stripe_bisection() {
    let o = run_mp_chaos(0x5713);

    // The bisection actually fired, mid-flight, and severed both stripes.
    assert!(o.crashes > 0, "the bisection window never fired");
    assert!(o.losses > 0, "loss injection never fired");

    // Delivery came from the surviving k: the payload reconstructed
    // byte-identically from exactly `k` fragments, while the two bisected
    // stripes ended as clean failures or cancelled laggards — never as a
    // transfer give-up, never as a panic.
    assert!(o.payload_intact, "reconstruction must be byte-identical");
    assert_eq!(o.stripes_delivered, 3, "exactly k fragments decide it");
    assert_eq!(o.corrupt_fragments, 0);
    assert_eq!(
        o.stripes_failed + o.laggards_cancelled,
        2,
        "both bisected stripes must be accounted: {o:?}"
    );
    assert_eq!(o.stripe_giveups, o.stripes_failed as u64);
    assert_eq!(o.transfer_giveups, 0, "the transfer itself succeeded");

    // Satellite invariant: cancelled laggard watchdogs never surface, so
    // the timer-lag histogram stays at zero through the post-run drain.
    assert_eq!(o.timer_lag_max_us, 0, "spent timers must not fire late");
}

#[test]
fn multipath_chaos_replays_byte_identically_from_its_seed() {
    let a = run_mp_chaos(0x5713);
    let b = run_mp_chaos(0x5713);
    assert_eq!(a, b, "same seed, same bisection, same outcome");
}

#[test]
fn partitioned_endpoints_cannot_be_reached_until_heal() {
    // A focused check that the cut severs live traffic both ways and heal
    // restores it, at the KeyRouter level the retrievals depend on.
    let registry = Registry::new();
    let mut rng = StdRng::seed_from_u64(42);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    let net: Network<u64, UniformLatency> =
        Network::new(NetworkConfig::paper_defaults(), UniformLatency::paper(42));
    let mut driver = NetDriver::new(net);
    driver.use_instruments(CoreInstruments::new(&registry));

    let a = overlay.add_random_node(&mut rng);
    let b = overlay.add_random_node(&mut rng);
    let ea = driver.register(a);
    let eb = driver.register(b);

    // Sanity: reachable before the cut.
    let hopid = Id::random(&mut rng);
    let thas: ReplicaStore<Tha> = ReplicaStore::new(3);
    let opts = TransitOptions {
        retry_budget: 1,
        ..TransitOptions::default()
    };
    let pre =
        driver.drive_timed_with_hints(&mut overlay, &thas, b, hopid, vec![0u8; 64], 0, opts, None);
    assert!(pre.is_ok(), "clean wire must deliver");

    driver.network_mut().partition("ab", &[ea], &[eb]);
    // Route from whichever node does NOT own hopid, so the traversal must
    // cross the (now severed) a—b link.
    let root = overlay.owner_of(hopid).unwrap();
    let from = if root == a { b } else { a };
    let cut = driver.drive_timed_with_hints(
        &mut overlay,
        &thas,
        from,
        hopid,
        vec![0u8; 64],
        0,
        opts,
        None,
    );
    assert!(
        matches!(cut, Err(TransitError::RetriesExhausted { .. })),
        "traffic across the cut must time out, got {cut:?}"
    );

    assert!(driver.network_mut().heal("ab"));
    let post = driver.drive_timed_with_hints(
        &mut overlay,
        &thas,
        from,
        hopid,
        vec![0u8; 64],
        0,
        opts,
        None,
    );
    assert!(post.is_ok(), "healed wire must deliver again");
    assert!(registry.snapshot().counter("core.transit.giveups") >= 1);
}
