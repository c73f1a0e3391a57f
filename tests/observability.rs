//! The metrics layer observed from the outside: a retrieval through a
//! fully wired [`World`] must leave a [`tap_metrics::MetricsReport`]
//! whose numbers agree with the protocol-level [`RetrievalReport`].

use rand::rngs::StdRng;
use rand::SeedableRng;
use tap_core::metrics::CoreInstruments;
use tap_core::netdrive::NetDriver;
use tap_core::tha::{Tha, ThaFactory};
use tap_core::transit::TransitOptions;
use tap_core::tunnel::Tunnel;
use tap_core::wire::Destination;
use tap_core::{HintCache, World};
use tap_metrics::Registry;
use tap_netsim::latency::UniformLatency;
use tap_netsim::{Network, NetworkConfig};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, PastryConfig};

#[test]
fn retrieve_file_metrics_agree_with_transit_report() {
    let mut sys = World::build(PastryConfig::paper_defaults(), 200, 11);
    let registry = Registry::new();
    let journal = registry.install_journal(256);
    sys.use_metrics(registry.clone());

    let initiator = sys.random_node().unwrap();
    sys.deploy_anchors_direct(initiator, 40).unwrap();
    let fid = sys.store_file(b"observable payload".to_vec()).unwrap();

    let (file, report) = sys.retrieve_file(initiator, fid, false).unwrap();
    assert_eq!(file, b"observable payload");

    let snapshot = registry.snapshot();

    // Every resolved tunnel hop peeled exactly one onion layer, on the
    // forward path and on the reply path alike.
    let peels = snapshot
        .histogram("core.onion.peel_us")
        .expect("transit records per-layer decrypt timings");
    assert_eq!(
        peels.count as usize,
        report.forward.hops_resolved + report.reply.hops_resolved,
        "one peel per resolved hop"
    );

    // The forward onion was sealed in one fused pass over all layers, so
    // the wrap histogram holds exactly one sample per onion build — and a
    // tunnel with resolved hops implies the onion really was built.
    let wraps = snapshot
        .histogram("core.onion.wrap_us")
        .expect("build_onion records whole-onion encrypt timings");
    assert!(
        report.forward.hops_resolved > 0,
        "tunnel resolved some hops"
    );
    assert_eq!(
        wraps.count, 1,
        "one fused seal covering every forward tunnel layer"
    );

    // A freshly bootstrapped system has no failures: nothing ever retried
    // or failed over, and the snapshot must say so.
    assert_eq!(snapshot.counter("core.transit.retries"), 0);
    assert_eq!(snapshot.counter("core.tha.takeovers"), 0);
    assert_eq!(journal.dropped(), 0);

    // The replica store saw at least the anchors and the file go in.
    assert!(snapshot.counter("pastry.replica.inserts") >= 41);

    // The report round-trips to JSON naming every recorded instrument.
    let json = snapshot.to_json();
    for name in [
        "core.onion.peel_us",
        "core.onion.wrap_us",
        "pastry.replica.inserts",
        "pastry.route.hops",
    ] {
        assert!(json.contains(name), "JSON report must mention {name}");
    }
}

#[test]
fn takeover_is_counted_and_journaled() {
    let mut sys = World::build(PastryConfig::paper_defaults(), 200, 12);
    let registry = Registry::new();
    let journal = registry.install_journal(256);
    sys.use_metrics(registry.clone());

    let initiator = sys.random_node().unwrap();
    sys.deploy_anchors_direct(initiator, 40).unwrap();
    let fid = sys.store_file(b"f".to_vec()).unwrap();

    // Fail the current root of one of the initiator's anchors without
    // repair: the next traversal through that hop is served by a replica
    // candidate, which the instruments must count as a takeover.
    let hopid = sys.anchor_pool(initiator)[0].hopid;
    let root = sys.overlay.owner_of(hopid).unwrap();
    let mut retried = 0;
    if root != initiator {
        sys.leave(root, false);
    }
    // Retrieval uses random anchors; drive until the weakened hop was
    // actually traversed or the takeover counter moves.
    while registry.snapshot().counter("core.tha.takeovers") == 0 && retried < 20 {
        let _ = sys.retrieve_file(initiator, fid, false);
        retried += 1;
    }

    let snapshot = registry.snapshot();
    if snapshot.counter("core.tha.takeovers") > 0 {
        let events = journal.snapshot();
        assert!(
            events.iter().any(|e| e.kind == "core.tha.takeover"),
            "each takeover also lands in the event journal"
        );
    }
}

#[test]
fn stale_hint_under_churn_retries_demotes_and_falls_back() {
    // The §5 split-brain at wire fidelity: a hinted hop node that churned
    // off the wire (while the overlay oracle still believes it live) must
    // show up in the metrics as retries, then a demotion of the stale
    // cache entry, then a successful overlay-routed fallback.
    let registry = Registry::new();
    let mut rng = StdRng::seed_from_u64(31);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..250 {
        overlay.add_random_node(&mut rng);
    }
    let initiator = overlay.random_node(&mut rng).unwrap();
    let mut thas: ReplicaStore<Tha> = ReplicaStore::new(3);
    let mut factory = ThaFactory::new(&mut rng, initiator);
    let mut hops = Vec::new();
    while hops.len() < 3 {
        let s = factory.next(&mut rng);
        if thas.insert(&overlay, s.hopid, s.stored()).unwrap() {
            hops.push(s);
        }
    }
    let tunnel = Tunnel::new(hops);

    let mut driver = NetDriver::new(Network::<u64, _>::new(
        NetworkConfig::paper_defaults(),
        UniformLatency::paper(31),
    ));
    driver.use_instruments(CoreInstruments::new(&registry));

    let mut hints = HintCache::default();
    hints.refresh(&overlay, &tunnel.hop_ids());

    // Churn: the hinted node of the middle hop leaves the network. The
    // overlay repairs (the THA moves to the new root) but the onion was
    // built with the old hint, which now points at a dead address.
    let victim_hop = tunnel.hop_ids()[1];
    let stale = hints.lookup(victim_hop).expect("hint cached");
    assert_ne!(stale, initiator, "seed chosen so the initiator survives");
    let dest = loop {
        let d = overlay.random_node(&mut rng).unwrap();
        if d != initiator && d != stale {
            break d;
        }
    };
    let onion = tunnel.build_onion(&mut rng, Destination::Node(dest), b"churned", Some(&hints));
    driver.kill_node(stale);
    overlay.remove_node(stale);
    thas.on_node_removed(&overlay, stale);
    let new_root = overlay.owner_of(victim_hop).expect("overlay repaired");
    assert_ne!(new_root, stale, "churn moved the hop to a new root");
    let result = driver.drive_timed_with_hints(
        &mut overlay,
        &thas,
        initiator,
        tunnel.entry_hopid(),
        onion,
        0,
        TransitOptions {
            use_hints: true,
            retry_budget: 2,
        },
        Some(&mut hints),
    );

    // The stale entry was demoted, the retry counter moved…
    assert!(
        hints.lookup(victim_hop).is_none(),
        "the timed-out hint must be evicted"
    );
    let snapshot = registry.snapshot();
    assert!(
        snapshot.counter("core.transit.retries") > 0,
        "the dead direct attempt must be visible as retries"
    );
    // …and the overlay fallback re-routed to the repaired root and
    // carried the message all the way through.
    let (_, timed) = result.expect("overlay fallback must deliver");
    assert_eq!(timed.hops_resolved, 3);
    assert_eq!(snapshot.counter("core.transit.giveups"), 0);
}
