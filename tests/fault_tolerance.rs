//! Failure-injection integration tests: the Fig. 2 claims exercised with
//! real layered-crypto transit, not membership arithmetic.

use tap::core::baseline::FixedTunnel;
use tap::core::transit::{self, Delivery, TransitError, TransitOptions};
use tap::core::tunnel::{ReplyTunnel, Tunnel, FAKEONION_LEN};
use tap::core::wire::Destination;
use tap::core::{Purpose, World};
use tap::id::Id;
use tap::pastry::PastryConfig;

/// An `n`-node world replicating `k` ways, and its tunnels' initiator.
fn world(n: usize, k: usize, seed: u64) -> (World, Id) {
    let mut w = World::build(PastryConfig::with_replication(k), n, seed);
    let initiator = w.random_node().unwrap();
    (w, initiator)
}

fn make_tunnel(w: &mut World, initiator: Id, l: usize) -> Tunnel {
    Tunnel::new(w.fresh_hops(initiator, l).unwrap())
}

fn drive_probe(w: &mut World, initiator: Id, t: &Tunnel) -> Result<(), TransitError> {
    let key = Id::random(&mut w.stream(Purpose::Pick));
    let onion = t.build_onion(
        &mut w.stream(Purpose::Flow),
        Destination::KeyRoot(key),
        b"probe",
        None,
    );
    transit::drive(
        &mut w.overlay,
        &w.thas,
        initiator,
        t.entry_hopid(),
        onion,
        TransitOptions::default(),
    )
    .map(|_| ())
}

#[test]
fn sequential_failure_of_every_original_hop_node() {
    // Kill the current tunnel hop node of hop 1, then hop 2, … with repair
    // between failures; the tunnel must survive all of it. This is the
    // §2 walkthrough iterated to exhaustion.
    let (mut w, initiator) = world(300, 3, 1);
    let t = make_tunnel(&mut w, initiator, 5);
    for hop in t.hop_ids() {
        let root = w.overlay.owner_of(hop).unwrap();
        if root == initiator {
            continue;
        }
        w.overlay.remove_node(root);
        w.thas.on_node_removed(&w.overlay, root);
        drive_probe(&mut w, initiator, &t).expect("replica failover keeps the tunnel alive");
    }
}

#[test]
fn repeated_failover_with_repair_is_indefinite() {
    // With replica repair running, a hop can fail over k times and more —
    // the replica set keeps refilling. Kill the hop-1 root 10 times.
    let (mut w, initiator) = world(400, 3, 2);
    let t = make_tunnel(&mut w, initiator, 3);
    let hop = t.hop_ids()[0];
    for round in 0..10 {
        let root = w.overlay.owner_of(hop).unwrap();
        if root == initiator {
            break;
        }
        w.overlay.remove_node(root);
        w.thas.on_node_removed(&w.overlay, root);
        drive_probe(&mut w, initiator, &t).unwrap_or_else(|e| panic!("round {round}: {e}"));
    }
}

#[test]
fn simultaneous_loss_of_all_replicas_breaks_exactly_that_hop() {
    let (mut w, initiator) = world(300, 3, 3);
    let t = make_tunnel(&mut w, initiator, 5);
    let victim_hop = t.hop_ids()[2];
    for holder in w.thas.holders(victim_hop).to_vec() {
        if holder != initiator {
            w.overlay.remove_node(holder);
        }
        // NOTE: no repair — simultaneous failure.
    }
    match drive_probe(&mut w, initiator, &t) {
        Err(TransitError::ThaLost { hopid }) => assert_eq!(hopid, victim_hop),
        other => panic!("expected ThaLost for hop 3, got {other:?}"),
    }
}

#[test]
fn tap_outlives_baseline_under_identical_failures() {
    // One kill list for a TAP tunnel and a fixed-node baseline tunnel of
    // the same length and initiator: the baseline's first relay and the
    // current node of TAP's first hop, with replica repair. The baseline
    // is dead; TAP fails over.
    let (mut w, initiator) = world(350, 3, 4);
    let t = make_tunnel(&mut w, initiator, 5);
    let mut rng = w.stream(Purpose::Formation);
    let baseline = FixedTunnel::form_random(&mut rng, &w.overlay, initiator, 5).unwrap();
    assert!(baseline.intact(|n| w.overlay.is_live(n)));

    let tap_victim = w.overlay.owner_of(t.hop_ids()[0]).unwrap();
    for v in [baseline.relays()[0], tap_victim] {
        if v != initiator {
            w.leave(v, true);
        }
    }

    assert!(!baseline.intact(|n| w.overlay.is_live(n)));
    drive_probe(&mut w, initiator, &t).expect("TAP survives the same failure");
}

#[test]
fn reply_tunnel_survives_churn_between_send_and_reply() {
    // §1's anonymous e-mail: the recipient holds a reply tunnel while the
    // network churns, every current reply-hop node included (with replica
    // repair, as PAST provides), and the reply still surfaces at the
    // sender, as the root of its anchorless `bid`.
    let (mut w, sender) = world(300, 3, 7);
    let rev = make_tunnel(&mut w, sender, 3);
    let bid = w.choose_bid(sender).unwrap();
    let reply = ReplyTunnel::build(&mut w.stream(Purpose::Flow), &rev, bid, FAKEONION_LEN, None);
    let recipient = loop {
        let r = w.random_node().unwrap();
        if r != sender {
            break r;
        }
    };

    let mut killed = 0;
    for hop in rev.hop_ids() {
        let root = w.overlay.owner_of(hop).unwrap();
        if root != sender && root != recipient && w.leave(root, true) {
            killed += 1;
        }
    }
    assert!(killed > 0, "some reply hop must have lost its node");

    let (delivery, report) = transit::drive(
        &mut w.overlay,
        &w.thas,
        recipient,
        reply.entry_hopid,
        reply.onion,
        TransitOptions::default(),
    )
    .expect("replica failover carries the reply home");
    assert_eq!(report.hops_resolved, 3);
    match delivery {
        Delivery::AtAnchorlessRoot { node, residue } => {
            assert_eq!(node, sender);
            assert_eq!(residue.len(), FAKEONION_LEN);
        }
        other => panic!("the reply must end at the sender's bid, got {other:?}"),
    }
}

#[test]
fn higher_replication_survives_deeper_simultaneous_failure() {
    // With k=5, kill 4 of 5 holders of every hop simultaneously: the
    // tunnel must still work. With k=3 the same 4-deep kill would be
    // fatal by construction.
    let (mut w, initiator) = world(400, 5, 5);
    let t = make_tunnel(&mut w, initiator, 4);
    for hop in t.hop_ids() {
        let holders = w.thas.holders(hop).to_vec();
        assert_eq!(holders.len(), 5);
        for holder in holders.iter().take(4) {
            if *holder != initiator && w.overlay.is_live(*holder) {
                w.overlay.remove_node(*holder);
            }
        }
    }
    drive_probe(&mut w, initiator, &t).expect("one surviving replica per hop suffices");
}

#[test]
fn message_in_flight_when_destination_dies() {
    // The netsim race: deliverability is checked at arrival, and the
    // overlay mirrors it with DeadDestination.
    let (mut w, initiator) = world(200, 3, 6);
    let t = make_tunnel(&mut w, initiator, 3);
    let dest = loop {
        let d = w.random_node().unwrap();
        if d != initiator && !w.thas.holders(t.hop_ids()[0]).contains(&d) {
            break d;
        }
    };
    let onion = t.build_onion(
        &mut w.stream(Purpose::Flow),
        Destination::Node(dest),
        b"late",
        None,
    );
    w.overlay.remove_node(dest);
    let result = transit::drive(
        &mut w.overlay,
        &w.thas,
        initiator,
        t.entry_hopid(),
        onion,
        TransitOptions::default(),
    );
    match result {
        Err(TransitError::DeadDestination { node }) => assert_eq!(node, dest),
        Err(TransitError::ThaLost { .. }) => {} // dest doubled as a holder
        other => panic!("unexpected: {other:?}"),
    }
}
