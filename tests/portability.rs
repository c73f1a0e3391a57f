//! The paper's portability claim, executed: "we believe that our tunneling
//! approach can be easily adapted to other systems [Chord, …]" (§3).
//!
//! Every test here runs TAP's unmodified protocol stack — THA replication,
//! layered tunnel transit with failover, anonymous retrieval, asynchronous
//! reply blocks — over the from-scratch Chord substrate instead of Pastry.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tap::chord::{ChordConfig, ChordOverlay};
use tap::core::retrieval::{self, RetrievalContext, StoredFile};
use tap::core::tha::{Tha, ThaFactory};
use tap::core::transit::{self, HintCache, TransitError, TransitOptions};
use tap::core::tunnel::{ReplyTunnel, Tunnel, FAKEONION_LEN};
use tap::core::wire::Destination;
use tap::id::Id;
use tap::pastry::storage::ReplicaStore;
use tap::pastry::KeyRouter;

struct ChordWorld {
    overlay: ChordOverlay,
    thas: ReplicaStore<Tha>,
    rng: StdRng,
    initiator: Id,
}

fn world(n: usize, seed: u64) -> ChordWorld {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut overlay = ChordOverlay::new(ChordConfig::defaults());
    for _ in 0..n {
        overlay.add_random_node(&mut rng);
    }
    let initiator = overlay.random_node(&mut rng).unwrap();
    ChordWorld {
        overlay,
        thas: ReplicaStore::new(3),
        rng,
        initiator,
    }
}

fn tunnel(w: &mut ChordWorld, l: usize) -> Tunnel {
    let mut factory = ThaFactory::new(&mut w.rng, w.initiator);
    let mut hops = Vec::with_capacity(l);
    while hops.len() < l {
        let s = factory.next(&mut w.rng);
        if w.thas.insert(&w.overlay, s.hopid, s.stored()).unwrap() {
            hops.push(s);
        }
    }
    Tunnel::new(hops)
}

#[test]
fn tunnel_transit_works_over_chord() {
    let mut w = world(250, 1);
    let t = tunnel(&mut w, 5);
    let dest = loop {
        let d = w.overlay.random_node(&mut w.rng).unwrap();
        if d != w.initiator {
            break d;
        }
    };
    let onion = t.build_onion(&mut w.rng, Destination::Node(dest), b"over chord", None);
    let (delivery, report) = transit::drive(
        &mut w.overlay,
        &w.thas,
        w.initiator,
        t.entry_hopid(),
        onion,
        TransitOptions::default(),
    )
    .unwrap();
    match delivery {
        transit::Delivery::ToDestination { node, core } => {
            assert_eq!(node, dest);
            assert_eq!(core, b"over chord");
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(report.hops_resolved, 5);
}

#[test]
fn hop_failover_works_over_chord() {
    // Kill the current responsible node of a middle hop: the next
    // successor (a replica holder) takes over — the same §2 walkthrough,
    // different substrate.
    let mut w = world(250, 2);
    let t = tunnel(&mut w, 3);
    let mid = t.hop_ids()[1];
    let old_root = w.overlay.successor_of(mid).unwrap();
    assert_eq!(w.thas.holders(mid)[0], old_root);
    if old_root != w.initiator {
        w.overlay.remove_node(old_root);
    }
    let dest = loop {
        let d = w.overlay.random_node(&mut w.rng).unwrap();
        if d != w.initiator {
            break d;
        }
    };
    let onion = t.build_onion(&mut w.rng, Destination::Node(dest), b"x", None);
    let (delivery, _) = transit::drive(
        &mut w.overlay,
        &w.thas,
        w.initiator,
        t.entry_hopid(),
        onion,
        TransitOptions::default(),
    )
    .unwrap();
    assert!(matches!(delivery, transit::Delivery::ToDestination { .. }));
    let new_root = w.overlay.successor_of(mid).unwrap();
    assert!(
        w.thas.holders(mid).contains(&new_root),
        "the successor that took over held a replica"
    );
}

#[test]
fn all_replicas_dead_breaks_tunnel_over_chord() {
    let mut w = world(250, 3);
    let t = tunnel(&mut w, 3);
    let victim = t.hop_ids()[2];
    for holder in w.thas.holders(victim).to_vec() {
        if holder != w.initiator {
            w.overlay.remove_node(holder);
        }
    }
    let dest = w.overlay.random_node(&mut w.rng).unwrap();
    let onion = t.build_onion(&mut w.rng, Destination::Node(dest), b"x", None);
    let err = transit::drive(
        &mut w.overlay,
        &w.thas,
        w.initiator,
        t.entry_hopid(),
        onion,
        TransitOptions::default(),
    )
    .unwrap_err();
    assert_eq!(err, TransitError::ThaLost { hopid: victim });
}

#[test]
fn anonymous_retrieval_works_over_chord() {
    let mut w = world(300, 4);
    let fwd = tunnel(&mut w, 3);
    let rev = tunnel(&mut w, 3);
    let mut files: ReplicaStore<StoredFile> = ReplicaStore::new(3);
    let fid = Id::random(&mut w.rng);
    files
        .insert(
            &w.overlay,
            fid,
            StoredFile {
                data: b"chord-hosted file".to_vec(),
            },
        )
        .unwrap();
    // bid: the initiator must be responsible, i.e. bid ∈ (pred, initiator].
    // One below the initiator's own id is owned by it (successor(bid) =
    // initiator as long as no node sits in between, which a fresh random
    // ring makes astronomically certain — and we verify).
    let bid = w.initiator.wrapping_sub(Id::from_u64(1));
    assert_eq!(KeyRouter::owner_of(&w.overlay, bid), Some(w.initiator));

    let initiator = w.initiator;
    let mut ctx = RetrievalContext {
        overlay: &mut w.overlay,
        thas: &w.thas,
        files: &files,
        metrics: None,
    };
    let (file, report) = retrieval::retrieve(
        &mut w.rng,
        &mut ctx,
        initiator,
        fid,
        &fwd,
        &rev,
        bid,
        None,
        TransitOptions::default(),
    )
    .unwrap();
    assert_eq!(file, b"chord-hosted file");
    assert_eq!(report.forward.hops_resolved, 3);
    assert_eq!(report.reply.hops_resolved, 3);
}

#[test]
fn reply_blocks_survive_chord_churn() {
    // §1's reply block is a reply tunnel: the recipient holds it while
    // every current reply-hop node leaves and the ring churns (with replica
    // repair), and it still surfaces at the sender, the root of its `bid`.
    let mut w = world(300, 5);
    let rev = tunnel(&mut w, 3);
    let sender = w.initiator;
    let bid = sender.wrapping_sub(Id::from_u64(1));
    assert_eq!(KeyRouter::owner_of(&w.overlay, bid), Some(sender));
    let reply = ReplyTunnel::build(&mut w.rng, &rev, bid, FAKEONION_LEN, None);
    let recipient = loop {
        let r = w.overlay.random_node(&mut w.rng).unwrap();
        if r != sender {
            break r;
        }
    };

    // Every current reply-hop node leaves, then 40 random others; a fresh
    // node joins after each leave.
    let hop_nodes: Vec<Id> = rev
        .hop_ids()
        .into_iter()
        .map(|hop| KeyRouter::owner_of(&w.overlay, hop).unwrap())
        .filter(|root| *root != sender && *root != recipient)
        .collect();
    assert!(!hop_nodes.is_empty(), "some reply hop must lose its node");
    for i in 0..hop_nodes.len() + 40 {
        let victim = match hop_nodes.get(i) {
            Some(&v) => v,
            None => loop {
                let v = w.overlay.random_node(&mut w.rng).unwrap();
                if v != sender && v != recipient {
                    break v;
                }
            },
        };
        if w.overlay.remove_node(victim) {
            w.thas.on_node_removed(&w.overlay, victim);
            let id = w.overlay.add_random_node(&mut w.rng);
            w.thas.on_node_added(&w.overlay, id);
        }
    }

    let (delivery, report) = transit::drive(
        &mut w.overlay,
        &w.thas,
        recipient,
        reply.entry_hopid,
        reply.onion,
        TransitOptions::default(),
    )
    .unwrap();
    assert_eq!(report.hops_resolved, 3);
    match delivery {
        transit::Delivery::AtAnchorlessRoot { node, residue } => {
            assert_eq!(node, sender);
            assert_eq!(residue.len(), FAKEONION_LEN);
        }
        other => panic!("the reply must end at the sender's bid, got {other:?}"),
    }
}

#[test]
fn hints_work_over_chord() {
    let mut w = world(400, 6);
    let t = tunnel(&mut w, 5);
    let mut hints = HintCache::default();
    hints.refresh(&w.overlay, &t.hop_ids());
    let dest = loop {
        let d = w.overlay.random_node(&mut w.rng).unwrap();
        if d != w.initiator {
            break d;
        }
    };
    let hinted_onion = t.build_onion(&mut w.rng, Destination::Node(dest), b"m", Some(&hints));
    let (_, with_hints) = transit::drive(
        &mut w.overlay,
        &w.thas,
        w.initiator,
        t.entry_hopid(),
        hinted_onion,
        TransitOptions::hinted(),
    )
    .unwrap();
    let plain_onion = t.build_onion(&mut w.rng, Destination::Node(dest), b"m", None);
    let (_, plain) = transit::drive(
        &mut w.overlay,
        &w.thas,
        w.initiator,
        t.entry_hopid(),
        plain_onion,
        TransitOptions::default(),
    )
    .unwrap();
    assert_eq!(with_hints.hint_hits, 4, "hops 2..=5 carried hints");
    assert!(with_hints.overlay_hops <= plain.overlay_hops);
}

#[test]
fn substrates_agree_on_tap_semantics() {
    // The same seed, the same protocol, two substrates: both must deliver
    // the same plaintext end to end (paths differ, semantics don't).
    use tap::pastry::{Overlay, PastryConfig};

    // Pastry run.
    let mut prng = StdRng::seed_from_u64(77);
    let mut pastry = Overlay::new(PastryConfig::paper_defaults());
    for _ in 0..150 {
        pastry.add_random_node(&mut prng);
    }
    let p_init = pastry.random_node(&mut prng).unwrap();
    let mut p_store: ReplicaStore<Tha> = ReplicaStore::new(3);
    let mut f = ThaFactory::new(&mut prng, p_init);
    let hops: Vec<_> = (0..3)
        .map(|_| {
            let s = f.next(&mut prng);
            p_store.insert(&pastry, s.hopid, s.stored()).unwrap();
            s
        })
        .collect();
    let p_tunnel = Tunnel::new(hops);
    let p_dest = pastry.random_node(&mut prng).unwrap();
    let onion = p_tunnel.build_onion(&mut prng, Destination::Node(p_dest), b"same", None);
    let (p_delivery, _) = transit::drive(
        &mut pastry,
        &p_store,
        p_init,
        p_tunnel.entry_hopid(),
        onion,
        TransitOptions::default(),
    )
    .unwrap();

    // Chord run.
    let mut w = world(150, 77);
    let c_tunnel = tunnel(&mut w, 3);
    let c_dest = loop {
        let d = w.overlay.random_node(&mut w.rng).unwrap();
        if d != w.initiator {
            break d;
        }
    };
    let onion = c_tunnel.build_onion(&mut w.rng, Destination::Node(c_dest), b"same", None);
    let (c_delivery, _) = transit::drive(
        &mut w.overlay,
        &w.thas,
        w.initiator,
        c_tunnel.entry_hopid(),
        onion,
        TransitOptions::default(),
    )
    .unwrap();

    let core_of = |d| match d {
        transit::Delivery::ToDestination { core, .. } => core,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(core_of(p_delivery), b"same");
    assert_eq!(core_of(c_delivery), b"same");
}
