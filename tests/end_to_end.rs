//! Full-stack integration: overlay + replication + crypto + tunnels +
//! retrieval, driven through the public `tap` facade.

use rand::Rng;
use tap::core::deploy::DeployError;
use tap::core::world::TUNNEL_LENGTH;
use tap::core::{World, WorldError};
use tap::pastry::PastryConfig;
use tap::Id;

fn system(n: usize, seed: u64) -> World {
    World::build(PastryConfig::paper_defaults(), n, seed)
}

#[test]
fn anonymous_retrieval_with_full_bootstrap() {
    // The complete paper lifecycle with nothing shortcut: onion-routing
    // bootstrap deployment (with CPU puzzles), scattered tunnel formation,
    // layered transit, distinct reply tunnel, decryption at the initiator.
    let mut sys = system(300, 1);
    sys.puzzle_difficulty = 6;
    let user = sys.random_node().unwrap();
    let deployed = sys
        .deploy_anchors(user, 10, 12)
        .expect("deployment succeeds");
    assert_eq!(deployed, 10);

    let fid = sys.store_file(b"integration payload".to_vec()).unwrap();
    let (data, report) = sys.retrieve_file(user, fid, false).expect("retrieval");
    assert_eq!(data, b"integration payload");
    assert_eq!(report.forward.hops_resolved, 5);
    assert_eq!(report.reply.hops_resolved, 5);
    assert!(report.forward.overlay_hops >= 5);
}

#[test]
fn retrieval_survives_churn_between_request_and_reply_paths() {
    let mut sys = system(400, 2);
    let user = sys.random_node().unwrap();
    sys.deploy_anchors_direct(user, 30).unwrap();
    let fid = sys.store_file(vec![0xCD; 4096]).unwrap();

    // Heavy churn with replica repair running, as PAST would.
    for _ in 0..60 {
        let victim = loop {
            let v = sys.random_node().unwrap();
            if v != user {
                break v;
            }
        };
        sys.leave(victim, true);
        sys.join();
    }

    let (data, _) = sys.retrieve_file(user, fid, false).expect("churn survived");
    assert_eq!(data, vec![0xCD; 4096]);
}

#[test]
fn hints_reduce_hops_on_static_networks() {
    let mut sys = system(600, 3);
    let user = sys.random_node().unwrap();
    sys.deploy_anchors_direct(user, 60).unwrap();
    let fid = sys.store_file(b"hop count probe".to_vec()).unwrap();

    let (_, plain) = sys.retrieve_file(user, fid, false).unwrap();
    let (_, hinted) = sys.retrieve_file(user, fid, true).unwrap();
    let plain_total = plain.forward.overlay_hops + plain.reply.overlay_hops;
    let hinted_total = hinted.forward.overlay_hops + hinted.reply.overlay_hops;
    assert!(
        hinted_total < plain_total,
        "hints must shorten transit: {hinted_total} >= {plain_total}"
    );
    // On a static network every embedded hint is fresh: the tail hop of
    // each tunnel plus the entry resolution can still route, but no hint
    // may MISS.
    assert_eq!(hinted.forward.hint_misses, 0);
    assert_eq!(hinted.reply.hint_misses, 0);
}

#[test]
fn deployment_aborts_cleanly_when_no_relays_left() {
    // A pathological two-node system: the only possible relay can fail.
    let mut sys = system(40, 4);
    let user = sys.random_node().unwrap();
    // Kill most of the network so bootstrap paths get flaky, then verify
    // deploy either succeeds fully or reports a structured error.
    let victims: Vec<Id> = sys.overlay.ids().filter(|v| *v != user).take(30).collect();
    for v in victims {
        sys.leave(v, false);
    }
    match sys.deploy_anchors(user, 6, 3) {
        Ok(n) => assert_eq!(n, 6),
        Err(WorldError::Deploy(
            DeployError::RelayDown { .. } | DeployError::Mismatched | DeployError::Rejected { .. },
        )) => {}
        Err(e) => panic!("unexpected deploy error: {e}"),
    }
}

#[test]
fn tunnel_teardown_then_reuse_of_hopid_space() {
    let mut sys = system(200, 5);
    let user = sys.random_node().unwrap();
    sys.deploy_anchors_direct(user, 10).unwrap();
    let t = sys.form_tunnel(user, TUNNEL_LENGTH).expect("pool filled");
    let hop_ids = t.hop_ids();
    assert_eq!(sys.teardown(t.hops()), 5);
    // The anchors are gone from the store; the ids are free again.
    for h in &hop_ids {
        assert!(sys.thas.get(*h).is_none());
    }
    // A new deployment and tunnel still work.
    sys.deploy_anchors_direct(user, 10).unwrap();
    assert!(sys.form_tunnel(user, TUNNEL_LENGTH).is_some());
}

#[test]
fn determinism_same_seed_same_world() {
    let mut a = system(150, 77);
    let mut b = system(150, 77);
    assert_eq!(a.overlay.len(), b.overlay.len());
    let na = a.random_node().unwrap();
    let nb = b.random_node().unwrap();
    assert_eq!(na, nb, "identical seeds must build identical systems");
    a.deploy_anchors_direct(na, 5).unwrap();
    b.deploy_anchors_direct(nb, 5).unwrap();
    assert_eq!(
        a.anchor_pool(na)
            .iter()
            .map(|s| s.hopid)
            .collect::<Vec<_>>(),
        b.anchor_pool(nb)
            .iter()
            .map(|s| s.hopid)
            .collect::<Vec<_>>()
    );
}

#[test]
fn replica_invariants_hold_after_everything() {
    let mut sys = system(250, 6);
    let user = sys.random_node().unwrap();
    sys.deploy_anchors_direct(user, 20).unwrap();
    let fid = sys.store_file(b"x".to_vec()).unwrap();
    let _ = sys.retrieve_file(user, fid, false).unwrap();
    for _ in 0..20 {
        let victim = loop {
            let v = sys.random_node().unwrap();
            if v != user {
                break v;
            }
        };
        sys.leave(victim, true);
        sys.join();
    }
    sys.thas.assert_replica_invariant(&sys.overlay);
    sys.files.assert_replica_invariant(&sys.overlay);
    sys.overlay.assert_leafsets_exact();
}

#[test]
fn retrieval_from_a_node_that_left_is_an_error() {
    // The node's anchors outlive it, so both tunnels would still form;
    // no bid is owned by a departed node, so the bid draw must not start.
    let mut sys = system(60, 3);
    let user = sys.random_node().unwrap();
    sys.deploy_anchors_direct(user, 20).unwrap();
    let fid = sys.store_file(b"left behind".to_vec()).unwrap();
    assert!(sys.leave(user, false));
    assert_eq!(
        sys.retrieve_file(user, fid, false).err(),
        Some(WorldError::NotMember(user))
    );
    assert_eq!(sys.choose_bid(user), Err(WorldError::NotMember(user)));
}

#[test]
fn a_world_too_small_for_a_bootstrap_path_is_refused_before_any_draw() {
    // A bootstrap path has three relays besides the depositor: two or
    // three nodes cannot supply them, and four can.
    for (n, other_live) in [(2, 1), (3, 2)] {
        let mut sys = system(n, 7);
        let user = sys.random_node().unwrap();
        let mut before = sys.rng.clone();
        assert_eq!(
            sys.deploy_anchors(user, 3, 5),
            Err(WorldError::TooFewRelays {
                needed: 3,
                available: other_live
            }),
            "{n} nodes"
        );
        assert_eq!(
            sys.rng.gen::<u64>(),
            before.gen::<u64>(),
            "{n} nodes: nothing drawn"
        );
        assert!(sys.anchor_pool(user).is_empty());
        assert!(sys.thas.is_empty());
    }
    let mut sys = system(4, 7);
    let user = sys.random_node().unwrap();
    assert_eq!(sys.deploy_anchors(user, 3, 5), Ok(3));
}

#[test]
fn deploying_for_a_node_that_never_joined_is_an_error() {
    let mut sys = system(60, 4);
    let stranger = Id::from_u64(0xdead_beef);
    assert!(!sys.overlay.is_live(stranger));
    assert_eq!(
        sys.deploy_anchors_direct(stranger, 5),
        Err(WorldError::NotMember(stranger))
    );
    assert_eq!(
        sys.deploy_anchors(stranger, 5, 3),
        Err(WorldError::NotMember(stranger))
    );
    assert!(sys.anchor_pool(stranger).is_empty());
}
