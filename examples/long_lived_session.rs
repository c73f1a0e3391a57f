//! Long-standing sessions under churn — the paper's motivating scenario.
//!
//! ```text
//! cargo run --release --example long_lived_session
//! ```
//!
//! §1: "current tunneling techniques have a problem in maintaining
//! long-standing remote login sessions, if a node on a tunnel fails.
//! However, TAP can support long-standing remote login sessions in the
//! face of node failures."
//!
//! This example keeps one TAP tunnel and one fixed-node baseline tunnel
//! open while the network churns, sends a keep-alive through the TAP
//! tunnel every round, checks that every baseline relay is still alive
//! (the baseline has no failover, so that is its whole protocol), and
//! prints when each stops working.

use rand::Rng;

use tap::core::baseline::FixedTunnel;
use tap::core::transit::{self, TransitOptions};
use tap::core::tunnel::Tunnel;
use tap::core::wire::Destination;
use tap::core::world::{World, TUNNEL_LENGTH};
use tap::core::Purpose;
use tap::pastry::PastryConfig;
use tap::Id;

fn main() {
    let mut sys = World::build(PastryConfig::paper_defaults(), 800, 21);
    let user = sys.random_node().expect("nodes joined");
    let server = loop {
        let s = sys.random_node().expect("nodes joined");
        if s != user {
            break s;
        }
    };
    println!("session: {user:?} -> {server:?} over an 800-node overlay");

    sys.deploy_anchors_direct(user, 10).expect("user joined");
    let tap_tunnel: Tunnel = sys
        .form_tunnel(user, TUNNEL_LENGTH)
        .expect("anchors deployed");
    let mut rng = sys.stream(Purpose::Formation);
    let baseline =
        FixedTunnel::form_random(&mut rng, &sys.overlay, user, 5).expect("network big enough");
    println!(
        "TAP tunnel hops: {:?}",
        tap_tunnel
            .hop_ids()
            .iter()
            .map(|h| h.to_hex()[..6].to_string())
            .collect::<Vec<_>>()
    );

    let mut baseline_alive = true;
    let mut tap_alive = true;
    let mut round = 0u32;
    while tap_alive && round < 200 {
        round += 1;

        // Churn: 1% of the network fails each round (replicas repair, as
        // PAST does; the fixed-node baseline has nothing to repair).
        let victims: Vec<Id> = (0..8)
            .map(|_| loop {
                let v = sys.random_node().expect("nodes joined");
                if v != user && v != server {
                    break v;
                }
            })
            .collect();
        for v in victims {
            sys.leave(v, true);
        }
        for _ in 0..8 {
            sys.join();
        }

        // The baseline carries a keep-alive while every relay lives.
        if baseline_alive && !baseline.intact(|n| sys.overlay.is_live(n)) {
            baseline_alive = false;
            println!("round {round:3}: baseline tunnel DIED (a relay failed)");
        }

        // Keep-alive through TAP.
        let onion = tap_tunnel.build_onion(
            &mut sys.stream(Purpose::Flow),
            Destination::Node(server),
            format!("keepalive {round}").as_bytes(),
            None,
        );
        match transit::drive(
            &mut sys.overlay,
            &sys.thas,
            user,
            tap_tunnel.entry_hopid(),
            onion,
            TransitOptions::default(),
        ) {
            Ok((_, report)) => {
                if round.is_multiple_of(25) {
                    println!(
                        "round {round:3}: TAP session alive ({} overlay hops)",
                        report.overlay_hops
                    );
                }
            }
            Err(e) => {
                tap_alive = false;
                println!("round {round:3}: TAP tunnel finally died: {e}");
            }
        }

        // A prudent user refreshes tunnels periodically (§7.2 / Fig. 5).
        if round.is_multiple_of(50) && sys.stream(Purpose::Pick).gen_bool(0.99) {
            sys.deploy_anchors_direct(user, 10).expect("user stays");
        }
    }

    println!(
        "\nafter {round} rounds of churn: baseline {} | TAP {}",
        if baseline_alive { "alive" } else { "dead" },
        if tap_alive { "alive" } else { "dead" },
    );
    assert!(
        !baseline_alive || round < 20,
        "statistically the baseline should die within a few rounds"
    );
}
