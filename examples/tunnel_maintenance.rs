//! Hands-off tunnel maintenance with [`TunnelManager`].
//!
//! ```text
//! cargo run --release --example tunnel_maintenance
//! ```
//!
//! The paper leaves tunnel upkeep to the user: probe your tunnels, replace
//! the dead ones, refresh the old ones (§7.2, §9). This example runs a
//! manager for 40 time units over a churning 600-node network, printing
//! what it had to do — and then shows the same workload *without*
//! maintenance for contrast.

use tap::core::manager::{RefreshPolicy, TunnelManager};
use tap::core::transit::{self, TransitOptions};
use tap::core::wire::Destination;
use tap::core::world::{World, TUNNEL_LENGTH};
use tap::pastry::PastryConfig;
use tap::Id;

fn churn(sys: &mut World, protect: Id, events: usize) {
    for _ in 0..events {
        let victim = loop {
            let v = sys.random_node().expect("nodes joined");
            if v != protect {
                break v;
            }
        };
        sys.leave(victim, true);
        sys.join();
    }
}

fn main() {
    let mut sys = World::build(PastryConfig::paper_defaults(), 600, 4);
    let user = sys.random_node().expect("nodes joined");
    sys.deploy_anchors_direct(user, 20).expect("user joined");

    // --- managed ---
    let policy = RefreshPolicy {
        max_age: 8,
        probe: true,
        min_pool: 10,
        replenish_batch: 10,
        re_replicate: true,
    };
    let mut mgr = TunnelManager::new(user, 3, policy);
    for unit in 1..=40 {
        churn(&mut sys, user, 12); // 2% of the network per unit
        mgr.tick(&mut sys);
        if unit % 10 == 0 {
            println!(
                "unit {unit:3}: {} tunnels healthy | {:?}",
                mgr.active().len(),
                mgr.stats
            );
        }
    }
    assert_eq!(mgr.active().len(), 3, "the manager never runs dry");
    println!(
        "\nmanaged: {} probes, {} failures caught, {} age refreshes, {} tunnels formed",
        mgr.stats.probes_sent,
        mgr.stats.probe_failures,
        mgr.stats.refreshed_by_age,
        mgr.stats.tunnels_formed
    );

    // --- unmanaged, for contrast ---
    sys.deploy_anchors_direct(user, 10).expect("user joined");
    let neglected = sys
        .form_tunnel(user, TUNNEL_LENGTH)
        .expect("anchors available");
    let mut alive_until = None;
    for unit in 1..=200 {
        churn(&mut sys, user, 12);
        let probe_key = Id::random(&mut sys.rng);
        let onion = neglected.build_onion(
            &mut sys.rng,
            Destination::KeyRoot(probe_key),
            b"probe",
            None,
        );
        if transit::drive(
            &mut sys.overlay,
            &sys.thas,
            user,
            neglected.entry_hopid(),
            onion,
            TransitOptions::default(),
        )
        .is_err()
        {
            alive_until = Some(unit);
            break;
        }
    }
    match alive_until {
        Some(unit) => println!(
            "unmanaged tunnel died at unit {unit} (replica repair keeps hops alive \
             for a while, but nobody replaced the anchors that churned away)"
        ),
        None => println!(
            "unmanaged tunnel survived 200 units — replica repair alone can carry \
             a tunnel a long way; the manager's job is the tail risk and anonymity decay"
        ),
    }
}
