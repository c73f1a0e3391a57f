//! Hands-off tunnel maintenance: probe, replace, rotate, top up.
//!
//! ```text
//! cargo run --release --example tunnel_maintenance
//! ```
//!
//! The paper leaves tunnel upkeep to the user: probe your tunnels, replace
//! the dead ones, refresh the old ones (§7.2, §9). This example runs that
//! loop for 40 time units over a churning 600-node network, printing what
//! it had to do — and then shows the same workload *without* maintenance
//! for contrast. Every leave repairs replicas, as PAST does.

use tap::core::transit::{self, TransitError, TransitOptions};
use tap::core::tunnel::Tunnel;
use tap::core::wire::Destination;
use tap::core::world::{World, TUNNEL_LENGTH};
use tap::core::Purpose;
use tap::pastry::PastryConfig;
use tap::Id;

/// Tunnels the user keeps open.
const TARGET: usize = 3;
/// Units after which a tunnel is rotated even while it works (Fig. 5's
/// refresh, which bounds how long pooled THAs stay useful to colluders).
const MAX_AGE: u32 = 8;
/// Below this many unused anchors, deploy `REPLENISH` more.
const MIN_POOL: usize = 10;
const REPLENISH: usize = 10;

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

/// Carry a probe through `t` to a random key root.
fn probe(sys: &mut World, user: Id, t: &Tunnel) -> Result<(), TransitError> {
    let probe_key = Id::random(&mut sys.stream(Purpose::Pick));
    let onion = t.build_onion(
        &mut sys.stream(Purpose::Flow),
        Destination::KeyRoot(probe_key),
        b"probe",
        None,
    );
    transit::drive(
        &mut sys.overlay,
        &sys.thas,
        user,
        t.entry_hopid(),
        onion,
        TransitOptions::default(),
    )
    .map(|_| ())
}

fn main() {
    let mut sys = World::build(PastryConfig::paper_defaults(), 600, 4);
    let user = sys.random_node().expect("nodes joined");

    // --- maintained: (tunnel, unit it was formed) ---
    let mut active: Vec<(Tunnel, u32)> = Vec::new();
    let (mut probes, mut caught, mut rotated, mut formed) = (0, 0, 0, 0);
    for unit in 1..=40 {
        churn(&mut sys, user, 12); // 2% of the network per unit
        for (t, born) in std::mem::take(&mut active) {
            // Rotate at a fixed age; otherwise probe, and replace a tunnel
            // that lost a hop's every replica or failed a layer. Routing
            // trouble is transient and keeps the tunnel.
            if unit - born >= MAX_AGE {
                rotated += 1;
            } else {
                probes += 1;
                match probe(&mut sys, user, &t) {
                    Err(TransitError::ThaLost { .. } | TransitError::BadLayer { .. }) => {
                        caught += 1
                    }
                    _ => {
                        active.push((t, born));
                        continue;
                    }
                }
            }
            sys.teardown(t.hops());
        }
        while active.len() < TARGET {
            if sys.anchor_pool(user).len() < MIN_POOL {
                sys.deploy_anchors_direct(user, REPLENISH)
                    .expect("the user never leaves");
            }
            let t = sys
                .form_tunnel(user, TUNNEL_LENGTH)
                .expect("the pool holds a tunnel's anchors");
            active.push((t, unit));
            formed += 1;
        }
        if unit % 10 == 0 {
            println!(
                "unit {unit:3}: {} tunnels healthy, {} unused anchors",
                active.len(),
                sys.anchor_pool(user).len()
            );
        }
    }
    assert_eq!(active.len(), TARGET, "maintenance never runs dry");
    println!(
        "\nmaintained: {probes} probes, {caught} failures caught, {rotated} age rotations, \
         {formed} tunnels formed"
    );

    // --- unmaintained, for contrast ---
    sys.deploy_anchors_direct(user, 10).expect("user joined");
    let neglected = sys
        .form_tunnel(user, TUNNEL_LENGTH)
        .expect("anchors available");
    let mut alive_until = None;
    for unit in 1..=200 {
        churn(&mut sys, user, 12);
        if probe(&mut sys, user, &neglected).is_err() {
            alive_until = Some(unit);
            break;
        }
    }
    match alive_until {
        Some(unit) => println!(
            "unmaintained tunnel died at unit {unit} (replica repair keeps hops alive \
             for a while, but nobody replaced the anchors that churned away)"
        ),
        None => println!(
            "unmaintained tunnel survived 200 units — replica repair alone can carry \
             a tunnel a long way; maintenance is for the tail risk and anonymity decay"
        ),
    }
}
