//! Fig. 6's transfers on the wire engine against the store-and-forward
//! replay they were once costed by.
//!
//! The replay below walked a tunnel's node path on a bare `Network`, one
//! whole-file message a hop, and left the onion out. The wire engine ships
//! the onion beside the file, so every TAP transfer costs its replay plus
//! the onion's own serialization, hop by hop, and nothing else: the paths
//! agree, no NIC ever queues, and the links are the same draws because
//! both networks register the same endpoints in the same order. An overt
//! transfer carries no onion and costs its replay exactly.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tap_core::netdrive::NetDriver;
use tap_core::tha::{Tha, ThaFactory};
use tap_core::transit::{self, Delivery, HintCache, TransitOptions};
use tap_core::tunnel::Tunnel;
use tap_core::wire::Destination;
use tap_id::{Id, IdHashMap};
use tap_netsim::latency::UniformLatency;
use tap_netsim::{EndpointId, Event, Network, NetworkConfig, SimDuration};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, PastryConfig};
use tap_sim::experiments::latency::FILE_BYTES;

/// The reference: `path` as a store-and-forward transfer of the whole file
/// on `net`. Consecutive duplicates are free, so a path of fewer than two
/// distinct nodes costs nothing.
fn replay(
    net: &mut Network<usize, UniformLatency>,
    endpoint_of: &IdHashMap<EndpointId>,
    path: &[Id],
) -> SimDuration {
    let mut eps: Vec<EndpointId> = Vec::with_capacity(path.len());
    for id in path {
        let ep = endpoint_of[id];
        if eps.last() != Some(&ep) {
            eps.push(ep);
        }
    }
    if eps.len() < 2 {
        return SimDuration::ZERO;
    }
    let start = net.now();
    net.send(eps[0], eps[1], FILE_BYTES, 1);
    net.run_until_quiet(|net, ev| {
        if let Event::Message(m) = ev {
            let next = m.payload + 1;
            if next < eps.len() {
                net.send(eps[m.payload], eps[next], FILE_BYTES, next);
            }
        }
    });
    net.now() - start
}

/// Serialization of one whole file at 1.5 Mb/s, rounded up to the µs.
const FILE_TX_US: u64 = 1_333_334;

#[test]
fn replay_costs_match_hand_arithmetic() {
    let mut net: Network<usize, UniformLatency> =
        Network::new(NetworkConfig::paper_defaults(), UniformLatency::paper(9));
    let (a, b, c) = (net.add_endpoint(), net.add_endpoint(), net.add_endpoint());
    let (ia, ib, ic) = (Id::from_u64(1), Id::from_u64(2), Id::from_u64(3));
    let map: IdHashMap<EndpointId> = [(ia, a), (ib, b), (ic, c)].into_iter().collect();
    let d = replay(&mut net, &map, &[ia, ib, ic]);
    let expect =
        SimDuration::from_micros(2 * FILE_TX_US) + net.link_delay(a, b) + net.link_delay(b, c);
    assert_eq!(d, expect);
    assert_eq!(replay(&mut net, &map, &[ia]), SimDuration::ZERO);
    assert_eq!(replay(&mut net, &map, &[ia, ia]), SimDuration::ZERO);
}

#[test]
fn the_wire_costs_the_replay_plus_the_onion_bytes() {
    const NODES: usize = 300;
    const TRANSFERS: usize = 40;
    let seed = 0xf16;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut overlay = Overlay::new(PastryConfig::paper_defaults());
    let ids: Vec<Id> = (0..NODES)
        .map(|_| overlay.add_random_node(&mut rng))
        .collect();
    let latency = || UniformLatency::paper(seed ^ 0x1a7e);
    let mut net: Network<usize, UniformLatency> =
        Network::new(NetworkConfig::paper_defaults(), latency());
    let endpoint_of: IdHashMap<EndpointId> =
        ids.iter().map(|&id| (id, net.add_endpoint())).collect();
    let mut driver = NetDriver::new(Network::new(NetworkConfig::paper_defaults(), latency()));
    for &id in &ids {
        assert_eq!(driver.register(id), endpoint_of[&id], "endpoint order");
    }
    let mut thas: ReplicaStore<Tha> = ReplicaStore::new(3);

    for _ in 0..TRANSFERS {
        let initiator = overlay.random_node(&mut rng).unwrap();
        let fid = Id::random(&mut rng);
        let route = overlay.route(initiator, fid).unwrap().path;
        let (delivery, overt) = driver
            .drive_overt(&mut overlay, &thas, initiator, fid, FILE_BYTES)
            .unwrap();
        let root = *route.last().unwrap();
        let core = Vec::new();
        assert_eq!(delivery, Delivery::ToDestination { node: root, core });
        assert_eq!(overt.overlay_hops + 1, route.len());
        assert_eq!(overt.elapsed, replay(&mut net, &endpoint_of, &route));
        for (l, hinted) in [(5usize, false), (5, true), (3, false), (3, true)] {
            let mut factory = ThaFactory::new(&mut rng, initiator);
            let mut hops = Vec::with_capacity(l);
            while hops.len() < l {
                let s = factory.next(&mut rng);
                if thas.insert(&overlay, s.hopid, s.stored()).unwrap() {
                    hops.push(s);
                }
            }
            let tunnel = Tunnel::new(hops);
            let hints = hinted.then(|| {
                let mut cache = HintCache::default();
                cache.refresh(&overlay, &tunnel.hop_ids());
                cache
            });
            let core = b"push";
            let onion =
                tunnel.build_onion(&mut rng, Destination::KeyRoot(fid), core, hints.as_ref());
            let options = TransitOptions {
                use_hints: hinted,
                ..TransitOptions::default()
            };
            let entry = tunnel.entry_hopid();
            let (_, logical) = transit::drive(
                &mut overlay,
                &thas,
                initiator,
                entry,
                onion.clone(),
                options,
            )
            .unwrap();
            let (_, wire) = driver
                .drive_timed_with_hints(
                    &mut overlay,
                    &thas,
                    initiator,
                    entry,
                    onion,
                    FILE_BYTES,
                    options,
                    None,
                )
                .unwrap();
            for h in tunnel.hop_ids() {
                thas.remove(h);
            }

            assert_eq!(
                logical.overlay_hops, wire.overlay_hops,
                "l {l}, hinted {hinted}"
            );
            let hops = wire.overlay_hops as u64;
            let onion_bytes = wire.bytes_on_wire - hops * FILE_BYTES;
            // Every hop carries what is left of the onion: the core at least.
            assert!(
                onion_bytes >= hops * core.len() as u64,
                "l {l}, hinted {hinted}"
            );
            let reference = replay(&mut net, &endpoint_of, &logical.node_path);
            // 1.5 Mb/s is 16/3 µs a byte; each message rounds its own
            // serialization up to the µs, on either side.
            let extra = wire.elapsed.as_micros() as i128 - reference.as_micros() as i128;
            let err = extra - i128::from(onion_bytes * 16 / 3);
            assert!(
                err.abs() <= i128::from(hops),
                "l {l}, hinted {hinted}: wire {} vs replay {} over {hops} hops, \
                 {onion_bytes} onion bytes",
                wire.elapsed,
                reference
            );
        }
    }
}
