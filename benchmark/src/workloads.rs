//! The five workloads, written in ops of [`crate::adapter`].
//!
//! Every op deploys fresh anchors, transfers, checks every delivered byte and
//! removes its anchors again, so the stores are as large at op `n` as at op
//! 0 and ops can be timed as one population.
//!
//! Two generators per op, each a pure function of `(seed, workload, op)`: the
//! **workload** stream draws the inputs (initiator, destination, payload,
//! churn victims, joining ids) and the **library** stream is what the library
//! calls consume (anchor keys, nonces, ephemeral keys, shuffles). A library
//! change that draws more or fewer random words therefore cannot move any
//! later op's inputs.

use std::borrow::Cow;

use rand::Rng as _;

use crate::adapter::{self, BenchRng, Circuit, Mode, NodeId, SimCost, Transfer, World};
use crate::trace::{Sp, Tracer};

/// Seed of the world: overlay membership, link latencies, stored files and
/// standing tunnels are the same testbed on every run, and `--seed` draws the
/// traffic sent over it. An overlay built from another seed routes in 4 %
/// more or fewer hops on average, which would otherwise sit on top of every
/// number as run-to-run spread that no code change causes.
const WORLD_SEED: u64 = 20040815;

const STREAM_WORKLOAD: u64 = 1;
const STREAM_LIBRARY: u64 = 2;

/// Tunnel length of the single-path workloads (the paper's default `l`).
const L: usize = 5;
/// Tunnel length and anchor pool of a striped send (5 stripes × l = 3 hops,
/// drawn from twice as many anchors so disjoint formation has slack).
const STRIPE_L: usize = 3;
const STRIPE_POOL: usize = 30;
const SMALL_PAYLOAD: usize = 64;
const STRIPED_PAYLOAD: usize = 9216;
/// 2 Mb, the file size of the paper's Fig. 6.
const FILE_BYTES: usize = 250_000;
const FILES: usize = 16;
/// Initiators of the standing tunnels; churn never removes them.
const CLIENTS: usize = 64;
/// Leave + join pairs before each transfer of `churn_repair`.
const CHURN_EVENTS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SmallHinted,
    SmallRouted,
    Retrieve2mb,
    StripedLossy,
    ChurnRepair,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SmallHinted,
        Workload::SmallRouted,
        Workload::Retrieve2mb,
        Workload::StripedLossy,
        Workload::ChurnRepair,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SmallHinted => "small_hinted",
            Workload::SmallRouted => "small_routed",
            Workload::Retrieve2mb => "retrieve_2mb",
            Workload::StripedLossy => "striped_lossy",
            Workload::ChurnRepair => "churn_repair",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops of the **sim prefix**: the simulated metrics, the digest and every
    /// count are taken over exactly the first this-many ops, so they are the
    /// same on a fast host and a slow one. A run goes on until both the
    /// prefix and `--seconds` are done; the sizes are a third to four fifths
    /// of what the reference host does in the committed `run_seconds`, the
    /// larger shares where a 99th percentile needs the samples.
    pub fn sim_ops(self) -> u64 {
        match self {
            Workload::SmallHinted => 45_000,
            Workload::SmallRouted => 30_000,
            Workload::Retrieve2mb => 3_000,
            Workload::StripedLossy => 9_000,
            Workload::ChurnRepair => 9_000,
        }
    }

    fn tag(self) -> u64 {
        self as u64 + 1
    }

    fn lossy(self) -> bool {
        self == Workload::StripedLossy
    }

    /// Ops after which the world goes back to its state after set-up.
    ///
    /// Sustained churn wears this overlay's routing state out (mean route
    /// length 3.5 hops after set-up, 3.9 after 1 500 ops, 6.7 after 8 000 and
    /// still rising), so an unbroken run would measure a different system
    /// the longer it ran. An epoch replaces a fifth of the membership.
    pub fn epoch_ops(self) -> Option<u64> {
        (self == Workload::ChurnRepair).then_some(500)
    }
}

/// State that outlives ops: stored files, and the standing tunnels with the
/// roots their hops had when they were deployed.
#[derive(Default)]
pub struct Standing {
    files: Vec<(NodeId, Vec<u8>)>,
    clients: Vec<NodeId>,
    tunnels: Vec<StandingTunnel>,
}

struct StandingTunnel {
    client: NodeId,
    circuit: Circuit,
    roots_at_deploy: Vec<NodeId>,
}

/// Seconds of one set-up, and its overlay-build part.
pub struct SetupTimes {
    pub total_s: f64,
    pub overlay_s: f64,
}

/// Overlay, endpoints and the workload's standing state. `seed` reaches
/// only the lossy wire's fault plan; the rest is the fixed world.
pub fn setup(
    w: Workload,
    seed: u64,
    nodes: usize,
    instrumented: bool,
) -> (World, Standing, SetupTimes) {
    let t0 = std::time::Instant::now();
    let fault_seed = w.lossy().then_some(seed);
    let (mut world, overlay_s) = World::build(WORLD_SEED, nodes, fault_seed, instrumented);
    let mut rng = adapter::rng_for(WORLD_SEED, w.tag(), 0, 0);
    let mut off = Tracer::new();
    let mut standing = Standing::default();
    match w {
        Workload::Retrieve2mb => {
            for _ in 0..FILES {
                let fid = World::random_key(&mut rng);
                let data = adapter::random_bytes(&mut rng, FILE_BYTES);
                world.store_file(fid, data.clone());
                standing.files.push((fid, data));
            }
        }
        Workload::ChurnRepair => {
            standing.clients = world.members()[..CLIENTS.min(nodes)].to_vec();
            // 5 000 standing tunnels (25 000 anchors) at the default 10 000
            // nodes; scaled down with the overlay for the small test runs.
            for i in 0..nodes / 2 {
                let client = standing.clients[i % standing.clients.len()];
                let circuit = world.deploy_circuit(&mut off, &mut rng, client, L);
                let roots_at_deploy = circuit
                    .hop_ids()
                    .iter()
                    .map(|h| world.root_of(*h))
                    .collect();
                standing.tunnels.push(StandingTunnel {
                    client,
                    circuit,
                    roots_at_deploy,
                });
            }
        }
        _ => {}
    }
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        overlay_s,
    };
    (world, standing, times)
}

/// What one op did: whether the right node got the right bytes, and the
/// simulated cost.
#[derive(Debug, Clone, Default)]
pub struct OpOutcome {
    pub delivered: bool,
    pub error: Option<String>,
    pub cost: SimCost,
    /// `churn_repair`: hops of the op's tunnel served by a replica candidate.
    pub takeovers: u64,
}

struct Expect<'a> {
    node: NodeId,
    bytes: Cow<'a, [u8]>,
}

/// Run op number `op`. With `corrupt_expected` the op checks the delivery
/// against a payload with one bit flipped, which must be reported as a
/// failure: the test that the byte check can fail at all.
pub fn run_op(
    w: Workload,
    world: &mut World,
    standing: &Standing,
    tr: &mut Tracer,
    seed: u64,
    op: u64,
    corrupt_expected: bool,
) -> OpOutcome {
    let root = tr.enter(Sp::Op);
    let mut wl = adapter::rng_for(seed, w.tag(), op, STREAM_WORKLOAD);
    let mut lib = adapter::rng_for(seed, w.tag(), op, STREAM_LIBRARY);
    let (result, mut expect, takeovers) = match w {
        Workload::SmallHinted => small(world, tr, &mut wl, &mut lib, true),
        Workload::SmallRouted => small(world, tr, &mut wl, &mut lib, false),
        Workload::Retrieve2mb => retrieve(world, standing, tr, &mut wl, &mut lib),
        Workload::StripedLossy => striped(world, tr, &mut wl, &mut lib),
        Workload::ChurnRepair => churn(world, standing, tr, &mut wl, &mut lib),
    };
    if corrupt_expected {
        expect.bytes.to_mut()[0] ^= 1;
    }
    let verify = tr.enter(Sp::Verify);
    let outcome = match result {
        Ok(xfer) => {
            let error = if xfer.node != expect.node {
                Some(format!(
                    "delivered to {:?}, not {:?}",
                    xfer.node, expect.node
                ))
            } else if xfer.bytes != *expect.bytes {
                Some("delivered bytes differ from the payload".to_string())
            } else {
                None
            };
            OpOutcome {
                delivered: error.is_none(),
                error,
                cost: xfer.cost,
                takeovers,
            }
        }
        Err(e) => OpOutcome {
            error: Some(e),
            ..OpOutcome::default()
        },
    };
    tr.exit(verify);
    tr.exit(root);
    outcome
}

type OpResult<'a> = (Result<Transfer, String>, Expect<'a>, u64);

/// Two distinct members: the initiator and the destination.
fn endpoints(world: &World, wl: &mut BenchRng) -> (NodeId, NodeId) {
    let members = world.members();
    let a = wl.gen_range(0..members.len());
    let mut b = wl.gen_range(0..members.len() - 1);
    if b >= a {
        b += 1;
    }
    (members[a], members[b])
}

/// 64-byte core through a fresh l = 5 tunnel, `TAP_opt` or `TAP_basic`.
fn small(
    world: &mut World,
    tr: &mut Tracer,
    wl: &mut BenchRng,
    lib: &mut BenchRng,
    hinted: bool,
) -> OpResult<'static> {
    let inputs = tr.enter(Sp::Inputs);
    let (initiator, dest) = endpoints(world, wl);
    let payload = adapter::random_bytes(wl, SMALL_PAYLOAD);
    tr.exit(inputs);

    let circuit = world.deploy_circuit(tr, lib, initiator, L);
    let hop_ids = circuit.hop_ids();
    let result = if hinted {
        let mut hints = world.refresh_hints(tr, &hop_ids);
        let onion = world.seal(tr, lib, &circuit, dest, &payload, Some(&hints));
        world.drive(tr, initiator, &circuit, onion, Mode::Hinted(&mut hints))
    } else {
        let onion = world.seal(tr, lib, &circuit, dest, &payload, None);
        world.drive(tr, initiator, &circuit, onion, Mode::Basic)
    };
    world.remove_anchors(tr, &hop_ids);
    let expect = Expect {
        node: dest,
        bytes: Cow::Owned(payload),
    };
    (result, expect, 0)
}

/// §4 retrieval of one of the stored 2 Mb files over a forward and a
/// distinct reply tunnel.
fn retrieve<'a>(
    world: &mut World,
    standing: &'a Standing,
    tr: &mut Tracer,
    wl: &mut BenchRng,
    lib: &mut BenchRng,
) -> OpResult<'a> {
    let inputs = tr.enter(Sp::Inputs);
    let members = world.members();
    let initiator = members[wl.gen_range(0..members.len())];
    let (fid, file) = &standing.files[wl.gen_range(0..standing.files.len())];
    tr.exit(inputs);

    let fwd = world.deploy_circuit(tr, lib, initiator, L);
    let rev = world.deploy_circuit(tr, lib, initiator, L);
    let hop_ids = [fwd.hop_ids(), rev.hop_ids()].concat();
    let mut hints = world.refresh_hints(tr, &hop_ids);
    let result = world.retrieve(tr, lib, initiator, *fid, &fwd, &rev, &mut hints);
    world.remove_anchors(tr, &hop_ids);
    let expect = Expect {
        node: initiator,
        bytes: Cow::Borrowed(file),
    };
    (result, expect, 0)
}

/// 9 216 bytes, Reed–Solomon 5/3 over five disjoint l = 3 tunnels, on a wire
/// that loses, duplicates and delays.
fn striped(
    world: &mut World,
    tr: &mut Tracer,
    wl: &mut BenchRng,
    lib: &mut BenchRng,
) -> OpResult<'static> {
    let inputs = tr.enter(Sp::Inputs);
    let (initiator, dest) = endpoints(world, wl);
    let payload = adapter::random_bytes(wl, STRIPED_PAYLOAD);
    tr.exit(inputs);

    let anchors = world.deploy_anchors(tr, lib, initiator, STRIPE_POOL);
    let hop_ids = anchors.hop_ids();
    let circuits = world.form_disjoint(tr, lib, &anchors, STRIPE_L);
    let used: Vec<NodeId> = circuits.iter().flat_map(Circuit::hop_ids).collect();
    let mut hints = world.refresh_hints(tr, &used);
    let result = world.send_striped(tr, lib, initiator, dest, circuits, &payload, &mut hints);
    world.remove_anchors(tr, &hop_ids);
    let expect = Expect {
        node: dest,
        bytes: Cow::Owned(payload),
    };
    (result, expect, 0)
}

/// Four leave + join pairs with replica repair, then one `TAP_basic`
/// transfer through a standing tunnel whose hop nodes may be gone.
fn churn(
    world: &mut World,
    standing: &Standing,
    tr: &mut Tracer,
    wl: &mut BenchRng,
    lib: &mut BenchRng,
) -> OpResult<'static> {
    for _ in 0..CHURN_EVENTS {
        let inputs = tr.enter(Sp::Inputs);
        let victim = loop {
            let v = world.random_live_node(wl);
            if !standing.clients.contains(&v) {
                break v;
            }
        };
        tr.exit(inputs);
        world.leave(tr, victim);
        world.join(tr, wl);
    }

    let inputs = tr.enter(Sp::Inputs);
    let tunnel = &standing.tunnels[wl.gen_range(0..standing.tunnels.len())];
    let dest = loop {
        let d = world.random_live_node(wl);
        if d != tunnel.client {
            break d;
        }
    };
    let payload = adapter::random_bytes(wl, SMALL_PAYLOAD);
    tr.exit(inputs);

    let onion = world.seal(tr, lib, &tunnel.circuit, dest, &payload, None);
    let result = world.drive(tr, tunnel.client, &tunnel.circuit, onion, Mode::Basic);
    let takeovers = world.takeovers(&tunnel.circuit, &tunnel.roots_at_deploy);
    let expect = Expect {
        node: dest,
        bytes: Cow::Owned(payload),
    };
    (result, expect, takeovers)
}
