//! The one file that names library entry points.
//!
//! Workloads speak *ops* (deploy a tunnel, seal, drive, retrieve, churn); this
//! file turns each op into calls on the public API of `tap-core`,
//! `tap-crypto`, `tap-pastry` and `tap-netsim`, with a span around every call
//! and, when the op is traced, a shadow for the layers the call hides (see
//! [`crate::trace`]). When the transfer engine is renamed or merged (ROADMAP
//! item 2) a follow-up benchmark change edits this file and no other.
//!
//! Registries are read through the libraries' own `metrics()` accessors, so
//! the benchmark does not depend on `tap-metrics`.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use tap_core::multipath::{form_disjoint_tunnels, send_striped, MultipathConfig};
use tap_core::retrieval::{retrieve_timed, RetrievalContext, StoredFile};
use tap_core::transit::{Delivery, TransitOptions};
use tap_core::wire::Destination;
use tap_core::{CoreInstruments, HintCache, Tha, ThaFactory, ThaSecret, Tunnel};
use tap_crypto::cipher::SymmetricKey;
use tap_crypto::ec::EcConfig;
use tap_crypto::onion::{LayerBuf, OnionBuilder};
use tap_crypto::pki::{KeyPair, SealedBox};
use tap_id::Id;
use tap_netsim::latency::UniformLatency;
use tap_netsim::{Event, FaultPlan, Network, NetworkConfig, SimDuration};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, OverlayCheckpoint, PastryConfig};

use crate::trace::{Sp, SpanId, Tracer};

/// A node identifier, opaque to the workloads.
pub type NodeId = Id;
/// The generator both of the benchmark's streams use.
pub type BenchRng = StdRng;

/// THA replication factor `k` (the paper's default).
const REPLICATION: usize = 3;
/// Base of the first-digit scatter rule when forming disjoint tunnels.
const SCATTER_B: u32 = 4;
/// Stripes, reconstruction threshold and resend budget of a striped send.
const STRIPES: u8 = 5;
const STRIPES_NEEDED: u8 = 3;
const RETRY_BUDGET: u32 = 6;
/// Loss / duplication (permille) and jitter of the lossy wire.
const LOSS_PERMILLE: u32 = 100;
const DUP_PERMILLE: u32 = 20;
const JITTER_MS: u64 = 50;
/// Tunnel length the onion probes seal and peel for.
const PROBE_L: usize = 5;

/// A generator for one `(seed, workload, op, stream)`.
pub fn rng_for(seed: u64, workload: u64, op: u64, stream: u64) -> BenchRng {
    StdRng::seed_from_u64(crate::stats::mix(&[seed, workload, op, stream]))
}

/// A formed tunnel (its hop secrets stay inside).
pub struct Circuit(Tunnel);

impl Circuit {
    pub fn hop_ids(&self) -> Vec<NodeId> {
        self.0.hop_ids()
    }
}

/// Deployed anchors not yet formed into tunnels.
pub struct Anchors(Vec<ThaSecret>);

impl Anchors {
    pub fn hop_ids(&self) -> Vec<NodeId> {
        self.0.iter().map(|s| s.hopid).collect()
    }
}

/// The initiator's hopid → node cache (`TAP_opt`).
pub struct Hints(HintCache);

/// Whether tunnel hops follow address hints (`TAP_opt`) or every hop is an
/// overlay route (`TAP_basic`).
pub enum Mode<'a> {
    Basic,
    Hinted(&'a mut Hints),
}

/// A delivered transfer: where the payload surfaced, as what, at what
/// simulated cost.
#[derive(Debug, Clone)]
pub struct Transfer {
    pub node: NodeId,
    pub bytes: Vec<u8>,
    pub cost: SimCost,
}

/// What one transfer did in simulated terms. All zero for an op that failed.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCost {
    pub virt_us: u64,
    pub wire_bytes: u64,
    pub overlay_hops: u64,
    pub retries: u64,
    /// Striped sends only.
    pub laggards_cancelled: u64,
    pub stripes_failed: u64,
    pub max_stripes_per_relay: u64,
}

/// Deterministic counters of the simulated network and overlay, read from
/// the libraries' registries and traffic statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounters {
    pub msgs_sent: u64,
    pub msgs_dropped: u64,
    pub fault_losses: u64,
    pub fault_dups: u64,
    pub queue_delay_us_mean: f64,
    pub timer_lag_us_max: u64,
    pub transit_retries: u64,
    pub stale_leafset_refs: u64,
    /// Routes the shadows repeated, and the overlay hops they took.
    pub shadow_routes: u64,
    pub shadow_route_hops: u64,
}

/// Overlay, stores and wire of one benchmark process.
pub struct World {
    overlay: Overlay,
    thas: ReplicaStore<Tha>,
    files: ReplicaStore<StoredFile>,
    driver: NetDriver,
    members: Vec<NodeId>,
    shadow_routes: u64,
    shadow_route_hops: u64,
}

type NetDriver = tap_core::netdrive::NetDriver<UniformLatency>;

/// Saved membership and anchors of a [`World`].
pub struct Checkpoint {
    overlay: OverlayCheckpoint,
    thas: ReplicaStore<Tha>,
}

impl World {
    /// Build the overlay (`nodes` joins), the stores and the wire, and
    /// register every member's endpoint. Returns the seconds the overlay
    /// build alone took beside the world. `fault_seed` installs the lossy
    /// wire's fault plan; `instrumented` (traced runs only) lets the driver
    /// count retries.
    pub fn build(
        seed: u64,
        nodes: usize,
        fault_seed: Option<u64>,
        instrumented: bool,
    ) -> (World, f64) {
        let mut rng = rng_for(seed, 0, 0, 0);
        let t0 = Instant::now();
        let mut overlay = Overlay::new(PastryConfig::paper_defaults());
        let members: Vec<NodeId> = (0..nodes)
            .map(|_| overlay.add_random_node(&mut rng))
            .collect();
        let overlay_s = t0.elapsed().as_secs_f64();

        let mut net = Network::new(NetworkConfig::paper_defaults(), UniformLatency::paper(seed));
        if let Some(fault_seed) = fault_seed {
            net.install_faults(
                FaultPlan::new(fault_seed)
                    .with_loss(LOSS_PERMILLE)
                    .with_duplication(DUP_PERMILLE)
                    .with_jitter(SimDuration::from_millis(JITTER_MS)),
            );
        }
        let instruments = instrumented.then(|| CoreInstruments::new(net.metrics()));
        let mut driver = NetDriver::new(net);
        if let Some(ins) = instruments {
            driver.use_instruments(ins);
        }
        for m in &members {
            driver.register(*m);
        }
        let world = World {
            overlay,
            thas: ReplicaStore::new(REPLICATION),
            files: ReplicaStore::new(REPLICATION),
            driver,
            members,
            shadow_routes: 0,
            shadow_route_hops: 0,
        };
        (world, overlay_s)
    }

    /// Save the membership and the anchor store, to [`World::restore`] later.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            overlay: self.overlay.checkpoint(),
            thas: self.thas.clone(),
        }
    }

    /// Undo every join, leave and replica move since `cp` was taken. The
    /// wire keeps its clock and its endpoints.
    pub fn restore(&mut self, cp: &Checkpoint) {
        self.overlay.rollback(&cp.overlay);
        self.thas = cp.thas.clone();
    }

    /// The nodes that joined at build time, in join order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    pub fn random_live_node(&self, rng: &mut BenchRng) -> NodeId {
        self.overlay
            .random_node(rng)
            .expect("the overlay never empties")
    }

    /// The node currently serving `key`.
    pub fn root_of(&self, key: NodeId) -> NodeId {
        self.overlay
            .owner_of(key)
            .expect("the overlay never empties")
    }

    /// Identifier whose root is `node` itself: the `bid` of a reply tunnel.
    pub fn bid_of(node: NodeId) -> NodeId {
        node.wrapping_add(Id::from_u64(1))
    }

    pub fn random_key(rng: &mut BenchRng) -> NodeId {
        Id::random(rng)
    }

    pub fn store_file(&mut self, fid: NodeId, data: Vec<u8>) {
        self.files
            .insert(&self.overlay, fid, StoredFile { data })
            .expect("the overlay never empties");
    }

    /// Generate and deploy `count` fresh anchors owned by `initiator`.
    pub fn deploy_anchors(
        &mut self,
        tr: &mut Tracer,
        rng: &mut BenchRng,
        initiator: NodeId,
        count: usize,
    ) -> Anchors {
        let span = tr.enter(Sp::ThaDeploy);
        let mut factory = ThaFactory::new(rng, initiator);
        let mut anchors = Vec::with_capacity(count);
        while anchors.len() < count {
            let secret = factory.next(rng);
            let insert = tr.enter(Sp::StorageInsert);
            let fresh = self
                .thas
                .insert(&self.overlay, secret.hopid, secret.stored())
                .expect("the overlay never empties");
            tr.exit(insert);
            if fresh {
                anchors.push(secret);
            }
        }
        tr.exit(span);
        Anchors(anchors)
    }

    /// Deploy `l` anchors and chain them into one tunnel.
    pub fn deploy_circuit(
        &mut self,
        tr: &mut Tracer,
        rng: &mut BenchRng,
        initiator: NodeId,
        l: usize,
    ) -> Circuit {
        Circuit(Tunnel::new(self.deploy_anchors(tr, rng, initiator, l).0))
    }

    /// Delete anchors (the owner's verified deletion, §3.4).
    pub fn remove_anchors(&mut self, tr: &mut Tracer, hop_ids: &[NodeId]) {
        let span = tr.enter(Sp::ThaRemove);
        for h in hop_ids {
            self.thas.remove(*h);
        }
        tr.exit(span);
    }

    /// A fresh hint cache refreshed for `hop_ids` (§5).
    pub fn refresh_hints(&self, tr: &mut Tracer, hop_ids: &[NodeId]) -> Hints {
        let span = tr.enter(Sp::HintRefresh);
        let mut cache = HintCache::default();
        cache.refresh(&self.overlay, hop_ids);
        tr.exit(span);
        Hints(cache)
    }

    /// Seal `core` for delivery to node `dest` through `circuit`.
    pub fn seal(
        &self,
        tr: &mut Tracer,
        rng: &mut BenchRng,
        circuit: &Circuit,
        dest: NodeId,
        core: &[u8],
        hints: Option<&Hints>,
    ) -> Vec<u8> {
        let span = tr.enter(Sp::BuildOnion);
        let onion = circuit
            .0
            .build_onion(rng, Destination::Node(dest), core, hints.map(|h| &h.0));
        tr.exit(span);
        onion
    }

    /// Drive a sealed onion through `circuit` as timed wire traffic.
    pub fn drive(
        &mut self,
        tr: &mut Tracer,
        from: NodeId,
        circuit: &Circuit,
        onion: Vec<u8>,
        mode: Mode<'_>,
    ) -> Result<Transfer, String> {
        // The shadows need the sealed bytes, which the drive consumes.
        let prep = tr.enter(Sp::ShadowPrep);
        let sealed_copy = tr.on().then(|| onion.clone());
        tr.exit(prep);
        let hinted = matches!(mode, Mode::Hinted(_));
        let (options, hints) = match mode {
            Mode::Basic => (TransitOptions::default(), None),
            Mode::Hinted(h) => (TransitOptions::hinted(), Some(&mut h.0)),
        };
        let span = tr.enter(Sp::Drive);
        let outcome = self.driver.drive_timed_with_hints(
            &mut self.overlay,
            &self.thas,
            from,
            circuit.0.entry_hopid(),
            onion,
            0,
            options,
            hints,
        );
        tr.exit(span);
        let (delivery, report) = outcome.map_err(|e| format!("transit failed: {e}"))?;
        if let Some(sealed) = sealed_copy {
            self.shadow_peel(tr, span, circuit, sealed)?;
            self.shadow_route(tr, span, from, circuit, hinted);
        }
        let Delivery::ToDestination { node, core } = delivery else {
            return Err("onion ended at an anchorless root".into());
        };
        Ok(Transfer {
            node,
            bytes: core,
            cost: SimCost {
                virt_us: report.elapsed.as_micros(),
                wire_bytes: report.bytes_on_wire,
                overlay_hops: report.overlay_hops as u64,
                ..SimCost::default()
            },
        })
    }

    /// What the hop nodes did inside the drive: peel every layer of the op's
    /// own onion again. The peeled core is checked by the caller's verify.
    fn shadow_peel(
        &self,
        tr: &mut Tracer,
        of: SpanId,
        circuit: &Circuit,
        sealed: Vec<u8>,
    ) -> Result<(), String> {
        let span = tr.enter_shadow(Sp::ShadowPeel, of);
        let mut buf = LayerBuf::from_vec(sealed);
        let mut ok = true;
        for hop in circuit.0.hops() {
            ok &= buf.peel(&hop.key).is_ok();
        }
        black_box(buf.len());
        tr.exit(span);
        ok.then_some(())
            .ok_or_else(|| "shadow peel rejected a layer".to_string())
    }

    /// What the overlay did inside the drive: route the op's own
    /// `(from, hopid)` pairs again. A hinted drive routes only to the entry
    /// hop; every later hop is a direct send.
    fn shadow_route(
        &mut self,
        tr: &mut Tracer,
        of: SpanId,
        from: NodeId,
        circuit: &Circuit,
        hinted: bool,
    ) {
        let prep = tr.enter(Sp::ShadowPrep);
        let hops = circuit.0.hop_ids();
        let routed = if hinted { 1 } else { hops.len() };
        let mut pairs = Vec::with_capacity(routed);
        let mut current = from;
        for hop in &hops[..routed] {
            pairs.push((current, *hop));
            current = self.root_of(*hop);
        }
        tr.exit(prep);
        let span = tr.enter_shadow(Sp::ShadowRoute, of);
        let mut route_hops = 0;
        for (src, key) in &pairs {
            route_hops += self.overlay.route(*src, *key).map_or(0, |o| o.hops());
        }
        tr.exit(span);
        self.shadow_routes += pairs.len() as u64;
        self.shadow_route_hops += route_hops as u64;
    }

    /// Form up to [`STRIPES`] node-disjoint tunnels of length `l` from `anchors`.
    pub fn form_disjoint(
        &self,
        tr: &mut Tracer,
        rng: &mut BenchRng,
        anchors: &Anchors,
        l: usize,
    ) -> Vec<Circuit> {
        let span = tr.enter(Sp::MpForm);
        let tunnels = form_disjoint_tunnels(rng, &anchors.0, STRIPES as usize, l, SCATTER_B);
        tr.exit(span);
        tunnels.into_iter().map(Circuit).collect()
    }

    /// Erasure-coded [`STRIPES`]/[`STRIPES_NEEDED`] striped send of `payload` over `circuits`.
    #[allow(clippy::too_many_arguments)]
    pub fn send_striped(
        &mut self,
        tr: &mut Tracer,
        rng: &mut BenchRng,
        from: NodeId,
        dest: NodeId,
        circuits: Vec<Circuit>,
        payload: &[u8],
        hints: &mut Hints,
    ) -> Result<Transfer, String> {
        let tunnels: Vec<Tunnel> = circuits.into_iter().map(|c| c.0).collect();
        let span = tr.enter(Sp::MpSend);
        let outcome = send_striped(
            &mut self.driver,
            &mut self.overlay,
            &self.thas,
            rng,
            from,
            dest,
            &tunnels,
            payload,
            MultipathConfig::new(STRIPES, STRIPES_NEEDED),
            TransitOptions {
                use_hints: true,
                retry_budget: RETRY_BUDGET,
            },
            Some(&mut hints.0),
            None,
        );
        tr.exit(span);
        let out = outcome.map_err(|e| format!("striped send failed: {e}"))?;
        if tr.on() {
            Self::shadow_ec(tr, span, payload)?;
        }
        let r = &out.report;
        Ok(Transfer {
            node: dest,
            cost: SimCost {
                virt_us: r.elapsed.as_micros(),
                wire_bytes: r.bytes_on_wire,
                overlay_hops: r.overlay_hops as u64,
                retries: r.retries,
                laggards_cancelled: r.laggards_cancelled as u64,
                stripes_failed: r.stripes_failed as u64,
                max_stripes_per_relay: u64::from(r.max_stripes_per_relay),
            },
            bytes: out.payload,
        })
    }

    /// The coding inside a striped send: encode the op's payload again and
    /// reconstruct it from the last `k` fragments (the parity-heavy case).
    fn shadow_ec(tr: &mut Tracer, of: SpanId, payload: &[u8]) -> Result<(), String> {
        let code = EcConfig::new(STRIPES, STRIPES_NEEDED).map_err(|e| e.to_string())?;
        let span = tr.enter_shadow(Sp::ShadowEcEncode, of);
        let fragments = code.encode(payload);
        tr.exit(span);
        let fragments = fragments.map_err(|e| e.to_string())?;
        let tail = &fragments[fragments.len() - STRIPES_NEEDED as usize..];
        let span = tr.enter_shadow(Sp::ShadowEcReconstruct, of);
        let decoded = code.reconstruct(tail);
        tr.exit(span);
        match decoded {
            Ok(d) if d.payload == payload => Ok(()),
            _ => Err("shadow reconstruct did not return the payload".into()),
        }
    }

    /// §4 anonymous retrieval of file `fid` at wire fidelity: request through
    /// `fwd`, file back through `rev`, both hinted.
    #[allow(clippy::too_many_arguments)]
    pub fn retrieve(
        &mut self,
        tr: &mut Tracer,
        rng: &mut BenchRng,
        initiator: NodeId,
        fid: NodeId,
        fwd: &Circuit,
        rev: &Circuit,
        hints: &mut Hints,
    ) -> Result<Transfer, String> {
        let span = tr.enter(Sp::Retrieve);
        let mut ctx = RetrievalContext {
            overlay: &mut self.overlay,
            thas: &self.thas,
            files: &self.files,
            // Instruments would switch the seal to another code path.
            metrics: None,
        };
        let outcome = retrieve_timed(
            rng,
            &mut ctx,
            &mut self.driver,
            initiator,
            fid,
            &fwd.0,
            &rev.0,
            Self::bid_of(initiator),
            Some(&mut hints.0),
            TransitOptions::hinted(),
        );
        tr.exit(span);
        let (file, report) = outcome.map_err(|e| format!("retrieval failed: {e}"))?;
        if tr.on() {
            Self::shadow_file_crypto(tr, span, &file)?;
        }
        Ok(Transfer {
            node: initiator,
            bytes: file,
            cost: SimCost {
                virt_us: (report.forward.elapsed + report.reply.elapsed).as_micros(),
                wire_bytes: report.forward.bytes_on_wire + report.reply.bytes_on_wire,
                overlay_hops: (report.forward.overlay_hops + report.reply.overlay_hops) as u64,
                ..SimCost::default()
            },
        })
    }

    /// The end-to-end crypto inside a retrieval, repeated on the same file:
    /// the temporary key pair, the file sealed under `K_f`, `K_f` boxed to
    /// the initiator, and both opened again.
    fn shadow_file_crypto(tr: &mut Tracer, of: SpanId, file: &[u8]) -> Result<(), String> {
        let mut rng = rng_for(file.len() as u64, 0, 0, 1);
        let span = tr.enter_shadow(Sp::ShadowKeygen, of);
        let k_i = KeyPair::generate(&mut rng);
        tr.exit(span);
        let k_f = SymmetricKey::generate(&mut rng);
        let span = tr.enter_shadow(Sp::ShadowFileSeal, of);
        let sealed = k_f.seal(&mut rng, file);
        tr.exit(span);
        let span = tr.enter_shadow(Sp::ShadowBoxSeal, of);
        let boxed = SealedBox::seal(&mut rng, &k_i.public(), k_f.as_bytes());
        tr.exit(span);
        let span = tr.enter_shadow(Sp::ShadowBoxOpen, of);
        let unboxed = k_i.open(&boxed);
        tr.exit(span);
        let span = tr.enter_shadow(Sp::ShadowFileOpen, of);
        let opened = k_f.open(&sealed);
        tr.exit(span);
        let key_ok = unboxed.is_ok_and(|k| k == k_f.as_bytes());
        let file_ok = opened.is_ok_and(|f| f == file);
        (key_ok && file_ok)
            .then_some(())
            .ok_or_else(|| "shadow file crypto did not round-trip".to_string())
    }

    /// `victim` leaves (or fails) and the THA store repairs around it.
    pub fn leave(&mut self, tr: &mut Tracer, victim: NodeId) {
        let span = tr.enter(Sp::Leave);
        self.overlay.remove_node(victim);
        tr.exit(span);
        let span = tr.enter(Sp::RepairLeave);
        self.thas.on_node_removed(&self.overlay, victim);
        tr.exit(span);
    }

    /// A node with a fresh random id joins and the THA store rebalances.
    pub fn join(&mut self, tr: &mut Tracer, rng: &mut BenchRng) -> NodeId {
        let span = tr.enter(Sp::Join);
        let id = self.overlay.add_random_node(rng);
        tr.exit(span);
        let span = tr.enter(Sp::RepairJoin);
        self.thas.on_node_added(&self.overlay, id);
        tr.exit(span);
        id
    }

    /// Hops of `circuit` no longer served by the node in `roots_at_deploy`:
    /// a replica candidate took the hop over.
    pub fn takeovers(&self, circuit: &Circuit, roots_at_deploy: &[NodeId]) -> u64 {
        circuit
            .0
            .hops()
            .iter()
            .zip(roots_at_deploy)
            .filter(|(hop, root)| self.thas.holders(hop.hopid).first() != Some(root))
            .count() as u64
    }

    pub fn counters(&mut self) -> SimCounters {
        let net = self.driver.network_mut();
        let stats = net.stats().clone();
        let wire = net.metrics().snapshot();
        let overlay = self.overlay.metrics().snapshot();
        SimCounters {
            msgs_sent: stats.messages_sent,
            msgs_dropped: stats.messages_dropped,
            fault_losses: wire.counter("netsim.fault.losses"),
            fault_dups: wire.counter("netsim.fault.dups"),
            queue_delay_us_mean: wire
                .histogram("netsim.queue_delay_us")
                .map_or(0.0, |h| h.mean()),
            timer_lag_us_max: wire.histogram("netsim.timer_lag_us").map_or(0, |h| h.max),
            transit_retries: wire.counter("core.transit.retries"),
            stale_leafset_refs: overlay.counter("pastry.stale_leafset_ref"),
            shadow_routes: self.shadow_routes,
            shadow_route_hops: self.shadow_route_hops,
        }
    }
}

/// Micro-probes of single layers, independent of the workload: each number
/// is the fastest of [`PROBE_ROUNDS`] rounds of a fixed amount of work. A
/// probe's only noise is interference from outside the process, which can
/// only slow a round down, so the fastest round is the least disturbed one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    pub seal_small_ns: f64,
    pub seal_bulk_mb_s: f64,
    pub peel_small_ns: f64,
    pub cipher_bulk_mb_s: f64,
    pub pingpong_ns_per_event: f64,
}

const PROBE_ROUNDS: usize = 7;

fn fastest_round_ns(mut round: impl FnMut()) -> f64 {
    (0..PROBE_ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            round();
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

pub fn run_probes(seed: u64) -> Probes {
    let mut rng = rng_for(seed, 0, 0, 2);
    let node = Id::random(&mut rng);
    let mut factory = ThaFactory::new(&mut rng, node);
    // The layers of an l = 5 tunnel as `build_onion` would lay them out.
    let hops: Vec<ThaSecret> = (0..PROBE_L).map(|_| factory.next(&mut rng)).collect();
    let layers: Vec<(SymmetricKey, Vec<u8>)> = hops
        .iter()
        .enumerate()
        .map(|(i, hop)| {
            let header = match hops.get(i + 1) {
                Some(next) => tap_core::wire::HopHeader::Forward {
                    next_hop: next.hopid,
                    hint: Some(node),
                },
                None => tap_core::wire::HopHeader::Deliver {
                    dest: Destination::Node(node),
                },
            };
            (hop.key, header.encode())
        })
        .collect();
    let mut builder = OnionBuilder::new();

    const SMALL_ITERS: usize = 1000;
    let small_core = [7u8; 4];
    let seal_small = fastest_round_ns(|| {
        for _ in 0..SMALL_ITERS {
            builder.seal(&mut rng, &layers, black_box(&small_core));
            black_box(builder.as_bytes());
        }
    });

    builder.seal(&mut rng, &layers, &small_core);
    let small_onion = builder.as_bytes().to_vec();
    let mut buf = LayerBuf::new();
    let peel_small = fastest_round_ns(|| {
        for _ in 0..SMALL_ITERS {
            buf.load(black_box(&small_onion));
            for (key, _) in &layers {
                black_box(buf.peel(key).is_ok());
            }
        }
    });

    const BULK_ITERS: usize = 10;
    let bulk_core = vec![0x5au8; 64 * 1024];
    let seal_bulk = fastest_round_ns(|| {
        for _ in 0..BULK_ITERS {
            builder.seal(&mut rng, &layers, black_box(&bulk_core));
            black_box(builder.as_bytes());
        }
    });

    const FILE_ITERS: usize = 6;
    let file = vec![0xa5u8; 250_000];
    let key = SymmetricKey::generate(&mut rng);
    let cipher_bulk = fastest_round_ns(|| {
        for _ in 0..FILE_ITERS {
            black_box(key.seal(&mut rng, black_box(&file)));
        }
    });

    const PING_EVENTS: usize = 20_000;
    let mut net: Network<u64, UniformLatency> =
        Network::new(NetworkConfig::paper_defaults(), UniformLatency::paper(seed));
    let (a, b) = (net.add_endpoint(), net.add_endpoint());
    let pingpong = fastest_round_ns(|| {
        net.send(a, b, 64, 0);
        for _ in 0..PING_EVENTS {
            match net.next_event() {
                Some(Event::Message(m)) => {
                    net.send(m.dst, m.src, 64, m.payload + 1);
                }
                other => panic!("ping-pong lost its message: {other:?}"),
            }
        }
        // Drain the last reply so the next round starts from an idle wire.
        black_box(net.next_event());
    });

    Probes {
        seal_small_ns: seal_small / SMALL_ITERS as f64,
        seal_bulk_mb_s: (BULK_ITERS * bulk_core.len()) as f64 / 1e6 / (seal_bulk / 1e9),
        peel_small_ns: peel_small / (SMALL_ITERS * PROBE_L) as f64,
        cipher_bulk_mb_s: (FILE_ITERS * file.len()) as f64 / 1e6 / (cipher_bulk / 1e9),
        pingpong_ns_per_event: pingpong / PING_EVENTS as f64,
    }
}

/// Fill `len` bytes from the workload stream.
pub fn random_bytes(rng: &mut BenchRng, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    rng.fill(&mut out[..]);
    out
}
