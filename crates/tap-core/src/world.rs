//! [`World`]: one TAP deployment, the stack wired together once.
//!
//! A world owns the Pastry overlay, the PAST stores that replicate THAs
//! and files `k` ways, the RNG every operation draws from and the metrics
//! registry every layer records into. It offers what a deployment offers
//! its users — join and leave with replica repair, anchor deployment
//! (directly or over an Onion-Routing bootstrap path, §3.3), tunnel
//! formation and teardown (§3.4–§3.5), anonymous file storage and
//! retrieval (§4) — and it hands a trial the wire engine over its members
//! ([`World::net_driver`]). Every figure and the examples run on it.
//!
//! **Draw order.** [`World::build`] draws only the node ids, and
//! [`World::deploy_tunnels`] only the owner and anchors of each tunnel, in
//! the order the figures have always drawn them. The bootstrap PKI's
//! keypairs and each node's own anchor factory draw from the RNG when they
//! are first needed, so a world no figure deploys anchors on through them
//! never pays for them.

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tap_crypto::KeyPair;
use tap_id::Id;
use tap_metrics::Registry;
use tap_netsim::latency::LatencyModel;
use tap_netsim::{Network, NetworkConfig};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, PastryConfig};

use crate::deploy::{self, DeployError};
use crate::metrics::CoreInstruments;
use crate::netdrive::NetDriver;
use crate::retrieval::{self, RetrievalError, RetrievalReport, StoredFile};
use crate::tha::{Tha, ThaFactory, ThaSecret};
use crate::transit::{HintCache, TransitOptions};
use crate::tunnel::Tunnel;

/// The paper's tunnel length `l`: the length of every tunnel
/// [`World::retrieve_file`] forms.
pub const TUNNEL_LENGTH: usize = 5;

/// Relays on an Onion-Routing bootstrap path ("a number (e.g., 3-5) of
/// THAs" are deployed per session; one relay stores one anchor).
const BOOTSTRAP_PATH_LEN: usize = 3;

/// Why a world operation could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldError {
    /// The world has no live node.
    Empty,
    /// The node is not a live member: it never joined, or it left.
    NotMember(Id),
    /// The node's anchor pool holds too few unused anchors for a tunnel.
    PoolTooSmall(Id),
    /// Fewer live nodes besides the depositor than a bootstrap path has
    /// relays.
    TooFewRelays {
        /// Relays one bootstrap path needs.
        needed: usize,
        /// Live nodes other than the depositor.
        available: usize,
    },
    /// Every bootstrap path tried failed; the last failure.
    Deploy(DeployError),
    /// The retrieval protocol failed.
    Retrieval(RetrievalError),
}

impl std::fmt::Display for WorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorldError::Empty => write!(f, "the world has no live node"),
            WorldError::NotMember(node) => write!(f, "{node:?} is not a live member"),
            WorldError::PoolTooSmall(node) => {
                write!(f, "{node:?} has too few unused anchors for a tunnel")
            }
            WorldError::TooFewRelays { needed, available } => write!(
                f,
                "a bootstrap path needs {needed} relays, {available} other live nodes exist"
            ),
            WorldError::Deploy(e) => write!(f, "deployment failed: {e}"),
            WorldError::Retrieval(e) => write!(f, "retrieval failed: {e}"),
        }
    }
}

impl std::error::Error for WorldError {}

/// A simulated TAP deployment in one process.
#[derive(Clone)]
pub struct World {
    /// The Pastry overlay.
    pub overlay: Overlay,
    /// The replicated THA store.
    pub thas: ReplicaStore<Tha>,
    /// The replicated file store (PAST).
    pub files: ReplicaStore<StoredFile>,
    /// The world's randomness: every operation draws from it.
    pub rng: StdRng,
    /// Leading zero bits the deposit puzzle of [`World::deploy_anchors`]
    /// demands (0, the default, makes deposits free).
    pub puzzle_difficulty: u8,
    /// Every node that ever joined, in join order.
    joined: Vec<Id>,
    /// The bootstrap PKI, made on first use.
    keys: HashMap<Id, KeyPair>,
    /// Each node's own anchor factory, made on first use.
    factories: HashMap<Id, ThaFactory>,
    /// Each node's deployed but unused anchors.
    anchors: HashMap<Id, Vec<ThaSecret>>,
    metrics: Registry,
}

impl World {
    /// `nodes` nodes joined one by one, ids drawn from `seed`'s RNG; both
    /// stores replicate `pastry.replication` ways and every layer records
    /// into one fresh registry.
    pub fn build(pastry: PastryConfig, nodes: usize, seed: u64) -> World {
        let metrics = Registry::new();
        let mut world = World {
            overlay: Overlay::new(pastry),
            thas: ReplicaStore::new(pastry.replication),
            files: ReplicaStore::new(pastry.replication),
            rng: StdRng::seed_from_u64(seed),
            puzzle_difficulty: 0,
            joined: Vec::with_capacity(nodes),
            keys: HashMap::new(),
            factories: HashMap::new(),
            anchors: HashMap::new(),
            metrics: metrics.clone(),
        };
        world.use_metrics(metrics);
        for _ in 0..nodes {
            world.join();
        }
        world
    }

    /// A copy-on-write copy for one trial: the same members, stores and
    /// anchor pools, drawing from `rng` and recording into `metrics`.
    pub fn fork(&self, rng: StdRng, metrics: &Registry) -> World {
        let mut world = self.clone();
        world.rng = rng;
        world.use_metrics(metrics.clone());
        world
    }

    /// Record every layer's metrics — overlay, both stores and tap-core's
    /// own instruments — into `registry` from now on.
    pub fn use_metrics(&mut self, registry: Registry) {
        self.overlay.use_metrics(registry.clone());
        self.thas.use_metrics(registry.clone());
        self.files.use_metrics(registry.clone());
        self.metrics = registry;
    }

    /// The registry this world records into.
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Every node that ever joined, in join order; departed ones included.
    pub fn joined(&self) -> &[Id] {
        &self.joined
    }

    /// A uniformly random live node.
    pub fn random_node(&mut self) -> Result<Id, WorldError> {
        self.overlay
            .random_node(&mut self.rng)
            .ok_or(WorldError::Empty)
    }

    /// Join a fresh node and rebalance both stores onto it.
    pub fn join(&mut self) -> Id {
        let id = self.overlay.add_random_node(&mut self.rng);
        self.joined.push(id);
        self.thas.on_node_added(&self.overlay, id);
        self.files.on_node_added(&self.overlay, id);
        id
    }

    /// Remove a node; `false` if it was not live. With `repair`, the
    /// replication manager re-replicates at once what the node held — the
    /// steady churn of Fig. 5. Without it nothing migrates — the
    /// simultaneous failures of Fig. 2 — and later repairs may miss what
    /// the node held (`ReplicaStore`'s repair contract).
    pub fn leave(&mut self, id: Id, repair: bool) -> bool {
        if !self.overlay.remove_node(id) {
            return false;
        }
        if repair {
            self.thas.on_node_removed(&self.overlay, id);
            self.files.on_node_removed(&self.overlay, id);
        }
        true
    }

    /// The world's anchors placed afresh on a store that replicates them
    /// `k` ways over the same overlay, recording into `metrics`.
    pub fn thas_replicated(&self, k: usize, metrics: &Registry) -> ReplicaStore<Tha> {
        let mut store = ReplicaStore::new(k);
        store.use_metrics(metrics.clone());
        for (hopid, rec) in self.thas.iter() {
            // Fails only on an empty overlay, which holds no replica.
            let _ = store.insert(&self.overlay, hopid, rec.value.clone());
        }
        store
    }

    /// `count` fresh anchors for `owner` from a factory with a fresh
    /// `hkey`, each stored in the THA store; a hopid the store already
    /// holds is redrawn.
    pub fn fresh_hops(&mut self, owner: Id, count: usize) -> Result<Vec<ThaSecret>, WorldError> {
        let mut factory = ThaFactory::new(&mut self.rng, owner);
        let mut hops = Vec::with_capacity(count);
        while hops.len() < count {
            let s = factory.next(&mut self.rng);
            if self
                .thas
                .insert(&self.overlay, s.hopid, s.stored())
                .map_err(|_| WorldError::Empty)?
            {
                hops.push(s);
            }
        }
        Ok(hops)
    }

    /// `count` tunnels of `l >= 1` fresh hops, each owned by a random live
    /// node. An empty world has no node to own one, and gets none.
    pub fn deploy_tunnels(&mut self, count: usize, l: usize) -> Vec<(Id, Tunnel)> {
        debug_assert!(l >= 1, "a tunnel has at least one hop");
        let mut tunnels = Vec::with_capacity(count);
        for _ in 0..count {
            let Ok(owner) = self.random_node() else { break };
            let Ok(hops) = self.fresh_hops(owner, l) else {
                break;
            };
            tunnels.push((owner, Tunnel::new(hops)));
        }
        tunnels
    }

    /// Delete anchors from the store (§3.4); returns how many were there.
    /// The world deployed them and holds their passwords, so the §3.4
    /// password proof would always pass and is skipped, as
    /// [`World::deploy_anchors_direct`] skips the bootstrap crypto.
    pub fn teardown(&mut self, hops: &[ThaSecret]) -> usize {
        hops.iter()
            .filter(|h| self.thas.remove(h.hopid).is_some())
            .count()
    }

    /// A node's deployed but unused anchors.
    pub fn anchor_pool(&self, node: Id) -> &[ThaSecret] {
        self.anchors.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Deploy `count` anchors from `node`'s own factory straight into the
    /// store, skipping the onion bootstrap: the replica placement is that
    /// of [`World::deploy_anchors`], and only its (separately tested)
    /// crypto is left out. Returns how many were stored.
    pub fn deploy_anchors_direct(&mut self, node: Id, count: usize) -> Result<usize, WorldError> {
        if !self.overlay.is_live(node) {
            return Err(WorldError::NotMember(node));
        }
        let mut done = 0;
        for _ in 0..count {
            let secret = self.next_anchor(node);
            if let Ok(true) = self
                .thas
                .insert(&self.overlay, secret.hopid, secret.stored())
            {
                self.anchors.entry(node).or_default().push(secret);
                done += 1;
            }
        }
        Ok(done)
    }

    /// Deploy `count` anchors for `node` through Onion-Routing bootstrap
    /// paths of random relays (§3.3), `BOOTSTRAP_PATH_LEN` anchors a path,
    /// trying a new path after each of up to `max_attempts` failed ones
    /// ("try to use another Onion path … until the first anonymous tunnel
    /// is able to be formed"). A world with fewer other live nodes than a
    /// path has relays is refused before anything is drawn.
    pub fn deploy_anchors(
        &mut self,
        node: Id,
        count: usize,
        max_attempts: usize,
    ) -> Result<usize, WorldError> {
        if !self.overlay.is_live(node) {
            return Err(WorldError::NotMember(node));
        }
        // The first path is the longest; later ones carry the remainder.
        let needed = BOOTSTRAP_PATH_LEN.min(count);
        let available = self.overlay.len() - 1;
        if available < needed {
            return Err(WorldError::TooFewRelays { needed, available });
        }
        let mut deployed = 0;
        let mut attempts_left = max_attempts;
        let mut last_err = DeployError::Mismatched;
        while deployed < count {
            if attempts_left == 0 {
                return Err(WorldError::Deploy(last_err));
            }
            let path_len = BOOTSTRAP_PATH_LEN.min(count - deployed);
            let secrets: Vec<ThaSecret> = (0..path_len).map(|_| self.next_anchor(node)).collect();
            let stored: Vec<Tha> = secrets.iter().map(ThaSecret::stored).collect();
            let relays = self.pick_relays(node, path_len);
            for &relay in &relays {
                self.keys
                    .entry(relay)
                    .or_insert_with(|| KeyPair::generate(&mut self.rng));
            }
            match deploy::deploy_via_onion(
                &mut self.rng,
                &self.overlay,
                &mut self.thas,
                &self.keys,
                &relays,
                &stored,
                self.puzzle_difficulty,
            ) {
                Ok(_) => {
                    deployed += path_len;
                    self.anchors.entry(node).or_default().extend(secrets);
                }
                Err(e) => {
                    last_err = e;
                    attempts_left -= 1;
                }
            }
        }
        Ok(deployed)
    }

    /// The next anchor from `node`'s own factory, made on first use.
    fn next_anchor(&mut self, node: Id) -> ThaSecret {
        let factory = self
            .factories
            .entry(node)
            .or_insert_with(|| ThaFactory::new(&mut self.rng, node));
        factory.next(&mut self.rng)
    }

    fn pick_relays(&mut self, exclude: Id, count: usize) -> Vec<Id> {
        let mut out = Vec::with_capacity(count);
        let mut guard = 0;
        while out.len() < count && guard < 10_000 {
            guard += 1;
            if let Some(n) = self.overlay.random_node(&mut self.rng) {
                if n != exclude && !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Form a tunnel of length `l` from `node`'s anchor pool, consuming
    /// the anchors it uses (an anchor anchors one hop of one tunnel; reuse
    /// would link tunnels). `None` if the pool is too small.
    pub fn form_tunnel(&mut self, node: Id, l: usize) -> Option<Tunnel> {
        let pool = self.anchors.get_mut(&node)?;
        let b = self.overlay.config().b;
        let tunnel = Tunnel::form_scattered(&mut self.rng, pool, l, b)?;
        let used: HashSet<Id> = tunnel.hop_ids().into_iter().collect();
        pool.retain(|s| !used.contains(&s.hopid));
        Some(tunnel)
    }

    /// A `bid` for `node`: an identifier that is not the node's id (which
    /// would name it outright) but whose root the node is (§4: "an
    /// identifier subject to a condition that I is the node whose nodeid
    /// is numerically closest to it").
    pub fn choose_bid(&mut self, node: Id) -> Result<Id, WorldError> {
        if !self.overlay.is_live(node) {
            return Err(WorldError::NotMember(node));
        }
        // A live node owns the ids next to its own, so the draw ends: ids
        // are uniform in a 160-bit space, and an offset under 2^40 stays
        // closest to the node unless another node lies within it. The
        // owner is checked anyway and the draw repeated if it moved.
        loop {
            let off = Id::from_u64(self.rng.gen_range(1u64..=u64::MAX >> 24));
            let bid = if self.rng.gen_bool(0.5) {
                node.wrapping_add(off)
            } else {
                node.wrapping_sub(off)
            };
            if bid != node && self.overlay.owner_of(bid) == Some(node) {
                return Ok(bid);
            }
        }
    }

    /// Store a file under a random fid; returns the fid.
    pub fn store_file(&mut self, data: Vec<u8>) -> Result<Id, WorldError> {
        loop {
            let fid = Id::random(&mut self.rng);
            let file = StoredFile { data: data.clone() };
            match self.files.insert(&self.overlay, fid, file) {
                Ok(true) => return Ok(fid),
                Ok(false) => continue,
                Err(_) => return Err(WorldError::Empty),
            }
        }
    }

    /// Anonymously retrieve `fid` for `initiator` (§4): form a forward
    /// and a distinct reply tunnel of [`TUNNEL_LENGTH`] from its anchor
    /// pool and run the protocol. With `use_hints`, onion headers carry
    /// the hop nodes' addresses (§5, `TAP_opt`).
    pub fn retrieve_file(
        &mut self,
        initiator: Id,
        fid: Id,
        use_hints: bool,
    ) -> Result<(Vec<u8>, RetrievalReport), WorldError> {
        if !self.overlay.is_live(initiator) {
            return Err(WorldError::NotMember(initiator));
        }
        let fwd = self
            .form_tunnel(initiator, TUNNEL_LENGTH)
            .ok_or(WorldError::PoolTooSmall(initiator))?;
        let rev = self
            .form_tunnel(initiator, TUNNEL_LENGTH)
            .ok_or(WorldError::PoolTooSmall(initiator))?;
        let bid = self.choose_bid(initiator)?;
        let hints = use_hints.then(|| {
            let mut cache = HintCache::default();
            let mut ids = fwd.hop_ids();
            ids.extend(rev.hop_ids());
            cache.refresh(&self.overlay, &ids);
            cache
        });
        let instruments = CoreInstruments::new(&self.metrics);
        let mut ctx = retrieval::RetrievalContext {
            overlay: &mut self.overlay,
            thas: &self.thas,
            files: &self.files,
            metrics: Some(&instruments),
        };
        retrieval::retrieve(
            &mut self.rng,
            &mut ctx,
            initiator,
            fid,
            &fwd,
            &rev,
            bid,
            hints.as_ref(),
            TransitOptions {
                use_hints,
                ..TransitOptions::default()
            },
        )
        .map_err(WorldError::Retrieval)
    }

    /// The wire engine over this world: a fresh paper-default network
    /// whose links `latency` draws, recording into the world's registry,
    /// with every live member registered in join order (both link models
    /// draw a link from its endpoint ids, so the order fixes the wire).
    pub fn net_driver<L: LatencyModel>(&self, latency: L) -> NetDriver<L> {
        let mut net = Network::new(NetworkConfig::paper_defaults(), latency);
        net.use_metrics(self.metrics.clone());
        let mut driver = NetDriver::new(net);
        for &id in &self.joined {
            if self.overlay.is_live(id) {
                driver.register(id);
            }
        }
        driver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world(n: usize, seed: u64) -> World {
        World::build(PastryConfig::paper_defaults(), n, seed)
    }

    #[test]
    fn build_joins_every_node_in_order() {
        let w = world(120, 1);
        assert_eq!(w.overlay.len(), 120);
        assert_eq!(w.joined().len(), 120);
        assert!(w.joined().iter().all(|id| w.overlay.is_live(*id)));
        w.overlay.assert_leafsets_exact();
    }

    #[test]
    fn deploy_and_form_tunnel() {
        let mut w = world(120, 2);
        let node = w.random_node().unwrap();
        assert_eq!(w.deploy_anchors(node, 12, 8), Ok(12));
        assert_eq!(w.anchor_pool(node).len(), 12);
        let t = w.form_tunnel(node, TUNNEL_LENGTH).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(w.anchor_pool(node).len(), 7, "anchors are consumed");
        // The anchors are really in the store, on the k closest nodes.
        for h in t.hop_ids() {
            assert_eq!(w.thas.holders(h), w.overlay.k_closest(h, 3));
        }
    }

    #[test]
    fn direct_deploy_equivalent_placement() {
        let mut w = world(100, 3);
        let node = w.random_node().unwrap();
        assert_eq!(w.deploy_anchors_direct(node, 10), Ok(10));
        for s in w.anchor_pool(node).to_vec() {
            assert_eq!(w.thas.holders(s.hopid), w.overlay.k_closest(s.hopid, 3));
        }
    }

    #[test]
    fn end_to_end_anonymous_retrieval() {
        let mut w = world(200, 4);
        let initiator = w.random_node().unwrap();
        w.deploy_anchors_direct(initiator, 40).unwrap();
        let fid = w.store_file(b"facade file".to_vec()).unwrap();
        let (file, report) = w.retrieve_file(initiator, fid, false).unwrap();
        assert_eq!(file, b"facade file");
        assert_eq!(report.forward.hops_resolved, 5);
        assert_eq!(report.reply.hops_resolved, 5);
    }

    #[test]
    fn hinted_retrieval_is_cheaper() {
        let mut w = world(400, 5);
        let initiator = w.random_node().unwrap();
        w.deploy_anchors_direct(initiator, 80).unwrap();
        let fid = w.store_file(vec![7u8; 256]).unwrap();
        let (_, plain) = w.retrieve_file(initiator, fid, false).unwrap();
        let (_, hinted) = w.retrieve_file(initiator, fid, true).unwrap();
        let plain_hops = plain.forward.overlay_hops + plain.reply.overlay_hops;
        let hinted_hops = hinted.forward.overlay_hops + hinted.reply.overlay_hops;
        assert!(
            hinted_hops < plain_hops,
            "hints should shorten the path: {hinted_hops} vs {plain_hops}"
        );
        assert!(hinted.forward.hint_hits > 0);
    }

    #[test]
    fn churn_between_deploy_and_retrieve() {
        let mut w = world(250, 6);
        let initiator = w.random_node().unwrap();
        w.deploy_anchors_direct(initiator, 40).unwrap();
        let fid = w.store_file(b"survives churn".to_vec()).unwrap();
        // Churn: 20 random nodes leave (with repair), 20 fresh ones join.
        for _ in 0..20 {
            let victim = loop {
                let v = w.random_node().unwrap();
                if v != initiator {
                    break v;
                }
            };
            w.leave(victim, true);
            w.join();
        }
        let (file, _) = w.retrieve_file(initiator, fid, false).unwrap();
        assert_eq!(file, b"survives churn");
    }

    #[test]
    fn teardown_deletes_anchors() {
        let mut w = world(100, 7);
        let node = w.random_node().unwrap();
        w.deploy_anchors_direct(node, 10).unwrap();
        let t = w.form_tunnel(node, TUNNEL_LENGTH).unwrap();
        assert_eq!(w.teardown(t.hops()), 5);
        for h in t.hop_ids() {
            assert!(w.thas.get(h).is_none(), "anchor {h:?} must be gone");
        }
    }

    #[test]
    fn bid_is_owned_by_chooser_but_not_equal() {
        let mut w = world(150, 8);
        for _ in 0..20 {
            let node = w.random_node().unwrap();
            let bid = w.choose_bid(node).unwrap();
            assert_ne!(bid, node);
            assert_eq!(w.overlay.owner_of(bid), Some(node));
        }
    }

    #[test]
    fn form_tunnel_requires_pool() {
        let mut w = world(60, 9);
        let node = w.random_node().unwrap();
        assert!(w.form_tunnel(node, TUNNEL_LENGTH).is_none(), "empty pool");
        w.deploy_anchors_direct(node, 3).unwrap();
        assert!(
            w.form_tunnel(node, TUNNEL_LENGTH).is_none(),
            "pool smaller than l"
        );
    }

    #[test]
    fn an_empty_world_is_an_error_not_a_panic() {
        let mut w = world(0, 10);
        assert_eq!(w.random_node(), Err(WorldError::Empty));
        assert_eq!(w.store_file(b"nowhere".to_vec()), Err(WorldError::Empty));
        assert_eq!(
            w.fresh_hops(Id::from_u64(1), 3).map(|h| h.len()),
            Err(WorldError::Empty)
        );
        assert!(w.deploy_tunnels(4, 3).is_empty());
    }

    #[test]
    fn deployed_tunnels_are_stored_and_replaced_at_any_k() {
        let mut w = World::build(PastryConfig::with_replication(3), 200, 11);
        let tunnels = w.deploy_tunnels(20, 4);
        assert_eq!(tunnels.len(), 20);
        assert_eq!(w.thas.len(), 80);
        w.thas.assert_replica_invariant(&w.overlay);
        let k5 = w.thas_replicated(5, w.metrics());
        assert_eq!(k5.len(), 80);
        for (owner, t) in &tunnels {
            assert!(w.overlay.is_live(*owner));
            for h in t.hop_ids() {
                assert_eq!(k5.holders(h), w.overlay.k_closest(h, 5));
            }
        }
        let removed: usize = tunnels.iter().map(|(_, t)| w.teardown(t.hops())).sum();
        assert_eq!(removed, 80);
        assert!(w.thas.is_empty());
    }

    #[test]
    fn a_fork_shares_membership_and_records_apart() {
        let base = world(100, 12);
        let trial = Registry::new();
        let mut fork = base.fork(StdRng::seed_from_u64(1), &trial);
        assert_eq!(fork.joined(), base.joined());
        let owner = fork.random_node().unwrap();
        fork.fresh_hops(owner, 5).unwrap();
        assert_eq!(fork.thas.len(), 5);
        assert!(base.thas.is_empty(), "the base world is untouched");
        assert_eq!(trial.snapshot().counter("pastry.replica.inserts"), 5);
        assert_eq!(
            base.metrics().snapshot().counter("pastry.replica.inserts"),
            0
        );
    }
}
