//! [`TapSystem`]: the whole stack wired together.
//!
//! A facade over overlay + THA store + file store + per-node PKI, exposing
//! the operations a TAP deployment offers its users: join/leave, deploy
//! anchors (anonymously, over an onion bootstrap), form tunnels, store and
//! anonymously retrieve files, and refresh tunnels. The examples and the
//! experiment harness both drive this type.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tap_crypto::KeyPair;
use tap_id::Id;
use tap_metrics::Registry;
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, PastryConfig};

use crate::deploy::{self, DeployError};
use crate::metrics::CoreInstruments;
use crate::retrieval::{self, RetrievalError, RetrievalReport, StoredFile};
use crate::tha::{Tha, ThaFactory, ThaSecret};
use crate::transit::{HintCache, TransitOptions};
use crate::tunnel::Tunnel;

/// Deployment-wide parameters.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Overlay parameters (digit width, leaf set, replication factor).
    pub pastry: PastryConfig,
    /// Default tunnel length `l`. The paper's default is 5.
    pub tunnel_length: usize,
    /// Relays on the Onion-Routing bootstrap path ("a number (e.g., 3-5)
    /// of THAs" are deployed per session; one relay stores one anchor).
    pub bootstrap_path_len: usize,
    /// Leading zero bits demanded by the deposit puzzle (0 disables the
    /// flood charge — handy in large simulations).
    pub puzzle_difficulty: u8,
    /// Bytes of fake onion appended to reply tunnels (§4).
    pub fakeonion_len: usize,
}

impl SystemConfig {
    /// The paper's evaluation setting: `b=4`, `|L|=16`, `k=3`, `l=5`.
    pub fn paper_defaults() -> Self {
        SystemConfig {
            pastry: PastryConfig::paper_defaults(),
            tunnel_length: 5,
            bootstrap_path_len: 3,
            puzzle_difficulty: 0,
            fakeonion_len: 96,
        }
    }

    /// Same, with an explicit replication factor.
    pub fn with_replication(k: usize) -> Self {
        SystemConfig {
            pastry: PastryConfig::with_replication(k),
            ..Self::paper_defaults()
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// A fully wired TAP deployment (simulated, single process).
pub struct TapSystem {
    /// System parameters.
    pub config: SystemConfig,
    /// The Pastry overlay.
    pub overlay: Overlay,
    /// The replicated THA store.
    pub thas: ReplicaStore<Tha>,
    /// The replicated file store (PAST).
    pub files: ReplicaStore<StoredFile>,
    /// Deterministic randomness for the whole system.
    pub rng: StdRng,
    keys: HashMap<Id, KeyPair>,
    factories: HashMap<Id, ThaFactory>,
    anchors: HashMap<Id, Vec<ThaSecret>>,
    instruments: CoreInstruments,
}

impl TapSystem {
    /// Build an `n`-node system from `seed`.
    pub fn bootstrap(config: SystemConfig, n: usize, seed: u64) -> Self {
        let mut sys = TapSystem {
            overlay: Overlay::new(config.pastry),
            thas: ReplicaStore::new(config.pastry.replication),
            files: ReplicaStore::new(config.pastry.replication),
            rng: StdRng::seed_from_u64(seed),
            keys: HashMap::new(),
            factories: HashMap::new(),
            anchors: HashMap::new(),
            config,
            instruments: CoreInstruments::new(&Registry::new()),
        };
        sys.use_metrics(Registry::new());
        for _ in 0..n {
            sys.add_node();
        }
        sys
    }

    /// Record the whole system's metrics — overlay, both replica stores
    /// and tap-core's own instruments — into `registry` (share one across
    /// subsystems, then [`Registry::snapshot`] it for a combined report).
    pub fn use_metrics(&mut self, registry: Registry) {
        self.overlay.use_metrics(registry.clone());
        self.thas.use_metrics(registry.clone());
        self.files.use_metrics(registry.clone());
        self.instruments = CoreInstruments::new(&registry);
    }

    /// The metrics registry this system records into.
    pub fn metrics(&self) -> &Registry {
        self.instruments.registry()
    }

    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.overlay.len()
    }

    /// Whether the system has no live nodes.
    pub fn is_empty(&self) -> bool {
        self.overlay.is_empty()
    }

    /// A uniformly random live node.
    pub fn random_node(&mut self) -> Id {
        self.overlay
            .random_node(&mut self.rng)
            .expect("system has nodes")
    }

    /// Join a fresh node: overlay join, keypair minting, replica
    /// rebalancing of both stores.
    pub fn add_node(&mut self) -> Id {
        let id = self.overlay.add_random_node(&mut self.rng);
        self.keys.insert(id, KeyPair::generate(&mut self.rng));
        let factory = ThaFactory::new(&mut self.rng, id);
        self.factories.insert(id, factory);
        self.thas.on_node_added(&self.overlay, id);
        self.files.on_node_added(&self.overlay, id);
        id
    }

    /// Fail (or gracefully remove) a node. With `repair`, the replication
    /// manager immediately re-replicates what the node held — the steady
    /// churn regime of Fig. 5. Without it, nothing migrates — the
    /// simultaneous-failure regime of Fig. 2 — and later membership repairs
    /// may miss what the node held (`ReplicaStore`'s repair contract) until
    /// [`TapSystem::re_replicate_thas`] heals it.
    pub fn fail_node(&mut self, id: Id, repair: bool) -> bool {
        if !self.overlay.remove_node(id) {
            return false;
        }
        if repair {
            self.thas.on_node_removed(&self.overlay, id);
            self.files.on_node_removed(&self.overlay, id);
        }
        true
    }

    /// Re-replicate every THA anchor whose replica set has degraded below
    /// `min(k, overlay size)` live holders — the aftermath of a takeover,
    /// an unrepaired failure (Fig. 2's regime), or a partition that kept
    /// the repair from running. An anchor with zero live holders is beyond
    /// repair (no surviving replica to copy from) and is left alone.
    /// Returns how many anchors were rebuilt; each rebuild is counted as
    /// `core.tha.re_replications` and emits a `core.tha.re_replication`
    /// event.
    pub fn re_replicate_thas(&mut self) -> usize {
        let k = self.thas.replication().min(self.overlay.len());
        let degraded: Vec<Id> = self
            .thas
            .iter()
            .filter(|(_, rec)| {
                let live = rec
                    .holders
                    .iter()
                    .filter(|h| self.overlay.is_live(**h))
                    .count();
                live > 0 && live < k
            })
            .map(|(hopid, _)| hopid)
            .collect();
        let mut repaired = 0;
        for hopid in degraded {
            if self.thas.repair_key(&self.overlay, hopid) {
                let holders_now = self.thas.holders(hopid).len();
                self.instruments.record_re_replication(hopid, holders_now);
                repaired += 1;
            }
        }
        repaired
    }

    /// The public keys the initiator can see (the PKI).
    pub fn keypair(&self, node: Id) -> Option<&KeyPair> {
        self.keys.get(&node)
    }

    /// A node's deployed-but-unused anchor pool.
    pub fn anchor_pool(&self, node: Id) -> &[ThaSecret] {
        self.anchors.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Deploy `count` fresh anchors for `node` through an Onion-Routing
    /// bootstrap path of random relays (§3.3), retrying with new paths up
    /// to `max_attempts` times (the paper: "try to use another Onion path
    /// … until the first anonymous tunnel is able to be formed").
    pub fn deploy_anchors(
        &mut self,
        node: Id,
        count: usize,
        max_attempts: usize,
    ) -> Result<usize, DeployError> {
        let mut deployed = 0;
        let mut last_err = None;
        'attempts: for _ in 0..max_attempts {
            while deployed < count {
                let batch = count - deployed;
                let path_len = self.config.bootstrap_path_len.min(batch);
                let secrets: Vec<ThaSecret> = {
                    let factory = self
                        .factories
                        .get_mut(&node)
                        .expect("factory exists for every live node");
                    (0..path_len).map(|_| factory.next(&mut self.rng)).collect()
                };
                let stored: Vec<Tha> = secrets.iter().map(ThaSecret::stored).collect();
                let relays = self.pick_relays(node, path_len);
                match deploy::deploy_via_onion(
                    &mut self.rng,
                    &self.overlay,
                    &mut self.thas,
                    &self.keys,
                    &relays,
                    &stored,
                    self.config.puzzle_difficulty,
                ) {
                    Ok(_) => {
                        deployed += path_len;
                        self.anchors.entry(node).or_default().extend(secrets);
                    }
                    Err(e) => {
                        last_err = Some(e);
                        continue 'attempts;
                    }
                }
            }
            return Ok(deployed);
        }
        if deployed >= count {
            Ok(deployed)
        } else {
            Err(last_err.unwrap_or(DeployError::Mismatched))
        }
    }

    /// Deploy anchors directly into the store, skipping the onion bootstrap
    /// ceremony. The replica placement and adversary exposure are identical
    /// to [`TapSystem::deploy_anchors`]; only the (already unit-tested)
    /// bootstrap crypto is skipped. The large-scale experiments use this.
    pub fn deploy_anchors_direct(&mut self, node: Id, count: usize) -> usize {
        let mut done = 0;
        for _ in 0..count {
            let secret = {
                let factory = self
                    .factories
                    .get_mut(&node)
                    .expect("factory exists for every live node");
                factory.next(&mut self.rng)
            };
            if self
                .thas
                .insert(&self.overlay, secret.hopid, secret.stored())
                .unwrap_or(false)
            {
                self.anchors.entry(node).or_default().push(secret);
                done += 1;
            }
        }
        done
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

    /// Form a tunnel of the configured length from `node`'s anchor pool,
    /// consuming the chosen anchors (an anchor anchors exactly one hop of
    /// one tunnel; reuse would link tunnels). Returns `None` if the pool
    /// is too small.
    pub fn form_tunnel(&mut self, node: Id) -> Option<Tunnel> {
        self.form_tunnel_of_length(node, self.config.tunnel_length)
    }

    /// [`TapSystem::form_tunnel`] with an explicit length.
    pub fn form_tunnel_of_length(&mut self, node: Id, l: usize) -> Option<Tunnel> {
        let pool = self.anchors.get_mut(&node)?;
        let tunnel = Tunnel::form_scattered(&mut self.rng, pool, l, self.config.pastry.b)?;
        let used: std::collections::HashSet<Id> = tunnel.hop_ids().into_iter().collect();
        pool.retain(|s| !used.contains(&s.hopid));
        Some(tunnel)
    }

    /// Tear down a tunnel: prove ownership of each hop's password and
    /// delete the anchors (§3.4). Returns how many anchors were deleted.
    pub fn teardown_tunnel(&mut self, tunnel: &Tunnel) -> usize {
        tunnel
            .hops()
            .iter()
            .filter(|h| deploy::delete_tha(&mut self.thas, h.hopid, &h.password).is_ok())
            .count()
    }

    /// Choose a `bid` for `node`: an identifier that is *not* the node's id
    /// (which would identify it outright) but whose root the node is (§4:
    /// "an identifier subject to a condition that I is the node whose
    /// nodeid is numerically closest to it").
    pub fn choose_bid(&mut self, node: Id) -> Id {
        debug_assert!(self.overlay.is_live(node));
        loop {
            // A small offset in a random direction; node ids are uniform in
            // a 160-bit space, so anything within 2^40 of the node is
            // astronomically certain to stay closest to it — but verify
            // against the oracle anyway and retry on the (theoretical)
            // collision.
            let off = Id::from_u64(self.rng.gen_range(1u64..=u64::MAX >> 24));
            let bid = if self.rng.gen_bool(0.5) {
                node.wrapping_add(off)
            } else {
                node.wrapping_sub(off)
            };
            if bid != node && self.overlay.owner_of(bid) == Some(node) {
                return bid;
            }
        }
    }

    /// Store a file under a random fid; returns the fid.
    pub fn store_file(&mut self, data: Vec<u8>) -> Id {
        loop {
            let fid = Id::random(&mut self.rng);
            if self
                .files
                .insert(&self.overlay, fid, StoredFile { data: data.clone() })
                .expect("store_file requires a non-empty overlay")
            {
                return fid;
            }
        }
    }

    /// Anonymously retrieve `fid` from `initiator` (§4): forms a forward
    /// and a distinct reply tunnel from the initiator's anchor pool and
    /// runs the full protocol. With `use_hints`, onion headers carry
    /// cached hop-node addresses (§5, `TAP_opt`).
    pub fn retrieve_file(
        &mut self,
        initiator: Id,
        fid: Id,
        use_hints: bool,
    ) -> Result<(Vec<u8>, RetrievalReport), RetrievalError> {
        let l = self.config.tunnel_length;
        let fwd = self
            .form_tunnel_of_length(initiator, l)
            .ok_or(RetrievalError::Corrupt)?;
        let rev = self
            .form_tunnel_of_length(initiator, l)
            .ok_or(RetrievalError::Corrupt)?;
        let bid = self.choose_bid(initiator);
        let hints = if use_hints {
            let mut cache = HintCache::default();
            let mut ids = fwd.hop_ids();
            ids.extend(rev.hop_ids());
            cache.refresh(&self.overlay, &ids);
            Some(cache)
        } else {
            None
        };
        let mut ctx = retrieval::RetrievalContext {
            overlay: &mut self.overlay,
            thas: &self.thas,
            files: &self.files,
            metrics: Some(&self.instruments),
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(n: usize, seed: u64) -> TapSystem {
        TapSystem::bootstrap(SystemConfig::paper_defaults(), n, seed)
    }

    #[test]
    fn bootstrap_builds_consistent_system() {
        let sys = system(120, 1);
        assert_eq!(sys.len(), 120);
        sys.overlay.assert_leafsets_exact();
        for id in sys.overlay.ids().collect::<Vec<_>>() {
            assert!(sys.keypair(id).is_some(), "every node has a keypair");
        }
    }

    #[test]
    fn deploy_and_form_tunnel() {
        let mut sys = system(120, 2);
        let node = sys.random_node();
        let n = sys.deploy_anchors(node, 12, 8).unwrap();
        assert_eq!(n, 12);
        assert_eq!(sys.anchor_pool(node).len(), 12);
        let t = sys.form_tunnel(node).unwrap();
        assert_eq!(t.len(), 5);
        assert_eq!(sys.anchor_pool(node).len(), 7, "anchors are consumed");
        // The anchors are really in the store, on the k closest nodes.
        for h in t.hop_ids() {
            assert_eq!(sys.thas.holders(h), sys.overlay.k_closest(h, 3));
        }
    }

    #[test]
    fn direct_deploy_equivalent_placement() {
        let mut sys = system(100, 3);
        let node = sys.random_node();
        assert_eq!(sys.deploy_anchors_direct(node, 10), 10);
        for s in sys.anchor_pool(node).to_vec() {
            assert_eq!(sys.thas.holders(s.hopid), sys.overlay.k_closest(s.hopid, 3));
        }
    }

    #[test]
    fn end_to_end_anonymous_retrieval() {
        let mut sys = system(200, 4);
        let initiator = sys.random_node();
        sys.deploy_anchors_direct(initiator, 40);
        let fid = sys.store_file(b"facade file".to_vec());
        let (file, report) = sys.retrieve_file(initiator, fid, false).unwrap();
        assert_eq!(file, b"facade file");
        assert_eq!(report.forward.hops_resolved, 5);
        assert_eq!(report.reply.hops_resolved, 5);
    }

    #[test]
    fn hinted_retrieval_is_cheaper() {
        let mut sys = system(400, 5);
        let initiator = sys.random_node();
        sys.deploy_anchors_direct(initiator, 80);
        let fid = sys.store_file(vec![7u8; 256]);
        let (_, plain) = sys.retrieve_file(initiator, fid, false).unwrap();
        let (_, hinted) = sys.retrieve_file(initiator, fid, true).unwrap();
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
        let mut sys = system(250, 6);
        let initiator = sys.random_node();
        sys.deploy_anchors_direct(initiator, 40);
        let fid = sys.store_file(b"survives churn".to_vec());
        // Churn: fail 20 random nodes (with repair) and add 20 fresh ones.
        for _ in 0..20 {
            let victim = loop {
                let v = sys.random_node();
                if v != initiator {
                    break v;
                }
            };
            sys.fail_node(victim, true);
            sys.add_node();
        }
        let (file, _) = sys.retrieve_file(initiator, fid, false).unwrap();
        assert_eq!(file, b"survives churn");
    }

    #[test]
    fn teardown_deletes_anchors() {
        let mut sys = system(100, 7);
        let node = sys.random_node();
        sys.deploy_anchors_direct(node, 10);
        let t = sys.form_tunnel(node).unwrap();
        assert_eq!(sys.teardown_tunnel(&t), 5);
        for h in t.hop_ids() {
            assert!(sys.thas.get(h).is_none(), "anchor {h:?} must be gone");
        }
    }

    #[test]
    fn bid_is_owned_by_chooser_but_not_equal() {
        let mut sys = system(150, 8);
        for _ in 0..20 {
            let node = sys.random_node();
            let bid = sys.choose_bid(node);
            assert_ne!(bid, node);
            assert_eq!(sys.overlay.owner_of(bid), Some(node));
        }
    }

    #[test]
    fn form_tunnel_requires_pool() {
        let mut sys = system(60, 9);
        let node = sys.random_node();
        assert!(sys.form_tunnel(node).is_none(), "empty pool");
        sys.deploy_anchors_direct(node, 3);
        assert!(sys.form_tunnel(node).is_none(), "pool smaller than l");
    }
}
