//! Tunnel lifecycle management: probing, failure detection, and periodic
//! refresh.
//!
//! The paper leaves two maintenance duties to the user: "TAP does not have
//! a mechanism to detect corrupted/malicious tunnels. It requires users to
//! reform their tunnels periodically against colluding malicious nodes"
//! (§9), and its own Fig. 5 concludes that "users should refresh their
//! tunnels periodically to reduce the risk of having their anonymity
//! compromised" (§7.2). [`TunnelManager`] packages both duties:
//!
//! * **liveness probing** — each tick, every active tunnel carries a probe
//!   to a random key root; a [`TransitError::ThaLost`] (all replicas of a
//!   hop gone) retires and replaces the tunnel immediately;
//! * **age-based refresh** — tunnels older than the policy's `max_age`
//!   are rotated even while healthy, bounding how long a pooled-THA
//!   adversary can exploit any one tunnel;
//! * **anchor-pool upkeep** — the pool of deployed-but-unused anchors is
//!   replenished before it runs dry, so replacements never block.

use tap_id::Id;

use crate::transit::{self, TransitError, TransitOptions};
use crate::tunnel::Tunnel;
use crate::wire::Destination;
use crate::world::{World, TUNNEL_LENGTH};

/// Maintenance policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct RefreshPolicy {
    /// Retire tunnels after this many ticks even if healthy. The Fig. 5
    /// refresh corresponds to `1`; `u64::MAX` disables aging.
    pub max_age: u64,
    /// Send a liveness probe through each tunnel every tick.
    pub probe: bool,
    /// Keep at least this many unused anchors deployed.
    pub min_pool: usize,
    /// How many anchors to deploy when the pool runs low.
    pub replenish_batch: usize,
    /// Each tick, rebuild any THA replica set that has fallen under `k`
    /// live holders ([`World::re_replicate_thas`]) — the repair a
    /// takeover or partition leaves behind. Defaults on: a degraded
    /// anchor is one more failure away from [`TransitError::ThaLost`].
    pub re_replicate: bool,
}

impl Default for RefreshPolicy {
    fn default() -> Self {
        RefreshPolicy {
            max_age: 10,
            probe: true,
            min_pool: 10,
            replenish_batch: 10,
            re_replicate: true,
        }
    }
}

/// An active tunnel under management.
#[derive(Debug, Clone)]
pub struct ManagedTunnel {
    /// The tunnel itself.
    pub tunnel: Tunnel,
    /// Tick at which it was formed.
    pub created_at: u64,
    /// Probes it has survived.
    pub probes_survived: u64,
}

/// Counters describing what the manager has done.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Probes sent in total.
    pub probes_sent: u64,
    /// Probes that found a broken tunnel.
    pub probe_failures: u64,
    /// Tunnels retired because of age.
    pub refreshed_by_age: u64,
    /// Tunnels retired because a probe failed.
    pub replaced_after_failure: u64,
    /// Tunnels formed (initial + replacements).
    pub tunnels_formed: u64,
    /// Anchors deployed by pool upkeep.
    pub anchors_deployed: u64,
    /// THA replica sets rebuilt after degrading below `k` live holders.
    pub re_replications: u64,
    /// Times a replacement could not be formed (pool exhausted and
    /// replenishment failed) — should stay zero in a healthy system.
    pub formation_failures: u64,
}

/// Automatic tunnel maintenance for one user node.
#[derive(Debug)]
pub struct TunnelManager {
    owner: Id,
    policy: RefreshPolicy,
    target: usize,
    tick: u64,
    active: Vec<ManagedTunnel>,
    /// Running counters.
    pub stats: ManagerStats,
}

impl TunnelManager {
    /// A manager for `owner` maintaining `target` live tunnels.
    pub fn new(owner: Id, target: usize, policy: RefreshPolicy) -> Self {
        assert!(target >= 1, "managing zero tunnels is pointless");
        TunnelManager {
            owner,
            policy,
            target,
            tick: 0,
            active: Vec::new(),
            stats: ManagerStats::default(),
        }
    }

    /// The tunnels currently under management.
    pub fn active(&self) -> &[ManagedTunnel] {
        &self.active
    }

    /// The manager's owner node.
    pub fn owner(&self) -> Id {
        self.owner
    }

    /// Current tick counter.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// One maintenance round: replenish the anchor pool, retire aged
    /// tunnels, probe the rest, replace casualties, top up to the target
    /// count. Call once per application-defined time unit.
    pub fn tick(&mut self, world: &mut World) {
        self.tick += 1;
        self.replenish_pool(world);

        // Bring degraded replica sets back to strength *before* probing:
        // a probe through a hop with one surviving holder is a coin flip
        // away from a false ThaLost retirement.
        if self.policy.re_replicate {
            self.stats.re_replications += world.re_replicate_thas() as u64;
        }

        // Age-based refresh (§7.2): retire before probing — an aged tunnel
        // is rotated even if it still works.
        let max_age = self.policy.max_age;
        let tick = self.tick;
        let mut retired = Vec::new();
        self.active.retain(|mt| {
            if tick.saturating_sub(mt.created_at) >= max_age {
                retired.push(mt.tunnel.clone());
                false
            } else {
                true
            }
        });
        for t in retired {
            world.teardown(t.hops());
            self.stats.refreshed_by_age += 1;
        }

        // Probe survivors (§9's missing detection mechanism).
        if self.policy.probe {
            let mut broken = Vec::new();
            for (i, mt) in self.active.iter_mut().enumerate() {
                self.stats.probes_sent += 1;
                let probe_key = Id::random(&mut world.rng);
                let onion = mt.tunnel.build_onion(
                    &mut world.rng,
                    Destination::KeyRoot(probe_key),
                    b"probe",
                    None,
                );
                match transit::drive(
                    &mut world.overlay,
                    &world.thas,
                    self.owner,
                    mt.tunnel.entry_hopid(),
                    onion,
                    TransitOptions::default(),
                ) {
                    Ok(_) => mt.probes_survived += 1,
                    Err(TransitError::ThaLost { .. } | TransitError::BadLayer { .. }) => {
                        self.stats.probe_failures += 1;
                        broken.push(i);
                    }
                    // Routing trouble is transient; don't churn the tunnel.
                    Err(_) => {}
                }
            }
            for i in broken.into_iter().rev() {
                let mt = self.active.remove(i);
                // Best-effort teardown: surviving hops' anchors deleted.
                world.teardown(mt.tunnel.hops());
                self.stats.replaced_after_failure += 1;
            }
        }

        // Top up to target.
        while self.active.len() < self.target {
            if !self.form_one(world) {
                self.stats.formation_failures += 1;
                break;
            }
        }
    }

    fn replenish_pool(&mut self, world: &mut World) {
        let pool = world.anchor_pool(self.owner).len();
        if pool < self.policy.min_pool {
            // An owner that left can deploy nothing; formation then fails
            // and is counted.
            let deployed = world
                .deploy_anchors_direct(self.owner, self.policy.replenish_batch)
                .unwrap_or(0);
            self.stats.anchors_deployed += deployed as u64;
        }
    }

    fn form_one(&mut self, world: &mut World) -> bool {
        // Ensure the pool can cover one tunnel.
        if world.anchor_pool(self.owner).len() < TUNNEL_LENGTH {
            self.replenish_pool(world);
        }
        match world.form_tunnel(self.owner, TUNNEL_LENGTH) {
            Some(t) => {
                self.active.push(ManagedTunnel {
                    tunnel: t,
                    created_at: self.tick,
                    probes_survived: 0,
                });
                self.stats.tunnels_formed += 1;
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tap_pastry::PastryConfig;

    fn setup(n: usize, seed: u64, policy: RefreshPolicy) -> (World, TunnelManager) {
        let mut world = World::build(PastryConfig::paper_defaults(), n, seed);
        let owner = world.random_node().unwrap();
        world.deploy_anchors_direct(owner, 20).unwrap();
        let mgr = TunnelManager::new(owner, 2, policy);
        (world, mgr)
    }

    #[test]
    fn forms_up_to_target_and_probes() {
        let (mut world, mut mgr) = setup(200, 1, RefreshPolicy::default());
        mgr.tick(&mut world);
        assert_eq!(mgr.active().len(), 2);
        assert_eq!(mgr.stats.tunnels_formed, 2);
        mgr.tick(&mut world);
        assert_eq!(mgr.stats.probes_sent, 2, "both tunnels probed on tick 2");
        assert_eq!(mgr.stats.probe_failures, 0);
        assert!(mgr.active().iter().all(|t| t.probes_survived >= 1));
    }

    #[test]
    fn detects_and_replaces_broken_tunnels() {
        let (mut world, mut mgr) = setup(250, 2, RefreshPolicy::default());
        mgr.tick(&mut world);
        let victim_hop = mgr.active()[0].tunnel.hop_ids()[1];
        // Kill every replica holder of that hop — no repair.
        for holder in world.thas.holders(victim_hop).to_vec() {
            if holder != mgr.owner() {
                world.leave(holder, false);
            }
        }
        let before = mgr.stats.tunnels_formed;
        mgr.tick(&mut world);
        assert_eq!(mgr.stats.probe_failures, 1, "the dead hop must be noticed");
        assert_eq!(mgr.stats.replaced_after_failure, 1);
        assert_eq!(mgr.active().len(), 2, "replacement formed");
        assert!(mgr.stats.tunnels_formed > before);
        // The replacement does not reuse the dead hop.
        assert!(mgr
            .active()
            .iter()
            .all(|t| !t.tunnel.hop_ids().contains(&victim_hop)));
    }

    #[test]
    fn age_based_refresh_rotates_hops() {
        let policy = RefreshPolicy {
            max_age: 3,
            ..RefreshPolicy::default()
        };
        let (mut world, mut mgr) = setup(200, 3, policy);
        mgr.tick(&mut world);
        let original: Vec<Id> = mgr.active()[0].tunnel.hop_ids();
        for _ in 0..4 {
            mgr.tick(&mut world);
        }
        assert!(mgr.stats.refreshed_by_age >= 2, "both tunnels aged out");
        let current: Vec<Id> = mgr.active()[0].tunnel.hop_ids();
        assert_ne!(original, current, "rotation must change the hop set");
        // Retired anchors were deleted from the store.
        for h in original {
            assert!(world.thas.get(h).is_none(), "old anchor {h:?} still stored");
        }
    }

    #[test]
    fn pool_replenishes_automatically() {
        let policy = RefreshPolicy {
            max_age: 1, // rotate every tick: heavy anchor consumption
            ..RefreshPolicy::default()
        };
        let (mut world, mut mgr) = setup(200, 4, policy);
        for _ in 0..6 {
            mgr.tick(&mut world);
            assert_eq!(mgr.active().len(), 2, "target always met");
        }
        assert!(mgr.stats.anchors_deployed > 0, "upkeep had to deploy");
        assert_eq!(mgr.stats.formation_failures, 0);
    }

    #[test]
    fn survives_sustained_churn() {
        let (mut world, mut mgr) = setup(300, 5, RefreshPolicy::default());
        for round in 0..15 {
            for _ in 0..6 {
                let victim = loop {
                    let v = world.random_node().unwrap();
                    if v != mgr.owner() {
                        break v;
                    }
                };
                world.leave(victim, true);
                world.join();
            }
            mgr.tick(&mut world);
            assert_eq!(mgr.active().len(), 2, "round {round}");
        }
        // With replica repair running, probes should almost never fail.
        assert!(
            mgr.stats.probe_failures <= 2,
            "repairing churn should rarely break tunnels: {:?}",
            mgr.stats
        );
    }

    #[test]
    fn tick_re_replicates_degraded_anchors() {
        let (mut world, mut mgr) = setup(250, 7, RefreshPolicy::default());
        mgr.tick(&mut world);
        // Kill one (non-owner) holder of each of the first tunnel's hops
        // WITHOUT repair: the replica sets degrade below k but survive.
        let hops = mgr.active()[0].tunnel.hop_ids();
        for h in &hops {
            let victim = world
                .thas
                .holders(*h)
                .iter()
                .copied()
                .find(|n| *n != mgr.owner());
            if let Some(v) = victim {
                world.leave(v, false);
            }
        }
        let k = world.thas.replication();
        assert!(
            hops.iter().any(|h| {
                world
                    .thas
                    .holders(*h)
                    .iter()
                    .filter(|n| world.overlay.is_live(**n))
                    .count()
                    < k
            }),
            "at least one replica set must be degraded before the tick"
        );
        mgr.tick(&mut world);
        assert!(mgr.stats.re_replications > 0, "tick must rebuild");
        for h in &hops {
            if world.thas.get(*h).is_some() {
                assert_eq!(
                    world.thas.holders(*h).len(),
                    k,
                    "anchor {h:?} back to full strength"
                );
            }
        }
        let report = world.metrics().snapshot();
        assert_eq!(
            report.counter("core.tha.re_replications"),
            mgr.stats.re_replications
        );
    }

    #[test]
    fn disabled_probing_skips_probes() {
        let policy = RefreshPolicy {
            probe: false,
            max_age: u64::MAX,
            ..RefreshPolicy::default()
        };
        let (mut world, mut mgr) = setup(150, 6, policy);
        mgr.tick(&mut world);
        mgr.tick(&mut world);
        assert_eq!(mgr.stats.probes_sent, 0);
        assert_eq!(mgr.stats.refreshed_by_age, 0);
    }
}
