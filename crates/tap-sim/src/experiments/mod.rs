//! The experiments, one module per figure, plus the shared testbed.

pub mod churn;
pub mod collusion;
pub mod latency;
pub mod node_failures;
pub mod resilience;
pub mod secure_routing;
pub mod sweeps;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::Scale;
use tap_core::tha::{Tha, ThaFactory, ThaSecret};
use tap_id::Id;
use tap_metrics::Registry;
use tap_pastry::storage::ReplicaStore;
use tap_pastry::{Overlay, PastryConfig};

/// A populated overlay with tunnels, shared by the anonymity experiments.
///
/// Tunnels here are kept as hop-id lists plus their secrets; the transit
/// and crypto layers are exercised by the unit/integration suites and by
/// spot checks inside the experiments, while the bulk statistics run on
/// the membership predicates that determine them (identical outcomes, a
/// few orders of magnitude faster at the paper's population sizes).
pub struct Testbed {
    /// The overlay, fully joined.
    pub overlay: Overlay,
    /// The THA store with every tunnel's anchors deployed.
    pub thas: ReplicaStore<Tha>,
    /// Formed tunnels: initiator plus hop anchors in traversal order.
    pub tunnels: Vec<TunnelRecord>,
    /// The harness RNG (distinct stream per experiment).
    pub rng: StdRng,
    /// Replication factor in force.
    pub k: usize,
    /// Tunnel length in force.
    pub l: usize,
    /// Shared metrics registry every testbed subsystem records into.
    pub metrics: Registry,
}

/// One tunnel in the testbed.
pub struct TunnelRecord {
    /// The node that owns the tunnel.
    pub initiator: Id,
    /// The hop anchors, in traversal order.
    pub hops: Vec<ThaSecret>,
}

impl TunnelRecord {
    /// The hop ids, in traversal order.
    pub fn hop_ids(&self) -> Vec<Id> {
        self.hops.iter().map(|h| h.hopid).collect()
    }
}

impl Testbed {
    /// Build `nodes` nodes, then form `tunnels` tunnels of length `l` with
    /// anchors replicated `k` ways.
    pub fn build(nodes: usize, tunnels: usize, k: usize, l: usize, seed: u64) -> Testbed {
        let mut rng = StdRng::seed_from_u64(seed);
        let metrics = Registry::new();
        let mut overlay = Overlay::new(PastryConfig::with_replication(k));
        overlay.use_metrics(metrics.clone());
        for _ in 0..nodes {
            overlay.add_random_node(&mut rng);
        }
        let mut thas = ReplicaStore::new(k);
        thas.use_metrics(metrics.clone());
        let records = deploy_tunnels(&overlay, &mut thas, &mut rng, tunnels, l);
        Testbed {
            overlay,
            thas,
            tunnels: records,
            rng,
            k,
            l,
            metrics,
        }
    }

    /// Snapshot the shared registry as a serialized [`tap_metrics::MetricsReport`].
    pub fn metrics_json(&self) -> String {
        self.metrics.snapshot().to_json()
    }

    /// Apply the `--journal N` verbosity knob to this testbed's registry.
    pub fn apply_journal(&self, scale: &Scale) {
        apply_journal(&self.metrics, scale);
    }

    /// Every tunnel's hop-id list (the shape the adversary analysis takes).
    pub fn hop_id_lists(&self) -> Vec<Vec<Id>> {
        self.tunnels.iter().map(TunnelRecord::hop_ids).collect()
    }
}

/// Install an event journal on `metrics` when [`Scale::journal_cap`] is
/// nonzero (the CLI's `--journal N`); otherwise events stay dropped and
/// the report carries counters and histograms only.
pub fn apply_journal(metrics: &Registry, scale: &Scale) {
    if scale.journal_cap > 0 {
        metrics.install_journal(scale.journal_cap);
    }
}

/// Deploy `count` fresh tunnels of length `l` into `thas`, one anchor per
/// hop, each owned by a random initiator.
pub fn deploy_tunnels(
    overlay: &Overlay,
    thas: &mut ReplicaStore<Tha>,
    rng: &mut StdRng,
    count: usize,
    l: usize,
) -> Vec<TunnelRecord> {
    let mut records = Vec::with_capacity(count);
    for _ in 0..count {
        let initiator = overlay.random_node(rng).expect("non-empty overlay");
        let hops = fresh_hops(overlay, thas, rng, initiator, l);
        records.push(TunnelRecord { initiator, hops });
    }
    records
}

/// Draw `count` fresh anchors for `initiator` and store each in `thas`,
/// redrawing any hopid the store already holds.
pub(crate) fn fresh_hops(
    overlay: &Overlay,
    thas: &mut ReplicaStore<Tha>,
    rng: &mut StdRng,
    initiator: Id,
    count: usize,
) -> Vec<ThaSecret> {
    let mut factory = ThaFactory::new(rng, initiator);
    let mut hops = Vec::with_capacity(count);
    while hops.len() < count {
        let s = factory.next(rng);
        if thas
            .insert(overlay, s.hopid, s.stored())
            .expect("overlay is non-empty")
        {
            hops.push(s);
        }
    }
    hops
}

/// Remove a set of tunnels' anchors from the store (tunnel teardown /
/// refresh).
pub fn retire_tunnels(thas: &mut ReplicaStore<Tha>, tunnels: &[TunnelRecord]) {
    for t in tunnels {
        for h in &t.hops {
            thas.remove(h.hopid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_builds_consistently() {
        let tb = Testbed::build(200, 50, 3, 5, 1);
        assert_eq!(tb.overlay.len(), 200);
        assert_eq!(tb.tunnels.len(), 50);
        assert_eq!(tb.thas.len(), 250);
        tb.thas.assert_replica_invariant(&tb.overlay);
        for t in &tb.tunnels {
            assert_eq!(t.hops.len(), 5);
            assert!(tb.overlay.is_live(t.initiator));
        }
    }

    #[test]
    fn journal_flag_selects_event_verbosity() {
        // journal_cap = 0 (the default): events are dropped.
        let mut scale = Scale::quick();
        let tb = Testbed::build(100, 5, 3, 3, 9);
        tb.apply_journal(&scale);
        tb.metrics
            .emit(1, "test.event", format_args!("no journal installed"));
        assert!(tb.metrics.snapshot().events.is_empty());

        // --journal 4: the most recent 4 events reach the report.
        scale.journal_cap = 4;
        tb.apply_journal(&scale);
        for i in 0..6 {
            tb.metrics.emit(i, "test.event", format_args!("#{i}"));
        }
        let events = tb.metrics.snapshot().events;
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].detail, "#2");
        assert_eq!(events[3].detail, "#5");
    }

    #[test]
    fn retire_removes_all_anchors() {
        let mut tb = Testbed::build(100, 20, 3, 3, 2);
        let tunnels = std::mem::take(&mut tb.tunnels);
        retire_tunnels(&mut tb.thas, &tunnels);
        assert!(tb.thas.is_empty());
    }
}
