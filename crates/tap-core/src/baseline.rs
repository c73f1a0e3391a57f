//! "Current tunneling": the fixed-node baseline TAP is measured against.
//!
//! In Crowds/Tarzan/MorphMix-style systems an anonymous path is a sequence
//! of *specific nodes*; each relay knows its successor by address. The
//! paper's Figure 2 baseline is exactly this: "a path fails if one of its
//! mixes leaves the system" (§1). Its layered crypto would be TAP's — only
//! the naming of hops differs (node identity vs. hopid), which is the
//! entire point of the comparison — so the baseline's protocol is its
//! relay-liveness predicate, [`FixedTunnel::intact`].

use rand::Rng;
use tap_id::Id;
use tap_pastry::Overlay;

/// A fixed-node tunnel: the baseline's path of specific relays.
#[derive(Debug, Clone)]
pub struct FixedTunnel {
    relays: Vec<Id>,
}

impl FixedTunnel {
    /// A tunnel through `l` distinct random live relays, excluding
    /// `initiator`, drawn one [`Overlay::random_node`] at a time (a repeat
    /// is redrawn). `None` if the overlay has no `l` nodes besides the
    /// initiator, where the draw would never end.
    pub fn form_random<R: Rng + ?Sized>(
        rng: &mut R,
        overlay: &Overlay,
        initiator: Id,
        l: usize,
    ) -> Option<FixedTunnel> {
        if overlay.len() <= l {
            return None;
        }
        let mut relays = Vec::with_capacity(l);
        while relays.len() < l {
            let n = overlay.random_node(rng)?;
            if n != initiator && !relays.contains(&n) {
                relays.push(n);
            }
        }
        Some(FixedTunnel { relays })
    }

    /// The relay node ids, in path order.
    pub fn relays(&self) -> &[Id] {
        &self.relays
    }

    /// Whether the tunnel still carries a message: every relay is alive by
    /// `is_live`. The baseline's fragility in one line — an AND over `l`
    /// node lifetimes, with no failover.
    pub fn intact(&self, mut is_live: impl FnMut(Id) -> bool) -> bool {
        self.relays.iter().all(|&n| is_live(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tap_pastry::PastryConfig;

    fn fixture(n: usize, seed: u64) -> (Overlay, StdRng, Id) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ov = Overlay::new(PastryConfig::paper_defaults());
        for _ in 0..n {
            ov.add_random_node(&mut rng);
        }
        let init = ov.random_node(&mut rng).unwrap();
        (ov, rng, init)
    }

    #[test]
    fn single_relay_failure_kills_tunnel() {
        let (mut ov, mut rng, init) = fixture(100, 2);
        let t = FixedTunnel::form_random(&mut rng, &ov, init, 5).unwrap();
        assert!(t.intact(|n| ov.is_live(n)));
        ov.remove_node(t.relays()[2]);
        assert!(!t.intact(|n| ov.is_live(n)));
    }

    #[test]
    fn relays_are_distinct_and_exclude_initiator() {
        let (ov, mut rng, init) = fixture(50, 3);
        for _ in 0..20 {
            let t = FixedTunnel::form_random(&mut rng, &ov, init, 5).unwrap();
            let set: std::collections::HashSet<_> = t.relays().iter().collect();
            assert_eq!(set.len(), 5);
            assert!(!t.relays().contains(&init));
        }
    }

    #[test]
    fn overlay_too_small_for_tunnel() {
        let (ov, mut rng, init) = fixture(5, 4);
        assert!(FixedTunnel::form_random(&mut rng, &ov, init, 5).is_none());
        assert!(FixedTunnel::form_random(&mut rng, &ov, init, 4).is_some());
    }

    #[test]
    fn failure_probability_matches_closed_form() {
        // P(tunnel dies) = 1 - (1-p)^l for independent relay failures —
        // the analytic curve behind the Fig. 2 baseline.
        let (mut ov, mut rng, init) = fixture(1000, 5);
        let tunnels: Vec<_> = (0..400)
            .map(|_| FixedTunnel::form_random(&mut rng, &ov, init, 5).unwrap())
            .collect();
        // Fail 20% of nodes (sparing the initiator for simplicity).
        let ids: Vec<Id> = ov.ids().filter(|i| *i != init).collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 5 == 0 {
                ov.remove_node(*id);
            }
        }
        let dead = tunnels
            .iter()
            .filter(|t| !t.intact(|n| ov.is_live(n)))
            .count();
        let rate = dead as f64 / tunnels.len() as f64;
        let expect = 1.0 - 0.8f64.powi(5); // ≈ 0.672
        assert!(
            (rate - expect).abs() < 0.12,
            "empirical {rate:.3} vs analytic {expect:.3}"
        );
    }
}
