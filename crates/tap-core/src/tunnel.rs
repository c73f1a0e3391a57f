//! Forming tunnels and building their onions (§3.5, §4, Fig. 1).
//!
//! A [`Tunnel`] is the *initiator's* view of an anonymous tunnel: the
//! ordered THA secrets of its hops. Nothing about a tunnel exists as
//! shared state anywhere else — each hop's handler merely holds a replica
//! of one THA and peels one layer when traffic arrives. That is what
//! decouples the tunnel from any fixed set of nodes.
//!
//! Hop selection follows §3.5: "the chosen THAs must scatter in the DHT
//! identifier space as far as possible (i.e., with different hopid's
//! prefixes) to minimize the probability that a single node has the
//! information of multiple or all tunnel hops."

use rand::seq::SliceRandom;
use rand::Rng;

use tap_id::Id;

use crate::metrics::CoreInstruments;
use crate::tha::ThaSecret;
use crate::transit::HintCache;
use crate::wire::{Destination, HopHeader};

/// An anonymous tunnel, from the initiator's point of view.
#[derive(Debug, Clone)]
pub struct Tunnel {
    hops: Vec<ThaSecret>,
}

impl Tunnel {
    /// A tunnel over `hops`, in traversal order. Panics on an empty hop
    /// list or duplicate hopids.
    pub fn new(hops: Vec<ThaSecret>) -> Self {
        assert!(!hops.is_empty(), "a tunnel needs at least one hop");
        // Pairwise: a tunnel has a handful of hops, and the figures build
        // hundreds of thousands of tunnels.
        for (i, h) in hops.iter().enumerate() {
            assert!(
                hops[..i].iter().all(|g| g.hopid != h.hopid),
                "duplicate hopid in tunnel"
            );
        }
        Tunnel { hops }
    }

    /// Select `l` hops from `pool`, preferring pairwise-distinct first
    /// digits (§3.5's scatter rule), falling back to arbitrary distinct
    /// hops once the digit buckets are exhausted. Returns `None` if the
    /// pool has fewer than `l` anchors.
    pub(crate) fn form_scattered<R: Rng + ?Sized>(
        rng: &mut R,
        pool: &[ThaSecret],
        l: usize,
        b: u32,
    ) -> Option<Tunnel> {
        if pool.len() < l || l == 0 {
            return None;
        }
        let mut shuffled: Vec<&ThaSecret> = pool.iter().collect();
        shuffled.shuffle(rng);
        let mut chosen: Vec<ThaSecret> = Vec::with_capacity(l);
        let mut used_digits = std::collections::HashSet::new();
        for s in &shuffled {
            if chosen.len() == l {
                break;
            }
            if used_digits.insert(s.hopid.digit(0, b)) {
                chosen.push((*s).clone());
            }
        }
        // Fill remaining slots (more hops than digit buckets, or a
        // low-diversity pool) with any unused anchors.
        if chosen.len() < l {
            for s in &shuffled {
                if chosen.len() == l {
                    break;
                }
                if !chosen.iter().any(|c| c.hopid == s.hopid) {
                    chosen.push((*s).clone());
                }
            }
        }
        (chosen.len() == l).then(|| Tunnel::new(chosen))
    }

    /// The hops, in traversal order.
    pub fn hops(&self) -> &[ThaSecret] {
        &self.hops
    }

    /// Tunnel length `l` (number of tunnel hops).
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Tunnels are never empty; provided for clippy-completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The first hop's id — where the initiator injects messages.
    pub fn entry_hopid(&self) -> Id {
        self.hops[0].hopid
    }

    /// Hopids in traversal order.
    pub fn hop_ids(&self) -> Vec<Id> {
        self.hops.iter().map(|h| h.hopid).collect()
    }

    /// Build the forward onion of Fig. 1: layer `i` tells hop `i` where hop
    /// `i+1` is anchored; the innermost layer tells the tail to deliver
    /// `core` to `dest`. With `hints`, each forward header carries the
    /// cached identity of the next hop's current node (§5).
    pub fn build_onion<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        dest: Destination,
        core: &[u8],
        hints: Option<&HintCache>,
    ) -> Vec<u8> {
        self.build_onion_instrumented(rng, dest, core, hints, None)
    }

    /// [`Tunnel::build_onion`], recording per-layer seal (encrypt) timings
    /// into `instruments` when provided.
    pub fn build_onion_instrumented<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        dest: Destination,
        core: &[u8],
        hints: Option<&HintCache>,
        instruments: Option<&CoreInstruments>,
    ) -> Vec<u8> {
        let layers = self.layer_specs(dest, hints);
        match instruments {
            None => tap_crypto::onion::wrap(rng, &layers, core),
            Some(ins) => {
                // The fused single-pass seal — identical bytes and RNG use
                // to `wrap`. All layers are applied in one sweep, so the
                // timeable unit is the whole onion: one sample per build
                // (the old per-layer samples summed to the same wall time).
                let t0 = std::time::Instant::now();
                let mut b = tap_crypto::onion::OnionBuilder::new();
                b.seal(rng, &layers, core);
                ins.onion_wrap_us.record(t0.elapsed().as_micros() as u64);
                b.into_vec()
            }
        }
    }

    /// [`Tunnel::build_onion`] into a caller-owned reusable builder: the
    /// sealed onion lands in `builder` (read it back with
    /// [`tap_crypto::onion::OnionBuilder::as_bytes`]) and a warmed builder
    /// allocates nothing. Bytes and RNG use match [`Tunnel::build_onion`]
    /// exactly — multipath stripes use this to amortize the onion buffer
    /// and cipher scratch across a whole transfer.
    pub(crate) fn build_onion_into<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        dest: Destination,
        core: &[u8],
        hints: Option<&HintCache>,
        builder: &mut tap_crypto::onion::OnionBuilder,
    ) {
        let layers = self.layer_specs(dest, hints);
        builder.seal(rng, &layers, core);
    }

    /// The `(key, encoded header)` list for each hop, outermost first:
    /// layer `i` tells hop `i` where hop `i+1` is anchored, the innermost
    /// layer delivers to `dest`.
    fn layer_specs(
        &self,
        dest: Destination,
        hints: Option<&HintCache>,
    ) -> Vec<(tap_crypto::cipher::SymmetricKey, Vec<u8>)> {
        self.hops
            .iter()
            .enumerate()
            .map(|(i, hop)| {
                let header = if i + 1 < self.hops.len() {
                    let next = self.hops[i + 1].hopid;
                    HopHeader::Forward {
                        next_hop: next,
                        hint: hints.and_then(|h| h.lookup(next)),
                    }
                } else {
                    HopHeader::Deliver { dest }
                };
                (hop.key, header.encode())
            })
            .collect()
    }
}

/// Bytes of `fakeonion` the protocols append to a reply tunnel (§4): the
/// length of an onion a few layers deeper, so the true tail cannot tell it
/// is last.
pub const FAKEONION_LEN: usize = 96;

/// A reply tunnel `T_r` (§4): a pre-built onion the initiator ships inside
/// its request, which the responder then sends back through. The innermost
/// layer names `bid` — an identifier whose root is the initiator — and a
/// `fakeonion` "introduced to confuse the last hop in T_r".
#[derive(Debug, Clone)]
pub struct ReplyTunnel {
    /// The first reply hop's id (`hid_1'` — the responder hands the reply
    /// to this hop's node).
    pub entry_hopid: Id,
    /// The layered reply onion, as handed to the first reply hop.
    pub onion: Vec<u8>,
    /// The identifier whose root is the initiator (remembered so the
    /// initiator can recognise its own replies; never revealed before the
    /// last layer is peeled).
    pub bid: Id,
}

impl ReplyTunnel {
    /// Build a reply tunnel over `tunnel`, terminating at `bid`.
    ///
    /// The caller guarantees the initiator is the live node numerically
    /// closest to `bid` (see [`crate::World::choose_bid`]). `fakeonion_len`
    /// random bytes masquerade as a deeper onion so the true tail cannot
    /// tell it is last.
    pub fn build<R: Rng + ?Sized>(
        rng: &mut R,
        tunnel: &Tunnel,
        bid: Id,
        fakeonion_len: usize,
        hints: Option<&HintCache>,
    ) -> ReplyTunnel {
        let hops = tunnel.hops();
        let layers: Vec<_> = hops
            .iter()
            .enumerate()
            .map(|(i, hop)| {
                let next = if i + 1 < hops.len() {
                    hops[i + 1].hopid
                } else {
                    bid
                };
                let header = HopHeader::Forward {
                    next_hop: next,
                    hint: hints.and_then(|h| h.lookup(next)),
                };
                (hop.key, header.encode())
            })
            .collect();
        let mut fakeonion = vec![0u8; fakeonion_len];
        rng.fill(&mut fakeonion[..]);
        ReplyTunnel {
            entry_hopid: tunnel.entry_hopid(),
            onion: tap_crypto::onion::wrap(rng, &layers, &fakeonion),
            bid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tha::ThaFactory;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tap_crypto::onion;

    /// Number of distinct first digits among the hopids.
    fn scatter_score(t: &Tunnel, b: u32) -> usize {
        let digits: std::collections::HashSet<_> =
            t.hops().iter().map(|h| h.hopid.digit(0, b)).collect();
        digits.len()
    }

    fn pool(n: usize, seed: u64) -> (Vec<ThaSecret>, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let node = Id::random(&mut rng);
        let mut f = ThaFactory::new(&mut rng, node);
        let pool = (0..n).map(|_| f.next(&mut rng)).collect();
        (pool, rng)
    }

    #[test]
    fn form_scattered_prefers_distinct_digits() {
        let (p, mut rng) = pool(64, 1);
        let t = Tunnel::form_scattered(&mut rng, &p, 5, 4).unwrap();
        assert_eq!(t.len(), 5);
        // With 64 random anchors all 5 first digits are almost surely
        // available; the scatter rule must use them.
        assert_eq!(
            scatter_score(&t, 4),
            5,
            "hops should have distinct first digits"
        );
    }

    #[test]
    fn form_scattered_falls_back_when_pool_lacks_diversity() {
        // Anchors all in the same first-digit bucket: scatter is
        // impossible, but the tunnel must still form.
        let (p, mut rng) = pool(200, 2);
        let same: Vec<ThaSecret> = p
            .into_iter()
            .filter(|s| s.hopid.digit(0, 4) == 0x7)
            .collect();
        if same.len() >= 3 {
            let t = Tunnel::form_scattered(&mut rng, &same, 3, 4).unwrap();
            assert_eq!(t.len(), 3);
            assert_eq!(scatter_score(&t, 4), 1);
        }
    }

    #[test]
    fn form_scattered_requires_enough_anchors() {
        let (p, mut rng) = pool(2, 3);
        assert!(Tunnel::form_scattered(&mut rng, &p, 3, 4).is_none());
        assert!(Tunnel::form_scattered(&mut rng, &p, 0, 4).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate hopid")]
    fn duplicate_hops_rejected() {
        let (p, _) = pool(1, 4);
        Tunnel::new(vec![p[0].clone(), p[0].clone()]);
    }

    #[test]
    fn forward_onion_matches_fig1_structure() {
        let (p, mut rng) = pool(3, 5);
        let t = Tunnel::new(p.clone());
        let dest = Destination::Node(Id::from_u64(99));
        let onion_bytes = t.build_onion(&mut rng, dest, b"m", None);

        // Peel as each hop would.
        let keys: Vec<_> = p.iter().map(|h| h.key).collect();
        let l1 = onion::peel(&keys[0], &onion_bytes).unwrap();
        assert_eq!(
            HopHeader::decode(&l1.header).unwrap(),
            HopHeader::Forward {
                next_hop: p[1].hopid,
                hint: None
            }
        );
        let l2 = onion::peel(&keys[1], &l1.inner).unwrap();
        assert_eq!(
            HopHeader::decode(&l2.header).unwrap(),
            HopHeader::Forward {
                next_hop: p[2].hopid,
                hint: None
            }
        );
        let l3 = onion::peel(&keys[2], &l2.inner).unwrap();
        assert_eq!(
            HopHeader::decode(&l3.header).unwrap(),
            HopHeader::Deliver { dest }
        );
        assert_eq!(l3.inner, b"m");
    }

    #[test]
    fn hinted_onion_carries_hints() {
        let (p, mut rng) = pool(2, 6);
        let t = Tunnel::new(p.clone());
        let mut hints = HintCache::default();
        let node = Id::from_u64(1234);
        hints.record(p[1].hopid, node);
        let onion_bytes = t.build_onion(
            &mut rng,
            Destination::Node(Id::from_u64(9)),
            b"x",
            Some(&hints),
        );
        let l1 = onion::peel(&p[0].key, &onion_bytes).unwrap();
        assert_eq!(
            HopHeader::decode(&l1.header).unwrap(),
            HopHeader::Forward {
                next_hop: p[1].hopid,
                hint: Some(node)
            }
        );
    }

    #[test]
    fn reply_tunnel_terminates_at_bid() {
        let (p, mut rng) = pool(3, 7);
        let t = Tunnel::new(p.clone());
        let bid = Id::from_u64(4242);
        let rt = ReplyTunnel::build(&mut rng, &t, bid, 64, None);
        assert_eq!(rt.entry_hopid, p[0].hopid);

        let l1 = onion::peel(&p[0].key, &rt.onion).unwrap();
        let l2 = onion::peel(&p[1].key, &l1.inner).unwrap();
        let l3 = onion::peel(&p[2].key, &l2.inner).unwrap();
        assert_eq!(
            HopHeader::decode(&l3.header).unwrap(),
            HopHeader::Forward {
                next_hop: bid,
                hint: None
            }
        );
        assert_eq!(l3.inner.len(), 64, "fakeonion travels as the residue");
    }

    #[test]
    fn reply_and_forward_layers_are_indistinguishable_in_size_shape() {
        // The tail of a reply tunnel must not be able to tell it is last:
        // its peeled layer has the same header kind and a non-empty inner
        // blob, exactly like a middle hop's.
        let (p, mut rng) = pool(3, 8);
        let t = Tunnel::new(p.clone());
        let rt = ReplyTunnel::build(&mut rng, &t, Id::from_u64(1), 200, None);
        let l1 = onion::peel(&p[0].key, &rt.onion).unwrap();
        let l2 = onion::peel(&p[1].key, &l1.inner).unwrap();
        let l3 = onion::peel(&p[2].key, &l2.inner).unwrap();
        let h2 = HopHeader::decode(&l2.header).unwrap();
        let h3 = HopHeader::decode(&l3.header).unwrap();
        assert!(matches!(h2, HopHeader::Forward { .. }));
        assert!(
            matches!(h3, HopHeader::Forward { .. }),
            "tail looks like a middle hop"
        );
        assert!(!l3.inner.is_empty());
    }
}
