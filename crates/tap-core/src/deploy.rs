//! Anonymous THA deployment (§3.3).
//!
//! A node cannot deploy its anchors directly — storage nodes would link the
//! hopids to its address. Instead it builds a one-shot **Onion Routing**
//! path over nodes whose public keys it knows and hands each relay one
//! anchor to store: "It creates an onion carrying instructions for each
//! node on the Onion path to store a THA on the system" (§3.3). If any
//! relay on the path is dead the whole deployment aborts — acceptable,
//! says the paper, because deployment is not performance critical and the
//! node simply retries over another path.
//!
//! Storage nodes charge a CPU puzzle per deposit (the §3.3 flood defence).

use std::collections::HashMap;

use rand::Rng;
use tap_crypto::{KeyPair, Puzzle, SealedBox};
use tap_id::{Id, ID_BYTES};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::Overlay;

use crate::tha::Tha;

/// Why a deployment failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// A relay on the bootstrap onion path is dead; deployment aborts.
    RelayDown {
        /// The dead relay.
        node: Id,
    },
    /// An onion layer failed to open at a relay (key mismatch/tampering).
    BadOnion {
        /// The relay that could not open its layer.
        node: Id,
    },
    /// The storing node rejected the deposit (duplicate hopid).
    Rejected {
        /// The duplicate hop identifier.
        hopid: Id,
    },
    /// The depositor's puzzle solution did not verify.
    PuzzleFailed {
        /// The hop whose deposit was refused.
        hopid: Id,
    },
    /// Caller passed mismatched relay/anchor counts.
    Mismatched,
}

impl std::fmt::Display for DeployError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeployError::RelayDown { node } => write!(f, "bootstrap relay {node:?} is down"),
            DeployError::BadOnion { node } => write!(f, "onion layer failed at {node:?}"),
            DeployError::Rejected { hopid } => write!(f, "deposit rejected for {hopid:?}"),
            DeployError::PuzzleFailed { hopid } => {
                write!(f, "puzzle verification failed for {hopid:?}")
            }
            DeployError::Mismatched => write!(f, "one anchor per relay is required"),
        }
    }
}

impl std::error::Error for DeployError {}

/// One relay's decrypted instruction: the anchor it must deposit, plus the
/// sealed remainder for the next relay (if any).
struct Instruction {
    tha: Tha,
    next_relay: Option<Id>,
    inner: Option<SealedBox>,
}

impl Instruction {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(self.tha.hopid.as_bytes());
        out.extend_from_slice(self.tha.key.as_bytes());
        out.extend_from_slice(&self.tha.pw_hash);
        match (&self.next_relay, &self.inner) {
            (Some(next), Some(boxed)) => {
                out.push(1);
                out.extend_from_slice(next.as_bytes());
                out.extend_from_slice(&boxed.ephemeral.0);
                out.extend_from_slice(&(boxed.sealed.len() as u32).to_be_bytes());
                out.extend_from_slice(&boxed.sealed);
            }
            _ => out.push(0),
        }
        out
    }

    fn decode(bytes: &[u8]) -> Option<Instruction> {
        let tha_len = ID_BYTES + 32 + 32;
        let (tha_bytes, rest) = bytes.split_at_checked(tha_len)?;
        let mut hopid = [0u8; ID_BYTES];
        hopid.copy_from_slice(&tha_bytes[..ID_BYTES]);
        let mut key = [0u8; 32];
        key.copy_from_slice(&tha_bytes[ID_BYTES..ID_BYTES + 32]);
        let mut pw_hash = [0u8; 32];
        pw_hash.copy_from_slice(&tha_bytes[ID_BYTES + 32..]);
        let tha = Tha {
            hopid: Id::from_bytes(hopid),
            key: tap_crypto::SymmetricKey::from_bytes(key),
            pw_hash,
        };
        let (&flag, rest) = rest.split_first()?;
        if flag == 0 {
            return rest.is_empty().then_some(Instruction {
                tha,
                next_relay: None,
                inner: None,
            });
        }
        let (next_bytes, rest) = rest.split_at_checked(ID_BYTES)?;
        let mut next = [0u8; ID_BYTES];
        next.copy_from_slice(next_bytes);
        let (eph_bytes, rest) = rest.split_at_checked(32)?;
        let mut eph = [0u8; 32];
        eph.copy_from_slice(eph_bytes);
        let (len_bytes, rest) = rest.split_at_checked(4)?;
        let len =
            u32::from_be_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]) as usize;
        if rest.len() != len {
            return None;
        }
        Some(Instruction {
            tha,
            next_relay: Some(Id::from_bytes(next)),
            inner: Some(SealedBox {
                ephemeral: tap_crypto::PublicKey(eph),
                sealed: rest.to_vec(),
            }),
        })
    }
}

/// Report of a successful deployment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct DeployReport {
    /// Anchors deposited, in path order.
    pub(crate) deposited: Vec<Id>,
    /// Total puzzle-solving work performed (sum of winning nonces — a
    /// proxy for hashes burned, useful for the flood-defence ablation).
    pub(crate) puzzle_work: u64,
}

/// Deploy one anchor per relay through an onion path (§3.3).
///
/// Builds the nested sealed boxes, then plays each relay's role: open the
/// layer, solve the storage puzzle, deposit the anchor onto the k closest
/// nodes, forward the remainder. All-or-nothing: a dead relay or rejected
/// deposit aborts with the anchors deposited so far rolled back, so the
/// caller can retry on a fresh path.
///
/// `keys` is the simulator's stand-in for the PKI the paper assumes
/// ("relying on a public key infrastructure … each node has a pair of
/// private and public keys"): each relay's keypair.
pub(crate) fn deploy_via_onion<R: Rng + ?Sized>(
    rng: &mut R,
    overlay: &Overlay,
    store: &mut ReplicaStore<Tha>,
    keys: &HashMap<Id, KeyPair>,
    relays: &[Id],
    anchors: &[Tha],
    puzzle_difficulty: u8,
) -> Result<DeployReport, DeployError> {
    if relays.len() != anchors.len() {
        return Err(DeployError::Mismatched);
    }

    // Build the onion inside-out.
    let mut inner: Option<(Id, SealedBox)> = None;
    for (relay, tha) in relays.iter().zip(anchors.iter()).rev() {
        let (next_relay, inner_box) = match inner.take() {
            Some((next, boxed)) => (Some(next), Some(boxed)),
            None => (None, None),
        };
        let instruction = Instruction {
            tha: tha.clone(),
            next_relay,
            inner: inner_box,
        };
        let pk = keys
            .get(relay)
            .ok_or(DeployError::RelayDown { node: *relay })?
            .public();
        inner = Some((*relay, SealedBox::seal(rng, &pk, &instruction.encode())));
    }
    let Some((first_relay, mut cursor)) = inner else {
        // No relay at all: nothing to carry the anchors.
        return Err(DeployError::Mismatched);
    };

    // Play each relay.
    let mut report = DeployReport::default();
    let mut relay = first_relay;
    let result: Result<(), DeployError> = loop {
        if !overlay.is_live(relay) {
            break Err(DeployError::RelayDown { node: relay });
        }
        let kp = match keys.get(&relay) {
            Some(kp) => kp,
            None => break Err(DeployError::RelayDown { node: relay }),
        };
        let plain = match kp.open(&cursor) {
            Ok(p) => p,
            Err(_) => break Err(DeployError::BadOnion { node: relay }),
        };
        let instruction = match Instruction::decode(&plain) {
            Some(i) => i,
            None => break Err(DeployError::BadOnion { node: relay }),
        };

        // Storage-side flood defence: the root of the hopid issues a
        // puzzle, the depositing relay burns CPU, the root verifies.
        let hopid = instruction.tha.hopid;
        let puzzle = Puzzle::issue(rng, puzzle_difficulty);
        let solution = puzzle.solve(hopid.as_bytes());
        if !puzzle.verify(hopid.as_bytes(), &solution) {
            break Err(DeployError::PuzzleFailed { hopid });
        }
        report.puzzle_work += solution.nonce;

        if !matches!(store.insert(overlay, hopid, instruction.tha), Ok(true)) {
            break Err(DeployError::Rejected { hopid });
        }
        report.deposited.push(hopid);

        match (instruction.next_relay, instruction.inner) {
            (Some(next), Some(boxed)) => {
                relay = next;
                cursor = boxed;
            }
            _ => break Ok(()),
        }
    };

    match result {
        Ok(()) => Ok(report),
        Err(e) => {
            // Roll back partial deposits so a retry starts clean.
            for hopid in &report.deposited {
                store.remove(*hopid);
            }
            Err(e)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draws::{Draws, Purpose, Purpose::Flow};
    use crate::tha::ThaFactory;
    use crate::world::World;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tap_pastry::PastryConfig;

    /// A world of `n` nodes, and each node's bootstrap keypair drawn as
    /// the world draws it.
    fn world(n: usize, seed: u64) -> (World, HashMap<Id, KeyPair>) {
        let draws = Draws::from(seed);
        let w = World::build(PastryConfig::paper_defaults(), n, draws);
        let keys = w
            .joined()
            .iter()
            .map(|&id| {
                let mut rng = draws.stream(Purpose::Keypair, id.low_u64());
                (id, KeyPair::generate(&mut rng))
            })
            .collect();
        (w, keys)
    }

    /// `count` anchors of a random node's fresh factory, not yet stored.
    fn anchors(w: &mut World, count: usize) -> Vec<Tha> {
        let node = w.random_node().unwrap();
        let mut rng = w.stream(Purpose::Formation);
        let mut f = ThaFactory::new(&mut rng, node);
        (0..count).map(|_| f.next(&mut rng).stored()).collect()
    }

    /// `count` distinct random relays.
    fn relays(w: &mut World, count: usize) -> Vec<Id> {
        let mut out = Vec::new();
        while out.len() < count {
            let n = w.random_node().unwrap();
            if !out.contains(&n) {
                out.push(n);
            }
        }
        out
    }

    #[test]
    fn deploy_stores_every_anchor() {
        let (mut w, keys) = world(100, 1);
        let thas = anchors(&mut w, 3);
        let path = relays(&mut w, 3);
        let report = deploy_via_onion(
            &mut w.stream(Flow),
            &w.overlay,
            &mut w.thas,
            &keys,
            &path,
            &thas,
            4,
        )
        .unwrap();
        assert_eq!(report.deposited.len(), 3);
        for tha in &thas {
            assert_eq!(w.thas.holders(tha.hopid), w.overlay.k_closest(tha.hopid, 3));
        }
    }

    #[test]
    fn dead_relay_aborts_and_rolls_back() {
        let (mut w, keys) = world(100, 2);
        let thas = anchors(&mut w, 3);
        let path = relays(&mut w, 3);
        w.overlay.remove_node(path[1]);
        let err = deploy_via_onion(
            &mut w.stream(Flow),
            &w.overlay,
            &mut w.thas,
            &keys,
            &path,
            &thas,
            0,
        )
        .unwrap_err();
        assert_eq!(err, DeployError::RelayDown { node: path[1] });
        assert!(w.thas.is_empty(), "partial deposits rolled back");
    }

    #[test]
    fn retry_on_fresh_path_succeeds() {
        // "A node can always try to use another Onion path to deploy its
        // initial THAs until the first anonymous tunnel is able to be
        // formed."
        let (mut w, keys) = world(100, 3);
        let thas = anchors(&mut w, 2);
        let bad_path = relays(&mut w, 2);
        w.overlay.remove_node(bad_path[0]);
        assert!(deploy_via_onion(
            &mut w.stream(Flow),
            &w.overlay,
            &mut w.thas,
            &keys,
            &bad_path,
            &thas,
            0,
        )
        .is_err());
        let good_path: Vec<Id> = relays(&mut w, 2);
        deploy_via_onion(
            &mut w.stream(Flow),
            &w.overlay,
            &mut w.thas,
            &keys,
            &good_path,
            &thas,
            0,
        )
        .unwrap();
        assert_eq!(w.thas.len(), 2);
    }

    #[test]
    fn duplicate_hopid_rejected() {
        let (mut w, keys) = world(100, 4);
        let thas = anchors(&mut w, 1);
        let p1 = relays(&mut w, 1);
        deploy_via_onion(
            &mut w.stream(Flow),
            &w.overlay,
            &mut w.thas,
            &keys,
            &p1,
            &thas,
            0,
        )
        .unwrap();
        let p2 = relays(&mut w, 1);
        let err = deploy_via_onion(
            &mut w.stream(Flow),
            &w.overlay,
            &mut w.thas,
            &keys,
            &p2,
            &thas,
            0,
        )
        .unwrap_err();
        assert_eq!(
            err,
            DeployError::Rejected {
                hopid: thas[0].hopid
            }
        );
    }

    #[test]
    fn mismatched_inputs_rejected() {
        let (mut w, keys) = world(50, 5);
        let thas = anchors(&mut w, 2);
        let path = relays(&mut w, 3);
        assert_eq!(
            deploy_via_onion(
                &mut w.stream(Flow),
                &w.overlay,
                &mut w.thas,
                &keys,
                &path,
                &thas,
                0,
            ),
            Err(DeployError::Mismatched)
        );
        assert_eq!(
            deploy_via_onion(
                &mut w.stream(Flow),
                &w.overlay,
                &mut w.thas,
                &keys,
                &[],
                &[],
                0,
            ),
            Err(DeployError::Mismatched)
        );
    }

    #[test]
    fn puzzle_work_scales_with_difficulty() {
        let (mut w, keys) = world(100, 6);
        let mut total_easy = 0u64;
        let mut total_hard = 0u64;
        for round in 0..8 {
            let thas = anchors(&mut w, 1);
            let path = relays(&mut w, 1);
            let difficulty = if round % 2 == 0 { 2 } else { 10 };
            let report = deploy_via_onion(
                &mut w.stream(Flow),
                &w.overlay,
                &mut w.thas,
                &keys,
                &path,
                &thas,
                difficulty,
            )
            .unwrap();
            if difficulty == 2 {
                total_easy += report.puzzle_work;
            } else {
                total_hard += report.puzzle_work;
            }
        }
        assert!(
            total_hard > total_easy,
            "hard puzzles ({total_hard}) should cost more than easy ({total_easy})"
        );
    }

    #[test]
    fn instruction_codec_roundtrip() {
        let mut rng = StdRng::seed_from_u64(8);
        let tha = Tha {
            hopid: Id::random(&mut rng),
            key: tap_crypto::SymmetricKey::generate(&mut rng),
            pw_hash: [7u8; 32],
        };
        let terminal = Instruction {
            tha: tha.clone(),
            next_relay: None,
            inner: None,
        };
        let decoded = Instruction::decode(&terminal.encode()).unwrap();
        assert_eq!(decoded.tha, tha);
        assert!(decoded.next_relay.is_none());

        let kp = KeyPair::generate(&mut rng);
        let chained = Instruction {
            tha: tha.clone(),
            next_relay: Some(Id::from_u64(5)),
            inner: Some(SealedBox::seal(&mut rng, &kp.public(), b"inner")),
        };
        let decoded = Instruction::decode(&chained.encode()).unwrap();
        assert_eq!(decoded.next_relay, Some(Id::from_u64(5)));
        assert_eq!(
            kp.open(&decoded.inner.unwrap()).unwrap(),
            b"inner",
            "nested box survives the codec"
        );
        // Garbage is rejected, not panicked on.
        assert!(Instruction::decode(&[1, 2, 3]).is_none());
    }
}
