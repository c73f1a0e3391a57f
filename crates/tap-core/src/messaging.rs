//! Anonymous messaging with reply blocks — the paper's e-mail scenario.
//!
//! §1 motivates TAP with "anonymous email systems: current tunneling
//! techniques may fail to route the reply back to the sender due to node
//! failures along the tunnel, while TAP can route the reply back to the
//! sender thanks to its robustness (… by using a reply tunnel T_r)."
//!
//! The asynchronous shape matters: unlike §4's file retrieval, the reply
//! here happens *later* — the recipient holds the reply block while nodes
//! churn, and the block must still work. A reply block is exactly a
//! [`ReplyTunnel`] plus a one-shot public key:
//!
//! * the sender mints a fresh keypair `K_I` and a reply tunnel ending at a
//!   `bid` it owns;
//! * the message travels through a forward tunnel; the recipient learns
//!   the plaintext, `K_I`'s public half, and the reply block — nothing
//!   about the sender;
//! * any time later, the recipient encrypts its answer to `K_I` and sends
//!   it down the reply block; TAP's replica failover keeps the block alive
//!   through the churn in between.

use rand::Rng;

use tap_crypto::{KeyPair, PublicKey, SealedBox};
use tap_id::{Id, ID_BYTES};
use tap_pastry::storage::ReplicaStore;
use tap_pastry::KeyRouter;

use crate::tha::Tha;
use crate::transit::{self, Delivery, TransitError, TransitOptions};
use crate::tunnel::{ReplyTunnel, Tunnel, FAKEONION_LEN};
use crate::wire::Destination;

/// What a sender keeps to receive the answer.
#[derive(Debug)]
pub struct PendingReply {
    /// The one-shot keypair whose public half travelled with the message.
    keypair: KeyPair,
    /// The identifier the reply terminates at (the sender is its root).
    pub bid: Id,
}

/// What a recipient holds after receiving an anonymous message.
#[derive(Debug, Clone)]
pub struct ReplyBlock {
    /// Where to inject the reply.
    pub entry_hopid: Id,
    /// The layered reply onion.
    pub onion: Vec<u8>,
    /// Encrypt the answer to this key.
    pub reply_key: PublicKey,
}

/// A received anonymous message.
#[derive(Debug, Clone)]
pub struct ReceivedMessage {
    /// The plaintext body.
    pub body: Vec<u8>,
    /// The block with which to answer.
    pub reply_block: ReplyBlock,
}

/// Messaging errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessagingError {
    /// The forward tunnel failed.
    Forward(TransitError),
    /// The reply block's tunnel failed.
    Reply(TransitError),
    /// Message bytes did not parse.
    Malformed,
    /// The reply landed somewhere other than the sender.
    Misdelivered {
        /// Where it landed instead.
        node: Id,
    },
}

impl std::fmt::Display for MessagingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MessagingError::Forward(e) => write!(f, "forward tunnel failed: {e}"),
            MessagingError::Reply(e) => write!(f, "reply block failed: {e}"),
            MessagingError::Malformed => write!(f, "message malformed"),
            MessagingError::Misdelivered { node } => {
                write!(f, "reply landed at {node:?}")
            }
        }
    }
}

impl std::error::Error for MessagingError {}

fn encode_message(body: &[u8], entry: Id, onion: &[u8], key: &PublicKey) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + onion.len() + ID_BYTES + 40);
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(entry.as_bytes());
    out.extend_from_slice(&key.0);
    out.extend_from_slice(&(onion.len() as u32).to_be_bytes());
    out.extend_from_slice(onion);
    out
}

fn decode_message(bytes: &[u8]) -> Option<ReceivedMessage> {
    let (len_b, rest) = bytes.split_at_checked(4)?;
    let blen = u32::from_be_bytes([len_b[0], len_b[1], len_b[2], len_b[3]]) as usize;
    let (body, rest) = rest.split_at_checked(blen)?;
    let (entry_b, rest) = rest.split_at_checked(ID_BYTES)?;
    let (key_b, rest) = rest.split_at_checked(32)?;
    let (len_b, rest) = rest.split_at_checked(4)?;
    let olen = u32::from_be_bytes([len_b[0], len_b[1], len_b[2], len_b[3]]) as usize;
    (rest.len() == olen).then(|| ReceivedMessage {
        body: body.to_vec(),
        reply_block: ReplyBlock {
            entry_hopid: Id::from_bytes(entry_b.try_into().expect("sized")),
            onion: rest.to_vec(),
            reply_key: PublicKey(key_b.try_into().expect("sized")),
        },
    })
}

/// Send `body` anonymously from `sender` to `recipient` through `fwd`,
/// attaching a reply block built over `rev` terminating at `bid`.
///
/// Returns the recipient-side view plus the sender's [`PendingReply`].
#[allow(clippy::too_many_arguments)]
pub fn send_with_reply_block<R: Rng + ?Sized>(
    rng: &mut R,
    overlay: &mut impl KeyRouter,
    thas: &ReplicaStore<Tha>,
    sender: Id,
    recipient: Id,
    body: &[u8],
    fwd: &Tunnel,
    rev: &Tunnel,
    bid: Id,
) -> Result<(Id, ReceivedMessage, PendingReply), MessagingError> {
    let keypair = KeyPair::generate(rng);
    let reply_tunnel = ReplyTunnel::build(rng, rev, bid, FAKEONION_LEN, None);
    let payload = encode_message(
        body,
        reply_tunnel.entry_hopid,
        &reply_tunnel.onion,
        &keypair.public(),
    );
    let onion = fwd.build_onion(rng, Destination::Node(recipient), &payload, None);
    let (delivery, _) = transit::drive(
        overlay,
        thas,
        sender,
        fwd.entry_hopid(),
        onion,
        TransitOptions::default(),
    )
    .map_err(MessagingError::Forward)?;
    let (node, core) = match delivery {
        Delivery::ToDestination { node, core } => (node, core),
        Delivery::AtAnchorlessRoot { .. } => return Err(MessagingError::Malformed),
    };
    let received = decode_message(&core).ok_or(MessagingError::Malformed)?;
    Ok((node, received, PendingReply { keypair, bid }))
}

/// The recipient answers through the reply block (possibly much later).
/// Returns the node the answer surfaced at and the sealed answer, exactly
/// as the sender's node receives them.
pub fn reply<R: Rng + ?Sized>(
    rng: &mut R,
    overlay: &mut impl KeyRouter,
    thas: &ReplicaStore<Tha>,
    responder: Id,
    block: &ReplyBlock,
    answer: &[u8],
) -> Result<(Id, SealedBox), MessagingError> {
    let sealed = SealedBox::seal(rng, &block.reply_key, answer);
    let (delivery, _) = transit::drive(
        overlay,
        thas,
        responder,
        block.entry_hopid,
        block.onion.clone(),
        TransitOptions::default(),
    )
    .map_err(MessagingError::Reply)?;
    match delivery {
        Delivery::AtAnchorlessRoot { node, .. } => Ok((node, sealed)),
        Delivery::ToDestination { node, .. } => Err(MessagingError::Misdelivered { node }),
    }
}

impl PendingReply {
    /// Open a sealed answer that surfaced at the sender's node.
    pub fn open(
        &self,
        landed_at: Id,
        expected_self: Id,
        sealed: &SealedBox,
    ) -> Result<Vec<u8>, MessagingError> {
        if landed_at != expected_self {
            return Err(MessagingError::Misdelivered { node: landed_at });
        }
        self.keypair
            .open(sealed)
            .map_err(|_| MessagingError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;
    use tap_pastry::PastryConfig;

    struct Fx {
        world: World,
        sender: Id,
    }

    fn fixture(n: usize, seed: u64) -> Fx {
        let mut world = World::build(PastryConfig::paper_defaults(), n, seed);
        let sender = world.random_node().unwrap();
        Fx { world, sender }
    }

    fn tunnel(fx: &mut Fx, l: usize) -> Tunnel {
        Tunnel::new(fx.world.fresh_hops(fx.sender, l).unwrap())
    }

    #[test]
    fn anonymous_round_trip() {
        let mut fx = fixture(200, 1);
        let fwd = tunnel(&mut fx, 3);
        let rev = tunnel(&mut fx, 3);
        let bid = fx.sender.wrapping_add(Id::from_u64(1));
        let recipient = loop {
            let r = fx.world.overlay.random_node(&mut fx.world.rng).unwrap();
            if r != fx.sender {
                break r;
            }
        };
        let (node, received, pending) = send_with_reply_block(
            &mut fx.world.rng,
            &mut fx.world.overlay,
            &fx.world.thas,
            fx.sender,
            recipient,
            b"hello, whoever you are",
            &fwd,
            &rev,
            bid,
        )
        .unwrap();
        assert_eq!(node, recipient);
        assert_eq!(received.body, b"hello, whoever you are");

        let (landed, sealed) = reply(
            &mut fx.world.rng,
            &mut fx.world.overlay,
            &fx.world.thas,
            recipient,
            &received.reply_block,
            b"hello back, stranger",
        )
        .unwrap();
        let answer = pending.open(landed, fx.sender, &sealed).unwrap();
        assert_eq!(answer, b"hello back, stranger");
    }

    #[test]
    fn reply_block_survives_churn_between_send_and_reply() {
        // The asynchronous-email property: nodes churn between delivery
        // and answer, including reply-tunnel hop nodes, and the block
        // still routes home.
        let mut fx = fixture(300, 2);
        let fwd = tunnel(&mut fx, 3);
        let rev = tunnel(&mut fx, 3);
        let bid = fx.sender.wrapping_add(Id::from_u64(1));
        let recipient = loop {
            let r = fx.world.overlay.random_node(&mut fx.world.rng).unwrap();
            if r != fx.sender {
                break r;
            }
        };
        let (_, received, pending) = send_with_reply_block(
            &mut fx.world.rng,
            &mut fx.world.overlay,
            &fx.world.thas,
            fx.sender,
            recipient,
            b"write back whenever",
            &fwd,
            &rev,
            bid,
        )
        .unwrap();

        // Kill every *current* hop node of the reply tunnel (with replica
        // repair, as PAST provides).
        for hop in rev.hop_ids() {
            let root = fx.world.overlay.owner_of(hop).unwrap();
            if root != fx.sender && root != recipient && fx.world.overlay.is_live(root) {
                fx.world.overlay.remove_node(root);
                fx.world.thas.on_node_removed(&fx.world.overlay, root);
            }
        }

        let (landed, sealed) = reply(
            &mut fx.world.rng,
            &mut fx.world.overlay,
            &fx.world.thas,
            recipient,
            &received.reply_block,
            b"took a while",
        )
        .unwrap();
        assert_eq!(
            pending.open(landed, fx.sender, &sealed).unwrap(),
            b"took a while"
        );
    }

    #[test]
    fn recipient_cannot_read_other_replies() {
        // The reply key is one-shot: a different keypair cannot open the
        // sealed answer (unlinkability across conversations).
        let mut fx = fixture(150, 3);
        let fwd = tunnel(&mut fx, 3);
        let rev = tunnel(&mut fx, 3);
        let bid = fx.sender.wrapping_add(Id::from_u64(1));
        let recipient = loop {
            let r = fx.world.overlay.random_node(&mut fx.world.rng).unwrap();
            if r != fx.sender {
                break r;
            }
        };
        let (_, received, _pending) = send_with_reply_block(
            &mut fx.world.rng,
            &mut fx.world.overlay,
            &fx.world.thas,
            fx.sender,
            recipient,
            b"msg",
            &fwd,
            &rev,
            bid,
        )
        .unwrap();
        let (_, sealed) = reply(
            &mut fx.world.rng,
            &mut fx.world.overlay,
            &fx.world.thas,
            recipient,
            &received.reply_block,
            b"secret answer",
        )
        .unwrap();
        let other = KeyPair::generate(&mut fx.world.rng);
        assert!(other.open(&sealed).is_err());
    }

    #[test]
    fn malformed_message_rejected() {
        assert!(decode_message(b"").is_none());
        assert!(decode_message(&[0, 0, 0, 99, 1, 2]).is_none());
        // Trailing garbage rejected.
        let mut ok = encode_message(b"x", Id::from_u64(1), b"onion", &PublicKey([9; 32]));
        let parsed = decode_message(&ok).unwrap();
        assert_eq!(parsed.body, b"x");
        ok.push(0);
        assert!(decode_message(&ok).is_none());
    }

    #[test]
    fn misdelivery_detected_by_sender() {
        let mut fx = fixture(100, 4);
        let pending = PendingReply {
            keypair: KeyPair::generate(&mut fx.world.rng),
            bid: Id::from_u64(1),
        };
        let sealed = SealedBox::seal(&mut fx.world.rng, &pending.keypair.public(), b"x");
        let err = pending
            .open(Id::from_u64(42), Id::from_u64(43), &sealed)
            .unwrap_err();
        assert_eq!(
            err,
            MessagingError::Misdelivered {
                node: Id::from_u64(42)
            }
        );
    }
}
