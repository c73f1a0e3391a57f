//! What a relay sees of an onion: the length it receives and the tag of the
//! header it peels (ROADMAP item 3(a)).
//!
//! Every layer of today's codec is its header plus 32 bytes (a 12-byte
//! nonce, a 4-byte length prefix and a 16-byte tag). A header is 21 bytes,
//! or 41 for a `Forward` that carries a §5 hint. Each hop strips one layer,
//! so hop `i` of an `l`-hop tunnel receives the core plus the `l − i + 1`
//! layers still around it, and that length names its position: the first
//! hop knows it is first, and so that its predecessor is the initiator,
//! which §6's case-2 argument assumes it cannot know.
//!
//! These tests pin the leak as it is, before item 3 changes the format: the
//! received length strictly decreases with the hop index, and a guesser
//! that sees only the received length, the header tag, `l` and the core
//! size always names the hop index. Item 3's constant-length layers flip
//! both assertions: every hop of a tunnel receives one length, and the
//! guesser does no better than its prior `1/l`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tap_core::tha::ThaFactory;
use tap_core::transit::HintCache;
use tap_core::tunnel::{ReplyTunnel, Tunnel};
use tap_core::wire::Destination;
use tap_crypto::onion::LayerBuf;
use tap_id::Id;

/// A header without a hint: tag plus one id.
const HEADER: usize = 21;
/// A `Forward` header with a §5 hint: tag plus two ids.
const HINTED_HEADER: usize = 41;
/// Nonce, length prefix and AEAD tag around every header.
const SEAL: usize = 32;
/// The tag of a hinted `Forward` header.
const TAG_FORWARD_HINTED: u8 = 2;

/// What one relay observes.
struct View {
    /// Bytes of onion it received.
    received: usize,
    /// The tag byte of the header it peeled.
    tag: u8,
}

/// The three kinds of onion a tunnel carries.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Node,
    KeyRoot,
    Reply,
}

/// An `l`-hop onion of `kind`, hinted or not, and the size of its core.
fn onion(rng: &mut StdRng, l: usize, hinted: bool, kind: Kind) -> (Tunnel, Vec<u8>, usize) {
    let initiator = Id::random(rng);
    let mut factory = ThaFactory::new(rng, initiator);
    let tunnel = Tunnel::new((0..l).map(|_| factory.next(rng)).collect());
    let mut hints = HintCache::default();
    for hop in tunnel.hop_ids() {
        hints.record(hop, Id::random(rng));
    }
    let hints = hinted.then_some(&hints);
    let core = [0x5a; 64];
    match kind {
        Kind::Node => {
            let dest = Destination::Node(Id::random(rng));
            let onion = tunnel.build_onion(rng, dest, &core, hints);
            (tunnel, onion, core.len())
        }
        Kind::KeyRoot => {
            let dest = Destination::KeyRoot(Id::random(rng));
            let onion = tunnel.build_onion(rng, dest, &core, hints);
            (tunnel, onion, core.len())
        }
        Kind::Reply => {
            let (bid, fakeonion) = (Id::random(rng), 96);
            let reply = ReplyTunnel::build(rng, &tunnel, bid, fakeonion, hints);
            (tunnel, reply.onion, fakeonion)
        }
    }
}

/// What each hop of `tunnel` sees, peeling `onion` with the hop keys.
fn views(tunnel: &Tunnel, onion: Vec<u8>) -> Vec<View> {
    let mut buf = LayerBuf::from_vec(onion);
    tunnel
        .hops()
        .iter()
        .map(|hop| {
            let received = buf.len();
            let header = buf.peel(&hop.key).expect("a well-formed onion peels");
            View {
                received,
                tag: header[0],
            }
        })
        .collect()
}

/// The hop index (0-based) a relay names from its own view alone. A hinted
/// `Forward` means every layer behind it is hinted too, bar the innermost
/// (a delivery, or a reply tunnel's hop to `bid`, which nobody caches);
/// any other header means unhinted layers, or that this is the innermost.
fn guess_hop(view: &View, l: usize, core: usize) -> usize {
    let rest = view.received - core;
    let layers = if view.tag == TAG_FORWARD_HINTED {
        1 + (rest - SEAL - HEADER) / (SEAL + HINTED_HEADER)
    } else {
        rest / (SEAL + HEADER)
    };
    l - layers
}

/// Every onion of the grid: l = 1..=8, hinted and not, each kind.
fn grid(mut visit: impl FnMut(usize, bool, Kind, usize, Vec<View>)) {
    let mut rng = StdRng::seed_from_u64(0x7e1a);
    for l in 1..=8 {
        for hinted in [false, true] {
            for kind in [Kind::Node, Kind::KeyRoot, Kind::Reply] {
                let (tunnel, onion, core) = onion(&mut rng, l, hinted, kind);
                visit(l, hinted, kind, core, views(&tunnel, onion));
            }
        }
    }
}

#[test]
fn the_onion_shrinks_by_one_layer_a_hop() {
    grid(|l, hinted, kind, core, views| {
        for (i, view) in views.iter().enumerate() {
            // Hops i..l still have their layers; all but the innermost
            // carry a hint when the tunnel is hinted.
            let hinted_layers = if hinted { l - 1 - i } else { 0 };
            let expected =
                core + (l - i) * (SEAL + HEADER) + hinted_layers * (HINTED_HEADER - HEADER);
            assert_eq!(
                view.received, expected,
                "l={l} {kind:?} hinted={hinted} hop {i}"
            );
        }
        assert!(
            views.windows(2).all(|v| v[0].received > v[1].received),
            "l={l} {kind:?} hinted={hinted}: the length must strictly decrease"
        );
    });
}

#[test]
fn the_received_length_names_the_hop() {
    let mut guesses = 0;
    grid(|l, hinted, kind, core, views| {
        for (i, view) in views.iter().enumerate() {
            assert_eq!(
                guess_hop(view, l, core),
                i,
                "l={l} {kind:?} hinted={hinted}"
            );
            guesses += 1;
        }
    });
    assert_eq!(guesses, 2 * 3 * (1..=8).sum::<usize>(), "every hop guessed");
}
