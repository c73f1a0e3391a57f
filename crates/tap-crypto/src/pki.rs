//! Per-node keypairs and public-key "sealed boxes".
//!
//! The paper's bootstrap (§3.3) assumes every node has a private/public
//! keypair so an initiator can build a one-shot Onion Routing path without
//! any prior shared secret. We provide exactly that surface:
//!
//! * [`KeyPair`] / [`PublicKey`] — X25519 keys.
//! * [`SealedBox`] — anonymous public-key encryption: a fresh ephemeral
//!   X25519 key agrees with the recipient's static key, the shared secret
//!   keys a [`crate::cipher::SymmetricKey`], and the ephemeral public key
//!   travels in the header. The recipient learns nothing about the sender
//!   (crucial: an onion layer must not identify the initiator).

use rand::Rng;

use crate::cipher::{CipherError, SymmetricKey};
use crate::x25519;

/// A node's public key.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey(pub [u8; 32]);

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PublicKey({:02x}{:02x}..)", self.0[0], self.0[1])
    }
}

/// A node's keypair.
#[derive(Clone)]
pub struct KeyPair {
    secret: [u8; 32],
    public: PublicKey,
}

impl std::fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KeyPair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

impl KeyPair {
    /// Generate a fresh keypair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut secret = [0u8; 32];
        rng.fill(&mut secret[..]);
        let public = PublicKey(x25519::public_key(&secret));
        KeyPair { secret, public }
    }

    /// The public half.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Raw Diffie–Hellman against a peer's public key.
    fn agree(&self, peer: &PublicKey) -> [u8; 32] {
        x25519::x25519(&self.secret, &peer.0)
    }

    /// Open a [`SealedBox`] addressed to this keypair.
    pub fn open(&self, boxed: &SealedBox) -> Result<Vec<u8>, CipherError> {
        let shared = x25519::x25519(&self.secret, &boxed.ephemeral.0);
        let key = box_key(&shared, &boxed.ephemeral, &self.public);
        key.open(&boxed.sealed)
    }
}

/// Anonymous public-key ciphertext: ephemeral key plus sealed payload.
#[derive(Clone, PartialEq, Eq)]
pub struct SealedBox {
    /// The sender's one-shot ephemeral public key.
    pub ephemeral: PublicKey,
    /// `SymmetricKey::seal` output under the derived box key.
    pub sealed: Vec<u8>,
}

impl std::fmt::Debug for SealedBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SealedBox")
            .field("ephemeral", &self.ephemeral)
            .field("len", &self.sealed.len())
            .finish()
    }
}

impl SealedBox {
    /// Encrypt `plaintext` to `recipient` with a fresh ephemeral key.
    pub fn seal<R: Rng + ?Sized>(
        rng: &mut R,
        recipient: &PublicKey,
        plaintext: &[u8],
    ) -> SealedBox {
        let eph = KeyPair::generate(rng);
        let shared = eph.agree(recipient);
        let key = box_key(&shared, &eph.public(), recipient);
        SealedBox {
            ephemeral: eph.public(),
            sealed: key.seal(rng, plaintext),
        }
    }
}

/// Bind the box key to both public keys so a ciphertext cannot be replayed
/// to a different recipient.
fn box_key(shared: &[u8; 32], ephemeral: &PublicKey, recipient: &PublicKey) -> SymmetricKey {
    let mut transcript = [0u8; 96];
    transcript[..32].copy_from_slice(shared);
    transcript[32..64].copy_from_slice(&ephemeral.0);
    transcript[64..].copy_from_slice(&recipient.0);
    SymmetricKey::derive(&transcript, "tap.box")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn seal_open_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let recipient = KeyPair::generate(&mut rng);
        let boxed = SealedBox::seal(&mut rng, &recipient.public(), b"onion layer");
        assert_eq!(recipient.open(&boxed).unwrap(), b"onion layer");
    }

    #[test]
    fn wrong_recipient_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let alice = KeyPair::generate(&mut rng);
        let eve = KeyPair::generate(&mut rng);
        let boxed = SealedBox::seal(&mut rng, &alice.public(), b"for alice");
        assert!(eve.open(&boxed).is_err());
    }

    #[test]
    fn tampered_ephemeral_rejected() {
        let mut rng = StdRng::seed_from_u64(3);
        let alice = KeyPair::generate(&mut rng);
        let mut boxed = SealedBox::seal(&mut rng, &alice.public(), b"msg");
        boxed.ephemeral.0[5] ^= 1;
        assert!(alice.open(&boxed).is_err());
    }

    #[test]
    fn agreement_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = KeyPair::generate(&mut rng);
        let b = KeyPair::generate(&mut rng);
        assert_eq!(a.agree(&b.public()), b.agree(&a.public()));
    }

    #[test]
    fn ciphertexts_are_unlinkable() {
        // Two boxes to the same recipient share no visible structure.
        let mut rng = StdRng::seed_from_u64(5);
        let alice = KeyPair::generate(&mut rng);
        let b1 = SealedBox::seal(&mut rng, &alice.public(), b"same");
        let b2 = SealedBox::seal(&mut rng, &alice.public(), b"same");
        assert_ne!(b1.ephemeral, b2.ephemeral);
        assert_ne!(b1.sealed, b2.sealed);
    }
}
