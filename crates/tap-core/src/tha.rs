//! Tunnel Hop Anchors (§3.1–§3.2).
//!
//! A THA `<hopid, K, H(PW)>` anchors one tunnel hop in the system. The
//! `hopid` doubles as the DHT key under which the anchor is replicated;
//! `K` is the hop's symmetric key; `H(PW)` commits to a password so that
//! only the owner (who knows `PW`) can delete the anchor later.
//!
//! Generation must be collision-free *and* unlinkable: `hopid =
//! H(node_ID, hkey, t)` where `hkey` is a per-node secret and `t` a
//! creation timestamp/counter — without `hkey`, nobody can recompute the
//! hash for each known node and link a hopid back to its creator.

use rand::Rng;
use tap_crypto::sha1::Sha1;
use tap_crypto::sha256::sha256;
use tap_crypto::{frame, SymmetricKey};
use tap_id::{ArcRange, Id};

/// The owner's view of an anchor: includes the deletion password.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThaSecret {
    /// The hop identifier (and DHT key).
    pub hopid: Id,
    /// The hop's symmetric key `K`.
    pub key: SymmetricKey,
    /// The deletion password `PW` (kept only by the owner).
    pub password: [u8; 32],
}

/// The stored (public-to-holders) form: `<hopid, K, H(PW)>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tha {
    /// The hop identifier.
    pub hopid: Id,
    /// The hop's symmetric key `K` — holders need it to peel layers.
    pub key: SymmetricKey,
    /// `H(PW)`: the hash of the owner's deletion password.
    pub pw_hash: [u8; 32],
}

impl ThaSecret {
    /// The replica-holder form of this anchor.
    pub fn stored(&self) -> Tha {
        Tha {
            hopid: self.hopid,
            key: self.key,
            pw_hash: sha256(&self.password),
        }
    }
}

impl Tha {
    /// Verify a presented deletion password against the stored commitment.
    ///
    /// The holders "hash the received PW, compare the hash value with the
    /// stored H(PW), and if they match, remove the THA" (§3.4).
    pub fn verify_password(&self, pw: &[u8; 32]) -> bool {
        tap_crypto::hmac::verify_tag(&sha256(pw), &self.pw_hash)
    }
}

/// Per-node THA generator implementing the §3.2 construction.
#[derive(Debug, Clone)]
pub struct ThaFactory {
    /// SHA-1 after `node_ID` and `hkey`, framed as `derive_id` frames
    /// them. Those are the first 64 of a hopid's 84 framed bytes, so their
    /// block is compressed once here and each hopid hashes one more.
    prefix: Sha1,
    /// Monotone creation counter standing in for the timestamp `t`; the
    /// paper only needs `t` to make successive hopids distinct.
    t: u64,
}

impl ThaFactory {
    /// A factory for `node_id` with a fresh random `hkey`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, node_id: Id) -> Self {
        let mut hkey = [0u8; 32];
        rng.fill(&mut hkey[..]);
        Self::with_hkey(node_id, hkey)
    }

    /// Deterministic factory for tests.
    pub fn with_hkey(node_id: Id, hkey: [u8; 32]) -> Self {
        let mut prefix = Sha1::new();
        frame(&mut prefix, &[node_id.as_bytes(), &hkey]);
        ThaFactory { prefix, t: 0 }
    }

    /// The hopid the factory would produce at counter value `t`:
    /// `derive_id(&[node_ID, hkey, t])`.
    pub fn hopid_at(&self, t: u64) -> Id {
        let mut h = self.prefix.clone();
        frame(&mut h, &[&t.to_be_bytes()]);
        Id::from_bytes(h.finalize())
    }

    /// Generate the next anchor: `hopid = H(node_ID, hkey, t)` plus a
    /// random key and password (§3.2).
    pub fn next<R: Rng + ?Sized>(&mut self, rng: &mut R) -> ThaSecret {
        let hopid = self.hopid_at(self.t);
        self.t += 1;
        let mut password = [0u8; 32];
        rng.fill(&mut password[..]);
        ThaSecret {
            hopid,
            key: SymmetricKey::generate(rng),
            password,
        }
    }

    /// Generate the next anchor whose hopid falls inside `bucket`, by
    /// advancing `t` until the hash lands there. Supports the scattered
    /// hop-selection rule (§3.5: hopids "with different hopid's prefixes")
    /// while preserving the node-specific hash construction.
    pub fn next_in<R: Rng + ?Sized>(&mut self, rng: &mut R, bucket: &ArcRange) -> ThaSecret {
        loop {
            let candidate = self.hopid_at(self.t);
            if bucket.contains(candidate) {
                return self.next(rng);
            }
            self.t += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn factory(seed: u64) -> (ThaFactory, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let node = Id::random(&mut rng);
        (ThaFactory::new(&mut rng, node), rng)
    }

    #[test]
    fn hopids_are_distinct_per_t() {
        let (mut f, mut rng) = factory(1);
        let a = f.next(&mut rng);
        let b = f.next(&mut rng);
        assert_ne!(a.hopid, b.hopid);
        assert_ne!(a.key, b.key);
        assert_ne!(a.password, b.password);
    }

    #[test]
    fn hopid_depends_on_hkey_and_node() {
        let mut rng = StdRng::seed_from_u64(2);
        let node = Id::random(&mut rng);
        let f1 = ThaFactory::with_hkey(node, [1u8; 32]);
        let f2 = ThaFactory::with_hkey(node, [2u8; 32]);
        assert_ne!(
            f1.hopid_at(0),
            f2.hopid_at(0),
            "without hkey a hopid would be linkable by recomputation"
        );
        let other = Id::random(&mut rng);
        let f3 = ThaFactory::with_hkey(other, [1u8; 32]);
        assert_ne!(f1.hopid_at(0), f3.hopid_at(0));
    }

    proptest! {
        /// The kept midstate is the framing `derive_id` uses, at any `t`.
        #[test]
        fn prop_hopid_at_is_derive_id_of_node_hkey_and_t(
            node in any::<[u8; 20]>(),
            hkey in any::<[u8; 32]>(),
            t in any::<u64>(),
        ) {
            let f = ThaFactory::with_hkey(Id::from_bytes(node), hkey);
            let want = tap_crypto::derive_id(&[&node, &hkey, &t.to_be_bytes()]);
            prop_assert_eq!(f.hopid_at(t), want);
        }
    }

    #[test]
    fn password_verification() {
        let (mut f, mut rng) = factory(3);
        let secret = f.next(&mut rng);
        let stored = secret.stored();
        assert!(stored.verify_password(&secret.password));
        let mut wrong = secret.password;
        wrong[0] ^= 1;
        assert!(!stored.verify_password(&wrong));
    }

    #[test]
    fn stored_form_hides_password() {
        let (mut f, mut rng) = factory(4);
        let secret = f.next(&mut rng);
        let stored = secret.stored();
        // The stored form carries only the hash.
        assert_eq!(stored.pw_hash, sha256(&secret.password));
        assert_ne!(stored.pw_hash[..], secret.password[..]);
    }

    #[test]
    fn next_in_lands_in_bucket() {
        let (mut f, mut rng) = factory(5);
        for digit in 0..16u8 {
            let repr = Id::ZERO.with_digit(0, 4, digit);
            let bucket = ArcRange::prefix_bucket(repr, 1, 4);
            let s = f.next_in(&mut rng, &bucket);
            assert!(bucket.contains(s.hopid), "digit {digit}");
            assert_eq!(s.hopid.digit(0, 4), digit);
        }
    }

    #[test]
    fn factories_are_mutually_collision_free() {
        // Distinct nodes generating many THAs never collide (§3.2's goal).
        let mut rng = StdRng::seed_from_u64(6);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..20 {
            let node = Id::random(&mut rng);
            let mut f = ThaFactory::new(&mut rng, node);
            for _ in 0..50 {
                assert!(seen.insert(f.next(&mut rng).hopid));
            }
        }
    }
}
