//! [`Draws`]: which random stream each decision draws from.
//!
//! A stream is named by a [`Purpose`] and an index, and seeded by
//! SplitMix-mixing (seed, purpose, index), so a draw added at one site moves
//! no draw at another. A key used twice gives identical draws (identical
//! `hkey`s, so identical hopids): every index is an id, or an ordinal that
//! [`World`](crate::World) advances and never reuses.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// What a stream is drawn for, with the index that keys it. The number
/// is the tag mixed into the key: a new purpose takes a new number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purpose {
    /// A join's node id, by join ordinal.
    Join = 0,
    /// A node's bootstrap keypair, by node id.
    Keypair = 1,
    /// The `hkey` of a node's own anchor factory, by node id.
    Factory = 2,
    /// A tunnel's owner, `hkey`, passwords, keys and scatter shuffle, or
    /// one deployment's anchors, by formation ordinal.
    Formation = 3,
    /// A file id, by file ordinal.
    File = 4,
    /// A collusion's members, by collusion ordinal.
    Collusion = 5,
    /// A set of failed nodes, by set ordinal.
    Failures = 6,
    /// An onion's nonces and the keys its flow seals with, by flow ordinal.
    Flow = 7,
    /// A churn victim, a transfer's endpoints, bootstrap relays or a `bid`,
    /// by pick ordinal.
    Pick = 8,
    /// A wire's link latencies, then its fault plan, by wire ordinal.
    Wire = 9,
    /// A world a figure builds beside its trials, by the figure's index.
    World = 10,
    /// A trial's own streams, by trial index.
    Trial = 11,
}

/// A world's or a trial's streams: one seed, mixed per stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draws {
    seed: u64,
}

impl From<u64> for Draws {
    fn from(seed: u64) -> Draws {
        Draws { seed }
    }
}

/// SplitMix64's output function (Steele, Lea & Flood, OOPSLA 2014).
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Draws {
    fn key(&self, purpose: Purpose, index: u64) -> u64 {
        splitmix(splitmix(splitmix(self.seed) ^ purpose as u64) ^ index)
    }

    /// The stream of `purpose` at `index`.
    pub fn stream(&self, purpose: Purpose, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.key(purpose, index))
    }

    /// A family of streams of its own, keyed by `purpose` and `index`: a
    /// trial's, or a world's that a figure builds beside its trials.
    pub fn child(&self, purpose: Purpose, index: u64) -> Draws {
        Draws::from(self.key(purpose, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    fn first(draws: Draws, purpose: Purpose, index: u64) -> u64 {
        draws.stream(purpose, index).next_u64()
    }

    #[test]
    fn each_key_names_one_stream() {
        let d = Draws::from(7);
        let a = first(d, Purpose::Join, 0);
        assert_eq!(
            a,
            first(Draws::from(7), Purpose::Join, 0),
            "a pure function"
        );
        assert_ne!(a, first(d, Purpose::Join, 1), "indices differ");
        assert_ne!(a, first(d, Purpose::Formation, 0), "purposes differ");
        assert_ne!(a, first(Draws::from(8), Purpose::Join, 0), "seeds differ");
        assert_ne!(a, first(d.child(Purpose::Trial, 0), Purpose::Join, 0));
    }

    #[test]
    fn seeds_one_apart_share_no_stream() {
        // Figures seed their worlds `seed ^ tag`, so seeds differ in low
        // bits; a linear mix of seed and purpose would alias them.
        let (a, b) = (Draws::from(0xF162), Draws::from(0xF163));
        for (i, p) in [Purpose::Join, Purpose::Keypair, Purpose::Factory]
            .into_iter()
            .enumerate()
        {
            assert_ne!(first(a, p, i as u64), first(b, Purpose::Join, 0));
        }
    }
}
