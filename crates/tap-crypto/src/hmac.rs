//! HMAC-SHA-256 (RFC 2104), plus the small HKDF-style key derivation used
//! to split one shared secret into independent per-purpose keys.

use crate::sha256::{sha256, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// Compute `HMAC-SHA256(key, data)`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

/// Incremental HMAC-SHA-256: the inner hash in progress plus the outer
/// pad midstate it will be finished under (RFC 2104 §4).
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: [u32; 8],
}

impl HmacSha256 {
    /// Start a MAC under `key` (any length; long keys are pre-hashed as the
    /// RFC requires): two compressions, one per pad block.
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        HmacSha256 {
            inner: Sha256::resume(Sha256::midstate(&k.map(|b| b ^ 0x36)), BLOCK_LEN as u64),
            outer: Sha256::midstate(&k.map(|b| b ^ 0x5c)),
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finish and return the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = Sha256::resume(self.outer, BLOCK_LEN as u64);
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

/// Constant-time tag comparison.
///
/// The simulator is not a remote-timing target, but verifying MACs in
/// constant time is free and keeps the primitive honest.
pub fn verify_tag(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Derive a labelled subkey from `secret`: `HMAC(secret, label || counter)`.
///
/// A one-step HKDF-Expand; sufficient because our secrets are already
/// uniform (X25519 outputs fed through SHA-256, or RNG-drawn keys).
pub fn derive_key(secret: &[u8], label: &str, counter: u8) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(secret);
    mac.update(label.as_bytes());
    mac.update(&[counter]);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test cases 1–4, 6 and 7 (5 is the truncated-output case).
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        assert_eq!(
            hex(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 case 6: key longer than one block must be pre-hashed.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case4() {
        let key: Vec<u8> = (1..=25).collect();
        assert_eq!(
            hex(&hmac_sha256(&key, &[0xcd; 50])),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    // RFC 4231 case 7: long key and a message longer than one block.
    #[test]
    fn rfc4231_case7_long_key_long_data() {
        let key = [0xaau8; 131];
        assert_eq!(
            hex(&hmac_sha256(
                &key,
                b"This is a test using a larger than block-size key and a larger \
                  than block-size data. The key needs to be hashed before being \
                  used by the HMAC algorithm."
            )),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let key = b"some key";
        let data = b"split me into pieces";
        let mut mac = HmacSha256::new(key);
        mac.update(&data[..5]);
        mac.update(&data[5..]);
        assert_eq!(mac.finalize(), hmac_sha256(key, data));
    }

    #[test]
    fn verify_tag_behaviour() {
        let t = hmac_sha256(b"k", b"m");
        assert!(verify_tag(&t, &t));
        let mut bad = t;
        bad[0] ^= 1;
        assert!(!verify_tag(&t, &bad));
        assert!(!verify_tag(&t, &t[..31]), "length mismatch rejected");
    }

    #[test]
    fn derive_key_separates_labels_and_counters() {
        let s = b"master secret";
        let a = derive_key(s, "enc", 0);
        let b = derive_key(s, "enc", 1);
        let c = derive_key(s, "mac", 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
        assert_eq!(a, derive_key(s, "enc", 0));
    }
}
