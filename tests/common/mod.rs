//! What the integration tests' digest pins share: the FNV-1a fold, and the
//! form a pin's constant is written in.

#![allow(dead_code)] // each test crate uses a subset

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, folded onto `digest`.
pub fn fnv(digest: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(digest, |d, &b| (d ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// `v` the way a pin's constant is written (`0x7035_dade_efac_250e`), so a
/// pin that moved on purpose is re-recorded by copying what its failure
/// prints.
pub fn pin(v: u64) -> String {
    let [a, b, c, d] = [48, 32, 16, 0].map(|shift| (v >> shift) & 0xffff);
    format!("0x{a:04x}_{b:04x}_{c:04x}_{d:04x}")
}
