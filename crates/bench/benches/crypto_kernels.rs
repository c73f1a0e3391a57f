//! Crypto kernel microbenches for the hot kernels this crate's wire path
//! stands on — ChaCha20 keystream application (the multi-block kernel
//! behind `apply_keystream` vs a loop over the RFC block function),
//! GF(2^8) multiply-accumulate (the hoisted-log table loop, the one GF
//! kernel), and onion sealing (one full-buffer cipher sweep per
//! layer vs the fused single-pass codec) — plus the AEAD's MAC, Poly1305,
//! beside the HMAC-SHA-256 it replaced, and the small transfer's per-layer
//! cost: a warmed l = 5 seal of a 4-byte core and one open of a short
//! body, where every keystream block is a lane of a shared pass.
//!
//! Every pair is bit-identical — proptested in `tap-crypto` — so the
//! ratios here are pure kernel speed, not different outputs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use tap_core::wire::{Destination, HopHeader};
use tap_crypto::chacha20::{self, BLOCK_LEN, KEY_LEN, NONCE_LEN};
use tap_crypto::ec::gf_mul_acc;
use tap_crypto::hmac::hmac_sha256;
use tap_crypto::onion::{OnionBuilder, LAYER_MARGIN};
use tap_crypto::poly1305::Poly1305;
use tap_crypto::SymmetricKey;
use tap_id::Id;

/// One `block()` per 64 bytes: what `apply_keystream` does below the
/// kernel's threshold, here at every length.
fn apply_keystream_scalar(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &mut [u8],
) {
    for (i, chunk) in data.chunks_mut(BLOCK_LEN).enumerate() {
        let ks = chacha20::block(key, initial_counter.wrapping_add(i as u32), nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

fn bench_chacha20(c: &mut Criterion) {
    let key = [0x42u8; KEY_LEN];
    let nonce = [0x07u8; NONCE_LEN];
    // One block, a striped onion, 64 KiB, and the 2 Mb file of Fig. 6.
    for len in [64usize, 3072, 65536, 250_000] {
        let mut group = c.benchmark_group(format!("chacha20_{len}B"));
        group.throughput(Throughput::Bytes(len as u64));
        let mut buf = vec![0xA5u8; len];
        group.bench_function("block_loop", |b| {
            b.iter(|| apply_keystream_scalar(&key, &nonce, 1, &mut buf))
        });
        group.bench_function("kernel", |b| {
            b.iter(|| chacha20::apply_keystream(&key, &nonce, 1, &mut buf))
        });
        group.finish();
    }
}

fn bench_mac(c: &mut Criterion) {
    let key = [0x42u8; 32];
    // A layer's key and tag, a striped onion, 64 KiB, and the §4 file.
    for len in [64usize, 3072, 65536, 250_000] {
        let mut group = c.benchmark_group(format!("mac_{len}B"));
        group.throughput(Throughput::Bytes(len as u64));
        let msg = vec![0xA5u8; len];
        group.bench_function("poly1305", |b| {
            b.iter(|| {
                let mut mac = Poly1305::new(&key);
                mac.update(&msg);
                mac.tag()
            })
        });
        group.bench_function("hmac_sha256", |b| b.iter(|| hmac_sha256(&key, &msg)));
        group.finish();
    }
}

fn bench_gf_mul_acc(c: &mut Criterion) {
    // The erasure codec's default chunk: one parity row accumulation.
    let len = 3072usize;
    let src = vec![0x5Au8; len];
    let mut dst = vec![0xC3u8; len];
    let mut group = c.benchmark_group(format!("gf_mul_acc_{len}B"));
    group.throughput(Throughput::Bytes(len as u64));
    // 0x8E exercises the general path (neither 0 nor 1).
    group.bench_function("table", |b| b.iter(|| gf_mul_acc(0x8E, &src, &mut dst)));
    group.finish();
}

fn bench_onion_seal(c: &mut Criterion) {
    const HEADER_LEN: usize = 21;
    const L: usize = 5;
    let mut rng = StdRng::seed_from_u64(0x0A11);
    let layers: Vec<(SymmetricKey, Vec<u8>)> = (0..L)
        .map(|_| (SymmetricKey::generate(&mut rng), vec![0xB7u8; HEADER_LEN]))
        .collect();
    for payload in [1024usize, 32 * 1024, 250_000] {
        let core = vec![0xA5u8; payload];
        let mut group = c.benchmark_group(format!("onion_seal_{}k_l{L}", payload / 1024));
        group.throughput(Throughput::Bytes(payload as u64));
        group.bench_function("layered", |b| {
            let mut rng = StdRng::seed_from_u64(9);
            let margin = L * (LAYER_MARGIN + HEADER_LEN);
            b.iter(|| {
                let mut builder = OnionBuilder::with_margin(&core, margin, L);
                for (key, header) in layers.iter().rev() {
                    builder.add_layer(&mut rng, key, header);
                }
                builder.into_vec()
            })
        });
        group.bench_function("fused", |b| {
            let mut rng = StdRng::seed_from_u64(9);
            let mut builder = OnionBuilder::new();
            b.iter(|| {
                builder.seal(&mut rng, &layers, &core);
                builder.as_bytes().len()
            })
        });
        group.finish();
    }
}

/// The small transfer's onion, as `tap-bench`'s `seal_small_ns` probe lays
/// it out: l = 5, four hinted forward headers and a deliver header, a
/// 4-byte core. One warmed builder; every layer's keystream blocks, its
/// MAC key block included, come out of two shared kernel passes.
fn bench_onion_seal_small(c: &mut Criterion) {
    const L: usize = 5;
    let mut rng = StdRng::seed_from_u64(0x5EA1);
    let node = Id::random(&mut rng);
    let hopids: Vec<Id> = (0..L).map(|_| Id::random(&mut rng)).collect();
    let layers: Vec<(SymmetricKey, Vec<u8>)> = (0..L)
        .map(|i| {
            let header = match hopids.get(i + 1) {
                Some(&next_hop) => HopHeader::Forward {
                    next_hop,
                    hint: Some(node),
                },
                None => HopHeader::Deliver {
                    dest: Destination::Node(node),
                },
            };
            (SymmetricKey::generate(&mut rng), header.encode())
        })
        .collect();
    let core = [7u8; 4];
    let mut group = c.benchmark_group(format!("onion_seal_small_l{L}"));
    group.bench_function("fused", |b| {
        let mut builder = OnionBuilder::new();
        b.iter(|| {
            builder.seal(&mut rng, &layers, &core);
            builder.as_bytes().len()
        })
    });
    group.finish();
}

/// One AEAD open of a body the size of the small onion's outer layer
/// (≈ 6 blocks): block 0 and the body's blocks in one kernel pass, then
/// the tag check, then the XOR.
fn bench_open_small(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(0x0BE1);
    let key = SymmetricKey::generate(&mut rng);
    let sealed = key.seal(&mut rng, &[0xA5u8; 360]);
    let mut buf = sealed.clone();
    let mut group = c.benchmark_group("open_small");
    group.throughput(Throughput::Bytes(360));
    group.bench_function("open_in_place", |b| {
        b.iter(|| {
            buf.copy_from_slice(&sealed);
            key.open_in_place(&mut buf).is_ok()
        })
    });
    group.finish();
}

criterion_group!(
    kernels,
    bench_chacha20,
    bench_mac,
    bench_gf_mul_acc,
    bench_onion_seal,
    bench_onion_seal_small,
    bench_open_small
);
criterion_main!(kernels);
