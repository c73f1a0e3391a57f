//! X25519 Diffie–Hellman (RFC 7748), from scratch.
//!
//! The paper assumes "each node has a pair of private and public keys"
//! (§3.3) so that a joining node can bootstrap its first anonymous tunnel
//! with Onion Routing. We realize that PKI with X25519: field arithmetic
//! over `2^255 - 19` in radix-2^51, a constant-time Montgomery ladder, and
//! nothing else. Validated against the RFC 7748 §5.2 and §6.1 vectors.

/// A field element mod `2^255 - 19` in five 51-bit limbs, carried lazily.
///
/// A limb may run past 51 bits; each operation states what it accepts and
/// what it returns, and the ladder in [`x25519`] is written so that every
/// value meets the bound of the operation it feeds:
///
/// | operation | accepts | returns |
/// |---|---|---|
/// | `from_bytes`, `ZERO`, `ONE` | — | limbs < 2^51 |
/// | `mul`, `square`, `mul_small` | limbs < 2^54 | limbs < 2^52 |
/// | `add` (no carry) | any two whose sum a product accepts | the limb sums |
/// | `sub` (no carry) | minuend < 2^53, subtrahend < 2^52 | limbs < 2^54 |
///
/// So a product takes sums and differences of products directly, and only a
/// product's output is ever subtracted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fe([u64; 5]);

const MASK51: u64 = (1u64 << 51) - 1;

/// The full 64 × 64 → 128-bit product.
fn m(x: u64, y: u64) -> u128 {
    x as u128 * y as u128
}

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let word = |i: usize| u64::from_le_bytes(core::array::from_fn(|j| bytes[8 * i + j]));
        let w = [word(0), word(1), word(2), word(3)];
        // Five 51-bit windows of the 255-bit little-endian value
        // (the top bit of byte 31 is masked off, per RFC 7748 §5).
        Fe([
            w[0] & MASK51,
            (w[0] >> 51 | w[1] << 13) & MASK51,
            (w[1] >> 38 | w[2] << 26) & MASK51,
            (w[2] >> 25 | w[3] << 39) & MASK51,
            w[3] >> 12 & MASK51,
        ])
    }

    fn to_bytes(self) -> [u8; 32] {
        // One carry chain leaves a value v < 2p; v >= p exactly when v + 19
        // carries out of bit 255, and then v - p is v + 19 less that carry.
        let mut t = Fe::reduce(self.0.map(u128::from)).0;
        let mut q = 19;
        for limb in t {
            q = (limb + q) >> 51;
        }
        let mut c = 19 * q;
        for limb in &mut t {
            *limb += c;
            c = *limb >> 51;
            *limb &= MASK51;
        }
        let words = [
            t[0] | t[1] << 51,
            t[1] >> 13 | t[2] << 38,
            t[2] >> 26 | t[3] << 25,
            t[3] >> 39 | t[4] << 12,
        ];
        let mut out = [0u8; 32];
        for (i, w) in words.iter().enumerate() {
            out[8 * i..8 * i + 8].copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    fn fits(self, bits: u32) -> bool {
        self.0.iter().all(|&limb| limb >> bits == 0)
    }

    /// The one carry chain every product ends in: five column sums, each
    /// < 2^115, to limbs < 2^51 — but for `t[1]`, which keeps the 13 bits the
    /// wrap-around carry can push out of `t[0]`. `r[4]` is the one column none
    /// of whose terms was multiplied by 19: five products of 54-bit limbs,
    /// < 2^110.4, so its carry is < 2^59.4 and 19 times that, plus `t[0]`'s 51
    /// bits, < 2^63.6 — inside a `u64`, where the carry out of any other
    /// column would not be. That is why one pass is enough.
    fn reduce(r: [u128; 5]) -> Fe {
        let r1 = r[1] + (r[0] >> 51);
        let r2 = r[2] + (r1 >> 51);
        let r3 = r[3] + (r2 >> 51);
        let r4 = r[4] + (r3 >> 51);
        let t0 = (r[0] as u64 & MASK51) + 19 * (r4 >> 51) as u64;
        Fe([
            t0 & MASK51,
            (r1 as u64 & MASK51) + (t0 >> 51),
            r2 as u64 & MASK51,
            r3 as u64 & MASK51,
            r4 as u64 & MASK51,
        ])
    }

    fn add(self, rhs: Fe) -> Fe {
        let ([a0, a1, a2, a3, a4], [b0, b1, b2, b3, b4]) = (self.0, rhs.0);
        Fe([a0 + b0, a1 + b1, a2 + b2, a3 + b3, a4 + b4])
    }

    fn sub(self, rhs: Fe) -> Fe {
        debug_assert!(self.fits(53) && rhs.fits(52));
        // Add 4p before subtracting so limbs never underflow.
        let ([a0, a1, a2, a3, a4], [b0, b1, b2, b3, b4]) = (self.0, rhs.0);
        Fe([
            a0 + 0x1fffffffffffb4 - b0,
            a1 + 0x1ffffffffffffc - b1,
            a2 + 0x1ffffffffffffc - b2,
            a3 + 0x1ffffffffffffc - b3,
            a4 + 0x1ffffffffffffc - b4,
        ])
    }

    fn mul(self, rhs: Fe) -> Fe {
        debug_assert!(self.fits(54) && rhs.fits(54));
        let ([a0, a1, a2, a3, a4], [b0, b1, b2, b3, b4]) = (self.0, rhs.0);
        // 2^255 = 19 (mod p): a term that lands on limb 5 or above wraps
        // around times 19, folded into the 64-bit factor (19 * 2^54 < 2^59).
        let (b1_19, b2_19, b3_19, b4_19) = (19 * b1, 19 * b2, 19 * b3, 19 * b4);
        Fe::reduce([
            m(a0, b0) + m(a1, b4_19) + m(a2, b3_19) + m(a3, b2_19) + m(a4, b1_19),
            m(a0, b1) + m(a1, b0) + m(a2, b4_19) + m(a3, b3_19) + m(a4, b2_19),
            m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, b4_19) + m(a4, b3_19),
            m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, b4_19),
            m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0),
        ])
    }

    /// `mul(self, self)` with each of the ten cross terms taken once, doubled.
    fn square(self) -> Fe {
        debug_assert!(self.fits(54));
        let [a0, a1, a2, a3, a4] = self.0;
        let (a0_2, a1_2) = (2 * a0, 2 * a1);
        let (a3_19, a4_19) = (19 * a3, 19 * a4);
        Fe::reduce([
            m(a0, a0) + m(a1_2, a4_19) + m(2 * a2, a3_19),
            m(a0_2, a1) + m(2 * a2, a4_19) + m(a3, a3_19),
            m(a0_2, a2) + m(a1, a1) + m(2 * a3, a4_19),
            m(a0_2, a3) + m(a1_2, a2) + m(a4, a4_19),
            m(a0_2, a4) + m(a1_2, a3) + m(a2, a2),
        ])
    }

    /// `self^(2^k)`.
    fn square_times(mut self, k: u32) -> Fe {
        for _ in 0..k {
            self = self.square();
        }
        self
    }

    /// Multiply by the curve constant `a24 = 121665`.
    fn mul_small(self, k: u32) -> Fe {
        debug_assert!(self.fits(54));
        Fe::reduce(self.0.map(|limb| m(limb, u64::from(k))))
    }

    /// Inversion via Fermat: `self^(p-2)`, p-2 = 2^255 - 21; zero maps to
    /// zero. The exponent is a public constant, so a fixed addition chain
    /// over its bits (254 squarings, 11 multiplications) is constant time.
    fn invert(self) -> Fe {
        let z2 = self.square();
        let z9 = z2.square_times(2).mul(self);
        let z11 = z9.mul(z2);
        // x_n = self^(2^n - 1).
        let x5 = z11.square().mul(z9);
        let x10 = x5.square_times(5).mul(x5);
        let x20 = x10.square_times(10).mul(x10);
        let x40 = x20.square_times(20).mul(x20);
        let x50 = x40.square_times(10).mul(x10);
        let x100 = x50.square_times(50).mul(x50);
        let x200 = x100.square_times(100).mul(x100);
        let x250 = x200.square_times(50).mul(x50);
        // 2^255 - 21 = (2^250 - 1) * 2^5 + 11.
        x250.square_times(5).mul(z11)
    }

    /// Constant-time conditional swap driven by `swap ∈ {0, 1}`.
    fn cswap(swap: u64, a: &mut Fe, b: &mut Fe) {
        debug_assert!(swap <= 1);
        let mask = swap.wrapping_neg();
        for i in 0..5 {
            let x = mask & (a.0[i] ^ b.0[i]);
            a.0[i] ^= x;
            b.0[i] ^= x;
        }
    }
}

/// Clamp a 32-byte scalar as RFC 7748 §5 prescribes.
fn clamp(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// The X25519 function: scalar-multiply the point with u-coordinate `u` by
/// the clamped `scalar`.
pub fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = clamp(*scalar);
    let x1 = Fe::from_bytes(u);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let kt = ((k[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= kt;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = kt;

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        x3 = da.add(cb).square();
        z3 = x1.mul(da.sub(cb).square());
        x2 = aa.mul(bb);
        z2 = e.mul(aa.add(e.mul_small(121665)));
    }
    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);
    x2.mul(z2.invert()).to_bytes()
}

/// The canonical base point (u = 9).
pub const BASEPOINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// Derive the public key for `scalar`: `X25519(scalar, 9)`.
pub fn public_key(scalar: &[u8; 32]) -> [u8; 32] {
    x25519(scalar, &BASEPOINT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::array::from_fn;
    use proptest::prelude::*;

    fn unhex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap();
        }
        out
    }

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The reference the kernel is held to: TweetNaCl's field — sixteen 16-bit
    /// limbs in `i64`, schoolbook products, `2^256 = 38`, Fermat bit by bit. It
    /// shares no limb layout, carry chain or addition chain with `Fe`.
    #[derive(Clone, Copy)]
    struct Gf([i64; 16]);
    impl Gf {
        fn unpack(b: &[u8; 32]) -> Gf {
            let mut o = from_fn(|i| i64::from(u16::from_le_bytes([b[2 * i], b[2 * i + 1]])));
            o[15] &= 0x7fff;
            Gf(o)
        }
        /// The value of five radix-2^51 limbs of any width, bit by bit.
        fn of(fe: Fe) -> Gf {
            let mut o = [0i64; 16];
            for (i, limb) in fe.0.iter().enumerate() {
                for at in (0..64).filter(|b| limb >> b & 1 == 1).map(|b| 51 * i + b) {
                    o[at / 16 % 16] += (1 << (at % 16)) * if at < 256 { 1 } else { 38 };
                }
            }
            Gf(o)
        }
        fn carry(mut self) -> Gf {
            for i in 0..16 {
                let c = self.0[i] >> 16;
                self.0[i] -= c << 16;
                self.0[(i + 1) % 16] += if i < 15 { c } else { 38 * c };
            }
            self
        }
        fn add(self, b: Gf) -> Gf {
            Gf(from_fn(|i| self.0[i] + b.0[i]))
        }
        fn sub(self, b: Gf) -> Gf {
            Gf(from_fn(|i| self.0[i] - b.0[i]))
        }
        fn mul(self, b: Gf) -> Gf {
            let (a, b) = (self.carry().0, b.carry().0);
            let mut t = [0i64; 32];
            for (i, j) in (0..256).map(|ij| (ij / 16, ij % 16)) {
                t[i + j] += a[i] * b[j];
            }
            Gf(from_fn(|i| t[i] + 38 * t[i + 16])).carry()
        }
        /// `self^(2^255 - 21)`: every exponent bit is set but bits 2 and 4.
        fn invert(self) -> Gf {
            let by = [Gf::of(Fe::ONE), self];
            let step = |c: Gf, i| c.mul(c).mul(by[usize::from(i != 2 && i != 4)]);
            (0..254).rev().fold(self, step)
        }
        fn pack(self) -> [u8; 32] {
            let p = Gf::unpack(&[0xff; 32]).sub(Gf::of(Fe([18, 0, 0, 0, 0])));
            let mut t = self.carry().carry().carry();
            while t.0.iter().rev().ge(p.0.iter().rev()) {
                t = t.sub(p).carry();
            }
            from_fn(|i| (t.0[i / 2] >> (8 * (i % 2))) as u8)
        }
        fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
            let (k, x) = (clamp(*scalar), Gf::unpack(u));
            let [zero, one, a24] = [0, 1, 121665].map(|n| Gf::of(Fe([n, 0, 0, 0, 0])));
            let mut p = [(one, zero), (x, one)];
            for bit in (0..255).rev().map(|i| usize::from(k[i / 8] >> (i % 8) & 1)) {
                p.rotate_left(bit);
                let [(a, c), (b, d)] = p;
                let (e, f) = (a.add(c), a.sub(c));
                let (g, h) = (b.add(d).mul(f), b.sub(d).mul(e));
                let (ee, ff, s, t) = (e.mul(e), f.mul(f), g.add(h), g.sub(h));
                let w = ee.sub(ff);
                p[0] = (ee.mul(ff), w.mul(w.mul(a24).add(ee)));
                p[1] = (s.mul(s), t.mul(t).mul(x));
                p.rotate_left(bit);
            }
            p[0].0.mul(p[0].1.invert()).pack()
        }
    }

    // RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        let scalar = unhex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        assert_eq!(
            hex(&x25519(&scalar, &u)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    // RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector2() {
        let scalar = unhex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u = unhex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        assert_eq!(
            hex(&x25519(&scalar, &u)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    fn iterated(rounds: u32) -> String {
        let (mut k, mut u) = (BASEPOINT, BASEPOINT);
        for _ in 0..rounds {
            (k, u) = (x25519(&k, &u), k);
        }
        hex(&k)
    }

    // RFC 7748 §5.2: one iteration of the iterated vector.
    #[test]
    fn rfc7748_iterated_once() {
        assert_eq!(
            iterated(1),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
    }

    // RFC 7748 §5.2: a thousand iterations of the iterated vector.
    #[test]
    fn rfc7748_iterated_thousand() {
        assert_eq!(
            iterated(1000),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    // RFC 7748 §5.2: a million iterations.
    #[test]
    #[ignore = "under a minute in release, many in debug: CI's release-mode job runs it"]
    fn rfc7748_iterated_million() {
        assert_eq!(
            iterated(1_000_000),
            "7c3911e0ab2586fd864497297e575e6f3bc601c0883c30df5f4dd2d24f665424"
        );
    }

    // RFC 7748 §6.1: the full Diffie–Hellman exchange.
    #[test]
    fn rfc7748_dh_exchange() {
        let alice_priv =
            unhex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_priv = unhex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice_pub = public_key(&alice_priv);
        let bob_pub = public_key(&bob_priv);
        assert_eq!(
            hex(&alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex(&bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let k_a = x25519(&alice_priv, &bob_pub);
        let k_b = x25519(&bob_priv, &alice_pub);
        assert_eq!(k_a, k_b);
        assert_eq!(
            hex(&k_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    #[test]
    fn dh_commutes_for_random_keys() {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..8 {
            let mut a = [0u8; 32];
            let mut b = [0u8; 32];
            rng.fill_bytes(&mut a);
            rng.fill_bytes(&mut b);
            let shared_ab = x25519(&a, &public_key(&b));
            let shared_ba = x25519(&b, &public_key(&a));
            assert_eq!(shared_ab, shared_ba);
            assert_ne!(shared_ab, [0u8; 32]);
        }
    }

    #[test]
    fn field_roundtrip() {
        // to_bytes ∘ from_bytes is the identity on canonical encodings.
        let cases = [
            [0u8; 32],
            {
                let mut b = [0u8; 32];
                b[0] = 1;
                b
            },
            unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"),
        ];
        for c in cases {
            assert_eq!(Fe::from_bytes(&c).to_bytes(), c);
        }
    }

    #[test]
    fn field_reduces_noncanonical() {
        // p itself must encode as zero.
        let mut p = [0xffu8; 32];
        p[0] = 0xed;
        p[31] = 0x7f;
        assert_eq!(Fe::from_bytes(&p).to_bytes(), [0u8; 32]);
    }

    #[test]
    fn field_algebra() {
        let a = Fe::from_bytes(&unhex32(
            "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcd0f",
        ));
        let b = Fe::from_bytes(&unhex32(
            "fedcba9876543210fedcba9876543210fedcba9876543210fedcba987654320f",
        ));
        assert_eq!(a.add(b).sub(b).to_bytes(), a.to_bytes());
        assert_eq!(a.mul(b).to_bytes(), b.mul(a).to_bytes());
        assert_eq!(a.mul(a.invert()).to_bytes(), Fe::ONE.to_bytes());
        assert_eq!(a.square().to_bytes(), a.mul(a).to_bytes());
    }

    #[test]
    fn zero_inverts_to_zero_in_every_encoding() {
        let mut p = [0xffu8; 32];
        (p[0], p[31]) = (0xed, 0x7f);
        let two_p = Fe::from_bytes(&p).add(Fe::from_bytes(&p));
        for zero in [Fe::ZERO, Fe::from_bytes(&p), two_p] {
            assert_eq!(zero.invert().to_bytes(), [0u8; 32]);
        }
    }

    /// Holds every field operation to the oracle on operands at the stated
    /// bounds — `a`, `b` < 2^54 into products, `x`, `y` < 2^53 into a sum or
    /// as a minuend, `s` < 2^52 as a subtrahend — and every product's output
    /// to its own: limbs < 2^52.
    fn assert_field_ops_agree([a, b, x, y, s]: [Fe; 5]) {
        let [ga, gb, gx, gy, gs] = [a, b, x, y, s].map(Gf::of);
        let same = |what: &str, got: Fe, want: Gf| {
            assert!(got.fits(52), "{what} left {got:?}");
            assert_eq!(
                got.to_bytes(),
                want.pack(),
                "{what} of {a:?} {b:?} {x:?} {y:?} {s:?}"
            );
        };
        assert_eq!(a.to_bytes(), ga.pack());
        same("mul", a.mul(b), ga.mul(gb));
        same("square", a.square(), ga.mul(ga));
        for k in [121665, u32::MAX] {
            let gk = Gf::of(Fe([u64::from(k), 0, 0, 0, 0]));
            same("mul_small", a.mul_small(k), ga.mul(gk));
        }
        same("add, mul", x.add(y).mul(b), gx.add(gy).mul(gb));
        same("sub, mul", x.sub(s).mul(b), gx.sub(gs).mul(gb));
        same("sub, square", x.sub(s).square(), gx.sub(gs).mul(gx.sub(gs)));
    }

    /// Limbs below `2^bits`, one from each eight bytes; a word's top two bits
    /// make its limb all ones or a few low bits a quarter of the time each, so
    /// the bounds are met in most cases and not once in 2^54.
    fn limbs(seed: [u8; 40], bits: u32) -> Fe {
        let max = (1u64 << bits) - 1;
        Fe(from_fn(|i| {
            let w = u64::from_le_bytes(from_fn(|j| seed[8 * i + j]));
            [max, w & 0xff, w & max, w & max][(w >> 62) as usize]
        }))
    }

    #[test]
    fn field_ops_agree_at_the_limb_bounds() {
        let full = |bits: u32| Fe([(1u64 << bits) - 1; 5]);
        assert_field_ops_agree([full(54), full(54), full(53), full(53), full(52)]);
        assert_field_ops_agree([full(54), Fe::ZERO, Fe::ZERO, full(53), full(52)]);
        assert_field_ops_agree([Fe::ONE, full(54), full(53), Fe::ZERO, Fe::ZERO]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn prop_x25519_agrees_with_the_oracle(scalar in any::<[u8; 32]>(), u in any::<[u8; 32]>()) {
            prop_assert_eq!(x25519(&scalar, &u), Gf::x25519(&scalar, &u));
        }

        #[test]
        fn prop_field_ops_agree_with_the_oracle(
            a in any::<[u8; 40]>(), b in any::<[u8; 40]>(),
            x in any::<[u8; 40]>(), y in any::<[u8; 40]>(), s in any::<[u8; 40]>(),
        ) {
            assert_field_ops_agree([limbs(a, 54), limbs(b, 54), limbs(x, 53), limbs(y, 53), limbs(s, 52)]);
        }

        #[test]
        fn prop_invert_is_the_inverse(x in any::<[u8; 32]>()) {
            let x = Fe::from_bytes(&x);
            prop_assume!(x.to_bytes() != [0u8; 32]);
            prop_assert_eq!(x.mul(x.invert()).to_bytes(), Fe::ONE.to_bytes());
            prop_assert_eq!(x.invert().to_bytes(), Gf::of(x).invert().pack());
        }
    }
}
