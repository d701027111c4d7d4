//! Property-based tests for the BGV scheme.

use std::sync::OnceLock;

use arboretum_bgv::{
    add, decrypt, encode_coeffs, encrypt, encrypt_with_noise, keygen, mul, mul_scalar,
    relin_keygen, sub, BgvContext, BgvParams, Ciphertext, EncryptionNoise, RnsPoly,
};
use arboretum_field::primes::{BGV_Q1, BGV_Q2, BGV_Q_ROOTS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ctx() -> BgvContext {
    BgvContext::new(BgvParams::test_small())
}

/// The runtime's one-hot aggregation parameters (`t = 2^30`, two RNS
/// primes) at ring degree 256 or 4096.
fn aggregation_ctx(big: bool) -> &'static BgvContext {
    static SMALL: OnceLock<BgvContext> = OnceLock::new();
    static BIG: OnceLock<BgvContext> = OnceLock::new();
    let (cell, n) = if big { (&BIG, 4096) } else { (&SMALL, 256) };
    cell.get_or_init(|| {
        let moduli = vec![BGV_Q1, BGV_Q2];
        let params = BgvParams::new(n, moduli, BGV_Q_ROOTS[..2].to_vec(), 1 << 30, None);
        BgvContext::new(params.unwrap())
    })
}

/// Coefficient-domain reference encryption, written out independently
/// of the library: draws `u` (ternary), then `e0` and `e1` (centred
/// binomial over `error_bound` bits) in that order, and computes
/// `(b·u + t·e0 + m, a·u + t·e1)` with full ring products.
fn reference_encrypt(
    ctx: &BgvContext,
    b: &RnsPoly,
    a: &RnsPoly,
    m: &RnsPoly,
    rng: &mut StdRng,
) -> Ciphertext {
    let n = ctx.n();
    let bound = ctx.params.error_bound;
    let mask = (1u32 << bound) - 1;
    let error = |rng: &mut StdRng| -> Vec<i64> {
        (0..n)
            .map(|_| {
                let x = rng.gen::<u32>() & mask;
                let y = rng.gen::<u32>() & mask;
                x.count_ones() as i64 - y.count_ones() as i64
            })
            .collect()
    };
    let u: Vec<i64> = (0..n).map(|_| rng.gen_range(-1i64..=1)).collect();
    let u = RnsPoly::from_signed(ctx, &u);
    let t = ctx.params.t;
    let e0 = RnsPoly::from_signed(ctx, &error(rng)).scale(t, ctx);
    let e1 = RnsPoly::from_signed(ctx, &error(rng)).scale(t, ctx);
    Ciphertext {
        c0: b.mul(&u, ctx).add(&e0, ctx).add(m, ctx),
        c1: a.mul(&u, ctx).add(&e1, ctx),
    }
}

/// FNV-1a over little-endian words: a dependency-free fingerprint.
fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn poly_words(p: &RnsPoly) -> impl Iterator<Item = u64> + '_ {
    p.rows.iter().flatten().copied()
}

/// Keys and a first ciphertext from seed 2024, fingerprinted and pinned
/// to the values the coefficient-domain implementation produced.
#[test]
fn keygen_and_encrypt_are_pinned() {
    for (params, key_fp, ct_fp) in [
        (
            BgvParams::test_small(),
            0xab76_c9c1_ce97_7303u64,
            0x89b3_6bc3_e926_46dau64,
        ),
        (
            BgvParams::aggregation(),
            0xbd84_0c8d_dbd6_1943,
            0xd46f_f7bf_c4ac_5f94,
        ),
    ] {
        let ctx = BgvContext::new(params);
        let mut rng = StdRng::seed_from_u64(2024);
        let (sk, pk) = keygen(&ctx, &mut rng);
        let key_words = sk.s.iter().map(|&c| c as u64);
        let key = fingerprint(
            key_words
                .chain(poly_words(pk.b()))
                .chain(poly_words(pk.a())),
        );
        assert_eq!(key, key_fp, "keygen at n = {}", ctx.n());
        let ct = encrypt(
            &ctx,
            &pk,
            &encode_coeffs(&ctx, &[1, 0, 3]).unwrap(),
            &mut rng,
        );
        let ct = fingerprint(poly_words(&ct.c0).chain(poly_words(&ct.c1)));
        assert_eq!(ct, ct_fp, "encrypt at n = {}", ctx.n());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn encrypt_decrypt_roundtrip(vals in prop::collection::vec(0u64..65_000, 1..32), seed in any::<u64>()) {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let (sk, pk) = keygen(&ctx, &mut rng);
        let ct = encrypt(&ctx, &pk, &encode_coeffs(&ctx, &vals).unwrap(), &mut rng);
        let got = decrypt(&ctx, &sk, &ct);
        prop_assert_eq!(&got[..vals.len()], &vals[..]);
    }

    #[test]
    fn homomorphic_add_sub(a in prop::collection::vec(0u64..30_000, 8), b in prop::collection::vec(0u64..30_000, 8), seed in any::<u64>()) {
        let ctx = ctx();
        let t = ctx.params.t;
        let mut rng = StdRng::seed_from_u64(seed);
        let (sk, pk) = keygen(&ctx, &mut rng);
        let ca = encrypt(&ctx, &pk, &encode_coeffs(&ctx, &a).unwrap(), &mut rng);
        let cb = encrypt(&ctx, &pk, &encode_coeffs(&ctx, &b).unwrap(), &mut rng);
        let sum = decrypt(&ctx, &sk, &add(&ctx, &ca, &cb));
        let diff = decrypt(&ctx, &sk, &sub(&ctx, &ca, &cb));
        for i in 0..8 {
            prop_assert_eq!(sum[i], (a[i] + b[i]) % t);
            prop_assert_eq!(diff[i], (a[i] + t - b[i]) % t);
        }
    }

    #[test]
    fn scalar_multiplication(v in 0u64..1000, k in 0u64..60, seed in any::<u64>()) {
        let ctx = ctx();
        let t = ctx.params.t;
        let mut rng = StdRng::seed_from_u64(seed);
        let (sk, pk) = keygen(&ctx, &mut rng);
        let ct = encrypt(&ctx, &pk, &encode_coeffs(&ctx, &[v]).unwrap(), &mut rng);
        let got = decrypt(&ctx, &sk, &mul_scalar(&ctx, &ct, k));
        prop_assert_eq!(got[0], v * k % t);
    }

    #[test]
    fn ciphertext_multiplication(a in 0u64..250, b in 0u64..250, seed in any::<u64>()) {
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let (sk, pk) = keygen(&ctx, &mut rng);
        let rlk = relin_keygen(&ctx, &sk, &mut rng);
        let ca = encrypt(&ctx, &pk, &encode_coeffs(&ctx, &[a]).unwrap(), &mut rng);
        let cb = encrypt(&ctx, &pk, &encode_coeffs(&ctx, &[b]).unwrap(), &mut rng);
        let got = decrypt(&ctx, &sk, &mul(&ctx, &ca, &cb, &rlk));
        prop_assert_eq!(got[0], a * b);
    }

    #[test]
    fn aggregation_of_many_one_hots(cats in prop::collection::vec(0usize..4, 1..60), seed in any::<u64>()) {
        // The core federated-analytics pattern as a property: summing
        // arbitrary one-hot uploads yields the exact histogram.
        let ctx = ctx();
        let mut rng = StdRng::seed_from_u64(seed);
        let (sk, pk) = keygen(&ctx, &mut rng);
        let mut want = [0u64; 4];
        let mut agg = None;
        for &c in &cats {
            want[c] += 1;
            let mut row = vec![0u64; 4];
            row[c] = 1;
            let ct = encrypt(&ctx, &pk, &encode_coeffs(&ctx, &row).unwrap(), &mut rng);
            agg = Some(match agg {
                None => ct,
                Some(acc) => add(&ctx, &acc, &ct),
            });
        }
        let got = decrypt(&ctx, &sk, &agg.unwrap());
        prop_assert_eq!(&got[..4], &want[..]);
    }

    #[test]
    fn ntt_domain_encrypt_matches_coefficient_reference(
        big in any::<bool>(),
        key_seed in any::<u64>(),
        seed in any::<u64>(),
        vals in prop::collection::vec(0u64..1 << 30, 1..16),
    ) {
        let ctx = aggregation_ctx(big);
        let (_, pk) = keygen(ctx, &mut StdRng::seed_from_u64(key_seed));
        let m = encode_coeffs(ctx, &vals).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let got = encrypt(ctx, &pk, &m, &mut rng);
        let mut ref_rng = StdRng::seed_from_u64(seed);
        let want = reference_encrypt(ctx, pk.b(), pk.a(), &m, &mut ref_rng);
        prop_assert_eq!(&got, &want);
        // ...and both consumed exactly the same draws.
        prop_assert_eq!(rng.gen::<u64>(), ref_rng.gen::<u64>());
    }

    #[test]
    fn split_encrypt_draws_like_encrypt(big in any::<bool>(), seed in any::<u64>()) {
        let ctx = aggregation_ctx(big);
        let (_, pk) = keygen(ctx, &mut StdRng::seed_from_u64(seed ^ 1));
        let m = encode_coeffs(ctx, &[1, 0, 1]).unwrap();
        let mut whole = StdRng::seed_from_u64(seed);
        let mut split = StdRng::seed_from_u64(seed);
        let ct = encrypt(ctx, &pk, &m, &mut whole);
        let noise = EncryptionNoise::sample(ctx, &mut split);
        prop_assert_eq!(&ct, &encrypt_with_noise(ctx, &pk, &m, &noise));
        prop_assert_eq!(whole.gen::<u64>(), split.gen::<u64>());
    }
}
