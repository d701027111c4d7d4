//! Advanced BGV operations: modulus switching and Galois automorphisms.
//!
//! These are the two standard tools for deeper circuits:
//!
//! * **Modulus switching** divides the ciphertext modulus (and the noise
//!   with it) by one RNS prime, trading modulus budget for noise budget —
//!   the BGV leveling mechanism.
//! * **Galois automorphisms** apply `x ↦ x^g` to the plaintext (a signed
//!   permutation of coefficients), with a key switch back to the original
//!   secret. Combined with orbit-ordered slot encoding they implement
//!   slot rotations; here we expose the coefficient-level primitive.

use arboretum_field::zq::{inv_mod, mul_mod_shoup, neg_mod, shoup_precompute};
use rand::Rng;

use crate::poly::{BgvContext, RnsPoly};
use crate::scheme::{Ciphertext, SecretKey};

/// Errors from advanced operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdvancedError {
    /// Modulus switching requires at least two RNS primes.
    NotEnoughPrimes,
    /// The Galois element must be odd and in `(0, 2n)`.
    BadGaloisElement(u64),
}

impl std::fmt::Display for AdvancedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotEnoughPrimes => write!(f, "modulus switching needs >= 2 RNS primes"),
            Self::BadGaloisElement(g) => write!(f, "invalid Galois element {g}"),
        }
    }
}

impl std::error::Error for AdvancedError {}

/// Switches a ciphertext from modulus `q0·q1` down to `q0`, dividing the
/// noise by roughly `q1`.
///
/// BGV-style exact switching: for each coefficient `c`, find the small
/// correction `δ` with `δ ≡ c (mod q1)` and `δ ≡ 0 (mod t)`, then output
/// `(c − δ) / q1`. The result decrypts to the same plaintext under the
/// same secret key, now modulo `q0` only.
///
/// Returns the switched ciphertext together with the single-prime context
/// it now lives in.
///
/// # Errors
///
/// Returns [`AdvancedError::NotEnoughPrimes`] for single-prime contexts.
pub fn mod_switch(
    ctx: &BgvContext,
    ct: &Ciphertext,
) -> Result<(BgvContext, Ciphertext), AdvancedError> {
    if ctx.params.moduli.len() < 2 {
        return Err(AdvancedError::NotEnoughPrimes);
    }
    let q0 = ctx.params.moduli[0];
    let q1 = ctx.params.moduli[1];
    let t = ctx.params.t;
    // Both correction multipliers are fixed for the whole switch, so the
    // per-coefficient products run through Shoup multiplication.
    let q1_inv_mod_q0 = inv_mod(q1 % q0, q0); // div-ok: once per modulus switch
    let q1_inv_mod_q0_shoup = shoup_precompute(q1_inv_mod_q0, q0);
    let q1_inv_mod_t = inv_mod(q1 % t, t); // div-ok: once per modulus switch
    let q1_inv_mod_t_shoup = shoup_precompute(q1_inv_mod_t, t);

    let switch_poly = |p: &RnsPoly| -> RnsPoly {
        let n = ctx.n();
        let mut out = vec![0u64; n];
        #[allow(clippy::needless_range_loop)] // Parallel indexing into two residue rows.
        for j in 0..n {
            // Residues of the coefficient.
            let c0 = p.rows[0][j];
            let c1 = p.rows[1][j];
            // δ ≡ c (mod q1), δ ≡ 0 (mod t), |δ| < q1·t: construct via
            // CRT over (q1, t) with the centered representative.
            // δ = d + q1·k with d = centered [c]_{q1} and k ≡ −d/q1 (mod t).
            let d_centered: i128 = if c1 > q1 / 2 {
                c1 as i128 - q1 as i128
            } else {
                c1 as i128
            };
            // k = (-d) * q1^{-1} mod t, centered.
            let d_mod_t = ((d_centered % t as i128 + t as i128) % t as i128) as u64; // div-ok: modulus switching is off the aggregation path
            let k = mul_mod_shoup(neg_mod(d_mod_t, t), q1_inv_mod_t, q1_inv_mod_t_shoup, t);
            let k_centered: i128 = if k > t / 2 {
                k as i128 - t as i128
            } else {
                k as i128
            };
            let delta: i128 = d_centered + q1 as i128 * k_centered;
            // c' = (c - δ) / q1 computed modulo q0:
            // (c0 - δ mod q0) * q1^{-1} mod q0.
            let delta_mod_q0 = ((delta % q0 as i128 + q0 as i128) % q0 as i128) as u64; // div-ok: modulus switching is off the aggregation path
            let num = arboretum_field::zq::sub_mod(c0, delta_mod_q0, q0);
            out[j] = mul_mod_shoup(num, q1_inv_mod_q0, q1_inv_mod_q0_shoup, q0);
        }
        RnsPoly { rows: vec![out] }
    };

    let new_params = crate::params::BgvParams::new(
        ctx.params.n,
        vec![q0],
        vec![ctx.params.roots[0]],
        t,
        ctx.params.t_root,
    )
    .expect("single-prime restriction of a valid parameter set is valid");
    let new_ctx = BgvContext::new(new_params);
    // Dividing by q1 scales the plaintext by q1^{-1} mod t; rescale by
    // q1 mod t to recover the original message (the standard BGV
    // correction when q1 is not ≡ 1 mod t).
    let q1_mod_t = q1 % t; // div-ok: once per modulus switch
    let switched = Ciphertext {
        c0: switch_poly(&ct.c0).scale(q1_mod_t, &new_ctx),
        c1: switch_poly(&ct.c1).scale(q1_mod_t, &new_ctx),
    };
    Ok((new_ctx, switched))
}

/// Applies the automorphism `x ↦ x^g` to a polynomial's coefficients
/// (the plaintext-side effect of a Galois rotation).
pub fn apply_automorphism_poly(ctx: &BgvContext, p: &RnsPoly, g: u64) -> RnsPoly {
    let n = ctx.n() as u64;
    let two_n = 2 * n;
    let rows = p
        .rows
        .iter()
        .zip(&ctx.params.moduli)
        .map(|(row, &q)| {
            let mut out = vec![0u64; n as usize];
            for (j, &c) in row.iter().enumerate() {
                let e = (j as u64 * g) % two_n; // div-ok: Galois index map, off the aggregation path
                if e < n {
                    out[e as usize] = arboretum_field::zq::add_mod(out[e as usize], c, q);
                } else {
                    let idx = (e - n) as usize;
                    out[idx] = arboretum_field::zq::sub_mod(out[idx], c, q);
                }
            }
            out
        })
        .collect();
    RnsPoly { rows }
}

/// A Galois key: a key switch from `σ_g(s)` back to `s`.
#[derive(Clone, Debug)]
pub struct GaloisKey {
    /// The Galois element.
    pub g: u64,
    /// Per gadget digit: `b_j = −(a_j·s) + t·e_j + w^j·σ_g(s)`.
    pub b: Vec<RnsPoly>,
    /// Per gadget digit: uniform `a_j`.
    pub a: Vec<RnsPoly>,
}

/// Generates the Galois key for element `g` (odd, in `(0, 2n)`).
///
/// # Errors
///
/// Returns [`AdvancedError::BadGaloisElement`] for invalid `g`.
pub fn galois_keygen<R: Rng + ?Sized>(
    ctx: &BgvContext,
    sk: &SecretKey,
    g: u64,
    rng: &mut R,
) -> Result<GaloisKey, AdvancedError> {
    let two_n = 2 * ctx.n() as u64;
    if g.is_multiple_of(2) || g == 0 || g >= two_n {
        return Err(AdvancedError::BadGaloisElement(g));
    }
    let sigma_s = apply_automorphism_poly(ctx, &sk.s_rns, g);
    let digits = ctx.params.relin_digits();
    let w_bits = ctx.params.relin_base_bits;
    let mut bs = Vec::with_capacity(digits);
    let mut as_ = Vec::with_capacity(digits);
    for j in 0..digits {
        let a_j = crate::scheme::sample_uniform_pub(ctx, rng);
        let e_j = crate::scheme::sample_error_pub(ctx, rng);
        let mut wj_sigma_s = sigma_s.clone();
        for (row, &q) in wj_sigma_s.rows.iter_mut().zip(&ctx.params.moduli) {
            let wj = arboretum_field::zq::pow_mod(1u64 << w_bits, j as u64, q);
            let wj_shoup = shoup_precompute(wj, q);
            for c in row.iter_mut() {
                *c = mul_mod_shoup(*c, wj, wj_shoup, q);
            }
        }
        let mut b_j = a_j.mul(&sk.s_rns, ctx).neg(ctx);
        b_j.add_assign(&e_j.scale(ctx.params.t, ctx), ctx);
        b_j.add_assign(&wj_sigma_s, ctx);
        bs.push(b_j);
        as_.push(a_j);
    }
    Ok(GaloisKey { g, b: bs, a: as_ })
}

/// Applies the Galois automorphism `x ↦ x^g` homomorphically: the result
/// decrypts to `σ_g(m)` under the *original* secret key.
pub fn apply_galois(ctx: &BgvContext, ct: &Ciphertext, gk: &GaloisKey) -> Ciphertext {
    // σ applied to both components gives an encryption under σ(s);
    // key-switch the c1 component back to s.
    let sc0 = apply_automorphism_poly(ctx, &ct.c0, gk.g);
    let sc1 = apply_automorphism_poly(ctx, &ct.c1, gk.g);
    let digits = crate::scheme::gadget_decompose_pub(ctx, &sc1);
    let mut c0 = sc0;
    let mut c1 = RnsPoly::zero(ctx);
    for (j, dj) in digits.iter().enumerate() {
        c0.add_assign(&dj.mul(&gk.b[j], ctx), ctx);
        c1.add_assign(&dj.mul(&gk.a[j], ctx), ctx);
    }
    Ciphertext { c0, c1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BgvParams;
    use crate::scheme::{add, decrypt, encrypt, keygen, noise_budget_bits};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (
        BgvContext,
        crate::scheme::SecretKey,
        crate::scheme::PublicKey,
        StdRng,
    ) {
        let ctx = BgvContext::new(BgvParams::test_small());
        let mut rng = StdRng::seed_from_u64(77);
        let (sk, pk) = keygen(&ctx, &mut rng);
        (ctx, sk, pk, rng)
    }

    fn encode(ctx: &BgvContext, vals: &[u64]) -> RnsPoly {
        crate::encode::encode_coeffs(ctx, vals).unwrap()
    }

    #[test]
    fn mod_switch_preserves_plaintext() {
        let (ctx, sk, pk, mut rng) = setup();
        let m = encode(&ctx, &[7, 42, 65_000, 0, 3]);
        let ct = encrypt(&ctx, &pk, &m, &mut rng);
        let (new_ctx, switched) = mod_switch(&ctx, &ct).unwrap();
        // Restrict the secret key to the remaining prime.
        let new_sk = crate::scheme::restrict_secret_key(&new_ctx, &sk);
        let got = decrypt(&new_ctx, &new_sk, &switched);
        assert_eq!(&got[..5], &[7, 42, 65_000, 0, 3]);
    }

    #[test]
    fn mod_switch_after_many_adds() {
        let (ctx, sk, pk, mut rng) = setup();
        let mut acc = encrypt(&ctx, &pk, &encode(&ctx, &[1]), &mut rng);
        for _ in 0..100 {
            let ct = encrypt(&ctx, &pk, &encode(&ctx, &[1]), &mut rng);
            acc = add(&ctx, &acc, &ct);
        }
        let (new_ctx, switched) = mod_switch(&ctx, &acc).unwrap();
        let new_sk = crate::scheme::restrict_secret_key(&new_ctx, &sk);
        assert_eq!(decrypt(&new_ctx, &new_sk, &switched)[0], 101);
    }

    #[test]
    fn mod_switch_needs_two_primes() {
        use arboretum_field::primes::{BGV_Q1, BGV_Q_ROOTS};
        let ctx = BgvContext::new(
            BgvParams::new(256, vec![BGV_Q1], vec![BGV_Q_ROOTS[0]], 65_537, None).unwrap(),
        );
        let mut rng = StdRng::seed_from_u64(1);
        let (_, pk) = keygen(&ctx, &mut rng);
        let ct = encrypt(&ctx, &pk, &encode(&ctx, &[1]), &mut rng);
        assert_eq!(
            mod_switch(&ctx, &ct).unwrap_err(),
            AdvancedError::NotEnoughPrimes
        );
    }

    #[test]
    fn automorphism_of_plaintext_polynomial() {
        // σ_3 maps x ↦ x^3: coefficient j moves to 3j mod 2n with a sign.
        let (ctx, _, _, _) = setup();
        let mut vals = vec![0u64; ctx.n()];
        vals[1] = 5;
        let p = RnsPoly::from_unsigned(&ctx, &vals);
        let sp = apply_automorphism_poly(&ctx, &p, 3);
        let coeffs = sp.centered_coeffs(&ctx);
        assert_eq!(coeffs[3], 5);
        assert_eq!(coeffs.iter().filter(|&&c| c != 0).count(), 1);
    }

    #[test]
    fn automorphism_wraps_with_sign() {
        // When j·g mod 2n lands in [n, 2n), the coefficient is negated:
        // with n = 256, j = 100, g = 3 we get e = 300 → position 44,
        // sign −1.
        let (ctx, _, _, _) = setup();
        let n = ctx.n();
        assert_eq!(n, 256, "test assumes the small preset");
        let mut vals = vec![0u64; n];
        vals[100] = 2;
        let p = RnsPoly::from_unsigned(&ctx, &vals);
        let sp = apply_automorphism_poly(&ctx, &p, 3);
        let coeffs = sp.centered_coeffs(&ctx);
        assert_eq!(coeffs[44], -2);
    }

    #[test]
    fn homomorphic_galois_rotation() {
        let (ctx, sk, pk, mut rng) = setup();
        let gk = galois_keygen(&ctx, &sk, 3, &mut rng).unwrap();
        let mut vals = vec![0u64; 8];
        vals[1] = 9;
        vals[2] = 4;
        let ct = encrypt(&ctx, &pk, &encode(&ctx, &vals), &mut rng);
        let rotated = apply_galois(&ctx, &ct, &gk);
        let got = decrypt(&ctx, &sk, &rotated);
        // x ↦ x^3: coefficient 1 → 3, coefficient 2 → 6.
        assert_eq!(got[3], 9);
        assert_eq!(got[6], 4);
        assert_eq!(got[1], 0);
        assert!(
            noise_budget_bits(&ctx, &sk, &rotated) > 0,
            "key switch must leave noise headroom"
        );
    }

    #[test]
    fn galois_rejects_bad_elements() {
        let (ctx, sk, _, mut rng) = setup();
        assert!(galois_keygen(&ctx, &sk, 2, &mut rng).is_err());
        assert!(galois_keygen(&ctx, &sk, 0, &mut rng).is_err());
        assert!(galois_keygen(&ctx, &sk, 2 * ctx.n() as u64 + 1, &mut rng).is_err());
    }

    #[test]
    fn galois_composes_with_addition() {
        // σ is a homomorphism: σ(a + b) = σ(a) + σ(b), including through
        // encryption.
        let (ctx, sk, pk, mut rng) = setup();
        let gk = galois_keygen(&ctx, &sk, 5, &mut rng).unwrap();
        let ca = encrypt(&ctx, &pk, &encode(&ctx, &[1, 2, 3]), &mut rng);
        let cb = encrypt(&ctx, &pk, &encode(&ctx, &[4, 0, 6]), &mut rng);
        let lhs = apply_galois(&ctx, &add(&ctx, &ca, &cb), &gk);
        let rhs = add(
            &ctx,
            &apply_galois(&ctx, &ca, &gk),
            &apply_galois(&ctx, &cb, &gk),
        );
        assert_eq!(decrypt(&ctx, &sk, &lhs), decrypt(&ctx, &sk, &rhs));
    }
}
