//! Plaintext encodings: coefficient packing and slot batching.
//!
//! * **Coefficient encoding** places one value per polynomial coefficient.
//!   Homomorphic addition is then componentwise — exactly what one-hot
//!   aggregation needs (each participant encrypts a one-hot vector, the
//!   aggregator sums ciphertexts, each coefficient ends up holding a
//!   category count).
//! * **Slot encoding** (batching) applies an inverse NTT over `Z_t`, so
//!   ciphertext *multiplication* acts pointwise on slots. Requires the
//!   plaintext modulus to be an NTT prime (see
//!   [`crate::params::BgvParams::batching`]).

use arboretum_field::zq::RtNttTable;

use crate::poly::{BgvContext, RnsPoly};

/// Errors raised by encoders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// More values than coefficients/slots.
    TooManyValues {
        /// Provided count.
        got: usize,
        /// Capacity.
        capacity: usize,
    },
    /// A value is not reduced modulo `t`.
    ValueOutOfRange(u64),
    /// Batching requested but the parameter set does not support it.
    BatchingUnsupported,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooManyValues { got, capacity } => {
                write!(f, "{got} values exceed capacity {capacity}")
            }
            Self::ValueOutOfRange(v) => write!(f, "value {v} is not reduced mod t"),
            Self::BatchingUnsupported => write!(f, "parameter set lacks an NTT-friendly t"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Encodes values into polynomial coefficients (value `i` → coefficient
/// `i`); remaining coefficients are zero.
///
/// # Errors
///
/// Returns [`EncodeError`] if there are more values than coefficients or
/// any value is not reduced mod `t`.
pub fn encode_coeffs(ctx: &BgvContext, values: &[u64]) -> Result<RnsPoly, EncodeError> {
    if values.len() > ctx.n() {
        return Err(EncodeError::TooManyValues {
            got: values.len(),
            capacity: ctx.n(),
        });
    }
    let t = ctx.params.t;
    let mut coeffs = vec![0u64; ctx.n()];
    for (c, &v) in coeffs.iter_mut().zip(values) {
        if v >= t {
            return Err(EncodeError::ValueOutOfRange(v));
        }
        *c = v;
    }
    Ok(RnsPoly::from_unsigned(ctx, &coeffs))
}

/// Extracts coefficient-encoded values from decrypted coefficients.
pub fn decode_coeffs(decrypted: &[u64], count: usize) -> Vec<u64> {
    decrypted[..count].to_vec()
}

/// A slot encoder for batching-capable parameter sets.
#[derive(Debug, Clone)]
pub struct SlotEncoder {
    ntt_t: RtNttTable,
}

impl SlotEncoder {
    /// Builds the encoder.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::BatchingUnsupported`] when the plaintext
    /// modulus is not an NTT prime for this degree.
    pub fn new(ctx: &BgvContext) -> Result<Self, EncodeError> {
        if ctx.params.slots() == 0 {
            return Err(EncodeError::BatchingUnsupported);
        }
        let root = ctx.params.t_root.ok_or(EncodeError::BatchingUnsupported)?;
        Ok(Self {
            ntt_t: RtNttTable::new(ctx.n(), ctx.params.t, root),
        })
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.ntt_t.len()
    }

    /// Encodes one value per slot.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] on capacity or range violations.
    pub fn encode(&self, ctx: &BgvContext, values: &[u64]) -> Result<RnsPoly, EncodeError> {
        if values.len() > self.slots() {
            return Err(EncodeError::TooManyValues {
                got: values.len(),
                capacity: self.slots(),
            });
        }
        let t = ctx.params.t;
        let mut slots = vec![0u64; self.slots()];
        for (s, &v) in slots.iter_mut().zip(values) {
            if v >= t {
                return Err(EncodeError::ValueOutOfRange(v));
            }
            *s = v;
        }
        // Slots are NTT evaluations; the plaintext polynomial is their
        // inverse transform.
        self.ntt_t.inverse(&mut slots);
        Ok(RnsPoly::from_unsigned(ctx, &slots))
    }

    /// Decodes decrypted plaintext coefficients back into slot values.
    pub fn decode(&self, decrypted: &[u64]) -> Vec<u64> {
        let mut slots = decrypted.to_vec();
        self.ntt_t.forward(&mut slots);
        slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BgvParams;
    use crate::scheme::{add, decrypt, encrypt, keygen, mul, relin_keygen};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn coeff_encode_roundtrip() {
        let ctx = BgvContext::new(BgvParams::test_small());
        let vals = vec![0u64, 1, 2, 3, 100];
        let p = encode_coeffs(&ctx, &vals).unwrap();
        let raw: Vec<u64> = p.centered_coeffs(&ctx).iter().map(|&c| c as u64).collect();
        assert_eq!(&raw[..5], &vals[..]);
    }

    #[test]
    fn coeff_encode_rejects_overflow() {
        let ctx = BgvContext::new(BgvParams::test_small());
        let too_many = vec![0u64; ctx.n() + 1];
        assert!(matches!(
            encode_coeffs(&ctx, &too_many),
            Err(EncodeError::TooManyValues { .. })
        ));
        assert!(matches!(
            encode_coeffs(&ctx, &[ctx.params.t]),
            Err(EncodeError::ValueOutOfRange(_))
        ));
    }

    #[test]
    fn batching_unsupported_without_prime_t() {
        let ctx = BgvContext::new(BgvParams::aggregation());
        assert!(matches!(
            SlotEncoder::new(&ctx),
            Err(EncodeError::BatchingUnsupported)
        ));
    }

    fn batching_ctx() -> BgvContext {
        // Small batching parameters for tests: degree 256 with the prime
        // plaintext modulus.
        use arboretum_field::primes::{BGV_Q1, BGV_Q2, BGV_Q_ROOTS, BGV_T_PRIME, BGV_T_ROOT};
        BgvContext::new(
            BgvParams::new(
                256,
                vec![BGV_Q1, BGV_Q2],
                BGV_Q_ROOTS[..2].to_vec(),
                BGV_T_PRIME,
                Some(BGV_T_ROOT),
            )
            .unwrap(),
        )
    }

    #[test]
    fn slot_encode_decode_roundtrip() {
        let ctx = batching_ctx();
        let enc = SlotEncoder::new(&ctx).unwrap();
        let vals: Vec<u64> = (0..enc.slots() as u64).collect();
        let p = enc.encode(&ctx, &vals).unwrap();
        let coeffs: Vec<u64> = (0..ctx.n()).map(|j| p.rows[0][j] % ctx.params.t).collect(); // div-ok: test oracle
        assert_eq!(enc.decode(&coeffs), vals);
    }

    #[test]
    fn slotwise_add_and_mul_through_encryption() {
        let ctx = batching_ctx();
        let enc = SlotEncoder::new(&ctx).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let (sk, pk) = keygen(&ctx, &mut rng);
        let rlk = relin_keygen(&ctx, &sk, &mut rng);

        let xs: Vec<u64> = (0..256u64).map(|i| i + 1).collect();
        let ys: Vec<u64> = (0..256u64).map(|i| 2 * i + 3).collect();
        let ca = encrypt(&ctx, &pk, &enc.encode(&ctx, &xs).unwrap(), &mut rng);
        let cb = encrypt(&ctx, &pk, &enc.encode(&ctx, &ys).unwrap(), &mut rng);

        let sum = enc.decode(&decrypt(&ctx, &sk, &add(&ctx, &ca, &cb)));
        let prod = enc.decode(&decrypt(&ctx, &sk, &mul(&ctx, &ca, &cb, &rlk)));
        let t = ctx.params.t;
        for i in 0..256 {
            assert_eq!(sum[i], (xs[i] + ys[i]) % t, "slot {i} add"); // div-ok: test oracle
            assert_eq!(prod[i], (xs[i] * ys[i]) % t, "slot {i} mul"); // div-ok: test oracle
        }
    }
}
