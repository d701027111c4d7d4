//! The per-device input phase (§5.3), shared by the batch executor and
//! the stream: a device builds its upload (claimed values plus a proof
//! of well-formedness), the aggregator verifies it, and an accepted
//! device encrypts its values under the session key.
//!
//! Each kernel is a pure function of its arguments. Callers seed every
//! RNG from the device's global registry index (or draw the noise in a
//! serial pre-pass), so the kernels can run on the sharded pools and
//! still produce bitwise identical results at any thread and shard
//! count.

use arboretum_bgv::{
    encode_coeffs, encrypt_with_noise, BgvContext, Ciphertext, EncryptionNoise, PublicKey,
};
use arboretum_crypto::group::Scalar;
use arboretum_crypto::pedersen::PedersenParams;
use arboretum_lang::ast::DbSchema;
use arboretum_zkp::onehot::{
    prove_one_hot, verify_one_hot_detailed, OneHotProof, OneHotVerifyError,
};
use arboretum_zkp::range::{prove_range, verify_range_detailed, RangeProof, RangeVerifyError};
use rand::rngs::StdRng;

use crate::adversary::{ciphertext_digest, forge_one_hot, DetectionKind, DeviceBehavior};
use crate::executor::ExecError;

/// One device's upload: the claimed values and the proof that they are
/// well formed.
pub(crate) enum Upload {
    /// A one-hot row with its one-hot proof.
    OneHot {
        bits: Vec<u64>,
        proof: Option<OneHotProof>,
    },
    /// A numeric row with one range proof per field.
    Ranges {
        vals: Vec<u64>,
        proofs: Option<Vec<RangeProof>>,
    },
}

impl Upload {
    /// The claimed values the device encrypts once accepted.
    pub(crate) fn values(&self) -> &[u64] {
        match self {
            Self::OneHot { bits, .. } => bits,
            Self::Ranges { vals, .. } => vals,
        }
    }
}

/// The schema facts the proving and verifying kernels need.
#[derive(Clone, Copy, Debug)]
pub(crate) struct InputSchema {
    one_hot: bool,
    lo: i64,
    hi: i64,
    range_bits: u32,
}

impl InputSchema {
    pub(crate) fn of(schema: &DbSchema) -> Self {
        let span = (schema.hi - schema.lo).max(1) as u64;
        Self {
            one_hot: schema.one_hot,
            lo: schema.lo,
            hi: schema.hi,
            range_bits: 64 - span.leading_zeros(),
        }
    }
}

/// Builds a device's upload for `row` under `behavior`, drawing the
/// proving randomness from `rng`.
pub(crate) fn build_upload(
    pp: &PedersenParams,
    schema: InputSchema,
    row: &[i64],
    behavior: DeviceBehavior,
    rng: &mut StdRng,
) -> Upload {
    let bits: Vec<u64> = row.iter().map(|&v| v as u64).collect();
    if !schema.one_hot {
        // Numerical inputs: per-field range proofs (§5.3's
        // "1,000 years old" defense).
        let effective_row: Vec<i64> = if behavior == DeviceBehavior::OutOfRangeValue {
            row.iter()
                .map(|&v| v + (schema.hi - schema.lo + 1))
                .collect()
        } else {
            row.to_vec()
        };
        let mut proofs: Option<Vec<_>> = effective_row
            .iter()
            .map(|&v| {
                let shifted = v.checked_sub(schema.lo).filter(|&s| s >= 0)? as u64;
                prove_range(pp, shifted, schema.range_bits, rng)
                    .ok()
                    .map(|(p, _)| p)
            })
            .collect();
        match behavior {
            DeviceBehavior::TamperSigmaProof => {
                if let Some(bp) = proofs
                    .as_mut()
                    .and_then(|ps| ps.first_mut())
                    .and_then(|p| p.bit_proofs.first_mut())
                {
                    bp.z0 += Scalar::ONE;
                }
            }
            DeviceBehavior::MalformedOneHot | DeviceBehavior::TruncatedProof => {
                if let Some(ps) = proofs.as_mut() {
                    ps.pop();
                }
            }
            _ => {}
        }
        let vals: Vec<u64> = effective_row.iter().map(|&v| v as u64).collect();
        return Upload::Ranges { vals, proofs };
    }
    match behavior {
        DeviceBehavior::TruncatedProof => {
            // Malformed input: claims two categories at once.
            let mut bad = bits.clone();
            if let Some(slot) = bad.iter_mut().find(|b| **b == 0) {
                *slot = 1;
            }
            // A malicious client cannot produce a valid proof for a
            // non-one-hot vector; it sends a proof for different data.
            let p = prove_one_hot(pp, &bits, rng).ok();
            Upload::OneHot {
                bits: bad,
                proof: p.map(|mut p| {
                    // Tamper so verification fails.
                    p.bit_proofs.pop();
                    p
                }),
            }
        }
        DeviceBehavior::TamperSigmaProof => {
            let p = prove_one_hot(pp, &bits, rng).ok().map(|mut p| {
                if let Some(bp) = p.bit_proofs.first_mut() {
                    bp.z0 += Scalar::ONE;
                }
                p
            });
            Upload::OneHot { bits, proof: p }
        }
        DeviceBehavior::MalformedOneHot => {
            // Claims two categories with a best-effort forged proof:
            // every coordinate is still a bit, so the first failure is
            // the coordinate-sum proof.
            let mut bad = bits.clone();
            if let Some(slot) = bad.iter_mut().find(|b| **b == 0) {
                *slot = 1;
            }
            let proof = forge_one_hot(pp, &bad, rng);
            Upload::OneHot {
                bits: bad,
                proof: Some(proof),
            }
        }
        DeviceBehavior::OutOfRangeValue => {
            // Claims a coordinate of 2; the forged bit proof at the hot
            // coordinate cannot verify.
            let mut bad = bits.clone();
            if let Some(slot) = bad.iter_mut().find(|b| **b == 1) {
                *slot = 2;
            }
            let proof = forge_one_hot(pp, &bad, rng);
            Upload::OneHot {
                bits: bad,
                proof: Some(proof),
            }
        }
        DeviceBehavior::Honest | DeviceBehavior::WrongBgvCiphertext => {
            let p = prove_one_hot(pp, &bits, rng).ok();
            Upload::OneHot { bits, proof: p }
        }
    }
}

/// The aggregator's verdict on one upload: `None` accepts it, `Some`
/// rejects it for that typed reason.
pub(crate) fn verify_upload(
    pp: &PedersenParams,
    schema: InputSchema,
    upload: &Upload,
) -> Option<DetectionKind> {
    match upload {
        Upload::OneHot { proof, .. } => match proof {
            None => Some(DetectionKind::OneHotStructure),
            Some(p) => match verify_one_hot_detailed(pp, p) {
                Ok(()) => None,
                Err(OneHotVerifyError::Structure) => Some(DetectionKind::OneHotStructure),
                Err(OneHotVerifyError::BitProof(index)) => {
                    Some(DetectionKind::OneHotBitProof { index })
                }
                Err(OneHotVerifyError::SumProof) => Some(DetectionKind::OneHotSumProof),
            },
        },
        Upload::Ranges { vals, proofs } => match proofs {
            None => Some(DetectionKind::RangeProofMissing),
            Some(ps) if ps.len() != vals.len() => Some(DetectionKind::RangeStructure),
            Some(ps) => ps.iter().enumerate().find_map(|(field, p)| {
                match verify_range_detailed(pp, p, schema.range_bits) {
                    Ok(()) => None,
                    Err(RangeVerifyError::Structure) => Some(DetectionKind::RangeStructure),
                    Err(RangeVerifyError::Binding) => Some(DetectionKind::RangeBinding { field }),
                    Err(RangeVerifyError::BitProof(index)) => {
                        Some(DetectionKind::RangeBitProof { field, index })
                    }
                }
            }),
        },
    }
}

/// Encrypts one accepted upload's values under pre-drawn `noise`.
///
/// A device given `wrong_noise` (a `WrongBgvCiphertext` device) submits
/// a ciphertext of different data under that noise instead. The
/// aggregator cross-checks the submitted ciphertext's digest against
/// the one recomputed from the validated upload and rejects the
/// mismatch: `Ok(None)`.
///
/// # Errors
///
/// [`ExecError::Unsupported`] if the values do not encode.
pub(crate) fn seal(
    ctx: &BgvContext,
    pk: &PublicKey,
    vals: &[u64],
    noise: &EncryptionNoise,
    wrong_noise: Option<&EncryptionNoise>,
) -> Result<Option<Ciphertext>, ExecError> {
    let unsupported = |e: arboretum_bgv::EncodeError| ExecError::Unsupported(e.to_string());
    let msg = encode_coeffs(ctx, vals).map_err(unsupported)?;
    let ct = encrypt_with_noise(ctx, pk, &msg, noise);
    if let Some(wrong_noise) = wrong_noise {
        let mut wrong = vals.to_vec();
        wrong[0] = wrong[0].wrapping_add(1);
        let wrong_msg = encode_coeffs(ctx, &wrong).map_err(unsupported)?;
        let submitted = encrypt_with_noise(ctx, pk, &wrong_msg, wrong_noise);
        if ciphertext_digest(&submitted) != ciphertext_digest(&ct) {
            return Ok(None);
        }
    }
    Ok(Some(ct))
}
