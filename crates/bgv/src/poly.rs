//! RNS polynomial arithmetic in `Z_q[x]/(x^n + 1)`.
//!
//! A polynomial is stored as one residue row per RNS prime; ring
//! operations act row-wise, with NTT-based multiplication per prime. CRT
//! composition (Garner's algorithm) reconstructs `u128` coefficients for
//! the two operations that need the full modulus: relinearization digit
//! decomposition and noise measurement.
//!
//! The hot paths are division-free and allocation-light: each context
//! carries one [`Barrett`] reducer per prime (CRT decomposition, noise
//! measurement), the Garner constant is stored with its Shoup quotient,
//! and a [`ScratchPool`] recycles the per-prime transform buffers so
//! [`RnsPoly::mul`] does not allocate two fresh vectors per prime per
//! call.

use std::sync::Mutex;

use arboretum_field::zq::{
    add_mod, inv_mod, mul_mod_shoup, neg_mod, shoup_precompute, sub_mod, Barrett, RtNttTable,
};

use crate::params::BgvParams;

/// A pool of reusable `n`-length coefficient buffers.
///
/// Checked-out buffers are always exactly `n` long (zero-filled on first
/// allocation, arbitrary contents on reuse — callers overwrite). The pool
/// is a mutex-guarded free list: contention is negligible because
/// checkouts bracket NTT work that is orders of magnitude longer than the
/// lock hold time, and per-shard executor pools each own a cloned
/// context.
#[derive(Debug, Default)]
pub struct ScratchPool {
    free: Mutex<Vec<Vec<u64>>>,
}

impl ScratchPool {
    /// Checks out a buffer of length `n`, reusing a returned one if
    /// available.
    pub fn take(&self, n: usize) -> Vec<u64> {
        let recycled = self.free.lock().expect("scratch pool poisoned").pop();
        match recycled {
            Some(mut v) => {
                v.resize(n, 0);
                v
            }
            None => vec![0u64; n],
        }
    }

    /// Returns a buffer to the pool for reuse.
    pub fn put(&self, v: Vec<u64>) {
        self.free.lock().expect("scratch pool poisoned").push(v);
    }
}

impl Clone for ScratchPool {
    fn clone(&self) -> Self {
        // A cloned context starts with an empty free list; buffers are
        // cheap to warm up and sharing them across clones would couple
        // otherwise-independent pools.
        Self::default()
    }
}

/// The canonical residue of an unsigned coefficient. Small inputs
/// (secrets, errors, plaintext values: `c < q`) take a branch, not a
/// divide; larger ones fall back to the Barrett reducer.
#[inline]
fn lift_unsigned(c: u64, b: &Barrett) -> u64 {
    if c < b.modulus() {
        c
    } else {
        b.reduce(c as u128)
    }
}

/// The canonical residue of a signed coefficient (see
/// [`lift_unsigned`]).
#[inline]
fn lift_signed(c: i64, b: &Barrett) -> u64 {
    let r = lift_unsigned(c.unsigned_abs(), b);
    if c < 0 {
        neg_mod(r, b.modulus())
    } else {
        r
    }
}

/// Precomputed per-parameter-set state: NTT tables and CRT constants.
#[derive(Debug, Clone)]
pub struct BgvContext {
    /// The validated parameters.
    pub params: BgvParams,
    /// One NTT table per RNS prime.
    pub ntts: Vec<RtNttTable>,
    /// One Barrett reducer per RNS prime (index-matched to `moduli`).
    barretts: Vec<Barrett>,
    /// Garner constant `q_0^{-1} mod q_1` with its Shoup quotient
    /// (two-prime case).
    garner_inv: Option<(u64, u64)>,
    /// Per RNS prime: the plaintext modulus `t mod q_i` with its Shoup
    /// quotient, so scaling by `t` (every encryption and key) skips the
    /// per-call precompute.
    t_shoup: Vec<(u64, u64)>,
    /// Reusable transform buffers for [`RnsPoly::mul`].
    pub scratch: ScratchPool,
}

impl BgvContext {
    /// Builds the context for a parameter set.
    pub fn new(params: BgvParams) -> Self {
        let ntts = params
            .moduli
            .iter()
            .zip(&params.roots)
            .map(|(&q, &r)| RtNttTable::new(params.n, q, r))
            .collect();
        let barretts: Vec<Barrett> = params.moduli.iter().map(|&q| Barrett::new(q)).collect();
        let garner_inv = if params.moduli.len() == 2 {
            let q1 = params.moduli[1];
            let g = inv_mod(barretts[1].reduce(params.moduli[0] as u128), q1);
            Some((g, shoup_precompute(g, q1)))
        } else {
            None
        };
        let t_shoup = barretts
            .iter()
            .map(|b| {
                let tq = b.reduce(params.t as u128);
                (tq, shoup_precompute(tq, b.modulus()))
            })
            .collect();
        Self {
            params,
            ntts,
            barretts,
            garner_inv,
            t_shoup,
            scratch: ScratchPool::default(),
        }
    }

    /// Ring degree.
    pub fn n(&self) -> usize {
        self.params.n
    }

    /// The Barrett reducer for RNS prime `i`.
    pub fn barrett(&self, i: usize) -> &Barrett {
        &self.barretts[i]
    }

    /// CRT-composes the two residues of one coefficient (two-prime
    /// contexts) into its `u128` value.
    #[inline]
    pub fn compose_pair(&self, x0: u64, x1: u64) -> u128 {
        // Garner: x = x0 + q0 * ((x1 - x0) * q0^{-1} mod q1).
        let q0 = self.params.moduli[0];
        let q1 = self.params.moduli[1];
        let (g, g_shoup) = self.garner_inv.expect("two-prime context");
        let b1 = &self.barretts[1];
        let diff = sub_mod(b1.reduce(x1 as u128), b1.reduce(x0 as u128), q1);
        let t = mul_mod_shoup(diff, g, g_shoup, q1);
        x0 as u128 + q0 as u128 * t as u128
    }

    /// CRT-composes per-prime residues of one coefficient into `u128`.
    pub fn compose(&self, residues: &[u64]) -> u128 {
        match residues.len() {
            1 => residues[0] as u128,
            2 => self.compose_pair(residues[0], residues[1]),
            k => panic!("unsupported RNS prime count {k}"),
        }
    }

    /// Reduces a `u128` into per-prime residues.
    pub fn decompose(&self, x: u128) -> Vec<u64> {
        self.barretts.iter().map(|b| b.reduce(x)).collect()
    }
}

/// An element of `Z_q[x]/(x^n + 1)` in RNS representation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RnsPoly {
    /// `rows[i][j]` is coefficient `j` modulo `moduli[i]`.
    pub rows: Vec<Vec<u64>>,
}

impl RnsPoly {
    /// The zero polynomial.
    pub fn zero(ctx: &BgvContext) -> Self {
        Self {
            rows: ctx
                .params
                .moduli
                .iter()
                .map(|_| vec![0u64; ctx.n()])
                .collect(),
        }
    }

    /// Builds from signed coefficients (e.g. secrets and errors).
    pub fn from_signed<T: Copy + Into<i64>>(ctx: &BgvContext, coeffs: &[T]) -> Self {
        assert_eq!(coeffs.len(), ctx.n(), "coefficient count mismatch");
        let rows = ctx
            .barretts
            .iter()
            .map(|b| coeffs.iter().map(|&c| lift_signed(c.into(), b)).collect())
            .collect();
        Self { rows }
    }

    /// Builds from unsigned coefficients, reducing each per prime.
    pub fn from_unsigned(ctx: &BgvContext, coeffs: &[u64]) -> Self {
        assert_eq!(coeffs.len(), ctx.n(), "coefficient count mismatch");
        let rows = ctx
            .barretts
            .iter()
            .map(|b| coeffs.iter().map(|&c| lift_unsigned(c, b)).collect())
            .collect();
        Self { rows }
    }

    /// Pointwise (ring) addition.
    pub fn add(&self, other: &Self, ctx: &BgvContext) -> Self {
        self.zip_with(other, ctx, add_mod)
    }

    /// Pointwise subtraction.
    pub fn sub(&self, other: &Self, ctx: &BgvContext) -> Self {
        self.zip_with(other, ctx, sub_mod)
    }

    /// In-place pointwise addition (`self ⊞= other`), the zero-allocation
    /// form used by aggregation folds. Bitwise identical to [`Self::add`].
    pub fn add_assign(&mut self, other: &Self, ctx: &BgvContext) {
        self.zip_assign(other, ctx, add_mod)
    }

    /// In-place pointwise subtraction.
    pub fn sub_assign(&mut self, other: &Self, ctx: &BgvContext) {
        self.zip_assign(other, ctx, sub_mod)
    }

    /// Negation.
    pub fn neg(&self, ctx: &BgvContext) -> Self {
        let rows = self
            .rows
            .iter()
            .zip(&ctx.params.moduli)
            .map(|(row, &q)| row.iter().map(|&c| neg_mod(c, q)).collect())
            .collect();
        Self { rows }
    }

    /// Ring multiplication via per-prime negacyclic NTT.
    ///
    /// The second transform buffer comes from the context's scratch pool
    /// and is returned after the pointwise stage; only the result row
    /// itself is (possibly) a fresh allocation.
    pub fn mul(&self, other: &Self, ctx: &BgvContext) -> Self {
        let rows = self
            .rows
            .iter()
            .zip(&other.rows)
            .zip(&ctx.ntts)
            .map(|((a, b), ntt)| {
                let mut fa = ctx.scratch.take(a.len());
                fa.copy_from_slice(a);
                let mut fb = ctx.scratch.take(b.len());
                fb.copy_from_slice(b);
                ntt.negacyclic_mul_inplace(&mut fa, &mut fb);
                ctx.scratch.put(fb);
                fa
            })
            .collect();
        Self { rows }
    }

    /// Multiplication by an unsigned scalar. Scaling by the plaintext
    /// modulus `t` uses the context's cached Shoup constants.
    pub fn scale(&self, k: u64, ctx: &BgvContext) -> Self {
        let rows = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let q = ctx.params.moduli[i];
                let (kq, kq_shoup) = if k == ctx.params.t {
                    ctx.t_shoup[i]
                } else {
                    let kq = lift_unsigned(k, &ctx.barretts[i]);
                    (kq, shoup_precompute(kq, q))
                };
                row.iter()
                    .map(|&c| mul_mod_shoup(c, kq, kq_shoup, q))
                    .collect()
            })
            .collect();
        Self { rows }
    }

    /// Forward-transforms every row: coefficient form → the per-prime
    /// negacyclic NTT (evaluation) form.
    pub(crate) fn into_ntt(mut self, ctx: &BgvContext) -> Self {
        for (row, ntt) in self.rows.iter_mut().zip(&ctx.ntts) {
            ntt.forward(row);
        }
        self
    }

    /// The ring product `self · other` of two NTT-form polynomials,
    /// returned in coefficient form: one pointwise product and one
    /// inverse transform per prime. Bitwise identical to [`Self::mul`]
    /// on the coefficient forms.
    pub(crate) fn mul_ntt(&self, other: &Self, ctx: &BgvContext) -> Self {
        let rows = self
            .rows
            .iter()
            .zip(&other.rows)
            .enumerate()
            .map(|(i, (a, b))| {
                let barrett = &ctx.barretts[i];
                let mut prod: Vec<u64> = a
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| barrett.mul_mod(x, y))
                    .collect();
                ctx.ntts[i].inverse(&mut prod);
                prod
            })
            .collect();
        Self { rows }
    }

    /// CRT-composes every coefficient to its centered `i128` value
    /// (in `(-q/2, q/2]`).
    pub fn centered_coeffs(&self, ctx: &BgvContext) -> Vec<i128> {
        let q = ctx.params.q();
        let half = q / 2;
        let center = |x: u128| -> i128 {
            if x > half {
                -((q - x) as i128)
            } else {
                x as i128
            }
        };
        match self.rows.len() {
            1 => self.rows[0].iter().map(|&x| center(x as u128)).collect(),
            2 => self.rows[0]
                .iter()
                .zip(&self.rows[1])
                .map(|(&x0, &x1)| center(ctx.compose_pair(x0, x1)))
                .collect(),
            k => panic!("unsupported RNS prime count {k}"),
        }
    }

    fn zip_with(&self, other: &Self, ctx: &BgvContext, f: fn(u64, u64, u64) -> u64) -> Self {
        let rows = self
            .rows
            .iter()
            .zip(&other.rows)
            .zip(&ctx.params.moduli)
            .map(|((a, b), &q)| a.iter().zip(b).map(|(&x, &y)| f(x, y, q)).collect())
            .collect();
        Self { rows }
    }

    fn zip_assign(&mut self, other: &Self, ctx: &BgvContext, f: fn(u64, u64, u64) -> u64) {
        for ((a, b), &q) in self
            .rows
            .iter_mut()
            .zip(&other.rows)
            .zip(&ctx.params.moduli)
        {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = f(*x, y, q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::BgvParams;

    fn ctx() -> BgvContext {
        BgvContext::new(BgvParams::test_small())
    }

    #[test]
    fn compose_decompose_roundtrip() {
        let c = ctx();
        for x in [0u128, 1, 12_345, 1 << 80, c.params.q() - 1] {
            let r = c.decompose(x);
            assert_eq!(c.compose(&r), x, "x = {x}");
        }
    }

    #[test]
    fn add_sub_inverse() {
        let c = ctx();
        let a = RnsPoly::from_signed(&c, &vec![7i64; c.n()]);
        let b = RnsPoly::from_signed(&c, &vec![-3i64; c.n()]);
        assert_eq!(a.add(&b, &c).sub(&b, &c), a);
    }

    #[test]
    fn assign_ops_match_allocating_ops() {
        let c = ctx();
        let a = RnsPoly::from_signed(&c, &(0..c.n() as i64).map(|i| i - 50).collect::<Vec<_>>());
        let b = RnsPoly::from_signed(
            &c,
            &(0..c.n() as i64).map(|i| 3 * i + 1).collect::<Vec<_>>(),
        );
        let mut x = a.clone();
        x.add_assign(&b, &c);
        assert_eq!(x, a.add(&b, &c));
        let mut y = a.clone();
        y.sub_assign(&b, &c);
        assert_eq!(y, a.sub(&b, &c));
    }

    #[test]
    fn signed_roundtrip_through_centered() {
        let c = ctx();
        let mut coeffs = vec![0i64; c.n()];
        coeffs[0] = -5;
        coeffs[1] = 42;
        coeffs[2] = -1_000_000;
        let p = RnsPoly::from_signed(&c, &coeffs);
        let back = p.centered_coeffs(&c);
        assert_eq!(back[0], -5);
        assert_eq!(back[1], 42);
        assert_eq!(back[2], -1_000_000);
        assert!(back[3..].iter().all(|&x| x == 0));
    }

    #[test]
    fn lifts_match_the_remainder_reference_in_and_out_of_range() {
        let c = ctx();
        let q0 = c.params.moduli[0];
        let mut signed = vec![0i64; c.n()];
        let mut unsigned = vec![0u64; c.n()];
        let edge = [
            0,
            1,
            -1,
            8,
            -8,
            q0 as i64 - 1,
            q0 as i64,
            -(q0 as i64),
            i64::MAX,
            i64::MIN,
        ];
        signed[..edge.len()].copy_from_slice(&edge);
        let big = [0, 7, q0 - 1, q0, q0 + 1, 1 << 62, u64::MAX];
        unsigned[..big.len()].copy_from_slice(&big);
        let (ps, pu) = (
            RnsPoly::from_signed(&c, &signed),
            RnsPoly::from_unsigned(&c, &unsigned),
        );
        for (i, &q) in c.params.moduli.iter().enumerate() {
            for (j, &v) in signed.iter().enumerate() {
                let want = (v as i128).rem_euclid(q as i128) as u64; // div-ok: test oracle
                assert_eq!(ps.rows[i][j], want, "signed {v} mod {q}");
            }
            for (j, &v) in unsigned.iter().enumerate() {
                assert_eq!(pu.rows[i][j], v % q, "unsigned {v} mod {q}"); // div-ok: test oracle
            }
        }
    }

    #[test]
    fn mul_matches_small_example() {
        // (1 + x) * (1 - x) = 1 - x^2.
        let c = ctx();
        let mut a = vec![0i64; c.n()];
        let mut b = vec![0i64; c.n()];
        a[0] = 1;
        a[1] = 1;
        b[0] = 1;
        b[1] = -1;
        let p = RnsPoly::from_signed(&c, &a).mul(&RnsPoly::from_signed(&c, &b), &c);
        let got = p.centered_coeffs(&c);
        assert_eq!(got[0], 1);
        assert_eq!(got[1], 0);
        assert_eq!(got[2], -1);
    }

    #[test]
    fn negacyclic_identity() {
        // x^{n-1} * x = -1 in the ring.
        let c = ctx();
        let mut a = vec![0i64; c.n()];
        let mut b = vec![0i64; c.n()];
        a[c.n() - 1] = 1;
        b[1] = 1;
        let p = RnsPoly::from_signed(&c, &a).mul(&RnsPoly::from_signed(&c, &b), &c);
        let got = p.centered_coeffs(&c);
        assert_eq!(got[0], -1);
        assert!(got[1..].iter().all(|&x| x == 0));
    }

    #[test]
    fn scale_matches_repeated_add() {
        let c = ctx();
        let a = RnsPoly::from_signed(&c, &vec![3i64; c.n()]);
        let mut acc = RnsPoly::zero(&c);
        for _ in 0..5 {
            acc = acc.add(&a, &c);
        }
        assert_eq!(a.scale(5, &c), acc);
    }

    #[test]
    fn scratch_pool_recycles_buffers() {
        let pool = ScratchPool::default();
        let mut v = pool.take(16);
        assert_eq!(v.len(), 16);
        v[0] = 99;
        pool.put(v);
        // Reused buffer comes back resized; contents are unspecified but
        // the length contract holds.
        let v2 = pool.take(8);
        assert_eq!(v2.len(), 8);
        let v3 = pool.take(8);
        assert_eq!(v3.len(), 8);
    }

    #[test]
    fn repeated_muls_reuse_scratch() {
        let c = ctx();
        let a = RnsPoly::from_signed(&c, &vec![2i64; c.n()]);
        let b = RnsPoly::from_signed(&c, &vec![3i64; c.n()]);
        let first = a.mul(&b, &c);
        for _ in 0..4 {
            assert_eq!(a.mul(&b, &c), first);
        }
    }
}
