//! Streaming windowed aggregation with device churn (§5 + ROADMAP's
//! "streaming/incremental aggregation" direction).
//!
//! The batch executor ([`crate::executor`]) ingests every upload in one
//! shot. Real deployments (PAPAYA-style longitudinal services) see
//! devices arrive and drop continuously; this module adds that mode
//! without giving up a single bit of the repo's determinism contract:
//!
//! * an [`ArrivalSchedule`] is a *pure function of a seed* assigning
//!   every device an arrival window and an optional drop window
//!   (mirroring `testkit::AdversarySchedule`'s SHA-256 draw style), so
//!   any churn pattern replays bitwise from `(seed, n, windows)`;
//! * a [`StreamExecutor`] runs the existing verify phase per window on
//!   that window's arrivals only and folds their BGV ⊞-partials into a
//!   checkpointed accumulator via the sharded chunk kernels
//!   (`arboretum_bgv::par_sum_chunks_sharded`);
//! * committee key state crosses every window boundary through the
//!   existing `vsr::redistribute_share` path, and each handoff is
//!   committed to the step log exactly like the aggregation step, so
//!   the device audit covers the handoff chain;
//! * at epoch close the accumulator is decrypted *once* against the
//!   standing [`SessionSetup`] and the mechanism vignettes run with the
//!   same derived RNG streams as the batch path.
//!
//! **Checkpoint-equivalence contract.** BGV ⊞ is exact coefficient-wise
//! modular addition — fully associative *and* commutative — and every
//! per-device random draw here (proving RNG, encryption RNG, legacy
//! malicious-fraction draw) is a pure function of the device's global
//! registry index, never of the window it arrived in. Consequently any
//! window partition of the same surviving-device set produces a bitwise
//! identical accumulator, and therefore bitwise identical outputs,
//! budget ledger, and audit verdict, at every thread count, shard
//! count, fold chunk width, and network fabric. The test batteries in
//! `crates/runtime/tests/stream_props.rs` and `stream_determinism.rs`
//! pin this contract down.

use arboretum_bgv::{decrypt as bgv_decrypt, Ciphertext, EncryptionNoise, RnsPoly};
use arboretum_crypto::group::{scalar_from_hash, GroupElem, Scalar};
use arboretum_crypto::pedersen::PedersenParams;
use arboretum_crypto::sha256::{sha256, Digest};
use arboretum_dp::budget::BudgetLedger;
use arboretum_field::fixed::Fix;
use arboretum_mpc::engine::MpcEngine;
use arboretum_mpc::fixp::{inject_with_cost, FunctionalityCost};
use arboretum_net::wire::{message_to_vsr_batch, vsr_batch_to_message};
use arboretum_net::{FabricKind, Message};
use arboretum_par::{par_map_arc_sharded, PoolStats, ShardedPool};
use arboretum_planner::logical::LogicalPlan;
use arboretum_planner::plan::{PhysOp, Plan};
use arboretum_vsr::{
    combine_batches_detailed, combine_commitments, feldman_share, reconstruct as vsr_reconstruct,
    redistribute_share, verify_batch, BatchRejectReason, SubshareBatch, VShare,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use std::collections::HashMap;
use std::sync::Arc;

use crate::adversary::{
    ciphertext_digest, CommitteeBehavior, Detection, DetectionKind, DeviceBehavior, Subject,
};
use crate::audit::{audit, challenges_per_device, StepLog};
use crate::executor::{
    find_aggregation, mix, upload_tag, x0p5_tag, Deployment, ExecError, ExecutionConfig,
    ExecutionReport, QueryCert,
};
use crate::input::{build_upload, seal, verify_upload, InputSchema, Upload};
use crate::mpc_eval::{MVal, MechStyle, MpcEvaluator};
use crate::setup::{SessionSetup, SetupCounters};

/// Default ⊞-fold fan-in per accumulator chunk when the caller's
/// [`arboretum_par::ParConfig::chunk`] is unset. Chunk width never
/// changes results (modular addition is exact), only scheduling.
pub const DEFAULT_STREAM_CHUNK: usize = 32;

/// Checkpoint wire-format version.
const CHECKPOINT_VERSION: u16 = 1;
/// Checkpoint magic bytes (`"ArbS"`).
const CHECKPOINT_MAGIC: [u8; 4] = *b"ArbS";

/// The seed-derived draw every schedule decision flows through: the
/// first eight big-endian bytes of `SHA-256(seed ‖ domain ‖ index)`,
/// mirroring `testkit::schedule`'s derivation style.
fn draw(seed: u64, domain: &[u8], index: u64) -> u64 {
    let mut bytes = Vec::with_capacity(16 + domain.len());
    bytes.extend_from_slice(&seed.to_be_bytes());
    bytes.extend_from_slice(domain);
    bytes.extend_from_slice(&index.to_be_bytes());
    let d = sha256(&bytes);
    u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
}

fn stream_encrypt_tag() -> u64 {
    crate::executor::_tag(b"stream-encrypt")
}

fn stream_handoff_tag() -> u64 {
    crate::executor::_tag(b"stream-handoff")
}

fn stream_keyshare_tag() -> u64 {
    crate::executor::_tag(b"stream-keyshare")
}

fn stream_audit_tag() -> u64 {
    crate::executor::_tag(b"stream-audit")
}

/// Which devices arrive and drop in which ingestion window — a pure
/// function of the seed (derivation mirrors `testkit::AdversarySchedule`),
/// or an explicit partition supplied by a test battery.
///
/// A device *contributes* exactly when it arrives in some window while
/// still alive: `drop` at or before the arrival window means the device
/// churned out before uploading and never contributes; a drop *after*
/// arrival does not retract the already-folded upload (streams cannot
/// un-aggregate). The surviving-device set is therefore a pure function
/// of the schedule, independent of window-boundary placement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArrivalSchedule {
    /// The seed everything was derived from (0 for explicit partitions).
    pub seed: u64,
    /// Deployment size the schedule covers.
    pub n_devices: usize,
    /// Number of ingestion windows in the epoch (≥ 1).
    pub n_windows: usize,
    /// Per device: the window it arrives (uploads) in.
    pub arrival: Vec<usize>,
    /// Per device: the window it drops in, if it ever drops.
    pub drop: Vec<Option<usize>>,
}

impl ArrivalSchedule {
    /// Derives a churn schedule as a pure function of
    /// `(seed, n_devices, n_windows)`: every device draws an arrival
    /// window uniformly, and with ~25% pressure draws a drop window.
    ///
    /// # Panics
    ///
    /// Panics if `n_windows` is zero.
    pub fn derive(seed: u64, n_devices: usize, n_windows: usize) -> Self {
        assert!(n_windows >= 1, "an epoch needs at least one window");
        let w = n_windows as u64;
        let mut arrival = Vec::with_capacity(n_devices);
        let mut drop = Vec::with_capacity(n_devices);
        for i in 0..n_devices as u64 {
            arrival.push((draw(seed, b"arrival", i) % w) as usize);
            let churns = draw(seed, b"drop", i) % 100 < 25;
            drop.push(if churns {
                Some((draw(seed, b"drop-window", i) % w) as usize)
            } else {
                None
            });
        }
        Self {
            seed,
            n_devices,
            n_windows,
            arrival,
            drop,
        }
    }

    /// Builds a schedule from an explicit partition: `windows[w]` lists
    /// the device indices uploading in window `w`. Devices not listed
    /// anywhere are modeled as churned out before arriving (they never
    /// contribute).
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty, a device index is out of range, or
    /// a device is listed twice.
    pub fn from_partition(windows: &[Vec<usize>], n_devices: usize) -> Self {
        assert!(!windows.is_empty(), "need at least one window");
        let mut arrival = vec![0usize; n_devices];
        let mut drop: Vec<Option<usize>> = vec![Some(0); n_devices];
        for (w, devices) in windows.iter().enumerate() {
            for &d in devices {
                assert!(d < n_devices, "device {d} out of range");
                assert!(
                    drop[d] == Some(0) && arrival[d] == 0,
                    "device {d} listed twice"
                );
                arrival[d] = w;
                drop[d] = None;
            }
        }
        // `arrival[d] == 0 && drop[d].is_none()` is ambiguous for a
        // device legitimately listed in window 0 — the double-listing
        // assertion above distinguishes via the drop marker, which is
        // only cleared when the device is first listed.
        Self {
            seed: 0,
            n_devices,
            n_windows: windows.len(),
            arrival,
            drop,
        }
    }

    /// Whether device `i` ever contributes an upload.
    pub fn contributes(&self, i: usize) -> bool {
        self.drop[i].is_none_or(|d| d > self.arrival[i])
    }

    /// The devices uploading in window `w`, ascending by registry index.
    pub fn window(&self, w: usize) -> Vec<usize> {
        (0..self.n_devices)
            .filter(|&i| self.arrival[i] == w && self.contributes(i))
            .collect()
    }

    /// Every contributing device, ascending by registry index —
    /// invariant to window-boundary placement.
    pub fn survivors(&self) -> Vec<usize> {
        (0..self.n_devices)
            .filter(|&i| self.contributes(i))
            .collect()
    }

    /// All windows as an explicit partition (each ascending).
    pub fn windows(&self) -> Vec<Vec<usize>> {
        (0..self.n_windows).map(|w| self.window(w)).collect()
    }

    /// Content digest binding `(seed, n, windows, arrival, drop)`;
    /// checkpoints embed it so a restore against a different schedule
    /// is a typed error instead of silent divergence.
    pub fn digest(&self) -> Digest {
        let mut bytes = Vec::with_capacity(24 + self.n_devices * 16);
        bytes.extend_from_slice(&self.seed.to_be_bytes());
        bytes.extend_from_slice(&(self.n_devices as u64).to_be_bytes());
        bytes.extend_from_slice(&(self.n_windows as u64).to_be_bytes());
        for i in 0..self.n_devices {
            bytes.extend_from_slice(&(self.arrival[i] as u64).to_be_bytes());
            bytes.extend_from_slice(&self.drop[i].map_or(u64::MAX, |d| d as u64).to_be_bytes());
        }
        sha256(&bytes)
    }
}

/// Mid-stream Byzantine behavior oracle: the streaming analogue of
/// [`crate::adversary::Adversary`], window- and boundary-indexed so a
/// schedule can target exactly one window. Implementations must be pure
/// functions of their inputs.
pub trait StreamAdversary {
    /// Behavior of `device` when it uploads in window `window`.
    fn device_behavior(&self, window: usize, device: usize) -> DeviceBehavior {
        let _ = (window, device);
        DeviceBehavior::Honest
    }

    /// Behavior of committee seat `member` during the VSR handoff at
    /// window boundary `boundary` (between windows `boundary` and
    /// `boundary + 1`).
    fn handoff_behavior(&self, boundary: usize, member: usize) -> CommitteeBehavior {
        let _ = (boundary, member);
        CommitteeBehavior::Honest
    }

    /// Whether committee seat `member` crashes during the handoff at
    /// `boundary`: its subshare batch never arrives. Survivable while
    /// ≥ t+1 honest batches remain; always yields a typed
    /// [`DetectionKind::HandoffDropout`].
    fn handoff_crash(&self, boundary: usize, member: usize) -> bool {
        let _ = (boundary, member);
        false
    }
}

/// The no-op streaming adversary.
#[derive(Clone, Copy, Debug, Default)]
pub struct HonestStream;

impl StreamAdversary for HonestStream {}

/// A [`Detection`] tagged with the window it was raised in — the
/// "window-exact attribution" the mid-stream adversary battery asserts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamDetection {
    /// The ingestion window (for handoff faults: the boundary's left
    /// window) the fault was detected in.
    pub window: usize,
    /// The typed detection, attributed exactly as in the batch path.
    pub detection: Detection,
}

/// The public per-window record: what this window folded, the digests
/// that commit the accumulator and the key handoff, and the metering
/// deltas attributable to the window alone.
#[derive(Clone, Debug)]
pub struct WindowCheckpoint {
    /// The window index.
    pub window: usize,
    /// Devices that arrived (uploaded) in this window.
    pub arrivals: usize,
    /// Uploads accepted by the verify phase this window.
    pub accepted: usize,
    /// Uploads rejected this window.
    pub rejected: usize,
    /// Accepted uploads across all windows so far.
    pub cumulative_accepted: usize,
    /// Digest of the accumulator ciphertext after this window's fold
    /// (`None` while no upload has ever been accepted).
    pub accumulator_digest: Option<Digest>,
    /// Digest of the post-handoff committee commitments (`None` for the
    /// final window — no boundary follows it).
    pub handoff_digest: Option<Digest>,
    /// Wire bytes the handoff put on the committee links (framed VSR
    /// subshare batches + the combined-commitments broadcast).
    pub handoff_bytes: u64,
    /// Frames the handoff exchanged.
    pub handoff_frames: u64,
    /// Per-shard pool counter deltas for this window's verify phase
    /// (timing-bearing: excluded from determinism comparisons).
    pub verify_pool: Vec<PoolStats>,
    /// Per-shard pool counter deltas for this window's ⊞ fold
    /// (timing-bearing).
    pub aggregate_pool: Vec<PoolStats>,
}

/// The result of one closed streaming epoch.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// The standard execution report — outputs, certificate, budget,
    /// metrics — bitwise comparable with a batch run over the same
    /// surviving set (see the module docs for the exact contract).
    pub report: ExecutionReport,
    /// One checkpoint per ingested window, in order.
    pub checkpoints: Vec<WindowCheckpoint>,
    /// Every detection, tagged with the window it was raised in.
    pub detections: Vec<StreamDetection>,
}

/// Streaming errors — every edge the test batteries drive (empty
/// windows, all-drop epochs, out-of-order driving, adversarial
/// checkpointing) resolves to a typed variant, never a panic.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// An underlying execution error (budget, unsupported op, MPC, VSR).
    Exec(ExecError),
    /// The epoch closed with no surviving upload to decrypt.
    NoSurvivors,
    /// The stream was driven out of order (a window ingested twice,
    /// or closed before every window was ingested).
    WindowOutOfOrder {
        /// The window the executor expected next.
        expected: usize,
        /// The window the caller asked for.
        got: usize,
    },
    /// The epoch is already closed.
    EpochClosed,
    /// A checkpoint could not be serialized or restored.
    Checkpoint(String),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Exec(e) => write!(f, "stream execution failed: {e}"),
            Self::NoSurvivors => write!(f, "epoch closed with no surviving uploads"),
            Self::WindowOutOfOrder { expected, got } => {
                write!(
                    f,
                    "stream driven out of order: expected window {expected}, got {got}"
                )
            }
            Self::EpochClosed => write!(f, "epoch already closed"),
            Self::Checkpoint(s) => write!(f, "checkpoint error: {s}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<ExecError> for StreamError {
    fn from(e: ExecError) -> Self {
        Self::Exec(e)
    }
}

/// Windowed ingestion over a standing [`SessionSetup`].
///
/// Drive it window by window with [`Self::ingest_next`], snapshot the
/// resumable state any time with [`Self::checkpoint_bytes`], and close
/// the epoch once with [`Self::close`]. The convenience wrapper
/// [`execute_stream`] drives an entire schedule in one call.
pub struct StreamExecutor<'a> {
    plan: &'a Plan,
    logical: &'a LogicalPlan,
    deployment: &'a Deployment,
    cfg: &'a ExecutionConfig,
    setup: &'a SessionSetup,
    schedule: &'a ArrivalSchedule,
    lease: Option<&'a ShardedPool>,
    owned_pool: Option<ShardedPool>,

    next_window: usize,
    acc: Option<Ciphertext>,
    accepted_count: usize,
    rejected_count: usize,
    verify_ops: u64,
    aggregate_ops: u64,
    verify_pool_total: Vec<PoolStats>,
    aggregate_pool_total: Vec<PoolStats>,
    step_results: Vec<Vec<u8>>,
    shares: Vec<VShare>,
    commitments: Vec<GroupElem>,
    key_secret: Scalar,
    ledger: BudgetLedger,
    cert: QueryCert,
    detections: Vec<StreamDetection>,
    checkpoints: Vec<WindowCheckpoint>,
}

impl<'a> StreamExecutor<'a> {
    /// Opens a streaming epoch: charges the budget once, builds and
    /// signs the query certificate, and deals the committee's initial
    /// Feldman key sharing from a derived pure RNG stream.
    ///
    /// # Errors
    ///
    /// [`ExecError::BudgetExhausted`] (wrapped) if the certificate cost
    /// does not fit the remaining budget, and
    /// [`ExecError::Unsupported`] for committee-size mismatches or
    /// sampled queries (sampling consumes the batch path's serial RNG
    /// and is not partition-invariant).
    pub fn new(
        plan: &'a Plan,
        logical: &'a LogicalPlan,
        deployment: &'a Deployment,
        cfg: &'a ExecutionConfig,
        setup: &'a SessionSetup,
        schedule: &'a ArrivalSchedule,
        lease: Option<&'a ShardedPool>,
    ) -> Result<Self, StreamError> {
        let m = cfg.committee_size;
        if setup.committee_size != m {
            return Err(ExecError::Unsupported(format!(
                "session setup seated committees of {}, config wants {m}",
                setup.committee_size
            ))
            .into());
        }
        if logical.certificate.sampling_rate.is_some() {
            return Err(ExecError::Unsupported(
                "sampled queries are not streamable: the sampling decision \
                 consumes the batch path's serial RNG"
                    .into(),
            )
            .into());
        }
        if schedule.n_devices != deployment.db.len() {
            return Err(ExecError::Unsupported(format!(
                "schedule covers {} devices, deployment has {}",
                schedule.n_devices,
                deployment.db.len()
            ))
            .into());
        }
        let t = (m - 1) / 2;
        let mut ledger = BudgetLedger::new(cfg.budget);
        ledger
            .charge(logical.certificate.cost)
            .map_err(|_| ExecError::BudgetExhausted)?;

        // Certificate: identical body and signatures to the batch path
        // (signing is deterministic Schnorr — no RNG is consumed).
        let committees = &setup.committees;
        let contributions: Vec<Digest> = committees.committees[0]
            .iter()
            .map(|&d| sha256(&(d as u64).to_be_bytes()))
            .collect();
        let next_beacon =
            arboretum_sortition::select::next_block(&contributions, &deployment.registry.root());
        let mut cert = QueryCert {
            pk_digest: setup.pk_digest,
            registry_root: deployment.registry.root(),
            budget_after: ledger.remaining(),
            next_beacon,
            signatures: Vec::new(),
        };
        let body = cert.body();
        cert.signatures = committees.committees[0]
            .iter()
            .map(|&d| (d, deployment.registry.device(d).keypair.sign(&body)))
            .collect();

        // Initial committee key sharing from a derived pure stream, so
        // the handoff chain is independent of everything else.
        let key_secret = scalar_from_hash(&sha256(
            &setup.sk.s.iter().map(|&c| c as u8).collect::<Vec<u8>>(),
        ));
        let mut share_rng = StdRng::seed_from_u64(cfg.seed ^ stream_keyshare_tag());
        let sharing = feldman_share(key_secret, t, m, &mut share_rng);

        let owned_pool = match lease {
            Some(_) => None,
            None => Some(cfg.par.sharded_pool()),
        };
        Ok(Self {
            plan,
            logical,
            deployment,
            cfg,
            setup,
            schedule,
            lease,
            owned_pool,
            next_window: 0,
            acc: None,
            accepted_count: 0,
            rejected_count: 0,
            verify_ops: 0,
            aggregate_ops: 0,
            verify_pool_total: Vec::new(),
            aggregate_pool_total: Vec::new(),
            step_results: Vec::new(),
            shares: sharing.shares,
            commitments: sharing.commitments,
            key_secret,
            ledger,
            cert,
            detections: Vec::new(),
            checkpoints: Vec::new(),
        })
    }

    /// The window the executor will ingest next.
    pub fn next_window(&self) -> usize {
        self.next_window
    }

    /// Total windows in the epoch.
    pub fn windows(&self) -> usize {
        self.schedule.n_windows
    }

    /// The checkpoints recorded so far.
    pub fn checkpoints(&self) -> &[WindowCheckpoint] {
        &self.checkpoints
    }

    /// Ingests the next window: verifies this window's arrivals, folds
    /// the accepted ⊞-partials into the accumulator, and (unless this
    /// was the final window) runs the VSR key handoff to the next
    /// window's committee, logging it as an audited step.
    ///
    /// # Errors
    ///
    /// [`StreamError::EpochClosed`] once every window was ingested, and
    /// wrapped [`ExecError`]s for protocol failures (e.g. a handoff
    /// left fewer than t+1 valid batches).
    pub fn ingest_next(
        &mut self,
        adversary: Option<&dyn StreamAdversary>,
    ) -> Result<&WindowCheckpoint, StreamError> {
        let w = self.next_window;
        if w >= self.schedule.n_windows {
            return Err(StreamError::EpochClosed);
        }
        let arrivals = self.schedule.window(w);
        let ctx = Arc::clone(&self.setup.ctx);
        let shard_set: &ShardedPool = match self.lease {
            Some(p) => p,
            None => self.owned_pool.as_ref().expect("constructed without lease"),
        };

        // ---- Phase A (parallel, pure per device): arrivals build
        // their uploads. Proving RNGs are seeded from the *global*
        // registry index with the same tag as the batch path, so a
        // device's upload is byte-identical no matter which window it
        // lands in. ----
        let schema = InputSchema::of(&self.deployment.schema);
        let behaviors: Vec<DeviceBehavior> = arrivals
            .iter()
            .map(|&i| match adversary {
                Some(adv) => adv.device_behavior(w, i),
                None => {
                    let r = draw(self.cfg.seed, b"stream-malicious", i as u64);
                    if (r as f64 / u64::MAX as f64) < self.cfg.malicious_fraction {
                        if self.deployment.schema.one_hot {
                            DeviceBehavior::TruncatedProof
                        } else {
                            DeviceBehavior::OutOfRangeValue
                        }
                    } else {
                        DeviceBehavior::Honest
                    }
                }
            })
            .collect();
        let jobs: Vec<(usize, Vec<i64>, DeviceBehavior)> = arrivals
            .iter()
            .zip(behaviors.iter())
            .map(|(&i, &b)| (i, self.deployment.db[i].clone(), b))
            .collect();
        let pp = PedersenParams::standard();
        let upload_seed = self.cfg.seed ^ upload_tag();
        let uploads: Vec<Upload> = par_map_arc_sharded(
            shard_set,
            &Arc::new(jobs),
            move |_, (global_i, row, behavior)| {
                let mut dev_rng = StdRng::seed_from_u64(upload_seed ^ mix(*global_i as u64));
                build_upload(&pp, schema, row, *behavior, &mut dev_rng)
            },
        );

        // ---- Phase B (parallel, pure): verify this window's proofs. ----
        let uploads = Arc::new(uploads);
        self.verify_ops += uploads.len() as u64;
        let verify_before = shard_set.stats();
        let verdicts: Vec<Option<DetectionKind>> =
            par_map_arc_sharded(shard_set, &uploads, move |_, upload| {
                verify_upload(&pp, schema, upload)
            });
        let verify_delta: Vec<PoolStats> = shard_set
            .stats()
            .iter()
            .zip(&verify_before)
            .map(|(now, before)| now.since(before))
            .collect();
        add_stats(&mut self.verify_pool_total, &verify_delta);

        // ---- Phase C (parallel, pure per device): accepted arrivals
        // encrypt on the sharded pool, each from its own RNG stream
        // seeded by its global index, so ciphertexts are invariant
        // under window placement, threads, and shards. Detections and
        // the step log are then rebuilt in arrival order. ----
        let encrypt_seed = self.cfg.seed ^ stream_encrypt_tag();
        let seal_jobs: Vec<(usize, usize, bool)> = verdicts
            .iter()
            .enumerate()
            .filter(|(_, verdict)| verdict.is_none())
            .map(|(k, _)| {
                let wrong = behaviors[k] == DeviceBehavior::WrongBgvCiphertext;
                (k, arrivals[k], wrong)
            })
            .collect();
        let sealed = {
            let (ctx, pk, uploads) = (
                Arc::clone(&ctx),
                Arc::clone(&self.setup.pk),
                Arc::clone(&uploads),
            );
            par_map_arc_sharded(shard_set, &Arc::new(seal_jobs), move |_, &(k, i, wrong)| {
                let mut enc_rng = StdRng::seed_from_u64(encrypt_seed ^ mix(i as u64));
                let noise = EncryptionNoise::sample(&ctx, &mut enc_rng);
                let wrong_noise = wrong.then(|| EncryptionNoise::sample(&ctx, &mut enc_rng));
                seal(&ctx, &pk, uploads[k].values(), &noise, wrong_noise.as_ref())
            })
        };
        let mut sealed = sealed.into_iter();
        let mut window_accepted = 0usize;
        let mut window_rejected = 0usize;
        let mut cts: Vec<Ciphertext> = Vec::new();
        for (&i, verdict) in arrivals.iter().zip(&verdicts) {
            let kind = match verdict {
                Some(kind) => kind.clone(),
                None => match sealed
                    .next()
                    .expect("one sealed upload per accepted arrival")?
                {
                    Some(ct) => {
                        window_accepted += 1;
                        self.step_results.push(format!("input-{i}-ok").into_bytes());
                        cts.push(ct);
                        continue;
                    }
                    None => DetectionKind::CiphertextMismatch,
                },
            };
            window_rejected += 1;
            self.detections.push(StreamDetection {
                window: w,
                detection: Detection {
                    subject: Subject::Device(i),
                    kind,
                },
            });
        }
        self.accepted_count += window_accepted;
        self.rejected_count += window_rejected;

        // ---- Fold this window's partials into the accumulator. ----
        let aggregate_before = shard_set.stats();
        let mut partials: Vec<Ciphertext> = Vec::with_capacity(cts.len() + 1);
        if let Some(acc) = self.acc.take() {
            partials.push(acc);
        }
        partials.extend(cts);
        let adds = partials.len().saturating_sub(1) as u64;
        if !partials.is_empty() {
            let chunk = self.cfg.par.resolve_chunk(DEFAULT_STREAM_CHUNK);
            while partials.len() > 1 {
                partials = arboretum_bgv::par_sum_chunks_sharded(shard_set, &ctx, partials, chunk);
            }
            self.acc = Some(partials.remove(0));
            self.aggregate_ops += adds;
        }
        let aggregate_delta: Vec<PoolStats> = shard_set
            .stats()
            .iter()
            .zip(&aggregate_before)
            .map(|(now, before)| now.since(before))
            .collect();
        add_stats(&mut self.aggregate_pool_total, &aggregate_delta);
        let acc_digest = self.acc.as_ref().map(ciphertext_digest);
        let fold_step = match &acc_digest {
            Some(d) => {
                let mut s = format!("window-{w}-fold").into_bytes();
                s.extend_from_slice(d);
                s
            }
            None => format!("window-{w}-empty").into_bytes(),
        };
        self.step_results.push(fold_step);

        // ---- VSR handoff to the next window's committee (audited). ----
        let (handoff_digest, handoff_bytes, handoff_frames) = if w + 1 < self.schedule.n_windows {
            let (d, b, f) = self.handoff(w, adversary)?;
            (Some(d), b, f)
        } else {
            (None, 0, 0)
        };

        let checkpoint = WindowCheckpoint {
            window: w,
            arrivals: arrivals.len(),
            accepted: window_accepted,
            rejected: window_rejected,
            cumulative_accepted: self.accepted_count,
            accumulator_digest: acc_digest,
            handoff_digest,
            handoff_bytes,
            handoff_frames,
            verify_pool: verify_delta,
            aggregate_pool: aggregate_delta,
        };
        self.checkpoints.push(checkpoint);
        self.next_window += 1;
        Ok(self.checkpoints.last().expect("just pushed"))
    }

    /// Runs the boundary-`b` key handoff: every seat redistributes its
    /// share to the next window's committee over derived pure RNG
    /// streams, batches are Feldman-verified against the standing
    /// commitments, and the surviving t+1 batches define the new
    /// sharing. Returns the commitments digest plus wire metering.
    fn handoff(
        &mut self,
        b: usize,
        adversary: Option<&dyn StreamAdversary>,
    ) -> Result<(Digest, u64, u64), StreamError> {
        let m = self.cfg.committee_size;
        let t = (m - 1) / 2;
        let roster = &self.setup.committees.committees[0];
        let mut batches: Vec<SubshareBatch> = Vec::with_capacity(m);
        let mut handoff_bytes = 0u64;
        let mut handoff_frames = 0u64;
        for (j, share) in self.shares.iter().enumerate() {
            if adversary.is_some_and(|a| a.handoff_crash(b, j)) {
                self.detections.push(StreamDetection {
                    window: b,
                    detection: Detection {
                        subject: Subject::CommitteeMember {
                            committee: 0,
                            member: j,
                            device: roster[j],
                        },
                        kind: DetectionKind::HandoffDropout { boundary: b },
                    },
                });
                continue;
            }
            let mut rng = StdRng::seed_from_u64(
                self.cfg.seed ^ stream_handoff_tag() ^ mix((b * m + j) as u64 + 1),
            );
            let behavior =
                adversary.map_or(CommitteeBehavior::Honest, |a| a.handoff_behavior(b, j));
            let batch = match behavior {
                CommitteeBehavior::EquivocateCommit => {
                    let lie = VShare {
                        x: share.x,
                        y: share.y + Scalar::ONE,
                    };
                    redistribute_share(&lie, t, m, &mut rng)
                }
                CommitteeBehavior::InconsistentVsrShares => {
                    let mut bad = redistribute_share(share, t, m, &mut rng);
                    bad.sharing.shares[0].y += Scalar::ONE;
                    bad.sharing.shares[1].y += Scalar::ONE;
                    bad
                }
                _ => redistribute_share(share, t, m, &mut rng),
            };
            // Meter the broadcast the way the fabrics would frame it.
            let frame = vsr_batch_to_message(&batch).encode_frame();
            handoff_bytes += frame.len() as u64;
            handoff_frames += 1;
            batches.push(batch);
        }
        let (new_shares, rejections) = combine_batches_detailed(&batches, &self.commitments, t, m)
            .map_err(|e| ExecError::KeyTransfer(e.to_string()))?;
        for r in &rejections {
            let member = (r.from - 1) as usize;
            self.detections.push(StreamDetection {
                window: b,
                detection: Detection {
                    subject: Subject::CommitteeMember {
                        committee: 0,
                        member,
                        device: roster[member],
                    },
                    kind: match &r.reason {
                        BatchRejectReason::WrongConstantTerm => DetectionKind::VsrEquivocation,
                        BatchRejectReason::BadSubshares(subshares) => {
                            DetectionKind::VsrBadSubshares {
                                subshares: subshares.clone(),
                            }
                        }
                    },
                },
            });
        }
        // The new commitments come from the same t+1 batches the
        // combine step chose: the first t+1 valid, in input order.
        let chosen: Vec<&SubshareBatch> = batches
            .iter()
            .filter(|batch| verify_batch(batch, &self.commitments).is_ok())
            .take(t + 1)
            .collect();
        let new_commitments = combine_commitments(&chosen);
        let commit_frame = Message::Commitments(new_commitments.clone()).encode_frame();
        handoff_bytes += commit_frame.len() as u64;
        handoff_frames += 1;
        let digest = sha256(&commit_frame);
        let mut step = format!("vsr-handoff-{b}").into_bytes();
        step.extend_from_slice(&digest);
        self.step_results.push(step);
        self.shares = new_shares;
        self.commitments = new_commitments;
        Ok((digest, handoff_bytes, handoff_frames))
    }

    /// Closes the epoch: reconstructs the session key from the standing
    /// committee's shares (across however many handoffs the schedule
    /// crossed), decrypts the accumulator once, runs the mechanism
    /// vignettes on the same derived RNG streams as the batch path, and
    /// spot-audits the full step log — inputs, folds, and handoffs.
    ///
    /// # Errors
    ///
    /// [`StreamError::WindowOutOfOrder`] if windows remain,
    /// [`StreamError::NoSurvivors`] if nothing was ever accepted, and
    /// wrapped [`ExecError`]s for key-transfer or MPC failures.
    pub fn close(mut self) -> Result<StreamReport, StreamError> {
        if self.next_window < self.schedule.n_windows {
            return Err(StreamError::WindowOutOfOrder {
                expected: self.next_window,
                got: self.schedule.n_windows,
            });
        }
        let m = self.cfg.committee_size;
        let t = (m - 1) / 2;
        let total_ct = self.acc.take().ok_or(StreamError::NoSurvivors)?;
        let ctx = Arc::clone(&self.setup.ctx);
        let categories = self.deployment.schema.row_width;
        let n = self.deployment.db.len();

        // Final committee must still hold the session key.
        let recovered =
            vsr_reconstruct(&self.shares, t).map_err(|e| ExecError::KeyTransfer(e.to_string()))?;
        if recovered != self.key_secret {
            return Err(ExecError::KeyTransfer("key digest mismatch".into()).into());
        }

        // ---- Decrypt once against the standing setup (§5.4). ----
        let counts_raw = bgv_decrypt(&ctx, &self.setup.sk, &total_ct);
        let counts: Vec<i64> = counts_raw[..categories].iter().map(|&v| v as i64).collect();
        let mut mpc = MpcEngine::new_on(
            m,
            t,
            true,
            self.cfg.seed ^ x0p5_tag(),
            FabricKind::resolve(self.cfg.fabric, FabricKind::Sim),
        );
        inject_with_cost(
            &mut mpc,
            Fix::ZERO,
            FunctionalityCost {
                mults: 64,
                rounds: 4,
            },
        );
        self.step_results.push(b"decrypt-to-shares".to_vec());

        // ---- Mechanism vignettes, same RNG streams as the batch path. ----
        let style = if self
            .plan
            .vignettes
            .iter()
            .any(|v| matches!(v.op, PhysOp::ExpSample))
        {
            MechStyle::ExpSample
        } else {
            MechStyle::Gumbel
        };
        let (sum_var, resume_at) = find_aggregation(&self.logical.program)
            .ok_or_else(|| ExecError::Unsupported("no sum(db) aggregation found".into()))?;
        let mut env = HashMap::new();
        let count_shares: Vec<arboretum_mpc::engine::Shared> = counts
            .iter()
            .map(|&c| mpc.dealer_share(arboretum_field::FGold::from_i64(c)))
            .collect();
        env.insert(sum_var, MVal::SharedArr(count_shares));
        let mut eval_rng = StdRng::seed_from_u64(self.cfg.seed ^ 0x5eed);
        let outputs = {
            let mut evaluator = MpcEvaluator::new(&mut mpc, &mut eval_rng, env, style);
            evaluator
                .block(&self.logical.program.stmts[resume_at..])
                .map_err(|e| ExecError::Mpc(e.to_string()))?;
            evaluator.outputs
        };
        self.step_results.push(b"mechanism-vignettes".to_vec());
        self.step_results.push(
            outputs
                .iter()
                .flat_map(|o| o.to_be_bytes())
                .collect::<Vec<u8>>(),
        );

        // ---- Device spot-audit over the full windowed log (§5.5). ----
        let log = StepLog::new(std::mem::take(&mut self.step_results));
        let root = log.root();
        let k = challenges_per_device(log.len(), n as u64, self.cfg.p_max);
        let honest: Vec<Vec<u8>> = (0..log.len()).map(|i| log.respond(i).0).collect();
        let mut audit_rng = StdRng::seed_from_u64(self.cfg.seed ^ stream_audit_tag());
        let mut audit_ok = true;
        for _ in 0..n.min(50) {
            if !audit(&log, &root, k, |i| honest[i].clone(), &mut audit_rng) {
                audit_ok = false;
            }
        }

        let compute = self
            .cfg
            .compute
            .clone()
            .unwrap_or_else(|| arboretum_mpc::network::ComputeModel::uniform(m));
        let per_mult_secs = 9.0e-4;
        let mpc_elapsed_estimate_secs =
            mpc.net
                .elapsed_secs(&self.cfg.latency, &compute, per_mult_secs);

        Ok(StreamReport {
            report: ExecutionReport {
                outputs,
                certificate: self.cert,
                rejected_inputs: self.rejected_count,
                accepted_inputs: self.accepted_count,
                mpc_metrics: mpc.net.metrics.clone(),
                audit_ok,
                mpc_elapsed_estimate_secs,
                budget_after: self.ledger.remaining(),
                verify_pool: self.verify_pool_total,
                verify_ops: self.verify_ops,
                aggregate_pool: self.aggregate_pool_total,
                aggregate_ops: self.aggregate_ops,
                ring_degree: ctx.params.n as u64,
                aggregate_digest: ciphertext_digest(&total_ct),
                // Streams always run on a standing setup: sortition and
                // keygen were amortized at session-open time.
                setup: SetupCounters::default(),
            },
            checkpoints: self.checkpoints,
            detections: self.detections,
        })
    }

    /// Serializes the resumable mid-stream state: accumulator
    /// ciphertext (as wire `CtChunk` frames), committee shares and
    /// commitments (as a wire `VsrSubshares` frame), counters, step
    /// log, and per-window checkpoints, bound to the schedule digest.
    ///
    /// # Errors
    ///
    /// [`StreamError::Checkpoint`] if detections were raised — an
    /// adversarial run's detections live in the driving harness and are
    /// not serialized, so checkpointing one would drop evidence.
    pub fn checkpoint_bytes(&self) -> Result<Vec<u8>, StreamError> {
        if !self.detections.is_empty() {
            return Err(StreamError::Checkpoint(
                "cannot checkpoint a stream with pending detections".into(),
            ));
        }
        let mut out = Vec::new();
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_be_bytes());
        out.extend_from_slice(&self.schedule.digest());
        put_u64(&mut out, self.next_window as u64);
        put_u64(&mut out, self.accepted_count as u64);
        put_u64(&mut out, self.rejected_count as u64);
        put_u64(&mut out, self.verify_ops);
        put_u64(&mut out, self.aggregate_ops);
        // Accumulator: one CtChunk frame per (poly, RNS limb).
        match &self.acc {
            None => out.push(0),
            Some(ct) => {
                out.push(1);
                out.push(ct.c0.rows.len() as u8);
                for (poly, p) in [(0u8, &ct.c0), (1u8, &ct.c1)] {
                    for (limb, row) in p.rows.iter().enumerate() {
                        let frame = Message::CtChunk {
                            poly,
                            limb: limb as u8,
                            offset: 0,
                            coeffs: row.clone(),
                        }
                        .encode_frame();
                        out.extend_from_slice(&frame);
                    }
                }
            }
        }
        // Committee state: shares + commitments in one VSR frame.
        let frame = Message::VsrSubshares {
            from: self.next_window as u64,
            shares: self.shares.iter().map(|s| (s.x, s.y)).collect(),
            commitments: self.commitments.clone(),
        }
        .encode_frame();
        out.extend_from_slice(&frame);
        // Step log so far.
        put_u32(&mut out, self.step_results.len() as u32);
        for step in &self.step_results {
            put_u32(&mut out, step.len() as u32);
            out.extend_from_slice(step);
        }
        // Pool totals (timing-bearing; serialized for faithfulness).
        put_stats(&mut out, &self.verify_pool_total);
        put_stats(&mut out, &self.aggregate_pool_total);
        // Per-window checkpoints.
        put_u32(&mut out, self.checkpoints.len() as u32);
        for c in &self.checkpoints {
            put_u64(&mut out, c.window as u64);
            put_u64(&mut out, c.arrivals as u64);
            put_u64(&mut out, c.accepted as u64);
            put_u64(&mut out, c.rejected as u64);
            put_u64(&mut out, c.cumulative_accepted as u64);
            put_digest(&mut out, &c.accumulator_digest);
            put_digest(&mut out, &c.handoff_digest);
            put_u64(&mut out, c.handoff_bytes);
            put_u64(&mut out, c.handoff_frames);
            put_stats(&mut out, &c.verify_pool);
            put_stats(&mut out, &c.aggregate_pool);
        }
        Ok(out)
    }

    /// Restores mid-stream state from [`Self::checkpoint_bytes`] into a
    /// freshly constructed executor for the *same* plan, deployment,
    /// config, setup, and schedule. Continuing from the restored state
    /// reproduces the uninterrupted run bitwise.
    ///
    /// # Errors
    ///
    /// [`StreamError::Checkpoint`] on truncation, version/magic or
    /// schedule-digest mismatch, or malformed frames.
    pub fn restore_from(&mut self, bytes: &[u8]) -> Result<(), StreamError> {
        let bad = |s: &str| StreamError::Checkpoint(s.to_string());
        let mut pos = 0usize;
        let take = |pos: &mut usize, k: usize| -> Result<&[u8], StreamError> {
            if *pos + k > bytes.len() {
                return Err(StreamError::Checkpoint("truncated checkpoint".into()));
            }
            let s = &bytes[*pos..*pos + k];
            *pos += k;
            Ok(s)
        };
        if take(&mut pos, 4)? != CHECKPOINT_MAGIC {
            return Err(bad("bad checkpoint magic"));
        }
        let v = take(&mut pos, 2)?;
        if u16::from_be_bytes([v[0], v[1]]) != CHECKPOINT_VERSION {
            return Err(bad("unsupported checkpoint version"));
        }
        if take(&mut pos, 32)? != self.schedule.digest() {
            return Err(bad("checkpoint was taken under a different schedule"));
        }
        let next_window = get_u64(bytes, &mut pos)? as usize;
        if next_window > self.schedule.n_windows {
            return Err(bad("checkpoint window exceeds the schedule"));
        }
        let accepted_count = get_u64(bytes, &mut pos)? as usize;
        let rejected_count = get_u64(bytes, &mut pos)? as usize;
        let verify_ops = get_u64(bytes, &mut pos)?;
        let aggregate_ops = get_u64(bytes, &mut pos)?;
        let acc = match take(&mut pos, 1)?[0] {
            0 => None,
            1 => {
                let limbs = take(&mut pos, 1)?[0] as usize;
                let degree = self.setup.ctx.params.n;
                let mut polys = [RnsPoly { rows: Vec::new() }, RnsPoly { rows: Vec::new() }];
                for (poly, slot) in polys.iter_mut().enumerate() {
                    for limb in 0..limbs {
                        let (msg, used) = Message::decode_frame(&bytes[pos..])
                            .map_err(|e| StreamError::Checkpoint(e.to_string()))?;
                        pos += used;
                        match msg {
                            Message::CtChunk {
                                poly: p,
                                limb: l,
                                offset: 0,
                                coeffs,
                            } if p as usize == poly
                                && l as usize == limb
                                && coeffs.len() == degree =>
                            {
                                slot.rows.push(coeffs);
                            }
                            _ => return Err(bad("accumulator frame out of order")),
                        }
                    }
                }
                let [c0, c1] = polys;
                Some(Ciphertext { c0, c1 })
            }
            _ => return Err(bad("bad accumulator flag")),
        };
        let (msg, used) = Message::decode_frame(&bytes[pos..])
            .map_err(|e| StreamError::Checkpoint(e.to_string()))?;
        pos += used;
        let committee = message_to_vsr_batch(&msg).ok_or_else(|| bad("missing committee frame"))?;
        let n_steps = get_u32(bytes, &mut pos)? as usize;
        let mut step_results = Vec::with_capacity(n_steps);
        for _ in 0..n_steps {
            let len = get_u32(bytes, &mut pos)? as usize;
            step_results.push(take(&mut pos, len)?.to_vec());
        }
        let verify_pool_total = get_stats(bytes, &mut pos)?;
        let aggregate_pool_total = get_stats(bytes, &mut pos)?;
        let n_checkpoints = get_u32(bytes, &mut pos)? as usize;
        let mut checkpoints = Vec::with_capacity(n_checkpoints);
        for _ in 0..n_checkpoints {
            checkpoints.push(WindowCheckpoint {
                window: get_u64(bytes, &mut pos)? as usize,
                arrivals: get_u64(bytes, &mut pos)? as usize,
                accepted: get_u64(bytes, &mut pos)? as usize,
                rejected: get_u64(bytes, &mut pos)? as usize,
                cumulative_accepted: get_u64(bytes, &mut pos)? as usize,
                accumulator_digest: get_digest(bytes, &mut pos)?,
                handoff_digest: get_digest(bytes, &mut pos)?,
                handoff_bytes: get_u64(bytes, &mut pos)?,
                handoff_frames: get_u64(bytes, &mut pos)?,
                verify_pool: get_stats(bytes, &mut pos)?,
                aggregate_pool: get_stats(bytes, &mut pos)?,
            });
        }
        if pos != bytes.len() {
            return Err(bad("trailing bytes after checkpoint"));
        }
        self.next_window = next_window;
        self.accepted_count = accepted_count;
        self.rejected_count = rejected_count;
        self.verify_ops = verify_ops;
        self.aggregate_ops = aggregate_ops;
        self.acc = acc;
        self.shares = committee.sharing.shares;
        self.commitments = committee.sharing.commitments;
        self.step_results = step_results;
        self.verify_pool_total = verify_pool_total;
        self.aggregate_pool_total = aggregate_pool_total;
        self.checkpoints = checkpoints;
        self.detections.clear();
        Ok(())
    }
}

/// Drives an entire [`ArrivalSchedule`] through a [`StreamExecutor`] —
/// every window then the close — on a standing [`SessionSetup`].
///
/// # Errors
///
/// See [`StreamExecutor::new`], [`StreamExecutor::ingest_next`], and
/// [`StreamExecutor::close`].
pub fn execute_stream(
    plan: &Plan,
    logical: &LogicalPlan,
    deployment: &Deployment,
    cfg: &ExecutionConfig,
    setup: &SessionSetup,
    schedule: &ArrivalSchedule,
    adversary: Option<&dyn StreamAdversary>,
) -> Result<StreamReport, StreamError> {
    let mut exec = StreamExecutor::new(plan, logical, deployment, cfg, setup, schedule, None)?;
    for _ in 0..schedule.n_windows {
        exec.ingest_next(adversary)?;
    }
    exec.close()
}

fn add_stats(total: &mut Vec<PoolStats>, delta: &[PoolStats]) {
    if total.len() < delta.len() {
        total.resize(delta.len(), PoolStats::default());
    }
    for (t, d) in total.iter_mut().zip(delta) {
        t.tasks += d.tasks;
        t.busy_nanos += d.busy_nanos;
        t.steals += d.steals;
        t.injected += d.injected;
        t.inline_tasks += d.inline_tasks;
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_digest(out: &mut Vec<u8>, d: &Option<Digest>) {
    match d {
        None => out.push(0),
        Some(d) => {
            out.push(1);
            out.extend_from_slice(d);
        }
    }
}

fn put_stats(out: &mut Vec<u8>, stats: &[PoolStats]) {
    put_u32(out, stats.len() as u32);
    for s in stats {
        put_u64(out, s.tasks);
        put_u64(out, s.busy_nanos);
        put_u64(out, s.steals);
        put_u64(out, s.injected);
        put_u64(out, s.inline_tasks);
    }
}

fn get_u32(bytes: &[u8], pos: &mut usize) -> Result<u32, StreamError> {
    if *pos + 4 > bytes.len() {
        return Err(StreamError::Checkpoint("truncated checkpoint".into()));
    }
    let v = u32::from_be_bytes(bytes[*pos..*pos + 4].try_into().expect("length checked"));
    *pos += 4;
    Ok(v)
}

fn get_u64(bytes: &[u8], pos: &mut usize) -> Result<u64, StreamError> {
    if *pos + 8 > bytes.len() {
        return Err(StreamError::Checkpoint("truncated checkpoint".into()));
    }
    let v = u64::from_be_bytes(bytes[*pos..*pos + 8].try_into().expect("length checked"));
    *pos += 8;
    Ok(v)
}

fn get_digest(bytes: &[u8], pos: &mut usize) -> Result<Option<Digest>, StreamError> {
    if *pos + 1 > bytes.len() {
        return Err(StreamError::Checkpoint("truncated checkpoint".into()));
    }
    let flag = bytes[*pos];
    *pos += 1;
    match flag {
        0 => Ok(None),
        1 => {
            if *pos + 32 > bytes.len() {
                return Err(StreamError::Checkpoint("truncated checkpoint".into()));
            }
            let d: Digest = bytes[*pos..*pos + 32].try_into().expect("length checked");
            *pos += 32;
            Ok(Some(d))
        }
        _ => Err(StreamError::Checkpoint("bad digest flag".into())),
    }
}

fn get_stats(bytes: &[u8], pos: &mut usize) -> Result<Vec<PoolStats>, StreamError> {
    let k = get_u32(bytes, pos)? as usize;
    if k > 4096 {
        return Err(StreamError::Checkpoint("implausible shard count".into()));
    }
    let mut out = Vec::with_capacity(k);
    for _ in 0..k {
        out.push(PoolStats {
            tasks: get_u64(bytes, pos)?,
            busy_nanos: get_u64(bytes, pos)?,
            steals: get_u64(bytes, pos)?,
            injected: get_u64(bytes, pos)?,
            inline_tasks: get_u64(bytes, pos)?,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_schedule_is_a_pure_function_of_its_inputs() {
        let a = ArrivalSchedule::derive(9, 40, 4);
        let b = ArrivalSchedule::derive(9, 40, 4);
        assert_eq!(a, b);
        assert_ne!(a, ArrivalSchedule::derive(10, 40, 4));
        // Windows partition the survivors exactly.
        let flat: Vec<usize> = a.windows().into_iter().flatten().collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, a.survivors());
        assert_eq!(flat.len(), a.survivors().len());
    }

    #[test]
    fn explicit_partition_round_trips_through_windows() {
        let windows = vec![vec![0, 3], vec![1], vec![], vec![2, 4]];
        let s = ArrivalSchedule::from_partition(&windows, 6);
        assert_eq!(s.windows(), windows);
        assert_eq!(s.survivors(), vec![0, 1, 2, 3, 4]);
        assert!(!s.contributes(5));
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn double_listing_a_device_panics() {
        ArrivalSchedule::from_partition(&[vec![0], vec![0]], 2);
    }

    #[test]
    fn schedule_digest_binds_every_field() {
        let a = ArrivalSchedule::derive(3, 20, 2);
        assert_eq!(a.digest(), a.digest());
        let mut b = a.clone();
        b.arrival[7] = (b.arrival[7] + 1) % b.n_windows;
        assert_ne!(a.digest(), b.digest());
        let mut c = a.clone();
        c.drop[0] = Some(0);
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn drop_before_or_at_arrival_removes_the_contribution() {
        let mut s = ArrivalSchedule::derive(1, 4, 3);
        s.arrival = vec![1, 1, 1, 1];
        s.drop = vec![None, Some(0), Some(1), Some(2)];
        assert!(s.contributes(0));
        assert!(!s.contributes(1)); // dropped before arriving
        assert!(!s.contributes(2)); // dropped in the arrival window
        assert!(s.contributes(3)); // dropped after uploading
        assert_eq!(s.survivors(), vec![0, 3]);
    }

    #[test]
    fn stats_serialization_round_trips() {
        let stats = vec![
            PoolStats {
                tasks: 3,
                busy_nanos: 99,
                steals: 1,
                injected: 2,
                inline_tasks: 0,
            },
            PoolStats::default(),
        ];
        let mut buf = Vec::new();
        put_stats(&mut buf, &stats);
        let mut pos = 0;
        assert_eq!(get_stats(&buf, &mut pos).unwrap(), stats);
        assert_eq!(pos, buf.len());
    }
}
