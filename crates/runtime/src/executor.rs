//! Concrete plan execution (§5).
//!
//! Executes a physical plan end-to-end on a simulated deployment: real
//! sortition over a device registry, real BGV encryption and homomorphic
//! aggregation, real one-hot ZKPs, a real VSR key handoff between the
//! key-generation and decryption committees, and real MPC vignettes
//! (share-based noising and argmax) with full communication metering.
//! The deployment is laptop-scale (hundreds of devices); the paper-scale
//! costs come from the planner's cost model, exactly mirroring the
//! paper's benchmark-then-extrapolate methodology (§7.1).

use arboretum_bgv::{decrypt as bgv_decrypt, Ciphertext, EncryptionNoise};
use arboretum_crypto::group::Scalar;
use arboretum_crypto::pedersen::PedersenParams;
use arboretum_crypto::schnorr::{verify as schnorr_verify, Signature};
use arboretum_crypto::sha256::{sha256, Digest};
use arboretum_dp::budget::{BudgetLedger, PrivacyCost};
use arboretum_field::fixed::Fix;
use arboretum_lang::ast::DbSchema;
use arboretum_mpc::engine::MpcEngine;
use arboretum_mpc::fixp::{inject_with_cost, FunctionalityCost};
use arboretum_mpc::network::NetMetrics;
use arboretum_net::FabricKind;
use arboretum_par::{par_map_arc_sharded, ParConfig, PoolStats, ShardedPool};
use arboretum_planner::cost::PoolCalibration;
use arboretum_planner::logical::LogicalPlan;
use arboretum_planner::plan::{PhysOp, Plan};
use arboretum_sortition::select::Registry;
use arboretum_vsr::{
    combine_batches, combine_batches_detailed, feldman_share, reconstruct as vsr_reconstruct,
    redistribute_share, BatchRejectReason, VShare,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::collections::HashMap;
use std::sync::Arc;

use crate::adversary::{
    ciphertext_digest, Adversary, AggregatorBehavior, CommitteeBehavior, Detection, DetectionKind,
    DeviceBehavior, Subject,
};
use crate::audit::{
    adversarial_audit, audit, challenges_per_device, collate_detection, StepLog, DROPPED_MARKER,
};
use crate::input::{build_upload, seal, verify_upload, InputSchema, Upload};
use crate::mpc_eval::{MVal, MechStyle, MpcEvaluator};
use crate::setup::{SessionSetup, SetupCounters};

/// Finds the top-level aggregation statement `var = sum(<db view>)`,
/// returning the bound variable name and the index of the statement
/// *after* it.
pub(crate) fn find_aggregation(program: &arboretum_lang::ast::Program) -> Option<(String, usize)> {
    use arboretum_lang::ast::{Builtin, Expr, Stmt};
    let mut db_views = vec!["db".to_string()];
    for (i, stmt) in program.stmts.iter().enumerate() {
        if let Stmt::Assign(name, expr) = stmt {
            match expr {
                Expr::Call(Builtin::SampleUniform, _) => db_views.push(name.clone()),
                Expr::Call(Builtin::Sum, args) => {
                    let over_db = matches!(&args[0], Expr::Var(v) if db_views.contains(v))
                        || matches!(&args[0], Expr::Call(Builtin::SampleUniform, _));
                    if over_db {
                        return Some((name.clone(), i + 1));
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// A simulated deployment: registered devices plus their private rows.
#[derive(Clone, Debug)]
pub struct Deployment {
    /// The sortition registry.
    pub registry: Registry,
    /// Private one-hot rows, one per device.
    pub db: Vec<Vec<i64>>,
    /// The declared schema.
    pub schema: DbSchema,
    /// The current random beacon.
    pub beacon: Digest,
}

impl Deployment {
    /// Builds a deployment from explicit numeric rows under a declared
    /// schema (clipped range per field).
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or ragged.
    pub fn from_rows(db: Vec<Vec<i64>>, schema: DbSchema) -> Self {
        assert!(!db.is_empty(), "deployment needs at least one device");
        let width = db[0].len();
        assert!(db.iter().all(|r| r.len() == width), "ragged rows");
        let registry = Registry::new(
            (0..db.len() as u64)
                .map(arboretum_sortition::select::Device::from_id)
                .collect(),
        );
        Self {
            registry,
            db,
            schema,
            beacon: sha256(b"genesis-beacon"),
        }
    }

    /// Builds a deployment where device `i` belongs to category
    /// `assignments[i]` out of `categories`.
    ///
    /// # Panics
    ///
    /// Panics if any assignment is out of range.
    pub fn one_hot(assignments: &[usize], categories: usize) -> Self {
        let db: Vec<Vec<i64>> = assignments
            .iter()
            .map(|&c| {
                assert!(c < categories, "category {c} out of range");
                let mut row = vec![0i64; categories];
                row[c] = 1;
                row
            })
            .collect();
        let registry = Registry::new(
            (0..assignments.len() as u64)
                .map(arboretum_sortition::select::Device::from_id)
                .collect(),
        );
        Self {
            registry,
            db,
            schema: DbSchema::one_hot(assignments.len() as u64, categories),
            beacon: sha256(b"genesis-beacon"),
        }
    }
}

/// Execution configuration.
#[derive(Clone, Debug)]
pub struct ExecutionConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Network latency model for the elapsed-time estimate (§7.5).
    pub latency: arboretum_mpc::network::LatencyModel,
    /// Per-party compute model for the elapsed-time estimate (§7.5).
    pub compute: Option<arboretum_mpc::network::ComputeModel>,
    /// Concrete committee size for the simulated MPCs (the *plan's*
    /// committee size is used for cost accounting; this one keeps the
    /// simulation fast).
    pub committee_size: usize,
    /// Fraction of participants submitting malformed inputs.
    pub malicious_fraction: f64,
    /// Remaining privacy budget before this query.
    pub budget: PrivacyCost,
    /// Step-audit miss probability target.
    pub p_max: f64,
    /// Thread configuration for the parallel phases (proving, proof
    /// verification, encryption, and ciphertext aggregation). Outputs,
    /// metrics, and the aggregate ciphertext are identical at every
    /// thread count: every random draw is made either in a serial phase
    /// in device order or from an RNG seeded by the device's global
    /// index, and the ⊞-reduction uses a fixed combine tree.
    pub par: ParConfig,
    /// Network fabric for the simulated MPC engines. `None` falls back
    /// to the process-wide default ([`arboretum_net::global_fabric`])
    /// and then [`FabricKind::Sim`]. Every fabric produces bitwise
    /// identical outputs, metrics, and detections — this knob trades
    /// transport mechanics (in-process queues vs. the virtual-time
    /// evented core), not semantics.
    pub fabric: Option<FabricKind>,
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            latency: arboretum_mpc::network::LatencyModel::lan(),
            compute: None,
            committee_size: 5,
            malicious_fraction: 0.0,
            budget: PrivacyCost {
                epsilon: 10.0,
                delta: 1e-6,
            },
            p_max: 1e-9,
            par: ParConfig::auto(),
            fabric: None,
        }
    }
}

/// The query authorization certificate (§5.2).
#[derive(Clone, Debug)]
pub struct QueryCert {
    /// Digest of the published public key.
    pub pk_digest: Digest,
    /// The registry Merkle root `M_i`.
    pub registry_root: Digest,
    /// Remaining budget after this query.
    pub budget_after: PrivacyCost,
    /// The next beacon block `B_{i+1}`.
    pub next_beacon: Digest,
    /// Committee members' signatures over the certificate body.
    pub signatures: Vec<(usize, Signature)>,
}

impl QueryCert {
    /// Canonical signed bytes.
    pub fn body(&self) -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&self.pk_digest);
        b.extend_from_slice(&self.registry_root);
        b.extend_from_slice(&self.budget_after.epsilon.to_be_bytes());
        b.extend_from_slice(&self.budget_after.delta.to_be_bytes());
        b.extend_from_slice(&self.next_beacon);
        b
    }

    /// Verifies every member signature against the registry.
    pub fn verify(&self, registry: &Registry) -> bool {
        !self.signatures.is_empty() && self.verify_detailed(registry).is_empty()
    }

    /// Verifies every member signature, returning the positions (within
    /// [`Self::signatures`]) whose signatures do not check out.
    pub fn verify_detailed(&self, registry: &Registry) -> Vec<usize> {
        let body = self.body();
        self.signatures
            .iter()
            .enumerate()
            .filter(|(_, (idx, sig))| {
                !schnorr_verify(&registry.device(*idx).keypair.pk, &body, sig)
            })
            .map(|(pos, _)| pos)
            .collect()
    }
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// Privacy budget exhausted.
    BudgetExhausted,
    /// The plan contains an operation the executor cannot run.
    Unsupported(String),
    /// An MPC operation failed.
    Mpc(String),
    /// Key transfer between committees failed.
    KeyTransfer(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BudgetExhausted => write!(f, "privacy budget exhausted"),
            Self::Unsupported(s) => write!(f, "unsupported operation: {s}"),
            Self::Mpc(s) => write!(f, "MPC failure: {s}"),
            Self::KeyTransfer(s) => write!(f, "VSR key transfer failed: {s}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The result of one end-to-end execution.
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// Released outputs (category indices or noised counts, per the
    /// query's mechanism).
    pub outputs: Vec<i64>,
    /// The signed query certificate.
    pub certificate: QueryCert,
    /// Inputs rejected for bad ZKPs.
    pub rejected_inputs: usize,
    /// Accepted inputs.
    pub accepted_inputs: usize,
    /// Aggregate MPC communication metrics across committee vignettes.
    pub mpc_metrics: NetMetrics,
    /// Whether the aggregator's step log passed the participants' audits.
    pub audit_ok: bool,
    /// Estimated wall-clock seconds for the committee MPCs under the
    /// configured latency/compute models (§7.5).
    pub mpc_elapsed_estimate_secs: f64,
    /// Remaining budget after the query.
    pub budget_after: PrivacyCost,
    /// Per-shard pool counters for the input-verification phase.
    ///
    /// Timing-bearing: `busy_nanos` varies run to run, so determinism
    /// comparisons must not include this field.
    pub verify_pool: Vec<PoolStats>,
    /// Proof verifications performed (one per upload).
    pub verify_ops: u64,
    /// Per-shard pool counters for the ⊞-aggregation phase
    /// (timing-bearing, like [`Self::verify_pool`]).
    pub aggregate_pool: Vec<PoolStats>,
    /// Homomorphic additions performed (`accepted − 1` across all tree
    /// levels).
    pub aggregate_ops: u64,
    /// Ring degree the aggregation ran at.
    pub ring_degree: u64,
    /// Digest of the honest ⊞-aggregate ciphertext, as the step log's
    /// aggregation step commits it (a stream reports its final
    /// accumulator). Deterministic at every thread and shard count (and
    /// every window partition of a stream), yet it moves if any accepted
    /// device's ciphertext does.
    pub aggregate_digest: Digest,
    /// Fixed-cost setup work this execution performed itself. All-zero
    /// when the execution ran against a cached [`SessionSetup`] (the
    /// session-catalog path): sortition and keygen were amortized.
    pub setup: SetupCounters,
}

impl ExecutionReport {
    /// Packages the measured phase counters for
    /// [`arboretum_planner::cost::CostModel::calibrate_from_pools`]:
    /// aggregator cost constants derived from what the sharded pools
    /// actually did, instead of the stock micro-bench defaults.
    pub fn pool_calibration(&self) -> PoolCalibration {
        PoolCalibration {
            verify: self.verify_pool.clone(),
            verify_ops: self.verify_ops,
            aggregate: self.aggregate_pool.clone(),
            aggregate_ops: self.aggregate_ops,
            ring_degree: self.ring_degree,
        }
    }
}

/// An [`ExecutionReport`] plus the typed detections an adversarial run
/// produced.
#[derive(Clone, Debug)]
pub struct AdversarialReport {
    /// The ordinary execution report over the surviving inputs.
    pub report: ExecutionReport,
    /// Every rejection, attributed to its subject.
    pub detections: Vec<Detection>,
}

/// Executes a plan on a deployment.
///
/// # Errors
///
/// Returns [`ExecError`] on budget exhaustion or protocol failures.
pub fn execute(
    plan: &Plan,
    logical: &LogicalPlan,
    deployment: &Deployment,
    cfg: &ExecutionConfig,
) -> Result<ExecutionReport, ExecError> {
    execute_inner(plan, logical, deployment, cfg, None, None, None).map(|(report, _)| report)
}

/// Executes a plan against a cached [`SessionSetup`], optionally on a
/// leased [`ShardedPool`] and under an [`Adversary`].
///
/// This is the session-catalog entry point: sortition, BGV keygen, and
/// the keygen-MPC metering are taken from `setup` instead of being
/// rebuilt, the report's [`SetupCounters`] are zero, and the keygen
/// cost is *not* merged into the query's MPC metrics (it was paid once
/// when the setup was built). Per-query randomness is drawn from
/// `cfg.seed` exactly as in the one-shot path, so results depend only
/// on `(plan, logical, deployment, cfg, setup)` — never on which other
/// queries share the setup or on the pool that executed it.
///
/// # Errors
///
/// Returns [`ExecError::Unsupported`] if `setup` was built for a
/// different committee size than `cfg.committee_size`, and otherwise
/// the same errors as [`execute`].
pub fn execute_on_setup(
    plan: &Plan,
    logical: &LogicalPlan,
    deployment: &Deployment,
    cfg: &ExecutionConfig,
    setup: &SessionSetup,
    pool: Option<&ShardedPool>,
    adversary: Option<&dyn Adversary>,
) -> Result<(ExecutionReport, Vec<Detection>), ExecError> {
    execute_inner(plan, logical, deployment, cfg, Some(setup), pool, adversary)
}

/// Executes a plan with an [`Adversary`] injecting Byzantine behaviors
/// at every attacker-controllable point, collecting a typed
/// [`Detection`] for each rejection.
///
/// The honest path through the executor is byte-identical to
/// [`execute`]; the adversary is only consulted where a real deployment
/// would receive attacker-controlled bytes.
///
/// # Errors
///
/// Returns [`ExecError`] on budget exhaustion or protocol failures
/// (e.g. when the adversary corrupts more committee members than the
/// threshold tolerates).
pub fn execute_with_adversary(
    plan: &Plan,
    logical: &LogicalPlan,
    deployment: &Deployment,
    cfg: &ExecutionConfig,
    adversary: &dyn Adversary,
) -> Result<AdversarialReport, ExecError> {
    execute_inner(plan, logical, deployment, cfg, None, None, Some(adversary))
        .map(|(report, detections)| AdversarialReport { report, detections })
}

fn execute_inner(
    plan: &Plan,
    logical: &LogicalPlan,
    deployment: &Deployment,
    cfg: &ExecutionConfig,
    session: Option<&SessionSetup>,
    lease: Option<&ShardedPool>,
    adversary: Option<&dyn Adversary>,
) -> Result<(ExecutionReport, Vec<Detection>), ExecError> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut detections: Vec<Detection> = Vec::new();
    let categories = deployment.schema.row_width;
    let n = deployment.db.len();
    let m = cfg.committee_size;
    let t = (m - 1) / 2;
    // Message-observing callback for adaptive adversaries: attached to
    // every transport this execution creates. Read-only, so a `None`
    // (or even a `Some`) sink never changes outputs or metrics.
    let traffic_sink = adversary.and_then(|a| a.traffic_sink());

    // ---- Setup (§5.1–§5.2): cached in a session catalog, or built
    // inline exactly as the one-shot path always has (sortition, BGV
    // keygen from the main RNG, keygen-MPC metering). ----
    let built_setup;
    let setup: &SessionSetup = match session {
        Some(s) => {
            if s.committee_size != m {
                return Err(ExecError::Unsupported(format!(
                    "session setup seated committees of {}, config wants {m}",
                    s.committee_size
                )));
            }
            s
        }
        None => {
            built_setup = crate::setup::build_session_setup_observed(
                deployment,
                m,
                cfg.seed,
                &mut rng,
                FabricKind::resolve(cfg.fabric, FabricKind::Sim),
                traffic_sink.clone(),
            )?;
            &built_setup
        }
    };
    let setup_is_fresh = session.is_none();
    let committees = &setup.committees;
    let ctx = Arc::clone(&setup.ctx);
    let sk = &setup.sk;
    // Sharded pools: leased from the caller's pool bank, or fresh so the
    // per-phase counter deltas below cover exactly this execution (they
    // feed `planner::cost::PoolCalibration`). Results never depend on
    // which pool ran the phases.
    let owned_pool;
    let shard_set: &ShardedPool = match lease {
        Some(p) => p,
        None => {
            owned_pool = cfg.par.sharded_pool();
            &owned_pool
        }
    };
    // Budget check before authorizing (§5.2).
    let mut ledger = BudgetLedger::new(cfg.budget);
    ledger
        .charge(logical.certificate.cost)
        .map_err(|_| ExecError::BudgetExhausted)?;

    // Certificate: pk digest, registry root, budget, next beacon, signed
    // by every keygen-committee member.
    let pk_digest = setup.pk_digest;
    let contributions: Vec<Digest> = committees.committees[0]
        .iter()
        .map(|&d| sha256(&(d as u64).to_be_bytes()))
        .collect();
    let next_beacon =
        arboretum_sortition::select::next_block(&contributions, &deployment.registry.root());
    let mut cert = QueryCert {
        pk_digest,
        registry_root: deployment.registry.root(),
        budget_after: ledger.remaining(),
        next_beacon,
        signatures: Vec::new(),
    };
    let body = cert.body();
    // A stale body a misbehaving member might sign instead: same
    // certificate, but carrying the *previous* beacon forward.
    let stale_body = QueryCert {
        next_beacon: deployment.beacon,
        ..cert.clone()
    }
    .body();
    cert.signatures = committees.committees[0]
        .iter()
        .enumerate()
        .map(|(j, &d)| {
            let signed = match adversary {
                Some(adv) if adv.committee_behavior(0, j) == CommitteeBehavior::StaleSignature => {
                    &stale_body
                }
                _ => &body,
            };
            (d, deployment.registry.device(d).keypair.sign(signed))
        })
        .collect();
    if adversary.is_some() {
        // The rest of the committee cross-checks the signatures before
        // publishing: bad signers are flagged and their signatures
        // dropped, so the published certificate still verifies under
        // the honest majority.
        let bad = cert.verify_detailed(&deployment.registry);
        for &pos in &bad {
            detections.push(Detection {
                subject: Subject::CommitteeMember {
                    committee: 0,
                    member: pos,
                    device: cert.signatures[pos].0,
                },
                kind: DetectionKind::StaleSignature,
            });
        }
        cert.signatures = cert
            .signatures
            .iter()
            .enumerate()
            .filter(|(pos, _)| !bad.contains(pos))
            .map(|(_, s)| *s)
            .collect();
    }

    // ---- Input phase (§5.3): encrypt + prove, aggregator verifies. ----
    let pp = PedersenParams::standard();
    let mut accepted: Vec<Ciphertext> = Vec::new();
    let mut rejected = 0usize;
    let mut step_results: Vec<Vec<u8>> = Vec::new();
    // Step-log indices of accepted input steps, in acceptance order:
    // `ok_steps[j]` is the step recording `accepted[j]`. The aggregator
    // behaviors target these (drop a victim, reorder a pair).
    let mut ok_steps: Vec<usize> = Vec::new();
    let schema = InputSchema::of(&deployment.schema);
    // Phase A (split serial/parallel): every device builds its upload —
    // the claimed values plus a proof of well-formedness. The
    // malicious-fraction draws stay on the serial RNG (a pre-pass, so
    // the stream never depends on scheduling); proof construction then
    // runs on the sharded pool with each device's proving RNG seeded
    // from its *global* index, exactly as `net_exec::run_concurrent`
    // salts per-task seeds. Totals are therefore bitwise identical at
    // every thread and shard count.
    let malicious_flags: Vec<bool> = (0..n)
        .map(|_| rng.gen::<f64>() < cfg.malicious_fraction)
        .collect();
    // Per-device behavior: an adversary overrides the legacy
    // malicious-fraction draw (which maps to the same two behaviors the
    // executor always simulated). Resolved serially up front so the
    // parallel proving closure stays a pure function of `(index, job)`.
    let behaviors: Vec<DeviceBehavior> = (0..n)
        .map(|i| match adversary {
            Some(adv) => adv.device_behavior(i),
            None if malicious_flags[i] => {
                if deployment.schema.one_hot {
                    DeviceBehavior::TruncatedProof
                } else {
                    DeviceBehavior::OutOfRangeValue
                }
            }
            None => DeviceBehavior::Honest,
        })
        .collect();
    let jobs: Vec<(Vec<i64>, DeviceBehavior)> = deployment
        .db
        .iter()
        .cloned()
        .zip(behaviors.iter().copied())
        .collect();
    let upload_seed = cfg.seed ^ upload_tag();
    let uploads: Vec<Upload> =
        par_map_arc_sharded(shard_set, &Arc::new(jobs), move |i, (row, behavior)| {
            let mut dev_rng = StdRng::seed_from_u64(upload_seed ^ mix(i as u64));
            build_upload(&pp, schema, row, *behavior, &mut dev_rng)
        });

    // Phase B (parallel, pure): the aggregator verifies every proof
    // across the device shards. Verification touches no RNG and the
    // kernel indexes globally, so the verdict vector — and everything
    // downstream — is identical at any shard and thread count.
    let uploads = Arc::new(uploads);
    let verify_ops = uploads.len() as u64;
    let verify_before = shard_set.stats();
    let verdicts: Vec<Option<DetectionKind>> =
        par_map_arc_sharded(shard_set, &uploads, move |_, upload| {
            verify_upload(&pp, schema, upload)
        });
    let verify_pool: Vec<PoolStats> = shard_set
        .stats()
        .iter()
        .zip(&verify_before)
        .map(|(now, before)| now.since(before))
        .collect();

    // Phase C (split serial/parallel): accepted devices go through the
    // sampling decision (§6's secrecy of the sample) and encrypt. A
    // serial pre-pass draws from the main RNG in device order: the
    // sampling draw, then the encryption noise, then a
    // `WrongBgvCiphertext` device's second noise. Only the transforms
    // and ring products run on the sharded pool, so every ciphertext is
    // bitwise identical at any thread and shard count. One serial pass
    // then rebuilds detections, the step log, and `accepted` in device
    // order.
    let mut binned_out = vec![false; n];
    // Per encrypting device: its index, noise, and (for a
    // `WrongBgvCiphertext` device) the submitted ciphertext's noise.
    let mut seal_jobs: Vec<(usize, EncryptionNoise, Option<EncryptionNoise>)> = Vec::new();
    for (i, verdict) in verdicts.iter().enumerate() {
        if verdict.is_some() {
            continue;
        }
        if let Some(phi) = logical.certificate.sampling_rate {
            if rng.gen::<f64>() >= phi {
                binned_out[i] = true;
                continue;
            }
        }
        let noise = EncryptionNoise::sample(&ctx, &mut rng);
        let wrong_noise = (behaviors[i] == DeviceBehavior::WrongBgvCiphertext)
            .then(|| EncryptionNoise::sample(&ctx, &mut rng));
        seal_jobs.push((i, noise, wrong_noise));
    }
    let sealed = {
        let (ctx, pk, uploads) = (
            Arc::clone(&ctx),
            Arc::clone(&setup.pk),
            Arc::clone(&uploads),
        );
        par_map_arc_sharded(
            shard_set,
            &Arc::new(seal_jobs),
            move |_, (i, noise, wrong)| {
                seal(&ctx, &pk, uploads[*i].values(), noise, wrong.as_ref())
            },
        )
    };
    let mut sealed = sealed.into_iter();
    for (i, verdict) in verdicts.iter().enumerate() {
        if let Some(kind) = verdict {
            rejected += 1;
            if adversary.is_some() {
                detections.push(Detection {
                    subject: Subject::Device(i),
                    kind: kind.clone(),
                });
            }
            continue;
        }
        if binned_out[i] {
            step_results.push(format!("input-{i}-binned-out").into_bytes());
            continue;
        }
        match sealed
            .next()
            .expect("one sealed upload per encrypting device")?
        {
            Some(ct) => {
                ok_steps.push(step_results.len());
                step_results.push(format!("input-{i}-ok").into_bytes());
                accepted.push(ct);
            }
            None => {
                rejected += 1;
                detections.push(Detection {
                    subject: Subject::Device(i),
                    kind: DetectionKind::CiphertextMismatch,
                });
            }
        }
    }

    // ---- Aggregation vignette. ----
    //
    // Both paths run on the sharded pools through the deterministic
    // batch kernels: BGV ⊞ is associative row-wise modular addition, so
    // the shard-order merges are bitwise identical to the serial folds
    // they replace, for every shard and thread count (see
    // `arboretum_bgv::batch`).
    let accepted_count = accepted.len();
    let aggregate_ops = accepted_count.saturating_sub(1) as u64;
    let aggregate_before = shard_set.stats();
    let uses_tree = plan
        .vignettes
        .iter()
        .any(|v| matches!(v.op, PhysOp::SumTree { .. }));
    // The aggregator hook is consulted exactly once, at this barrier —
    // the last deterministic serial point before the ⊞ phase. Behaviors
    // that perturb the *published* log need ciphertexts the ⊞ kernels
    // consume by value, so the cheat's raw material is cloned up front.
    let agg_behavior = adversary
        .map(|a| a.aggregator_behavior())
        .unwrap_or(AggregatorBehavior::Honest);
    let wrong_sum_extra = match agg_behavior {
        AggregatorBehavior::WrongPartialSum => accepted.first().cloned(),
        _ => None,
    };
    let drop_victim = match agg_behavior {
        AggregatorBehavior::DropUpload { draw } if !accepted.is_empty() => {
            let j = (draw % accepted.len() as u64) as usize;
            Some((j, accepted[j].clone()))
        }
        _ => None,
    };
    let total_ct = if uses_tree {
        // Tree: group inputs, sum groups (on devices), then sum partials.
        let fanout = plan
            .vignettes
            .iter()
            .find_map(|v| match v.op {
                PhysOp::SumTree { fanout } => Some(fanout as usize),
                _ => None,
            })
            .expect("checked above");
        if accepted.is_empty() {
            return Err(ExecError::Unsupported("no accepted inputs".into()));
        }
        let mut partials =
            arboretum_bgv::par_sum_chunks_sharded(shard_set, &ctx, accepted, fanout.max(2));
        while partials.len() > 1 {
            partials =
                arboretum_bgv::par_sum_chunks_sharded(shard_set, &ctx, partials, fanout.max(2));
        }
        partials.remove(0)
    } else {
        arboretum_bgv::par_sum_sharded(shard_set, &ctx, accepted)
            .ok_or_else(|| ExecError::Unsupported("no accepted inputs".into()))?
    };
    // The ⊞ step commits its label *and* the aggregate's digest, so a
    // wrong partial sum is observable evidence in the step log rather
    // than an invisible lie.
    let agg_label: &[u8] = if uses_tree {
        b"sum-tree-level-0"
    } else {
        b"aggregator-sum"
    };
    let agg_step = step_results.len();
    let aggregate_digest = ciphertext_digest(&total_ct);
    let mut agg_contents = agg_label.to_vec();
    agg_contents.extend_from_slice(&aggregate_digest);
    step_results.push(agg_contents);
    let aggregate_pool: Vec<PoolStats> = shard_set
        .stats()
        .iter()
        .zip(&aggregate_before)
        .map(|(now, before)| now.since(before))
        .collect();

    // ---- VSR: key handoff keygen → decryption committee (§5.2). ----
    let key_secret = arboretum_crypto::group::scalar_from_hash(&sha256(
        &sk.s.iter().map(|&c| c as u8).collect::<Vec<u8>>(),
    ));
    let keygen_sharing = feldman_share(key_secret, t, m, &mut rng);
    let dec_shares = if let Some(adv) = adversary {
        // Keygen-committee member `j` redistributes share `j`; corrupt
        // members either re-share a wrong value (equivocation, caught
        // by the constant-term check) or publish an inconsistent batch
        // (caught by per-subshare Feldman verification).
        let batches: Vec<_> = keygen_sharing
            .shares
            .iter()
            .enumerate()
            .map(|(j, s)| match adv.committee_behavior(0, j) {
                CommitteeBehavior::EquivocateCommit => {
                    let lie = VShare {
                        x: s.x,
                        y: s.y + Scalar::ONE,
                    };
                    redistribute_share(&lie, t, m, &mut rng)
                }
                CommitteeBehavior::InconsistentVsrShares => {
                    let mut b = redistribute_share(s, t, m, &mut rng);
                    b.sharing.shares[0].y += Scalar::ONE;
                    b.sharing.shares[1].y += Scalar::ONE;
                    b
                }
                _ => redistribute_share(s, t, m, &mut rng),
            })
            .collect();
        let (shares, rejections) =
            combine_batches_detailed(&batches, &keygen_sharing.commitments, t, m)
                .map_err(|e| ExecError::KeyTransfer(e.to_string()))?;
        for r in rejections {
            let member = (r.from - 1) as usize;
            detections.push(Detection {
                subject: Subject::CommitteeMember {
                    committee: 0,
                    member,
                    device: committees.committees[0][member],
                },
                kind: match r.reason {
                    BatchRejectReason::WrongConstantTerm => DetectionKind::VsrEquivocation,
                    BatchRejectReason::BadSubshares(subshares) => {
                        DetectionKind::VsrBadSubshares { subshares }
                    }
                },
            });
        }
        shares
    } else {
        let batches: Vec<_> = keygen_sharing
            .shares
            .iter()
            .map(|s| redistribute_share(s, t, m, &mut rng))
            .collect();
        combine_batches(&batches, &keygen_sharing.commitments, t, m)
            .map_err(|e| ExecError::KeyTransfer(e.to_string()))?
    };
    let recovered =
        vsr_reconstruct(&dec_shares, t).map_err(|e| ExecError::KeyTransfer(e.to_string()))?;
    if recovered != key_secret {
        return Err(ExecError::KeyTransfer("key digest mismatch".into()));
    }

    // ---- Decryption to shares (§5.4). ----
    let counts_raw = bgv_decrypt(&ctx, sk, &total_ct);
    let counts: Vec<i64> = counts_raw[..categories].iter().map(|&v| v as i64).collect();
    let mut mpc = MpcEngine::new_on(
        m,
        t,
        true,
        cfg.seed ^ x0p5_tag(),
        FabricKind::resolve(cfg.fabric, FabricKind::Sim),
    );
    mpc.set_frame_sink(traffic_sink.clone());
    // Charge the distributed-decryption cost.
    inject_with_cost(
        &mut mpc,
        Fix::ZERO,
        FunctionalityCost {
            mults: 64,
            rounds: 4,
        },
    );
    step_results.push(b"decrypt-to-shares".to_vec());

    // ---- Mechanism and post-processing vignettes (§5.4). ----
    //
    // The generalized MPC evaluator executes every statement after the
    // aggregation on secret shares: score preparation (prefix sums,
    // revenue scores, rank distances), DP mechanisms (metered noise
    // injection + secure argmax), and cleartext post-processing of
    // released values.
    let style = if plan
        .vignettes
        .iter()
        .any(|v| matches!(v.op, PhysOp::ExpSample))
    {
        MechStyle::ExpSample
    } else {
        MechStyle::Gumbel
    };
    // Find the aggregation statement `var = sum(db-view)` to bind the
    // decrypted counts and resume execution after it.
    let (sum_var, resume_at) = find_aggregation(&logical.program)
        .ok_or_else(|| ExecError::Unsupported("no sum(db) aggregation found".into()))?;
    let mut env = HashMap::new();
    let count_shares: Vec<arboretum_mpc::engine::Shared> = counts
        .iter()
        .map(|&c| mpc.dealer_share(arboretum_field::FGold::from_i64(c)))
        .collect();
    env.insert(sum_var, MVal::SharedArr(count_shares));
    let mut eval_rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
    let outputs = {
        let mut evaluator = MpcEvaluator::new(&mut mpc, &mut eval_rng, env, style);
        evaluator
            .block(&logical.program.stmts[resume_at..])
            .map_err(|e| ExecError::Mpc(e.to_string()))?;
        evaluator.outputs
    };
    step_results.push(b"mechanism-vignettes".to_vec());

    // ---- Output committee releases; aggregator logs steps (§5.5). ----
    step_results.push(
        outputs
            .iter()
            .flat_map(|o| o.to_be_bytes())
            .collect::<Vec<u8>>(),
    );
    let log = StepLog::new(step_results);
    let root = log.root();
    let k = challenges_per_device(log.len(), n as u64, cfg.p_max);
    let honest: Vec<Vec<u8>> = (0..log.len()).map(|i| log.respond(i).0).collect();
    let mut audit_ok = true;
    for _ in 0..n.min(50) {
        if !audit(&log, &root, k, |i| honest[i].clone(), &mut rng) {
            audit_ok = false;
        }
    }

    // ---- Adversarial aggregator (§5.3): the cheat perturbs what the
    // server *publishes* — log, root, or challenge responses — while
    // the honest values stay in the pipeline, so the run detects and
    // recovers: outputs, budget, and the audit verdict above remain
    // bitwise identical to an honest replay, plus exactly one typed
    // detection. The device audit draws from its own derived RNG
    // stream, keeping the main stream byte-identical to `execute`. ----
    if agg_behavior != AggregatorBehavior::Honest
        && agg_behavior
            .expected_kind(&ok_steps, agg_step, log.len())
            .is_some()
    {
        let mut published_steps = honest.clone();
        let mut published_root = root;
        // Responder state for post-commitment cheats: a tampered tree
        // (ForgedLeaf) or an alternating second answer (Equivocation).
        let mut tampered: Option<(usize, StepLog)> = None;
        let mut equivocation: Option<(usize, StepLog)> = None;
        match agg_behavior {
            AggregatorBehavior::WrongPartialSum => {
                let extra = wrong_sum_extra.as_ref().expect("accepted is non-empty");
                let forged = arboretum_bgv::scheme::add(&ctx, &total_ct, extra);
                let mut contents = agg_label.to_vec();
                contents.extend_from_slice(&ciphertext_digest(&forged));
                published_steps[agg_step] = contents;
                published_root = StepLog::new(published_steps.clone()).root();
            }
            AggregatorBehavior::DropUpload { .. } => {
                let (j, victim_ct) = drop_victim.as_ref().expect("accepted is non-empty");
                let victim_step = ok_steps[*j];
                let mut dropped = honest[victim_step]
                    .strip_suffix(b"-ok")
                    .expect("ok-step contents end in -ok")
                    .to_vec();
                dropped.extend_from_slice(DROPPED_MARKER);
                published_steps[victim_step] = dropped;
                let forged = arboretum_bgv::scheme::sub(&ctx, &total_ct, victim_ct);
                let mut contents = agg_label.to_vec();
                contents.extend_from_slice(&ciphertext_digest(&forged));
                published_steps[agg_step] = contents;
                published_root = StepLog::new(published_steps.clone()).root();
            }
            AggregatorBehavior::ForgedLeaf { draw } => {
                let step = (draw % log.len() as u64) as usize;
                let mut forged_steps = honest.clone();
                forged_steps[step].extend_from_slice(b"-forged");
                tampered = Some((step, StepLog::new(forged_steps)));
            }
            AggregatorBehavior::ForgedRoot => {
                published_root[0] ^= 0x01;
            }
            AggregatorBehavior::ReorderedSteps { draw } => {
                let j = (draw % (ok_steps.len() - 1) as u64) as usize;
                published_steps.swap(ok_steps[j], ok_steps[j + 1]);
                published_root = StepLog::new(published_steps.clone()).root();
            }
            AggregatorBehavior::EquivocatingResponses { draw } => {
                let step = (draw % log.len() as u64) as usize;
                let mut forged_steps = honest.clone();
                forged_steps[step].extend_from_slice(b"-equivocated");
                equivocation = Some((step, StepLog::new(forged_steps)));
            }
            AggregatorBehavior::Honest => unreachable!("guarded above"),
        }
        let published = StepLog::new(published_steps);
        let mut equiv_hits = 0usize;
        let respond = |i: usize| {
            if let Some((step, forged)) = &tampered {
                if i == *step {
                    return forged.respond(i);
                }
            }
            if let Some((step, forged)) = &equivocation {
                if i == *step {
                    equiv_hits += 1;
                    if equiv_hits.is_multiple_of(2) {
                        return forged.respond(i);
                    }
                }
            }
            published.respond(i)
        };
        let mut audit_rng = StdRng::seed_from_u64(cfg.seed ^ aggregator_audit_tag());
        let records = adversarial_audit(
            log.len(),
            &published_root,
            n.min(50),
            k,
            respond,
            |i| honest[i].clone(),
            &mut audit_rng,
        );
        if let Some(kind) = collate_detection(&records) {
            detections.push(Detection {
                subject: Subject::Aggregator,
                kind,
            });
        }
    }

    // Merge MPC metrics. The keygen-MPC cost is charged to whoever
    // performed the keygen: the one-shot path merges it here; the
    // session-catalog path paid it once at setup build time, so cached
    // executions report only their own per-query MPC work.
    let mut metrics = mpc.net.metrics.clone();
    if setup_is_fresh {
        metrics.rounds += setup.keygen_metrics.rounds;
        metrics.bytes_sent_total += setup.keygen_metrics.bytes_sent_total;
        metrics.field_mults += setup.keygen_metrics.field_mults;
        metrics.triples += setup.keygen_metrics.triples;
    }

    // Elapsed-time estimate under the configured heterogeneity models
    // (reference per-multiplication cost from the §7.5 calibration).
    let compute = cfg
        .compute
        .clone()
        .unwrap_or_else(|| arboretum_mpc::network::ComputeModel::uniform(m));
    let per_mult_secs = 9.0e-4; // 73.8 s / ~80k mults, the §7.5 anchor.
    let mpc_elapsed_estimate_secs = mpc.net.elapsed_secs(&cfg.latency, &compute, per_mult_secs);

    Ok((
        ExecutionReport {
            outputs,
            certificate: cert,
            rejected_inputs: rejected,
            accepted_inputs: accepted_count,
            mpc_metrics: metrics,
            audit_ok,
            mpc_elapsed_estimate_secs,
            budget_after: ledger.remaining(),
            verify_pool,
            verify_ops,
            aggregate_pool,
            aggregate_ops,
            ring_degree: ctx.params.n as u64,
            aggregate_digest,
            setup: if setup_is_fresh {
                setup.counters.clone()
            } else {
                SetupCounters::default()
            },
        },
        detections,
    ))
}

// Small helpers to derive distinct RNG stream tags without magic numbers
// at the call sites.
#[allow(non_snake_case)]
pub(crate) fn _tag(b: &[u8]) -> u64 {
    let d = sha256(b);
    u64::from_be_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]])
}

pub(crate) fn x0p5_tag() -> u64 {
    _tag(b"mechanism-mpc")
}

/// Spreads a device index over the 64-bit seed space before it salts a
/// per-device RNG seed.
pub(crate) fn mix(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

pub(crate) fn upload_tag() -> u64 {
    _tag(b"phase-a-uploads")
}

fn aggregator_audit_tag() -> u64 {
    _tag(b"aggregator-audit")
}
