//! The traced run: the same workload driven through each layer's public
//! entry points, with a span around every call, giving the per-layer
//! metrics.
//!
//! The run has three phases. Set-up times the runtime's session build
//! and, on their own, the sortition and BGV key generation inside it.
//! The service phase runs the closed loop of the untraced run for half
//! the run length, with spans around `submit` and `wait`. The layer
//! phase then prepares and executes the workload's queries directly —
//! parse, certify, plan, batch execution, a windowed epoch, the
//! post-aggregation MPC, and ZKP and BGV probes on the workload's own
//! rows — until the run length is used. Count metrics come from the
//! first query of the layer phase, so the same seed repeats them.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use arboretum_bgv::{add, decrypt, encode_coeffs, encrypt, keygen};
use arboretum_crypto::pedersen::PedersenParams;
use arboretum_field::FGold;
use arboretum_lang::ast::{Builtin, Expr, Program, Stmt};
use arboretum_lang::parser::parse;
use arboretum_mpc::engine::MpcEngine;
use arboretum_net::FabricKind;
use arboretum_planner::logical::{extract, LogicalPlan};
use arboretum_planner::plan::{PhysOp, Plan};
use arboretum_planner::search::plan;
use arboretum_runtime::executor::{execute_on_setup, Deployment, ExecutionConfig};
use arboretum_runtime::mpc_eval::{MVal, MechStyle, MpcEvaluator};
use arboretum_runtime::setup::{build_session_setup, SessionSetup, SETUP_ROLES};
use arboretum_runtime::stream::{ArrivalSchedule, StreamExecutor};
use arboretum_sortition::select::select_committees;
use arboretum_zkp::onehot::{prove_one_hot, verify_one_hot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::e2e::{loop_report, metadata, SETUP_REPS};
use crate::measure::{median, Metrics, Trace};
use crate::reference::{Reference, Released};
use crate::service::{closed_loop, config, deploy};
use crate::workload::{Kind, Size, Workload};
use crate::RunResult;

/// Rows per layer-phase query that the ZKP and BGV probes prove,
/// verify and encrypt.
pub const PROBE_ROWS: usize = 16;

/// Counts of the layer phase's first query.
#[derive(Debug)]
struct Counts {
    candidates: u64,
    pred_agg_core_s: f64,
    verify_ops: u64,
    aggregate_ops: u64,
    accepted: usize,
    rejected: usize,
    handoff_bytes: u64,
    handoff_frames: u64,
    mpc_rounds: u64,
    mpc_bytes: u64,
    mpc_field_mults: u64,
    mpc_triples: u64,
}

/// The statement `var = sum(db)` that binds the aggregate: its
/// variable and the index of the statement after it.
fn aggregation(program: &Program) -> Option<(String, usize)> {
    program.stmts.iter().enumerate().find_map(|(i, s)| match s {
        Stmt::Assign(var, Expr::Call(Builtin::Sum, args))
            if matches!(args.first(), Some(Expr::Var(db)) if db == "db") =>
        {
            Some((var.clone(), i + 1))
        }
        _ => None,
    })
}

/// Everything one layer-phase query shares.
struct Layers<'a> {
    w: &'a mut Workload,
    reference: &'a Reference,
    deployment: &'a Deployment,
    setup: &'a SessionSetup,
    base: ExecutionConfig,
    pool: arboretum_par::ShardedPool,
    pedersen: PedersenParams,
}

impl Layers<'_> {
    /// Runs query `i` through every layer; the first query's counts
    /// are returned.
    fn query(&mut self, i: usize, trace: &mut Trace) -> Result<Counts, String> {
        let source = self.w.source(i);
        let epsilon = self.w.epsilon(i);
        let n = self.w.devices();
        let program = trace
            .time("lang.parse", || parse(&source))
            .map_err(|e| format!("parse: {e}"))?;
        let logical = trace
            .time("planner.extract", || {
                extract(&program, &self.w.schema, self.w.certify)
            })
            .map_err(|e| format!("certify: {e}"))?;
        let planner = config(self.w).catalog.planner;
        let (chosen, stats) = trace
            .time("planner.search", || plan(&logical, &planner))
            .map_err(|e| format!("plan: {e}"))?;
        let cfg = ExecutionConfig {
            seed: self.w.seed ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            budget: Workload::budget(),
            ..self.base.clone()
        };

        let (report, _) = trace
            .time("runtime.execute", || {
                execute_on_setup(
                    &chosen,
                    &logical,
                    self.deployment,
                    &cfg,
                    self.setup,
                    Some(&self.pool),
                    None,
                )
            })
            .map_err(|e| format!("execute: {e}"))?;
        self.check("batch", &report.outputs, epsilon, &report, 0)?;

        // A batch workload streams as one window without churn; a
        // streamed one with its own windows and seed-derived churn.
        let schedule = match self.w.windows {
            Some(windows) => ArrivalSchedule::derive(cfg.seed, n, windows),
            None => ArrivalSchedule::from_partition(&[(0..n).collect()], n),
        };
        let epoch = trace.open("stream.epoch");
        let mut ex = StreamExecutor::new(
            &chosen,
            &logical,
            self.deployment,
            &cfg,
            self.setup,
            &schedule,
            Some(&self.pool),
        )
        .map_err(|e| format!("stream open: {e}"))?;
        for _ in 0..schedule.n_windows {
            trace
                .time("stream.ingest", || ex.ingest_next(None).map(|_| ()))
                .map_err(|e| format!("stream ingest: {e}"))?;
        }
        let streamed = trace
            .time("stream.close", || ex.close())
            .map_err(|e| format!("stream close: {e}"))?;
        trace.close(epoch);
        let churned = n - schedule.survivors().len();
        self.check(
            "stream",
            &streamed.report.outputs,
            epsilon,
            &streamed.report,
            churned,
        )?;

        let mpc_out = self.mpc_eval(&chosen, &logical, cfg.seed, trace)?;
        self.check("mpc", &mpc_out, epsilon, &report, 0)?;
        self.probe_zkp(cfg.seed, trace)?;
        self.probe_bgv(cfg.seed, trace)?;

        let mpc = &report.mpc_metrics;
        Ok(Counts {
            candidates: stats.full_candidates,
            pred_agg_core_s: chosen.metrics.agg_secs,
            verify_ops: report.verify_ops,
            aggregate_ops: report.aggregate_ops,
            accepted: report.accepted_inputs,
            rejected: report.rejected_inputs,
            handoff_bytes: streamed.checkpoints.iter().map(|c| c.handoff_bytes).sum(),
            handoff_frames: streamed.checkpoints.iter().map(|c| c.handoff_frames).sum(),
            mpc_rounds: mpc.rounds,
            mpc_bytes: mpc.bytes_sent_total,
            mpc_field_mults: mpc.field_mults,
            mpc_triples: mpc.triples,
        })
    }

    /// Gates one released output; `report` supplies the accounting.
    fn check(
        &self,
        path: &str,
        outputs: &[i64],
        epsilon: f64,
        report: &arboretum_runtime::executor::ExecutionReport,
        churned: usize,
    ) -> Result<(), String> {
        self.reference
            .check(&Released {
                outputs,
                epsilon,
                accepted: report.accepted_inputs,
                rejected: report.rejected_inputs,
                churned,
                audit_ok: report.audit_ok,
            })
            .map_err(|why| format!("{path}: {why}"))
    }

    /// Evaluates the query's post-aggregation statements on secret
    /// shares of the plaintext aggregate, timing
    /// [`MpcEvaluator::block`]. Returns the released outputs.
    fn mpc_eval(
        &self,
        chosen: &Plan,
        logical: &LogicalPlan,
        seed: u64,
        trace: &mut Trace,
    ) -> Result<Vec<i64>, String> {
        let m = self.base.committee_size;
        let mut engine = MpcEngine::new_on(
            m,
            (m - 1) / 2,
            true,
            seed,
            FabricKind::resolve(self.base.fabric, FabricKind::Sim),
        );
        let (var, resume) =
            aggregation(&logical.program).ok_or("query has no sum(db) aggregation")?;
        let shares = self
            .reference
            .counts()
            .iter()
            .map(|&c| engine.dealer_share(FGold::from_i64(c)))
            .collect();
        let style = if chosen
            .vignettes
            .iter()
            .any(|v| matches!(v.op, PhysOp::ExpSample))
        {
            MechStyle::ExpSample
        } else {
            MechStyle::Gumbel
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut ev = MpcEvaluator::new(
            &mut engine,
            &mut rng,
            HashMap::from([(var, MVal::SharedArr(shares))]),
            style,
        );
        trace
            .time("mpc.eval", || ev.block(&logical.program.stmts[resume..]))
            .map_err(|e| e.to_string())?;
        Ok(ev.outputs)
    }

    /// Rows the probes use, drawn from the workload's own rows.
    fn probe_rows(&self, seed: u64) -> Vec<Vec<u64>> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9b0b);
        (0..PROBE_ROWS)
            .map(|_| {
                let row = &self.w.rows[rng.gen_range(0..self.w.rows.len())];
                row.iter().map(|&v| v as u64).collect()
            })
            .collect()
    }

    /// Proves and verifies the one-hot ZKP of each probe row.
    fn probe_zkp(&self, seed: u64, trace: &mut Trace) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2b9);
        for bits in self.probe_rows(seed) {
            let proof = trace
                .time("zkp.prove", || {
                    prove_one_hot(&self.pedersen, &bits, &mut rng)
                })
                .map_err(|e| format!("zkp prove: {e}"))?;
            if !trace.time("zkp.verify", || verify_one_hot(&self.pedersen, &proof)) {
                return Err("zkp: an honest proof failed to verify".into());
            }
        }
        Ok(())
    }

    /// Encrypts each probe row, ⊞-folds the ciphertexts, decrypts the
    /// sum and checks it against the plaintext sum.
    fn probe_bgv(&self, seed: u64, trace: &mut Trace) -> Result<(), String> {
        let ctx = &self.setup.ctx;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xb6f);
        let rows = self.probe_rows(seed);
        let mut expected = vec![0u64; self.w.categories()];
        let mut sum = None;
        for bits in &rows {
            for (e, b) in expected.iter_mut().zip(bits) {
                *e += b;
            }
            let msg = encode_coeffs(ctx, bits).map_err(|e| format!("bgv encode: {e}"))?;
            let ct = trace.time("bgv.encrypt", || {
                encrypt(ctx, &self.setup.pk, &msg, &mut rng)
            });
            sum = Some(match sum {
                None => ct,
                Some(acc) => trace.time("bgv.add", || add(ctx, &acc, &ct)),
            });
        }
        let sum = sum.ok_or("bgv: no probe rows")?;
        let plain = trace.time("bgv.decrypt", || decrypt(ctx, &self.setup.sk, &sum));
        if plain[..expected.len()] != expected[..] {
            return Err("bgv: decrypted sum differs from the plaintext sum".into());
        }
        Ok(())
    }
}

/// Runs one workload traced for `seconds` and reports its per-layer
/// metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64, size: Size) -> RunResult {
    let mut w = Workload::generate(kind, seed, size);
    let reference = Reference::new(&w);
    let svc = config(&w);
    let base = svc.catalog.base.clone();
    let mut trace = Trace::default();
    let start = Instant::now();
    let mut failures = Vec::new();

    // Set-up layers: the runtime's session build, then its sortition
    // and key generation on their own.
    let deployment = Deployment::from_rows(w.rows.clone(), w.schema);
    let mut rng = StdRng::seed_from_u64(svc.catalog.seed);
    let m = base.committee_size;
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let built = trace
            .time("runtime.setup", || {
                build_session_setup(&deployment, m, svc.catalog.seed, &mut rng)
            })
            .expect("session setup builds");
        black_box(trace.time("sortition.select", || {
            select_committees(&deployment.registry, &deployment.beacon, 1, SETUP_ROLES, m)
        }));
        black_box(trace.time("bgv.keygen", || keygen(&built.ctx, &mut rng)));
        setup = Some(built);
    }
    let setup = setup.expect("at least one set-up");

    // Service phase.
    let (handle, _) = deploy(&w);
    let stats = closed_loop(&handle, &mut w, &reference, seconds / 2.0, Some(&mut trace));
    let (hits, misses) = handle.plan_cache_stats();
    handle.shutdown();
    failures.extend(stats.failures.iter().cloned());
    let mut lines = metadata(&w);
    lines.push(reference.describe());
    lines.extend(loop_report(&mut w, &stats));

    // Layer phase.
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut layers = Layers {
        w: &mut w,
        reference: &reference,
        deployment: &deployment,
        setup: &setup,
        pool: base.par.sharded_pool(),
        base,
        pedersen: PedersenParams::standard(),
    };
    let mut first: Option<Counts> = None;
    let mut layer_queries = 0;
    for i in 0.. {
        layer_queries += 1;
        match layers.query(i, &mut trace) {
            Ok(counts) => {
                first.get_or_insert(counts);
            }
            Err(why) => {
                failures.push(format!("layer phase query {i}: {why}"));
                break;
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    lines.push(trace.summary());
    lines.extend(failures.iter().map(|f| format!("FAILED {f}")));

    let mut metrics = Metrics::default();
    if let (Some(c), true) = (first, stats.completed() > 0) {
        let us = |name| trace.median_ms(name) * 1e3;
        let ms = |name| trace.median_ms(name);
        let measured = stats.cpu_s / stats.completed() as f64;
        metrics.put("lang.parse_us", us("lang.parse"), "us");
        metrics.put("planner.extract_us", us("planner.extract"), "us");
        metrics.put("planner.search_ms", ms("planner.search"), "ms");
        metrics.put("planner.candidates", c.candidates as f64, "count");
        metrics.put(
            "planner.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        );
        metrics.put("planner.pred_agg_core_s", c.pred_agg_core_s, "core-s");
        metrics.put(
            "planner.pred_over_measured",
            c.pred_agg_core_s / measured,
            "ratio",
        );
        metrics.put("sortition.select_ms", ms("sortition.select"), "ms");
        metrics.put("bgv.keygen_ms", ms("bgv.keygen"), "ms");
        metrics.put("runtime.setup_ms", ms("runtime.setup"), "ms");
        metrics.put("zkp.prove_us", us("zkp.prove"), "us");
        metrics.put("zkp.verify_us", us("zkp.verify"), "us");
        metrics.put("runtime.verify_ops", c.verify_ops as f64, "count");
        metrics.put("bgv.encrypt_us", us("bgv.encrypt"), "us");
        metrics.put("bgv.add_us", us("bgv.add"), "us");
        metrics.put("bgv.decrypt_us", us("bgv.decrypt"), "us");
        metrics.put("runtime.aggregate_ops", c.aggregate_ops as f64, "count");
        metrics.put("par.verify_busy_ms", median(&stats.verify_busy_ms), "ms");
        metrics.put(
            "par.aggregate_busy_ms",
            median(&stats.aggregate_busy_ms),
            "ms",
        );
        metrics.put("par.steals", median(&stats.steals), "count");
        metrics.put("runtime.execute_ms", ms("runtime.execute"), "ms");
        metrics.put("runtime.accepted", c.accepted as f64, "count");
        metrics.put("runtime.rejected", c.rejected as f64, "count");
        metrics.put("stream.ingest_ms", ms("stream.ingest"), "ms");
        metrics.put("stream.close_ms", ms("stream.close"), "ms");
        metrics.put("stream.handoff_bytes", c.handoff_bytes as f64, "bytes");
        metrics.put("stream.handoff_frames", c.handoff_frames as f64, "count");
        metrics.put("mpc.eval_ms", ms("mpc.eval"), "ms");
        metrics.put("mpc.rounds", c.mpc_rounds as f64, "count");
        metrics.put("mpc.bytes", c.mpc_bytes as f64, "bytes");
        metrics.put("mpc.field_mults", c.mpc_field_mults as f64, "count");
        metrics.put("mpc.triples", c.mpc_triples as f64, "count");
        metrics.put("service.submit_ms", ms("service.submit"), "ms");
        metrics.put("trace.query_p50_ms", median(&stats.latency_ms), "ms");
    }
    RunResult {
        lines,
        metrics,
        attempted: stats.attempted + layer_queries,
        failed: failures.len() as u64,
    }
}
