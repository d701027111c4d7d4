//! The end-to-end path: a standing service driven through
//! [`ServiceHandle`] by a single-threaded closed-loop load generator.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use arboretum_planner::search::PlannerConfig;
use arboretum_runtime::executor::{Deployment, ExecutionReport};
use arboretum_service::{QueryId, ServiceConfig, ServiceError, ServiceHandle};

use crate::measure::{cpu_seconds, ms_since, Trace};
use crate::reference::{churned, Reference, Released};
use crate::workload::Workload;

/// The service configuration for a workload: the program's defaults,
/// with only the deployment set from the workload (budgets large
/// enough that no query is refused, the planner sized at the
/// deployment's own `n`, and the query's certification settings).
pub fn config(w: &Workload) -> ServiceConfig {
    let mut cfg = ServiceConfig::default();
    cfg.catalog.planner = PlannerConfig::paper_defaults(w.devices() as u64);
    cfg.catalog.certify = w.certify;
    cfg.catalog.deployment_budget = Workload::budget();
    cfg
}

/// Hands the generated rows to the system and brings the service up to
/// the point where it accepts its first query: the deployment with its
/// registry Merkle tree, [`ServiceHandle::start`] (sortition, BGV
/// keygen, keygen-MPC metering) and an open session per analyst.
/// Returns the handle and the seconds this took.
///
/// # Panics
///
/// Panics if the service cannot start or a session cannot open: the
/// workload is built so that neither happens.
pub fn deploy(w: &Workload) -> (ServiceHandle, f64) {
    let rows = w.rows.clone();
    let t0 = Instant::now();
    let deployment = Deployment::from_rows(rows, w.schema);
    let handle = ServiceHandle::start(deployment, config(w)).expect("service starts");
    for analyst in &w.analysts {
        handle
            .open_session(analyst, Workload::budget())
            .expect("session opens");
    }
    (handle, t0.elapsed().as_secs_f64())
}

/// What a closed-loop run observed.
#[derive(Clone, Debug, Default)]
pub struct LoopStats {
    /// Per completed query: milliseconds from `submit` to its report.
    pub latency_ms: Vec<f64>,
    /// Per completed query: summed busy time of the verify pool shards.
    pub verify_busy_ms: Vec<f64>,
    /// Per completed query: summed busy time of the aggregate pool shards.
    pub aggregate_busy_ms: Vec<f64>,
    /// Per completed query: work-stealing events in both phases.
    pub steals: Vec<f64>,
    /// Wall seconds from the first submission to the last report.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Queries submitted.
    pub attempted: u64,
    /// One line per refused, failed or wrong query.
    pub failures: Vec<String>,
}

impl LoopStats {
    /// Queries that completed and passed the reference gate.
    pub fn completed(&self) -> usize {
        self.latency_ms.len()
    }
}

struct Pending {
    analyst: usize,
    query: usize,
    seq: u64,
    id: QueryId,
    t0: Instant,
}

/// Think time: how long an analyst waits after a report before
/// submitting again.
///
/// Without it the generator submits within microseconds of the previous
/// submission returning, racing the worker that picks that query up,
/// and the race decides whether the two tenants' queries overlap. With
/// it, each submission meets the service the way an independent
/// analyst's would: after the previously admitted query has started.
pub const THINK: Duration = Duration::from_millis(5);

/// Runs the closed loop for `seconds`: every analyst keeps one query
/// outstanding, all issued from this one thread, and the generator
/// waits for the oldest outstanding query, thinks for [`THINK`], then
/// issues that analyst's next. No query is issued after `seconds`; the
/// outstanding ones are drained. Every report is checked against `reference`.
/// With a trace, `submit` and `wait` calls are recorded as spans.
pub fn closed_loop(
    handle: &ServiceHandle,
    w: &mut Workload,
    reference: &Reference,
    seconds: f64,
    mut trace: Option<&mut Trace>,
) -> LoopStats {
    let catalog_seed = config(w).catalog.seed;
    let mut stats = LoopStats::default();
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let mut seqs = vec![0u64; w.analysts.len()];
    let mut next_query = 0usize;
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);

    let mut issue = |analyst: usize,
                     w: &mut Workload,
                     stats: &mut LoopStats,
                     pending: &mut VecDeque<Pending>,
                     trace: &mut Option<&mut Trace>| {
        let query = next_query;
        next_query += 1;
        let source = w.source(query);
        let name = w.analysts[analyst];
        stats.attempted += 1;
        let span = trace.as_mut().map(|t| t.open("service.submit"));
        let t0 = Instant::now();
        let admitted = match w.windows {
            Some(windows) => handle.submit_stream(name, &source, windows),
            None => handle.submit(name, &source),
        };
        if let (Some(t), Some(span)) = (trace.as_mut(), span) {
            t.close(span);
        }
        match admitted {
            Ok(id) => {
                pending.push_back(Pending {
                    analyst,
                    query,
                    seq: seqs[analyst],
                    id,
                    t0,
                });
                seqs[analyst] += 1;
            }
            Err(e) => stats.failures.push(format!("query {query} refused: {e}")),
        }
    };

    for a in 0..w.analysts.len() {
        issue(a, w, &mut stats, &mut pending, &mut trace);
    }
    while let Some(p) = pending.pop_front() {
        let span = trace.as_mut().map(|t| t.open("service.wait"));
        let result: Result<(ExecutionReport, usize), ServiceError> = match w.windows {
            Some(windows) => handle.close_stream(p.id).map(|(report, _)| {
                let name = w.analysts[p.analyst];
                let gone = churned(catalog_seed, name, p.seq, w.devices(), windows);
                (report, gone)
            }),
            None => handle.wait(p.id).map(|report| (report, 0)),
        };
        let latency = ms_since(p.t0);
        if let (Some(t), Some(span)) = (trace.as_mut(), span) {
            t.close(span);
        }
        match result {
            Ok((report, churned)) => {
                let released = Released {
                    outputs: &report.outputs,
                    epsilon: w.epsilon(p.query),
                    accepted: report.accepted_inputs,
                    rejected: report.rejected_inputs,
                    churned,
                    audit_ok: report.audit_ok,
                };
                match reference.check(&released) {
                    Ok(()) => {
                        stats.latency_ms.push(latency);
                        let busy = |pools: &[arboretum_par::PoolStats]| {
                            pools.iter().map(|s| s.busy_nanos as f64).sum::<f64>() / 1e6
                        };
                        stats.verify_busy_ms.push(busy(&report.verify_pool));
                        stats.aggregate_busy_ms.push(busy(&report.aggregate_pool));
                        let steals = report
                            .verify_pool
                            .iter()
                            .chain(&report.aggregate_pool)
                            .map(|s| s.steals)
                            .sum::<u64>();
                        stats.steals.push(steals as f64);
                    }
                    Err(why) => stats.failures.push(format!("query {}: {why}", p.query)),
                }
            }
            Err(e) => stats
                .failures
                .push(format!("query {} failed: {e}", p.query)),
        }
        if Instant::now() < deadline {
            std::thread::sleep(THINK);
            issue(p.analyst, w, &mut stats, &mut pending, &mut trace);
        }
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats.cpu_s = cpu_seconds() - cpu0;
    stats
}
