//! The committee/pool scheduler: serialized admission, parallel
//! execution.
//!
//! The service's state is split by mutability. Everything that changes
//! per submission — the plan cache, the ledger book, the per-analyst
//! sequence numbers, the id counters and the audit log — lives in one
//! `Admission` behind one mutex. Admission (plan resolution, the
//! all-or-nothing ledger charge, query id assignment, audit logging)
//! happens synchronously at submit time as one critical section, so the
//! admission sequence is totally ordered by submission order — the
//! submission-index tie-break of the determinism contract.
//!
//! Execution then reads the service state without any lock: worker
//! threads pop admitted jobs, lease a
//! [`ShardedPool`](arboretum_par::ShardedPool) from the bank (exclusive
//! checkout keeps per-query pool counters meaningful), and run against
//! the immutable, shared [`SessionCatalog`], so one analyst's running
//! query never makes another's admission or execution wait for it.
//! Because every job's plan and randomness are fixed at admission
//! (analyst tag + per-analyst sequence), *which* worker or pool runs it
//! — or whether it runs at all concurrently with others — cannot change
//! any result bit.

use arboretum_dp::budget::{LedgerBook, PrivacyCost};
use arboretum_par::PoolBank;
use arboretum_planner::cache::{CachedPlan, PlanCache};
use arboretum_runtime::executor::ExecutionReport;

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::catalog::SessionCatalog;
use crate::session::{AuditRecord, QueryId, ServiceError};

/// An admitted query, ready to execute.
pub(crate) struct Job {
    pub id: QueryId,
    pub analyst: String,
    pub seq: u64,
    pub prepared: Arc<CachedPlan>,
    /// The analyst's remaining budget at admission, before the charge.
    pub budget_before: PrivacyCost,
    /// `Some(w)` for a streaming (`INGEST`/`CLOSE`) query: execute as
    /// `w` checkpointed ingestion windows instead of one batch.
    pub windows: Option<usize>,
}

/// Summary of a finished streaming query, alongside its
/// [`ExecutionReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamSummary {
    /// Ingestion windows the epoch ran.
    pub windows: usize,
    /// Uploads accepted across all windows.
    pub accepted: usize,
    /// Uploads rejected across all windows.
    pub rejected: usize,
    /// Accepted uploads per window, in window order.
    pub window_accepted: Vec<usize>,
    /// The final accumulator digest, if any window folded uploads.
    pub final_digest: Option<[u8; 32]>,
}

/// All mutable service state, guarded by one mutex so the admission
/// sequence is totally ordered.
pub(crate) struct Admission {
    pub plans: PlanCache,
    pub book: LedgerBook,
    pub next_index: u64,
    pub next_id: u64,
    pub seqs: BTreeMap<String, u64>,
    pub log: Vec<AuditRecord>,
}

impl Admission {
    /// Empty admission state under a deployment-wide privacy cap.
    pub fn new(deployment_budget: PrivacyCost) -> Self {
        Self {
            plans: PlanCache::new(),
            book: LedgerBook::new(deployment_budget),
            next_index: 0,
            next_id: 0,
            seqs: BTreeMap::new(),
            log: Vec::new(),
        }
    }

    /// Prepares a query for `catalog`'s deployment through the plan
    /// cache.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Plan`] at the first failing pipeline
    /// stage.
    pub fn prepare(
        &mut self,
        catalog: &SessionCatalog,
        source: &str,
    ) -> Result<Arc<CachedPlan>, ServiceError> {
        let config = catalog.config();
        self.plans
            .prepare(
                source,
                &catalog.deployment().schema,
                config.certify,
                &config.planner,
            )
            .map_err(|e| ServiceError::Plan(e.to_string()))
    }

    /// `(hits, misses)` of the plan cache.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        (self.plans.hits(), self.plans.misses())
    }

    /// Admits one submission: resolves the plan, charges the ledgers
    /// all-or-nothing, assigns the next query id, and appends the
    /// audit record. Returns the job to run, or the typed refusal with
    /// the book bitwise unchanged.
    pub fn admit(
        &mut self,
        catalog: &SessionCatalog,
        analyst: &str,
        source: &str,
        windows: Option<usize>,
    ) -> Result<Job, ServiceError> {
        let Some(budget_before) = self.book.analyst(analyst).map(|l| l.remaining()) else {
            return Err(ServiceError::UnknownAnalyst(analyst.to_string()));
        };
        let prepared = self.prepare(catalog, source)?;
        let cost = prepared.logical.certificate.cost;
        let seq = self.seqs.get(analyst).copied().unwrap_or(0);
        let index = self.next_index;
        self.next_index += 1;
        let charged = self.book.charge(analyst, cost);
        // A refusal leaves the book bitwise unchanged and does NOT
        // consume the seq: a refused submission shifts no later
        // query's seed.
        let query_id = charged.is_ok().then(|| {
            let id = QueryId(self.next_id);
            self.next_id += 1;
            self.seqs.insert(analyst.to_string(), seq + 1);
            id
        });
        self.log.push(AuditRecord {
            index,
            analyst: analyst.to_string(),
            seq,
            query_id,
            cost,
            refusal: charged.as_ref().err().map(ToString::to_string),
            analyst_remaining: self
                .book
                .analyst(analyst)
                .expect("checked above")
                .remaining(),
            deployment_remaining: self.book.deployment().remaining(),
        });
        charged.map_err(ServiceError::Ledger)?;
        Ok(Job {
            id: query_id.expect("assigned on a successful charge"),
            analyst: analyst.to_string(),
            seq,
            prepared,
            budget_before,
            windows,
        })
    }
}

/// State shared between the handle and the worker threads.
pub(crate) struct SchedulerState {
    pub catalog: SessionCatalog,
    pub admission: Mutex<Admission>,
    pub queue: Mutex<VecDeque<Job>>,
    pub queue_cv: Condvar,
    pub results: Mutex<BTreeMap<u64, Result<ExecutionReport, ServiceError>>>,
    pub results_cv: Condvar,
    /// Stream summaries, keyed by query id; populated (under the
    /// results lock) before the result is published.
    pub streams: Mutex<BTreeMap<u64, StreamSummary>>,
    pub pools: PoolBank,
    /// Zero workers: execute inline at submit time (the serial
    /// reference mode).
    pub inline: bool,
    pub shutdown: AtomicBool,
}

impl SchedulerState {
    /// Locks the admission state.
    pub fn admission(&self) -> MutexGuard<'_, Admission> {
        self.admission.lock().expect("admission lock poisoned")
    }

    /// Admits one submission under the admission lock (see
    /// [`Admission::admit`]) and schedules the job — executed inline in
    /// serial mode, queued for a worker otherwise. `Some(windows)`
    /// submits a streaming query; admission, and thus the ledger/audit
    /// behavior, is identical for batch and streamed queries — the
    /// epoch is charged once.
    pub fn submit(
        &self,
        analyst: &str,
        source: &str,
        windows: Option<usize>,
    ) -> Result<QueryId, ServiceError> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(ServiceError::ShutDown);
        }
        let job = self
            .admission()
            .admit(&self.catalog, analyst, source, windows)?;
        let id = job.id;
        if self.inline {
            self.execute_job(job);
        } else {
            let mut queue = self.queue.lock().expect("queue lock poisoned");
            queue.push_back(job);
            self.queue_cv.notify_one();
        }
        Ok(id)
    }

    /// Runs one admitted job on a leased pool and publishes its result.
    pub fn execute_job(&self, job: Job) {
        let (result, summary) = {
            let lease = self.pools.checkout();
            match job.windows {
                None => (
                    self.catalog
                        .execute(
                            &job.prepared,
                            &job.analyst,
                            job.seq,
                            job.budget_before,
                            Some(&lease),
                        )
                        .map_err(ServiceError::Exec),
                    None,
                ),
                Some(windows) => match self.catalog.execute_stream(
                    &job.prepared,
                    &job.analyst,
                    job.seq,
                    job.budget_before,
                    windows,
                    Some(&lease),
                ) {
                    Ok(stream) => {
                        let summary = StreamSummary {
                            windows: stream.checkpoints.len(),
                            accepted: stream.report.accepted_inputs,
                            rejected: stream.report.rejected_inputs,
                            window_accepted: stream
                                .checkpoints
                                .iter()
                                .map(|c| c.accepted)
                                .collect(),
                            final_digest: stream
                                .checkpoints
                                .iter()
                                .rev()
                                .find_map(|c| c.accumulator_digest),
                        };
                        (Ok(stream.report), Some(summary))
                    }
                    Err(e) => (Err(ServiceError::Stream(e)), None),
                },
            }
        };
        let mut results = self.results.lock().expect("results lock poisoned");
        if let Some(summary) = summary {
            self.streams
                .lock()
                .expect("streams lock poisoned")
                .insert(job.id.0, summary);
        }
        results.insert(job.id.0, result);
        self.results_cv.notify_all();
    }

    /// Blocks until the query's result is available.
    pub fn wait(&self, id: QueryId) -> Result<ExecutionReport, ServiceError> {
        if id.0 >= self.admission().next_id {
            return Err(ServiceError::UnknownQuery(id.0));
        }
        let mut results = self.results.lock().expect("results lock poisoned");
        loop {
            if let Some(result) = results.get(&id.0) {
                return result.clone();
            }
            results = self
                .results_cv
                .wait(results)
                .expect("results lock poisoned");
        }
    }

    /// Worker thread body: drain the queue, then exit once shutdown is
    /// flagged and the queue is empty (every admitted job is always
    /// executed).
    pub fn worker_loop(&self) {
        loop {
            let job = {
                let mut queue = self.queue.lock().expect("queue lock poisoned");
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    if self.shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    queue = self.queue_cv.wait(queue).expect("queue lock poisoned");
                }
            };
            self.execute_job(job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use arboretum_runtime::executor::Deployment;

    fn catalog() -> SessionCatalog {
        let assignments: Vec<usize> = (0..40).map(|i| i % 4).collect();
        let deployment = Deployment::one_hot(&assignments, 4);
        SessionCatalog::new(deployment, CatalogConfig::default()).unwrap()
    }

    const SRC: &str = "aggr = sum(db);\nr = em(aggr, 1.0);\noutput(r);";

    /// Admission state for `catalog` with alice's session open, plus
    /// her remaining budget before any charge.
    fn admission_with_alice(catalog: &SessionCatalog) -> (Admission, PrivacyCost) {
        let mut adm = Admission::new(catalog.config().deployment_budget);
        adm.book.open("alice", PrivacyCost::pure(5.0)).unwrap();
        let before = adm.book.analyst("alice").unwrap().remaining();
        (adm, before)
    }

    #[test]
    fn catalog_queries_amortize_setup() {
        let catalog = catalog();
        let (mut adm, before) = admission_with_alice(&catalog);
        let job = adm.admit(&catalog, "alice", SRC, None).unwrap();
        assert_eq!(
            (job.id, job.seq, job.budget_before),
            (QueryId(0), 0, before)
        );
        let report = catalog
            .execute(
                &job.prepared,
                &job.analyst,
                job.seq,
                job.budget_before,
                None,
            )
            .unwrap();
        assert!(
            report.setup.is_zero(),
            "catalog executions must not re-pay sortition/keygen: {:?}",
            report.setup
        );
        // The setup itself did record the fixed cost, exactly once.
        assert!(!catalog.setup().counters.is_zero());
    }

    #[test]
    fn streamed_queries_amortize_setup_and_run_every_window() {
        let catalog = catalog();
        let (mut adm, before) = admission_with_alice(&catalog);
        let job = adm.admit(&catalog, "alice", SRC, Some(3)).unwrap();
        assert_eq!(
            (job.seq, job.budget_before, job.windows),
            (0, before, Some(3))
        );
        let stream = catalog
            .execute_stream(&job.prepared, "alice", 0, before, 3, None)
            .unwrap();
        assert_eq!(stream.checkpoints.len(), 3);
        assert!(stream.detections.is_empty());
        assert!(
            stream.report.setup.is_zero(),
            "streamed windows must not re-pay sortition/keygen"
        );
        // The schedule is a pure function of the query seed: replaying
        // the same (analyst, seq) reproduces the epoch bitwise.
        let replay = catalog
            .execute_stream(&job.prepared, "alice", 0, before, 3, None)
            .unwrap();
        assert_eq!(stream.report.outputs, replay.report.outputs);
        assert_eq!(
            stream.checkpoints.last().unwrap().accumulator_digest,
            replay.checkpoints.last().unwrap().accumulator_digest
        );
    }

    #[test]
    fn plan_cache_hits_on_repeat() {
        let catalog = catalog();
        let mut adm = Admission::new(catalog.config().deployment_budget);
        let a = adm.prepare(&catalog, SRC).unwrap();
        let b = adm.prepare(&catalog, SRC).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(adm.plan_cache_stats(), (1, 1));
    }
}
