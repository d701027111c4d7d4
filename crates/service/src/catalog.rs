//! The session catalog: the immutable deployment state shared by every
//! query the service runs.
//!
//! A [`SessionCatalog`] owns what execution reads from a standing
//! deployment (§5):
//!
//! * the [`Deployment`] itself — device registry, private rows, beacon;
//! * the cached [`SessionSetup`] — sortition roster, BGV keypair, and
//!   the metered distributed-keygen cost, built **eagerly at catalog
//!   creation** from a catalog-owned RNG so the fixed cost is paid
//!   exactly once and never attributed to whichever query happened to
//!   arrive first;
//! * the [`CatalogConfig`] every query's execution configuration is
//!   derived from.
//!
//! Nothing in it changes after [`SessionCatalog::new`], so every entry
//! point takes `&self` and concurrent queries read it without a lock.
//! The mutable service state — the plan cache and the budget ledgers —
//! lives with the scheduler's admission state instead.
//!
//! Every execution through the catalog reports all-zero
//! [`SetupCounters`](arboretum_runtime::setup::SetupCounters) — the
//! observable form of the paper's keygen amortization — and draws its
//! per-query randomness from a seed mixed from `(catalog seed, analyst
//! tag, per-analyst sequence)`, never from scheduling.

use arboretum_dp::budget::PrivacyCost;
use arboretum_lang::privacy::CertifyConfig;
use arboretum_par::ShardedPool;
use arboretum_planner::cache::CachedPlan;
use arboretum_planner::logical::LogicalPlan;
use arboretum_planner::plan::Plan;
use arboretum_planner::search::PlannerConfig;
use arboretum_runtime::adversary::{Adversary, Detection};
use arboretum_runtime::executor::{
    execute_on_setup, Deployment, ExecError, ExecutionConfig, ExecutionReport,
};
use arboretum_runtime::setup::{build_session_setup, SessionSetup};
use arboretum_runtime::stream::{ArrivalSchedule, StreamError, StreamExecutor, StreamReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::session::{analyst_tag, ServiceError};

/// Configuration of a session catalog.
#[derive(Clone, Debug)]
pub struct CatalogConfig {
    /// The catalog seed: feeds the setup build and every per-query
    /// seed mix.
    pub seed: u64,
    /// Base execution configuration (committee size, latency model,
    /// pool shape). The `seed` and `budget` fields are overridden per
    /// query.
    pub base: ExecutionConfig,
    /// Planner configuration shared by every cached plan.
    pub planner: PlannerConfig,
    /// Certifier configuration shared by every cached plan.
    pub certify: CertifyConfig,
    /// The deployment-wide privacy cap all analysts compose into;
    /// enforced at admission, not by the catalog itself.
    pub deployment_budget: PrivacyCost,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        Self {
            seed: 7,
            base: ExecutionConfig::default(),
            planner: PlannerConfig::paper_defaults(1 << 20),
            certify: CertifyConfig::default(),
            deployment_budget: PrivacyCost {
                epsilon: 64.0,
                delta: 1e-4,
            },
        }
    }
}

/// The persistent state of a standing deployment. See the module docs.
#[derive(Debug)]
pub struct SessionCatalog {
    deployment: Deployment,
    setup: SessionSetup,
    config: CatalogConfig,
}

impl SessionCatalog {
    /// Opens a catalog over a deployment, paying the fixed setup cost
    /// (sortition + BGV keygen + keygen-MPC metering) once, up front,
    /// from a catalog-owned RNG seeded by `config.seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::Exec`] if the setup build fails (e.g.
    /// the schema's category count does not fit the BGV parameters).
    pub fn new(deployment: Deployment, config: CatalogConfig) -> Result<Self, ServiceError> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let setup = build_session_setup(
            &deployment,
            config.base.committee_size,
            config.seed,
            &mut rng,
        )?;
        Ok(Self {
            deployment,
            setup,
            config,
        })
    }

    /// The deployment this catalog serves.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The cached fixed-cost setup.
    pub fn setup(&self) -> &SessionSetup {
        &self.setup
    }

    /// The catalog configuration.
    pub fn config(&self) -> &CatalogConfig {
        &self.config
    }

    /// The seed a given `(analyst, per-analyst sequence)` query draws
    /// its randomness from — a pure function of catalog seed, analyst
    /// identity, and the analyst's own stream position.
    pub fn query_seed(&self, analyst: &str, seq: u64) -> u64 {
        self.config.seed ^ analyst_tag(analyst) ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    /// Executes an admitted query against the cached setup.
    ///
    /// `budget_before` is the analyst's remaining budget at admission,
    /// *before* the charge: the executor re-charges the query cost
    /// against it internally so the issued certificate carries the
    /// post-charge balance.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on protocol failures.
    pub fn execute(
        &self,
        prepared: &CachedPlan,
        analyst: &str,
        seq: u64,
        budget_before: PrivacyCost,
        pool: Option<&ShardedPool>,
    ) -> Result<ExecutionReport, ExecError> {
        let cfg = ExecutionConfig {
            seed: self.query_seed(analyst, seq),
            budget: budget_before,
            ..self.config.base.clone()
        };
        execute_on_setup(
            &prepared.plan,
            &prepared.logical,
            &self.deployment,
            &cfg,
            &self.setup,
            pool,
            None,
        )
        .map(|(report, _)| report)
    }

    /// Executes an admitted query as a windowed ingestion stream
    /// against the cached setup (`INGEST`/`CLOSE` session mode).
    ///
    /// The arrival schedule is derived from the same per-query seed as
    /// the executor's randomness, so a streamed query is as much a pure
    /// function of `(catalog seed, analyst, seq)` as a batch one: which
    /// devices arrive or churn in which window never depends on
    /// scheduling. The epoch is charged to the ledgers exactly once at
    /// admission — windows are ingestion steps, not queries.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError`] on protocol failures, including the
    /// typed `NoSurvivors` refusal when churn removes every upload.
    pub fn execute_stream(
        &self,
        prepared: &CachedPlan,
        analyst: &str,
        seq: u64,
        budget_before: PrivacyCost,
        windows: usize,
        pool: Option<&ShardedPool>,
    ) -> Result<StreamReport, StreamError> {
        let cfg = ExecutionConfig {
            seed: self.query_seed(analyst, seq),
            budget: budget_before,
            ..self.config.base.clone()
        };
        let schedule = ArrivalSchedule::derive(cfg.seed, self.deployment.db.len(), windows.max(1));
        let mut ex = StreamExecutor::new(
            &prepared.plan,
            &prepared.logical,
            &self.deployment,
            &cfg,
            &self.setup,
            &schedule,
            pool,
        )?;
        for _ in 0..schedule.n_windows {
            ex.ingest_next(None)?;
        }
        ex.close()
    }

    /// Executes an arbitrary plan against the cached setup under an
    /// explicit [`ExecutionConfig`] and optional adversary — the
    /// low-level entry point the adversary harness drives.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on protocol failures, including
    /// [`ExecError::Unsupported`] when `cfg.committee_size` differs
    /// from the setup's.
    pub fn execute_raw(
        &self,
        plan: &Plan,
        logical: &LogicalPlan,
        cfg: &ExecutionConfig,
        pool: Option<&ShardedPool>,
        adversary: Option<&dyn Adversary>,
    ) -> Result<(ExecutionReport, Vec<Detection>), ExecError> {
        execute_on_setup(
            plan,
            logical,
            &self.deployment,
            cfg,
            &self.setup,
            pool,
            adversary,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deployment() -> Deployment {
        let assignments: Vec<usize> = (0..40).map(|i| i % 4).collect();
        Deployment::one_hot(&assignments, 4)
    }

    #[test]
    fn query_seed_depends_on_analyst_and_seq_only() {
        let catalog = SessionCatalog::new(deployment(), CatalogConfig::default()).unwrap();
        assert_eq!(
            catalog.query_seed("alice", 3),
            catalog.query_seed("alice", 3)
        );
        assert_ne!(catalog.query_seed("alice", 3), catalog.query_seed("bob", 3));
        assert_ne!(
            catalog.query_seed("alice", 3),
            catalog.query_seed("alice", 4)
        );
    }
}
