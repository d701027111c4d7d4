//! End-to-end and per-layer benchmark of the Arboretum standing
//! service. See `README.md` beside this crate for why each workload
//! exists and which layer metric should move which end-to-end metric.

pub mod e2e;
pub mod layers;
pub mod measure;
pub mod reference;
pub mod service;
pub mod workload;

use measure::Metrics;
use workload::{Kind, Size};

/// The outcome of one benchmark run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Human-readable lines: configuration, sample counts, the cost
    /// model row, span summaries and failures.
    pub lines: Vec<String>,
    /// The run's metrics.
    pub metrics: Metrics,
    /// Queries attempted.
    pub attempted: u64,
    /// Queries refused, failed, or failing the reference gate.
    pub failed: u64,
}

/// Runs one workload: untraced for the end-to-end metrics, or traced
/// for the per-layer ones.
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool, size: Size) -> RunResult {
    if traced {
        layers::run(kind, seed, seconds, size)
    } else {
        e2e::run(kind, seed, seconds, size)
    }
}
