//! Streaming-vs-one-shot ingestion benchmark, emitting
//! `BENCH_streaming.json`.
//!
//! The streaming contract says a windowed epoch must produce outputs,
//! budget, and audit verdict bitwise identical to the one-shot batch
//! run over the same surviving devices — so this benchmark measures
//! what the windows *cost* (per-window checkpointing and VSR handoffs)
//! while asserting what they must *not* change. The workload is a
//! no-churn arrival schedule (every device uploads, none drop), making
//! the one-shot run on the same standing setup the exact comparator;
//! each row is one window count, with the median and quartiles over
//! the reps of per-upload wall time for both paths, and the bitwise
//! `identical` verdict.

use std::time::Instant;

use arboretum_lang::ast::DbSchema;
use arboretum_lang::parser::parse;
use arboretum_lang::privacy::CertifyConfig;
use arboretum_par::ParConfig;
use arboretum_planner::logical::extract;
use arboretum_planner::search::{plan, PlannerConfig};
use arboretum_runtime::executor::{execute_on_setup, Deployment, ExecutionConfig};
use arboretum_runtime::setup::build_session_setup;
use arboretum_runtime::stream::{execute_stream, ArrivalSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The median and quartiles of a set of repeated measurements.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// Summarises `samples` (linear interpolation between order
    /// statistics).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let x = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (x - lo as f64)
        };
        Self {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    fn to_json(self, decimals: usize) -> String {
        format!(
            "{{ \"q1\": {:.*}, \"median\": {:.*}, \"q3\": {:.*} }}",
            decimals, self.q1, decimals, self.median, decimals, self.q3
        )
    }
}

/// One window-count measurement over every rep.
#[derive(Clone, Debug)]
pub struct StreamPoint {
    /// Ingestion windows the epoch was split into.
    pub windows: usize,
    /// One-shot batch wall time per accepted upload (nanoseconds).
    pub one_shot_ns_per_upload: Spread,
    /// Streamed wall time per accepted upload (nanoseconds).
    pub streamed_ns_per_upload: Spread,
    /// `streamed / one_shot`, each rep against the one-shot run of the
    /// same rep: the windowing overhead factor.
    pub overhead: Spread,
    /// Whether every rep's streamed epoch had outputs, accepted/rejected
    /// counts, budget bits, and audit verdict bitwise identical to the
    /// one-shot run.
    pub identical: bool,
}

/// The streaming ingestion benchmark over one standing session setup.
#[derive(Clone, Debug)]
pub struct StreamBench {
    /// Uploading devices.
    pub n_devices: usize,
    /// One-hot categories in the schema.
    pub categories: usize,
    /// CPUs available to the benchmarking process.
    pub host_cpus: usize,
    /// Timed repetitions behind every row.
    pub reps: usize,
    /// One measurement per benchmarked window count.
    pub points: Vec<StreamPoint>,
}

fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the streaming benchmark: after an untimed warm-up, `reps`
/// rounds each time one one-shot reference and one streamed epoch per
/// entry of `window_counts`, all over the same standing setup and the
/// same no-churn arrival schedules. Odd rounds run the one-shot
/// reference last, so neither side always runs on a warmer cache.
///
/// # Panics
///
/// Panics if `reps` is zero, or if the query pipeline or an execution
/// fails — a benchmark binary has nothing better to do with a broken
/// workload.
pub fn bench_streaming(n_devices: usize, window_counts: &[usize], reps: usize) -> StreamBench {
    assert!(reps > 0, "at least one rep");
    let categories = 4usize;
    let assignments: Vec<usize> = (0..n_devices).map(|i| i % categories).collect();
    let deployment = Deployment::one_hot(&assignments, categories);
    let schema = DbSchema::one_hot(n_devices as u64, categories);
    let src = "aggr = sum(db); r = em(aggr, 8.0); output(r);";
    let lp = extract(
        &parse(src).expect("parse"),
        &schema,
        CertifyConfig::default(),
    )
    .expect("extract");
    let (physical, _) = plan(&lp, &PlannerConfig::paper_defaults(1 << 30)).expect("plan");
    let cfg = ExecutionConfig {
        par: ParConfig::default(),
        ..ExecutionConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let setup = build_session_setup(&deployment, cfg.committee_size, cfg.seed, &mut rng)
        .expect("session setup");
    // No churn: every device arrives, spread across windows, so the
    // surviving set equals the one-shot run's input set.
    let schedules: Vec<ArrivalSchedule> = window_counts
        .iter()
        .map(|&w| ArrivalSchedule {
            drop: vec![None; n_devices],
            ..ArrivalSchedule::derive(cfg.seed, n_devices, w.max(1))
        })
        .collect();

    let one_shot = || {
        let start = Instant::now();
        let (report, _) = execute_on_setup(&physical, &lp, &deployment, &cfg, &setup, None, None)
            .expect("one-shot run");
        (start.elapsed().as_secs_f64(), report)
    };
    let streamed = |schedule: &ArrivalSchedule| {
        let start = Instant::now();
        let report = execute_stream(&physical, &lp, &deployment, &cfg, &setup, schedule, None)
            .expect("streamed run");
        (start.elapsed().as_secs_f64(), report.report)
    };
    let (_, reference) = one_shot();
    let uploads = reference.accepted_inputs.max(1) as f64;

    // secs[rep][0] is the one-shot run; secs[rep][1 + k] window count k.
    let mut secs: Vec<Vec<f64>> = Vec::with_capacity(reps);
    let mut identical = vec![true; schedules.len()];
    for rep in 0..reps {
        let one_shot_last = rep % 2 == 1;
        let mut row = vec![0.0; 1 + schedules.len()];
        if !one_shot_last {
            row[0] = one_shot().0;
        }
        for (k, schedule) in schedules.iter().enumerate() {
            let (t, r) = streamed(schedule);
            row[1 + k] = t;
            identical[k] &= r.outputs == reference.outputs
                && r.accepted_inputs == reference.accepted_inputs
                && r.rejected_inputs == reference.rejected_inputs
                && r.budget_after.epsilon.to_bits() == reference.budget_after.epsilon.to_bits()
                && r.audit_ok == reference.audit_ok;
        }
        if one_shot_last {
            row[0] = one_shot().0;
        }
        secs.push(row);
    }

    let ns_per_upload = |col: usize| {
        let samples: Vec<f64> = secs.iter().map(|r| r[col] * 1e9 / uploads).collect();
        Spread::of(&samples)
    };
    let points = schedules
        .iter()
        .enumerate()
        .map(|(k, schedule)| {
            let ratios: Vec<f64> = secs.iter().map(|r| r[1 + k] / r[0]).collect();
            StreamPoint {
                windows: schedule.n_windows,
                one_shot_ns_per_upload: ns_per_upload(0),
                streamed_ns_per_upload: ns_per_upload(1 + k),
                overhead: Spread::of(&ratios),
                identical: identical[k],
            }
        })
        .collect();

    StreamBench {
        n_devices,
        categories,
        host_cpus: host_cpus(),
        reps,
        points,
    }
}

impl StreamBench {
    /// Renders the benchmark as a JSON document (the schema of
    /// `BENCH_streaming.json`).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                format!(
                    "    {{ \"windows\": {}, \"one_shot_ns_per_upload\": {}, \
                     \"streamed_ns_per_upload\": {}, \"overhead\": {}, \"identical\": {} }}",
                    p.windows,
                    p.one_shot_ns_per_upload.to_json(1),
                    p.streamed_ns_per_upload.to_json(1),
                    p.overhead.to_json(4),
                    p.identical
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": \"streaming_ingestion\",\n  \"n_devices\": {},\n  \
             \"categories\": {},\n  \"host_cpus\": {},\n  \"reps\": {},\n  \
             \"results\": [\n{}\n  ]\n}}\n",
            self.n_devices,
            self.categories,
            self.host_cpus,
            self.reps,
            rows.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_bench_smoke_is_identical_at_every_window_count() {
        let b = bench_streaming(29, &[1, 3], 2);
        assert_eq!(b.points.len(), 2);
        assert_eq!(b.reps, 2);
        for p in &b.points {
            assert!(
                p.identical,
                "streamed epoch diverged from one-shot at windows={}",
                p.windows
            );
            let s = p.streamed_ns_per_upload;
            assert!(s.q1 > 0.0 && s.q1 <= s.median && s.median <= s.q3);
        }
        let json = b.to_json();
        assert!(json.contains("\"bench\": \"streaming_ingestion\""));
        assert!(json.contains("\"identical\": true"));
        assert!(json.contains("\"reps\": 2"));
    }

    #[test]
    fn spread_interpolates_quartiles() {
        let s = Spread::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.0, 3.0, 4.0));
        let even = Spread::of(&[1.0, 2.0]);
        assert_eq!((even.q1, even.median, even.q3), (1.25, 1.5, 1.75));
    }
}
