//! The three benchmark workloads, generated from a workload seed.
//!
//! The program under test receives only what a workload generates: the
//! device rows, the query sources, and a deployment sized so that no
//! query is refused. Everything else runs on the program's defaults.

use arboretum_dp::budget::PrivacyCost;
use arboretum_lang::ast::DbSchema;
use arboretum_lang::privacy::CertifyConfig;
use arboretum_queries::corpus;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Corpus `top1` over wide one-hot rows: ZKP and encryption dominate.
    Top1Wide,
    /// Corpus `cms` streamed in windows with churn: encryption,
    /// checkpoints and VSR handoffs dominate.
    CmsStream,
    /// Corpus `median` from two analysts with distinct ε: the planner
    /// and the post-aggregation MPC dominate.
    MedianTenants,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 3] = [Kind::Top1Wide, Kind::CmsStream, Kind::MedianTenants];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Top1Wide => "top1-wide",
            Kind::CmsStream => "cms-stream",
            Kind::MedianTenants => "median-tenants",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// How big a workload is generated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size.
    Full,
    /// A small size with the same shape, for the self-tests.
    Smoke,
}

/// The ε every `top1` and `cms` query carries, raised from the
/// corpus's 0.1 so the reference gate can be tight.
pub const FIXED_EPSILON: f64 = 1.0;

/// Range of the seed-drawn per-query ε of `median-tenants`.
pub const MEDIAN_EPSILON: (f64, f64) = (8.0, 16.0);

/// A generated workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The workload seed every input derives from.
    pub seed: u64,
    /// One-hot device rows, one per device.
    pub rows: Vec<Vec<i64>>,
    /// The query's declared schema.
    pub schema: DbSchema,
    /// The query's certification settings (median declares its own
    /// sensitivity).
    pub certify: CertifyConfig,
    /// Ingestion windows per query; `None` runs the batch path.
    pub windows: Option<usize>,
    /// Analysts, each keeping one query outstanding.
    pub analysts: Vec<&'static str>,
    /// The corpus source with its ε literal replaced per query.
    template: String,
    /// Per-query ε, drawn distinct from the seed (`median-tenants`).
    epsilons: Vec<f64>,
}

impl Workload {
    /// Generates a workload from its seed.
    pub fn generate(kind: Kind, seed: u64, size: Size) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57_da7a);
        let smoke = size == Size::Smoke;
        let (n, spec, windows, analysts) = match kind {
            Kind::Top1Wide => {
                let n = if smoke { 192 } else { 2048 };
                (n, corpus::top1(n as u64, 16), None, vec!["alice"])
            }
            Kind::CmsStream => {
                let n = if smoke { 256 } else { 4096 };
                (n, corpus::cms(n as u64), Some(8), vec!["alice"])
            }
            Kind::MedianTenants => {
                let (n, c) = if smoke { (64, 32) } else { (128, 128) };
                (n, corpus::median(n as u64, c), None, vec!["alice", "bob"])
            }
        };
        let categories = spec.schema.row_width;
        let assignments: Vec<usize> = match kind {
            // Skewed so the mode is unambiguous: 30% of devices pick a
            // seed-drawn favourite, the rest pick uniformly.
            Kind::Top1Wide => {
                let favourite = rng.gen_range(0..categories);
                (0..n)
                    .map(|_| {
                        if rng.gen::<f64>() < 0.3 {
                            favourite
                        } else {
                            rng.gen_range(0..categories)
                        }
                    })
                    .collect()
            }
            Kind::CmsStream => vec![0; n],
            // A bell around a seed-drawn centre, so the bins near the
            // median each hold several devices.
            Kind::MedianTenants => {
                let c = categories as f64;
                let centre = rng.gen_range(0.3 * c..0.7 * c);
                let spread = c / 24.0;
                (0..n)
                    .map(|_| {
                        let z: f64 = (0..12).map(|_| rng.gen::<f64>()).sum::<f64>() - 6.0;
                        (centre + spread * z).round().clamp(0.0, c - 1.0) as usize
                    })
                    .collect()
            }
        };
        let rows = assignments
            .iter()
            .map(|&a| {
                let mut row = vec![0i64; categories];
                row[a] = 1;
                row
            })
            .collect();
        Self {
            kind,
            seed,
            rows,
            schema: spec.schema,
            certify: spec.certify,
            windows,
            analysts,
            template: spec.source,
            epsilons: Vec::new(),
        }
    }

    /// Number of devices.
    pub fn devices(&self) -> usize {
        self.rows.len()
    }

    /// One-hot categories per row.
    pub fn categories(&self) -> usize {
        self.schema.row_width
    }

    /// The ε of the `i`-th query the generator issues.
    pub fn epsilon(&mut self, i: usize) -> f64 {
        if self.kind != Kind::MedianTenants {
            return FIXED_EPSILON;
        }
        // Drawn in order and redrawn on a repeat, so the k-th ε is a
        // function of the seed and k alone.
        while self.epsilons.len() <= i {
            let k = self.epsilons.len() as u64;
            let mut rng = StdRng::seed_from_u64(self.seed ^ k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let (lo, hi) = MEDIAN_EPSILON;
            loop {
                // Four decimals, so each ε is an exact literal in the source.
                let eps = (rng.gen_range(lo..hi) * 1e4).round() / 1e4;
                if !self.epsilons.contains(&eps) {
                    self.epsilons.push(eps);
                    break;
                }
            }
        }
        self.epsilons[i]
    }

    /// The source of the `i`-th query the generator issues: the corpus
    /// query with its ε literal replaced.
    pub fn source(&mut self, i: usize) -> String {
        let eps = self.epsilon(i);
        let literal = "0.1);";
        assert_eq!(
            self.template.matches(literal).count(),
            1,
            "the corpus query must carry exactly one ε literal"
        );
        self.template.replace(literal, &format!("{eps:.4});"))
    }

    /// Budget for each analyst and for the deployment: large enough
    /// that no query of a run is refused.
    pub fn budget() -> PrivacyCost {
        PrivacyCost {
            epsilon: 1e9,
            delta: 1e-3,
        }
    }
}
