//! The reference-output gate: every released output is checked against
//! a plaintext computation over the same rows.
//!
//! Each DP output is allowed the deviation its mechanism can cause with
//! probability at most [`FAILURE_PROB`], so an honest run fails the gate
//! with negligible probability and a wrong aggregate fails it surely.

use arboretum_runtime::stream::ArrivalSchedule;
use arboretum_service::analyst_tag;

use crate::workload::{Kind, Workload};

/// The probability with which the gate may reject a correct output.
pub const FAILURE_PROB: f64 = 1e-9;

/// What one completed query released, plus its input accounting.
#[derive(Clone, Debug)]
pub struct Released<'a> {
    /// The released outputs.
    pub outputs: &'a [i64],
    /// The ε the query was issued with.
    pub epsilon: f64,
    /// Uploads the aggregator accepted.
    pub accepted: usize,
    /// Uploads the aggregator rejected.
    pub rejected: usize,
    /// Devices that churned out before uploading.
    pub churned: usize,
    /// Whether the aggregator's step log passed the audit.
    pub audit_ok: bool,
}

/// The plaintext reference for one workload.
#[derive(Clone, Debug)]
pub struct Reference {
    kind: Kind,
    devices: usize,
    /// Per-category counts over every device.
    counts: Vec<i64>,
}

impl Reference {
    /// Computes the plaintext reference of a workload's rows.
    ///
    /// # Panics
    ///
    /// Panics if the generated `top1` data does not have a mode that
    /// the mechanism keeps with probability at least `1 − FAILURE_PROB`.
    pub fn new(w: &Workload) -> Self {
        let mut counts = vec![0i64; w.categories()];
        for row in &w.rows {
            for (c, v) in counts.iter_mut().zip(row) {
                *c += v;
            }
        }
        let reference = Self {
            kind: w.kind,
            devices: w.devices(),
            counts,
        };
        if w.kind == Kind::Top1Wide {
            let mut sorted = reference.counts.clone();
            sorted.sort_unstable();
            let gap = sorted[sorted.len() - 1] - sorted[sorted.len() - 2];
            assert!(
                gap as f64 > em_slack(crate::workload::FIXED_EPSILON, sorted.len()),
                "generated top1 data has an ambiguous mode (gap {gap})"
            );
        }
        reference
    }

    /// The plaintext per-category counts.
    pub fn counts(&self) -> &[i64] {
        &self.counts
    }

    /// The plaintext mode.
    pub fn mode(&self) -> i64 {
        let max = *self.counts.iter().max().expect("at least one category");
        self.counts
            .iter()
            .position(|&c| c == max)
            .expect("max exists") as i64
    }

    /// The plaintext median bin and the bins whose rank distance the
    /// exponential mechanism at `epsilon` can reach with probability
    /// above `FAILURE_PROB`. The query's own arithmetic is mirrored:
    /// `half = total / 2` and the score is `−|cum[i] − half|`.
    pub fn median_bins(&self, epsilon: f64) -> (i64, Vec<i64>) {
        let total: i64 = self.counts.iter().sum();
        let half = total / 2;
        let mut cum = 0;
        let d: Vec<i64> = self
            .counts
            .iter()
            .map(|c| {
                cum += c;
                (cum - half).abs()
            })
            .collect();
        let best = *d.iter().min().expect("at least one category");
        let median = d.iter().position(|&x| x == best).expect("min exists") as i64;
        // One more rank unit covers the secure `total / 2` truncation.
        let slack = em_slack(epsilon, d.len()) + 1.0;
        let ok = (0..d.len() as i64)
            .filter(|&i| (d[i as usize] - best) as f64 <= slack)
            .collect();
        (median, ok)
    }

    /// How far from the plaintext median, in bins, the gate lets a
    /// `median` output land at `epsilon`.
    pub fn median_bin_tolerance(&self, epsilon: f64) -> i64 {
        let (median, ok) = self.median_bins(epsilon);
        ok.iter().map(|b| (b - median).abs()).max().unwrap_or(0)
    }

    /// States the tolerance the gate allows at the workload's smallest ε.
    pub fn describe(&self) -> String {
        match self.kind {
            Kind::Top1Wide => format!(
                "reference: top1 must equal the plaintext mode {}",
                self.mode()
            ),
            Kind::CmsStream => format!(
                "reference: cms must lie within {} of accepted_inputs",
                cms_tolerance(crate::workload::FIXED_EPSILON)
            ),
            Kind::MedianTenants => {
                let eps = crate::workload::MEDIAN_EPSILON.0;
                format!(
                    "reference: median must lie within {} bins of the plaintext median {} at ε {eps}",
                    self.median_bin_tolerance(eps),
                    self.median_bins(eps).0
                )
            }
        }
    }

    /// Checks one released result; `Err` says what was wrong.
    pub fn check(&self, r: &Released) -> Result<(), String> {
        if !r.audit_ok {
            return Err("the aggregator's step log failed the audit".into());
        }
        if r.accepted + r.rejected + r.churned != self.devices {
            return Err(format!(
                "accepted {} + rejected {} + churned {} != {} devices",
                r.accepted, r.rejected, r.churned, self.devices
            ));
        }
        let [out] = r.outputs else {
            return Err(format!("expected one output, got {:?}", r.outputs));
        };
        match self.kind {
            Kind::Top1Wide => {
                if *out != self.mode() {
                    return Err(format!("top1 {out} != plaintext mode {}", self.mode()));
                }
            }
            Kind::CmsStream => {
                // Rows are 1-wide, so the true count is the number of
                // accepted uploads.
                let tol = cms_tolerance(r.epsilon);
                let err = (*out - r.accepted as i64).abs();
                if err > tol {
                    return Err(format!(
                        "cms {out} is {err} from {} accepted (tolerance {tol})",
                        r.accepted
                    ));
                }
            }
            Kind::MedianTenants => {
                let (median, ok) = self.median_bins(r.epsilon);
                if !ok.contains(out) {
                    return Err(format!(
                        "median {out} is outside {} bins of plaintext median {median}",
                        self.median_bin_tolerance(r.epsilon)
                    ));
                }
            }
        }
        Ok(())
    }
}

/// How far a `cms` count may land from the true count: the Laplace
/// tail at sensitivity 1, plus one because the output is floored.
fn cms_tolerance(epsilon: f64) -> i64 {
    (FAILURE_PROB.recip().ln() / epsilon).ceil() as i64 + 1
}

/// Score deficit an exponential mechanism over `choices` choices at
/// sensitivity 1 exceeds with probability at most `FAILURE_PROB`:
/// `(2/ε)(ln choices + ln(1/FAILURE_PROB))`.
fn em_slack(epsilon: f64, choices: usize) -> f64 {
    2.0 / epsilon * ((choices as f64).ln() + FAILURE_PROB.recip().ln())
}

/// Devices that churn out of the `seq`-th streamed query of `analyst`
/// before uploading. The service derives the arrival schedule from the
/// query's seed, which mixes the catalog seed, the analyst's tag and
/// the analyst's sequence number (`SessionCatalog::query_seed`).
pub fn churned(
    catalog_seed: u64,
    analyst: &str,
    seq: u64,
    devices: usize,
    windows: usize,
) -> usize {
    let query_seed = catalog_seed ^ analyst_tag(analyst) ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    devices
        - ArrivalSchedule::derive(query_seed, devices, windows)
            .survivors()
            .len()
}
