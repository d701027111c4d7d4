//! The untraced run: end-to-end metrics of one workload.

use arboretum_lang::parser::parse;
use arboretum_net::FabricKind;
use arboretum_par::ParConfig;
use arboretum_planner::logical::extract;
use arboretum_planner::search::plan;

use crate::measure::{median, peak_rss_mb, tail, Metrics};
use crate::reference::Reference;
use crate::service::{closed_loop, config, deploy, LoopStats};
use crate::workload::{Kind, Size, Workload};
use crate::RunResult;

/// Times the set-up this many times per run and reports the median.
pub const SETUP_REPS: usize = 51;

/// Lines describing how a run was configured.
pub fn metadata(w: &Workload) -> Vec<String> {
    let par = ParConfig::auto();
    let svc = config(w);
    vec![
        format!(
            "workload {} seed {} devices {} categories {} windows {} analysts {}",
            w.kind.name(),
            w.seed,
            w.devices(),
            w.categories(),
            w.windows.map_or("batch".into(), |n| n.to_string()),
            w.analysts.len()
        ),
        format!(
            "host_cpus {} threads {} shards {} fabric {} workers {} pool_capacity {}",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            par.resolve(),
            par.resolve_shards(),
            FabricKind::resolve(None, FabricKind::Sim),
            svc.workers,
            svc.pool_capacity
        ),
    ]
}

/// The planner's predicted aggregator core-seconds for the workload's
/// first query (`metrics.agg_secs` of the chosen plan), planned at the
/// deployment's own `n`.
///
/// # Panics
///
/// Panics if the query does not plan: the corpus queries all do.
pub fn predicted_agg_core_s(w: &mut Workload) -> f64 {
    let cfg = config(w);
    let program = parse(&w.source(0)).expect("corpus query parses");
    let logical = extract(&program, &w.schema, w.certify).expect("corpus query certifies");
    let (chosen, _) = plan(&logical, &cfg.catalog.planner).expect("corpus query plans");
    chosen.metrics.agg_secs
}

/// Lines reporting the loop's sample counts, error rate and the
/// predicted-vs-measured cost row.
pub fn loop_report(w: &mut Workload, stats: &LoopStats) -> Vec<String> {
    let mut lines = vec![format!(
        "queries attempted {} completed {} failed {} error_rate {}",
        stats.attempted,
        stats.completed(),
        stats.failures.len(),
        stats.failures.len() as f64 / stats.attempted.max(1) as f64
    )];
    if stats.completed() > 0 {
        let t = tail(&stats.latency_ms);
        lines.push(format!(
            "query_p50_ms rests on {} samples; query_tail_ms is p{:.1} of {} samples, {} above it",
            t.samples, t.percentile, t.samples, t.above
        ));
        let mut sorted = stats.latency_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize];
        lines.push(format!(
            "latency_ms min {:.1} p10 {:.1} p25 {:.1} p50 {:.1} p75 {:.1} p90 {:.1} max {:.1}",
            at(0.0),
            at(0.1),
            at(0.25),
            at(0.5),
            at(0.75),
            at(0.9),
            at(1.0)
        ));
        let predicted = predicted_agg_core_s(w);
        let measured = stats.cpu_s / stats.completed() as f64;
        lines.push(format!(
            "cost model: planner.pred_agg_core_s {predicted} measured cpu_s_per_query {measured} \
             ratio {}",
            predicted / measured
        ));
    }
    lines.extend(stats.failures.iter().map(|f| format!("FAILED {f}")));
    lines
}

/// Runs one workload untraced for `seconds` and reports its end-to-end
/// metrics.
pub fn run(kind: Kind, seed: u64, seconds: f64, size: Size) -> RunResult {
    let mut w = Workload::generate(kind, seed, size);
    let reference = Reference::new(&w);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut handle = None;
    for _ in 0..SETUP_REPS {
        // Retire the previous service before timing the next set-up.
        drop(handle.take());
        let (h, s) = deploy(&w);
        setup_s.push(s);
        handle = Some(h);
    }
    let handle = handle.expect("at least one set-up");
    let stats = closed_loop(&handle, &mut w, &reference, seconds, None);
    handle.shutdown();

    let mut lines = metadata(&w);
    lines.push(reference.describe());
    let fastest = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = setup_s.iter().copied().fold(0.0, f64::max);
    lines.push(format!(
        "setup_s over {} set-ups: min {fastest} median {} max {slowest}",
        setup_s.len(),
        median(&setup_s)
    ));
    lines.extend(loop_report(&mut w, &stats));
    let mut metrics = Metrics::default();
    metrics.put("setup_s", median(&setup_s), "s");
    if stats.completed() > 0 {
        let done = stats.completed() as f64;
        metrics.put("query_p50_ms", median(&stats.latency_ms), "ms");
        metrics.put("query_tail_ms", tail(&stats.latency_ms).value, "ms");
        metrics.put("queries_per_s", done / stats.wall_s, "1/s");
        metrics.put("cpu_s_per_query", stats.cpu_s / done, "s");
    }
    metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
    RunResult {
        lines,
        metrics,
        attempted: stats.attempted,
        failed: stats.failures.len() as u64,
    }
}
