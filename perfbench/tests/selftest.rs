//! Self-tests of the benchmark: smoke-sized workloads pass the
//! reference gate and emit every metric `BENCHMARK.json` declares,
//! same-seed traced runs repeat their counts, and the gate rejects
//! wrong outputs.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use arboretum_perfbench::reference::{Reference, Released};
use arboretum_perfbench::run;
use arboretum_perfbench::workload::{Kind, Size, Workload};

/// `(name, unit)` of every metric `BENCHMARK.json` declares in
/// `section`, in file order.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
    let body = text
        .split(&format!("\"{section}\": ["))
        .nth(1)
        .and_then(|rest| rest.split(']').next())
        .expect("section present");
    let field = |entry: &str, key: &str| {
        let value = entry.split(&format!("\"{key}\": \"")).nth(1)?;
        Some(value.split('"').next()?.to_string())
    };
    body.split('{')
        .filter_map(|entry| Some((field(entry, "name")?, field(entry, "unit")?)))
        .collect()
}

fn owned(names: Vec<(&str, &str)>) -> Vec<(String, String)> {
    names
        .into_iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// Counts that a same-seed traced run must reproduce exactly.
const COUNTS: [&str; 10] = [
    "mpc.rounds",
    "mpc.bytes",
    "mpc.field_mults",
    "mpc.triples",
    "runtime.verify_ops",
    "runtime.aggregate_ops",
    "runtime.accepted",
    "runtime.rejected",
    "stream.handoff_bytes",
    "stream.handoff_frames",
];

#[test]
fn smoke_workloads_pass_the_gate_and_emit_every_metric() {
    for kind in Kind::ALL {
        let untraced = run(kind, 5, 0.3, false, Size::Smoke);
        assert_eq!(untraced.failed, 0, "{}: {:#?}", kind.name(), untraced.lines);
        assert!(untraced.attempted >= 1);
        assert_eq!(
            owned(untraced.metrics.names()),
            declared("end_to_end"),
            "{}",
            kind.name()
        );

        let traced = run(kind, 5, 0.3, true, Size::Smoke);
        assert_eq!(traced.failed, 0, "{}: {:#?}", kind.name(), traced.lines);
        assert_eq!(
            owned(traced.metrics.names()),
            declared("per_layer"),
            "{}",
            kind.name()
        );
    }
}

#[test]
fn same_seed_traced_runs_repeat_every_count() {
    for kind in Kind::ALL {
        let a = run(kind, 9, 0.1, true, Size::Smoke);
        let b = run(kind, 9, 0.1, true, Size::Smoke);
        for name in COUNTS {
            let (x, y) = (a.metrics.get(name), b.metrics.get(name));
            assert!(x.is_some(), "{}: {name} missing", kind.name());
            assert_eq!(
                x,
                y,
                "{}: {name} differs between same-seed runs",
                kind.name()
            );
        }
        assert!(a.metrics.get("mpc.rounds") > Some(0.0));
        if kind == Kind::CmsStream {
            assert!(a.metrics.get("stream.handoff_bytes") > Some(0.0));
        }
    }
}

#[test]
fn generation_is_a_function_of_the_seed() {
    for kind in Kind::ALL {
        let mut a = Workload::generate(kind, 3, Size::Smoke);
        let mut b = Workload::generate(kind, 3, Size::Smoke);
        assert_eq!(a.rows, b.rows);
        assert_eq!((a.source(4), a.source(0)), (b.source(4), b.source(0)));
    }
    let mut w = Workload::generate(Kind::MedianTenants, 3, Size::Full);
    let eps: Vec<f64> = (0..50).map(|i| w.epsilon(i)).collect();
    let mut distinct = eps.clone();
    distinct.sort_by(f64::total_cmp);
    distinct.dedup();
    assert_eq!(distinct.len(), eps.len(), "median ε must be distinct");
}

fn released(outputs: &[i64], epsilon: f64, accepted: usize, churned: usize) -> Released<'_> {
    Released {
        outputs,
        epsilon,
        accepted,
        rejected: 0,
        churned,
        audit_ok: true,
    }
}

#[test]
fn gate_rejects_wrong_outputs() {
    let top1 = Workload::generate(Kind::Top1Wide, 1, Size::Full);
    let r = Reference::new(&top1);
    let n = top1.devices();
    let mode = r.mode();
    let right = [mode];
    assert!(r.check(&released(&right, 1.0, n, 0)).is_ok());
    assert!(r.check(&released(&[(mode + 1) % 16], 1.0, n, 0)).is_err());
    assert!(
        r.check(&released(&right, 1.0, n - 1, 0)).is_err(),
        "lost a device"
    );
    let mut failed_audit = released(&right, 1.0, n, 0);
    failed_audit.audit_ok = false;
    assert!(r.check(&failed_audit).is_err());

    let cms = Workload::generate(Kind::CmsStream, 1, Size::Full);
    let r = Reference::new(&cms);
    let accepted = cms.devices() - 100;
    assert!(r
        .check(&released(&[accepted as i64 + 3], 1.0, accepted, 100))
        .is_ok());
    assert!(r
        .check(&released(&[accepted as i64 + 40], 1.0, accepted, 100))
        .is_err());

    let median = Workload::generate(Kind::MedianTenants, 1, Size::Full);
    let r = Reference::new(&median);
    let n = median.devices();
    let (bin, ok) = r.median_bins(8.0);
    assert!(ok.contains(&bin));
    assert!(r.median_bin_tolerance(8.0) <= 3, "the gate must stay tight");
    assert!(r.check(&released(&[bin], 8.0, n, 0)).is_ok());
    assert!(r.check(&released(&[bin + 10], 8.0, n, 0)).is_err());
}
