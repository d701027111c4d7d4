//! Tenants overlap: while one analyst's query executes, another
//! analyst's submission is admitted without waiting for it, and the
//! overlapped run is still bitwise identical to a serial replay.

use arboretum_dp::budget::PrivacyCost;
use arboretum_mpc::network::NetMetrics;
use arboretum_planner::search::PlannerConfig;
use arboretum_queries::corpus;
use arboretum_runtime::executor::{Deployment, ExecutionReport};
use arboretum_service::{CatalogConfig, ServiceConfig, ServiceHandle};

use std::time::{Duration, Instant};

/// Devices and one-hot bins of the median deployment: enough bins that
/// one execution's post-aggregation MPC takes hundreds of milliseconds.
const DEVICES: usize = 64;
const BINS: usize = 64;

fn service(workers: usize) -> ServiceHandle {
    let spec = corpus::median(DEVICES as u64, BINS);
    // A bell around the middle bin, so the median is well defined.
    let assignments: Vec<usize> = (0..DEVICES).map(|i| BINS / 2 + i % 9 - 4).collect();
    let catalog = CatalogConfig {
        planner: PlannerConfig::paper_defaults(DEVICES as u64),
        certify: spec.certify,
        ..CatalogConfig::default()
    };
    let handle = ServiceHandle::start(
        Deployment::one_hot(&assignments, BINS),
        ServiceConfig {
            catalog,
            workers,
            pool_capacity: 2,
        },
    )
    .unwrap();
    for analyst in ["alice", "bob"] {
        handle
            .open_session(analyst, PrivacyCost::pure(6.0))
            .unwrap();
    }
    handle
}

/// Every deterministic field of a report (all but the timing-bearing
/// pool counters), with floats as bits.
type ReportKey = (Vec<i64>, [u8; 32], NetMetrics, (u64, u64), [u64; 4], bool);

fn key(report: &ExecutionReport) -> ReportKey {
    (
        report.outputs.clone(),
        report.certificate.next_beacon,
        report.mpc_metrics.clone(),
        (
            report.budget_after.epsilon.to_bits(),
            report.budget_after.delta.to_bits(),
        ),
        [
            report.accepted_inputs as u64,
            report.rejected_inputs as u64,
            report.verify_ops,
            report.aggregate_ops,
        ],
        report.setup.is_zero(),
    )
}

#[test]
fn a_running_query_does_not_delay_another_analysts_admission() {
    let source = corpus::median(DEVICES as u64, BINS).source;

    // Serial reference (inline execution). Bob's submission hits the
    // plan cache, so its wall time is one execution's.
    let serial = service(0);
    let alice_serial = serial.run("alice", &source).unwrap();
    let t = Instant::now();
    let bob_serial = serial.run("bob", &source).unwrap();
    let execution = t.elapsed();
    assert!(
        execution >= Duration::from_millis(50),
        "the query is too small to show contention: {execution:?}"
    );

    // Concurrent run, same admission sequence. Bob submits once a
    // worker has had time to start alice's execution. The service has
    // no "execution started" signal to wait on; the sleep only makes
    // the overlap this test guards likely, and the assertions hold
    // whether or not it happened.
    let concurrent = service(2);
    let alice_id = concurrent.submit("alice", &source).unwrap();
    std::thread::sleep(execution / 8);
    let t = Instant::now();
    let bob_id = concurrent.submit("bob", &source).unwrap();
    let bob_submit = t.elapsed();
    assert!(
        bob_submit < execution / 4,
        "bob's admission waited {bob_submit:?} on alice's execution ({execution:?} serially)"
    );

    let alice = concurrent.wait(alice_id).unwrap();
    let bob = concurrent.wait(bob_id).unwrap();
    assert_eq!(key(&alice), key(&alice_serial));
    assert_eq!(key(&bob), key(&bob_serial));
    assert!(alice.setup.is_zero() && bob.setup.is_zero());
    assert_eq!(concurrent.audit_log(), serial.audit_log());
    assert_eq!(concurrent.audit_log().len(), 2);
    for analyst in ["alice", "bob"] {
        assert_eq!(concurrent.ledger(analyst), serial.ledger(analyst));
    }
    assert_eq!(concurrent.deployment_ledger(), serial.deployment_ledger());
    assert_eq!(concurrent.plan_cache_stats(), serial.plan_cache_stats());
}
