//! Soak smoke: the claim service under sustained load with client churn.
//!
//! A bounded version of the real soak (CI-sized, seconds not minutes)
//! that still exercises every contract clause at once: staggered joins,
//! mid-run departures, deserting clients, backpressure on a small queue,
//! generation rollover — with the at-most-once audit pinned at zero and
//! the accounting identities checked exactly.

use std::time::Duration;

use amo_serve::{run_soak, KkBlueprint, RetryPolicy, ServiceChaos, SoakConfig};

fn smoke_config() -> SoakConfig {
    SoakConfig {
        clients: 6,
        claims_per_client: 300,
        deserters: 2,
        requests_per_deserter: 3,
        join_stagger: Duration::from_micros(500),
        queue_capacity: 8,
        ..SoakConfig::default()
    }
}

fn check_contract(report: &amo_serve::SoakReport, bound: u64) {
    let config = &report.config;
    let service = &report.service;
    println!("{}", report.summary());

    // Contract 3: at-most-once, audited — zero violations, always.
    assert_eq!(service.violations, 0, "at-most-once audit failed");

    // Contract 1: accepted ⇒ granted. Every request the queue admitted
    // was answered (quota clients') or delivered-to-nobody (deserters'),
    // and nothing was dropped in between.
    let expected =
        config.collected_claims() + config.deserters as u64 * config.requests_per_deserter;
    assert_eq!(service.queue.accepted, expected, "admission accounting");
    assert_eq!(service.granted, expected, "accepted ⇒ granted");
    assert_eq!(
        service.abandoned,
        config.deserters as u64 * config.requests_per_deserter,
        "deserters' grants are abandoned, not lost"
    );
    assert_eq!(report.latency.count(), config.collected_claims());

    // Contract 2: bounded admission — the queue never exceeded capacity.
    assert!(
        service.queue.peak_depth <= config.queue_capacity,
        "queue depth {} exceeded capacity {}",
        service.queue.peak_depth,
        config.queue_capacity
    );

    // Generations completed by all workers kept the paper's per-instance
    // effectiveness floor, n − (β + m − 2).
    assert!(
        service.performed_in_completed >= service.completed_generations * bound,
        "{} jobs over {} completed generations breaks the {} floor",
        service.performed_in_completed,
        service.completed_generations,
        bound
    );

    // The tails came out of real measurements, in order.
    assert!(report.latency.p50() <= report.latency.p99());
    assert!(report.latency.p99() <= report.latency.p999());
    assert!(service.claims_per_sec() > 0.0);
}

#[test]
fn homogeneous_soak_is_clean_under_churn() {
    let blueprint = KkBlueprint::new(128, 4).unwrap();
    let bound = blueprint.effectiveness_bound();
    let report = run_soak(blueprint, &smoke_config());
    check_contract(&report, bound);
}

#[test]
fn tiny_queue_surfaces_backpressure_without_loss() {
    // Capacity 1 with 4 concurrent clients: heavy backpressure, but the
    // contract is loss-free — rejections only ever happen at admission.
    let config = SoakConfig {
        clients: 4,
        claims_per_client: 100,
        deserters: 0,
        requests_per_deserter: 0,
        join_stagger: Duration::ZERO,
        queue_capacity: 1,
        ..SoakConfig::default()
    };
    let report = run_soak(KkBlueprint::new(64, 2).unwrap(), &config);
    assert_eq!(report.service.violations, 0);
    assert_eq!(report.service.granted, 400);
    assert_eq!(report.service.queue.accepted, 400);
    assert!(report.service.queue.peak_depth <= 1);
}

#[test]
fn chaotic_smoke_holds_the_full_contract_degraded() {
    // The smoke contract, now with supervised worker kills firing mid-run
    // and every quota client on a deadline policy: the accounting
    // identities must hold *exactly* as in the fault-free run, with the
    // degradation itself reported.
    let config = SoakConfig {
        chaos: Some(ServiceChaos::every(40, 3)),
        deadline: Some(RetryPolicy::new(Duration::from_millis(2), 8)),
        ..smoke_config()
    };
    let blueprint = KkBlueprint::new(128, 4).unwrap();
    let bound = blueprint.effectiveness_bound();
    let report = run_soak(blueprint, &config);
    check_contract(&report, bound);
    assert!(
        report.service.worker_restarts > 0,
        "chaos kills must actually fire"
    );
    assert!(report.summary().contains("degraded:"));
}
