//! The job-claim service façade: at-most-once as a *server*, not a batch.
//!
//! Everything else in this workspace runs a fleet to termination and
//! inspects the execution afterwards. This example runs the fleet as a
//! **long-running service** (`at_most_once::serve`): worker OS threads
//! drive erased KKβ automatons over hardware atomics, generation after
//! generation, answering a stream of claim requests from concurrent
//! clients — each grant a job id that is guaranteed never handed out
//! twice, audited at runtime.
//!
//! The tour:
//!   1. one service over a KKβ fleet of erased automatons,
//!   2. concurrent clients, including one that leaves mid-run (churn),
//!   3. backpressure from the bounded ingest queue,
//!   4. a churn soak with the headline metrics: claims/sec, p50/p99/p999
//!      grant latency, effectiveness vs jobs offered, violations = 0.
//!
//! Run with: `cargo run --release --example claim_service`

use std::collections::HashSet;
use std::sync::mpsc;
use std::time::Duration;

use at_most_once::serve::{run_soak, ClaimService, KkBlueprint, SoakConfig};

fn main() {
    // ── 1. One service over the KKβ fleet ───────────────────────────────
    let blueprint = KkBlueprint::new(256, 4).expect("valid config");
    println!("starting 'kk' service: m=4 workers, 256-job generations, queue capacity 16");
    let service = ClaimService::start(blueprint, 16);

    // ── 2. Concurrent clients, one of them flaky ────────────────────────
    // Three steady clients claim 50 jobs each; a fourth submits two
    // requests and walks away without collecting (its grants are counted
    // as abandoned, never lost, never double-granted).
    let (tx, rx) = mpsc::channel();
    let steady: Vec<_> = (0..3)
        .map(|c| {
            let client = service.client();
            let tx = tx.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let grant = client.claim().expect("service is live");
                    tx.send((c, grant)).expect("collector listens");
                }
            })
        })
        .collect();
    {
        // `desert()` drops the receiving half up front: both grants are
        // performed, delivered-to-nobody, and counted abandoned.
        let deserter = service.client().desert();
        deserter.submit().expect("accepted");
        deserter.submit().expect("accepted");
    }
    drop(tx);

    let mut seen = HashSet::new();
    let mut per_client = [0u64; 3];
    while let Ok((c, grant)) = rx.recv() {
        assert!(
            seen.insert(grant.job),
            "job {} granted twice — at-most-once broken!",
            grant.job
        );
        per_client[c] += 1;
    }
    for handle in steady {
        handle.join().expect("client finished");
    }
    println!(
        "  150 grants to 3 clients {per_client:?}, all distinct: {} unique jobs",
        seen.len()
    );

    let report = service.shutdown();
    println!(
        "  shutdown: granted={} abandoned={} violations={} (queue peak {}/{})",
        report.granted,
        report.abandoned,
        report.violations,
        report.queue.peak_depth,
        report.queue_capacity
    );
    assert_eq!(report.violations, 0);
    assert_eq!(report.abandoned, 2);

    // ── 3 & 4. The churn soak ───────────────────────────────────────────
    // Staggered joins, early leavers, deserters, a deliberately small
    // queue so backpressure actually fires — and the service-level
    // metrics a long-running server is judged by.
    let soak = SoakConfig {
        clients: 6,
        claims_per_client: 400,
        deserters: 2,
        requests_per_deserter: 3,
        join_stagger: Duration::from_millis(1),
        queue_capacity: 8,
        ..SoakConfig::default()
    };
    println!(
        "\nsoak: {} clients x {} claims, {} deserters, queue capacity {}",
        soak.clients, soak.claims_per_client, soak.deserters, soak.queue_capacity
    );
    let outcome = run_soak(KkBlueprint::new(256, 4).expect("valid config"), &soak);
    println!("  {}", outcome.summary());
    assert_eq!(outcome.service.violations, 0, "the audit never fires");
    assert_eq!(
        outcome.service.granted,
        soak.collected_claims() + 6,
        "accepted => granted, deserters included"
    );

    println!("\nat-most-once held end to end: every grant unique, zero violations.");
}
