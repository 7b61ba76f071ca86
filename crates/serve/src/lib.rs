//! # amo-serve — the at-most-once fleet as a long-running service
//!
//! Everything below this crate solves a *batch* problem: build `m`
//! processes, hand them `n` jobs, run to termination, inspect the
//! execution. This crate turns that machinery into a **job-claim
//! service**: a server that accepts a stream of claim requests from many
//! client threads and answers each with a job id that is guaranteed to be
//! granted to *no one else, ever* — the at-most-once property as a
//! service-level contract rather than a per-run theorem.
//!
//! The fleet behind the façade is real: worker OS threads contending on
//! [`AtomicRegisters`](amo_sim::AtomicRegisters) (hardware atomics, not
//! the simulator), each driving an erased
//! [`BoxProcess`](amo_sim::scenario::BoxProcess) automaton. The erased
//! interface is what makes the service *generic over fleets*: a
//! [`FleetBlueprint`] can build a different concrete automaton per worker,
//! which a process API generic over one automaton type could not express.
//!
//! ## The service contract
//!
//! 1. **Accepted ⇒ granted, or explicitly failed.** Every request
//!    admitted by the ingest queue is answered with a grant before
//!    shutdown completes (the queue's drain guarantee plus wait-free
//!    fleet progress) — and this survives worker panics: supervision
//!    ([`service`] module docs) restarts a killed worker with the requests
//!    it held re-served, and a worker that dies for good first hands them
//!    back to the queue for the others. Requests are only ever refused *at
//!    admission* (backpressure) or by an *explicit* client-side deadline
//!    ([`ClientError::DeadlineExceeded`], the grant still owed) — never
//!    accepted and then silently dropped. A service whose workers have
//!    all died is out of scope.
//! 2. **Bounded admission.** The queue holds at most `queue_capacity`
//!    requests, and each of the `m` workers holds at most one share
//!    outside it: the oldest `⌈depth / m⌉` queued requests at its pop, so
//!    at most `⌈queue_capacity / m⌉`. Only the share of a worker that died
//!    for good, put back into a refilled queue, can lift the queue past
//!    `queue_capacity`. Overload surfaces at submit time as backpressure
//!    ([`SubmitError::Full`] on the fast path, blocking on
//!    [`ClaimClient::submit`]), not as unbounded buffering.
//! 3. **At-most-once, audited.** No global job id is granted twice —
//!    within a generation by the algorithm's guarantee, across
//!    generations by disjoint id blocks — and the service does not take
//!    this on faith: each generation keeps one audit bit per job, and a
//!    performed local job `j` is a violation when `j ∉ 1..=n` or its bit
//!    was already set. The global id `g·n + j` is injective over `g` and
//!    `j ∈ 1..=n`, so a global id performed twice sets one bit twice: the
//!    bitmaps catch every repeat a set of all global ids ever performed
//!    would, in `n/8` bytes per live generation and without a lock, and
//!    the range check also catches an id outside its generation's block.
//!    [`ServiceReport::violations`] must read zero.
//!
//! ## Shape of the crate
//!
//! * [`queue`] — bounded MPMC ingest queue (contract item 2).
//! * [`service`] — blueprints, generations, workers, clients, reports
//!   (items 1 and 3).
//! * [`latency`] — constant-memory log₂ histogram for grant-wait tails.
//! * [`soak`] — churn harness: staggered joins, mid-run departures,
//!   deserting clients; reports claims/sec, p50/p99/p999, effectiveness.
//!
//! ## Quick start
//!
//! ```
//! use amo_serve::{ClaimService, KkBlueprint};
//!
//! let service = ClaimService::start(KkBlueprint::new(64, 3)?, 16);
//! let client = service.client();
//! let a = client.claim().unwrap();
//! let b = client.claim().unwrap();
//! assert_ne!(a.job, b.job); // at-most-once: never the same job twice
//! let report = service.shutdown();
//! assert_eq!(report.violations, 0);
//! assert_eq!(report.granted, 2);
//! # Ok::<(), amo_core::ConfigError>(())
//! ```

pub mod latency;
pub mod queue;
pub mod service;
pub mod soak;

pub use latency::LatencyHistogram;
pub use queue::{IngestQueue, QueueStats, Rejected, SubmitError};
pub use service::{
    ClaimClient, ClaimService, ClientError, DesertedClient, FleetBlueprint, Grant, KkBlueprint,
    RetryPolicy, ServiceChaos, ServiceReport,
};
pub use soak::{run_soak, SoakConfig, SoakReport};

/// Runs `body` on its own thread and waits at most 10 s for it, so a lost
/// wake-up or a lost request fails the test loudly instead of hanging it.
#[cfg(test)]
pub(crate) fn within_watchdog<R: Send + 'static>(body: impl FnOnce() -> R + Send + 'static) -> R {
    use std::sync::mpsc::{self, RecvTimeoutError};
    let (done_tx, done_rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let result = body();
        let _ = done_tx.send(());
        result
    });
    if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(std::time::Duration::from_secs(10))
    {
        panic!("watchdog: a thread is still blocked after 10 s (a lost wake-up or request)");
    }
    handle
        .join()
        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}
