//! `serve_claims`: a claim service over `KkBlueprint::new(1024, 2)` with
//! queue capacity 64, loaded in a closed loop by one generator thread.
//!
//! The pipelined phase keeps 32 claims in flight and loads the queue lock
//! and the workers' step loop; the closed phase that follows keeps one in
//! flight and loads the wake-up and grant-delivery path. A change that
//! helps one phase at the other's cost (spinning workers, say) shows in
//! one of `jobs_per_s` and the claim latencies. (The soak harness is not
//! used: it spawns one thread per client, more than the two cores the
//! benchmark was sized for.) Real threads make the run nondeterministic,
//! so the workload has no seed dependence.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use amo_serve::{ClaimClient, ClaimService, FleetBlueprint, Grant, KkBlueprint, ServiceReport};

use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, percentiles, supported, Percentiles};
use crate::trace::{TracedBlueprint, WorkerTotals};

/// Shape of the workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeClaims {
    /// Jobs per generation.
    pub jobs: u64,
    /// Ingest-queue capacity.
    pub capacity: usize,
    /// Claims in flight during the pipelined phase.
    pub pipeline: usize,
    /// Pipelined claims of one warm-up.
    pub warmup_pipelined: u64,
    /// Closed-loop claims of one warm-up.
    pub warmup_closed: u64,
    /// Services started, warmed up and (but for the last) shut down per
    /// run; `setup_s` is the median of their set-up times.
    pub setups: usize,
}

/// Worker threads (the algorithm's `m`).
const WORKERS: usize = 2;

/// Nominal pipelined claims per second, which sizes the pipelined phase.
const PIPELINED_RATE: f64 = 400_000.0;

/// Nominal closed-loop claims per second, which sizes the closed phase.
const CLOSED_RATE: f64 = 35_000.0;

/// A phase stops after this many times its nominal duration, so a slow
/// host cannot stretch a run without bound. It is wide, so that on all but
/// a very slow host every run serves the same claims.
const CAP: f64 = 1.75;

/// Grants between two looks at the clock against [`CAP`].
const CAP_CHECK: u64 = 1024;

/// Rounds of alternating pipelined and closed phases per run.
const ROUNDS: usize = 4;

impl ServeClaims {
    /// The benchmark's shape.
    pub const FULL: ServeClaims = ServeClaims {
        jobs: 1024,
        capacity: 64,
        pipeline: 32,
        warmup_pipelined: 20_000,
        warmup_closed: 2_000,
        setups: 7,
    };

    /// A toy shape for tests.
    pub const TOY: ServeClaims = ServeClaims {
        jobs: 64,
        capacity: 8,
        pipeline: 4,
        warmup_pipelined: 200,
        warmup_closed: 20,
        setups: 2,
    };

    fn blueprint(&self) -> KkBlueprint {
        KkBlueprint::new(self.jobs, WORKERS).expect("jobs ≥ workers ≥ 1")
    }
}

/// The generator's client, with the grants it received per generation.
struct Claimer {
    client: ClaimClient,
    /// Grants received, indexed by [`Grant::generation`].
    per_generation: Vec<u64>,
}

impl Claimer {
    fn new(client: ClaimClient) -> Self {
        Self {
            client,
            per_generation: Vec::new(),
        }
    }

    /// Submits one claim; a refused submit is a failed operation.
    fn submit(&self, out: &mut Outcome) -> bool {
        let result = self.client.submit();
        if let Err(e) = &result {
            out.check(false, &format!("serve_claims: submit refused: {e}"));
        }
        result.is_ok()
    }

    /// Receives one grant: one operation, failed when no grant comes.
    fn recv(&mut self, out: &mut Outcome) -> Option<Grant> {
        match self.client.recv() {
            Ok(grant) => {
                out.succeeded(1);
                let g = grant.generation as usize;
                if self.per_generation.len() <= g {
                    self.per_generation.resize(g + 1, 0);
                }
                self.per_generation[g] += 1;
                Some(grant)
            }
            Err(e) => {
                out.check(false, &format!("serve_claims: no grant: {e}"));
                None
            }
        }
    }
}

/// Keeps `depth` claims in flight until `claims` grants have arrived (or,
/// checked every [`CAP_CHECK`] grants, `cap` has passed), then drains.
/// Returns the grants counted and the time they took.
fn pipelined(
    claimer: &mut Claimer,
    depth: usize,
    claims: u64,
    cap: Duration,
    out: &mut Outcome,
) -> (u64, Duration) {
    for _ in 0..depth {
        claimer.submit(out);
    }
    let began = Instant::now();
    let mut granted = 0u64;
    while granted < claims {
        if claimer.recv(out).is_none() {
            break;
        }
        granted += 1;
        if granted % CAP_CHECK == 0 && began.elapsed() > cap {
            break;
        }
        claimer.submit(out);
    }
    let took = began.elapsed();
    while claimer.client.outstanding() > 0 {
        claimer.recv(out);
    }
    (granted, took)
}

/// One closed-loop claim as the client sees it.
struct ClosedClaim {
    /// Time inside `submit`.
    submit: Duration,
    /// Submit to grant received.
    latency: Duration,
    /// The service's own submit-to-send measure ([`amo_serve::Grant::wait`]).
    wait: Duration,
}

/// Claims one at a time, `count` times or until `cap` has passed.
fn closed(claimer: &mut Claimer, count: u64, cap: Duration, out: &mut Outcome) -> Vec<ClosedClaim> {
    let began = Instant::now();
    let mut claims = Vec::new();
    for i in 0..count {
        if i % 256 == 0 && began.elapsed() > cap {
            break;
        }
        let t0 = Instant::now();
        let submitted = claimer.submit(out);
        let t1 = Instant::now();
        if !submitted {
            continue;
        }
        if let Some(grant) = claimer.recv(out) {
            claims.push(ClosedClaim {
                submit: t1 - t0,
                latency: t0.elapsed(),
                wait: grant.wait,
            });
        }
    }
    claims
}

/// Starts a service and warms it up; returns it with its client.
fn start(
    shape: &ServeClaims,
    blueprint: Box<dyn FleetBlueprint>,
    out: &mut Outcome,
) -> (ClaimService, Claimer) {
    let service = ClaimService::start_boxed(blueprint, shape.capacity);
    let mut claimer = Claimer::new(service.client());
    let warm = shape.warmup_pipelined;
    pipelined(&mut claimer, shape.pipeline, warm, Duration::MAX, out);
    closed(&mut claimer, shape.warmup_closed, Duration::MAX, out);
    (service, claimer)
}

/// The service-level checks of one shut-down service whose only client
/// was `claimer`.
fn check_report(shape: &ServeClaims, report: &ServiceReport, claimer: &Claimer, out: &mut Outcome) {
    out.check(
        report.violations == 0,
        &format!(
            "serve_claims: {} at-most-once violations",
            report.violations
        ),
    );
    out.check(
        report.granted == report.queue.accepted,
        &format!(
            "serve_claims: granted {} but accepted {}",
            report.granted, report.queue.accepted
        ),
    );
    out.check(
        report.queue.peak_depth <= shape.capacity,
        &format!(
            "serve_claims: queue depth {} above capacity {}",
            report.queue.peak_depth, shape.capacity
        ),
    );
    // Every worker retires generation g before g + 1, so the completed
    // generations are the first `completed_generations`. A worker steps its
    // automaton only with an empty stash, so by the time it retires a
    // generation every job it performed there has been granted: each
    // completed generation's grants are its performed jobs.
    let completed = report.completed_generations as usize;
    let per_generation = &claimer.per_generation[..completed.min(claimer.per_generation.len())];
    let bound = shape.blueprint().effectiveness_bound();
    let short: Vec<_> = per_generation
        .iter()
        .enumerate()
        .filter(|&(_, &jobs)| jobs < bound)
        .collect();
    out.check(
        per_generation.len() == completed && short.is_empty(),
        &format!(
            "serve_claims: {} of {completed} completed generations granted fewer than {bound} \
             jobs, first (generation, grants): {:?}; {} had any grant",
            short.len(),
            &short[..short.len().min(8)],
            per_generation.len()
        ),
    );
    println!(
        "service: {completed} completed generations, fewest grants in one {} (bound {bound})",
        per_generation
            .iter()
            .min()
            .map_or("-".into(), u64::to_string)
    );
    let granted: u64 = per_generation.iter().sum();
    out.check(
        granted == report.performed_in_completed,
        &format!(
            "serve_claims: {granted} grants from completed generations but {} jobs performed \
             in them",
            report.performed_in_completed
        ),
    );
}

/// What one measured service run produced.
struct Measured {
    setup_s: Vec<f64>,
    pipelined_wall: Duration,
    pipelined_claims: u64,
    closed: Vec<ClosedClaim>,
    report: ServiceReport,
    /// Jobs performed by every service the run started.
    performed: u64,
    /// Worker counters accumulated over the pipelined phase, in
    /// [`snapshot`] order.
    totals: Option<[u64; 5]>,
}

impl Measured {
    /// Claims granted per second of the pipelined phases.
    fn jobs_per_s(&self) -> f64 {
        self.pipelined_claims as f64 / self.pipelined_wall.as_secs_f64()
    }
}

/// Builds, build ns, steps, timed steps and timed ns so far.
fn snapshot(t: &WorkerTotals) -> [u64; 5] {
    [
        t.builds.load(Ordering::Relaxed),
        t.build_ns.load(Ordering::Relaxed),
        t.steps.load(Ordering::Relaxed),
        t.timed.load(Ordering::Relaxed),
        t.timed_ns.load(Ordering::Relaxed),
    ]
}

/// Set-up `shape.setups` times (all but the last service shut down again),
/// then pipelined and closed phases of about `seconds / 2` in all each on
/// the last.
fn measure_service(
    shape: &ServeClaims,
    seconds: f64,
    totals: Option<Arc<WorkerTotals>>,
    out: &mut Outcome,
) -> Measured {
    let blueprint = || -> Box<dyn FleetBlueprint> {
        match &totals {
            Some(t) => Box::new(TracedBlueprint::new(shape.blueprint(), Arc::clone(t))),
            None => Box::new(shape.blueprint()),
        }
    };
    let mut setup_s = Vec::new();
    let mut performed = 0;
    let mut live = None;
    for i in 0..shape.setups.max(1) {
        let t = Instant::now();
        let (service, claimer) = start(shape, blueprint(), out);
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < shape.setups {
            let report = service.shutdown();
            check_report(shape, &report, &claimer, out);
            performed += report.granted + report.stranded;
        } else {
            live = Some((service, claimer));
        }
    }
    let (service, mut claimer) = live.expect("at least one set-up");

    // Each phase does a fixed amount of work, sized to last about
    // `seconds / 2` at the nominal rates, so that every run serves the same
    // claims (the service's audit set, and with it its memory, grows with
    // every claim served). A slow host stops a phase at `CAP` times that.
    // The phases alternate in `ROUNDS` rounds, so that both sample the
    // host across the whole run.
    let round = seconds / 2.0 / ROUNDS as f64;
    let cap = Duration::from_secs_f64(round * CAP);
    let per_round = ((round * PIPELINED_RATE) as u64).max(1);
    let mut pipelined_claims = 0;
    let mut pipelined_wall = Duration::ZERO;
    let mut closed_claims = Vec::new();
    let mut counts = totals.as_ref().map(|_| [0u64; 5]);
    for _ in 0..ROUNDS {
        let before = totals.as_deref().map(snapshot);
        let (claims, wall) = pipelined(&mut claimer, shape.pipeline, per_round, cap, out);
        if let (Some(counts), Some(before), Some(t)) = (&mut counts, before, totals.as_deref()) {
            for ((c, a), b) in counts.iter_mut().zip(snapshot(t)).zip(before) {
                *c += a - b;
            }
        }
        pipelined_claims += claims;
        pipelined_wall += wall;
        let count = ((round * CLOSED_RATE) as u64).max(1);
        closed_claims.extend(closed(&mut claimer, count, cap, out));
    }
    let report = service.shutdown();
    check_report(shape, &report, &claimer, out);
    performed += report.granted + report.stranded;
    Measured {
        setup_s,
        pipelined_wall,
        pipelined_claims,
        closed: closed_claims,
        report,
        performed,
        totals: counts,
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn latency_percentiles(claims: &[ClosedClaim], f: impl Fn(&ClosedClaim) -> f64) -> Percentiles {
    let mut samples: Vec<f64> = claims.iter().map(f).collect();
    percentiles(&mut samples).unwrap_or(Percentiles {
        count: 0,
        p50: 0.0,
        p90: 0.0,
        tail: None,
    })
}

/// The untraced run: end-to-end metrics.
pub fn measure(shape: &ServeClaims, seconds: f64, out: &mut Outcome) {
    let m = measure_service(shape, seconds, None, out);
    let latency = latency_percentiles(&m.closed, |c| us(c.latency));
    println!(
        "service: KkBlueprint({}, {}) capacity {}; setups {}; pipelined depth {}: {} claims in \
         {:.3} s",
        shape.jobs,
        WORKERS,
        shape.capacity,
        m.setup_s.len(),
        shape.pipeline,
        m.pipelined_claims,
        m.pipelined_wall.as_secs_f64()
    );
    println!("setup_s samples: {:?}", m.setup_s);
    println!("closed-loop claim latency (us): {latency}");
    let mut setup = m.setup_s.clone();
    out.set("setup_s", median(&mut setup));
    out.set("jobs_per_s", m.jobs_per_s());
    out.set("claim_p50_us", latency.p50);
    if let Some(e) = m.report.effectiveness() {
        out.set("effectiveness_ratio", e);
    }
    if let Some(rss) = peak_rss_mb() {
        out.set("peak_rss_mb", rss);
    }
}

/// The traced run: an untraced service for the overhead baseline, then a
/// service whose blueprint and automatons are wrapped.
pub fn measure_traced(shape: &ServeClaims, seconds: f64, out: &mut Outcome) {
    let plain = measure_service(shape, seconds / 2.0, None, out);
    let totals = Arc::new(WorkerTotals::default());
    let traced = measure_service(shape, seconds / 2.0, Some(Arc::clone(&totals)), out);
    let [builds, build_ns, steps, timed, timed_ns] = traced
        .totals
        .expect("traced service counts its workers")
        .map(|c| c as f64);
    let claims = traced.pipelined_claims as f64;
    let step_ns = if timed > 0.0 {
        timed_ns * steps / timed
    } else {
        0.0
    };
    let generations = builds / WORKERS as f64;
    out.set(
        "trace.overhead_ratio",
        plain.jobs_per_s() / traced.jobs_per_s(),
    );
    out.set(
        "claim_p90_us",
        latency_percentiles(&plain.closed, |c| us(c.latency)).p90,
    );
    out.set("worker.steps_per_claim", steps / claims);
    out.set("worker.step_ns_per_claim", step_ns / claims);
    out.set(
        "worker.busy_share",
        step_ns / (WORKERS as f64 * traced.pipelined_wall.as_nanos() as f64),
    );
    out.set(
        "serve.generations_per_1k_claims",
        generations * 1000.0 / claims,
    );
    if generations > 0.0 {
        out.set(
            "serve.build_us_per_generation",
            build_ns / 1e3 / generations,
        );
    }

    let r = &traced.report;
    out.set("queue.peak_depth", r.queue.peak_depth as f64);
    out.set("queue.rejected_full", r.queue.rejected_full as f64);
    let work = totals.shared.load(Ordering::Relaxed) + totals.local_work.load(Ordering::Relaxed);
    out.set("work_per_job", work as f64 / traced.performed as f64);

    let c = &traced.closed;
    let submit = latency_percentiles(c, |c| us(c.submit));
    let wait = latency_percentiles(c, |c| us(c.wait));
    let delivery = latency_percentiles(c, |c| us(c.latency.saturating_sub(c.wait)));
    let mut latency: Vec<f64> = c.iter().map(|c| us(c.latency)).collect();
    if let Some(l) = percentiles(&mut latency) {
        println!("closed-loop claim latency (us): {l}");
    }
    println!("closed-loop submit (us): {submit}");
    println!("closed-loop grant wait (us): {wait}");
    println!("closed-loop delivery (us): {delivery}");
    out.set("queue.submit_us_p50", submit.p50);
    out.set("grant.wait_us_p50", wait.p50);
    out.set("grant.delivery_us_p50", delivery.p50);
    out.set("serve.claim_samples", c.len() as f64);
    // Tails are reported only with at least ten samples beyond them.
    for (q, name) in [(99.0, "serve.claim_p99_us"), (99.9, "serve.claim_p999_us")] {
        if let Some(v) = supported(&latency, q) {
            out.set(name, v);
        }
    }
    println!(
        "worker: {steps} steps for {claims} pipelined claims; {generations} generations; \
         overhead ratio {:.3}",
        plain.jobs_per_s() / traced.jobs_per_s()
    );
}
