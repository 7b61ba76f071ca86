//! Engine performance smoke test: times the canonical simulated workloads
//! through three configurations of increasing speed, verifies they agree
//! observable-for-observable, and writes the results to `BENCH_engine.json`
//! (ignored by git) or the `--out` path. `perf_gate` compares a quick run
//! against the committed `BENCH_engine.quick.json` baseline.
//!
//! Usage: `cargo run --release -p amo-bench --bin perf_smoke [-- --quick]
//! [--out PATH]`.
//!
//! On the plain-KKβ round-robin workload three configurations run in the
//! same process:
//!
//! 1. **seed-equivalent** — per-element Fenwick structures
//!    ([`DenseFenwickSet`]) through the single-step engine path: what the
//!    repo's seed executed;
//! 2. **single-step** — today's blocked structures, still one action per
//!    engine dispatch;
//! 3. **fast path** — blocked structures plus macro-stepping (quantized
//!    round-robin + batched `step_many`), the announcement-epoch cache and
//!    the interleaved (struct-of-arrays) `done` layout.
//!
//! `speedup_vs_seed` (1 → 3) is the headline simulated-execution speedup;
//! `speedup_vs_single_step` (2 → 3) isolates what batching plus caching
//! buys. Equivalence is asserted in-run: the fast path must replay its
//! reference execution record-for-record, and the structure swap must leave
//! every shared-memory observable unchanged.
//!
//! Timing takes the **minimum over interleaved rounds** (`ROUNDS` per
//! configuration): wall-clock on shared runners wobbles by tens of percent,
//! and the interleaved minimum is the standard way to estimate the
//! undisturbed cost of each configuration under the same machine state.
//! The deterministic fields (`total_steps`, `local_work`, `shared_ops`,
//! `effectiveness` and the extra protocol counters) are what the CI gate
//! pins exactly; the ratio fields carry a tolerance and the noisy memory column
//! (`peak_rss_mb` from Linux procfs) a ±25% band (see the `perf_gate`
//! binary).

use std::time::Instant;

use amo_core::{run_scenario_simulated, KkConfig, KkLayout, KkProcess};
use amo_iterative::{run_iterative_scenario, IterConfig};
use amo_ostree::DenseFenwickSet;
use amo_sim::{
    boxed, last_net_stats, run_scenario, run_scenario_on, AtomicRegisters, BackendSpec, BoxProcess,
    CrashPlan, Engine, EngineLimits, LatencyDist, NetworkSpec, RoundRobin, ScenarioSpec,
    ThreadSpec, VecRegisters, WithCrashes,
};
use amo_write_all::{run_wa_scenario, WaConfig};

/// Timed rounds per configuration (minimum is reported).
const ROUNDS: usize = 3;

struct Entry {
    name: &'static str,
    params: String,
    /// Seed-equivalent configuration (per-element Fenwick structures +
    /// single-step engine), when measured for this workload.
    seed_ms: Option<f64>,
    single_ms: f64,
    fast_ms: f64,
    total_steps: u64,
    shared_ops: u64,
    /// Local basic operations (Definition 2.5's local share of work), the
    /// set layer's charges included.
    local_work: u64,
    effectiveness: Option<u64>,
    /// Peak resident set over this workload's runs (Linux procfs; `None`
    /// elsewhere, and `None` for workloads that run after a bigger one —
    /// the VmHWM reset floors at *current* RSS, so a later reading would
    /// mostly price retained heap from an earlier workload).
    peak_rss_kb: Option<u64>,
    /// Additional deterministic integer counters (emitted verbatim; the
    /// gate pins every integer workload field exactly).
    extra: Vec<(&'static str, u64)>,
    /// When `false`, the speed-ratio fields are omitted from the JSON so
    /// the gate never enforces them — used by workloads whose ratio is a
    /// cross-backend overhead (wall-clock too machine-sensitive to gate);
    /// their deterministic counters stay pinned exactly.
    emit_ratios: bool,
}

impl Entry {
    /// Fast path vs the single-step engine path (same structures).
    fn speedup_vs_single(&self) -> f64 {
        self.single_ms / self.fast_ms.max(1e-9)
    }

    /// Fast path vs the seed-equivalent baseline, when measured.
    fn speedup_vs_seed(&self) -> Option<f64> {
        self.seed_ms.map(|s| s / self.fast_ms.max(1e-9))
    }
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn kk_workload(n: usize, m: usize) -> Entry {
    amo_bench::mem::reset_peak_rss();
    let beta = KkConfig::work_optimal_beta(m);
    let config = KkConfig::with_beta(n, m, beta).expect("valid config");

    let run_seed = || {
        // Seed-equivalent baseline: the paper-faithful per-element Fenwick
        // structures driven one action at a time through the engine's
        // single-step path under strict round-robin — the configuration the
        // repo's seed executed.
        let layout = KkLayout::contiguous(m, n, false);
        let fleet: Vec<KkProcess<DenseFenwickSet>> = (1..=m)
            .map(|pid| KkProcess::from_config(pid, &config, layout))
            .collect();
        let mem = VecRegisters::new(layout.cells());
        let sched = WithCrashes::new(RoundRobin::new(), CrashPlan::default());
        Engine::new(mem, fleet, sched)
            .single_step()
            .run(EngineLimits::default())
    };
    // The same strict round-robin schedule through today's single-step
    // engine path with the production (blocked) structures.
    let run_single = || run_scenario_simulated(&config, &ScenarioSpec::round_robin());
    // The macro-stepping fast path (+ epoch cache + interleaved layout).
    let run_fast = || run_scenario_simulated(&config, &ScenarioSpec::round_robin_batched());

    let mut seed_ms = f64::MAX;
    let mut single_ms = f64::MAX;
    let mut fast_ms = f64::MAX;
    let mut triple = None;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let seed = run_seed();
        seed_ms = seed_ms.min(ms(t));
        let t = Instant::now();
        let single = run_single();
        single_ms = single_ms.min(ms(t));
        let t = Instant::now();
        let fast = run_fast();
        fast_ms = fast_ms.min(ms(t));
        triple = Some((seed, single, fast));
    }
    let (seed, single, fast) = triple.expect("ROUNDS >= 1");

    // Quantized round-robin, single-step reference (equivalence witness for
    // the fast path: identical schedule and options, per-action dispatch).
    let reference =
        run_scenario_simulated(&config, &ScenarioSpec::round_robin_batched().single_step());

    assert!(fast.violations.is_empty(), "kk safety");
    // Batching + caching must be observationally invisible (same quantized
    // schedule).
    assert_eq!(
        fast.performed, reference.performed,
        "fast path diverged from reference"
    );
    assert_eq!(
        fast.total_steps, reference.total_steps,
        "fast path diverged from reference"
    );
    assert_eq!(
        fast.mem_work, reference.mem_work,
        "fast path diverged from reference"
    );
    assert_eq!(
        fast.local_work, reference.local_work,
        "fast path diverged from reference"
    );
    // The structure swap must be observationally invisible too (same strict
    // schedule as the seed baseline; only the work counters may differ).
    assert_eq!(
        seed.total_steps, single.total_steps,
        "blocked structures diverged from seed"
    );
    assert_eq!(
        seed.mem_work, single.mem_work,
        "blocked structures diverged from seed"
    );
    assert_eq!(
        seed.effectiveness(),
        single.effectiveness,
        "blocked structures diverged"
    );

    Entry {
        name: "kk_plain_rr",
        params: format!("n={n} m={m} beta={beta}"),
        seed_ms: Some(seed_ms),
        single_ms,
        fast_ms,
        total_steps: fast.total_steps,
        shared_ops: fast.mem_work.total(),
        local_work: fast.local_work,
        effectiveness: Some(fast.effectiveness),
        peak_rss_kb: amo_bench::mem::peak_rss_kb(),
        extra: Vec::new(),
        emit_ratios: true,
    }
}

/// The at-scale workload: many jobs across a large fleet, where the `done`
/// region (`m·n` cells) far exceeds every cache level. No seed baseline
/// here — per-element Fenwick trees for million-element sets would measure
/// the allocator, not the algorithm; the single-step column is the
/// reference. Runs two interleaved rounds per configuration and reports
/// the minimum, which prices both configurations under the same warmed
/// allocator. The half-gigabyte register file is no longer written in
/// full when it is created (`VecRegisters::new` takes a zeroed
/// allocation), so a round pays first-touch faults only for the pages its
/// run writes. Full scale runs it as `kk_mega_rr` (n=10⁶, m=64);
/// quick scale as `kk_mega_quick` (n=10⁵, m=32) so the CI gate covers the
/// at-scale fast path and its `peak_rss_mb` too.
fn kk_mega_workload(name: &'static str, n: usize, m: usize) -> Entry {
    amo_bench::mem::reset_peak_rss();
    let beta = KkConfig::work_optimal_beta(m);
    let config = KkConfig::with_beta(n, m, beta).expect("valid config");
    let limits = EngineLimits::with_max_steps(2_000_000_000);

    let mut single_ms = f64::MAX;
    let mut fast_ms = f64::MAX;
    let mut pair = None;
    for _ in 0..2 {
        let t = Instant::now();
        let single =
            run_scenario_simulated(&config, &ScenarioSpec::round_robin().with_limits(limits));
        single_ms = single_ms.min(ms(t));
        let t = Instant::now();
        let fast = run_scenario_simulated(
            &config,
            &ScenarioSpec::round_robin_batched().with_limits(limits),
        );
        fast_ms = fast_ms.min(ms(t));
        pair = Some((single, fast));
    }
    let (single, fast) = pair.expect("two rounds ran");

    assert!(fast.violations.is_empty(), "kk mega safety");
    assert!(fast.completed && single.completed, "kk mega termination");

    Entry {
        name,
        params: format!("n={n} m={m} beta={beta}"),
        seed_ms: None,
        single_ms,
        fast_ms,
        total_steps: fast.total_steps,
        shared_ops: fast.mem_work.total(),
        local_work: fast.local_work,
        effectiveness: Some(fast.effectiveness),
        peak_rss_kb: amo_bench::mem::peak_rss_kb(),
        extra: Vec::new(),
        emit_ratios: true,
    }
}

fn iter_workload(n: usize, m: usize) -> Entry {
    let config = IterConfig::new(n, m, 1).expect("valid config");

    let mut single_ms = f64::MAX;
    let mut fast_ms = f64::MAX;
    let mut pair = None;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let single =
            run_iterative_scenario(&config, &ScenarioSpec::round_robin_batched().single_step());
        single_ms = single_ms.min(ms(t));
        let t = Instant::now();
        let fast = run_iterative_scenario(&config, &ScenarioSpec::round_robin_batched());
        fast_ms = fast_ms.min(ms(t));
        pair = Some((single, fast));
    }
    let (single, fast) = pair.expect("ROUNDS >= 1");

    assert!(fast.violations.is_empty(), "iter safety");
    assert_eq!(
        fast.performed, single.performed,
        "fast path diverged from reference"
    );
    assert_eq!(
        fast.total_steps, single.total_steps,
        "fast path diverged from reference"
    );
    assert_eq!(
        fast.local_work, single.local_work,
        "fast path diverged from reference"
    );

    Entry {
        name: "iter_step_kk",
        params: format!("n={n} m={m} 1/eps=1"),
        seed_ms: None,
        single_ms,
        fast_ms,
        total_steps: fast.total_steps,
        shared_ops: fast.mem_work.total(),
        local_work: fast.local_work,
        effectiveness: Some(fast.effectiveness),
        // No RSS column: VmHWM resets only to *current* RSS, which after
        // the mega workload is dominated by allocator-retained heap — a
        // reading here would gate the previous workload, not this one.
        peak_rss_kb: None,
        extra: Vec::new(),
        emit_ratios: true,
    }
}

fn write_all_workload(n: usize, m: usize) -> Entry {
    let config = WaConfig::new(n, m, 1).expect("valid config");

    let mut single_ms = f64::MAX;
    let mut fast_ms = f64::MAX;
    let mut pair = None;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let single = run_wa_scenario(&config, &ScenarioSpec::round_robin_batched().single_step());
        single_ms = single_ms.min(ms(t));
        let t = Instant::now();
        let fast = run_wa_scenario(&config, &ScenarioSpec::round_robin_batched());
        fast_ms = fast_ms.min(ms(t));
        pair = Some((single, fast));
    }
    let (single, fast) = pair.expect("ROUNDS >= 1");

    assert!(fast.complete, "write-all must complete");
    assert_eq!(
        fast.total_steps, single.total_steps,
        "fast path diverged from reference"
    );
    assert_eq!(
        fast.mem_work, single.mem_work,
        "fast path diverged from reference"
    );

    Entry {
        name: "write_all",
        params: format!("n={n} m={m} 1/eps=1"),
        seed_ms: None,
        single_ms,
        fast_ms,
        total_steps: fast.total_steps,
        shared_ops: fast.mem_work.total(),
        local_work: fast.local_work,
        effectiveness: None,
        // See iter_workload: a post-mega RSS reading is not this
        // workload's own.
        peak_rss_kb: None,
        extra: Vec::new(),
        emit_ratios: true,
    }
}

/// The quorum message-passing backend workload (engine-v7): KKβ over a
/// 3-replica lossless quorum network vs the same run on the plain volatile
/// file. The two are asserted bit-identical; `single_step_ms` times the
/// volatile run and `fast_path_ms` the quorum run, so the table's "vs
/// 1step" column shows the (sub-1x) protocol overhead ratio. That ratio is
/// *not* emitted to the JSON (`emit_ratios: false`): the protocol run's
/// wall-clock wobbles ~2x on shared runners, far outside the gate's
/// tolerance band, so gating it would flake — the timing columns stay as
/// informational `*_ms` fields. What the gate owns instead are the message
/// counters of the lossless run and of a deterministic lossy cell (seeded
/// drops + reordering + replica crashes), emitted as integer fields and
/// pinned exactly.
fn quorum_workload(n: usize, m: usize) -> Entry {
    let config = KkConfig::new(n, m).expect("valid config");
    let base = ScenarioSpec::round_robin_batched();
    let lossless = base.clone().with_backend(BackendSpec::quorum(3));

    let mut single_ms = f64::MAX;
    let mut fast_ms = f64::MAX;
    let mut pair = None;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let vec_run = run_scenario_simulated(&config, &base);
        single_ms = single_ms.min(ms(t));
        let t = Instant::now();
        let quorum_run = run_scenario_simulated(&config, &lossless);
        fast_ms = fast_ms.min(ms(t));
        pair = Some((vec_run, quorum_run));
    }
    let (vec_run, quorum_run) = pair.expect("ROUNDS >= 1");
    let stats = last_net_stats().expect("quorum runs publish net stats");

    assert!(quorum_run.violations.is_empty(), "quorum safety");
    assert_eq!(
        vec_run, quorum_run,
        "lossless quorum must be bit-identical to the volatile backend"
    );
    assert_eq!(stats.atomicity_violations, 0, "protocol oracle agreement");
    assert_eq!(stats.retransmissions, 0, "lossless runs never retransmit");

    // The deterministic lossy cell: seeded drops, reordering, latency and
    // replica crashes — still bit-identical, still oracle-clean, and its
    // traffic counters are a seeded pure function of the execution.
    let net = NetworkSpec::lossless(5)
        .with_seed(0x7E57)
        .with_latency(LatencyDist::Uniform { lo: 1, hi: 4 })
        .with_drop(150)
        .with_reorder(200)
        .with_replica_crashes(2);
    let lossy_run = run_scenario_simulated(&config, &base.clone().quorum(net));
    assert_eq!(vec_run, lossy_run, "lossy quorum diverged");
    let lossy = last_net_stats().expect("quorum runs publish net stats");
    assert_eq!(lossy.atomicity_violations, 0, "lossy oracle agreement");

    Entry {
        name: "kk_quorum_net",
        params: format!("n={n} m={m} k=3 lossless + k=5 lossy"),
        seed_ms: None,
        single_ms,
        fast_ms,
        total_steps: quorum_run.total_steps,
        shared_ops: quorum_run.work(),
        local_work: quorum_run.local_work,
        effectiveness: Some(quorum_run.effectiveness),
        peak_rss_kb: None,
        extra: vec![
            ("net_messages", stats.messages_sent),
            ("net_one_round_reads", stats.reads_one_round),
            ("net_writes", stats.writes),
            ("lossy_messages", lossy.messages_sent),
            ("lossy_dropped", lossy.messages_dropped),
            ("lossy_retransmissions", lossy.retransmissions),
            ("lossy_read_writebacks", lossy.read_writebacks),
            ("lossy_fd_packets", lossy.fd_packets),
            ("lossy_suspicions", lossy.suspicions),
        ],
        emit_ratios: false,
    }
}

/// The hardware-atomics workload (engine-v8): KKβ over [`AtomicRegisters`].
///
/// Two legs share the fleet construction. The **deterministic leg** runs
/// the serialized engine on the atomic register file with an *erased*
/// (`BoxProcess`) fleet and asserts it bit-identical to the static fleet
/// on the volatile `VecRegisters` file — pinning, inside the gate binary,
/// both that the backend swap and that dyn erasure are observationally
/// free; its integer counters are what the gate owns. The **threaded
/// leg** drives the same erased fleet through [`ThreadSpec`] on real OS
/// threads: genuinely racy, so only its *guarantees* are asserted (zero
/// violations, the effectiveness floor, termination) and its wall-clock
/// is reported informationally. `single_step_ms` times the serialized
/// volatile run and `fast_path_ms` the real-thread run; like the quorum
/// workload the ratio is a cross-runtime overhead too machine-sensitive
/// to gate, so `emit_ratios: false` keeps the timing columns out of the
/// JSON while every deterministic counter stays pinned exactly.
fn atomic_threads_workload(n: usize, m: usize) -> Entry {
    let config = KkConfig::new(n, m).expect("valid config");
    let layout = KkLayout::contiguous(m, n, false);
    let spec = ScenarioSpec::round_robin_batched();
    let static_fleet = || -> Vec<KkProcess> {
        (1..=m)
            .map(|pid| KkProcess::from_config(pid, &config, layout))
            .collect()
    };
    let boxed_fleet = || -> Vec<BoxProcess> {
        (1..=m)
            .map(|pid| {
                boxed(KkProcess::<amo_ostree::FenwickSet>::from_config(
                    pid, &config, layout,
                ))
            })
            .collect()
    };

    let mut single_ms = f64::MAX;
    let mut fast_ms = f64::MAX;
    let mut pair = None;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let (vec_exec, _, _) =
            run_scenario(VecRegisters::new(layout.cells()), static_fleet(), &spec);
        single_ms = single_ms.min(ms(t));
        let mem = AtomicRegisters::new(layout.cells());
        let t = Instant::now();
        let threaded = ThreadSpec::new().run(&mem, boxed_fleet());
        fast_ms = fast_ms.min(ms(t));
        pair = Some((vec_exec, threaded));
    }
    let (vec_exec, threaded) = pair.expect("ROUNDS >= 1");

    // Deterministic leg: serialized engine, hardware atomics, erased fleet.
    let (atomic_exec, _, _) =
        run_scenario_on(AtomicRegisters::new(layout.cells()), boxed_fleet(), &spec);
    assert_eq!(
        atomic_exec, vec_exec,
        "serialized atomic+dyn run must be bit-identical to the volatile static run"
    );
    assert!(atomic_exec.violations().is_empty(), "atomic safety");

    // Threaded leg: racy, so assert the guarantees rather than a replay.
    assert!(threaded.violations().is_empty(), "thread safety");
    assert!(threaded.completed, "thread termination");
    assert!(
        threaded.effectiveness() >= config.effectiveness_bound(),
        "thread effectiveness floor"
    );

    Entry {
        name: "kk_atomic_threads",
        params: format!("n={n} m={m} beta={}", config.beta()),
        seed_ms: None,
        single_ms,
        fast_ms,
        total_steps: atomic_exec.total_steps,
        shared_ops: atomic_exec.mem_work.total(),
        local_work: atomic_exec.local_work,
        effectiveness: Some(atomic_exec.effectiveness()),
        peak_rss_kb: None,
        extra: vec![("thread_effectiveness_floor", config.effectiveness_bound())],
        emit_ratios: false,
    }
}

fn json(entries: &[Entry], scale: amo_bench::Scale) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"amo-bench/engine-v11\",\n");
    out.push_str(&format!(
        "  \"scale\": \"{}\",\n",
        if scale.is_quick() { "quick" } else { "full" }
    ));
    out.push_str("  \"workloads\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", e.name));
        out.push_str(&format!("      \"params\": \"{}\",\n", e.params));
        if let Some(s) = e.seed_ms {
            out.push_str(&format!("      \"seed_equivalent_ms\": {s:.2},\n"));
        }
        out.push_str(&format!("      \"single_step_ms\": {:.2},\n", e.single_ms));
        out.push_str(&format!("      \"fast_path_ms\": {:.2},\n", e.fast_ms));
        if e.emit_ratios {
            if let Some(s) = e.speedup_vs_seed() {
                out.push_str(&format!("      \"speedup_vs_seed\": {s:.3},\n"));
            }
            out.push_str(&format!(
                "      \"speedup_vs_single_step\": {:.3},\n",
                e.speedup_vs_single()
            ));
        }
        if let Some(kb) = e.peak_rss_kb {
            out.push_str(&format!(
                "      \"peak_rss_mb\": {:.1},\n",
                kb as f64 / 1024.0
            ));
        }
        out.push_str(&format!("      \"total_steps\": {},\n", e.total_steps));
        out.push_str(&format!("      \"local_work\": {},\n", e.local_work));
        for (key, v) in &e.extra {
            // Deterministic protocol counters: integers on purpose, so the
            // gate pins them exactly like the step counters.
            out.push_str(&format!("      \"{key}\": {v},\n"));
        }
        out.push_str(&format!("      \"shared_ops\": {}", e.shared_ops));
        if let Some(eff) = e.effectiveness {
            out.push_str(&format!(",\n      \"effectiveness\": {eff}\n"));
        } else {
            out.push('\n');
        }
        out.push_str(if i + 1 < entries.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = amo_bench::cli_scale();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or_else(|| "BENCH_engine.json".to_owned(), Clone::clone);

    let started = Instant::now();
    let entries = if scale.is_quick() {
        vec![
            kk_workload(20_000, 8),
            // Scaled-down mega workload: without it the quick gate never
            // touched the at-scale fast path at all.
            kk_mega_workload("kk_mega_quick", 100_000, 32),
            iter_workload(10_000, 4),
            write_all_workload(10_000, 4),
            quorum_workload(20_000, 8),
            atomic_threads_workload(20_000, 8),
        ]
    } else {
        vec![
            kk_workload(100_000, 16),
            kk_mega_workload("kk_mega_rr", 1_000_000, 64),
            iter_workload(50_000, 8),
            write_all_workload(50_000, 8),
            quorum_workload(50_000, 8),
            atomic_threads_workload(50_000, 16),
        ]
    };

    println!("engine perf smoke ({scale:?})");
    println!(
        "{:<14} {:<26} {:>9} {:>10} {:>9} {:>9} {:>9} {:>13} {:>8}",
        "workload",
        "params",
        "seed ms",
        "single ms",
        "fast ms",
        "vs seed",
        "vs 1step",
        "total steps",
        "rss MB"
    );
    for e in &entries {
        println!(
            "{:<14} {:<26} {:>9} {:>10.1} {:>9.1} {:>9} {:>8.2}x {:>13} {:>8}",
            e.name,
            e.params,
            e.seed_ms.map_or_else(|| "-".into(), |s| format!("{s:.1}")),
            e.single_ms,
            e.fast_ms,
            e.speedup_vs_seed()
                .map_or_else(|| "-".into(), |s| format!("{s:.2}x")),
            e.speedup_vs_single(),
            e.total_steps,
            e.peak_rss_kb
                .map_or_else(|| "-".into(), |kb| format!("{:.1}", kb as f64 / 1024.0)),
        );
    }

    std::fs::write(&out_path, json(&entries, scale)).expect("write BENCH_engine.json");
    eprintln!("[perf_smoke] wrote {out_path} in {:.1?}", started.elapsed());

    // Regression gates on the plain-KKβ round-robin workload: the fast path
    // must beat the seed-equivalent configuration by a healthy margin and
    // must never lose to the single-step path on the same structures. The
    // hard in-binary gates are deliberately below the recorded values
    // (shared runners wobble); the committed-baseline comparison with a
    // ±tolerance lives in the `perf_gate` binary, which CI runs against
    // BENCH_engine.quick.json.
    let kk = &entries[0];
    let vs_seed = kk
        .speedup_vs_seed()
        .expect("kk workload measures the seed baseline");
    let floor = if scale.is_quick() { 1.8 } else { 3.0 };
    if vs_seed < floor {
        eprintln!("[perf_smoke] FAIL: kk_plain_rr speedup vs seed {vs_seed:.2}x < {floor}x");
        std::process::exit(1);
    }
    if kk.speedup_vs_single() < 0.95 {
        eprintln!(
            "[perf_smoke] FAIL: fast path regressed vs single-step ({:.2}x)",
            kk.speedup_vs_single()
        );
        std::process::exit(1);
    }
}
