//! The measurement loop shared by the two simulation workloads, and the
//! per-layer numbers of their traced runs.

use std::time::{Duration, Instant};

use amo_sim::{DurableStats, Execution, VecRegisters};

use crate::report::Outcome;
use crate::stats::{median, peak_rss_mb, percentiles, Percentiles};
use crate::trace::{self, Trace};
use crate::yardstick;

/// What a traced simulation hands back besides its execution.
pub struct TracedRun {
    /// The execution, to be compared `==` with the untraced one.
    pub exec: Execution,
    /// The final (volatile) register file.
    pub mem: VecRegisters,
    /// Wall time of the engine run.
    pub wall: Duration,
    /// What the wrappers recorded.
    pub trace: Trace,
    /// Journaling counters, when the file was journaled.
    pub durable: Option<DurableStats>,
}

/// A simulation workload: its scenarios are fixed when the value is built
/// (from the seed), and every run of one scenario must produce the same
/// execution.
pub trait Simulation {
    /// The set-up work done before the timed run: fleet and register file.
    type Input;

    /// Jobs in the instance (`n`).
    fn jobs(&self) -> u64;

    /// Scenarios of the instance; repetitions cycle through them.
    fn scenarios(&self) -> usize {
        1
    }

    /// Builds the fleet and register file.
    fn setup(&self) -> Self::Input;

    /// Runs scenario `scenario` to termination through the program's
    /// scenario driver (the timed part).
    fn run(&self, scenario: usize, input: Self::Input) -> (Execution, VecRegisters);

    /// Runs scenario `scenario` through the tracing wrappers, driving the
    /// engine directly.
    fn run_traced(&self, scenario: usize) -> TracedRun;

    /// Checks one run's outputs, counting each check in `out`, and returns
    /// its effectiveness ratio.
    fn check(&self, exec: &Execution, mem: &VecRegisters, out: &mut Outcome) -> f64;

    /// Human-readable description of the instance.
    fn describe(&self) -> String;
}

/// Set-ups per repetition while they stay cheap: a few milliseconds of
/// set-up do not repeat within a tenth on their own, and whether the
/// allocator hands out warm or fresh pages varies from one to the next.
const SETUP_SAMPLES: usize = 5;
/// Set-up time per repetition beyond which no further sample is taken.
const SETUP_BUDGET_S: f64 = 0.05;

/// Sets up the instance, timing each set-up into `samples`, several times
/// while that stays within [`SETUP_BUDGET_S`]; returns the last input.
fn timed_setup<S: Simulation>(sim: &S, samples: &mut Vec<f64>) -> S::Input {
    let mut spent = 0.0;
    let mut taken = 0;
    loop {
        let t = Instant::now();
        let input = sim.setup();
        let s = t.elapsed().as_secs_f64();
        samples.push(s);
        spent += s;
        taken += 1;
        if taken == SETUP_SAMPLES || spent >= SETUP_BUDGET_S {
            return input;
        }
    }
}

/// The first execution of a scenario, with the claim gaps it implies.
struct FirstRun {
    exec: Execution,
    gaps: Option<Percentiles>,
}

/// Cycles per run at the least, so that every scenario is repeated and its
/// repetitions can be compared.
const MIN_CYCLES: usize = 2;

/// Runs whole cycles (set-up and run of every scenario once) and stops at
/// the end of the cycle that ends nearest to `seconds`, after at least
/// `MIN_CYCLES`; checks every repetition and records the end-to-end
/// metrics.
///
/// Every run is timed between two [`yardstick`] samples, and its time is
/// corrected to the yardstick's nominal core speed. Each scenario's run
/// time is the median of its corrected repetitions, and the scenarios
/// weigh equally: `jobs_per_s` is `n` over the mean of those medians, so
/// neither the host's speed nor the repetition count decides how often a
/// costlier scenario enters the figure.
pub fn measure<S: Simulation>(sim: &S, seconds: f64, out: &mut Outcome) {
    println!("instance: {}", sim.describe());
    let n = sim.jobs() as f64;
    let scenarios = sim.scenarios();
    yardstick::sample(); // warm-up: the first sample runs on cold caches
    let began = Instant::now();
    let mut setups = Vec::new();
    let mut runs: Vec<Vec<f64>> = vec![Vec::new(); scenarios];
    let mut raw: Vec<Vec<f64>> = vec![Vec::new(); scenarios];
    let mut yardsticks = Vec::new();
    let mut firsts: Vec<Option<FirstRun>> = (0..scenarios).map(|_| None).collect();
    let mut effectiveness = Vec::new();
    let mut cycles = 0;
    loop {
        for (scenario, first) in firsts.iter_mut().enumerate() {
            let input = timed_setup(sim, &mut setups);
            let before = yardstick::sample();
            let t = Instant::now();
            let (exec, mem) = sim.run(scenario, input);
            let run_s = t.elapsed().as_secs_f64();
            let after = yardstick::sample();
            raw[scenario].push(run_s);
            runs[scenario].push(yardstick::corrected(run_s, before, after));
            yardsticks.push((before * after).sqrt());
            effectiveness.push(sim.check(&exec, &mem, out));
            drop(mem);
            match first {
                Some(first) => out.check(
                    first.exec == exec,
                    "a repeated run produced a different execution",
                ),
                None => {
                    let gaps = claim_gaps(&exec);
                    out.check(gaps.is_some(), "no job was performed");
                    println!(
                        "scenario {scenario}: total_steps {}  crashed {:?}  restarted {:?}  \
                         work_per_job {:.3} ops/job (Definition 2.5, deterministic)",
                        exec.total_steps,
                        exec.crashed,
                        exec.restarted,
                        exec.work() as f64 / n
                    );
                    if let Some(gaps) = &gaps {
                        println!("scenario {scenario}: claim gap (global steps): {gaps}");
                    }
                    *first = Some(FirstRun { exec, gaps });
                }
            }
        }
        cycles += 1;
        let elapsed = began.elapsed().as_secs_f64();
        if cycles >= MIN_CYCLES && elapsed + elapsed / cycles as f64 / 2.0 >= seconds {
            break;
        }
    }
    println!(
        "cycles: {cycles}  setup_s ({} samples): {}",
        setups.len(),
        list(&setups)
    );
    println!(
        "yardstick_s around each run, in run order (nominal {}): {}",
        yardstick::NOMINAL_S,
        list(&yardsticks)
    );
    let mut cycle_s = 0.0;
    let mut claim_p50_us = 0.0;
    for (scenario, (times, first)) in runs.iter_mut().zip(&firsts).enumerate() {
        println!(
            "scenario {scenario}: run_s {}  corrected {}",
            list(&raw[scenario]),
            list(times)
        );
        let run_s = median(times);
        cycle_s += run_s;
        let first = first.as_ref().expect("every scenario ran");
        if let Some(gaps) = &first.gaps {
            claim_p50_us += gaps.p50 * run_s * 1e6 / first.exec.total_steps as f64;
        }
    }
    let scenarios = scenarios as f64;
    out.set("setup_s", median(&mut setups));
    out.set("jobs_per_s", n * scenarios / cycle_s);
    out.set("effectiveness_ratio", median(&mut effectiveness));
    out.set("claim_p50_us", claim_p50_us / scenarios);
    if let Some(rss) = peak_rss_mb() {
        out.set("peak_rss_mb", rss);
    }
}

/// A simulated process's claim latency in global steps: the steps from
/// one of its `do` actions to its next (from time 0 for its first). The
/// host time per step converts it to us.
fn claim_gaps(exec: &Execution) -> Option<Percentiles> {
    let mut last = vec![0u64; exec.per_proc_steps.len()];
    let mut gaps: Vec<f64> = exec
        .performed
        .iter()
        .map(|r| {
            let gap = r.step - last[r.pid - 1];
            last[r.pid - 1] = r.step;
            gap as f64
        })
        .collect();
    percentiles(&mut gaps)
}

/// Alternates untraced and traced runs, cycling through the scenarios,
/// until `seconds` have passed; checks that each traced execution equals
/// the untraced one, and records the per-layer metrics of the last traced
/// run.
pub fn measure_traced<S: Simulation>(sim: &S, seconds: f64, out: &mut Outcome) {
    println!("instance: {}", sim.describe());
    let cal = trace::calibrate();
    let began = Instant::now();
    let mut ratios = Vec::new();
    let mut last = None;
    while ratios.is_empty() || began.elapsed().as_secs_f64() < seconds {
        let scenario = ratios.len() % sim.scenarios();
        let input = sim.setup();
        let t = Instant::now();
        let (exec, mem) = sim.run(scenario, input);
        let untraced = t.elapsed();
        sim.check(&exec, &mem, out);
        let epoch_mem_mb = mem.epoch_mem_bytes() as f64 / (1 << 20) as f64;
        drop(mem);
        let traced = sim.run_traced(scenario);
        sim.check(&traced.exec, &traced.mem, out);
        out.check(
            traced.exec == exec,
            "the traced execution differs from the untraced one",
        );
        ratios.push(traced.wall.as_secs_f64() / untraced.as_secs_f64());
        last = Some((traced, untraced, epoch_mem_mb));
    }
    let (traced, untraced, epoch_mem_mb) = last.expect("at least one traced run");
    println!("traced/untraced wall ratios: {}", list(&ratios));
    out.set("trace.overhead_ratio", median(&mut ratios));
    out.set("reg.epoch_mem_mb", epoch_mem_mb);
    if let Some(gaps) = claim_gaps(&traced.exec) {
        let us_per_step = untraced.as_secs_f64() * 1e6 / traced.exec.total_steps as f64;
        println!(
            "claim latency (us, untraced run): {}",
            gaps.scaled(us_per_step)
        );
        out.set("claim_p90_us", gaps.p90 * us_per_step);
    }
    layer_metrics(sim.jobs() as f64, &traced, untraced, &cal, out);
}

/// Per-layer counts and times of one traced simulation (see the
/// [`trace`] module docs for how self time is attributed).
fn layer_metrics(
    n: f64,
    run: &TracedRun,
    untraced: Duration,
    cal: &trace::Calibration,
    out: &mut Outcome,
) {
    let t = &run.trace;
    let exec = &run.exec;
    let layers = [t.sched, t.proc, t.set, t.reg_in_proc, t.reg_in_engine];
    let instrumentation: f64 = layers.iter().map(|l| l.cost_ns(cal)).sum();
    let total = run.wall.as_nanos() as f64 - instrumentation;
    let sched = t.sched.estimate_ns();
    let set = t.set.estimate_ns();
    let reg_proc = t.reg_in_proc.estimate_ns();
    let reg_engine = t.reg_in_engine.estimate_ns();
    // An automaton call's duration includes instrumenting its children.
    let proc = t.proc.estimate_ns() - t.set.cost_ns(cal) - t.reg_in_proc.cost_ns(cal);
    let proc_self = (proc - set - reg_proc).max(0.0);
    let engine_self = (total - sched - proc - reg_engine).max(0.0);
    let steps = exec.total_steps as f64;
    let decisions = t.decisions as f64;
    let reg_calls = (t.reg_in_proc.calls + t.reg_in_engine.calls) as f64;

    out.set("work_per_job", exec.work() as f64 / n);
    out.set("sched.decisions_per_job", decisions / n);
    out.set("sched.ns_per_decision", sched / decisions);
    out.set("sched.share", sched / total);
    out.set("engine.actions_per_job", steps / n);
    out.set("engine.actions_per_decision", steps / decisions);
    out.set("engine.actions_per_s", steps / untraced.as_secs_f64());
    out.set("engine.self_share", engine_self / total);
    out.set("proc.calls_per_job", t.proc.calls as f64 / n);
    out.set("proc.self_ns_per_action", proc_self / steps);
    out.set("proc.share", proc_self / total);
    for (name, calls) in ["announce", "gather_try", "gather_done", "comp_next", "do"]
        .iter()
        .zip(t.kk_calls)
    {
        out.set(format!("kk.calls.{name}"), calls as f64);
    }
    for (op, calls) in crate::report::SET_OPS.iter().zip(t.set_calls) {
        out.set(format!("set.calls_per_job.{op}"), calls as f64 / n);
    }
    if t.set.calls > 0 {
        out.set("set.ns_per_call", set / t.set.calls as f64);
    }
    out.set("set.work_per_job", t.set_ops as f64 / n);
    out.set("set.share", set / total);
    out.set("reg.reads_per_job", t.reads as f64 / n);
    out.set("reg.peeks_per_job", t.peeks as f64 / n);
    out.set("reg.writes_per_job", t.writes as f64 / n);
    out.set("reg.ns_per_access", (reg_proc + reg_engine) / reg_calls);
    out.set("reg.share", (reg_proc + reg_engine) / total);
    if let Some(d) = run.durable {
        out.set("durable.journaled_per_job", d.journaled as f64 / n);
        out.set("durable.barriers_per_job", d.barriers as f64 / n);
        out.set("durable.blackouts", d.blackouts as f64);
        out.set("durable.dropped_records", d.dropped_records as f64);
        out.set("durable.checkpoints", d.checkpoints as f64);
    }
    println!(
        "layer self time (ms): engine {:.1}  sched {:.1}  proc {:.1}  set {:.1}  reg {:.1}  \
         of traced wall {:.1} less {:.1} instrumentation (per call: {:.1} ns counted, {:.1} ns \
         sampled)",
        engine_self / 1e6,
        sched / 1e6,
        proc_self / 1e6,
        set / 1e6,
        (reg_proc + reg_engine) / 1e6,
        run.wall.as_nanos() as f64 / 1e6,
        instrumentation / 1e6,
        cal.counted_ns,
        cal.sampled_ns
    );
    for (name, l) in [
        ("sched", t.sched),
        ("proc", t.proc),
        ("set", t.set),
        ("reg in proc", t.reg_in_proc),
        ("reg in engine", t.reg_in_engine),
    ] {
        println!(
            "  {name}: {} calls, {} timed (mean {:.1} ns), {} empty (mean {:.1} ns)",
            l.calls,
            l.timed,
            l.timed_ns / l.timed.max(1) as f64,
            l.nulls,
            l.null_ns / l.nulls.max(1) as f64
        );
    }
}

fn list(values: &[f64]) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    format!("[{}]", parts.join(", "))
}
