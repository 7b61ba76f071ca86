use std::hash::{Hash, Hasher};

use amo_iterative::{IterConfig, IterLayout, IterativeProcess};
use amo_sim::{BatchOutcome, JobSpan, Process, Registers, StepEvent};

/// Register layout for `WA_IterativeKK(ε)`: the iterated algorithm's stage
/// layouts followed by the Write-All array `wa[1..n]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaLayout {
    iter: IterLayout,
    wa_base: usize,
}

impl WaLayout {
    /// Builds the layout for a configuration.
    pub fn new(config: &IterConfig) -> Self {
        let iter = config.layout();
        let wa_base = iter.cells();
        Self { iter, wa_base }
    }

    /// The stage layouts of the underlying iterated algorithm.
    pub fn iter(&self) -> &IterLayout {
        &self.iter
    }

    /// The cell holding `wa[job]` (`job ∈ 1..=n`).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `job` is out of range.
    pub fn wa_cell(&self, job: u64) -> usize {
        debug_assert!(
            job >= 1 && job <= self.iter.n() as u64,
            "job {job} out of 1..={}",
            self.iter.n()
        );
        self.wa_base + job as usize - 1
    }

    /// First cell of the `wa` array.
    pub fn wa_base(&self) -> usize {
        self.wa_base
    }

    /// Total register cells (stages + `wa`).
    pub fn cells(&self) -> usize {
        self.wa_base + self.iter.n()
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum WaPhase {
    /// Delegating to the iterated driver.
    Driving,
    /// Writing the cells of a performed super-job, one per step.
    WritingSpan { next: u64, hi: u64 },
    /// Fig. 4 lines 14–16: performing every leftover job of the final
    /// output set (one write per step).
    FinalLoop { jobs: Vec<u64>, idx: usize },
    /// Terminated.
    Done,
}

/// One process of `WA_IterativeKK(ε)` (Fig. 4).
///
/// Wraps an [`IterativeProcess`] in the `FREE`-output variant and turns
/// every performed super-job into actual writes of `1` into the `wa` array
/// (one cell per step, so work accounting matches the model: a `do` on a
/// block of `s` jobs costs `s` shared writes). After the final stage it
/// enters the terminal loop, writing every job left in its output set —
/// redundantly if need be, which is what makes *completion* certain.
///
/// # Examples
///
/// ```
/// use amo_iterative::IterConfig;
/// use amo_sim::{Process, Registers, VecRegisters};
/// use amo_write_all::{certify, WaIterativeProcess, WaLayout};
///
/// let config = IterConfig::new(64, 1, 1)?;
/// let layout = WaLayout::new(&config);
/// let mem = VecRegisters::new(layout.cells());
/// let mut p = WaIterativeProcess::new(1, &config, layout.clone());
/// while !p.is_terminated() {
///     p.step(&mem);
/// }
/// assert!(certify(&mem, &layout).complete);
/// # Ok::<(), amo_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WaIterativeProcess {
    inner: IterativeProcess,
    layout: WaLayout,
    phase: WaPhase,
    wa_writes: u64,
    // Construction parameters, kept so `on_restart` can rebuild the wrapped
    // driver from scratch (its per-stage state was volatile).
    beta: u64,
    cache: bool,
    // Local work of previous lives (the rebuilt driver restarts its own
    // counter at zero, but Definition 2.5 work is per automaton, not per
    // life).
    banked_local_work: u64,
}

impl WaIterativeProcess {
    /// Creates the process for `pid ∈ 1..=m`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range or the layout does not match the
    /// configuration.
    pub fn new(pid: usize, config: &IterConfig, layout: WaLayout) -> Self {
        assert_eq!(layout.iter().n(), config.n(), "layout/config mismatch");
        let inner = IterativeProcess::new(pid, layout.iter().clone(), config.beta(), true);
        Self {
            inner,
            layout,
            phase: WaPhase::Driving,
            wa_writes: 0,
            beta: config.beta(),
            cache: false,
            banked_local_work: 0,
        }
    }

    /// Enables or disables the announcement-epoch cache on the wrapped
    /// driver (see `amo_core::KkProcess::set_epoch_cache`). Call before the
    /// first step.
    pub fn set_epoch_cache(&mut self, enabled: bool) {
        self.cache = enabled;
        self.inner.set_epoch_cache(enabled);
    }

    /// `true` once the terminal loop has finished.
    pub fn is_terminated(&self) -> bool {
        self.phase == WaPhase::Done
    }

    /// Writes into the `wa` array so far (the redundancy numerator).
    pub fn wa_writes(&self) -> u64 {
        self.wa_writes
    }

    /// The wrapped iterated driver (inspection).
    pub fn inner(&self) -> &IterativeProcess {
        &self.inner
    }

    fn write_one<R: Registers + ?Sized>(&mut self, mem: &R, job: u64) -> usize {
        let cell = self.layout.wa_cell(job);
        mem.write(cell, 1);
        self.wa_writes += 1;
        cell
    }

    /// A lower bound on the number of driver actions before the next
    /// possible `Perform`, from the driver's current stage phase. `0` means
    /// "a `do` may be imminent — use the per-action path".
    ///
    /// The bound is conservative: a `gatherDone` sweep only gets *longer*
    /// when log entries are consumed, and the final-gather path of a stage
    /// cannot perform at all (its last counted action is the stage's
    /// `Output`, so a bounded batch never crosses into the next stage's
    /// cycle).
    fn drive_bound(&self) -> u64 {
        use amo_core::KkPhase;
        let kk = self.inner.inner();
        let m = self.layout.iter().m() as u64;
        let q = kk.gather_cursor() as u64;
        let rem = m - q + 1;
        match kk.phase() {
            // Finish this sweep, then at least m gatherDone actions, check
            // and flagRead before a do.
            KkPhase::GatherTry => rem + m + 2,
            // Finish this sweep, then check and flagRead.
            KkPhase::GatherDone => rem + 2,
            // The terminal path never performs; stop at the stage's Output.
            KkPhase::FinalGatherTry => rem + m + 1,
            KkPhase::FinalGatherDone => rem + 1,
            _ => 0,
        }
    }
}

impl<R: Registers + ?Sized> Process<R> for WaIterativeProcess {
    fn step(&mut self, mem: &R) -> StepEvent {
        match &mut self.phase {
            WaPhase::Driving => match self.inner.step(mem) {
                StepEvent::Perform { span } => {
                    self.phase = WaPhase::WritingSpan {
                        next: span.lo,
                        hi: span.hi,
                    };
                    StepEvent::Perform { span }
                }
                StepEvent::Terminated => {
                    let jobs: Vec<u64> = self
                        .inner
                        .final_output()
                        .expect("driver terminated with an output")
                        .iter()
                        .collect();
                    self.phase = WaPhase::FinalLoop { jobs, idx: 0 };
                    StepEvent::Local
                }
                other => other,
            },
            WaPhase::WritingSpan { next, hi } => {
                let job = *next;
                let done = *next == *hi;
                *next += 1;
                if done {
                    self.phase = WaPhase::Driving;
                }
                let cell = self.write_one(mem, job);
                StepEvent::Write { cell }
            }
            WaPhase::FinalLoop { jobs, idx } => {
                if *idx < jobs.len() {
                    let job = jobs[*idx];
                    *idx += 1;
                    let cell = self.write_one(mem, job);
                    // The terminal loop is a sequence of `do` actions
                    // (Fig. 4 line 15); report the perform so the harness
                    // can measure redundancy. The write itself is already
                    // counted by the register file.
                    let _ = cell;
                    StepEvent::Perform {
                        span: JobSpan::single(job),
                    }
                } else {
                    self.phase = WaPhase::Done;
                    StepEvent::Terminated
                }
            }
            WaPhase::Done => {
                debug_assert!(false, "stepped after termination");
                StepEvent::Terminated
            }
        }
    }

    /// Macro-stepping fast path (see the [`Process::step_many`] contract).
    ///
    /// The write loops — `WritingSpan` after each super-job `do` and the
    /// terminal `FinalLoop` — are the `n`-dominant phases (one `wa`-array
    /// write per action) and run batched. The `Driving` phase must splice
    /// its span writes in immediately after every `Perform` of the inner
    /// driver, so it hands the driver a *bounded* batch: from the current
    /// inner phase, a `do` cannot occur within the next
    /// `drive_bound` actions (a gather sweep must
    /// finish, plus the minimum `gatherDone`/`check`/`flagRead` tail), so
    /// batches capped at that bound run the driver's dominant sweep loops —
    /// including the epoch-cache whole-sweep skips — without per-action
    /// dispatch, while every `Perform` still falls on the per-action path.
    fn step_many(&mut self, mem: &R, budget: u64) -> BatchOutcome {
        debug_assert!(budget >= 1, "step_many needs a positive budget");
        let mut steps: u64 = 0;
        let mut performed: Vec<(u64, JobSpan)> = Vec::new();
        while steps < budget {
            if matches!(self.phase, WaPhase::Driving) {
                let bound = self.drive_bound();
                if bound >= 1 {
                    let inner_budget = bound.min(budget - steps);
                    let out = Process::<R>::step_many(&mut self.inner, mem, inner_budget);
                    debug_assert!(
                        out.performed.is_empty(),
                        "a do slipped into a bounded driver batch"
                    );
                    steps += out.steps;
                    if out.terminated {
                        // The driver's terminating action is the wrapper's
                        // *local* transition into the terminal loop, exactly
                        // as on the single-step path.
                        let jobs: Vec<u64> = self
                            .inner
                            .final_output()
                            .expect("driver terminated with an output")
                            .iter()
                            .collect();
                        self.phase = WaPhase::FinalLoop { jobs, idx: 0 };
                    }
                    continue;
                }
            }
            match &mut self.phase {
                WaPhase::WritingSpan { next, hi } => {
                    let mut job = *next;
                    let hi = *hi;
                    let mut finished = false;
                    while steps < budget {
                        finished = job == hi;
                        self.wa_writes += 1;
                        mem.write(self.layout.wa_cell(job), 1);
                        job += 1;
                        steps += 1;
                        if finished {
                            break;
                        }
                    }
                    if finished {
                        self.phase = WaPhase::Driving;
                    } else if let WaPhase::WritingSpan { next, .. } = &mut self.phase {
                        *next = job;
                    }
                }
                WaPhase::FinalLoop { jobs, idx } => {
                    while steps < budget {
                        if *idx < jobs.len() {
                            let job = jobs[*idx];
                            *idx += 1;
                            performed.push((steps, JobSpan::single(job)));
                            steps += 1;
                            self.wa_writes += 1;
                            mem.write(self.layout.wa_cell(job), 1);
                        } else {
                            self.phase = WaPhase::Done;
                            steps += 1;
                            return BatchOutcome {
                                steps,
                                performed,
                                terminated: true,
                            };
                        }
                    }
                }
                _ => {
                    let event = self.step(mem);
                    steps += 1;
                    match event {
                        StepEvent::Perform { span } => performed.push((steps - 1, span)),
                        StepEvent::Terminated => {
                            return BatchOutcome {
                                steps,
                                performed,
                                terminated: true,
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        BatchOutcome {
            steps,
            performed,
            terminated: false,
        }
    }

    fn pid(&self) -> usize {
        Process::<R>::pid(&self.inner)
    }

    fn is_terminated(&self) -> bool {
        WaIterativeProcess::is_terminated(self)
    }

    fn local_work(&self) -> u64 {
        self.banked_local_work + self.inner.local_work()
    }

    fn supports_restart(&self) -> bool {
        true
    }

    /// Restart semantics of `WA_IterativeKK(ε)`: the driver's per-stage
    /// local state (announcement sets, gather cursors, output accumulators)
    /// was volatile, so the process re-runs the whole iterated algorithm
    /// from its first stage against the *recovered* shared memory — claims
    /// and `wa` cells it wrote before the crash are still (durably) visible
    /// to everyone, so re-driving can at worst redo work the terminal loop
    /// would have redone anyway. The cumulative `wa_writes`/`local_work`
    /// counters persist: this is the same automaton resuming, not a new
    /// one.
    fn on_restart(&mut self, _mem: &R) {
        let pid = Process::<R>::pid(&self.inner);
        self.banked_local_work += self.inner.local_work();
        self.inner = IterativeProcess::new(pid, self.layout.iter().clone(), self.beta, true);
        self.inner.set_epoch_cache(self.cache);
        self.phase = WaPhase::Driving;
    }
}

impl PartialEq for WaIterativeProcess {
    fn eq(&self, other: &Self) -> bool {
        self.inner == other.inner && self.phase == other.phase
    }
}

impl Eq for WaIterativeProcess {}

impl Hash for WaIterativeProcess {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.inner.hash(state);
        self.phase.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certify::certify;
    use amo_sim::VecRegisters;

    #[test]
    fn lone_process_completes_write_all() {
        let config = IterConfig::new(100, 1, 1).unwrap();
        let layout = WaLayout::new(&config);
        let mem = VecRegisters::new(layout.cells());
        let mut p = WaIterativeProcess::new(1, &config, layout.clone());
        let mut guard = 0;
        while !p.is_terminated() {
            Process::<VecRegisters>::step(&mut p, &mem);
            guard += 1;
            assert!(guard < 10_000_000);
        }
        let outcome = certify(&mem, &layout);
        assert!(outcome.complete, "missing: {:?}", outcome.missing);
        assert!(p.wa_writes() >= 100);
    }

    #[test]
    fn spans_become_individual_writes() {
        let config = IterConfig::new(64, 1, 1).unwrap();
        let layout = WaLayout::new(&config);
        let mem = VecRegisters::new(layout.cells());
        let mut p = WaIterativeProcess::new(1, &config, layout.clone());
        // Find the first Perform and count the writes that follow it.
        let mut span = None;
        while span.is_none() {
            if let StepEvent::Perform { span: s } = Process::<VecRegisters>::step(&mut p, &mem) {
                span = Some(s);
            }
        }
        let s = span.unwrap();
        for _ in 0..s.count() {
            let ev = Process::<VecRegisters>::step(&mut p, &mem);
            assert!(matches!(ev, StepEvent::Write { .. }), "got {ev:?}");
        }
        for job in s.jobs() {
            assert_eq!(mem.snapshot()[layout.wa_cell(job)], 1);
        }
    }

    #[test]
    fn wa_cell_layout_is_after_stages() {
        let config = IterConfig::new(32, 2, 1).unwrap();
        let layout = WaLayout::new(&config);
        assert_eq!(layout.wa_cell(1), layout.wa_base());
        assert_eq!(layout.cells(), layout.wa_base() + 32);
        assert!(layout.wa_base() >= layout.iter().cells());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out of 1..=")]
    fn wa_cell_out_of_range_panics() {
        let config = IterConfig::new(8, 1, 1).unwrap();
        let layout = WaLayout::new(&config);
        layout.wa_cell(9);
    }
}
