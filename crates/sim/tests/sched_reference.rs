//! Differential test of the scheduler layer against its scan-based
//! reference.
//!
//! The `reference` module keeps the earlier implementations of
//! `RandomScheduler`, `BlockScheduler` and `WithCrashes`, which scan every
//! slot's state on each decision and keep `WithCrashes`' state in ordered
//! sets (`RoundRobin`, unchanged, serves both sides). The engine's schedulers read the live-slot list
//! and index the crash plan instead; every property here requires the two
//! to make the same decision at every step, i.e. equal [`Execution`]s.

use amo_sim::testing::WriterProcess;
use amo_sim::{
    BlockScheduler, CrashPlan, Decision, Engine, EngineLimits, Execution, RandomScheduler,
    RoundRobin, SchedView, Scheduler, VecRegisters, WithCrashes,
};
use proptest::prelude::*;

/// The scan-based schedulers, as they were before the engine kept a
/// live-slot list.
mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use amo_sim::{CrashPlan, Decision, LifeState, SchedView, Scheduler};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Indices of running slots, by a scan of every slot's state.
    pub fn scan<P>(view: &SchedView<'_, P>) -> Vec<usize> {
        view.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == LifeState::Running)
            .map(|(i, _)| i)
            .collect()
    }

    pub struct RandomScheduler {
        rng: StdRng,
        quantum: u64,
    }

    impl RandomScheduler {
        pub fn new(seed: u64, quantum: u64) -> Self {
            Self {
                rng: StdRng::seed_from_u64(seed),
                quantum,
            }
        }
    }

    impl<P> Scheduler<P> for RandomScheduler {
        fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
            let running = scan(view);
            Decision::Step(running[self.rng.gen_range(0..running.len())])
        }

        fn quantum(&self, _view: &SchedView<'_, P>, _chosen: usize) -> u64 {
            self.quantum
        }
    }

    pub struct BlockScheduler {
        rng: StdRng,
        burst: u64,
        current: Option<usize>,
        left: u64,
    }

    impl BlockScheduler {
        pub fn new(seed: u64, burst: u64) -> Self {
            Self {
                rng: StdRng::seed_from_u64(seed),
                burst,
                current: None,
                left: 0,
            }
        }
    }

    impl<P> Scheduler<P> for BlockScheduler {
        fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
            if let Some(i) = self.current {
                if self.left > 0 && view.slots[i].state == LifeState::Running {
                    return Decision::Step(i);
                }
            }
            let running = scan(view);
            let i = running[self.rng.gen_range(0..running.len())];
            self.current = Some(i);
            self.left = self.burst;
            Decision::Step(i)
        }

        fn quantum(&self, _view: &SchedView<'_, P>, chosen: usize) -> u64 {
            if self.current == Some(chosen) {
                self.left.max(1)
            } else {
                1
            }
        }

        fn note_consumed(&mut self, chosen: usize, steps: u64) {
            if self.current == Some(chosen) {
                self.left = self.left.saturating_sub(steps);
            }
        }
    }

    pub struct WithCrashes<S> {
        inner: S,
        plan: CrashPlan,
        fired: BTreeSet<usize>,
        crashed_at: BTreeMap<usize, u64>,
        restarted: BTreeSet<usize>,
    }

    impl<S> WithCrashes<S> {
        pub fn new(inner: S, plan: CrashPlan) -> Self {
            Self {
                inner,
                plan,
                fired: BTreeSet::new(),
                crashed_at: BTreeMap::new(),
                restarted: BTreeSet::new(),
            }
        }

        fn earliest_restart<P>(&self, view: &SchedView<'_, P>) -> Option<(u64, usize)> {
            if !self.plan.has_restarts() {
                return None;
            }
            self.plan
                .restarts()
                .filter_map(|(pid, delay)| {
                    let i = pid.checked_sub(1)?;
                    if i >= view.slots.len()
                        || view.slots[i].state != LifeState::Crashed
                        || self.restarted.contains(&pid)
                    {
                        return None;
                    }
                    let at = self.crashed_at.get(&pid)?;
                    Some((at.saturating_add(delay), i))
                })
                .min()
        }
    }

    impl<P, S: Scheduler<P>> Scheduler<P> for WithCrashes<S> {
        fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
            if self.plan.crash_count() > 0 && view.crashes < view.max_crashes {
                for (i, slot) in view.slots.iter().enumerate() {
                    if slot.state == LifeState::Running
                        && !self.fired.contains(&(i + 1))
                        && self.plan.should_crash(i + 1, slot.steps)
                    {
                        self.fired.insert(i + 1);
                        self.crashed_at.insert(i + 1, view.total_steps);
                        return Decision::Crash(i);
                    }
                }
            }
            if let Some((due, i)) = self.earliest_restart(view) {
                if view.total_steps >= due || scan(view).is_empty() {
                    self.restarted.insert(i + 1);
                    return Decision::Restart(i);
                }
            }
            let decision = self.inner.decide(view);
            if let Decision::Crash(i) = decision {
                self.crashed_at.insert(i + 1, view.total_steps);
            }
            decision
        }

        fn quantum(&self, view: &SchedView<'_, P>, chosen: usize) -> u64 {
            let mut q = self.inner.quantum(view, chosen);
            if self.plan.is_empty() {
                return q;
            }
            if let Some(b) = self.plan.budget(chosen + 1) {
                if view.crashes < view.max_crashes && !self.fired.contains(&(chosen + 1)) {
                    q = q.min(b.saturating_sub(view.slots[chosen].steps).max(1));
                }
            }
            if let Some((due, _)) = self.earliest_restart(view) {
                q = q.min(due.saturating_sub(view.total_steps).max(1));
            }
            q
        }

        fn note_consumed(&mut self, chosen: usize, steps: u64) {
            self.inner.note_consumed(chosen, steps);
        }

        fn pending_restart(&self, view: &SchedView<'_, P>) -> bool {
            self.earliest_restart(view).is_some()
        }
    }
}

/// The inner strategy of one run; built twice, once from the engine's
/// schedulers and once from the reference.
#[derive(Debug, Clone, Copy)]
enum Inner {
    RoundRobin,
    Random(u64),
    Block(u64, u64),
    /// A closure over a random schedule that also crashes the running slot
    /// at `live[total_steps % live.len()]` at each of the given global
    /// steps, while crash budget remains.
    Injector(u64, [u64; 3]),
}

/// One run's set-up: writer `p` writes `ks[p - 1]` times.
#[derive(Debug, Clone)]
struct Case {
    ks: Vec<u64>,
    f: usize,
    quantum: u64,
    single_step: bool,
    inner: Inner,
    plan: CrashPlan,
}

impl Case {
    fn new(ks: Vec<u64>, f: usize, inner: Inner, plan: CrashPlan) -> Self {
        Self {
            ks,
            f,
            quantum: 1,
            single_step: false,
            inner,
            plan,
        }
    }

    fn run<S: Scheduler<WriterProcess>>(&self, sched: S) -> Execution {
        let m = self.ks.len();
        let procs = (1..=m)
            .map(|p| WriterProcess::new(p, p - 1, self.ks[p - 1]))
            .collect();
        let engine = Engine::new(VecRegisters::new(m), procs, sched).with_max_crashes(self.f);
        let engine = if self.single_step {
            engine.single_step()
        } else {
            engine
        };
        engine.run(EngineLimits::with_max_steps(1_000_000))
    }

    /// The run under the engine's schedulers.
    fn indexed(&self) -> Execution {
        let q = self.quantum;
        let plan = self.plan.clone();
        match self.inner {
            Inner::RoundRobin => {
                self.run(WithCrashes::new(RoundRobin::new().with_quantum(q), plan))
            }
            Inner::Random(seed) => self.run(WithCrashes::new(
                RandomScheduler::new(seed).with_quantum(q),
                plan,
            )),
            Inner::Block(seed, burst) => {
                self.run(WithCrashes::new(BlockScheduler::new(seed, burst), plan))
            }
            Inner::Injector(seed, at) => self.run(WithCrashes::new(
                injector(RandomScheduler::new(seed).with_quantum(q), at),
                plan,
            )),
        }
    }

    /// The run under the scan-based reference.
    fn reference(&self) -> Execution {
        use reference as r;
        let q = self.quantum;
        let plan = self.plan.clone();
        match self.inner {
            Inner::RoundRobin => {
                self.run(r::WithCrashes::new(RoundRobin::new().with_quantum(q), plan))
            }
            Inner::Random(seed) => {
                self.run(r::WithCrashes::new(r::RandomScheduler::new(seed, q), plan))
            }
            Inner::Block(seed, burst) => self.run(r::WithCrashes::new(
                r::BlockScheduler::new(seed, burst),
                plan,
            )),
            Inner::Injector(seed, at) => self.run(r::WithCrashes::new(
                injector(r::RandomScheduler::new(seed, q), at),
                plan,
            )),
        }
    }

    /// Runs both sides under every quantum and step mode, asserts they
    /// agree, and returns the quantum-1 single-step execution.
    fn assert_same(&self) -> Execution {
        let mut first = None;
        for quantum in [1, 3, 64] {
            for single_step in [true, false] {
                let case = Case {
                    quantum,
                    single_step,
                    ..self.clone()
                };
                let exec = case.indexed();
                assert_eq!(exec, case.reference(), "{case:?}");
                first.get_or_insert(exec);
            }
        }
        first.expect("ran at least once")
    }
}

/// A closure scheduler that checks, at every decision, that
/// [`SchedView::running`] and [`SchedView::running_count`] agree with a
/// scan of slot states, and crashes the slot at
/// `live[total_steps % live.len()]` once the clock reaches each instant of
/// `at` (while budget remains); otherwise it defers to `inner`.
fn injector<S: Scheduler<WriterProcess>>(
    mut inner: S,
    at: [u64; 3],
) -> impl FnMut(&SchedView<'_, WriterProcess>) -> Decision {
    let mut next = 0;
    move |view: &SchedView<'_, WriterProcess>| {
        let scanned = reference::scan(view);
        assert_eq!(view.running().collect::<Vec<_>>(), scanned);
        assert_eq!(view.running_count(), scanned.len());
        assert!(!scanned.is_empty(), "the wrapper handles a stalled fleet");
        if next < at.len() && view.total_steps >= at[next] && view.crashes_left() > 0 {
            next += 1;
            let i = view.live[view.total_steps as usize % view.live.len()];
            return Decision::Crash(i);
        }
        inner.decide(view)
    }
}

/// splitmix64: the case generator's stream.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A seeded case over `m` writers: up to 12 writes each, a crash budget
/// anywhere in `0..m`, planned crashes on about a third of the pids (some
/// past the victim's last action, so they never fire), restart entries on
/// about a third (some without a planned crash, pairing with injected
/// ones, and some due far beyond the run, so only a stall fires them).
fn seeded_case(m: usize, seed: u64) -> Case {
    let mut g = Gen(seed);
    let ks: Vec<u64> = (0..m).map(|_| g.below(13)).collect();
    let f = g.below(m as u64) as usize;
    let mut plan = CrashPlan::none();
    for (p, &k) in ks.iter().enumerate() {
        if g.below(3) == 0 {
            plan.crash(p + 1, g.below(k + 3));
        }
        if g.below(3) == 0 {
            let delay = if g.below(4) == 0 {
                1_000_000
            } else {
                g.below(40)
            };
            plan.restart_after(p + 1, delay);
        }
    }
    let total: u64 = ks.iter().map(|k| k + 1).sum();
    let inner = match g.below(4) {
        0 => Inner::RoundRobin,
        1 => Inner::Random(g.next()),
        2 => Inner::Block(g.next(), 1 + g.below(8)),
        _ => Inner::Injector(g.next(), [0, 1, 2].map(|_| g.below(total + 1))),
    };
    Case::new(ks, f, inner, plan)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Seeded crash and restart plans over every inner schedule, quantum
    /// and step mode: the indexed schedulers replay the reference exactly.
    #[test]
    fn indexed_schedulers_replay_the_scan_reference(
        m in 1usize..=64,
        seed in any::<u64>(),
        quantum in prop_oneof![Just(1u64), Just(3), Just(64)],
        single_step in any::<bool>(),
    ) {
        let case = Case {
            quantum,
            single_step,
            ..seeded_case(m, seed)
        };
        prop_assert_eq!(case.indexed(), case.reference(), "{:?}", case);
    }
}

#[test]
fn restart_after_a_crash_the_inner_closure_injected() {
    // No planned crash: the injector crashes the slot at live[4 % 3] = 1
    // (pid 2) at step 4, and the plan's restart entry pairs with it.
    let mut plan = CrashPlan::none();
    plan.restart_after(2, 5);
    let case = Case::new(
        vec![6, 6, 6],
        2,
        Inner::Injector(7, [4, u64::MAX, u64::MAX]),
        plan,
    );
    let exec = case.assert_same();
    assert_eq!(exec.crashed, vec![2]);
    assert_eq!(exec.restarted, vec![2]);
    assert!(exec.completed);
}

#[test]
fn a_restarted_process_crashes_a_second_time() {
    // pid 1 is crashed by the injector at step 0 (live[0 % 3] = 0),
    // restarts 2 steps later, and its planned crash (still armed, its
    // cumulative counter below the budget) fires in its second life.
    let mut plan = CrashPlan::at_steps([(1usize, 3u64)]);
    plan.restart_after(1, 2);
    let case = Case::new(
        vec![8, 8, 8],
        2,
        Inner::Injector(3, [0, u64::MAX, u64::MAX]),
        plan,
    );
    let exec = case.assert_same();
    assert_eq!(exec.crashed, vec![1, 1]);
    assert_eq!(exec.restarted, vec![1]);
    assert_eq!(exec.per_proc_steps[0], 3);
}

#[test]
fn a_stalled_fleet_fires_a_far_restart_early() {
    // Pids 1 and 2 crash at once; pid 3 terminates; pid 2's restart is due
    // far past the step limit, so only the stall can fire it.
    let mut plan = CrashPlan::at_steps([(1usize, 0u64), (2, 0)]);
    plan.restart_after(2, 1_000_000_000);
    let case = Case::new(vec![2, 2, 2], 2, Inner::Random(11), plan);
    let exec = case.assert_same();
    assert_eq!(exec.crashed, vec![1, 2]);
    assert_eq!(exec.restarted, vec![2]);
    assert!(exec.completed);
    assert!(exec.total_steps < 1_000);
}

#[test]
fn restarts_fall_due_out_of_pid_order() {
    // pid 1 crashes first with the longest delay and pid 4 last with the
    // shortest: restarts fire in due order 4, 3, 1, not pid or crash order.
    let mut plan = CrashPlan::at_steps([(1usize, 1u64), (3, 2), (4, 3)]);
    plan.restart_after(1, 60)
        .restart_after(3, 30)
        .restart_after(4, 5);
    let case = Case::new(vec![20; 5], 3, Inner::RoundRobin, plan);
    let exec = case.assert_same();
    assert_eq!(exec.crashed, vec![1, 3, 4]);
    assert_eq!(exec.restarted, vec![4, 3, 1]);
}

#[test]
fn planned_crashes_stop_when_the_budget_runs_out() {
    // Four planned crashes against f = 2: the first two fire, the rest stay
    // unfired (and stop clamping quanta).
    let plan = CrashPlan::at_steps([(1usize, 1u64), (2, 2), (3, 3), (4, 4)]);
    let case = Case::new(vec![10; 5], 2, Inner::Block(5, 4), plan);
    let exec = case.assert_same();
    assert_eq!(exec.crashed.len(), 2);
    assert!(exec.completed);
}

#[test]
fn running_list_tracks_terminations_crashes_and_restarts() {
    // The injector checks view.running() against a scan at every decision
    // through crashes (planned and injected), terminations and restarts.
    let mut plan = CrashPlan::at_steps([(2usize, 2u64), (5, 4)]);
    plan.restart_after(2, 3).restart_after(4, 1);
    let case = Case::new(
        vec![3, 6, 1, 5, 7, 2],
        4,
        Inner::Injector(9, [1, 6, 12]),
        plan,
    );
    let exec = case.assert_same();
    assert!(exec.crashed.len() >= 3);
    assert!(!exec.restarted.is_empty());
}
