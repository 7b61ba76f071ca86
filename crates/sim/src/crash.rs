use std::collections::BTreeMap;

/// A deterministic failure-injection plan: process `p` crashes after having
/// executed a given number of actions, and may optionally *restart* a fixed
/// delay after its crash.
///
/// The model allows up to `f < m` crash-stop failures (`stop_p` actions,
/// §2.1). A plan maps pids to step budgets; a process with no entry never
/// crashes. The same plan drives both the simulator (via
/// [`WithCrashes`](crate::WithCrashes)) and the thread runtime (as per-thread
/// step budgets), so a failure scenario reproduces identically in both.
///
/// # Restarts
///
/// [`restart_after`](Self::restart_after) registers a restart entry:
/// `delay` global steps after `pid`'s crash (planned *or* injected by an
/// adversary), the scheduler wrapper emits
/// [`Decision::Restart`](crate::Decision::Restart) and the engine re-enters
/// the process through [`Process::on_restart`](crate::Process::on_restart)
/// — the crash–restart lifecycle of the durable-storage model. Each pid
/// restarts at most once per plan, and a re-crash after the restart (by an
/// adversary) counts against the crash budget `f` again.
///
/// # Duplicate-pid rule
///
/// One pid maps to at most one crash budget and at most one restart delay.
/// The batch constructor [`at_steps`](Self::at_steps) treats a duplicate
/// pid as a harness bug and panics — a silent last-write-wins would hide
/// typos in hand-written scenario grids. The incremental builders
/// ([`crash`](Self::crash), [`restart_after`](Self::restart_after))
/// deliberately *overwrite*, which is the documented way to revise an
/// entry.
///
/// # Examples
///
/// ```
/// use amo_sim::CrashPlan;
///
/// // pid 1 crashes after 10 actions, pid 3 after 0 actions (immediately).
/// let plan = CrashPlan::at_steps([(1usize, 10u64), (3, 0)]);
/// assert!(plan.should_crash(3, 0));
/// assert!(!plan.should_crash(1, 9));
/// assert!(plan.should_crash(1, 10));
/// assert!(!plan.should_crash(2, 1_000_000));
/// assert_eq!(plan.crash_count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashPlan {
    budgets: BTreeMap<usize, u64>,
    /// Restart delays (global steps after the crash), keyed by pid.
    restarts: BTreeMap<usize, u64>,
}

impl CrashPlan {
    /// The empty plan: nobody crashes.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a plan from `(pid, steps)` pairs: pid crashes once it has
    /// executed `steps` actions.
    ///
    /// # Panics
    ///
    /// Panics if the same pid appears twice — see the duplicate-pid rule in
    /// the type docs (use [`crash`](Self::crash) to overwrite
    /// deliberately).
    pub fn at_steps<I: IntoIterator<Item = (usize, u64)>>(pairs: I) -> Self {
        let mut budgets = BTreeMap::new();
        for (pid, steps) in pairs {
            assert!(
                budgets.insert(pid, steps).is_none(),
                "duplicate crash entry for pid {pid} in at_steps \
                 (use crash() to overwrite deliberately)"
            );
        }
        Self {
            budgets,
            restarts: BTreeMap::new(),
        }
    }

    /// Plan in which the first `f` processes crash immediately (step 0) —
    /// the worst case of the trivial-split lower bound.
    pub fn first_f_immediately(f: usize) -> Self {
        Self::at_steps((1..=f).map(|p| (p, 0)))
    }

    /// A pseudorandom plan: up to `max_crashes` distinct victims among
    /// `1..=m`, each with a step budget below `horizon`, derived
    /// deterministically from `seed` (splitmix64).
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `max_crashes ≥ m` (the model requires
    /// `f < m`).
    pub fn random(m: usize, max_crashes: usize, horizon: u64, seed: u64) -> Self {
        assert!(m > 0, "need at least one process");
        assert!(max_crashes < m, "the model requires f < m");
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let f = if max_crashes == 0 {
            0
        } else {
            (next() as usize) % (max_crashes + 1)
        };
        let mut plan = Self::default();
        let mut victims: Vec<usize> = (1..=m).collect();
        for _ in 0..f {
            let i = (next() as usize) % victims.len();
            let pid = victims.swap_remove(i);
            let budget = if horizon == 0 { 0 } else { next() % horizon };
            plan.crash(pid, budget);
        }
        plan
    }

    /// Adds (or overwrites) one crash: `pid` stops after `steps` actions.
    pub fn crash(&mut self, pid: usize, steps: u64) -> &mut Self {
        self.budgets.insert(pid, steps);
        self
    }

    /// Adds (or overwrites) one restart: `pid` re-enters the fleet `delay`
    /// global steps after its crash (planned or adversary-injected),
    /// rebuilding its state through
    /// [`Process::on_restart`](crate::Process::on_restart).
    pub fn restart_after(&mut self, pid: usize, delay: u64) -> &mut Self {
        self.restarts.insert(pid, delay);
        self
    }

    /// The restart delay for `pid`, if one is planned.
    pub fn restart_delay(&self, pid: usize) -> Option<u64> {
        self.restarts.get(&pid).copied()
    }

    /// `true` if any restart is planned.
    pub fn has_restarts(&self) -> bool {
        !self.restarts.is_empty()
    }

    /// Number of planned restarts.
    pub fn restart_count(&self) -> usize {
        self.restarts.len()
    }

    /// Iterates over `(pid, restart-delay)` pairs in pid order.
    pub fn restarts(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.restarts.iter().map(|(&p, &d)| (p, d))
    }

    /// Returns `true` if `pid` with `steps_taken` actions behind it must
    /// crash now.
    pub fn should_crash(&self, pid: usize, steps_taken: u64) -> bool {
        self.budgets.get(&pid).is_some_and(|&b| steps_taken >= b)
    }

    /// The step budget for `pid`, if it is planned to crash.
    pub fn budget(&self, pid: usize) -> Option<u64> {
        self.budgets.get(&pid).copied()
    }

    /// Number of planned crashes.
    pub fn crash_count(&self) -> usize {
        self.budgets.len()
    }

    /// Returns `true` if neither a crash nor a restart is planned.
    pub fn is_empty(&self) -> bool {
        self.budgets.is_empty() && self.restarts.is_empty()
    }

    /// Iterates over `(pid, step-budget)` pairs in pid order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.budgets.iter().map(|(&p, &s)| (p, s))
    }

    /// Checks the plan against a fleet of `m` processes: an entry for a pid
    /// outside `1..=m` could never fire, and a run meant to inject that
    /// fault would silently go without it.
    ///
    /// # Panics
    ///
    /// Panics with the offending pid if a crash or restart entry names a pid
    /// outside `1..=m`.
    pub fn assert_fits(&self, m: usize) {
        if let Some(pid) = self
            .budgets
            .keys()
            .chain(self.restarts.keys())
            .find(|&&pid| pid == 0 || pid > m)
        {
            panic!("crash plan names pid {pid}, but the fleet has pids 1..={m}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_crashes() {
        let p = CrashPlan::none();
        assert!(p.is_empty());
        assert_eq!(p.crash_count(), 0);
        assert!(!p.should_crash(1, u64::MAX));
        assert_eq!(p.budget(1), None);
    }

    #[test]
    fn budgets_are_thresholds() {
        let p = CrashPlan::at_steps([(5usize, 3u64)]);
        assert!(!p.should_crash(5, 2));
        assert!(p.should_crash(5, 3));
        assert!(
            p.should_crash(5, 4),
            "staying past the budget still crashes"
        );
    }

    #[test]
    fn first_f_immediately_covers_prefix() {
        let p = CrashPlan::first_f_immediately(3);
        assert_eq!(p.crash_count(), 3);
        for pid in 1..=3 {
            assert!(p.should_crash(pid, 0));
        }
        assert!(!p.should_crash(4, 0));
    }

    #[test]
    fn random_plans_respect_f_and_reproduce() {
        for seed in 0..50u64 {
            let p = CrashPlan::random(5, 4, 100, seed);
            assert!(p.crash_count() <= 4, "f < m");
            for (pid, budget) in p.iter() {
                assert!((1..=5).contains(&pid));
                assert!(budget < 100);
            }
            assert_eq!(p, CrashPlan::random(5, 4, 100, seed), "deterministic");
        }
    }

    #[test]
    fn random_plan_zero_crashes() {
        let p = CrashPlan::random(3, 0, 100, 7);
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic(expected = "f < m")]
    fn random_plan_rejects_f_equal_m() {
        let _ = CrashPlan::random(3, 3, 10, 0);
    }

    #[test]
    fn builder_overwrites() {
        let mut p = CrashPlan::none();
        p.crash(2, 10).crash(2, 20);
        assert_eq!(p.budget(2), Some(20));
        assert_eq!(p.crash_count(), 1);
    }

    #[test]
    fn iter_in_pid_order() {
        let p = CrashPlan::at_steps([(3usize, 1u64), (1, 5), (2, 9)]);
        let got: Vec<_> = p.iter().collect();
        assert_eq!(got, vec![(1, 5), (2, 9), (3, 1)]);
    }

    #[test]
    #[should_panic(expected = "duplicate crash entry for pid 2")]
    fn at_steps_rejects_duplicate_pids() {
        let _ = CrashPlan::at_steps([(2usize, 10u64), (1, 5), (2, 20)]);
    }

    #[test]
    fn crash_builder_overwrites_deliberately() {
        // The incremental builder is the documented way to revise an entry;
        // only the batch constructor rejects duplicates.
        let mut p = CrashPlan::none();
        p.crash(2, 10).crash(2, 20);
        p.restart_after(2, 5).restart_after(2, 8);
        assert_eq!(p.budget(2), Some(20));
        assert_eq!(p.restart_delay(2), Some(8));
    }

    #[test]
    fn restart_entries_are_tracked_separately() {
        let mut p = CrashPlan::at_steps([(1usize, 3u64)]);
        assert!(!p.has_restarts());
        p.restart_after(1, 100).restart_after(4, 0);
        assert!(p.has_restarts());
        assert_eq!(p.restart_count(), 2);
        assert_eq!(p.restart_delay(1), Some(100));
        assert_eq!(p.restart_delay(2), None);
        assert_eq!(p.restarts().collect::<Vec<_>>(), vec![(1, 100), (4, 0)]);
        assert_eq!(p.crash_count(), 1, "restarts are not crashes");
    }

    #[test]
    fn restart_only_plan_is_not_empty() {
        // A plan with restarts but no planned crashes still matters: the
        // restarts pair with adversary-injected crashes.
        let mut p = CrashPlan::none();
        p.restart_after(3, 7);
        assert!(!p.is_empty());
        assert_eq!(p.crash_count(), 0);
    }
}
