//! Paper-specific adversary strategies.
//!
//! These schedulers inspect the internal state of [`KkProcess`] automatons —
//! which is legitimate: the model's adversary is *omniscient* (§2.1).

use amo_ostree::OrderedJobSet;
use amo_sim::{Decision, LifeState, SchedView, Scheduler};

use crate::kk::KkProcess;

/// The lower-bound adversary from the proof of Theorem 4.4.
///
/// Strategy: for `k = 1, …, m−1` in turn, let only process `k` run until it
/// has *announced* its first candidate (completed `setNext`), then crash it.
/// Each crashed process holds a distinct job hostage in its `next_k`
/// register — the `STUCK_α` set of the proof — because the first candidates
/// are picked by rank-splitting the same full `FREE = J` set. Finally the
/// sole survivor, process `m`, runs alone: its `TRY` set permanently
/// contains the `m − 1` stuck jobs, so it terminates exactly when
/// `|FREE \ TRY| < β`, having performed
///
/// ```text
/// Do(α) = n − (β + m − 2)
/// ```
///
/// jobs — matching Theorem 4.4's effectiveness *exactly* (the bound is
/// tight). Requires `n ≥ 2m − 1` so the first picks are pairwise distinct.
#[derive(Debug, Clone, Default)]
pub struct StuckAnnouncementAdversary {
    /// Next victim (1-based); victims are processes `1..=m−1`.
    victim: usize,
}

impl StuckAnnouncementAdversary {
    /// Creates the adversary.
    pub fn new() -> Self {
        Self { victim: 1 }
    }
}

impl<S: OrderedJobSet> Scheduler<KkProcess<S>> for StuckAnnouncementAdversary {
    fn decide(&mut self, view: &SchedView<'_, KkProcess<S>>) -> Decision {
        let m = view.slots.len();
        while self.victim < m {
            let i = self.victim - 1;
            let slot = &view.slots[i];
            match slot.state {
                LifeState::Running => {
                    return if slot.process.has_announced() {
                        self.victim += 1;
                        Decision::Crash(i)
                    } else {
                        Decision::Step(i)
                    };
                }
                // Already crashed/terminated by some external plan; move on.
                _ => self.victim += 1,
            }
        }
        // All victims dispatched: run the survivor (and anyone left) fairly.
        Decision::Step(view.running().next().expect("survivor still running"))
    }
}

/// Collision-*forcing* adversary for the Lemma 5.5 experiment (E7).
///
/// A `check` failure (Definition 5.2's collision) requires a process to
/// announce a candidate that someone else has already announced or logged.
/// Under benign schedules rank-splitting makes that nearly impossible — the
/// announce/gather handshake is precisely designed to prevent it. This
/// omniscient adversary manufactures the staleness the proofs of §5 reason
/// about:
///
/// 1. **Freeze** the victim (highest pid) the moment `compNext` has chosen
///    its candidate `x` but *before* `setNext` publishes it — the one
///    window where the pick is invisible to everyone else;
/// 2. **run the others** until one of them performs `x` (they cannot see
///    the frozen announcement, so nothing stops them);
/// 3. **wake** the victim: it announces the stale `x`, gathers, and its
///    `check` fails against the `done` log — one collision, attributed per
///    Definition 5.2 — then repeat.
///
/// Collisions still cannot exceed the Lemma 5.5 bound (that is the point of
/// the experiment).
#[derive(Debug, Clone, Default)]
pub struct StalenessAdversary {
    frozen_job: Option<u64>,
    rr: usize,
}

impl StalenessAdversary {
    /// Creates the adversary (victim = highest pid).
    pub fn new() -> Self {
        Self::default()
    }
}

impl<S: OrderedJobSet> Scheduler<KkProcess<S>> for StalenessAdversary {
    fn decide(&mut self, view: &SchedView<'_, KkProcess<S>>) -> Decision {
        let m = view.slots.len();
        let victim = m - 1;
        let victim_running = view.slots[victim].state == LifeState::Running;
        let others: Vec<usize> = (0..m - 1)
            .filter(|&i| view.slots[i].state == LifeState::Running)
            .collect();

        if !victim_running || others.is_empty() {
            // Nothing left to manufacture; drain fairly.
            return Decision::Step(view.running().next().expect("someone runs"));
        }

        let vp = &view.slots[victim].process;
        match self.frozen_job {
            None => {
                // Drive the victim to the freeze window: candidate chosen,
                // not yet announced.
                if vp.phase() == crate::KkPhase::SetNext {
                    self.frozen_job = vp.current_job();
                    // Fall through to run others this step.
                } else {
                    return Decision::Step(victim);
                }
                let i = others[self.rr % others.len()];
                self.rr += 1;
                Decision::Step(i)
            }
            Some(x) => {
                // Has anyone logged x yet (or is everyone else done)?
                let someone_knows = (0..m - 1).any(|i| view.slots[i].process.has_done(x));
                if someone_knows {
                    self.frozen_job = None;
                    Decision::Step(victim)
                } else {
                    let i = others[self.rr % others.len()];
                    self.rr += 1;
                    Decision::Step(i)
                }
            }
        }
    }
}

/// Resolves the *process-agnostic* adversaries of the scenario registry —
/// currently just `"lockstep"` — for any process type. The one shared
/// definition every crate's [`ScenarioProcess`](amo_sim::ScenarioProcess)
/// implementation delegates to, so registry names are spelled in exactly
/// one place; process-specific factories (e.g. `KkProcess`'s) match their
/// own names first and fall back here.
pub fn generic_adversary<P>(name: &str) -> Option<Box<dyn Scheduler<P>>> {
    match name {
        "lockstep" => Some(Box::new(LockstepScheduler::new())),
        _ => None,
    }
}

/// Collision-maximising schedule: always step the running process with the
/// fewest actions so far (ties to the lowest pid).
///
/// Keeping processes in lockstep maximises the window in which several
/// processes hold announcements simultaneously, which is what drives the
/// `check` failures counted by Lemma 5.5 (experiment E7).
#[derive(Debug, Clone, Default)]
pub struct LockstepScheduler;

impl LockstepScheduler {
    /// Creates the scheduler.
    pub fn new() -> Self {
        Self
    }
}

impl<P> Scheduler<P> for LockstepScheduler {
    fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
        let i = view
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == LifeState::Running)
            .min_by_key(|(i, s)| (s.steps, *i))
            .map(|(i, _)| i)
            .expect("decide called with a running process");
        Decision::Step(i)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::KkConfig;
    use crate::runner::{kk_fleet, run_scenario_simulated};
    use amo_sim::{ScenarioSpec, SchedulerSpec};

    #[test]
    fn stuck_adversary_hits_theorem_4_4_exactly() {
        for (n, m) in [(50usize, 3usize), (100, 5), (64, 2), (200, 8)] {
            let config = KkConfig::new(n, m).unwrap();
            let report =
                run_scenario_simulated(&config, &ScenarioSpec::adversary("stuck-announcement"));
            assert!(report.violations.is_empty());
            assert_eq!(
                report.effectiveness,
                config.effectiveness_bound(),
                "n={n} m={m}: adversary must achieve the bound exactly"
            );
            assert_eq!(report.crashed.len(), m - 1);
        }
    }

    #[test]
    fn stuck_adversary_with_beta_3m2() {
        let n = 400;
        let m = 4;
        let config = KkConfig::with_beta(n, m, KkConfig::work_optimal_beta(m)).unwrap();
        let report =
            run_scenario_simulated(&config, &ScenarioSpec::adversary("stuck-announcement"));
        assert_eq!(report.effectiveness, config.effectiveness_bound());
    }

    #[test]
    fn stuck_adversary_single_process_degenerates_gracefully() {
        let config = KkConfig::new(10, 1).unwrap();
        let report =
            run_scenario_simulated(&config, &ScenarioSpec::adversary("stuck-announcement"));
        assert_eq!(report.effectiveness, 10);
        assert!(report.crashed.is_empty());
    }

    #[test]
    fn staleness_adversary_forces_collisions_safely() {
        let m = 4;
        let config = KkConfig::with_beta(512, m, KkConfig::work_optimal_beta(m)).unwrap();
        let report = run_scenario_simulated(
            &config,
            &ScenarioSpec::adversary("staleness").with_collision_tracking(),
        );
        assert!(
            report.violations.is_empty(),
            "collisions are not violations"
        );
        assert!(report.completed);
        let matrix = report.collisions.expect("tracking on");
        assert!(matrix.total() > 0, "the adversary must force a collision");
        assert!(matrix.exceeding_lemma_bound().is_empty(), "Lemma 5.5 holds");
        assert!(report.effectiveness >= config.effectiveness_bound());
    }

    #[test]
    fn staleness_adversary_single_process_degenerates() {
        let config = KkConfig::new(8, 1).unwrap();
        let report = run_scenario_simulated(&config, &ScenarioSpec::adversary("staleness"));
        assert_eq!(report.effectiveness, 8);
    }

    #[test]
    fn lockstep_schedules_min_steps_first() {
        let config = KkConfig::new(40, 4).unwrap();
        let report = run_scenario_simulated(&config, &ScenarioSpec::adversary("lockstep"));
        assert!(report.violations.is_empty());
        assert!(report.completed);
    }

    #[test]
    fn fleet_helper_builds_m_processes() {
        let config = KkConfig::new(12, 3).unwrap();
        let (layout, fleet) = kk_fleet(&config, false);
        assert_eq!(fleet.len(), 3);
        assert_eq!(layout.cells(), 3 + 36);
    }

    #[test]
    fn random_schedules_never_beat_the_upper_bound() {
        // Sanity for Theorem 2.1: Do(α) ≤ n under zero crashes.
        let config = KkConfig::new(30, 3).unwrap();
        for seed in 0..5 {
            let report = run_scenario_simulated(&config, &ScenarioSpec::random(seed));
            assert!(report.effectiveness <= 30);
            assert_eq!(
                report.scheduler_label, "random",
                "the spec carries the scheduler label"
            );
        }
    }

    #[test]
    fn scheduler_kind_default_is_round_robin() {
        assert_eq!(SchedulerSpec::default(), SchedulerSpec::RoundRobin);
        assert_eq!(ScenarioSpec::default().label(), "round-robin");
    }
}
