//! Unified runner producing [`AmoReport`]s for every comparator, so the
//! comparison tables (experiment E6) are generated through one interface.
//!
//! A simulated run takes a full [`ScenarioSpec`] and goes through the
//! shared scenario driver ([`amo_sim::run_scenario`]), so the comparators
//! run under every scheduler the other algorithms do (bursty blocks,
//! quantized fairness, the lockstep adversary). A threaded run takes a
//! [`ThreadSpec`].

use amo_core::{AmoReport, KkConfig};
use amo_sim::thread::ThreadSpec;
use amo_sim::{
    AtomicRegisters, Process, ScenarioHooks, ScenarioProcess, ScenarioSpec, Scheduler, VecRegisters,
};

use crate::pairs::PairsHybrid;
use crate::randomized::randomized_kk_fleet;
use crate::tas::TasAmo;
use crate::trivial::TrivialSplit;
use crate::two_process::TwoProcess;

/// The at-most-once comparators of experiment E6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmoBaselineKind {
    /// Static `n/m` split (§2.2's trivial algorithm).
    TrivialSplit,
    /// The optimal two-process algorithm (forces `m = 2`).
    TwoProcess,
    /// Pairwise composition of the two-process algorithm.
    PairsHybrid,
    /// Test-and-set claiming (RMW; the `n − f` ceiling).
    TasAmo,
    /// KKβ with uniformly random candidate picks (ablation A4).
    RandomizedKk(
        /// Pick seed.
        u64,
    ),
}

impl AmoBaselineKind {
    /// Label for table rows.
    pub fn label(&self) -> &'static str {
        match self {
            AmoBaselineKind::TrivialSplit => "trivial-split",
            AmoBaselineKind::TwoProcess => "two-process",
            AmoBaselineKind::PairsHybrid => "pairs-hybrid",
            AmoBaselineKind::TasAmo => "tas-amo",
            AmoBaselineKind::RandomizedKk(_) => "randomized-kk",
        }
    }

    /// Worst-case effectiveness of this comparator under `f` crashes (the
    /// analytic prediction printed next to measurements in Table E6).
    ///
    /// `None` when no closed form applies (the randomized ablation shares
    /// KKβ's bound).
    pub fn predicted_effectiveness(&self, n: u64, m: usize, f: usize) -> Option<u64> {
        match self {
            AmoBaselineKind::TrivialSplit => Some((m.saturating_sub(f)) as u64 * (n / m as u64)),
            // Worst case loses exactly the meeting/stuck job: n − max(1, f).
            AmoBaselineKind::TwoProcess => Some(n.saturating_sub((f as u64).max(1))),
            AmoBaselineKind::PairsHybrid => {
                // Adversary kills whole pairs first: each dead pair loses
                // its chunk (≈ n / ⌈m/2⌉), a lone crash in a pair loses ≤ 1.
                let groups = m / 2 + m % 2;
                let dead_pairs = (f / 2) as u64;
                let lone = (f % 2) as u64;
                Some(
                    n.saturating_sub(dead_pairs * (n / groups as u64))
                        .saturating_sub(lone + groups as u64 - dead_pairs),
                )
            }
            AmoBaselineKind::TasAmo => Some(n - f as u64),
            AmoBaselineKind::RandomizedKk(_) => None,
        }
    }
}

/// Registers the process-agnostic adversaries (via
/// [`amo_core::generic_adversary`] — one shared spelling of the registry
/// names) for a comparator process type; none of them carries an epoch
/// cache or collision instrumentation, so the other hooks keep their
/// defaults.
macro_rules! generic_adversaries_scenario {
    ($($ty:ty),+ $(,)?) => {$(
        impl ScenarioHooks for $ty {
            fn adversary(name: &str) -> Option<Box<dyn Scheduler<Self>>> {
                amo_core::generic_adversary(name)
            }
        }
    )+};
}

generic_adversaries_scenario!(TrivialSplit, TwoProcess, PairsHybrid, TasAmo);

fn run_generic<P: ScenarioProcess>(
    cells: usize,
    fleet: Vec<P>,
    spec: &ScenarioSpec,
    label: &'static str,
) -> AmoReport {
    let (exec, _slots, _mem) = amo_sim::run_scenario(VecRegisters::new(cells), fleet, spec);
    AmoReport::from_execution(exec, label)
}

/// Runs a comparator under `spec` in the simulator.
///
/// [`AmoBaselineKind::TwoProcess`] requires `m == 2`; everything else
/// accepts any `m ≥ 1` (with `n ≥ m`).
///
/// The report label stays the *algorithm's* (for the E6 comparison
/// tables); the spec's scheduler label is reported by the scenario-first
/// KKβ runners instead.
///
/// # Panics
///
/// Panics on invalid `(n, m)` combinations for the chosen kind, and on
/// adversaries the comparator processes do not register.
pub fn run_baseline_scenario(
    kind: AmoBaselineKind,
    n: usize,
    m: usize,
    spec: &ScenarioSpec,
) -> AmoReport {
    let n64 = n as u64;
    match kind {
        AmoBaselineKind::TrivialSplit => {
            let fleet: Vec<_> = (1..=m).map(|p| TrivialSplit::new(p, m, n64)).collect();
            run_generic(0, fleet, spec, kind.label())
        }
        AmoBaselineKind::TwoProcess => {
            assert_eq!(m, 2, "TwoProcess is defined for m = 2");
            let (l, r) = TwoProcess::pair(n64);
            run_generic(2, vec![l, r], spec, kind.label())
        }
        AmoBaselineKind::PairsHybrid => {
            let fleet = PairsHybrid::fleet(n64, m);
            run_generic(PairsHybrid::cells(m), fleet, spec, kind.label())
        }
        AmoBaselineKind::TasAmo => {
            let fleet: Vec<_> = (1..=m).map(|p| TasAmo::new(p, m, n64)).collect();
            run_generic(TasAmo::cells(n), fleet, spec, kind.label())
        }
        AmoBaselineKind::RandomizedKk(seed) => {
            let config = KkConfig::new(n, m).expect("valid n/m");
            let (layout, fleet) = randomized_kk_fleet(&config, seed, false);
            run_generic(layout.cells(), fleet, spec, kind.label())
        }
    }
}

/// Runs a comparator on OS threads, configured by `spec`.
pub fn run_baseline_threads(
    kind: AmoBaselineKind,
    n: usize,
    m: usize,
    spec: &ThreadSpec,
) -> AmoReport {
    let n64 = n as u64;
    fn go<P: Process<AtomicRegisters> + Send>(
        cells: usize,
        fleet: Vec<P>,
        spec: &ThreadSpec,
        label: &'static str,
    ) -> AmoReport {
        AmoReport::from_execution(spec.run(&AtomicRegisters::new(cells), fleet), label)
    }
    match kind {
        AmoBaselineKind::TrivialSplit => {
            let fleet: Vec<_> = (1..=m).map(|p| TrivialSplit::new(p, m, n64)).collect();
            go(0, fleet, spec, kind.label())
        }
        AmoBaselineKind::TwoProcess => {
            assert_eq!(m, 2, "TwoProcess is defined for m = 2");
            let (l, r) = TwoProcess::pair(n64);
            go(2, vec![l, r], spec, kind.label())
        }
        AmoBaselineKind::PairsHybrid => {
            let fleet = PairsHybrid::fleet(n64, m);
            go(PairsHybrid::cells(m), fleet, spec, kind.label())
        }
        AmoBaselineKind::TasAmo => {
            let fleet: Vec<_> = (1..=m).map(|p| TasAmo::new(p, m, n64)).collect();
            go(TasAmo::cells(n), fleet, spec, kind.label())
        }
        AmoBaselineKind::RandomizedKk(seed) => {
            let config = KkConfig::new(n, m).expect("valid n/m");
            let (layout, fleet) = randomized_kk_fleet(&config, seed, false);
            go(layout.cells(), fleet, spec, kind.label())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_sim::CrashPlan;

    #[test]
    fn all_baselines_safe_crash_free() {
        for kind in [
            AmoBaselineKind::TrivialSplit,
            AmoBaselineKind::PairsHybrid,
            AmoBaselineKind::TasAmo,
            AmoBaselineKind::RandomizedKk(3),
        ] {
            let report = run_baseline_scenario(kind, 48, 4, &ScenarioSpec::random(1));
            assert!(report.violations.is_empty(), "{}", kind.label());
            assert!(report.completed, "{}", kind.label());
        }
        let two = run_baseline_scenario(
            AmoBaselineKind::TwoProcess,
            48,
            2,
            &ScenarioSpec::round_robin(),
        );
        assert!(two.violations.is_empty());
        assert!(two.effectiveness >= 47);
    }

    #[test]
    fn trivial_split_prediction_matches_measurement() {
        let n = 100;
        let m = 4;
        let f = 2;
        let report = run_baseline_scenario(
            AmoBaselineKind::TrivialSplit,
            n,
            m,
            &ScenarioSpec::round_robin().with_crash_plan(CrashPlan::first_f_immediately(f)),
        );
        let predicted = AmoBaselineKind::TrivialSplit
            .predicted_effectiveness(n as u64, m, f)
            .unwrap();
        assert_eq!(report.effectiveness, predicted);
    }

    #[test]
    fn tas_prediction_is_n_minus_f() {
        assert_eq!(
            AmoBaselineKind::TasAmo.predicted_effectiveness(100, 4, 3),
            Some(97)
        );
    }

    #[test]
    fn threads_run_all_kinds() {
        for kind in [
            AmoBaselineKind::TrivialSplit,
            AmoBaselineKind::PairsHybrid,
            AmoBaselineKind::TasAmo,
            AmoBaselineKind::RandomizedKk(9),
        ] {
            let report = run_baseline_threads(kind, 40, 4, &ThreadSpec::new());
            assert!(report.violations.is_empty(), "{}", kind.label());
        }
    }

    #[test]
    #[should_panic(expected = "m = 2")]
    fn two_process_wrong_m_rejected() {
        let _ = run_baseline_scenario(
            AmoBaselineKind::TwoProcess,
            10,
            3,
            &ScenarioSpec::round_robin(),
        );
    }
}
