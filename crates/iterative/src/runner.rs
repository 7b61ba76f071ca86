//! Configuration and runners for `IterativeKK(ε)`.
//!
//! A simulated run takes a [`ScenarioSpec`] and goes through the shared
//! scenario driver ([`amo_sim::run_scenario`]); a threaded run takes a
//! [`ThreadSpec`]. Both report through amo-core's [`AmoReport`]
//! constructors.

use amo_core::{AmoReport, ConfigError, KkConfig};
use amo_sim::thread::ThreadSpec;
use amo_sim::{run_scenario, ScenarioHooks, ScenarioSpec, Scheduler, VecRegisters};

use crate::layout::IterLayout;
use crate::process::IterativeProcess;
use crate::schedule::stage_sizes;

/// Problem-instance parameters for `IterativeKK(ε)`.
///
/// `inv_eps` is `1/ε`; the paper requires `1/ε` to be a positive integer.
/// `β` is fixed to `3m²` (Theorem 6.4's setting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterConfig {
    n: usize,
    m: usize,
    inv_eps: u32,
    sizes: Vec<u64>,
}

impl IterConfig {
    /// Validates and builds a configuration.
    ///
    /// # Errors
    ///
    /// Returns an error if `m == 0` or `n < m`.
    ///
    /// # Panics
    ///
    /// Panics if `inv_eps == 0`.
    pub fn new(n: usize, m: usize, inv_eps: u32) -> Result<Self, ConfigError> {
        // Reuse the KKβ validation for n/m; β is fixed below.
        let _ = KkConfig::new(n, m)?;
        let sizes = stage_sizes(n, m, inv_eps);
        Ok(Self {
            n,
            m,
            inv_eps,
            sizes,
        })
    }

    /// Number of jobs `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of processes `m`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// `1/ε`.
    pub fn inv_eps(&self) -> u32 {
        self.inv_eps
    }

    /// The fixed termination parameter `β = 3m²`.
    pub fn beta(&self) -> u64 {
        KkConfig::work_optimal_beta(self.m)
    }

    /// The stage block sizes, coarsest first, ending in 1.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Builds the stacked register layout.
    pub fn layout(&self) -> IterLayout {
        IterLayout::new(self.n, self.m, &self.sizes)
    }

    /// Conservative worst-case job loss of this implementation:
    /// `Σₖ m·sizeₖ` over the non-final stages (stuck announcements, §6's
    /// per-stage `(m−1)`-blocks argument with slack) plus `3m² + m` for the
    /// discarded final-stage outputs (the first flagger's `< β` window plus
    /// announcements). The Theorem 6.4 asymptotic form is
    /// `O(m²·log n·log m)`.
    pub fn loss_envelope(&self) -> u64 {
        let stage_loss: u64 = self.sizes[..self.sizes.len() - 1]
            .iter()
            .map(|s| s * self.m as u64)
            .sum();
        stage_loss + self.beta() + self.m as u64
    }

    /// Guaranteed effectiveness floor `n − loss_envelope` (saturating),
    /// asserted by the property tests.
    pub fn effectiveness_floor(&self) -> u64 {
        (self.n as u64).saturating_sub(self.loss_envelope())
    }

    /// The Theorem 6.4 work envelope `n + m^{3+ε}·log₂ n` (unit constant),
    /// used to normalise measured work in experiment E4.
    pub fn work_envelope(&self) -> f64 {
        let n = self.n as f64;
        let m = self.m as f64;
        let eps = 1.0 / self.inv_eps as f64;
        n + m.powf(3.0 + eps) * n.log2().max(1.0)
    }
}

/// Builds the layout and the `m` driver automatons.
pub fn iter_fleet(config: &IterConfig) -> (IterLayout, Vec<IterativeProcess>) {
    let layout = config.layout();
    let fleet = (1..=config.m())
        .map(|pid| IterativeProcess::new(pid, layout.clone(), config.beta(), false))
        .collect();
    (layout, fleet)
}

/// The scenario-layer registry entry for the iterated driver: the only
/// algorithm-specific adversary that applies is the (process-agnostic)
/// collision-maximising lockstep; the KKβ-internal adversaries
/// (stuck-announcement, staleness) inspect `KkProcess` state and stay
/// unsupported here by construction.
impl ScenarioHooks for IterativeProcess {
    fn adversary(name: &str) -> Option<Box<dyn Scheduler<Self>>> {
        amo_core::generic_adversary(name)
    }

    fn set_epoch_cache(&mut self, enabled: bool) {
        IterativeProcess::set_epoch_cache(self, enabled);
    }
}

/// Runs `IterativeKK(ε)` under `spec` in the deterministic simulator.
pub fn run_iterative_scenario(config: &IterConfig, spec: &ScenarioSpec) -> AmoReport {
    let (layout, fleet) = iter_fleet(config);
    let mem = VecRegisters::new(layout.cells());
    let (exec, _slots, _mem) = run_scenario(mem, fleet, spec);
    AmoReport::from_execution(exec, spec.label())
}

/// Runs `IterativeKK(ε)` on OS threads over hardware atomics, configured
/// by `spec`.
pub fn run_iterative_threads(config: &IterConfig, spec: &ThreadSpec) -> AmoReport {
    let (layout, fleet) = iter_fleet(config);
    let mem = spec.alloc(layout.cells());
    AmoReport::from_threads(spec.run(&mem, fleet), "threads")
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_sim::CrashPlan;

    #[test]
    fn config_validation_delegates() {
        assert!(IterConfig::new(10, 0, 1).is_err());
        assert!(IterConfig::new(2, 5, 1).is_err());
        assert!(IterConfig::new(100, 4, 1).is_ok());
    }

    #[test]
    fn beta_is_3m_squared() {
        let c = IterConfig::new(100, 4, 1).unwrap();
        assert_eq!(c.beta(), 48);
    }

    #[test]
    fn round_robin_run_is_safe_and_complete() {
        let c = IterConfig::new(512, 2, 1).unwrap();
        let report = run_iterative_scenario(&c, &ScenarioSpec::round_robin());
        assert!(report.violations.is_empty());
        assert!(report.completed);
        assert!(report.effectiveness >= c.effectiveness_floor());
        assert!(report.effectiveness <= 512);
    }

    #[test]
    fn random_run_with_crashes_is_safe() {
        let c = IterConfig::new(400, 3, 1).unwrap();
        let spec = ScenarioSpec::random(5)
            .with_crash_plan(CrashPlan::at_steps([(1usize, 100u64), (2, 400)]));
        let report = run_iterative_scenario(&c, &spec);
        assert!(report.violations.is_empty());
        assert_eq!(report.crashed, vec![1, 2]);
        assert!(report.effectiveness >= c.effectiveness_floor());
    }

    #[test]
    fn threads_run_is_safe() {
        let c = IterConfig::new(600, 4, 1).unwrap();
        let report = run_iterative_threads(&c, &ThreadSpec::new());
        assert!(report.violations.is_empty());
        assert!(report.completed);
        assert!(report.effectiveness >= c.effectiveness_floor());
    }

    #[test]
    fn loss_envelope_shrinks_relative_share() {
        // As n grows at fixed m, the envelope's share of n vanishes —
        // the asymptotic optimality claim of Theorem 6.4.
        let small = IterConfig::new(1 << 10, 4, 1).unwrap();
        let large = IterConfig::new(1 << 16, 4, 1).unwrap();
        let share = |c: &IterConfig| c.loss_envelope() as f64 / c.n() as f64;
        assert!(share(&large) < share(&small));
    }

    #[test]
    fn lockstep_run_is_safe() {
        let c = IterConfig::new(300, 3, 2).unwrap();
        let report = run_iterative_scenario(&c, &ScenarioSpec::adversary("lockstep"));
        assert!(report.violations.is_empty());
        assert!(report.effectiveness >= c.effectiveness_floor());
    }
}
