//! The unified scenario layer: one declarative [`ScenarioSpec`] and one
//! generic [`run_scenario`] driver shared by **every** algorithm stack.
//!
//! # Why a scenario layer
//!
//! The paper's effectiveness claims (KKβ vs. the iterated and Write-All
//! constructions) are only meaningful when every algorithm is exercised
//! under the *same* schedulers, crash plans and scales. A [`ScenarioSpec`]
//! describes a complete simulated execution environment — scheduler, crash
//! plan, limits, quantum, epoch-cache policy, engine path, register
//! backend, collision instrumentation — and [`run_scenario`] drives *any*
//! fleet of [`ScenarioProcess`]es through it. It is the one way to
//! configure a simulated run: every algorithm crate's simulated runner
//! takes a `&ScenarioSpec`. A real-thread run is configured by one
//! [`ThreadSpec`](crate::thread::ThreadSpec) instead: the machine schedules
//! its threads and its registers are hardware atomics, so only a crash
//! plan and a step cap (the watchdog) carry over to threads.
//!
//! # The adversary registry
//!
//! Fair schedulers (round-robin, seeded random, bursty blocks) are built
//! in: [`SchedulerSpec`] names them structurally and they apply to every
//! process type. *Algorithm-specific* adversaries — schedulers that inspect
//! process internals, like KKβ's stuck-announcement or staleness
//! adversaries — are requested **by name** via
//! [`SchedulerSpec::Adversary`] and resolved through the
//! [`ScenarioHooks::adversary`] factory, which each process type's home
//! crate implements. The capability rules:
//!
//! * a process type supports exactly the names its factory resolves
//!   ([`ScenarioHooks::supports_adversary`] probes without running);
//! * requesting an unsupported name is a harness bug and panics with the
//!   offending name — scenario grids must probe support first;
//! * adversaries keep the engine's single-step granularity (quantum 1) by
//!   contract: the factory returns plain [`Scheduler`]s, whose default
//!   [`Scheduler::quantum`] is 1, and [`ScenarioSpec::quantum`] is only
//!   consulted for the built-in fair schedulers.
//!
//! # Examples
//!
//! Driving a toy fleet under a bursty scheduler with a crash:
//!
//! ```
//! use amo_sim::testing::WriterProcess;
//! use amo_sim::{run_scenario, CrashPlan, ScenarioSpec, VecRegisters};
//!
//! let fleet = vec![WriterProcess::new(1, 0, 40), WriterProcess::new(2, 1, 40)];
//! let spec = ScenarioSpec::block(7, 4).with_crash_plan(CrashPlan::at_steps([(2usize, 5u64)]));
//! let (exec, _slots, _mem) = run_scenario(VecRegisters::new(2), fleet, &spec);
//! assert!(exec.completed);
//! assert_eq!(exec.crashed, vec![2]);
//! ```

use crate::crash::CrashPlan;
use crate::durable::{DurableRegisters, StorageFault};
use crate::engine::{Engine, EngineLimits, Execution, Slot};
use crate::process::Process;
use crate::registers::{Registers, VecRegisters};
use crate::sched::{BlockScheduler, RandomScheduler, RoundRobin, Scheduler, WithCrashes};

/// Scheduling strategy of a [`ScenarioSpec`]: the built-in fair schedulers
/// structurally, or a named algorithm-specific adversary resolved through
/// the [`ScenarioHooks::adversary`] registry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum SchedulerSpec {
    /// Fair round-robin ([`RoundRobin`]); honours
    /// [`ScenarioSpec::quantum`].
    #[default]
    RoundRobin,
    /// Seeded uniform-random ([`RandomScheduler`]); honours
    /// [`ScenarioSpec::quantum`].
    Random(
        /// RNG seed.
        u64,
    ),
    /// Seeded bursty schedule ([`BlockScheduler`]) — the burst is its own
    /// quantum, so [`ScenarioSpec::quantum`] is ignored.
    Block(
        /// RNG seed.
        u64,
        /// Actions per burst.
        u64,
    ),
    /// A named algorithm-specific adversary, resolved through
    /// [`ScenarioHooks::adversary`]. Always single-step (quantum 1).
    Adversary(
        /// Registry name (e.g. `"lockstep"`, `"stuck-announcement"`,
        /// `"staleness"`), doubling as the report label.
        &'static str,
    ),
}

impl SchedulerSpec {
    /// Human-readable label for report rows; for adversaries this is the
    /// registry name itself.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerSpec::RoundRobin => "round-robin",
            SchedulerSpec::Random(_) => "random",
            SchedulerSpec::Block(..) => "block",
            SchedulerSpec::Adversary(name) => name,
        }
    }

    /// `true` for [`SchedulerSpec::Adversary`].
    pub fn is_adversary(&self) -> bool {
        matches!(self, SchedulerSpec::Adversary(_))
    }
}

/// Register-file backend of a simulated scenario.
///
/// Threaded execution over [`AtomicRegisters`](crate::AtomicRegisters) is
/// not a backend: it is configured by a
/// [`ThreadSpec`](crate::thread::ThreadSpec), because real threads have no
/// deterministic scheduler to spec.
///
/// The enum (and its field-carrying variant) are `#[non_exhaustive]`:
/// downstream code constructs the durable backend through
/// [`BackendSpec::durable`] and matches with a wildcard arm, so a future
/// backend variant breaks no struct literal or match arm outside this
/// crate. A register file outside this enum runs through
/// [`run_scenario_on`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum BackendSpec {
    /// Deterministic in-memory registers with a global mutation epoch
    /// ([`VecRegisters`]).
    #[default]
    Vec,
    /// [`VecRegisters`] wrapped in the WAL-journaling
    /// [`DurableRegisters`]: crashes trigger storage blackouts under the
    /// configured fault regime, and crashed processes may restart (see
    /// [`CrashPlan::restart_after`]). With [`StorageFault::None`] this
    /// backend is bit-identical to [`BackendSpec::Vec`] — journaling is a
    /// pure side effect — which the equivalence suites pin.
    #[non_exhaustive]
    Durable {
        /// What a crash does to the crasher's unflushed journal suffix.
        fault: StorageFault,
        /// Seed for the fault model's deterministic randomness (torn /
        /// truncation cut points, stale-read coin flips).
        seed: u64,
    },
}

impl BackendSpec {
    /// Builder for the durable backend (preferred over the struct literal,
    /// which the `#[non_exhaustive]` variant forbids downstream).
    pub fn durable(fault: StorageFault, seed: u64) -> Self {
        BackendSpec::Durable { fault, seed }
    }

    /// Human-readable label for report rows.
    pub fn label(&self) -> &'static str {
        match self {
            BackendSpec::Vec => "vec",
            BackendSpec::Durable { .. } => "durable",
        }
    }

    /// The storage-fault regime, when this backend injects one.
    pub fn fault(&self) -> Option<StorageFault> {
        match self {
            BackendSpec::Durable { fault, .. } => Some(*fault),
            _ => None,
        }
    }
}

/// A declarative description of one simulated execution environment,
/// consumed by [`run_scenario`].
///
/// A spec is algorithm-agnostic: the same value can drive a KKβ fleet, an
/// iterated stage, a Write-All fleet or any baseline, which is what makes
/// cross-algorithm scenario grids (`amo-bench`'s `scenario_matrix`)
/// honest — every cell runs under literally the same environment.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scheduling strategy (see [`SchedulerSpec`]).
    pub scheduler: SchedulerSpec,
    /// Deterministic crash injection, composed with any scheduler through
    /// [`WithCrashes`]. Adversaries that crash processes themselves (e.g.
    /// KKβ's stuck-announcement) share the engine-enforced `f ≤ m − 1`
    /// budget with the plan.
    pub crash_plan: CrashPlan,
    /// Step cap (defaults to [`EngineLimits::default`]'s 200M actions).
    pub limits: EngineLimits,
    /// Actions granted per scheduler turn for the quantum-honouring
    /// built-ins ([`SchedulerSpec::RoundRobin`], [`SchedulerSpec::Random`]).
    /// `> 1` opts into the engine's macro-stepping fast path. Ignored by
    /// [`SchedulerSpec::Block`] (bursts carry their own quantum) and by
    /// adversaries (single-step by contract).
    pub quantum: u64,
    /// Enables the announcement-epoch caches on processes that have one
    /// (via [`ScenarioHooks::set_epoch_cache`]) and epoch maintenance on
    /// the register file. Takes effect only when the scheduler grants
    /// quanta ([`grants_quanta`](Self::grants_quanta)) — under single-action
    /// granularity a cache can skip no load by design, so both stay off to
    /// keep the per-action path lean.
    pub epoch_cache: bool,
    /// Forces the engine's per-action reference path even when the
    /// scheduler grants quanta (see [`Engine::single_step`]); used by the
    /// equivalence suites and for debugging.
    pub reference_single_step: bool,
    /// Register-file backend (see [`BackendSpec`]).
    pub backend: BackendSpec,
    /// Enables per-pair collision instrumentation on processes that support
    /// it (via [`ScenarioHooks::set_collision_tracking`]; costs memory
    /// and time).
    pub collisions: bool,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        Self {
            scheduler: SchedulerSpec::default(),
            crash_plan: CrashPlan::default(),
            limits: EngineLimits::default(),
            quantum: 1,
            epoch_cache: true,
            reference_single_step: false,
            backend: BackendSpec::default(),
            collisions: false,
        }
    }
}

impl ScenarioSpec {
    /// Strictly alternating round-robin, no crashes.
    pub fn round_robin() -> Self {
        Self::default()
    }

    /// Quantized round-robin with [`RoundRobin::BATCH_QUANTUM`] actions per
    /// turn — the macro-stepping fast path.
    pub fn round_robin_batched() -> Self {
        Self::default().with_quantum(RoundRobin::BATCH_QUANTUM)
    }

    /// Seeded random schedule, no crashes.
    pub fn random(seed: u64) -> Self {
        Self {
            scheduler: SchedulerSpec::Random(seed),
            ..Self::default()
        }
    }

    /// Bursty schedule.
    pub fn block(seed: u64, burst: u64) -> Self {
        Self {
            scheduler: SchedulerSpec::Block(seed, burst),
            ..Self::default()
        }
    }

    /// The named adversary from the [`ScenarioHooks::adversary`] registry.
    pub fn adversary(name: &'static str) -> Self {
        Self {
            scheduler: SchedulerSpec::Adversary(name),
            ..Self::default()
        }
    }

    /// Adds a crash plan.
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> Self {
        self.crash_plan = plan;
        self
    }

    /// Sets the per-turn quantum (see [`Self::quantum`]).
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn with_quantum(mut self, quantum: u64) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        self.quantum = quantum;
        self
    }

    /// Replaces the engine step cap.
    pub fn with_limits(mut self, limits: EngineLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Caps the execution at `max_steps` total actions (shorthand for
    /// [`with_limits`](Self::with_limits)).
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.limits = EngineLimits::with_max_steps(max_steps);
        self
    }

    /// Enables or disables the announcement-epoch caches (see
    /// [`Self::epoch_cache`]).
    pub fn with_epoch_cache(mut self, enabled: bool) -> Self {
        self.epoch_cache = enabled;
        self
    }

    /// Forces the per-action reference engine path (see
    /// [`Self::reference_single_step`]).
    pub fn single_step(mut self) -> Self {
        self.reference_single_step = true;
        self
    }

    /// Enables collision instrumentation (see [`Self::collisions`]).
    pub fn with_collision_tracking(mut self) -> Self {
        self.collisions = true;
        self
    }

    /// Replaces the register-file backend (see [`BackendSpec`]).
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Shorthand for the durable backend under the given fault regime.
    pub fn durable(self, fault: StorageFault, seed: u64) -> Self {
        self.with_backend(BackendSpec::durable(fault, seed))
    }

    /// `true` when the configured scheduler grants quanta, i.e. the engine
    /// will drive processes through `step_many` and an announcement-epoch
    /// cache can actually skip work.
    ///
    /// Honours the per-kind [`quantum`](Self::quantum) semantics: only the
    /// quantum-honouring built-ins (round-robin, random) grant it, blocks
    /// grant their bursts, and adversaries never grant — so a `quantum > 1`
    /// left on an adversary spec does not switch on caches or epoch
    /// tracking that could skip nothing under single-action granularity.
    pub fn grants_quanta(&self) -> bool {
        match self.scheduler {
            SchedulerSpec::RoundRobin | SchedulerSpec::Random(_) => self.quantum > 1,
            SchedulerSpec::Block(..) => true,
            SchedulerSpec::Adversary(_) => false,
        }
    }

    /// The label reported for this spec's scheduler.
    pub fn label(&self) -> &'static str {
        self.scheduler.label()
    }
}

/// The backend-free registry contract between the generic driver and
/// algorithm crates — what a process type's home crate implements **once**
/// to become a scenario citizen.
///
/// Every method has a correct do-nothing default, so plain processes opt in
/// with an empty `impl` block. Home crates override what applies:
///
/// * [`adversary`](Self::adversary) — the named-adversary factory. A crate
///   that defines an adversary scheduler for its process type resolves the
///   name here (e.g. `amo-core` resolves `"lockstep"`,
///   `"stuck-announcement"` and `"staleness"` for `KkProcess`); names the
///   factory does not recognise mean *unsupported*, and [`run_scenario`]
///   panics if a spec requests one.
/// * [`set_epoch_cache`](Self::set_epoch_cache) — announcement-epoch cache
///   opt-in, called by the driver on every process exactly when
///   [`ScenarioSpec::epoch_cache`] applies (see there).
/// * [`set_collision_tracking`](Self::set_collision_tracking) — per-pair
///   collision instrumentation, driven by [`ScenarioSpec::collisions`].
///
/// Deliberately, the trait carries **no** [`Process<R>`] bounds: hooks are
/// about registries and instrumentation, not about which register file the
/// process steps over. Algorithm automatons are written generically over
/// [`Registers`] (`impl<R: Registers + ?Sized> Process<R> for …`), so a new
/// backend needs **zero** edits in algorithm crates — the home crate's one
/// `ScenarioHooks` impl plus its generic `Process` impl already cover it,
/// and [`ScenarioProcess`] (the driver-facing alias) picks both up through
/// its blanket impl.
pub trait ScenarioHooks {
    /// Builds the named adversary scheduler for this process type, or
    /// `None` when the name is not supported. See the module docs for the
    /// capability rules.
    fn adversary(name: &str) -> Option<Box<dyn Scheduler<Self>>>
    where
        Self: Sized,
    {
        let _ = name;
        None
    }

    /// `true` when [`adversary`](Self::adversary) resolves `name` — the
    /// probe scenario grids use to skip unsupported cells.
    ///
    /// The default delegates to `Self::adversary(name).is_some()`, so a
    /// registry implements **one** method and support stays consistent with
    /// resolution by construction. Capability rule: a process type supports
    /// exactly the names its factory resolves — overriding this probe to
    /// answer differently from the factory is a contract violation
    /// ([`run_scenario`] panics on unresolvable names that probed as
    /// supported).
    fn supports_adversary(name: &str) -> bool
    where
        Self: Sized,
    {
        Self::adversary(name).is_some()
    }

    /// Enables or disables this process's announcement-epoch cache, when it
    /// has one. Default: no cache, no-op.
    fn set_epoch_cache(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Enables or disables per-pair collision instrumentation, when the
    /// process supports it. Default: no instrumentation, no-op.
    fn set_collision_tracking(&mut self, enabled: bool) {
        let _ = enabled;
    }
}

/// A boxed process keeps its hooks: the instance hooks forward to the
/// boxee, so a driver wiring epoch caches or collision instrumentation
/// through a `Box<dyn …>` fleet reaches the real process.
///
/// The *registry* methods ([`adversary`](ScenarioHooks::adversary),
/// [`supports_adversary`](ScenarioHooks::supports_adversary)) are static
/// (`Self: Sized`) and cannot forward through a trait object, so a boxed
/// fleet keeps the defaults: **named adversaries are unresolvable through
/// the erased interface** and a spec requesting one panics exactly like any
/// other unsupported name. Scenario grids that mix dyn fleets with
/// adversary cells must resolve the adversary on the concrete type before
/// boxing.
impl<P: ScenarioHooks + ?Sized> ScenarioHooks for Box<P> {
    fn set_epoch_cache(&mut self, enabled: bool) {
        (**self).set_epoch_cache(enabled)
    }

    fn set_collision_tracking(&mut self, enabled: bool) {
        (**self).set_collision_tracking(enabled)
    }
}

/// A process type that [`run_scenario`] can drive through **any**
/// [`BackendSpec`] — the driver-facing alias over [`ScenarioHooks`] plus
/// steppability on each built-in backend's register file.
///
/// Never implement this directly: the blanket impl below derives it for
/// every type with a `ScenarioHooks` impl and the required `Process` impls,
/// and algorithm crates get those for free from one generic
/// `impl<R: Registers + ?Sized> Process<R>`. Adding a backend extends the
/// bound list *here*, in this one place — algorithm crates never change.
/// (Custom backends outside [`BackendSpec`] don't even need this alias:
/// [`run_scenario_on`] drives any `ScenarioHooks + Process<R>` fleet over
/// any `R: Registers`.)
pub trait ScenarioProcess:
    ScenarioHooks + Process<VecRegisters> + Process<DurableRegisters> + Send
{
}

impl<P> ScenarioProcess for P where
    P: ScenarioHooks + Process<VecRegisters> + Process<DurableRegisters> + Send
{
}

/// The **object-safe** scenario citizen: what one erased process must be
/// able to do so a `Box<dyn DynProcess>` can go anywhere a concrete process
/// type goes — through [`run_scenario`] on every built-in backend *and*
/// onto real OS threads over [`AtomicRegisters`](crate::AtomicRegisters)
/// (which is how `amo-serve`'s workers step their automatons behind one
/// interface).
///
/// This is [`ScenarioProcess`] minus the non-object-safe registry statics,
/// plus `Process<AtomicRegisters>` and `Send` for the thread runtime.
/// Never implement it directly: the blanket impl derives it for every type
/// with a `ScenarioHooks` impl and a generic
/// `impl<R: Registers + ?Sized> Process<R>` — i.e. every algorithm process
/// in the workspace qualifies automatically, so `KkProcess`, iterative and
/// Write-All automatons can share one `Vec<BoxProcess>` fleet.
///
/// What erasure costs (and the equivalence suites pin that it costs
/// *nothing else*): named adversaries cannot resolve through the erased
/// interface (see the [`ScenarioHooks`] impl for `Box<P>`); everything
/// observable — step events, batching, epoch caches, restart support, work
/// accounting — forwards to the boxee bit-identically.
pub trait DynProcess:
    ScenarioHooks
    + Process<VecRegisters>
    + Process<DurableRegisters>
    + Process<crate::AtomicRegisters>
    + Send
{
}

impl<P> DynProcess for P where
    P: ScenarioHooks
        + Process<VecRegisters>
        + Process<DurableRegisters>
        + Process<crate::AtomicRegisters>
        + Send
{
}

/// An erased scenario process — the fleet element of heterogeneous runs.
pub type BoxProcess = Box<dyn DynProcess>;

/// Boxes a concrete process into the erased fleet type.
///
/// Sugar for `Box::new(p) as BoxProcess`, which keeps heterogeneous fleet
/// literals readable:
///
/// ```
/// use amo_sim::scenario::{boxed, BoxProcess};
/// use amo_sim::testing::{PerformOnceProcess, WriterProcess};
///
/// let fleet: Vec<BoxProcess> = vec![
///     boxed(PerformOnceProcess::new(1, 7)),
///     boxed(WriterProcess::new(2, 0, 3)),
/// ];
/// assert_eq!(fleet.len(), 2);
/// ```
pub fn boxed<P: DynProcess + 'static>(p: P) -> BoxProcess {
    Box::new(p)
}

/// Runs `fleet` over `mem` under the environment described by `spec`,
/// returning the recorded [`Execution`], the final process slots (for
/// terminal-state inspection: IterStep outputs, collision matrices, …) and
/// the register file (for final-memory certification).
///
/// This is the single driver every simulated runner stack routes through:
/// each algorithm crate builds its fleet and register file and hands them
/// here together with the caller's [`ScenarioSpec`].
///
/// # Panics
///
/// Panics if the spec requests an adversary this process type does not
/// support (see [`ScenarioHooks::adversary`]), or on the [`Engine`]'s
/// own contract violations (empty or misordered fleet, invalid scheduler
/// decisions).
pub fn run_scenario<P: ScenarioProcess>(
    mem: VecRegisters,
    fleet: Vec<P>,
    spec: &ScenarioSpec,
) -> (Execution, Vec<Slot<P>>, VecRegisters) {
    // Epoch maintenance on the register file is VecRegisters-specific (the
    // durable wrapper delegates it verbatim), so it is configured here,
    // before the one generic code path takes over.
    mem.set_epoch_tracking(spec.epoch_cache && spec.grants_quanta());

    match spec.backend {
        BackendSpec::Durable { fault, seed } => {
            // Wrap *after* epoch wiring: the journal layer delegates every
            // observable verbatim, so the inner file is configured exactly
            // as the volatile backend would be.
            let mem = DurableRegisters::new(mem, fault, seed);
            let (exec, slots, mem) = run_scenario_on(mem, fleet, spec);
            (exec, slots, mem.into_inner())
        }
        BackendSpec::Vec => run_scenario_on(mem, fleet, spec),
    }
}

/// The single generic code path behind [`run_scenario`]: drives `fleet`
/// over **any** register file `R` — hook wiring, restart-support checks,
/// scheduler resolution and the engine run.
///
/// [`run_scenario`] lowers every [`BackendSpec`] into a call here (wrapping
/// and unwrapping the register file around it); custom backends outside
/// [`BackendSpec`] call it directly — any `R: Registers` works, and the
/// fleet only needs `ScenarioHooks + Process<R>`, which algorithm crates
/// provide generically. [`ScenarioSpec::backend`] is *not* consulted (the
/// backend is whatever `mem` is), and backend-specific register-file
/// configuration (e.g. [`VecRegisters::set_epoch_tracking`]) is the
/// caller's concern.
///
/// # Panics
///
/// Panics if the spec requests an adversary this process type does not
/// support (see [`ScenarioHooks::adversary`]), if the crash plan restarts a
/// process without restart support, or on the [`Engine`]'s own contract
/// violations (empty or misordered fleet, invalid scheduler decisions).
pub fn run_scenario_on<R, P>(
    mem: R,
    mut fleet: Vec<P>,
    spec: &ScenarioSpec,
) -> (Execution, Vec<Slot<P>>, R)
where
    R: Registers,
    P: ScenarioHooks + Process<R>,
{
    // Epoch caches only pay when the scheduler grants quanta; without them
    // no process consults epochs, so the cache stays off to keep the
    // per-action path lean.
    if spec.epoch_cache && spec.grants_quanta() {
        for p in &mut fleet {
            p.set_epoch_cache(true);
        }
    }
    if spec.collisions {
        for p in &mut fleet {
            p.set_collision_tracking(true);
        }
    }
    if spec.crash_plan.has_restarts() {
        // A restart entry for a process that cannot rebuild itself is a
        // harness bug; fail before running rather than mid-execution.
        for p in &fleet {
            assert!(
                Process::<R>::supports_restart(p),
                "crash plan restarts pid {} but the process does not support restart",
                Process::<R>::pid(p)
            );
        }
    }

    fn go<R: Registers, P: Process<R>, S: Scheduler<P>>(
        mem: R,
        fleet: Vec<P>,
        sched: S,
        spec: &ScenarioSpec,
    ) -> (Execution, Vec<Slot<P>>, R) {
        let sched = WithCrashes::new(sched, spec.crash_plan.clone());
        let mut engine = Engine::new(mem, fleet, sched);
        if spec.reference_single_step {
            engine = engine.single_step();
        }
        engine.run_full(spec.limits)
    }

    match spec.scheduler {
        SchedulerSpec::RoundRobin => go(
            mem,
            fleet,
            RoundRobin::new().with_quantum(spec.quantum.max(1)),
            spec,
        ),
        SchedulerSpec::Random(seed) => go(
            mem,
            fleet,
            RandomScheduler::new(seed).with_quantum(spec.quantum.max(1)),
            spec,
        ),
        SchedulerSpec::Block(seed, burst) => go(mem, fleet, BlockScheduler::new(seed, burst), spec),
        SchedulerSpec::Adversary(name) => {
            let sched = P::adversary(name).unwrap_or_else(|| {
                panic!(
                    "adversary {name:?} is not registered for this process type \
                     (see ScenarioHooks::adversary)"
                )
            });
            go(mem, fleet, sched, spec)
        }
    }
}

// The testing processes are plain scenario citizens: no caches, no
// instrumentation, no adversaries — the defaults.
impl ScenarioHooks for crate::testing::WriterProcess {}
impl ScenarioHooks for crate::testing::PerformOnceProcess {}
impl ScenarioHooks for crate::testing::RacyClaimProcess {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registers::Registers;
    use crate::sched::{Decision, SchedView};
    use crate::testing::WriterProcess;

    fn writers(k: u64) -> (VecRegisters, Vec<WriterProcess>) {
        (
            VecRegisters::new(2),
            vec![WriterProcess::new(1, 0, k), WriterProcess::new(2, 1, k)],
        )
    }

    #[test]
    fn default_spec_is_strict_round_robin() {
        let spec = ScenarioSpec::default();
        assert_eq!(spec.scheduler, SchedulerSpec::RoundRobin);
        assert_eq!(spec.quantum, 1);
        assert!(!spec.grants_quanta());
        assert_eq!(spec.label(), "round-robin");
        let (mem, fleet) = writers(2);
        let (exec, _, _) = run_scenario(mem, fleet, &spec);
        assert!(exec.completed);
        assert_eq!(exec.total_steps, 6, "2 × (2 writes + 1 terminate)");
    }

    #[test]
    fn quantum_applies_to_random_too() {
        // The previously-impossible cell: a quantum-granting random
        // schedule. Identical to its own single-step reference by the
        // engine's batching contract.
        let spec = ScenarioSpec::random(9).with_quantum(5);
        assert!(spec.grants_quanta());
        let (mem, fleet) = writers(20);
        let (fast, _, _) = run_scenario(mem, fleet, &spec);
        let (mem, fleet) = writers(20);
        let (refr, _, _) = run_scenario(mem, fleet, &spec.clone().single_step());
        assert_eq!(fast, refr);
    }

    #[test]
    fn crash_plans_compose_with_every_builtin() {
        for spec in [
            ScenarioSpec::round_robin(),
            ScenarioSpec::round_robin_batched(),
            ScenarioSpec::random(3),
            ScenarioSpec::block(3, 4),
        ] {
            let spec = spec.with_crash_plan(CrashPlan::at_steps([(1usize, 1u64)]));
            let (mem, fleet) = writers(10);
            let (exec, _, _) = run_scenario(mem, fleet, &spec);
            assert_eq!(exec.crashed, vec![1], "{}", spec.label());
            assert!(exec.completed);
        }
    }

    #[test]
    fn epoch_tracking_follows_quanta() {
        let (mem, fleet) = writers(4);
        let (_, _, mem) = run_scenario(mem, fleet, &ScenarioSpec::round_robin());
        assert!(!mem.epochs_enabled(), "no quanta → tracking off");
        let (mem2, fleet) = writers(4);
        let (_, _, mem2) = run_scenario(mem2, fleet, &ScenarioSpec::round_robin_batched());
        assert!(mem2.epochs_enabled(), "quanta → tracking on");
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unsupported_adversary_panics() {
        let (mem, fleet) = writers(1);
        let _ = run_scenario(mem, fleet, &ScenarioSpec::adversary("no-such-adversary"));
    }

    #[test]
    fn supports_adversary_probes_without_running() {
        assert!(!WriterProcess::supports_adversary("lockstep"));
    }

    #[test]
    fn fault_free_durable_backend_is_bit_identical_to_vec() {
        for base in [
            ScenarioSpec::round_robin(),
            ScenarioSpec::round_robin_batched(),
            ScenarioSpec::random(5).with_quantum(7),
            ScenarioSpec::block(2, 3),
        ] {
            let base = base.with_crash_plan(CrashPlan::at_steps([(1usize, 3u64)]));
            let (mem, fleet) = writers(12);
            let (vec_exec, _, _) = run_scenario(mem, fleet, &base);
            let (mem, fleet) = writers(12);
            let durable = base.clone().durable(StorageFault::None, 99);
            let (dur_exec, _, mem) = run_scenario(mem, fleet, &durable);
            assert_eq!(vec_exec, dur_exec, "{}", base.label());
            assert_eq!(mem.read(1), 2, "unwrapped file carries final state");
        }
    }

    #[test]
    fn durable_backend_recovers_across_a_restart() {
        // pid 1 crashes mid-run under a dropped-flush regime and restarts;
        // the run still completes with both cells written.
        let mut plan = CrashPlan::at_steps([(1usize, 2u64)]);
        plan.restart_after(1, 3);
        let spec = ScenarioSpec::round_robin()
            .with_crash_plan(plan)
            .durable(StorageFault::DroppedFlush, 17);
        let (mem, fleet) = writers(4);
        let (exec, _, mem) = run_scenario(mem, fleet, &spec);
        assert_eq!(exec.crashed, vec![1]);
        assert_eq!(exec.restarted, vec![1]);
        assert!(exec.completed);
        assert_eq!(mem.read(0), 1);
        assert_eq!(mem.read(1), 2);
    }

    #[test]
    #[should_panic(expected = "does not support restart")]
    fn restart_plan_requires_restart_support() {
        let mut plan = CrashPlan::at_steps([(1usize, 0u64)]);
        plan.restart_after(1, 1);
        let spec = ScenarioSpec::round_robin().with_crash_plan(plan);
        let fleet = vec![
            crate::testing::PerformOnceProcess::new(1, 1),
            crate::testing::PerformOnceProcess::new(2, 2),
        ];
        let _ = run_scenario(VecRegisters::new(0), fleet, &spec);
    }

    #[test]
    fn backend_labels_are_stable() {
        assert_eq!(BackendSpec::Vec.label(), "vec");
        let d = BackendSpec::Durable {
            fault: StorageFault::TornWrite,
            seed: 0,
        };
        assert_eq!(d.label(), "durable");
        assert_eq!(d.fault(), Some(StorageFault::TornWrite));
        assert_eq!(BackendSpec::Vec.fault(), None);
    }

    #[test]
    fn dyn_fleet_runs_and_matches_static() {
        // The headline dyn-equivalence pin at the unit level: a
        // homogeneous boxed fleet is bit-identical to the unboxed run.
        for spec in [
            ScenarioSpec::round_robin(),
            ScenarioSpec::round_robin_batched(),
            ScenarioSpec::random(11).with_quantum(3),
        ] {
            let spec = spec.with_crash_plan(CrashPlan::at_steps([(2usize, 4u64)]));
            let (mem, fleet) = writers(9);
            let (static_exec, _, _) = run_scenario(mem, fleet, &spec);
            let mem = VecRegisters::new(2);
            let fleet: Vec<BoxProcess> = vec![
                boxed(WriterProcess::new(1, 0, 9)),
                boxed(WriterProcess::new(2, 1, 9)),
            ];
            let (dyn_exec, slots, _) = run_scenario(mem, fleet, &spec);
            assert_eq!(static_exec, dyn_exec, "{}", spec.label());
            assert_eq!(slots.len(), 2);
        }
    }

    #[test]
    fn dyn_fleet_is_heterogeneous() {
        // Two different concrete types in one fleet — inexpressible before
        // the dyn seam.
        let fleet: Vec<BoxProcess> = vec![
            boxed(crate::testing::PerformOnceProcess::new(1, 5)),
            boxed(WriterProcess::new(2, 0, 3)),
        ];
        let (exec, _, _) = run_scenario(VecRegisters::new(1), fleet, &ScenarioSpec::default());
        assert!(exec.completed);
        assert_eq!(exec.performed.len(), 1);
        assert_eq!(exec.performed[0].span, crate::JobSpan::single(5));
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn dyn_fleet_cannot_resolve_named_adversaries() {
        let fleet: Vec<BoxProcess> = vec![boxed(WriterProcess::new(1, 0, 2))];
        let _ = run_scenario(
            VecRegisters::new(1),
            fleet,
            &ScenarioSpec::adversary("lockstep"),
        );
    }

    #[test]
    fn boxed_scheduler_dispatch_works() {
        // Exercise the Box<dyn Scheduler> path the adversary registry uses.
        struct Rr;
        impl<P> Scheduler<P> for Rr {
            fn decide(&mut self, view: &SchedView<'_, P>) -> Decision {
                Decision::Step(view.running().next().expect("someone runs"))
            }
        }
        let (mem, fleet) = writers(3);
        let sched: Box<dyn Scheduler<WriterProcess>> = Box::new(Rr);
        let exec = Engine::new(mem, fleet, sched).run(EngineLimits::default());
        assert!(exec.completed);
    }
}
