//! Composable, seeded chaos plans: one [`ChaosPlan`] schedules faults
//! across *every* injection point the workspace has — process crashes and
//! restarts ([`CrashPlan`](crate::CrashPlan)), storage blackout regimes
//! ([`StorageFault`] on the durable backend) and named scheduler
//! adversaries — and lowers onto a [`ScenarioSpec`] so every existing
//! driver accepts the chaos dimension with zero algorithm-crate edits.
//!
//! # Plan composition → `ScenarioSpec` lowering
//!
//! A plan is an ordered list of [`ChaosEvent`]s over a base spec.
//! [`ChaosPlan::lower_onto`] folds them in order: crash/restart events
//! merge into the spec's [`CrashPlan`](crate::CrashPlan) (later events overwrite earlier
//! ones for the same pid, exactly like the incremental `CrashPlan`
//! builders); a storage event selects the durable backend; an adversary
//! event replaces the scheduler. Later storage and adversary events
//! overwrite earlier ones the same way.
//!
//! The **quiet-plan identity** is the anchor of the whole surface: a plan
//! with no events lowers to a spec that drives a bit-identical
//! [`Execution`](crate::Execution) (pinned here and, per algorithm stack,
//! by the workspace `chaos_equivalence` suite), so the chaos dimension is
//! observationally free until a fault is actually scheduled.
//!
//! # Drawing seeded plans
//!
//! [`ChaosPlan::draw`] derives a plan deterministically from a seed, an
//! [`Intensity`] tier and a [`ChaosSpace`] describing which fault axes the
//! target stack supports (restarts only for processes that implement
//! `on_restart`, adversaries only for stacks that register them, …). The
//! same `(seed, intensity, space)` triple always yields the same plan —
//! the E12 chaos sweep leans on this for cell-for-cell reproducibility.
//!
//! # The shrinker determinism contract
//!
//! [`shrink_plan`] delta-debugs a failing plan to a minimal reproducer:
//! greedy event removal first, then per-field halving, iterated to a fixed
//! point. Candidates are tried in one fixed documented order (event index
//! ascending; within an event, fields in declaration order), so for a
//! deterministic failure predicate the shrinker returns the **same**
//! minimal plan on every run — a reproducer you can commit to a test.
//!
//! # The replay format
//!
//! [`ChaosPlan::to_replay`] serialises a plan as a line-based text snippet
//! (`chaos-plan v1` header, one `key=value` event per line) and
//! [`ChaosPlan::parse_replay`] parses it back; round-tripping is exact.
//! The format is hand-rolled on purpose — no serialisation dependency —
//! and adversary names are resolved against a static dictionary
//! ([`KNOWN_ADVERSARIES`]) so a parsed plan still carries `&'static str`
//! registry names.

use crate::durable::StorageFault;
use crate::scenario::{BackendSpec, ScenarioSpec, SchedulerSpec};

/// The adversary names a replayed plan may request: every registry name
/// any process type in the workspace resolves. Parsing an unknown name is
/// an error — [`SchedulerSpec::Adversary`] carries `&'static str`, so the
/// parser maps through this dictionary instead of leaking strings.
pub const KNOWN_ADVERSARIES: &[&str] = &["lockstep", "stuck-announcement", "staleness"];

/// One scheduled fault of a [`ChaosPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosEvent {
    /// Process `pid` crash-stops after `after` actions (lowers into
    /// [`CrashPlan::crash`](crate::CrashPlan::crash)).
    Crash {
        /// Victim pid.
        pid: usize,
        /// Action budget before the crash.
        after: u64,
    },
    /// Process `pid` restarts `delay` global steps after its crash (lowers
    /// into [`CrashPlan::restart_after`](crate::CrashPlan::restart_after); the target fleet must support
    /// `on_restart`).
    Restart {
        /// Restarting pid.
        pid: usize,
        /// Global-step delay after the crash.
        delay: u64,
    },
    /// Crashes trigger storage blackouts under this fault regime (lowers
    /// into [`BackendSpec::durable`]).
    Storage {
        /// Blackout regime.
        fault: StorageFault,
        /// Seed of the fault model's randomness.
        seed: u64,
    },
    /// The schedule is the named registry adversary (lowers into
    /// [`SchedulerSpec::Adversary`]).
    Adversary {
        /// Registry name; must be in [`KNOWN_ADVERSARIES`] to replay.
        name: &'static str,
    },
}

/// A composable, seeded fault schedule over one simulated run. See the
/// module docs for the lowering, drawing, shrinking and replay contracts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The seed the plan was drawn from (0 for hand-built plans); carried
    /// for provenance in reports and replay snippets.
    pub seed: u64,
    events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// The quiet plan: no events. Lowers onto any spec as an exact clone.
    pub fn quiet() -> Self {
        ChaosPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// `true` when no fault is scheduled.
    pub fn is_quiet(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled events, in lowering order.
    pub fn events(&self) -> &[ChaosEvent] {
        &self.events
    }

    /// Appends an event (builder-style).
    pub fn with_event(mut self, event: ChaosEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Schedules a crash: `pid` stops after `after` actions.
    pub fn crash(self, pid: usize, after: u64) -> Self {
        self.with_event(ChaosEvent::Crash { pid, after })
    }

    /// Schedules a restart: `pid` re-enters `delay` steps after its crash.
    pub fn restart(self, pid: usize, delay: u64) -> Self {
        self.with_event(ChaosEvent::Restart { pid, delay })
    }

    /// Schedules storage blackouts under `fault` (durable backend).
    pub fn storage(self, fault: StorageFault, seed: u64) -> Self {
        self.with_event(ChaosEvent::Storage { fault, seed })
    }

    /// Schedules the named registry adversary as the scheduler.
    pub fn adversary(self, name: &'static str) -> Self {
        self.with_event(ChaosEvent::Adversary { name })
    }

    /// Count of scheduled crash events.
    pub fn crash_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ChaosEvent::Crash { .. }))
            .count()
    }

    /// `true` if the plan schedules a restart.
    pub fn has_restarts(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e, ChaosEvent::Restart { .. }))
    }

    /// A short human-readable summary of the event mix, for report rows
    /// (e.g. `"2 crash + storage(torn-write) + adversary(lockstep)"`).
    pub fn summary(&self) -> String {
        if self.is_quiet() {
            return "quiet".to_string();
        }
        let mut parts = Vec::new();
        let crashes = self.crash_count();
        if crashes > 0 {
            parts.push(format!("{crashes} crash"));
        }
        let restarts = self
            .events
            .iter()
            .filter(|e| matches!(e, ChaosEvent::Restart { .. }))
            .count();
        if restarts > 0 {
            parts.push(format!("{restarts} restart"));
        }
        for e in &self.events {
            match e {
                ChaosEvent::Storage { fault, .. } => {
                    parts.push(format!("storage({})", fault.label()))
                }
                ChaosEvent::Adversary { name } => parts.push(format!("adversary({name})")),
                _ => {}
            }
        }
        parts.join(" + ")
    }

    /// Lowers this plan onto `base`: the returned spec is `base` with every
    /// event folded in (see the module docs for the per-event rules). The
    /// quiet plan returns an exact clone of `base`.
    pub fn lower_onto(&self, base: &ScenarioSpec) -> ScenarioSpec {
        let mut spec = base.clone();
        for event in &self.events {
            match *event {
                ChaosEvent::Crash { pid, after } => {
                    spec.crash_plan.crash(pid, after);
                }
                ChaosEvent::Restart { pid, delay } => {
                    spec.crash_plan.restart_after(pid, delay);
                }
                ChaosEvent::Storage { fault, seed } => {
                    spec.backend = BackendSpec::durable(fault, seed);
                }
                ChaosEvent::Adversary { name } => {
                    spec.scheduler = SchedulerSpec::Adversary(name);
                }
            }
        }
        spec
    }

    /// Serialises the plan as a replayable text snippet (see the module
    /// docs); [`parse_replay`](Self::parse_replay) inverts it exactly.
    pub fn to_replay(&self) -> String {
        let mut out = String::from("chaos-plan v1\n");
        out.push_str(&format!("seed = {}\n", self.seed));
        for e in &self.events {
            let line = match *e {
                ChaosEvent::Crash { pid, after } => format!("crash pid={pid} after={after}"),
                ChaosEvent::Restart { pid, delay } => format!("restart pid={pid} delay={delay}"),
                ChaosEvent::Storage { fault, seed } => {
                    format!("storage fault={} seed={seed}", fault.label())
                }
                ChaosEvent::Adversary { name } => format!("adversary name={name}"),
            };
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Parses a replay snippet produced by [`to_replay`](Self::to_replay)
    /// back into a plan. Blank lines are skipped; any malformed line, an
    /// unknown storage-fault label or an adversary name outside
    /// [`KNOWN_ADVERSARIES`] is an error naming the offending line.
    pub fn parse_replay(text: &str) -> Result<ChaosPlan, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        match lines.next().map(str::trim) {
            Some("chaos-plan v1") => {}
            other => return Err(format!("expected `chaos-plan v1` header, got {other:?}")),
        }
        let seed_line = lines.next().ok_or("missing `seed = N` line")?.trim();
        let seed = seed_line
            .strip_prefix("seed")
            .and_then(|r| r.trim_start().strip_prefix('='))
            .ok_or_else(|| format!("expected `seed = N`, got `{seed_line}`"))?
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("bad seed in `{seed_line}`: {e}"))?;
        let mut plan = ChaosPlan {
            seed,
            events: Vec::new(),
        };
        for line in lines {
            let line = line.trim();
            let mut words = line.split_whitespace();
            let kind = words.next().expect("non-empty line has a first word");
            let mut fields = std::collections::BTreeMap::new();
            for w in words {
                let (k, v) = w
                    .split_once('=')
                    .ok_or_else(|| format!("expected key=value, got `{w}` in `{line}`"))?;
                fields.insert(k.to_string(), v.to_string());
            }
            let get = |k: &str| -> Result<String, String> {
                fields
                    .get(k)
                    .cloned()
                    .ok_or_else(|| format!("missing `{k}=` in `{line}`"))
            };
            let num = |k: &str| -> Result<u64, String> {
                get(k)?
                    .parse::<u64>()
                    .map_err(|e| format!("bad `{k}=` in `{line}`: {e}"))
            };
            let event = match kind {
                "crash" => ChaosEvent::Crash {
                    pid: num("pid")? as usize,
                    after: num("after")?,
                },
                "restart" => ChaosEvent::Restart {
                    pid: num("pid")? as usize,
                    delay: num("delay")?,
                },
                "storage" => {
                    let label = get("fault")?;
                    let fault = StorageFault::ALL
                        .iter()
                        .copied()
                        .find(|f| f.label() == label)
                        .ok_or_else(|| format!("unknown storage fault `{label}` in `{line}`"))?;
                    ChaosEvent::Storage {
                        fault,
                        seed: num("seed")?,
                    }
                }
                "adversary" => {
                    let name = get("name")?;
                    let known = KNOWN_ADVERSARIES
                        .iter()
                        .copied()
                        .find(|&k| k == name)
                        .ok_or_else(|| {
                            format!(
                                "unknown adversary `{name}` in `{line}` (known: \
                                 {KNOWN_ADVERSARIES:?})"
                            )
                        })?;
                    ChaosEvent::Adversary { name: known }
                }
                other => return Err(format!("unknown event kind `{other}` in `{line}`")),
            };
            plan.events.push(event);
        }
        Ok(plan)
    }

    /// Draws a plan deterministically from `(seed, intensity, space)` —
    /// the same triple always yields the same plan. The intensity tier
    /// scales how many crashes are scheduled and how likely a storage
    /// regime and an adversary join the mix;
    /// the space gates which axes may appear at all (see [`ChaosSpace`]).
    /// Crash victims are distinct pids in `1..=space.m` and the total
    /// crash count stays `< m` (the paper's `f < m` model).
    pub fn draw(seed: u64, intensity: Intensity, space: &ChaosSpace) -> Self {
        assert!(space.m > 0, "need at least one process");
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let tier = intensity.index() as u64; // 0, 1, 2
        let mut plan = ChaosPlan {
            seed,
            events: Vec::new(),
        };

        // Crash axis: at most f < m victims, the cap scaling with the tier
        // (light: 1, medium: m/2, heavy: m-1).
        let max_f = match intensity {
            Intensity::Light => 1.min(space.m - 1),
            Intensity::Medium => (space.m / 2).min(space.m - 1),
            Intensity::Heavy => space.m - 1,
        };
        let f = if max_f == 0 {
            0
        } else {
            (next() as usize) % (max_f + 1)
        };
        let mut victims: Vec<usize> = (1..=space.m).collect();
        for _ in 0..f {
            let i = (next() as usize) % victims.len();
            let pid = victims.swap_remove(i);
            let after = if space.horizon == 0 {
                0
            } else {
                next() % space.horizon
            };
            plan = plan.crash(pid, after);
            // Restart roughly half the victims when the space allows it.
            if space.restarts && next() % 2 == 0 {
                let delay = if space.horizon == 0 {
                    0
                } else {
                    next() % space.horizon
                };
                plan = plan.restart(pid, delay);
            }
        }

        // Storage axis: engages with tier-scaled probability (1/3, 2/3,
        // always).
        let storage_on = next() % 3 < tier + 1;
        if space.storage && storage_on {
            // Injecting faults only — StorageFault::None is the quiet case.
            let injecting: Vec<StorageFault> = StorageFault::ALL
                .iter()
                .copied()
                .filter(|f| f.injects())
                .collect();
            let fault = injecting[(next() as usize) % injecting.len()];
            plan = plan.storage(fault, next());
        }

        // Adversary axis: tier-scaled engagement over the space's registry.
        if !space.adversaries.is_empty() && next() % 3 < tier + 1 {
            let name = space.adversaries[(next() as usize) % space.adversaries.len()];
            plan = plan.adversary(name);
        }
        plan
    }
}

impl ScenarioSpec {
    /// Lowers `plan` onto this spec — the spec-side spelling of
    /// [`ChaosPlan::lower_onto`].
    pub fn with_chaos(&self, plan: &ChaosPlan) -> ScenarioSpec {
        plan.lower_onto(self)
    }
}

/// Chaos intensity tiers of the E12 sweep: how hostile a drawn plan is
/// allowed to be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intensity {
    /// At most one crash; a storage regime or an adversary joins one
    /// plan in three.
    Light,
    /// Up to `m/2` crashes; a storage regime or an adversary joins two
    /// plans in three.
    Medium,
    /// Up to `m-1` crashes; a storage regime (where allowed) always
    /// joins, as does an adversary.
    Heavy,
}

impl Intensity {
    /// Every tier, light to heavy — the E12 sweep dimension.
    pub const ALL: [Intensity; 3] = [Intensity::Light, Intensity::Medium, Intensity::Heavy];

    /// Tier index (0 = light, 2 = heavy) — the scaling knob in
    /// [`ChaosPlan::draw`].
    pub fn index(&self) -> usize {
        match self {
            Intensity::Light => 0,
            Intensity::Medium => 1,
            Intensity::Heavy => 2,
        }
    }

    /// Human-readable label for report rows.
    pub fn label(&self) -> &'static str {
        match self {
            Intensity::Light => "light",
            Intensity::Medium => "medium",
            Intensity::Heavy => "heavy",
        }
    }
}

/// The fault axes [`ChaosPlan::draw`] may exercise against one target
/// stack — capability gating, so a drawn plan is always executable by the
/// stack it is drawn for (restarts only where `on_restart` exists,
/// adversaries only where the registry resolves them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpace {
    /// Fleet size; crash victims are drawn from `1..=m`, `f < m`.
    pub m: usize,
    /// Upper bound (exclusive) on crash budgets and restart delays.
    pub horizon: u64,
    /// Whether restart events may be drawn (the fleet supports
    /// `on_restart`).
    pub restarts: bool,
    /// Whether storage-fault events may be drawn (durable backend).
    pub storage: bool,
    /// Adversary names the target stack's registry resolves; empty when
    /// none apply.
    pub adversaries: &'static [&'static str],
}

impl ChaosSpace {
    /// A space over `m` processes with crash budgets below `horizon` and
    /// every other axis off — enable axes with the builder methods.
    pub fn new(m: usize, horizon: u64) -> Self {
        ChaosSpace {
            m,
            horizon,
            restarts: false,
            storage: false,
            adversaries: &[],
        }
    }

    /// Allows restart events.
    pub fn with_restarts(mut self) -> Self {
        self.restarts = true;
        self
    }

    /// Allows storage-fault events.
    pub fn with_storage(mut self) -> Self {
        self.storage = true;
        self
    }

    /// Allows adversary events over the given registry names.
    pub fn with_adversaries(mut self, names: &'static [&'static str]) -> Self {
        self.adversaries = names;
        self
    }
}

/// Delta-debugs `plan` to a minimal plan still satisfying `fails`,
/// deterministically (see the module docs' shrinker contract): greedy
/// single-event removal in index order first, then per-event field
/// halving (crash budgets, restart delays, storage seeds) in declaration
/// order, iterated to a fixed point. `fails` must be
/// deterministic; it is called once per candidate.
///
/// # Panics
///
/// Panics if `fails(plan)` is false on entry — shrinking a passing plan
/// is a harness bug.
pub fn shrink_plan<F>(plan: &ChaosPlan, mut fails: F) -> ChaosPlan
where
    F: FnMut(&ChaosPlan) -> bool,
{
    assert!(
        fails(plan),
        "shrink_plan needs a failing plan to start from"
    );
    let mut best = plan.clone();
    loop {
        let mut improved = false;

        // Pass 1: greedy event removal, ascending index. Re-test from the
        // current best after every accepted removal.
        let mut i = 0;
        while i < best.events.len() {
            let mut candidate = best.clone();
            candidate.events.remove(i);
            if fails(&candidate) {
                best = candidate;
                improved = true;
                // Same index now holds the next event.
            } else {
                i += 1;
            }
        }

        // Pass 2: field shrinking, event-by-event, field-by-field. Each
        // candidate halves one numeric field (or zeroes a small one).
        for i in 0..best.events.len() {
            for candidate_event in shrink_event_candidates(&best.events[i]) {
                let mut candidate = best.clone();
                candidate.events[i] = candidate_event;
                if fails(&candidate) {
                    best = candidate;
                    improved = true;
                }
            }
        }

        // Pass 3: provenance seed (reporting only, but a minimal
        // reproducer should carry the smallest one that still fails).
        if best.seed != 0 {
            let mut candidate = best.clone();
            candidate.seed = 0;
            if fails(&candidate) {
                best = candidate;
                improved = true;
            }
        }

        if !improved {
            return best;
        }
    }
}

/// The fixed shrink-candidate order for one event: every candidate
/// strictly reduces one field, so the per-event shrink lattice is finite
/// and the fixed-point loop terminates.
fn shrink_event_candidates(event: &ChaosEvent) -> Vec<ChaosEvent> {
    fn halves(v: u64) -> Vec<u64> {
        if v == 0 {
            Vec::new()
        } else {
            vec![v / 2, 0]
        }
    }
    let mut out = Vec::new();
    match *event {
        ChaosEvent::Crash { pid, after } => {
            for a in halves(after) {
                out.push(ChaosEvent::Crash { pid, after: a });
            }
        }
        ChaosEvent::Restart { pid, delay } => {
            for d in halves(delay) {
                out.push(ChaosEvent::Restart { pid, delay: d });
            }
        }
        ChaosEvent::Storage { fault, seed } => {
            for s in halves(seed) {
                out.push(ChaosEvent::Storage { fault, seed: s });
            }
        }
        ChaosEvent::Adversary { .. } => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::WriterProcess;
    use crate::{run_scenario, VecRegisters};

    fn writer_fleet(m: usize, k: u64) -> (VecRegisters, Vec<WriterProcess>) {
        (
            VecRegisters::new(m),
            (1..=m).map(|p| WriterProcess::new(p, p - 1, k)).collect(),
        )
    }

    #[test]
    fn quiet_plan_is_observationally_free() {
        let base = ScenarioSpec::random(7).with_quantum(4);
        let lowered = ChaosPlan::quiet().lower_onto(&base);
        let (mem_a, fleet_a) = writer_fleet(3, 20);
        let (mem_b, fleet_b) = writer_fleet(3, 20);
        let (exec_a, _, mem_a) = run_scenario(mem_a, fleet_a, &base);
        let (exec_b, _, mem_b) = run_scenario(mem_b, fleet_b, &lowered);
        assert_eq!(exec_a, exec_b, "quiet chaos must be bit-identical");
        assert_eq!(mem_a.snapshot(), mem_b.snapshot());
    }

    #[test]
    fn draw_is_deterministic() {
        let space = ChaosSpace::new(4, 100)
            .with_restarts()
            .with_storage()
            .with_adversaries(KNOWN_ADVERSARIES);
        for seed in 0..200u64 {
            for tier in Intensity::ALL {
                let a = ChaosPlan::draw(seed, tier, &space);
                let b = ChaosPlan::draw(seed, tier, &space);
                assert_eq!(a, b, "seed {seed} tier {}", tier.label());
            }
        }
    }

    #[test]
    fn draw_respects_the_space() {
        let m = 5;
        let quiet_space = ChaosSpace::new(m, 50);
        for seed in 0..200u64 {
            for tier in Intensity::ALL {
                let plan = ChaosPlan::draw(seed, tier, &quiet_space);
                assert!(plan.crash_count() < m, "f < m");
                for e in plan.events() {
                    match e {
                        ChaosEvent::Crash { pid, after } => {
                            assert!((1..=m).contains(pid));
                            assert!(*after < 50);
                        }
                        other => panic!("axis off, yet drew {other:?}"),
                    }
                }
            }
        }
        // Crash victims are distinct.
        let space = ChaosSpace::new(m, 50).with_restarts();
        for seed in 0..200u64 {
            let plan = ChaosPlan::draw(seed, Intensity::Heavy, &space);
            let mut pids: Vec<usize> = plan
                .events()
                .iter()
                .filter_map(|e| match e {
                    ChaosEvent::Crash { pid, .. } => Some(*pid),
                    _ => None,
                })
                .collect();
            let n = pids.len();
            pids.sort_unstable();
            pids.dedup();
            assert_eq!(pids.len(), n, "distinct victims");
        }
    }

    #[test]
    fn lowering_merges_crashes_and_sets_axes() {
        let plan = ChaosPlan::quiet()
            .crash(1, 10)
            .crash(2, 0)
            .restart(1, 5)
            .storage(StorageFault::TornWrite, 3)
            .adversary("lockstep");
        let spec = plan.lower_onto(&ScenarioSpec::round_robin());
        assert_eq!(spec.crash_plan.budget(1), Some(10));
        assert_eq!(spec.crash_plan.budget(2), Some(0));
        assert_eq!(spec.crash_plan.restart_delay(1), Some(5));
        assert_eq!(
            spec.backend,
            BackendSpec::durable(StorageFault::TornWrite, 3)
        );
        assert_eq!(spec.scheduler, SchedulerSpec::Adversary("lockstep"));
    }

    #[test]
    fn replay_round_trips_drawn_plans() {
        let space = ChaosSpace::new(6, 200)
            .with_restarts()
            .with_storage()
            .with_adversaries(KNOWN_ADVERSARIES);
        for seed in 0..100u64 {
            for tier in Intensity::ALL {
                let plan = ChaosPlan::draw(seed, tier, &space);
                let text = plan.to_replay();
                let back = ChaosPlan::parse_replay(&text)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
                assert_eq!(plan, back, "round trip must be exact:\n{text}");
            }
        }
    }

    #[test]
    fn replay_parses_every_event_kind() {
        let plan = ChaosPlan {
            seed: 42,
            events: vec![
                ChaosEvent::Crash { pid: 3, after: 17 },
                ChaosEvent::Restart { pid: 3, delay: 9 },
                ChaosEvent::Storage {
                    fault: StorageFault::TruncatedLog,
                    seed: 7,
                },
                ChaosEvent::Adversary {
                    name: "stuck-announcement",
                },
            ],
        };
        let back = ChaosPlan::parse_replay(&plan.to_replay()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn replay_rejects_garbage() {
        assert!(ChaosPlan::parse_replay("").is_err(), "missing header");
        assert!(
            ChaosPlan::parse_replay("chaos-plan v1\n").is_err(),
            "missing seed"
        );
        let bad_adv = "chaos-plan v1\nseed = 0\nadversary name=nope\n";
        let err = ChaosPlan::parse_replay(bad_adv).unwrap_err();
        assert!(err.contains("unknown adversary"), "{err}");
        let bad_fault = "chaos-plan v1\nseed = 0\nstorage fault=melted seed=1\n";
        let err = ChaosPlan::parse_replay(bad_fault).unwrap_err();
        assert!(err.contains("unknown storage fault"), "{err}");
        let bad_kind = "chaos-plan v1\nseed = 0\nearthquake richter=9\n";
        assert!(ChaosPlan::parse_replay(bad_kind).is_err());
    }

    /// The canary invariant of the shrinker acceptance criterion: a run of
    /// a small writer fleet "fails" whenever anybody crashed. A fat plan
    /// (crashes, restart, storage regime) must shrink to a single
    /// immediate crash — the same one on every run — and its replay
    /// snippet must still fail after a parser round trip.
    #[test]
    fn shrinker_finds_the_same_minimal_reproducer() {
        let base = ScenarioSpec::round_robin();
        let fails = |plan: &ChaosPlan| -> bool {
            let spec = plan.lower_onto(&base);
            let (mem, fleet) = writer_fleet(3, 10);
            let (exec, _, _) = run_scenario(mem, fleet, &spec);
            !exec.crashed.is_empty()
        };
        let fat = ChaosPlan {
            seed: 99,
            events: vec![
                ChaosEvent::Storage {
                    fault: StorageFault::DroppedFlush,
                    seed: 123,
                },
                ChaosEvent::Crash { pid: 2, after: 6 },
                ChaosEvent::Crash { pid: 3, after: 4 },
                ChaosEvent::Restart { pid: 2, delay: 8 },
            ],
        };
        assert!(fails(&fat));
        let min = shrink_plan(&fat, fails);
        // Minimal: exactly one crash with a zero budget, no other events,
        // provenance seed shrunk away.
        assert_eq!(min.seed, 0);
        assert_eq!(min.events().len(), 1, "minimal reproducer: {min:?}");
        assert!(
            matches!(min.events()[0], ChaosEvent::Crash { after: 0, .. }),
            "minimal reproducer: {min:?}"
        );
        // Deterministic: shrinking again (from the fat plan or the minimum)
        // reproduces the same plan.
        assert_eq!(min, shrink_plan(&fat, fails));
        assert_eq!(min, shrink_plan(&min, fails));
        // The emitted replay snippet round-trips to an identical failure.
        let replayed = ChaosPlan::parse_replay(&min.to_replay()).unwrap();
        assert_eq!(replayed, min);
        assert!(fails(&replayed));
    }

    #[test]
    #[should_panic(expected = "needs a failing plan")]
    fn shrinker_rejects_passing_plans() {
        let _ = shrink_plan(&ChaosPlan::quiet(), |_| false);
    }
}
