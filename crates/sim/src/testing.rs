//! Miniature automatons used by this crate's own tests, doctests, and the
//! engine benchmarks.
//!
//! These are deliberately trivial: they exercise the engine/scheduler
//! machinery without the complexity of the real algorithms.

use crate::process::{JobSpan, Process, StepEvent};
use crate::registers::Registers;

/// Writes its pid into one cell `k` times, then terminates.
///
/// Supports the crash–restart lifecycle: a restarted writer starts its `k`
/// writes over from scratch (its local progress counter was volatile), which
/// is exactly the behaviour engine/scheduler restart tests need.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WriterProcess {
    pid: usize,
    cell: usize,
    k: u64,
    remaining: u64,
    terminated: bool,
}

impl WriterProcess {
    /// A writer with pid `pid` targeting `cell`, performing `k` writes.
    pub fn new(pid: usize, cell: usize, k: u64) -> Self {
        Self {
            pid,
            cell,
            k,
            remaining: k,
            terminated: false,
        }
    }
}

impl<R: Registers + ?Sized> Process<R> for WriterProcess {
    fn step(&mut self, mem: &R) -> StepEvent {
        debug_assert!(!self.terminated, "stepped after termination");
        if self.remaining == 0 {
            self.terminated = true;
            return StepEvent::Terminated;
        }
        self.remaining -= 1;
        mem.write(self.cell, self.pid as u64);
        StepEvent::Write { cell: self.cell }
    }

    fn pid(&self) -> usize {
        self.pid
    }

    fn is_terminated(&self) -> bool {
        self.terminated
    }

    fn supports_restart(&self) -> bool {
        true
    }

    fn on_restart(&mut self, _mem: &R) {
        self.remaining = self.k;
        self.terminated = false;
    }
}

/// Performs a single fixed job, then terminates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PerformOnceProcess {
    pid: usize,
    job: u64,
    done: bool,
    terminated: bool,
}

impl PerformOnceProcess {
    /// A process that performs `job` exactly once.
    pub fn new(pid: usize, job: u64) -> Self {
        Self {
            pid,
            job,
            done: false,
            terminated: false,
        }
    }
}

impl<R: Registers + ?Sized> Process<R> for PerformOnceProcess {
    fn step(&mut self, _mem: &R) -> StepEvent {
        debug_assert!(!self.terminated, "stepped after termination");
        if !self.done {
            self.done = true;
            StepEvent::Perform {
                span: JobSpan::single(self.job),
            }
        } else {
            self.terminated = true;
            StepEvent::Terminated
        }
    }

    fn pid(&self) -> usize {
        self.pid
    }

    fn is_terminated(&self) -> bool {
        self.terminated
    }
}

/// A deliberately *racy* claim-then-perform automaton used to validate the
/// checking machinery: it reads a claim cell, and if the cell is zero writes
/// its pid and performs the job. Two such processes interleaved
/// read-read-write-write both perform the job — the explorer must find that
/// schedule and the verifier must flag it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RacyClaimProcess {
    pid: usize,
    cell: usize,
    job: u64,
    phase: u8,
    saw_zero: bool,
}

impl RacyClaimProcess {
    /// A racy claimer of `job` through claim cell `cell`.
    pub fn new(pid: usize, cell: usize, job: u64) -> Self {
        Self {
            pid,
            cell,
            job,
            phase: 0,
            saw_zero: false,
        }
    }
}

impl<R: Registers + ?Sized> Process<R> for RacyClaimProcess {
    fn step(&mut self, mem: &R) -> StepEvent {
        match self.phase {
            0 => {
                self.saw_zero = mem.read(self.cell) == 0;
                self.phase = 1;
                StepEvent::Read { cell: self.cell }
            }
            1 => {
                if self.saw_zero {
                    mem.write(self.cell, self.pid as u64);
                    self.phase = 2;
                    StepEvent::Write { cell: self.cell }
                } else {
                    self.phase = 3;
                    StepEvent::Terminated
                }
            }
            2 => {
                self.phase = 3;
                StepEvent::Perform {
                    span: JobSpan::single(self.job),
                }
            }
            3 => {
                self.phase = 4;
                StepEvent::Terminated
            }
            _ => unreachable!("stepped after termination"),
        }
    }

    fn pid(&self) -> usize {
        self.pid
    }

    fn is_terminated(&self) -> bool {
        self.phase == 4 || (self.phase == 3 && !self.saw_zero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineLimits};
    use crate::registers::VecRegisters;
    use crate::sched::{Decision, RoundRobin, ScriptedScheduler};

    #[test]
    fn writer_terminates_after_k_writes() {
        let mem = VecRegisters::new(1);
        let exec = Engine::new(mem, vec![WriterProcess::new(1, 0, 3)], RoundRobin::new())
            .run(EngineLimits::default());
        assert!(exec.completed);
        assert_eq!(exec.mem_work.writes, 3);
    }

    #[test]
    fn racy_claimers_are_safe_under_alternation() {
        // Round-robin: p1 reads 0, p2 reads 0, p1 writes ... both perform!
        // This demonstrates why read-then-write claiming is broken.
        let mem = VecRegisters::new(1);
        let procs = vec![
            RacyClaimProcess::new(1, 0, 7),
            RacyClaimProcess::new(2, 0, 7),
        ];
        let exec = Engine::new(mem, procs, RoundRobin::new()).run(EngineLimits::default());
        assert_eq!(exec.violations().len(), 1, "round-robin exposes the race");
    }

    #[test]
    fn racy_claimers_safe_under_sequential_schedule() {
        let mem = VecRegisters::new(1);
        let procs = vec![
            RacyClaimProcess::new(1, 0, 7),
            RacyClaimProcess::new(2, 0, 7),
        ];
        // Run p1 to completion, then p2.
        let script = vec![
            Decision::Step(0),
            Decision::Step(0),
            Decision::Step(0),
            Decision::Step(0),
        ];
        let exec =
            Engine::new(mem, procs, ScriptedScheduler::new(script)).run(EngineLimits::default());
        assert!(
            exec.violations().is_empty(),
            "sequential schedule hides the race"
        );
        assert_eq!(exec.effectiveness(), 1);
    }
}
