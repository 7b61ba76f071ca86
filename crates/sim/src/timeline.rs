//! ASCII timeline rendering of execution traces — a debugging aid that
//! turns a recorded [`TraceEntry`](crate::TraceEntry) stream into per-process
//! lanes.
//!
//! KKβ with `n = 6`, `m = 2` and the epoch cache on, traced under
//! round-robin, with process 2 crashed after three actions:
//!
//! ```text
//! p1 | . W . r . r . ! W . W . c . c . ! W . W . c . c . ! W . W . c . c . ! W #
//! p2 | . W r ✗
//! ```
//!
//! Legend: `.` local action, `W` shared write, `r` shared read, `c` a read
//! the batched path skips ([`StepEvent::CachedRead`]), `s` RMW, `!` perform
//! (a `do`), `#` termination, `✗` crash.

use crate::engine::TraceEntry;
use crate::process::StepEvent;

/// Renders a trace as one ASCII lane per process.
///
/// `m` is the process count (lanes are `1..=m`); entries with pids outside
/// that range are ignored. Long traces are truncated to `max_cols` actions
/// per lane with a trailing ellipsis.
///
/// # Examples
///
/// ```
/// use amo_sim::testing::WriterProcess;
/// use amo_sim::{render_timeline, Engine, EngineLimits, RoundRobin, VecRegisters};
///
/// let mem = VecRegisters::new(2);
/// let procs = vec![WriterProcess::new(1, 0, 2), WriterProcess::new(2, 1, 1)];
/// let exec = Engine::new(mem, procs, RoundRobin::new())
///     .with_trace(64)
///     .run(EngineLimits::default());
/// let lanes = render_timeline(&exec.trace, 2, 40);
/// assert!(lanes.starts_with("p1 |"));
/// assert!(lanes.contains('W'));
/// assert!(lanes.contains('#'));
/// ```
pub fn render_timeline(trace: &[TraceEntry], m: usize, max_cols: usize) -> String {
    let mut lanes: Vec<Vec<char>> = vec![Vec::new(); m];
    let mut truncated = vec![false; m];
    for entry in trace {
        let Some(pid) = entry.pid else { continue };
        if pid == 0 || pid > m {
            continue;
        }
        let lane = &mut lanes[pid - 1];
        if lane.len() >= max_cols {
            truncated[pid - 1] = true;
            continue;
        }
        lane.push(glyph(entry));
    }
    let mut out = String::new();
    for (i, lane) in lanes.iter().enumerate() {
        out.push_str(&format!("p{} |", i + 1));
        for &g in lane {
            out.push(' ');
            out.push(g);
        }
        if truncated[i] {
            out.push_str(" …");
        }
        out.push('\n');
    }
    out
}

fn glyph(entry: &TraceEntry) -> char {
    match entry.event {
        None => '✗',
        Some(StepEvent::Local) => '.',
        Some(StepEvent::Read { .. }) => 'r',
        Some(StepEvent::CachedRead { .. }) => 'c',
        Some(StepEvent::Write { .. }) => 'W',
        Some(StepEvent::Rmw { .. }) => 's',
        Some(StepEvent::Perform { .. }) => '!',
        Some(StepEvent::Terminated) => '#',
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, EngineLimits};
    use crate::registers::VecRegisters;
    use crate::sched::{Decision, RoundRobin, SchedView, ScriptedScheduler};
    use crate::testing::{PerformOnceProcess, WriterProcess};

    #[test]
    fn lanes_are_per_process() {
        let mem = VecRegisters::new(2);
        let procs = vec![WriterProcess::new(1, 0, 1), WriterProcess::new(2, 1, 2)];
        let exec = Engine::new(mem, procs, RoundRobin::new())
            .with_trace(100)
            .run(EngineLimits::default());
        let s = render_timeline(&exec.trace, 2, 80);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "p1 | W #");
        assert_eq!(lines[1], "p2 | W W #");
    }

    #[test]
    fn performs_and_crashes_have_distinct_glyphs() {
        let mem = VecRegisters::new(0);
        let procs = vec![PerformOnceProcess::new(1, 7), PerformOnceProcess::new(2, 8)];
        let mut first = true;
        let sched = move |view: &SchedView<'_, PerformOnceProcess>| {
            if first {
                first = false;
                Decision::Crash(1)
            } else {
                Decision::Step(view.running().next().expect("p1 runs"))
            }
        };
        let exec = Engine::new(mem, procs, sched)
            .with_trace(100)
            .run(EngineLimits::default());
        let s = render_timeline(&exec.trace, 2, 80);
        assert!(s.lines().next().unwrap().contains('!'), "{s}");
        assert!(s.lines().nth(1).unwrap().contains('✗'), "{s}");
    }

    #[test]
    fn truncation_marks_ellipsis() {
        let mem = VecRegisters::new(1);
        let exec = Engine::new(mem, vec![WriterProcess::new(1, 0, 50)], RoundRobin::new())
            .with_trace(100)
            .run(EngineLimits::default());
        let s = render_timeline(&exec.trace, 1, 5);
        assert!(s.contains('…'));
    }

    #[test]
    fn empty_trace_renders_empty_lanes() {
        let s = render_timeline(&[], 3, 10);
        assert_eq!(s, "p1 |\np2 |\np3 |\n");
    }

    #[test]
    fn replayed_traces_render_identically() {
        let mem = VecRegisters::new(2);
        let procs = vec![WriterProcess::new(1, 0, 3), WriterProcess::new(2, 1, 3)];
        let exec = Engine::new(mem, procs, RoundRobin::new())
            .with_trace(100)
            .run(EngineLimits::default());
        // Rebuild the decision script from the trace and replay it.
        let script: Vec<Decision> = exec
            .trace
            .iter()
            .map(|e| match e.event {
                Some(_) => Decision::Step(e.pid.unwrap() - 1),
                None => Decision::Crash(e.pid.unwrap() - 1),
            })
            .collect();
        let mem = VecRegisters::new(2);
        let procs = vec![WriterProcess::new(1, 0, 3), WriterProcess::new(2, 1, 3)];
        let replay = Engine::new(mem, procs, ScriptedScheduler::new(script))
            .with_trace(100)
            .run(EngineLimits::default());
        assert_eq!(
            render_timeline(&exec.trace, 2, 100),
            render_timeline(&replay.trace, 2, 100)
        );
    }
}
