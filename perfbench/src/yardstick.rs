//! The yardstick: a fixed computation, owned by the benchmark and sharing
//! no code with the program, timed right before and right after every
//! simulation repetition. A repetition's time is divided by the
//! yardstick's slowdown from [`NOMINAL_S`], raised to the power
//! [`SENSITIVITY`], so the simulations' figures read in seconds at the
//! yardstick's nominal core speed.
//!
//! Why: the 2-vCPU KVM guest the benchmark was sized for runs the
//! simulations at two speeds about 2x apart, switching within a second or
//! holding one speed for minutes. A dependent multiply chain keeps one
//! speed throughout, so the clock does not change, and steal time was
//! under 1% where measured. Throughput-bound code slows, most likely because another
//! tenant's thread shares the physical core part of the time. A set of ten runs that straddles such a switch spreads by far
//! more than any bound a regression check can use, and no statistic taken
//! inside one run can absorb a switch that lasts longer than the run.
//! The yardstick slows in step with the simulations, though by less. Over
//! eight minutes in which their speed changed by up to 2x, the logarithm
//! of a small simulation's time followed the yardstick's with a
//! correlation of 0.96 to 0.97. A program change leaves the yardstick
//! alone, so it moves the corrected figure as much as the raw one; the raw
//! times are printed next to the corrected ones. The correction is only
//! as good as the yardstick's likeness to the program: when the other
//! tenant's load changes kind, the two can even move apart.
//!
//! The computation is a miniature of the simulations' shape: sixteen
//! automata of two kinds behind dynamic dispatch, picked by a random
//! scheduler, reading and writing a shared 256 KiB register array and
//! private tables.

use std::hint::black_box;
use std::time::Instant;

/// Seconds one [`sample`] takes on the fastest core speed seen on the
/// benchmark's reference host (2-vCPU KVM guest, Intel Xeon, 2.0 GHz), so
/// that a corrected time reads in seconds at that speed.
pub const NOMINAL_S: f64 = 0.020;

/// How much further the simulations' time moves than the yardstick's, in
/// logarithms, as the core's share changes. In three sets of ten runs
/// that each spanned switches between the host's two speeds, the slope of
/// a run's log time on its median log yardstick time was 1.6, 1.5 and 2.1
/// for KKβ, and 1.0, 1.6 and 1.4 for Write-All; eight minutes of small
/// instances gave 1.45 and 1.9.
pub const SENSITIVITY: f64 = 1.5;

/// Scheduler steps in one sample.
const STEPS: usize = 1 << 20;

/// Automata in the miniature fleet.
const AUTOMATA: usize = 16;

/// Registers shared by the automata (256 KiB).
const REGISTERS: usize = 1 << 15;

/// Entries of a [`Tabler`]'s private table.
const TABLE: usize = 4096;

trait Automaton {
    fn step(&mut self, mem: &mut [u64], r: u64);
}

/// Walks the registers, writing where the low bit is clear.
struct Walker {
    pos: usize,
    acc: u64,
}

impl Automaton for Walker {
    fn step(&mut self, mem: &mut [u64], r: u64) {
        let k = (self.pos + r as usize) % mem.len();
        if mem[k] & 1 == 0 {
            mem[k] += self.acc | 1;
            self.acc = self.acc.rotate_left(3) ^ r;
        } else {
            self.pos = (self.pos + 17) % mem.len();
        }
    }
}

/// Reads a register and records it in a private table, writing back on a
/// table miss.
struct Tabler {
    pos: usize,
    seen: Vec<u32>,
}

impl Automaton for Tabler {
    fn step(&mut self, mem: &mut [u64], r: u64) {
        let k = (r as usize >> 3) % mem.len();
        let v = mem[k];
        let slot = v as usize % self.seen.len();
        if u64::from(self.seen[slot]) != v & 0xffff {
            self.seen[slot] = (v & 0xffff) as u32;
            mem[(k + self.pos) % mem.len()] ^= v >> 1;
        } else {
            self.pos += 1;
        }
    }
}

/// Runs the miniature fleet for `steps` scheduler steps and returns a
/// digest of the registers.
fn run(steps: usize) -> u64 {
    let mut mem = vec![0u64; REGISTERS];
    let mut fleet: Vec<Box<dyn Automaton>> = (0..AUTOMATA)
        .map(|i| -> Box<dyn Automaton> {
            if i % 2 == 0 {
                Box::new(Walker {
                    pos: i * 1000,
                    acc: i as u64,
                })
            } else {
                Box::new(Tabler {
                    pos: i,
                    seen: vec![0; TABLE],
                })
            }
        })
        .collect();
    let mut s = 5u64;
    for _ in 0..steps {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        fleet[(s % AUTOMATA as u64) as usize].step(&mut mem, s >> 8);
    }
    mem.iter().fold(0, |a, b| a ^ b)
}

/// Times one run of the yardstick, in seconds.
pub fn sample() -> f64 {
    let t = Instant::now();
    black_box(run(black_box(STEPS)));
    t.elapsed().as_secs_f64()
}

/// `seconds` of a repetition measured between yardstick samples of
/// `before` and `after` seconds, corrected to the [`NOMINAL_S`] core
/// speed: divided by the [`SENSITIVITY`]-th power of the samples'
/// geometric mean over [`NOMINAL_S`].
pub fn corrected(seconds: f64, before: f64, after: f64) -> f64 {
    seconds / ((before * after).sqrt() / NOMINAL_S).powf(SENSITIVITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correction_divides_by_the_yardstick_slowdown() {
        assert_eq!(corrected(2.0, NOMINAL_S, NOMINAL_S), 2.0);
        let slow = 2.0 * NOMINAL_S;
        let factor = 2f64.powf(SENSITIVITY);
        assert!((corrected(2.0, slow, slow) - 2.0 / factor).abs() < 1e-12);
        assert!((corrected(2.0, NOMINAL_S, 4.0 * NOMINAL_S) - 2.0 / factor).abs() < 1e-12);
    }
}
