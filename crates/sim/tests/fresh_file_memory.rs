//! A register file costs resident memory only for the cells a run writes.
//!
//! [`VecRegisters::new`] takes a zeroed allocation, so a large file's
//! untouched pages stay the kernel's shared zero page. This file holds a
//! single test, so no other test's allocations share the process while it
//! reads its resident set (`VmRSS` in `/proc/self/status`). Where `/proc`
//! is absent the test prints a note and passes without checking.

use amo_sim::{Registers, VecRegisters};

const MIB: u64 = 1 << 20;

/// The file under test: 256 MiB of cells.
const CELLS: usize = (256 * MIB / 8) as usize;

/// Resident set size in bytes, or `None` when `/proc` cannot be read.
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse::<u64>()
        .ok()?;
    Some(kb * 1024)
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / MIB as f64
}

#[test]
fn a_register_file_is_resident_only_where_written() {
    let Some(start) = rss_bytes() else {
        println!("skipped: /proc/self/status is not readable, so RSS cannot be measured");
        return;
    };

    let mem = VecRegisters::new(CELLS);
    let fresh = rss_bytes().expect("procfs stays readable");
    let rise = fresh.saturating_sub(start);
    assert!(
        rise < 32 * MIB,
        "a fresh 256 MiB file raised RSS by {:.1} MiB",
        mib(rise)
    );

    // One cell in every 4 KiB page of the first MiB.
    for cell in (0..(MIB / 8) as usize).step_by(512) {
        mem.write(cell, 1);
    }
    let written = rss_bytes().expect("procfs stays readable");
    let rise = written.saturating_sub(fresh);
    assert!(
        (MIB / 2..4 * MIB).contains(&rise),
        "writing the first MiB raised RSS by {:.2} MiB, not about 1 MiB",
        mib(rise)
    );
}
