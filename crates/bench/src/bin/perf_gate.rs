//! CI perf-regression gate: diffs a fresh `perf_smoke` output against the
//! committed baseline and fails on regression.
//!
//! Usage:
//!
//! ```text
//! perf_gate --baseline BENCH_engine.quick.json --current BENCH_engine.ci.json \
//!           [--tolerance 0.2] [--mem-tolerance 0.25] [--summary PATH]
//! ```
//!
//! The two files must carry the same `"schema"` tag. Deterministic
//! counters (`total_steps`, `local_work`, `shared_ops`, `effectiveness`
//! and the other integer fields) must match exactly; speed ratios
//! may dip at most `tolerance` below the baseline; banded memory columns
//! (`peak_rss_mb`) must stay within `±mem-tolerance` of the baseline (see
//! [`amo_bench::gate`] for the rationale). A markdown comparison table is appended to `--summary` if
//! given, else to `$GITHUB_STEP_SUMMARY` if set, and always printed to
//! stdout. Exit code 1 on regression.

use amo_bench::gate::{
    arg_value, compare_with, markdown, parse_bench, schema_mismatch, MEM_TOLERANCE,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let baseline_path = arg_value(&args, "--baseline").unwrap_or_else(|| {
        eprintln!("[perf_gate] --baseline PATH is required");
        std::process::exit(2);
    });
    let current_path = arg_value(&args, "--current").unwrap_or_else(|| {
        eprintln!("[perf_gate] --current PATH is required");
        std::process::exit(2);
    });
    let tolerance: f64 = arg_value(&args, "--tolerance")
        .map(|t| t.parse().expect("--tolerance must be a number"))
        .unwrap_or(0.2);
    let mem_tolerance: f64 = arg_value(&args, "--mem-tolerance")
        .map(|t| t.parse().expect("--mem-tolerance must be a number"))
        .unwrap_or(MEM_TOLERANCE);

    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("[perf_gate] cannot read {path}: {e}");
            std::process::exit(2);
        })
    };
    let baseline_json = read(&baseline_path);
    let current_json = read(&current_path);
    let baseline = parse_bench(&baseline_json);
    let current = parse_bench(&current_json);
    if baseline.is_empty() {
        eprintln!("[perf_gate] baseline {baseline_path} parsed to zero workloads");
        std::process::exit(2);
    }
    if current.is_empty() {
        eprintln!("[perf_gate] current {current_path} parsed to zero workloads");
        std::process::exit(2);
    }

    // A baseline of another schema has other header fields and workloads:
    // regenerate it rather than compare.
    if let Some(why) = schema_mismatch(&baseline_json, &current_json) {
        eprintln!("[perf_gate] FAIL: {why} ({baseline_path} vs {current_path})");
        std::process::exit(1);
    }

    let report = compare_with(&baseline, &current, tolerance, mem_tolerance);
    let md = markdown(&report, tolerance);
    println!("{md}");

    let summary_path =
        arg_value(&args, "--summary").or_else(|| std::env::var("GITHUB_STEP_SUMMARY").ok());
    if let Some(path) = summary_path {
        use std::io::Write as _;
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            Ok(mut f) => {
                let _ = f.write_all(md.as_bytes());
            }
            Err(e) => eprintln!("[perf_gate] cannot append summary to {path}: {e}"),
        }
    }

    if !report.pass {
        eprintln!("[perf_gate] FAIL: regression against {baseline_path}");
        std::process::exit(1);
    }
    eprintln!(
        "[perf_gate] pass ({} findings, tolerance {tolerance})",
        report.findings.len()
    );
}
