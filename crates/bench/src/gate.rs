//! The CI perf-regression gate: compares a freshly measured
//! `BENCH_engine.*.json` against the committed baseline.
//!
//! Two classes of fields are checked per workload (matched by `name`):
//!
//! * **deterministic counters** (`total_steps`, `local_work`, `shared_ops`,
//!   `effectiveness` and every other integer field) must match the
//!   baseline **exactly** — the simulator is deterministic, so any drift is
//!   a semantic change that must come with a baseline update in the same
//!   commit;
//! * **speed ratios** (`speedup_vs_seed`, `speedup_vs_single_step`) must not
//!   fall below `baseline × (1 − tolerance)` — ratios of two measurements
//!   taken in one process are far more machine-portable than absolute
//!   milliseconds, which are reported but never gated;
//! * **memory columns** (`*_mb` keys; today `peak_rss_mb` is the only
//!   producer) must stay within `baseline × (1 ± `[`MEM_TOLERANCE`]`)` —
//!   two-sided, so both a memory regression and a silent loss of coverage
//!   (or an uncommitted improvement) fail. Columns below [`MIN_GATED_MB`]
//!   are informational (process-baseline noise dominates), as is a column
//!   missing from the current run (RSS needs procfs) or present only in
//!   the current run (reported so a baseline regenerated without procfs is
//!   visibly narrower than what CI measures). RSS is an *absolute*
//!   per-machine measurement — the one deliberate exception to the
//!   ratios-only rule — so a runner-image or allocator change can shift it
//!   legitimately; when that happens, regenerate the committed baseline in
//!   the same commit rather than widening the band. Note `kk_mega_rr`
//!   itself runs only at full scale (the nightly bench); the quick CI gate
//!   covers it through its scaled twin `kk_mega_quick`.
//!
//! A workload present in the baseline but missing from the current run is a
//! **hard failure** — otherwise renaming or crashing a workload would
//! silently un-gate it. Workloads only in the current run are informational
//! (adding one shouldn't need a two-step dance), and a baseline that parses
//! to zero workloads fails loudly. Ratio floors are only enforced when the
//! baseline's timed fast-path sample is at least [`MIN_GATED_MS`]
//! milliseconds — sub-millisecond sections on shared runners wobble far
//! beyond any honest tolerance, so they are reported but not gated.
//!
//! Before any of this, the two files' `"schema"` tags must be equal
//! ([`schema_mismatch`]): a tag names the header fields and workloads a file
//! has, so a baseline written for another schema is regenerated, not
//! compared.
//!
//! The JSON subset parsed here is exactly what `perf_smoke` emits (flat
//! string/number fields inside a `workloads` array) — a hand-rolled scanner
//! keeps the offline workspace free of a serde dependency.

use std::fmt::Write as _;

/// Value of a `--flag VALUE` pair in an argv slice.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// One workload row parsed from a `BENCH_engine*.json`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Workload {
    /// Workload identifier (`kk_plain_rr`, …).
    pub name: String,
    /// Human-readable parameter string.
    pub params: String,
    /// Measured milliseconds, by field name.
    pub ms: Vec<(String, f64)>,
    /// Speed ratios, by field name.
    pub ratios: Vec<(String, f64)>,
    /// Memory columns in megabytes (`*_mb`), by field name.
    pub mem: Vec<(String, f64)>,
    /// Deterministic counters, by field name.
    pub counters: Vec<(String, u64)>,
}

impl Workload {
    fn ratio(&self, key: &str) -> Option<f64> {
        self.ratios.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    fn ms(&self, key: &str) -> Option<f64> {
        self.ms.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    fn mem_mb(&self, key: &str) -> Option<f64> {
        self.mem.iter().find(|(k, _)| k == key).map(|&(_, v)| v)
    }

    fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
    }
}

/// A top-level string field of a `BENCH_engine*.json` header. Only the
/// header (everything before the workloads array) is scanned, so a
/// workload field can never shadow it.
fn parse_header_str(json: &str, key: &str) -> Option<String> {
    let head = &json[..json.find("\"workloads\"").unwrap_or(json.len())];
    let needle = format!("\"{key}\"");
    let at = head.find(&needle)?;
    let rest = &head[at + needle.len()..];
    let rest = rest[rest.find(':')? + 1..].trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_owned())
}

/// Why `current_json` cannot be gated against `baseline_json`: their
/// top-level `"schema"` tags differ (or one file has none). `None` when
/// the tags are equal.
pub fn schema_mismatch(baseline_json: &str, current_json: &str) -> Option<String> {
    let baseline = parse_header_str(baseline_json, "schema");
    let current = parse_header_str(current_json, "schema");
    (baseline != current).then(|| {
        let tag = |t: Option<String>| t.unwrap_or_else(|| "no schema".to_owned());
        format!(
            "schema mismatch: the baseline is {}, the current run {}; regenerate the baseline \
             with the current perf_smoke",
            tag(baseline),
            tag(current)
        )
    })
}

/// The register backend a `BENCH_engine*.json` was produced under (the
/// top-level `"backend"` string field: `"vec"` or `"durable"` since schema
/// engine-v6, plus `"quorum"` since engine-v7), or `None` for pre-backend
/// baselines.
pub fn parse_backend(json: &str) -> Option<String> {
    parse_header_str(json, "backend")
}

/// Finding describing the register backends of baseline vs current run —
/// **informational on mismatch**: running the smoke on the journaling
/// [`DurableRegisters`] backend legitimately shifts timing columns (every
/// write is journaled), and the same goes for the quorum message-passing
/// backend ([`QuorumRegisters`], engine-v7 — every register operation runs
/// a network protocol), while both wrappers
/// are bit-identical on every deterministic counter (fault-free / lossless
/// degenerate cases, pinned by the equivalence suites) — which the regular
/// counter findings keep enforcing exactly. Returns `None` when neither
/// side records a backend (pre-engine-v6 baselines on both sides).
///
/// [`DurableRegisters`]: amo_sim::DurableRegisters
/// [`QuorumRegisters`]: amo_sim::QuorumRegisters
pub fn backend_finding(baseline: Option<&str>, current: Option<&str>) -> Option<Finding> {
    if baseline.is_none() && current.is_none() {
        return None;
    }
    let b = baseline.unwrap_or("unrecorded");
    let c = current.unwrap_or("unrecorded");
    let verdict = if b == c {
        "backends match".to_owned()
    } else {
        format!(
            "informational: backend differs from baseline ({b} → {c}) — timing/ratio columns \
             are not backend-comparable; counters remain pinned exactly (fault-free durable is \
             bit-identical by the equivalence suite)"
        )
    };
    Some(Finding {
        workload: "(all)".into(),
        field: "backend".into(),
        baseline: b.to_owned(),
        current: c.to_owned(),
        regression: false,
        verdict,
    })
}

/// Splits the top-level `workloads` array of a `BENCH_engine*.json` into
/// per-workload field maps. Returns an empty vector on malformed input —
/// callers treat that as a hard error.
pub fn parse_bench(json: &str) -> Vec<Workload> {
    let Some(arr_start) = json.find("\"workloads\"") else {
        return Vec::new();
    };
    let Some(open) = json[arr_start..].find('[') else {
        return Vec::new();
    };
    let body = &json[arr_start + open + 1..];
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut obj_start = None;
    for (i, c) in body.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    obj_start = Some(i + 1);
                }
                depth += 1;
            }
            '}' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    if let Some(s) = obj_start.take() {
                        if let Some(w) = parse_workload(&body[s..i]) {
                            out.push(w);
                        }
                    }
                }
            }
            ']' if depth == 0 => break,
            _ => {}
        }
    }
    out
}

fn parse_workload(obj: &str) -> Option<Workload> {
    let mut w = Workload::default();
    for line in obj.split(',') {
        // Fragments without a `:` (e.g. the tail of a string value that
        // itself contained a comma) are skipped, not fatal — dropping a
        // whole workload silently would defeat the gate.
        let mut parts = line.splitn(2, ':');
        let Some(key) = parts.next() else { continue };
        let key = key.trim().trim_matches('"').to_owned();
        let Some(val) = parts.next() else { continue };
        let val = val.trim();
        if key.is_empty() {
            continue;
        }
        if let Some(text) = val.strip_prefix('"').and_then(|v| v.strip_suffix('"')) {
            match key.as_str() {
                "name" => w.name = text.to_owned(),
                "params" => w.params = text.to_owned(),
                _ => {}
            }
        } else if let Ok(num) = val.parse::<f64>() {
            if key.ends_with("_ms") {
                w.ms.push((key, num));
            } else if key.ends_with("_mb") {
                w.mem.push((key, num));
            } else if key.starts_with("speedup") {
                w.ratios.push((key, num));
            } else if num.fract() == 0.0 {
                w.counters.push((key, num as u64));
            }
        }
    }
    if w.name.is_empty() {
        None
    } else {
        Some(w)
    }
}

/// One gate finding (a row of the markdown report).
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Workload name.
    pub workload: String,
    /// Field the finding is about.
    pub field: String,
    /// Baseline value rendered for the report.
    pub baseline: String,
    /// Current value rendered for the report.
    pub current: String,
    /// `true` when this finding fails the gate.
    pub regression: bool,
    /// Human-readable verdict.
    pub verdict: String,
}

/// Result of a gate run: findings plus the overall pass/fail.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Per-field findings across all matched workloads.
    pub findings: Vec<Finding>,
    /// Workload names present on only one side (informational).
    pub unmatched: Vec<String>,
    /// `true` when no finding is a regression.
    pub pass: bool,
}

/// Smallest baseline `fast_path_ms` for which speed ratios are enforced;
/// below it they are reported as informational (see module docs).
pub const MIN_GATED_MS: f64 = 2.0;

/// Smallest baseline memory column (MB) that is gated; below it the
/// process-baseline noise (binary mappings, allocator arenas) dominates the
/// reading, so small columns are reported but not enforced.
pub const MIN_GATED_MB: f64 = 16.0;

/// Relative band for memory columns: the current value must stay within
/// `baseline × (1 ± MEM_TOLERANCE)`. Two-sided on purpose — an unexplained
/// *shrink* beyond the band means the workload no longer exercises the
/// memory path the baseline recorded (or an improvement landed without its
/// baseline refresh), both of which should fail loudly like a counter
/// drift.
pub const MEM_TOLERANCE: f64 = 0.25;

/// Compares `current` against `baseline` with the given relative
/// `tolerance` on ratio fields (counters are exact, memory columns are
/// banded at ±[`MEM_TOLERANCE`]).
pub fn compare(baseline: &[Workload], current: &[Workload], tolerance: f64) -> GateReport {
    compare_with(baseline, current, tolerance, MEM_TOLERANCE)
}

/// [`compare_with`], additionally aware of the register **backend** each
/// file was produced under (engine-v6's top-level `"backend"` field, see
/// [`parse_backend`]). A backend mismatch downgrades measured below-floor
/// speed ratios to informational — a journaling backend makes timing
/// incomparable — while deterministic counters, memory bands and
/// missing-column findings all stay hard. The backend pairing is reported
/// as a leading informational finding.
pub fn compare_env(
    baseline: &[Workload],
    current: &[Workload],
    tolerance: f64,
    mem_tolerance: f64,
    baseline_backend: Option<&str>,
    current_backend: Option<&str>,
) -> GateReport {
    let mut report = compare_with(baseline, current, tolerance, mem_tolerance);
    if baseline_backend != current_backend {
        for f in &mut report.findings {
            // Only measured below-floor *ratios* depend on the environment.
            // Memory columns stay gated, and a ratio column *missing*
            // entirely is a malformed run, not environment timing wobble.
            let env_timing = f.field.starts_with("speedup") && f.current != "missing";
            if env_timing && f.regression {
                f.regression = false;
                f.verdict = format!("informational (backend differs): {}", f.verdict);
            }
        }
        report.pass = !report.findings.iter().any(|f| f.regression);
    }
    if let Some(b) = backend_finding(baseline_backend, current_backend) {
        report.findings.insert(0, b);
    }
    report
}

/// [`compare`] with an explicit memory band.
pub fn compare_with(
    baseline: &[Workload],
    current: &[Workload],
    tolerance: f64,
    mem_tolerance: f64,
) -> GateReport {
    let mut findings = Vec::new();
    let mut unmatched: Vec<String> = Vec::new();
    for b in baseline {
        let Some(c) = current.iter().find(|c| c.name == b.name) else {
            // A gated workload vanishing is exactly the failure mode the
            // gate exists to catch (rename, crash, skipped section).
            findings.push(Finding {
                workload: b.name.clone(),
                field: "presence".into(),
                baseline: "present".into(),
                current: "missing".into(),
                regression: true,
                verdict: "workload missing from current run".into(),
            });
            continue;
        };
        for (key, bv) in &b.counters {
            match c.counter(key) {
                Some(cv) if cv == *bv => findings.push(Finding {
                    workload: b.name.clone(),
                    field: key.clone(),
                    baseline: bv.to_string(),
                    current: cv.to_string(),
                    regression: false,
                    verdict: "exact".into(),
                }),
                Some(cv) => findings.push(Finding {
                    workload: b.name.clone(),
                    field: key.clone(),
                    baseline: bv.to_string(),
                    current: cv.to_string(),
                    regression: true,
                    verdict: "deterministic counter drifted — semantic change without a \
                              baseline update"
                        .into(),
                }),
                None => findings.push(Finding {
                    workload: b.name.clone(),
                    field: key.clone(),
                    baseline: bv.to_string(),
                    current: "missing".into(),
                    regression: true,
                    verdict: "counter missing from current run".into(),
                }),
            }
        }
        // (`map_or`, not `is_none_or`: the latter is newer than the 1.75 MSRV.)
        let gated = b.ms("fast_path_ms").map_or(true, |ms| ms >= MIN_GATED_MS);
        for (key, bv) in &b.ratios {
            if !gated {
                findings.push(Finding {
                    workload: b.name.clone(),
                    field: key.clone(),
                    baseline: format!("{bv:.2}x"),
                    current: c
                        .ratio(key)
                        .map_or_else(|| "missing".into(), |cv| format!("{cv:.2}x")),
                    regression: false,
                    verdict: format!("informational (baseline sample < {MIN_GATED_MS} ms)"),
                });
                continue;
            }
            let floor = bv * (1.0 - tolerance);
            match c.ratio(key) {
                Some(cv) if cv >= floor => findings.push(Finding {
                    workload: b.name.clone(),
                    field: key.clone(),
                    baseline: format!("{bv:.2}x"),
                    current: format!("{cv:.2}x"),
                    regression: false,
                    verdict: format!("ok (≥ {floor:.2}x)"),
                }),
                Some(cv) => findings.push(Finding {
                    workload: b.name.clone(),
                    field: key.clone(),
                    baseline: format!("{bv:.2}x"),
                    current: format!("{cv:.2}x"),
                    regression: true,
                    verdict: format!(
                        "below {floor:.2}x (−{tolerance:.0}% floor)",
                        tolerance = tolerance * 100.0
                    ),
                }),
                None => findings.push(Finding {
                    workload: b.name.clone(),
                    field: key.clone(),
                    baseline: format!("{bv:.2}x"),
                    current: "missing".into(),
                    regression: true,
                    verdict: "ratio missing from current run".into(),
                }),
            }
        }
        for (key, bv) in &b.mem {
            let cv = c.mem_mb(key);
            let (regression, verdict, current_s) = match cv {
                // A missing memory column is platform-dependent
                // (`peak_rss_mb` needs procfs), not a regression.
                None => (
                    false,
                    "informational (memory column absent on this platform)".to_owned(),
                    "missing".to_owned(),
                ),
                Some(cv) if *bv < MIN_GATED_MB => (
                    false,
                    format!("informational (baseline < {MIN_GATED_MB} MB)"),
                    format!("{cv:.1} MB"),
                ),
                Some(cv) => {
                    let lo = bv * (1.0 - mem_tolerance);
                    let hi = bv * (1.0 + mem_tolerance);
                    if cv > hi {
                        (
                            true,
                            format!(
                                "memory grew above {hi:.1} MB (+{:.0}% band)",
                                mem_tolerance * 100.0
                            ),
                            format!("{cv:.1} MB"),
                        )
                    } else if cv < lo {
                        (
                            true,
                            format!(
                                "memory fell below {lo:.1} MB — improvement or lost coverage; \
                                 refresh the committed baseline"
                            ),
                            format!("{cv:.1} MB"),
                        )
                    } else {
                        (
                            false,
                            format!("ok (within ±{:.0}%)", mem_tolerance * 100.0),
                            format!("{cv:.1} MB"),
                        )
                    }
                }
            };
            findings.push(Finding {
                workload: b.name.clone(),
                field: key.clone(),
                baseline: format!("{bv:.1} MB"),
                current: current_s,
                regression,
                verdict,
            });
        }
        // Memory columns the current run has but the baseline lacks (e.g. a
        // baseline regenerated on a platform without procfs): surfaced so
        // the coverage gap is visible in the table, informational so adding
        // a column never needs a two-step dance.
        for (key, cv) in &c.mem {
            if b.mem_mb(key).is_none() {
                findings.push(Finding {
                    workload: b.name.clone(),
                    field: key.clone(),
                    baseline: "missing".into(),
                    current: format!("{cv:.1} MB"),
                    regression: false,
                    verdict: "informational (column absent from baseline — regenerate it                               on a platform that measures this)"
                        .into(),
                });
            }
        }
    }
    for c in current {
        if !baseline.iter().any(|b| b.name == c.name) {
            unmatched.push(format!("{} (current only)", c.name));
        }
    }
    let pass = !findings.iter().any(|f| f.regression);
    GateReport {
        findings,
        unmatched,
        pass,
    }
}

/// Renders the gate report as a GitHub-flavoured markdown table (the
/// `$GITHUB_STEP_SUMMARY` payload).
pub fn markdown(report: &GateReport, tolerance: f64) -> String {
    let mut out = String::new();
    let verdict = if report.pass {
        "✅ pass"
    } else {
        "❌ regression"
    };
    let _ = writeln!(out, "## Engine perf gate — {verdict}");
    let _ = writeln!(
        out,
        "\nDeterministic counters are pinned exactly; speed ratios may dip at most \
         {:.0}% below the committed baseline.\n",
        tolerance * 100.0
    );
    let _ = writeln!(out, "| workload | field | baseline | current | verdict |");
    let _ = writeln!(out, "|---|---|---:|---:|---|");
    for f in &report.findings {
        let mark = if f.regression { "**❌**" } else { "✅" };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {mark} {} |",
            f.workload, f.field, f.baseline, f.current, f.verdict
        );
    }
    if !report.unmatched.is_empty() {
        let _ = writeln!(out, "\nUnmatched workloads (informational):");
        for u in &report.unmatched {
            let _ = writeln!(out, "- {u}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{
  "schema": "amo-bench/engine-v3",
  "scale": "quick",
  "workloads": [
    {
      "name": "kk_plain_rr",
      "params": "n=20000 m=8 beta=192",
      "seed_equivalent_ms": 15.07,
      "single_step_ms": 13.08,
      "fast_path_ms": 5.93,
      "speedup_vs_seed": 2.54,
      "speedup_vs_single_step": 2.21,
      "total_steps": 554776,
      "shared_ops": 500394,
      "effectiveness": 19805
    },
    {
      "name": "write_all",
      "params": "n=10000 m=4 1/eps=1",
      "single_step_ms": 0.93,
      "fast_path_ms": 0.80,
      "speedup_vs_single_step": 1.16,
      "total_steps": 60263,
      "shared_ops": 50878
    }
  ]
}
"#;

    #[test]
    fn parses_own_format() {
        let ws = parse_bench(BASE);
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].name, "kk_plain_rr");
        assert_eq!(ws[0].counter("total_steps"), Some(554776));
        assert_eq!(ws[0].counter("effectiveness"), Some(19805));
        assert_eq!(ws[0].ratio("speedup_vs_seed"), Some(2.54));
        assert_eq!(ws[1].name, "write_all");
        assert_eq!(ws[1].ratio("speedup_vs_seed"), None);
    }

    #[test]
    fn identical_runs_pass() {
        let b = parse_bench(BASE);
        let report = compare(&b, &b, 0.2);
        assert!(report.pass);
        assert!(report.findings.iter().all(|f| !f.regression));
        assert!(report.unmatched.is_empty());
    }

    #[test]
    fn gate_blocks_a_synthetic_25_percent_slowdown() {
        // The acceptance demo: slow the fast path by 25% (ratios shrink by
        // the same factor) and the ±20% gate must fail.
        let b = parse_bench(BASE);
        let slowed = BASE
            .replace("\"fast_path_ms\": 5.93", "\"fast_path_ms\": 7.41")
            .replace("\"speedup_vs_seed\": 2.54", "\"speedup_vs_seed\": 2.03")
            .replace(
                "\"speedup_vs_single_step\": 2.21",
                "\"speedup_vs_single_step\": 1.77",
            );
        let c = parse_bench(&slowed);
        let report = compare(&b, &c, 0.2);
        assert!(!report.pass, "a 25% slowdown must trip the 20% gate");
        let bad: Vec<_> = report.findings.iter().filter(|f| f.regression).collect();
        assert!(
            bad.iter().any(|f| f.field == "speedup_vs_seed"),
            "the seed ratio is gated"
        );
        let md = markdown(&report, 0.2);
        assert!(md.contains("❌"));
        assert!(md.contains("kk_plain_rr"));
    }

    #[test]
    fn gate_tolerates_noise_within_20_percent() {
        let b = parse_bench(BASE);
        let noisy = BASE
            .replace("\"speedup_vs_seed\": 2.54", "\"speedup_vs_seed\": 2.11")
            .replace(
                "\"speedup_vs_single_step\": 2.21",
                "\"speedup_vs_single_step\": 1.85",
            );
        let c = parse_bench(&noisy);
        assert!(compare(&b, &c, 0.2).pass, "within-tolerance wobble passes");
    }

    #[test]
    fn counter_drift_is_a_hard_failure() {
        let b = parse_bench(BASE);
        let drifted = BASE.replace("\"total_steps\": 554776", "\"total_steps\": 554777");
        let c = parse_bench(&drifted);
        let report = compare(&b, &c, 0.2);
        assert!(!report.pass, "deterministic counters are pinned exactly");
    }

    #[test]
    fn improvements_pass() {
        let b = parse_bench(BASE);
        let faster = BASE
            .replace("\"speedup_vs_seed\": 2.54", "\"speedup_vs_seed\": 9.99")
            .replace(
                "\"speedup_vs_single_step\": 2.21",
                "\"speedup_vs_single_step\": 5.00",
            );
        assert!(compare(&b, &parse_bench(&faster), 0.2).pass);
    }

    #[test]
    fn missing_baseline_workload_is_a_hard_failure() {
        let b = parse_bench(BASE);
        let current: Vec<Workload> = parse_bench(BASE)
            .into_iter()
            .filter(|w| w.name != "kk_plain_rr")
            .collect();
        let report = compare(&b, &current, 0.2);
        assert!(!report.pass, "a vanished gated workload must fail");
        assert!(report
            .findings
            .iter()
            .any(|f| f.regression && f.field == "presence" && f.workload == "kk_plain_rr"));
    }

    #[test]
    fn sub_millisecond_ratios_are_informational() {
        // write_all's quick fast path is 0.80 ms in BASE — below MIN_GATED_MS
        // — so even a big ratio drop must not fail the gate (its counters
        // remain pinned exactly).
        let b = parse_bench(BASE);
        let noisy = BASE.replace(
            "\"speedup_vs_single_step\": 1.16",
            "\"speedup_vs_single_step\": 0.50",
        );
        let report = compare(&b, &parse_bench(&noisy), 0.2);
        assert!(report.pass, "sub-ms samples are not ratio-gated");
        assert!(report.findings.iter().any(|f| f.workload == "write_all"
            && f.field == "speedup_vs_single_step"
            && f.verdict.contains("informational")));
    }

    #[test]
    fn comma_in_a_string_field_does_not_drop_the_workload() {
        let base = BASE.replace(
            "\"params\": \"n=20000 m=8 beta=192\"",
            "\"params\": \"n=20000, m=8, beta=192\"",
        );
        let ws = parse_bench(&base);
        assert_eq!(ws.len(), 2, "workload survives a comma inside params");
        assert_eq!(ws[0].name, "kk_plain_rr");
        assert_eq!(ws[0].counter("total_steps"), Some(554776));
    }

    const MEM_BASE: &str = r#"{
  "schema": "amo-bench/engine-v4",
  "scale": "quick",
  "workloads": [
    {
      "name": "kk_mega_quick",
      "params": "n=100000 m=32",
      "single_step_ms": 900.00,
      "fast_path_ms": 150.00,
      "speedup_vs_single_step": 6.00,
      "peak_rss_mb": 60.0,
      "resident_arena_mb": 26.1,
      "total_steps": 1000,
      "shared_ops": 900
    }
  ]
}
"#;

    #[test]
    fn memory_columns_parse_as_their_own_class() {
        let ws = parse_bench(MEM_BASE);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].mem_mb("peak_rss_mb"), Some(60.0));
        assert_eq!(ws[0].mem_mb("resident_arena_mb"), Some(26.1));
        assert_eq!(
            ws[0].counter("peak_rss_mb"),
            None,
            "memory is banded, never pinned exactly"
        );
    }

    #[test]
    fn memory_growth_beyond_the_band_fails() {
        let b = parse_bench(MEM_BASE);
        let grown = MEM_BASE.replace("\"peak_rss_mb\": 60.0", "\"peak_rss_mb\": 80.0");
        let report = compare(&b, &parse_bench(&grown), 0.2);
        assert!(!report.pass, "+33% memory must trip the ±25% band");
        assert!(report
            .findings
            .iter()
            .any(|f| f.regression && f.field == "peak_rss_mb"));
    }

    #[test]
    fn memory_shrink_beyond_the_band_fails_too() {
        let b = parse_bench(MEM_BASE);
        let shrunk = MEM_BASE.replace("\"resident_arena_mb\": 26.1", "\"resident_arena_mb\": 2.0");
        let report = compare(&b, &parse_bench(&shrunk), 0.2);
        assert!(
            !report.pass,
            "a silent 10x shrink means lost coverage or an uncommitted improvement"
        );
    }

    #[test]
    fn memory_within_the_band_passes() {
        let b = parse_bench(MEM_BASE);
        let wobbled = MEM_BASE
            .replace("\"peak_rss_mb\": 60.0", "\"peak_rss_mb\": 68.0")
            .replace("\"resident_arena_mb\": 26.1", "\"resident_arena_mb\": 22.0");
        assert!(compare(&b, &parse_bench(&wobbled), 0.2).pass);
    }

    #[test]
    fn missing_memory_column_is_informational() {
        // A platform without procfs reports no RSS: not a regression.
        let b = parse_bench(MEM_BASE);
        let without = MEM_BASE.replace("      \"peak_rss_mb\": 60.0,\n", "");
        let report = compare(&b, &parse_bench(&without), 0.2);
        assert!(report.pass);
        assert!(report.findings.iter().any(|f| f.field == "peak_rss_mb"
            && !f.regression
            && f.verdict.contains("informational")));
    }

    #[test]
    fn small_memory_columns_are_informational() {
        let small = MEM_BASE
            .replace("\"peak_rss_mb\": 60.0", "\"peak_rss_mb\": 4.0")
            .replace("\"resident_arena_mb\": 26.1", "\"resident_arena_mb\": 0.5");
        let b = parse_bench(&small);
        let doubled = small
            .replace("\"peak_rss_mb\": 4.0", "\"peak_rss_mb\": 8.0")
            .replace("\"resident_arena_mb\": 0.5", "\"resident_arena_mb\": 1.5");
        assert!(
            compare(&b, &parse_bench(&doubled), 0.2).pass,
            "sub-{MIN_GATED_MB} MB columns are not gated"
        );
    }

    #[test]
    fn current_only_memory_columns_are_surfaced() {
        // Baseline regenerated without procfs: its RSS column is gone, but
        // CI still measures one — the gap must be visible, not silent.
        let without = MEM_BASE.replace("      \"peak_rss_mb\": 60.0,\n", "");
        let b = parse_bench(&without);
        let report = compare(&b, &parse_bench(MEM_BASE), 0.2);
        assert!(report.pass, "an extra column is not a regression");
        assert!(report.findings.iter().any(|f| f.field == "peak_rss_mb"
            && !f.regression
            && f.baseline == "missing"
            && f.verdict.contains("regenerate")));
    }

    #[test]
    fn env_mismatch_keeps_memory_and_missing_column_gates_hard() {
        // Memory does not depend on the register backend's timing, so an
        // RSS blow-up on a durable leg must still fail...
        let b = parse_bench(MEM_BASE);
        let grown = MEM_BASE.replace("\"peak_rss_mb\": 60.0", "\"peak_rss_mb\": 90.0");
        let report = compare_env(
            &b,
            &parse_bench(&grown),
            0.2,
            MEM_TOLERANCE,
            Some("vec"),
            Some("durable"),
        );
        assert!(!report.pass, "memory bands stay hard across backends");
        // ...and so must a ratio column vanishing entirely (malformed run,
        // not timing wobble).
        let v6 = parse_bench(V6);
        let mut truncated = parse_bench(V6);
        truncated[0].ratios.clear();
        let report = compare_env(
            &v6,
            &truncated,
            0.2,
            MEM_TOLERANCE,
            Some("vec"),
            Some("durable"),
        );
        assert!(
            !report.pass,
            "missing ratio columns stay hard across backends"
        );
    }

    const V6: &str = r#"{
  "schema": "amo-bench/engine-v6",
  "scale": "quick",
  "backend": "vec",
  "workloads": [
    {
      "name": "kk_plain_rr",
      "params": "n=20000 m=8 beta=192",
      "fast_path_ms": 5.93,
      "speedup_vs_single_step": 2.21,
      "total_steps": 554776
    }
  ]
}
"#;

    #[test]
    fn backend_field_parses_from_the_header_only() {
        assert_eq!(parse_backend(V6).as_deref(), Some("vec"));
        assert_eq!(
            parse_backend(BASE),
            None,
            "pre-engine-v6 files record no backend"
        );
        // A workload-level "backend" field must not be mistaken for the
        // header's.
        let trick = BASE.replace(
            "\"name\": \"write_all\"",
            "\"backend\": \"x\", \"name\": \"write_all\"",
        );
        assert_eq!(parse_backend(&trick), None);
    }

    #[test]
    fn backend_mismatch_is_informational() {
        let f = backend_finding(Some("vec"), Some("durable")).expect("finding");
        assert!(!f.regression);
        assert!(f.verdict.contains("informational"));
        let same = backend_finding(Some("vec"), Some("vec")).expect("finding");
        assert!(!same.regression);
        assert!(same.verdict.contains("match"));
        assert!(backend_finding(None, None).is_none());
    }

    #[test]
    fn backend_mismatch_downgrades_ratio_gates_but_not_counters() {
        let b = parse_bench(V6);
        // A durable-backend run: journaling drags the ratios, counters are
        // bit-identical by the fault-free equivalence contract.
        let slowed = V6.replace(
            "\"speedup_vs_single_step\": 2.21",
            "\"speedup_vs_single_step\": 1.00",
        );
        let report = compare_env(
            &b,
            &parse_bench(&slowed),
            0.2,
            MEM_TOLERANCE,
            Some("vec"),
            Some("durable"),
        );
        assert!(report.pass, "cross-backend timing drop must not fail");
        assert!(report.findings.iter().any(|f| f.field == "backend"));
        // A counter drifting on the durable backend breaks the bit-identity
        // contract and fails hard.
        let drifted = slowed.replace("\"total_steps\": 554776", "\"total_steps\": 554777");
        let report = compare_env(
            &b,
            &parse_bench(&drifted),
            0.2,
            MEM_TOLERANCE,
            Some("vec"),
            Some("durable"),
        );
        assert!(!report.pass, "counter drift fails regardless of backend");
    }

    #[test]
    fn matching_backends_keep_the_ratio_gate() {
        let b = parse_bench(V6);
        let slowed = V6.replace(
            "\"speedup_vs_single_step\": 2.21",
            "\"speedup_vs_single_step\": 1.00",
        );
        let report = compare_env(
            &b,
            &parse_bench(&slowed),
            0.2,
            MEM_TOLERANCE,
            Some("vec"),
            Some("vec"),
        );
        assert!(!report.pass, "same-env ratio collapse still fails");
    }

    /// A multi-core run of the committed quick baseline whose
    /// single-threaded `kk_mega_quick` lost its fast-path speedup must fail
    /// the gate. The run's header carries a `"threads"` field the baseline
    /// lacks: no header field other than the backend may relax a speed
    /// floor.
    #[test]
    fn committed_quick_baseline_enforces_speed_floors_on_a_multi_core_run() {
        let baseline_json = include_str!("../../../BENCH_engine.quick.json");
        let current_json = baseline_json.replace(
            "  \"backend\": \"vec\",\n",
            "  \"backend\": \"vec\",\n  \"threads\": 2,\n",
        );
        assert_ne!(
            current_json, baseline_json,
            "the run records a thread count"
        );
        let baseline = parse_bench(baseline_json);
        let mut current = parse_bench(&current_json);
        let mega = current
            .iter_mut()
            .find(|w| w.name == "kk_mega_quick")
            .expect("the quick baseline gates kk_mega_quick");
        for (key, ratio) in &mut mega.ratios {
            if key == "speedup_vs_single_step" {
                *ratio = 1.0;
            }
        }
        let report = compare_env(
            &baseline,
            &current,
            0.2,
            MEM_TOLERANCE,
            parse_backend(baseline_json).as_deref(),
            parse_backend(&current_json).as_deref(),
        );
        assert!(!report.pass, "a collapsed speedup must fail the gate");
        assert!(report.findings.iter().any(|f| f.regression
            && f.workload == "kk_mega_quick"
            && f.field == "speedup_vs_single_step"));
    }

    #[test]
    fn schema_tags_must_match() {
        let v9 = BASE.replace("engine-v3", "engine-v9");
        let v10 = BASE.replace("engine-v3", "engine-v10");
        let why = schema_mismatch(&v9, &v10).expect("a v9 baseline cannot gate a v10 run");
        assert!(
            why.contains("engine-v9") && why.contains("engine-v10"),
            "{why}"
        );
        assert_eq!(schema_mismatch(&v10, &v10), None, "equal tags pass");
        let untagged = v10.replace("  \"schema\": \"amo-bench/engine-v10\",\n", "");
        assert!(
            schema_mismatch(&v10, &untagged).is_some(),
            "a missing tag fails"
        );
        let committed = include_str!("../../../BENCH_engine.quick.json");
        assert!(
            parse_header_str(committed, "schema").is_some(),
            "the committed baseline has a tag"
        );
    }

    #[test]
    fn new_workloads_are_informational() {
        let b = parse_bench(BASE);
        let mut c = parse_bench(BASE);
        c.push(Workload {
            name: "brand_new".into(),
            ..Workload::default()
        });
        let report = compare(&b, &c, 0.2);
        assert!(report.pass);
        assert_eq!(
            report.unmatched,
            vec!["brand_new (current only)".to_owned()]
        );
    }
}
