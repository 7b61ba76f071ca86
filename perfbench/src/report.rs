//! The metric catalogue and the one-line JSON result every run ends with.
//!
//! `BENCHMARK.json` at the repository root lists the same names and units;
//! a test pins the two against each other.

use std::collections::BTreeMap;

/// One metric of the catalogue: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics: what a user of the system sees. Measured with
/// tracing off; every workload reports every one of them.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("jobs_per_s", "1/s"),
    def("claim_p50_us", "us"),
    def("effectiveness_ratio", "ratio"),
    def("peak_rss_mb", "MB"),
];

/// The `OrderedJobSet`/`RankedSet` methods the traced set wrapper counts,
/// in the order of [`PER_LAYER`]'s `set.calls_per_job.*` entries.
pub const SET_OPS: [&str; 14] = [
    "len",
    "is_empty",
    "contains",
    "select",
    "count_le",
    "select_excluding",
    "select_excluding_hinted",
    "empty",
    "full",
    "universe",
    "insert",
    "remove",
    "insert_paired_remove",
    "ops",
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// exercise, or that its traced run cannot reach, reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    def("claim_p90_us", "us"),
    def("work_per_job", "ops/job"),
    def("sched.decisions_per_job", "count"),
    def("sched.ns_per_decision", "ns"),
    def("sched.share", "ratio"),
    def("engine.actions_per_job", "count"),
    def("engine.actions_per_decision", "count"),
    def("engine.actions_per_s", "1/s"),
    def("engine.self_share", "ratio"),
    def("proc.calls_per_job", "count"),
    def("proc.self_ns_per_action", "ns"),
    def("proc.share", "ratio"),
    def("kk.calls.announce", "count"),
    def("kk.calls.gather_try", "count"),
    def("kk.calls.gather_done", "count"),
    def("kk.calls.comp_next", "count"),
    def("kk.calls.do", "count"),
    def("set.calls_per_job.len", "count"),
    def("set.calls_per_job.is_empty", "count"),
    def("set.calls_per_job.contains", "count"),
    def("set.calls_per_job.select", "count"),
    def("set.calls_per_job.count_le", "count"),
    def("set.calls_per_job.select_excluding", "count"),
    def("set.calls_per_job.select_excluding_hinted", "count"),
    def("set.calls_per_job.empty", "count"),
    def("set.calls_per_job.full", "count"),
    def("set.calls_per_job.universe", "count"),
    def("set.calls_per_job.insert", "count"),
    def("set.calls_per_job.remove", "count"),
    def("set.calls_per_job.insert_paired_remove", "count"),
    def("set.calls_per_job.ops", "count"),
    def("set.ns_per_call", "ns"),
    def("set.work_per_job", "ops/job"),
    def("set.share", "ratio"),
    def("reg.reads_per_job", "count"),
    def("reg.peeks_per_job", "count"),
    def("reg.writes_per_job", "count"),
    def("reg.ns_per_access", "ns"),
    def("reg.share", "ratio"),
    def("reg.epoch_mem_mb", "MB"),
    def("durable.journaled_per_job", "count"),
    def("durable.barriers_per_job", "count"),
    def("durable.blackouts", "count"),
    def("durable.dropped_records", "count"),
    def("durable.checkpoints", "count"),
    def("queue.submit_us_p50", "us"),
    def("queue.peak_depth", "count"),
    def("queue.rejected_full", "count"),
    def("worker.steps_per_claim", "count"),
    def("worker.step_ns_per_claim", "ns"),
    def("worker.busy_share", "ratio"),
    def("serve.generations_per_1k_claims", "count"),
    def("serve.build_us_per_generation", "us"),
    def("grant.wait_us_p50", "us"),
    def("grant.delivery_us_p50", "us"),
    def("serve.claim_samples", "count"),
    def("serve.claim_p99_us", "us"),
    def("serve.claim_p999_us", "us"),
    def("trace.overhead_ratio", "ratio"),
];

/// Operations attempted and failed, plus the metric values of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (instances run, claims submitted, checks made).
    pub attempted: u64,
    /// Operations that failed, failed checks included.
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Outcome {
    /// An empty outcome.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one checked operation; a failed one is reported on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Counts `n` operations that all succeeded.
    pub fn succeeded(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records a metric value (the last write wins).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Renders the result line over `catalogue`.
    ///
    /// With `require_all`, a metric that is missing, non-finite or not
    /// positive is a failed check (end-to-end metrics are never 0);
    /// otherwise such a metric reads 0.
    pub fn render(&mut self, catalogue: &[MetricDef], require_all: bool) -> String {
        if self.attempted == 0 {
            self.check(false, "no operation was attempted");
        }
        let mut metrics = Vec::with_capacity(catalogue.len());
        for m in catalogue {
            let value = match self.get(m.name) {
                Some(v) if v.is_finite() && (v > 0.0 || !require_all) => v,
                other => {
                    if require_all {
                        self.check(
                            false,
                            &format!("metric {} has no value ({other:?})", m.name),
                        );
                    }
                    0.0
                }
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    // `Display` for f64 prints the shortest round-trip decimal and never
    // uses exponent notation, both of which JSON accepts.
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(m.unit.len() <= 16);
        }
        for op in SET_OPS {
            let name = format!("set.calls_per_job.{op}");
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name} missing");
        }
    }

    #[test]
    fn render_fills_and_fails_as_documented() {
        let mut o = Outcome::new();
        o.succeeded(3);
        o.set("setup_s", 0.25);
        let line = o.render(&END_TO_END[..1], true);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        // A missing end-to-end metric is a failed check...
        let line = o.render(&END_TO_END[..2], true);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1"));
        // ...while a missing per-layer metric reads 0.
        let work = [def("work_per_job", "ops/job")];
        let mut o = Outcome::new();
        o.succeeded(1);
        let line = o.render(&work, false);
        assert!(line.contains("\"work_per_job\": {\"value\": 0.0, \"unit\": \"ops/job\"}"));
        assert!(line.starts_with("{\"correct\": true"));
        // A run that attempted nothing is not a correct run.
        let line = Outcome::new().render(&work, false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 1"));
    }
}
