use std::collections::HashMap;

use crate::process::JobSpan;

/// A job performed more than once — a violation of Definition 2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// The job that was repeated.
    pub job: u64,
    /// How many times it was performed (`≥ 2`).
    pub count: u32,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {} performed {} times", self.job, self.count)
    }
}

/// Multiset of performed jobs, used to check the at-most-once property
/// incrementally (the explorer threads one of these through its search).
#[derive(Debug, Clone, Default)]
pub struct JobCounts {
    counts: HashMap<u64, u32>,
}

impl JobCounts {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one performance of every job in `span`; returns the first job
    /// of the span that had already been performed, if any.
    pub fn record(&mut self, span: JobSpan) -> Option<u64> {
        let mut dup = None;
        for job in span.jobs() {
            let c = self.counts.entry(job).or_insert(0);
            *c += 1;
            if *c > 1 && dup.is_none() {
                dup = Some(job);
            }
        }
        dup
    }

    /// Reverts a previous [`record`](Self::record) of `span` (explorer
    /// backtracking).
    pub fn unrecord(&mut self, span: JobSpan) {
        for job in span.jobs() {
            match self.counts.get_mut(&job) {
                Some(c) if *c > 1 => *c -= 1,
                Some(_) => {
                    self.counts.remove(&job);
                }
                None => panic!("unrecord of job {job} that was never recorded"),
            }
        }
    }

    /// Number of distinct jobs performed (`Do(α)`, Definition 2.1).
    pub fn distinct(&self) -> u64 {
        self.counts.len() as u64
    }

    /// Times `job` has been performed.
    pub fn count(&self, job: u64) -> u32 {
        self.counts.get(&job).copied().unwrap_or(0)
    }

    /// Iterates over `(job, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.counts.iter().map(|(&j, &c)| (j, c))
    }

    /// All violations accumulated so far, sorted by job id.
    pub fn violations(&self) -> Vec<Violation> {
        let mut v: Vec<Violation> = self
            .counts
            .iter()
            .filter(|(_, &c)| c > 1)
            .map(|(&job, &count)| Violation { job, count })
            .collect();
        v.sort_by_key(|x| x.job);
        v
    }
}

/// Scans performed spans and returns every at-most-once violation.
///
/// # Examples
///
/// ```
/// use amo_sim::{at_most_once_violations, JobSpan};
///
/// let spans = [JobSpan::new(1, 4), JobSpan::single(3)];
/// let v = at_most_once_violations(spans);
/// assert_eq!(v.len(), 1);
/// assert_eq!(v[0].job, 3);
/// ```
pub fn at_most_once_violations<I: IntoIterator<Item = JobSpan>>(spans: I) -> Vec<Violation> {
    let mut ledger = JobCounts::new();
    for s in spans {
        ledger.record(s);
    }
    ledger.violations()
}

/// `Do(α)` over a sequence of performed spans: the number of distinct jobs.
pub fn distinct_jobs<I: IntoIterator<Item = JobSpan>>(spans: I) -> u64 {
    let mut ledger = JobCounts::new();
    for s in spans {
        ledger.record(s);
    }
    ledger.distinct()
}

/// One-pass dense summary of a perform history: `(Do(α), violations)`.
///
/// Job ids are dense (`1..=n`), so a flat `Vec<u32>` keyed by job replaces
/// the hash ledger, and a single pass over the records serves both the
/// effectiveness count and the violation scan. The hash-based
/// [`distinct_jobs`] + [`at_most_once_violations`] pair costs two full
/// SipHash table builds over every record, which dominated the epilogue of
/// large simulated runs (hundreds of milliseconds at `n = 10⁶`); the
/// incremental [`JobCounts`] ledger remains for the explorer, which needs
/// `unrecord`.
///
/// Violations are returned sorted by job id, exactly like
/// [`at_most_once_violations`].
pub fn perform_summary<I: IntoIterator<Item = JobSpan>>(spans: I) -> (u64, Vec<Violation>) {
    let mut counts: Vec<u32> = Vec::new();
    let mut distinct = 0u64;
    for s in spans {
        let hi = s.hi as usize;
        if hi > counts.len() {
            counts.resize(hi, 0);
        }
        for job in s.jobs() {
            let c = &mut counts[job as usize - 1];
            *c += 1;
            if *c == 1 {
                distinct += 1;
            }
        }
    }
    // Violation scan: almost every count is ≤ 1 in a correct execution, so
    // the scan degenerates to a handful of hits (this pass is epilogue
    // bookkeeping — it charges no `local_work`).
    let mut violations = Vec::new();
    let mut idx = 0usize;
    while let Some(i) = amo_ostree::kernels::find_gt(&counts, 1, idx) {
        violations.push(Violation {
            job: i as u64 + 1,
            count: counts[i],
        });
        idx = i + 1;
    }
    (distinct, violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_history_is_clean() {
        assert!(at_most_once_violations([]).is_empty());
        assert_eq!(distinct_jobs([]), 0);
    }

    #[test]
    fn disjoint_spans_are_clean() {
        let spans = [JobSpan::new(1, 10), JobSpan::new(11, 20)];
        assert!(at_most_once_violations(spans).is_empty());
        assert_eq!(distinct_jobs(spans), 20);
    }

    #[test]
    fn overlap_is_reported_per_job() {
        let spans = [JobSpan::new(1, 5), JobSpan::new(4, 8)];
        let v = at_most_once_violations(spans);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0], Violation { job: 4, count: 2 });
        assert_eq!(v[1], Violation { job: 5, count: 2 });
        assert_eq!(distinct_jobs(spans), 8);
    }

    #[test]
    fn triple_performance_counts() {
        let spans = [JobSpan::single(7), JobSpan::single(7), JobSpan::single(7)];
        let v = at_most_once_violations(spans);
        assert_eq!(v, vec![Violation { job: 7, count: 3 }]);
    }

    #[test]
    fn ledger_record_reports_first_duplicate() {
        let mut l = JobCounts::new();
        assert_eq!(l.record(JobSpan::new(1, 3)), None);
        assert_eq!(l.record(JobSpan::new(2, 4)), Some(2));
        assert_eq!(l.count(2), 2);
        assert_eq!(l.distinct(), 4);
    }

    #[test]
    fn ledger_unrecord_backtracks() {
        let mut l = JobCounts::new();
        l.record(JobSpan::new(1, 3));
        l.record(JobSpan::single(2));
        l.unrecord(JobSpan::single(2));
        assert!(l.violations().is_empty());
        l.unrecord(JobSpan::new(1, 3));
        assert_eq!(l.distinct(), 0);
    }

    #[test]
    #[should_panic(expected = "never recorded")]
    fn unrecord_unknown_panics() {
        JobCounts::new().unrecord(JobSpan::single(1));
    }

    #[test]
    fn violation_display() {
        let v = Violation { job: 3, count: 2 };
        assert_eq!(v.to_string(), "job 3 performed 2 times");
    }
}
