use std::collections::HashMap;

use std::hash::{Hash, Hasher};

use amo_ostree::{rank_excluding_members_hinted, FenwickSet, OrderedJobSet, SelectHint};
use amo_sim::{BatchOutcome, JobSpan, Process, Registers, StepEvent};

use crate::config::KkConfig;
use crate::layout::KkLayout;

/// Log entries `step_batch`'s `gatherDone` walk reads before it merges
/// them: a chunk of one row's backlog (`kk_mega_rr`'s rows hold about 21).
const LOG_CHUNK: usize = 64;

/// Which variant of the automaton runs (§3 vs §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KkMode {
    /// Plain KKβ (Fig. 1–2): terminate silently when `|FREE \ TRY| < β`.
    Plain,
    /// `IterStepKK` (§6): a shared termination flag is set by the first
    /// process that runs out of candidates, every process re-checks the flag
    /// before each `do`, and a terminating process performs a final gather
    /// and emits an *output set* for the next iteration stage.
    IterStep {
        /// `true` → output `FREE` (the Write-All variant `WA_IterStepKK`,
        /// §7); `false` → output `FREE \ TRY` (§6).
        output_free: bool,
    },
}

/// How a universe identifier translates into performed jobs.
///
/// Plain KKβ performs job `i` for identifier `i`; the iterated algorithms
/// run KKβ over *super-jobs* — blocks of consecutive jobs — so identifier
/// `k` performs the whole block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanMap {
    /// Identifier `i` is job `i`.
    Identity,
    /// Identifier `k` is the block `[(k−1)·size + 1, min(k·size, total_jobs)]`.
    Blocks {
        /// Jobs per block.
        size: u64,
        /// Total jobs `n` (the last block may be partial).
        total_jobs: u64,
    },
}

impl SpanMap {
    /// The jobs performed by a `do` on identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is zero or maps outside `1..=total_jobs`.
    pub fn span(&self, id: u64) -> JobSpan {
        match *self {
            SpanMap::Identity => JobSpan::single(id),
            SpanMap::Blocks { size, total_jobs } => {
                let lo = (id - 1) * size + 1;
                let hi = (id * size).min(total_jobs);
                JobSpan::new(lo, hi)
            }
        }
    }
}

/// How `compNext` chooses the candidate's rank inside `FREE \ TRY`
/// (ablation A4, DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PickRule {
    /// The paper's deterministic rank-splitting (Fig. 2).
    RankSplit,
    /// Uniformly random rank, from an embedded xorshift64 state —
    /// the randomized ablation isolating the value of rank-splitting.
    /// Safety is unaffected (the `check` logic is unchanged); collision
    /// behaviour and work change.
    Uniform {
        /// Current xorshift64 state (must be non-zero).
        state: u64,
    },
}

impl PickRule {
    /// A uniform rule seeded per process.
    pub fn uniform(seed: u64) -> Self {
        PickRule::Uniform { state: seed | 1 }
    }

    /// Draws the 1-based rank to pick among `avail` candidates; advances
    /// the internal state for `Uniform`.
    fn pick(&mut self, pid: u64, m: u64, f_len: u64, avail: u64) -> u64 {
        match self {
            PickRule::RankSplit => {
                // TMP ← (|FREE| − (m−1)) / m; if TMP ≥ 1 use the rank-split
                // index ⌊(p−1)·TMP⌋ + 1, else fall back to rank p.
                let num = f_len.saturating_sub(m - 1);
                if num >= m {
                    (pid - 1) * num / m + 1
                } else {
                    pid
                }
            }
            PickRule::Uniform { state } => {
                let mut x = *state;
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *state = x;
                x % avail + 1
            }
        }
    }
}

/// The `STATUS` component of the automaton state (Fig. 1), plus the §6
/// extensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KkPhase {
    /// `comp_next`: choose the next candidate by rank-splitting.
    CompNext,
    /// `set_next`: announce the candidate in `next_p`.
    SetNext,
    /// `gather_try`: read the other processes' announcements.
    GatherTry,
    /// `gather_done`: read the other processes' completion logs.
    GatherDone,
    /// `check`: is the candidate safe to perform?
    Check,
    /// IterStep only: read the shared termination flag before `do`.
    FlagRead,
    /// `do`: perform the candidate.
    Do,
    /// `done`: log the completed candidate in `done_{p,POS(p)}`.
    DoneWrite,
    /// IterStep only: raise the shared termination flag.
    SetFlag,
    /// IterStep only: terminal re-read of the announcements.
    FinalGatherTry,
    /// IterStep only: terminal re-read of the completion logs.
    FinalGatherDone,
    /// IterStep only: compute the output set and terminate.
    Output,
    /// `end`: terminated.
    End,
}

/// The KKβ I/O automaton of one process — paper Fig. 1 (state) and Fig. 2
/// (transitions), with one set of Fig. 1 kept only where it carries
/// information.
///
/// Fig. 1 gives each process both `FREE` and `DONE`. Every `DONE` insert
/// removes the same job from `FREE`, so when `FREE` starts as the whole
/// universe `J` (plain KKβ, and every iterated stage handed a full set),
/// `DONE = J \ FREE` at every step. Such a process keeps `FREE` alone and
/// answers `DONE` from it: `check`, [`has_done`](Self::has_done),
/// [`done_len`](Self::done_len), [`check_invariants`](Self::check_invariants)
/// and `Eq`/`Hash` (the explorer's state partition is unchanged, since
/// `DONE` is a function of `FREE`). A `gatherDone` merge is then one
/// `FREE` removal, and the `DONE` leg's insert is charged logically — as
/// much as the removal itself charged (inserting an absent id costs what
/// removing a present one does on every [`OrderedJobSet`]) — so the work
/// measure of Definition 2.5 is unchanged.
///
/// `DONE` stays a physical set when the initial `FREE` is a proper subset
/// of the universe (iterated stages after the first). There `DONE` also
/// holds foreign jobs outside the initial `FREE`, and exact accounting must
/// tell a first merge of such a job (charged as an insert) from a repeat of
/// an already-merged one (a duplicate probe), which `FREE` alone cannot.
///
/// Deviation D4 (DESIGN.md): `gatherDone` checks `POS(q) ≤ n` *before*
/// reading `done_{q,POS(q)}` instead of after, because reading out of bounds
/// is not expressible in safe Rust; the read value is ignored in that case
/// either way, so the behaviour is identical.
///
/// # Examples
///
/// Stepping a single process by hand in the simulator:
///
/// ```
/// use amo_core::{KkConfig, KkLayout, KkPhase, KkProcess};
/// use amo_sim::{Process, VecRegisters};
///
/// let config = KkConfig::new(4, 1)?;
/// let layout = KkLayout::contiguous(1, 4, false);
/// let mem = VecRegisters::new(layout.cells());
/// let mut p: KkProcess = KkProcess::from_config(1, &config, layout);
/// assert_eq!(p.phase(), KkPhase::CompNext);
/// while !p.is_terminated() {
///     p.step(&mem);
/// }
/// // A lone process with β = m = 1 performs all n jobs.
/// assert_eq!(p.performs(), 4);
/// # Ok::<(), amo_core::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct KkProcess<S: OrderedJobSet = FenwickSet> {
    pid: usize,
    m: usize,
    beta: u64,
    layout: KkLayout,
    mode: KkMode,
    span_map: SpanMap,

    pick_rule: PickRule,
    phase: KkPhase,
    free: S,
    /// `DONE` when kept physically (initial `FREE` a proper subset of the
    /// universe); `None` when it is derived as `J \ FREE` (see the type
    /// docs).
    done_set: Option<S>,
    /// `TRY`, kept sorted; `|TRY| ≤ m − 1` by construction.
    try_set: Vec<u64>,
    /// `POS(q)` for `q ∈ 1..=m` at index `q − 1`; 1-based log positions.
    pos: Vec<u64>,
    /// `NEXT` (0 = undefined, matching the paper's init).
    next_job: u64,
    /// `Q` loop index, `1..=m`.
    q: usize,
    /// Output set of the IterStep variant, available after termination.
    output: Option<S>,

    // ---- announcement-epoch cache (opt-in; see `with_epoch_cache`) ----
    /// `true` when the cache is enabled. The cache is observationally
    /// invisible: every gather action still counts one shared read and one
    /// merge operation exactly like the cache-free automaton, only redundant
    /// loads and redundant `TRY` rebuilds are skipped (the register file's
    /// global epoch proves the skipped values unchanged).
    epoch_cache: bool,
    /// Last observed value of `next_q` at index `q − 1` (`0` matches the
    /// cells' init value, so the initial cache is valid on fresh memory).
    gt_vals: Vec<u64>,
    /// `true` when `gt_vals` changed since `try_set` was last rebuilt.
    gt_dirty: bool,
    /// Others' share of the global epoch (global − own writes) during the
    /// last completed `gatherTry` sweep, provided the sweep ran *atomically
    /// with respect to other writers* (the stamp at the sweep's first action
    /// equalled the stamp at its last — see [`Self::finish_try_sweep`]);
    /// `None` before the first sweep or when foreign writes interleaved.
    gt_stamp: Option<u64>,
    /// Same, for `gatherDone` sweeps: when it still matches, every log
    /// frontier this process watches was read as `0` within one
    /// foreign-write-free window and nothing has been written since, so a
    /// whole sweep is `m` actions and `m − 1`-ish reads of provably-zero
    /// cells.
    gd_stamp: Option<u64>,
    /// Others' epoch at the first action of the in-progress `gatherTry`
    /// sweep (a sweep may span scheduler turns; the stamp is only published
    /// if no foreign write lands between first and last action).
    gt_sweep_start: Option<u64>,
    /// Same, for the in-progress `gatherDone` sweep.
    gd_sweep_start: Option<u64>,
    /// `#{q ≠ pid : gt_vals[q−1] > 0}` — the merge-accounting charge of a
    /// skipped `gatherTry` sweep, maintained so the whole-sweep skip is O(1).
    gt_nonzero: usize,
    /// `#{q ≠ pid : POS(q) ≤ n}` — the read count of a skipped `gatherDone`
    /// sweep, maintained so the whole-sweep skip is O(1).
    gd_open: usize,
    /// Shared writes performed by this process (subtracted from the global
    /// epoch so the process's own announcements/log appends never invalidate
    /// its view of *other* processes' cells).
    my_writes: u64,

    // ---- instrumentation (excluded from Eq/Hash) ----
    track_collisions: bool,
    /// Source pid aligned with `try_set` (collision attribution).
    try_src: Vec<usize>,
    /// Source pid per entry of `done_set` (collision attribution).
    done_src: HashMap<u64, usize>,
    /// Collisions detected against each other process, index `q − 1`.
    collisions_with: Vec<u64>,
    /// Reusable buffer for `compNext`'s `TRY ∩ FREE` (avoids a per-cycle
    /// allocation; transient, excluded from Eq/Hash like the counters).
    rank_scratch: Vec<u64>,
    /// `true` while `rank_scratch` still equals `TRY ∩ FREE`: `TRY` has not
    /// changed and no *other* process's job has been merged into `DONE`
    /// since it was built (own performs are provably outside `TRY`).
    /// Pure memoisation — excluded from Eq/Hash.
    scratch_valid: bool,
    /// Position hint for the next `compNext` selection: the previous pick
    /// anchors the rank walk (`SelectHint` invariant: `rank` is the pick's
    /// exact `count_le` in `FREE`). Every `FREE` removal — own performs and
    /// foreign `DONE` merges alike — identifies the removed element, so the
    /// anchor rank is repaired in `O(1)` (`rank -= 1` when the element is
    /// at or below the anchor) and the hint survives whole gather sweeps;
    /// it is only rebuilt by the next pick's re-anchor. The hinted and
    /// unhinted walks return identical elements, so this is pure
    /// memoisation — excluded from Eq/Hash.
    sel_hint: Option<SelectHint>,
    local_ops: u64,
    performs: u64,
}

impl<S: OrderedJobSet> KkProcess<S> {
    /// A plain-mode process for a whole [`KkConfig`] instance
    /// (`FREE = J = 1..=n`).
    ///
    /// The backing order-statistics structure defaults to [`FenwickSet`];
    /// pass an explicit type parameter (e.g.
    /// [`DenseFenwickSet`](amo_ostree::DenseFenwickSet)) for the
    /// data-structure ablation or the perf baseline.
    ///
    /// # Panics
    ///
    /// Panics if `pid ∉ 1..=m` or the layout does not match the config.
    pub fn from_config(pid: usize, config: &KkConfig, layout: KkLayout) -> Self {
        Self::new(
            pid,
            config.m(),
            config.beta(),
            layout,
            S::full(config.n()),
            KkMode::Plain,
            SpanMap::Identity,
        )
    }

    /// Fully general constructor, used by the iterated algorithms: an
    /// arbitrary initial `FREE ⊆ 1..=layout.n()`, a mode, and a span map.
    ///
    /// # Panics
    ///
    /// Panics if `pid ∉ 1..=m`, the layout's `m`/`n` disagree with the
    /// arguments, `β < m`, or IterStep mode is requested without a flag cell.
    pub fn new(
        pid: usize,
        m: usize,
        beta: u64,
        layout: KkLayout,
        free: S,
        mode: KkMode,
        span_map: SpanMap,
    ) -> Self {
        assert!((1..=m).contains(&pid), "pid {pid} out of 1..={m}");
        assert_eq!(layout.m(), m, "layout process count mismatch");
        assert_eq!(layout.n(), free.universe(), "layout universe mismatch");
        assert!(
            beta >= m as u64,
            "beta {beta} < m {m}: termination not guaranteed"
        );
        if matches!(mode, KkMode::IterStep { .. }) {
            assert!(
                layout.flag_cell().is_some(),
                "IterStep mode requires a flag cell"
            );
        }
        let n = layout.n();
        let done_set = (free.len() < n).then(|| S::empty(n));
        Self {
            pid,
            m,
            beta,
            layout,
            mode,
            span_map,
            pick_rule: PickRule::RankSplit,
            phase: KkPhase::CompNext,
            free,
            done_set,
            try_set: Vec::with_capacity(m),
            pos: vec![1; m],
            next_job: 0,
            q: 1,
            output: None,
            epoch_cache: false,
            gt_vals: vec![0; m],
            gt_dirty: false,
            gt_stamp: None,
            gd_stamp: None,
            gt_sweep_start: None,
            gd_sweep_start: None,
            gt_nonzero: 0,
            gd_open: if n >= 1 { m - 1 } else { 0 },
            my_writes: 0,
            track_collisions: false,
            try_src: Vec::new(),
            done_src: HashMap::new(),
            collisions_with: vec![0; m],
            rank_scratch: Vec::with_capacity(m),
            scratch_valid: false,
            sel_hint: None,
            local_ops: 0,
            performs: 0,
        }
    }

    /// Enables per-pair collision counting (experiment E7 / Lemma 5.5).
    pub fn with_collision_tracking(mut self) -> Self {
        self.track_collisions = true;
        self
    }

    /// Enables or disables per-pair collision counting (setter form of
    /// [`with_collision_tracking`](Self::with_collision_tracking), used by
    /// the scenario driver's instrumentation hook).
    pub fn set_collision_tracking(&mut self, enabled: bool) {
        self.track_collisions = enabled;
    }

    /// Replaces the candidate-selection rule (ablation A4).
    pub fn with_pick_rule(mut self, rule: PickRule) -> Self {
        self.pick_rule = rule;
        self
    }

    /// Enables or disables the announcement-epoch cache (builder form of
    /// [`set_epoch_cache`](Self::set_epoch_cache)).
    pub fn with_epoch_cache(mut self, enabled: bool) -> Self {
        self.set_epoch_cache(enabled);
        self
    }

    /// Enables or disables the announcement-epoch cache.
    ///
    /// With the cache on, the process keeps the last value it read from each
    /// `next_q` and stamps every `gatherTry` and `gatherDone` sweep that ran
    /// without a foreign write in between with the register file's global
    /// epoch ([`Registers::global_epoch`], less this process's own writes).
    /// While that stamp still matches, no other process has written since,
    /// so the batched path ([`Process::step_many`]) collapses a whole sweep
    /// into its accounting, and a fully stamped cycle into one fused block.
    /// `TRY` is rebuilt at the end of a sweep, and only when some
    /// announcement actually changed, instead of from scratch every cycle.
    /// On register files without epochs ([`Registers::epochs_enabled`] is
    /// `false`) no stamp is ever published, which degrades to the
    /// cache-free behaviour.
    ///
    /// The cache is **observationally invisible**: shared-read counts, local
    /// operation counts, `do` actions and step indices are identical to the
    /// cache-free automaton (the `batch_equivalence` suites assert
    /// executions equal field-for-field across cache on/off and batched/
    /// single-step). The engine's single-step (and therefore traced) path
    /// still performs every read, and labels a read the batched path would
    /// skip as [`StepEvent::CachedRead`].
    pub fn set_epoch_cache(&mut self, enabled: bool) {
        self.epoch_cache = enabled;
    }

    /// `true` when the announcement-epoch cache is enabled.
    pub fn epoch_cache_enabled(&self) -> bool {
        self.epoch_cache
    }

    /// The gather-loop cursor `Q` (used by wrappers to bound how many
    /// actions remain before the next possible `do`; see
    /// `WaIterativeProcess::step_many` in `amo-write-all`).
    pub fn gather_cursor(&self) -> usize {
        self.q
    }

    /// Current automaton phase.
    pub fn phase(&self) -> KkPhase {
        self.phase
    }

    /// `true` once the automaton reached `end` (inherent twin of the
    /// [`Process`] trait method, callable without naming a register type).
    pub fn is_terminated(&self) -> bool {
        self.phase == KkPhase::End
    }

    /// Local basic operations executed so far (inherent twin of the
    /// [`Process`] trait method).
    pub fn local_work(&self) -> u64 {
        self.local_ops + self.free.ops() + self.done_set.as_ref().map_or(0, |d| d.ops())
    }

    /// The announced candidate (`NEXT`), if one has been computed.
    pub fn current_job(&self) -> Option<u64> {
        (self.next_job != 0).then_some(self.next_job)
    }

    /// `true` once the process has written its current candidate to
    /// `next_p` (i.e. it is at or past `gather_try` in this cycle).
    pub fn has_announced(&self) -> bool {
        matches!(
            self.phase,
            KkPhase::GatherTry | KkPhase::GatherDone | KkPhase::Check | KkPhase::FlagRead
        )
    }

    /// Number of `do` actions executed.
    pub fn performs(&self) -> u64 {
        self.performs
    }

    /// Size of the current `FREE` estimate.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }

    /// Size of the current `DONE` estimate: `n − |FREE|` where `DONE` is
    /// derived, the physical set's size otherwise.
    pub fn done_len(&self) -> usize {
        match &self.done_set {
            Some(done) => done.len(),
            None => self.layout.n() - self.free.len(),
        }
    }

    /// `true` if this process already knows `job` to be performed (it is in
    /// its `DONE` estimate). Used by `check` and by the omniscient
    /// adversaries of §5.
    ///
    /// Where `DONE` is derived this is `job ∈ 1..=n` and `job ∉ FREE`, and
    /// the `FREE` probe charges the one operation a `DONE` probe would.
    pub fn has_done(&self, job: u64) -> bool {
        match &self.done_set {
            Some(done) => done.contains(job),
            None => !self.free.contains(job) && (1..=self.layout.n() as u64).contains(&job),
        }
    }

    /// Collisions detected against each other process (index `q − 1`);
    /// meaningful only with collision tracking enabled.
    pub fn collisions_with(&self) -> &[u64] {
        &self.collisions_with
    }

    /// The IterStep output set (`FREE \ TRY`, or `FREE` in the WA variant);
    /// `Some` only after termination in IterStep mode.
    pub fn output(&self) -> Option<&S> {
        self.output.as_ref()
    }

    /// Consumes the process and returns the IterStep output set.
    pub fn into_output(self) -> Option<S> {
        self.output
    }

    /// Checks the state invariants the paper's analysis relies on.
    ///
    /// * where `DONE` is physical, `|FREE| + |DONE| ≤ n` and
    ///   `FREE ∩ DONE = ∅` — a job leaves `FREE` exactly when it enters
    ///   `DONE` (§3's set maintenance); a derived `DONE` is `J \ FREE`, so
    ///   both hold by construction and are not checked;
    /// * `|TRY| ≤ m − 1`, sorted, within the universe — one announcement
    ///   slot per other process;
    /// * `Q ∈ 1..=m`, `POS(q) ∈ 1..=n+1` — loop and log cursors in range;
    /// * `NEXT` is defined in every phase that uses it.
    ///
    /// Intended for tests: it walks a physical `DONE` (`O(|DONE|)` rank
    /// probes, made on copies so the work measure is untouched), and
    /// neither production steps nor the exhaustive explorer call it.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let n = self.layout.n() as u64;
        if let Some(done) = &self.done_set {
            if self.free.len() + done.len() > self.layout.n() {
                return Err(format!(
                    "|FREE| + |DONE| = {} + {} exceeds n = {}",
                    self.free.len(),
                    done.len(),
                    self.layout.n()
                ));
            }
            let (free, done) = (self.free.clone(), done.clone());
            for rank in 1..=done.len() {
                let job = done.select(rank).expect("rank within |DONE|");
                if free.contains(job) {
                    return Err(format!("job {job} in both FREE and DONE"));
                }
            }
        }
        if self.try_set.len() > self.m.saturating_sub(1) {
            return Err(format!("|TRY| = {} > m − 1", self.try_set.len()));
        }
        if self.try_set.windows(2).any(|w| w[0] >= w[1]) {
            return Err("TRY not strictly sorted".to_owned());
        }
        if self.try_set.iter().any(|&v| v == 0 || v > n) {
            return Err("TRY holds an out-of-universe id".to_owned());
        }
        if !(1..=self.m).contains(&self.q) {
            return Err(format!("Q = {} out of 1..={}", self.q, self.m));
        }
        for (i, &pos) in self.pos.iter().enumerate() {
            if pos == 0 || pos > n + 1 {
                return Err(format!("POS({}) = {pos} out of 1..={}", i + 1, n + 1));
            }
        }
        let needs_next = matches!(
            self.phase,
            KkPhase::SetNext
                | KkPhase::GatherTry
                | KkPhase::GatherDone
                | KkPhase::Check
                | KkPhase::FlagRead
                | KkPhase::Do
                | KkPhase::DoneWrite
        );
        if needs_next && (self.next_job == 0 || self.next_job > n) {
            return Err(format!(
                "NEXT = {} undefined in phase {:?}",
                self.next_job, self.phase
            ));
        }
        if self.output.is_some() && self.phase != KkPhase::End {
            return Err("output set before termination".to_owned());
        }
        Ok(())
    }

    // ---- transitions (Fig. 2) ----

    /// `compNext_p`.
    fn comp_next(&mut self) -> StepEvent {
        self.local_ops += 1;
        // Intersect TRY with FREE once, into a reusable scratch buffer: the
        // intersection both sizes `avail` and feeds the allocation-free
        // `rank_excluding_members` fast path. Across cache-skipped cycles
        // the intersection is provably unchanged — `TRY` did not move, and
        // the only `FREE` removals were this process's own performs, which
        // `check` guarantees are outside `TRY` — so it is reused verbatim;
        // the membership probes it *would* have made are still charged
        // (one basic operation per `TRY` element), keeping the work measure
        // identical to the recomputing path.
        let mut scratch = std::mem::take(&mut self.rank_scratch);
        if self.scratch_valid {
            self.local_ops += self.try_set.len() as u64;
        } else {
            scratch.clear();
            scratch.extend(
                self.try_set
                    .iter()
                    .copied()
                    .filter(|&t| self.free.contains(t)),
            );
            self.scratch_valid = self.epoch_cache;
        }
        let in_free = scratch.len();
        let avail = (self.free.len() - in_free) as u64;
        if avail >= self.beta {
            let f_len = self.free.len() as u64;
            let m = self.m as u64;
            let p = self.pid as u64;
            let idx = self.pick_rule.pick(p, m, f_len, avail);
            let picked =
                rank_excluding_members_hinted(&self.free, &scratch, idx as usize, self.sel_hint)
                    .expect("rank index within FREE \\ TRY (see §3 bounds)");
            self.next_job = picked;
            // Re-anchor on the fresh pick: its rank in FREE is its rank in
            // FREE \ TRY plus the excluded members below it.
            let excl_below = scratch.partition_point(|&e| e <= picked);
            self.sel_hint = Some(SelectHint {
                anchor: picked,
                rank: idx as usize + excl_below,
            });
            self.rank_scratch = scratch;
            self.q = 1;
            if !self.epoch_cache {
                self.try_set.clear();
                self.try_src.clear();
            }
            // With the cache on, `TRY` stays as the last sweep's result (it
            // is the image of `gt_vals`); the upcoming sweep rebuilds it only
            // if an announcement epoch actually moved.
            self.phase = KkPhase::SetNext;
            StepEvent::Local
        } else {
            self.rank_scratch = scratch;
            match self.mode {
                KkMode::Plain => {
                    self.phase = KkPhase::End;
                    StepEvent::Terminated
                }
                KkMode::IterStep { .. } => {
                    self.phase = KkPhase::SetFlag;
                    StepEvent::Local
                }
            }
        }
    }

    /// `setNext_p`.
    fn set_next<R: Registers + ?Sized>(&mut self, mem: &R) -> StepEvent {
        let cell = self.layout.next_cell(self.pid);
        mem.write(cell, self.next_job);
        self.my_writes += 1;
        self.phase = KkPhase::GatherTry;
        StepEvent::Write { cell }
    }

    /// The part of the global epoch this process did not produce itself —
    /// the number this process's sweep stamps are recorded against.
    #[inline]
    fn others_epoch<R: Registers + ?Sized>(&self, mem: &R) -> u64 {
        mem.global_epoch() - self.my_writes
    }

    /// `true` while the cache is on and a published sweep stamp still equals
    /// the others' epoch: no other process has written since that sweep.
    /// Only a register file with epochs gets a stamp published.
    #[inline]
    fn stamp_holds<R: Registers + ?Sized>(&self, stamp: Option<u64>, mem: &R) -> bool {
        self.epoch_cache && stamp.is_some_and(|s| s == self.others_epoch(mem))
    }

    /// Records a (possibly changed) observed announcement value, keeping the
    /// nonzero count in sync for O(1) sweep skips.
    #[inline]
    fn gt_update(&mut self, idx: usize, v: u64) {
        let old = self.gt_vals[idx];
        if old != v {
            self.gt_nonzero += usize::from(v > 0);
            self.gt_nonzero -= usize::from(old > 0);
            self.gt_vals[idx] = v;
            self.gt_dirty = true;
        }
    }

    /// Advances `POS(q)` past a consumed log entry, keeping the open-row
    /// count in sync for O(1) sweep skips.
    #[inline]
    fn advance_pos(&mut self, idx: usize) {
        self.pos[idx] += 1;
        if self.pos[idx] > self.layout.n() as u64 {
            self.gd_open -= 1;
        }
    }

    /// Closes a `gatherTry` sweep: rebuilds `TRY` from the announcement
    /// cache if any announcement changed, and publishes the sweep stamp.
    /// No-op counterpart of the cache-free path's per-visit inserts — the
    /// per-visit merge *accounting* already happened, so the rebuild itself
    /// charges nothing.
    ///
    /// The stamp is published only when the others' epoch is unchanged since
    /// the sweep's **first** action: a sweep may span scheduler turns, and a
    /// foreign write interleaved mid-sweep means the cached values were
    /// recorded at incoherent times — the whole-sweep skip must not trust
    /// them.
    fn finish_try_sweep<R: Registers + ?Sized>(&mut self, mem: &R) {
        if self.gt_dirty {
            self.scratch_valid = false;
            self.try_set.clear();
            self.try_src.clear();
            if self.track_collisions {
                // `try_merge` keeps each job's first source aligned.
                for q in 1..=self.m {
                    let v = self.gt_vals[q - 1];
                    if v > 0 {
                        self.try_merge(v, q);
                    }
                }
            } else {
                // One pass in `q` order (the own slot is never written, so
                // it stays 0). Rank-splitting mostly announces in pid
                // order, so the sort and dedup run only when the pass is
                // not already strictly increasing.
                self.try_set
                    .extend(self.gt_vals.iter().copied().filter(|&v| v > 0));
                if self.try_set.windows(2).any(|w| w[0] >= w[1]) {
                    self.try_set.sort_unstable();
                    self.try_set.dedup();
                }
            }
            self.gt_dirty = false;
        }
        if mem.epochs_enabled() {
            let now = self.others_epoch(mem);
            self.gt_stamp = (self.gt_sweep_start == Some(now)).then_some(now);
        }
        self.gt_sweep_start = None;
    }

    /// Closes a `gatherDone` sweep: publishes the sweep stamp (every watched
    /// frontier was read as `0` within one foreign-write-free window; see
    /// [`finish_try_sweep`](Self::finish_try_sweep) for why mid-sweep
    /// foreign writes forfeit the stamp).
    fn finish_done_sweep<R: Registers + ?Sized>(&mut self, mem: &R) {
        if mem.epochs_enabled() {
            let now = self.others_epoch(mem);
            self.gd_stamp = (self.gd_sweep_start == Some(now)).then_some(now);
        }
        self.gd_sweep_start = None;
    }

    /// Records the start-of-sweep stamp at the sweep's first action
    /// (`Q == 1`).
    #[inline]
    fn note_try_sweep_start<R: Registers + ?Sized>(&mut self, mem: &R) {
        if self.q == 1 && mem.epochs_enabled() {
            self.gt_sweep_start = Some(self.others_epoch(mem));
        }
    }

    /// Records the start-of-sweep stamp at the sweep's first action
    /// (`Q == 1`).
    #[inline]
    fn note_done_sweep_start<R: Registers + ?Sized>(&mut self, mem: &R) {
        if self.q == 1 && mem.epochs_enabled() {
            self.gd_sweep_start = Some(self.others_epoch(mem));
        }
    }

    /// One iteration of the `gatherTry_p` loop — the single per-action body,
    /// shared by [`Process::step`] and the batched path.
    ///
    /// With the cache on, a read made while the last `gatherTry` sweep's
    /// stamp still matches is one the batched path skips: no other process
    /// has written since that sweep, so the value is the cached one (checked
    /// in debug builds) and the action is labelled
    /// [`StepEvent::CachedRead`].
    fn gather_try<R: Registers + ?Sized>(&mut self, mem: &R, terminal: bool) -> StepEvent {
        if self.epoch_cache {
            self.note_try_sweep_start(mem);
        }
        let event = if self.q != self.pid {
            let cell = self.layout.next_cell(self.q);
            let v = mem.read(cell);
            if self.epoch_cache {
                let idx = self.q - 1;
                let cached = self.stamp_holds(self.gt_stamp, mem);
                debug_assert!(
                    !cached || v == self.gt_vals[idx],
                    "stamped announcement changed"
                );
                self.gt_update(idx, v);
                if v > 0 {
                    // Merge accounting parity with the cache-free
                    // `try_insert`; the structural merge is deferred to the
                    // sweep-end rebuild.
                    self.local_ops += 1;
                }
                if cached {
                    StepEvent::CachedRead { cell }
                } else {
                    StepEvent::Read { cell }
                }
            } else {
                if v > 0 {
                    self.try_insert(v, self.q);
                }
                StepEvent::Read { cell }
            }
        } else {
            StepEvent::Local
        };
        if self.q < self.m {
            self.q += 1;
        } else {
            if self.epoch_cache {
                self.finish_try_sweep(mem);
            }
            self.q = 1;
            self.phase = if terminal {
                KkPhase::FinalGatherDone
            } else {
                KkPhase::GatherDone
            };
        }
        event
    }

    /// One iteration of the `gatherDone_p` loop.
    ///
    /// With the cache on, a read made while the last `gatherDone` sweep's
    /// stamp still matches is one the batched path skips: that sweep read
    /// every watched log frontier as `0` and no other process has written
    /// since, so the frontier still reads `0` (checked in debug builds) and
    /// the action is labelled [`StepEvent::CachedRead`].
    fn gather_done<R: Registers + ?Sized>(&mut self, mem: &R, terminal: bool) -> StepEvent {
        if self.epoch_cache {
            self.note_done_sweep_start(mem);
        }
        let n = self.layout.n() as u64;
        let mut event = StepEvent::Local;
        if self.q != self.pid {
            let pos_q = self.pos[self.q - 1];
            if pos_q <= n {
                let cell = self.layout.done_cell(self.q, pos_q);
                let v = mem.read(cell);
                event = if self.stamp_holds(self.gd_stamp, mem) {
                    debug_assert_eq!(v, 0, "stamped log frontier written");
                    StepEvent::CachedRead { cell }
                } else {
                    StepEvent::Read { cell }
                };
                if v > 0 {
                    self.done_insert(v, self.q);
                    self.advance_pos(self.q - 1);
                    // Stay on the same row: more entries may follow.
                } else {
                    self.q += 1;
                }
            } else {
                self.q += 1;
            }
        } else {
            self.q += 1;
        }
        if self.q > self.m {
            if self.epoch_cache {
                self.finish_done_sweep(mem);
            }
            self.q = 1;
            self.phase = if terminal {
                KkPhase::Output
            } else {
                KkPhase::Check
            };
        }
        event
    }

    /// `check_p`.
    fn check(&mut self) -> StepEvent {
        self.local_ops += 1;
        let try_hit = self.try_set.binary_search(&self.next_job).ok();
        let done_hit = self.has_done(self.next_job);
        if try_hit.is_none() && !done_hit {
            self.phase = match self.mode {
                KkMode::Plain => KkPhase::Do,
                KkMode::IterStep { .. } => KkPhase::FlagRead,
            };
        } else {
            if self.track_collisions {
                let src = try_hit
                    .map(|i| self.try_src[i])
                    .or_else(|| self.done_src.get(&self.next_job).copied());
                if let Some(src) = src {
                    if src != self.pid {
                        self.collisions_with[src - 1] += 1;
                    }
                }
            }
            self.phase = KkPhase::CompNext;
        }
        StepEvent::Local
    }

    /// IterStep: read the shared termination flag before performing.
    fn flag_read<R: Registers + ?Sized>(&mut self, mem: &R) -> StepEvent {
        let cell = self.layout.flag_cell().expect("IterStep layout has a flag");
        let v = mem.read(cell);
        if v == 0 {
            self.phase = KkPhase::Do;
        } else {
            self.begin_final_gather();
        }
        StepEvent::Read { cell }
    }

    /// `do_{p,j}`.
    fn do_job(&mut self) -> StepEvent {
        self.performs += 1;
        let span = self.span_map.span(self.next_job);
        self.phase = KkPhase::DoneWrite;
        StepEvent::Perform { span }
    }

    /// `done_p`.
    fn done_write<R: Registers + ?Sized>(&mut self, mem: &R) -> StepEvent {
        let pos_p = self.pos[self.pid - 1];
        let cell = self.layout.done_cell(self.pid, pos_p);
        mem.write(cell, self.next_job);
        self.my_writes += 1;
        self.done_insert(self.next_job, self.pid);
        self.pos[self.pid - 1] += 1;
        self.phase = KkPhase::CompNext;
        StepEvent::Write { cell }
    }

    /// IterStep: raise the shared termination flag.
    fn set_flag<R: Registers + ?Sized>(&mut self, mem: &R) -> StepEvent {
        let cell = self.layout.flag_cell().expect("IterStep layout has a flag");
        mem.write(cell, 1);
        self.my_writes += 1;
        self.begin_final_gather();
        StepEvent::Write { cell }
    }

    /// IterStep: compute the output set and terminate.
    fn output_and_end(&mut self) -> StepEvent {
        self.local_ops += 1;
        let output_free = match self.mode {
            KkMode::IterStep { output_free } => output_free,
            KkMode::Plain => unreachable!("Output phase is IterStep-only"),
        };
        let mut out = self.free.clone();
        if !output_free {
            for &t in &self.try_set {
                out.remove(t);
            }
        }
        self.output = Some(out);
        self.phase = KkPhase::End;
        StepEvent::Terminated
    }

    /// Dispatches one action of the automaton (shared by the [`Process`]
    /// `step` and the batched `step_many` fast path).
    fn step_one<R: Registers + ?Sized>(&mut self, mem: &R) -> StepEvent {
        debug_assert!(self.phase != KkPhase::End, "stepped after termination");
        match self.phase {
            KkPhase::CompNext => self.comp_next(),
            KkPhase::SetNext => self.set_next(mem),
            KkPhase::GatherTry => self.gather_try(mem, false),
            KkPhase::GatherDone => self.gather_done(mem, false),
            KkPhase::Check => self.check(),
            KkPhase::FlagRead => self.flag_read(mem),
            KkPhase::Do => self.do_job(),
            KkPhase::DoneWrite => self.done_write(mem),
            KkPhase::SetFlag => self.set_flag(mem),
            KkPhase::FinalGatherTry => self.gather_try(mem, true),
            KkPhase::FinalGatherDone => self.gather_done(mem, true),
            KkPhase::Output => self.output_and_end(),
            KkPhase::End => StepEvent::Terminated,
        }
    }

    fn begin_final_gather(&mut self) {
        if !self.epoch_cache {
            self.scratch_valid = false;
            self.try_set.clear();
            self.try_src.clear();
        }
        self.q = 1;
        self.phase = KkPhase::FinalGatherTry;
    }

    fn try_insert(&mut self, v: u64, src: usize) {
        self.local_ops += 1;
        self.scratch_valid = false;
        self.try_merge(v, src);
    }

    /// The structural part of [`try_insert`](Self::try_insert), without the
    /// work accounting — also the epoch cache's sweep-end rebuild under
    /// collision tracking, whose merges were already charged at the
    /// per-visit actions.
    ///
    /// A `v` above TRY's last element is pushed without a search:
    /// rank-splitting mostly announces in pid order and the sweep visits
    /// `q` in order, so that is the common case. Otherwise a binary search
    /// finds its slot.
    fn try_merge(&mut self, v: u64, src: usize) {
        if self.try_set.last().map_or(true, |&last| last < v) {
            self.try_set.push(v);
            if self.track_collisions {
                self.try_src.push(src);
            }
        } else if let Err(i) = self.try_set.binary_search(&v) {
            self.try_set.insert(i, v);
            if self.track_collisions {
                self.try_src.insert(i, src);
            }
        }
    }

    fn done_insert(&mut self, v: u64, src: usize) {
        if src != self.pid {
            // A foreign job may be a `TRY` member: the cached intersection
            // is no longer trustworthy.
            self.scratch_valid = false;
        }
        self.merge_done(v, src);
    }

    /// Merges job `v`, logged by process `src`, into `DONE` and out of
    /// `FREE` — the single-step merge, and the batched walk's per-entry
    /// one where [`merge_backlog`](Self::merge_backlog) cannot batch.
    ///
    /// A physical `DONE` takes the `done.insert` + `free.remove` pair
    /// ([`OrderedJobSet::insert_paired_remove`]). A derived `DONE`
    /// gains `v` exactly when `v` leaves `FREE`, so `free.remove(v)` alone
    /// does the structural work; a successful removal then charges its own
    /// `ops` delta once more for the `DONE` leg's insert, and a failed one
    /// charges only its probe, as a duplicate insert did.
    ///
    /// # Panics
    ///
    /// Panics if `v ∉ 1..=n` (a corrupted log), in both modes.
    #[inline]
    fn merge_done(&mut self, v: u64, src: usize) {
        let (inserted, removed) = match &mut self.done_set {
            Some(done) => done.insert_paired_remove(&mut self.free, v),
            None => {
                let n = self.layout.n();
                assert!(
                    (1..=n as u64).contains(&v),
                    "insert of {v} outside universe 1..={n}"
                );
                let before = self.free.ops();
                let removed = self.free.remove(v);
                if removed {
                    self.local_ops += self.free.ops() - before;
                }
                (removed, removed)
            }
        };
        if inserted {
            if removed {
                self.repair_hint_after_free_removal(v);
            }
            if self.track_collisions {
                self.done_src.insert(v, src);
            }
        }
    }

    /// Merges a chunk of jobs that process `src ≠ pid` logged, in log
    /// order — the one merge site of `step_batch`'s `gatherDone` walk.
    ///
    /// A derived `DONE` hands the whole chunk to
    /// [`OrderedJobSet::remove_many`], which removes and charges exactly as
    /// the per-entry [`merge_done`](Self::merge_done) sequence would; the
    /// `DONE` leg's inserts are charged as the removals' own `ops`, and the
    /// selection hint is repaired by the count removed at or below its
    /// anchor. A physical `DONE`, or collision tracking (which records each
    /// merged job's source), takes the per-entry merge.
    fn merge_backlog(&mut self, jobs: &[u64], src: usize) {
        if jobs.is_empty() {
            return;
        }
        // Foreign jobs may be `TRY` members: the cached intersection is
        // no longer trustworthy.
        self.scratch_valid = false;
        if self.done_set.is_some() || self.track_collisions {
            for &v in jobs {
                self.merge_done(v, src);
            }
            return;
        }
        let anchor = self.sel_hint.map_or(0, |h| h.anchor);
        let removed = self.free.remove_many(jobs, anchor);
        self.local_ops += removed.ops;
        if let Some(h) = &mut self.sel_hint {
            h.rank -= removed.at_or_below_anchor;
        }
    }

    /// Repairs the selection hint's prefix rank after `v` actually left
    /// `FREE`. The removed element is in hand regardless of who performed
    /// it — validity needs the element, not attribution — but the repair
    /// only fires on an *actual* removal: a foreign job outside this
    /// process's `FREE` (iterated stages shrink `FREE` below the universe)
    /// leaves the prefix count untouched. The single shared site keeps hint
    /// state evolving identically across the single-step and batched paths.
    #[inline]
    fn repair_hint_after_free_removal(&mut self, v: u64) {
        if let Some(h) = &mut self.sel_hint {
            if v <= h.anchor {
                h.rank -= 1;
            }
        }
    }
}

impl<S: OrderedJobSet> KkProcess<S> {
    /// Macro-stepping batched dispatcher — the body of
    /// [`Process::step_many`].
    ///
    /// The `gatherTry` and `gatherDone` loops — the dominant phases, costing
    /// `m − 1` and up to `n` sequential reads per `do` cycle — collapse to
    /// their accounting while the epoch cache's sweep stamps hold, and a
    /// fully stamped cycle collapses into one fused block. Otherwise
    /// `gatherTry` runs its single-step body once per action, and
    /// `gatherDone` reads each log row's backlog in chunks of up to
    /// `LOG_CHUNK` entries and merges each chunk at one site
    /// ([`merge_backlog`](Self::merge_backlog): one word-grouped
    /// [`OrderedJobSet::remove_many`] for a derived `DONE`); every other
    /// phase is delegated to the single-action dispatcher. Each shortcut
    /// mirrors the single-step reference *action for action*, so a batch of
    /// `k` steps is indistinguishable from `k` engine-driven steps.
    fn step_batch<R: Registers + ?Sized>(&mut self, mem: &R, budget: u64) -> BatchOutcome {
        debug_assert!(budget >= 1, "step_batch needs a positive budget");
        let mut steps: u64 = 0;
        let mut performed: Vec<(u64, JobSpan)> = Vec::new();
        while steps < budget {
            match self.phase {
                // Fused cycle tail — announce, both gather sweeps, check,
                // do, log — taken when the whole remaining cycle is provably
                // determined: both sweep stamps certify that no other
                // process has written since this process's own clean sweeps,
                // so every gather read returns its cached value AND `check`
                // must pass (the candidate was just picked inside `FREE` and
                // outside `TRY`, and neither set moved). The block is
                // action-for-action the reference sequence of `2m + 4`
                // steps, collapsed to its two writes, one set transfer and
                // its accounting.
                KkPhase::SetNext
                    if matches!(self.mode, KkMode::Plain)
                        && budget - steps >= 2 * self.m as u64 + 4
                        && self.stamp_holds(self.gt_stamp, mem)
                        && self.gd_stamp == self.gt_stamp =>
                {
                    let m = self.m as u64;
                    // setNext (action 1).
                    mem.write(self.layout.next_cell(self.pid), self.next_job);
                    self.my_writes += 1;
                    // gatherTry sweep (actions 2 ..= m+1): m − 1 cached
                    // reads, one merge charge per cached announcement, TRY
                    // untouched.
                    self.local_ops += self.gt_nonzero as u64;
                    // gatherDone sweep (actions m+2 ..= 2m+1): every watched
                    // frontier provably still 0.
                    mem.note_reads(m - 1 + self.gd_open as u64);
                    // Both sweeps completed within one foreign-write-free
                    // window; re-publish the (unchanged) stamps.
                    let now = self.others_epoch(mem);
                    self.gt_stamp = Some(now);
                    self.gd_stamp = Some(now);
                    self.gt_sweep_start = None;
                    self.gd_sweep_start = None;
                    // check (action 2m+2) — passes, see above; the `DONE`
                    // membership probe still runs (it is part of the
                    // measured work, and provably returns false).
                    self.local_ops += 1;
                    let done_hit = self.has_done(self.next_job);
                    debug_assert!(!done_hit, "fused-cycle candidate already performed");
                    debug_assert!(
                        self.try_set.binary_search(&self.next_job).is_err(),
                        "fused-cycle candidate inside TRY"
                    );
                    // do (action 2m+3).
                    self.performs += 1;
                    let span = self.span_map.span(self.next_job);
                    performed.push((steps + 2 * m + 2, span));
                    // doneWrite (action 2m+4).
                    let pos_p = self.pos[self.pid - 1];
                    mem.write(self.layout.done_cell(self.pid, pos_p), self.next_job);
                    self.my_writes += 1;
                    self.done_insert(self.next_job, self.pid);
                    self.pos[self.pid - 1] += 1;
                    steps += 2 * m + 4;
                    self.phase = KkPhase::CompNext;
                }
                KkPhase::GatherTry | KkPhase::FinalGatherTry => {
                    // Batched `gatherTry`: the whole sweep while its stamp
                    // holds, otherwise one announcement read (or a local
                    // self-skip) per action.
                    let terminal = self.phase == KkPhase::FinalGatherTry;
                    if self.epoch_cache {
                        self.note_try_sweep_start(mem);
                    }
                    let rem = (self.m - self.q + 1) as u64;
                    if budget - steps >= rem && self.stamp_holds(self.gt_stamp, mem) {
                        // Sweep-stamp fast path: nothing was written by any
                        // other process since this process's last completed
                        // sweep, so every remaining announcement provably
                        // still holds its cached value. The whole rest of
                        // the sweep collapses to its accounting: one action
                        // per `q`, one read per non-self `q`, one merge
                        // operation per cached non-zero announcement — O(1)
                        // via the maintained counters for the common
                        // full-sweep case.
                        let reads = if self.q == 1 {
                            self.local_ops += self.gt_nonzero as u64;
                            (self.m - 1) as u64
                        } else {
                            let mut r = 0u64;
                            for q in self.q..=self.m {
                                if q != self.pid {
                                    r += 1;
                                    if self.gt_vals[q - 1] > 0 {
                                        self.local_ops += 1;
                                    }
                                }
                            }
                            r
                        };
                        steps += rem;
                        mem.note_reads(reads);
                        self.finish_try_sweep(mem);
                        self.q = 1;
                        self.phase = if terminal {
                            KkPhase::FinalGatherDone
                        } else {
                            KkPhase::GatherDone
                        };
                    } else {
                        // Per-action path: the single-step body, once per
                        // action, until the sweep ends or the budget does.
                        // The `next` region is `m` hot cells; a tighter copy
                        // of the body showed no end-to-end effect (DESIGN.md
                        // ledger).
                        let phase = self.phase;
                        while steps < budget && self.phase == phase {
                            self.gather_try(mem, terminal);
                            steps += 1;
                        }
                    }
                }
                KkPhase::GatherDone | KkPhase::FinalGatherDone => {
                    // Batched `gatherDone`: walk the other processes' log
                    // rows, one read (or row/self skip) per action, with the
                    // reads accounted in bulk.
                    let terminal = self.phase == KkPhase::FinalGatherDone;
                    if self.epoch_cache {
                        self.note_done_sweep_start(mem);
                    }
                    let n = self.layout.n() as u64;
                    let rem = (self.m - self.q + 1) as u64;
                    if budget - steps >= rem && self.stamp_holds(self.gd_stamp, mem) {
                        // Sweep-stamp fast path: every watched log frontier
                        // was read as `0` within the last clean sweep and no
                        // process has written since, so the whole sweep is
                        // provably `rem` actions reading zeros — no log
                        // cell (cold, scattered at large `n`) is touched;
                        // O(1) via the open-row counter for the common
                        // full-sweep case.
                        let reads = if self.q == 1 {
                            self.gd_open as u64
                        } else {
                            let mut r = 0u64;
                            for q in self.q..=self.m {
                                if q != self.pid && self.pos[q - 1] <= n {
                                    r += 1;
                                }
                            }
                            r
                        };
                        steps += rem;
                        mem.note_reads(reads);
                        self.finish_done_sweep(mem);
                        self.q = 1;
                        self.phase = if terminal {
                            KkPhase::Output
                        } else {
                            KkPhase::Check
                        };
                    } else {
                        // Per-action path, action-for-action the cache-free
                        // loop: one read per log entry, and one action per
                        // row or self skip. A row's backlog is read in
                        // chunks bounded by the budget, the row's end and
                        // the buffer, with the cell index advanced by
                        // `done_stride`; each chunk goes to one merge
                        // (`merge_backlog`). This walk is the algorithm's
                        // Θ(n·m) term and dominates simulated wall-clock.
                        let stride = self.layout.done_stride();
                        let mut backlog = [0u64; LOG_CHUNK];
                        let mut reads = 0u64;
                        while steps < budget {
                            let q = self.q;
                            let pos_q = self.pos[q - 1];
                            if q == self.pid || pos_q > n {
                                self.q += 1;
                                steps += 1;
                            } else {
                                let mut cell = self.layout.done_cell(q, pos_q);
                                let mut pos = pos_q;
                                loop {
                                    let room =
                                        (budget - steps).min(n + 1 - pos).min(LOG_CHUNK as u64)
                                            as usize;
                                    let mut len = 0;
                                    while len < room {
                                        let v = mem.peek(cell);
                                        if v == 0 {
                                            break;
                                        }
                                        assert!(v <= n, "insert of {v} outside universe 1..={n}");
                                        backlog[len] = v;
                                        len += 1;
                                        cell += stride;
                                    }
                                    self.merge_backlog(&backlog[..len], q);
                                    reads += len as u64;
                                    steps += len as u64;
                                    pos += len as u64;
                                    if len < room {
                                        // The zero entry ends the row: its
                                        // read is one more action.
                                        reads += 1;
                                        steps += 1;
                                        self.q += 1;
                                        break;
                                    }
                                    // A freshly exhausted row is left for
                                    // the next pass: the `POS(q) > n` skip
                                    // is its own action, as in single-step.
                                    if steps >= budget || pos > n {
                                        break;
                                    }
                                }
                                if pos != pos_q {
                                    self.pos[q - 1] = pos;
                                    if pos > n {
                                        self.gd_open -= 1;
                                    }
                                }
                            }
                            if self.q > self.m {
                                if self.epoch_cache {
                                    self.finish_done_sweep(mem);
                                }
                                self.q = 1;
                                self.phase = if terminal {
                                    KkPhase::Output
                                } else {
                                    KkPhase::Check
                                };
                                break;
                            }
                        }
                        mem.note_reads(reads);
                    }
                }
                _ => {
                    let event = self.step_one(mem);
                    steps += 1;
                    match event {
                        StepEvent::Perform { span } => performed.push((steps - 1, span)),
                        StepEvent::Terminated => {
                            return BatchOutcome {
                                steps,
                                performed,
                                terminated: true,
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
        BatchOutcome {
            steps,
            performed,
            terminated: false,
        }
    }
}

impl<R: Registers + ?Sized, S: OrderedJobSet> Process<R> for KkProcess<S> {
    fn step(&mut self, mem: &R) -> StepEvent {
        self.step_one(mem)
    }

    /// Macro-stepping fast path (see the [`Process::step_many`] contract).
    fn step_many(&mut self, mem: &R, budget: u64) -> BatchOutcome {
        self.step_batch(mem, budget)
    }

    fn pid(&self) -> usize {
        self.pid
    }

    fn is_terminated(&self) -> bool {
        KkProcess::is_terminated(self)
    }

    fn local_work(&self) -> u64 {
        KkProcess::local_work(self)
    }
}

/// The scenario-layer registry entry for KKβ: resolves the three
/// paper-specific adversaries by name (`"stuck-announcement"`, `"staleness"`
/// and `"lockstep"`, which double as report labels) and wires the
/// announcement-epoch cache and collision instrumentation into the generic
/// driver's hooks. Works for every order-statistics backend, since the
/// adversaries only inspect backend-agnostic automaton state — and for
/// every *register* backend, since the hooks carry no `Process<R>` bounds
/// (the generic `Process` impl above covers any `R: Registers`).
impl<S: OrderedJobSet> amo_sim::ScenarioHooks for KkProcess<S> {
    fn adversary(name: &str) -> Option<Box<dyn amo_sim::Scheduler<Self>>> {
        match name {
            "stuck-announcement" => {
                Some(Box::new(crate::adversary::StuckAnnouncementAdversary::new()))
            }
            "staleness" => Some(Box::new(crate::adversary::StalenessAdversary::new())),
            _ => crate::adversary::generic_adversary(name),
        }
    }

    fn set_epoch_cache(&mut self, enabled: bool) {
        KkProcess::set_epoch_cache(self, enabled);
    }

    fn set_collision_tracking(&mut self, enabled: bool) {
        KkProcess::set_collision_tracking(self, enabled);
    }
}

// Equality and hashing cover the *semantic* state (everything the automaton's
// future behaviour depends on) and exclude instrumentation counters, so the
// exhaustive explorer merges states that differ only in bookkeeping.
// `gt_vals`/`gt_dirty` are semantic when the epoch cache is on (they feed the
// sweep-end `TRY` rebuild); with the cache off they are frozen at their
// initial values, so including them never splits cache-free states. The
// remaining cache fields (the sweep stamps and counters, `my_writes`) are
// pure memoisation — a skipped sweep reads exactly what a re-read would —
// and stay excluded; so is `sel_hint`, since hinted and unhinted selection walks
// return identical elements. A derived `DONE` (`done_set == None`) is
// `J \ FREE`, so comparing `FREE` partitions states exactly as comparing
// both sets did.
impl<S: OrderedJobSet> PartialEq for KkProcess<S> {
    fn eq(&self, other: &Self) -> bool {
        self.pid == other.pid
            && self.m == other.m
            && self.beta == other.beta
            && self.mode == other.mode
            && self.pick_rule == other.pick_rule
            && self.phase == other.phase
            && self.next_job == other.next_job
            && self.q == other.q
            && self.try_set == other.try_set
            && self.pos == other.pos
            && self.gt_vals == other.gt_vals
            && self.gt_dirty == other.gt_dirty
            && self.free == other.free
            && self.done_set == other.done_set
            && self.output == other.output
    }
}

impl<S: OrderedJobSet> Eq for KkProcess<S> {}

impl<S: OrderedJobSet> Hash for KkProcess<S> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.pid.hash(state);
        self.pick_rule.hash(state);
        self.phase.hash(state);
        self.next_job.hash(state);
        self.q.hash(state);
        self.try_set.hash(state);
        self.pos.hash(state);
        self.gt_vals.hash(state);
        self.gt_dirty.hash(state);
        self.free.hash(state);
        self.done_set.hash(state);
        self.output.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_sim::VecRegisters;

    fn single(n: usize) -> (KkProcess, VecRegisters) {
        let config = KkConfig::new(n, 1).unwrap();
        let layout = KkLayout::contiguous(1, n, false);
        let mem = VecRegisters::new(layout.cells());
        (KkProcess::from_config(1, &config, layout), mem)
    }

    fn drive(p: &mut KkProcess, mem: &VecRegisters) -> Vec<JobSpan> {
        let mut performed = Vec::new();
        let mut guard = 0;
        while !p.is_terminated() {
            if let StepEvent::Perform { span } = p.step(mem) {
                performed.push(span);
            }
            guard += 1;
            assert!(guard < 1_000_000, "automaton did not terminate");
        }
        performed
    }

    #[test]
    fn initial_state_matches_figure_1() {
        let (p, _) = single(5);
        assert_eq!(p.phase(), KkPhase::CompNext);
        assert_eq!(p.free_len(), 5, "FREE = J");
        assert_eq!(p.done_len(), 0, "DONE = ∅");
        assert_eq!(p.current_job(), None, "NEXT undefined");
        assert_eq!(p.performs(), 0);
    }

    #[test]
    fn lone_process_with_beta_1_performs_everything() {
        let (mut p, mem) = single(6);
        let performed = drive(&mut p, &mem);
        let mut jobs: Vec<u64> = performed.iter().map(|s| s.lo).collect();
        jobs.sort_unstable();
        assert_eq!(jobs, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(p.performs(), 6);
    }

    #[test]
    fn lone_process_terminates_with_beta_jobs_left() {
        let config = KkConfig::with_beta(10, 1, 4).unwrap();
        let layout = KkLayout::contiguous(1, 10, false);
        let mem = VecRegisters::new(layout.cells());
        let mut p: KkProcess = KkProcess::from_config(1, &config, layout);
        let performed = drive(&mut p, &mem);
        // Terminates when |FREE| < β = 4, i.e. after n − β + 1 = 7 jobs.
        assert_eq!(performed.len(), 7);
        assert_eq!(p.free_len(), 3);
    }

    #[test]
    fn announcement_goes_through_shared_memory() {
        let (mut p, mem) = single(5);
        p.step(&mem); // compNext
        assert_eq!(p.phase(), KkPhase::SetNext);
        let job = p.current_job().expect("candidate chosen");
        p.step(&mem); // setNext
        assert_eq!(mem.snapshot()[0], job, "next_1 holds the announcement");
        assert!(p.has_announced());
    }

    #[test]
    fn rank_split_puts_processes_in_disjoint_intervals() {
        // With m = 4, n = 100: process p picks rank ⌊(p−1)·97/4⌋ + 1 of FREE.
        let m = 4;
        let n = 100;
        let layout = KkLayout::contiguous(m, n, false);
        let mut picks = Vec::new();
        for pid in 1..=m {
            let config = KkConfig::new(n, m).unwrap();
            let mem = VecRegisters::new(layout.cells());
            let mut p: KkProcess = KkProcess::from_config(pid, &config, layout);
            p.step(&mem); // compNext only
            picks.push(p.current_job().unwrap());
        }
        let num = (n - (m - 1)) as u64;
        let want: Vec<u64> = (1..=m as u64)
            .map(|p| (p - 1) * num / m as u64 + 1)
            .collect();
        assert_eq!(picks, want);
        let mut dedup = picks.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), m, "distinct first picks");
    }

    #[test]
    fn gather_try_collects_announcements() {
        let m = 3;
        let n = 9;
        let config = KkConfig::new(n, m).unwrap();
        let layout = KkLayout::contiguous(m, n, false);
        let mem = VecRegisters::new(layout.cells());
        // Others announced jobs 4 and 7.
        mem.write(layout.next_cell(2), 4);
        mem.write(layout.next_cell(3), 7);
        let mut p: KkProcess = KkProcess::from_config(1, &config, layout);
        p.step(&mem); // compNext
        p.step(&mem); // setNext
        assert_eq!(p.phase(), KkPhase::GatherTry);
        for _ in 0..m {
            p.step(&mem);
        }
        assert_eq!(p.phase(), KkPhase::GatherDone);
        assert_eq!(p.try_set, vec![4, 7]);
    }

    #[test]
    fn gather_done_walks_rows_and_updates_free() {
        let m = 2;
        let n = 8;
        let config = KkConfig::new(n, m).unwrap();
        let layout = KkLayout::contiguous(m, n, false);
        let mem = VecRegisters::new(layout.cells());
        // Process 2 has logged jobs 5 and 6.
        mem.write(layout.done_cell(2, 1), 5);
        mem.write(layout.done_cell(2, 2), 6);
        let mut p: KkProcess = KkProcess::from_config(1, &config, layout);
        p.step(&mem); // compNext
        p.step(&mem); // setNext
        p.step(&mem); // gatherTry q=1 (self)
        p.step(&mem); // gatherTry q=2
        assert_eq!(p.phase(), KkPhase::GatherDone);
        // gatherDone: q=1 self-skip, then row 2: read 5, read 6, read 0.
        for _ in 0..4 {
            p.step(&mem);
        }
        assert_eq!(p.phase(), KkPhase::Check);
        assert_eq!(p.done_len(), 2);
        assert_eq!(p.free_len(), n - 2);
        assert!(!p.free_contains(5) && !p.free_contains(6));
    }

    #[test]
    fn check_fails_on_announced_job_and_recomputes() {
        let m = 2;
        let n = 8;
        let config = KkConfig::new(n, m).unwrap();
        let layout = KkLayout::contiguous(m, n, false);
        let mem = VecRegisters::new(layout.cells());
        let mut p: KkProcess = KkProcess::from_config(1, &config, layout);
        p.step(&mem); // compNext → picks job 1 (p = 1)
        let first = p.current_job().unwrap();
        // Process 2 announces the same job before p gathers.
        mem.write(layout.next_cell(2), first);
        p.step(&mem); // setNext
        p.step(&mem); // gatherTry self
        p.step(&mem); // gatherTry q=2 → TRY = {first}
        p.step(&mem); // gatherDone self
        p.step(&mem); // gatherDone q=2 → empty row
        assert_eq!(p.phase(), KkPhase::Check);
        p.step(&mem); // check fails
        assert_eq!(p.phase(), KkPhase::CompNext);
        p.step(&mem); // compNext picks a different job
        assert_ne!(p.current_job().unwrap(), first);
        assert_eq!(p.performs(), 0, "nothing performed on a collision");
    }

    #[test]
    fn done_write_appends_to_own_row() {
        let (mut p, mem) = single(3);
        // compNext, setNext, gatherTry(self), gatherDone(self), check, do, done
        for _ in 0..7 {
            p.step(&mem);
        }
        let layout = KkLayout::contiguous(1, 3, false);
        let row0 = mem.snapshot()[layout.done_cell(1, 1)];
        assert_eq!(row0, 1, "first performed job logged at POS 1");
        assert_eq!(p.performs(), 1);
    }

    #[test]
    fn collision_tracking_attributes_to_source() {
        let m = 2;
        let n = 8;
        let config = KkConfig::new(n, m).unwrap();
        let layout = KkLayout::contiguous(m, n, false);
        let mem = VecRegisters::new(layout.cells());
        let mut p: KkProcess = KkProcess::from_config(1, &config, layout).with_collision_tracking();
        p.step(&mem);
        let first = p.current_job().unwrap();
        mem.write(layout.next_cell(2), first);
        for _ in 0..6 {
            p.step(&mem);
        }
        assert_eq!(p.collisions_with()[1], 1, "collision attributed to pid 2");
        assert_eq!(p.collisions_with()[0], 0);
    }

    #[test]
    #[should_panic(expected = "requires a flag cell")]
    fn iter_step_requires_flag_cell() {
        let layout = KkLayout::contiguous(1, 4, false);
        let free = FenwickSet::with_all(4);
        let _ = KkProcess::new(
            1,
            1,
            1,
            layout,
            free,
            KkMode::IterStep { output_free: false },
            SpanMap::Identity,
        );
    }

    #[test]
    fn iter_step_terminates_with_output_and_sets_flag() {
        let n = 10;
        let layout = KkLayout::contiguous(1, n, true);
        let mem = VecRegisters::new(layout.cells());
        let free = FenwickSet::with_all(n);
        // β = 4: stops once fewer than 4 candidates remain.
        let mut p = KkProcess::new(
            1,
            1,
            4,
            layout,
            free,
            KkMode::IterStep { output_free: false },
            SpanMap::Identity,
        );
        let mut performed = 0;
        while !p.is_terminated() {
            if let StepEvent::Perform { .. } = Process::<VecRegisters>::step(&mut p, &mem) {
                performed += 1;
            }
        }
        assert_eq!(performed, n - 4 + 1);
        assert_eq!(
            mem.snapshot()[layout.flag_cell().unwrap()],
            1,
            "flag raised"
        );
        let out = p.output().expect("output available");
        assert_eq!(out.len(), 3, "the 3 unperformed jobs are handed on");
    }

    #[test]
    fn iter_step_aborts_do_when_flag_already_set() {
        let n = 10;
        let layout = KkLayout::contiguous(1, n, true);
        let mem = VecRegisters::new(layout.cells());
        mem.write(layout.flag_cell().unwrap(), 1); // flag pre-set by "someone"
        let free = FenwickSet::with_all(n);
        let mut p = KkProcess::new(
            1,
            1,
            4,
            layout,
            free,
            KkMode::IterStep { output_free: false },
            SpanMap::Identity,
        );
        let mut performed = 0;
        while !p.is_terminated() {
            if let StepEvent::Perform { .. } = Process::<VecRegisters>::step(&mut p, &mem) {
                performed += 1;
            }
        }
        assert_eq!(performed, 0, "flag read before every do");
        assert_eq!(p.output().unwrap().len(), n, "everything handed on");
    }

    #[test]
    fn wa_variant_outputs_free_including_try() {
        let n = 10;
        let m = 2;
        let layout = KkLayout::contiguous(m, n, true);
        let mem = VecRegisters::new(layout.cells());
        mem.write(layout.flag_cell().unwrap(), 1);
        // Process 2 announces job 3, so 3 lands in TRY of process 1.
        mem.write(layout.next_cell(2), 3);
        let free = FenwickSet::with_all(n);
        let mut p = KkProcess::new(
            1,
            m,
            m as u64,
            layout,
            free,
            KkMode::IterStep { output_free: true },
            SpanMap::Identity,
        );
        while !p.is_terminated() {
            Process::<VecRegisters>::step(&mut p, &mem);
        }
        assert_eq!(p.output().unwrap().len(), n, "WA output keeps TRY jobs");
    }

    #[test]
    fn blocks_span_map() {
        let map = SpanMap::Blocks {
            size: 4,
            total_jobs: 10,
        };
        assert_eq!(map.span(1), JobSpan::new(1, 4));
        assert_eq!(map.span(2), JobSpan::new(5, 8));
        assert_eq!(map.span(3), JobSpan::new(9, 10), "last block is clipped");
    }

    #[test]
    fn invariants_hold_at_every_step_of_an_execution() {
        let m = 3;
        let n = 24;
        let config = KkConfig::new(n, m).unwrap();
        let layout = KkLayout::contiguous(m, n, false);
        let mem = VecRegisters::new(layout.cells());
        let mut fleet: Vec<KkProcess> = (1..=m)
            .map(|p| KkProcess::from_config(p, &config, layout))
            .collect();
        let mut rr = 0usize;
        let mut guard = 0;
        while fleet.iter().any(|p| !p.is_terminated()) {
            rr = (rr + 1) % m;
            if fleet[rr].is_terminated() {
                continue;
            }
            fleet[rr].step(&mem);
            fleet[rr].check_invariants().expect("invariant");
            guard += 1;
            assert!(guard < 1_000_000);
        }
    }

    #[test]
    fn invariants_hold_in_iter_mode() {
        let n = 16;
        let layout = KkLayout::contiguous(1, n, true);
        let mem = VecRegisters::new(layout.cells());
        let mut p = KkProcess::new(
            1,
            1,
            3,
            layout,
            FenwickSet::with_all(n),
            KkMode::IterStep { output_free: false },
            SpanMap::Identity,
        );
        while !p.is_terminated() {
            Process::<VecRegisters>::step(&mut p, &mem);
            p.check_invariants().expect("invariant");
        }
        p.check_invariants().expect("terminal invariant");
    }

    /// A process over `1..=8` with initial `FREE = {1..=6}`: `DONE` stays
    /// physical.
    fn partial_free(m: usize, pid: usize) -> (KkProcess, VecRegisters) {
        let layout = KkLayout::contiguous(m, 8, true);
        let mem = VecRegisters::new(layout.cells());
        let p = KkProcess::new(
            pid,
            m,
            m as u64,
            layout,
            FenwickSet::with_members(8, 1..=6),
            KkMode::IterStep { output_free: false },
            SpanMap::Identity,
        );
        (p, mem)
    }

    #[test]
    fn done_is_physical_only_below_a_full_universe() {
        let (plain, _) = single(5);
        assert!(plain.done_set.is_none(), "plain KKβ allocates no DONE set");
        let (partial, _) = partial_free(1, 1);
        assert!(partial.done_set.is_some());
        assert_eq!(partial.done_len(), 0);
        assert!(!partial.has_done(7), "outside FREE₀ is not DONE");
    }

    #[test]
    fn derived_done_answers_from_free() {
        let (mut p, mem) = single(6);
        drive(&mut p, &mem);
        assert_eq!(p.done_len(), 6);
        assert!((1..=6).all(|j| p.has_done(j)));
        assert!(!p.has_done(0) && !p.has_done(7), "outside the universe");
    }

    #[test]
    fn check_invariants_rejects_each_corruption() {
        let m = 3;
        let (mut p, mem) = partial_free(m, 1);
        drive_to_phase(&mut p, &mem, KkPhase::Check);
        p.check_invariants().expect("valid state");
        // Each corruption with the report it must produce.
        type Corrupt = fn(&mut KkProcess);
        let corruptions: [(&str, Corrupt); 5] = [
            ("TRY not strictly sorted", |p| p.try_set = vec![5, 3]),
            ("POS(2) = 0", |p| p.pos[1] = 0),
            ("Q = 4", |p| p.q = p.m + 1),
            ("NEXT = 0 undefined in phase Check", |p| p.next_job = 0),
            ("in both FREE and DONE", |p| {
                let job = p.free.select(1).expect("FREE nonempty");
                p.done_set.as_mut().expect("physical DONE").insert(job);
            }),
        ];
        for (want, corrupt) in corruptions {
            let mut bad = p.clone();
            corrupt(&mut bad);
            let err = bad.check_invariants().expect_err(want);
            assert!(err.contains(want), "{want:?} reported as {err:?}");
        }
    }

    fn drive_to_phase(p: &mut KkProcess, mem: &VecRegisters, phase: KkPhase) {
        let mut guard = 0;
        while p.phase() != phase {
            p.step(mem);
            guard += 1;
            assert!(guard < 1_000, "never reached {phase:?}");
        }
    }

    /// The single-step path labels a gather read cached exactly while the
    /// phase's last sweep stamp holds. One foreign write anywhere ends the
    /// stamp, so the read of an announcement that did not change is a plain
    /// `Read` again.
    #[test]
    fn cached_read_label_follows_the_sweep_stamp() {
        let (m, n) = (3, 12);
        let config = KkConfig::new(n, m).unwrap();
        let layout = KkLayout::contiguous(m, n, false);
        let mem = VecRegisters::new(layout.cells());
        let mut p: KkProcess = KkProcess::from_config(1, &config, layout).with_epoch_cache(true);
        let sweep =
            |p: &mut KkProcess| -> Vec<StepEvent> { (0..m).map(|_| p.step(&mem)).collect() };
        let (next_2, next_3) = (layout.next_cell(2), layout.next_cell(3));

        // The first cycle publishes the stamps; nothing is cached before.
        drive_to_phase(&mut p, &mem, KkPhase::GatherTry);
        let first = sweep(&mut p);
        assert_eq!(
            first[1..],
            [
                StepEvent::Read { cell: next_2 },
                StepEvent::Read { cell: next_3 }
            ]
        );
        drive_to_phase(&mut p, &mem, KkPhase::CompNext);

        // A clean cycle later both sweeps are the ones `step_many` skips.
        drive_to_phase(&mut p, &mem, KkPhase::GatherTry);
        let cached = sweep(&mut p);
        assert_eq!(
            cached,
            [
                StepEvent::Local,
                StepEvent::CachedRead { cell: next_2 },
                StepEvent::CachedRead { cell: next_3 },
            ]
        );
        let done = sweep(&mut p);
        assert_eq!(
            done[1..],
            [
                StepEvent::CachedRead {
                    cell: layout.done_cell(2, 1)
                },
                StepEvent::CachedRead {
                    cell: layout.done_cell(3, 1)
                },
            ]
        );
        drive_to_phase(&mut p, &mem, KkPhase::CompNext);

        // Process 2 announces mid-sweep: both remaining reads are real.
        drive_to_phase(&mut p, &mem, KkPhase::GatherTry);
        assert_eq!(p.step(&mem), StepEvent::Local);
        mem.write(next_2, 5);
        assert_eq!(p.step(&mem), StepEvent::Read { cell: next_2 });
        assert_eq!(
            p.step(&mem),
            StepEvent::Read { cell: next_3 },
            "next_3 did not change, but the stamp no longer holds"
        );
        assert_eq!(p.try_set, vec![5]);
    }

    #[test]
    fn semantic_equality_ignores_instrumentation() {
        let (a, mem) = single(4);
        let mut b = a.clone().with_collision_tracking();
        let mut a = a;
        a.step(&mem);
        b.step(&mem);
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        let h = |p: &KkProcess| {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(&a), h(&b));
    }

    impl KkProcess {
        fn free_contains(&self, id: u64) -> bool {
            self.free.contains(id)
        }
    }
}
