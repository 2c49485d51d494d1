//! `FlushLint`: a dynamic checker for persistence-instruction placement.
//!
//! The paper's methodology treats every `pwb` code line as a cost knob —
//! misplaced flushes are either wasted work (flushing a line that is
//! already clean) or missing durability (a store whose line is never
//! written back, which a crash under [`crate::PessimistAdversary`] loses).
//! The lint tracks, per cache line, the same three-way distinction the
//! shadow crash model resolves at crash time — *dirty* (stored since the
//! last covering `pwb`), *flushed* (written back, awaiting a fence) and
//! *clean* (committed by `pfence`/`psync`) — and flags:
//!
//! * **redundant `pwb`s**: a flush of a line the lint positively knows is
//!   clean (double flush, or re-flush after a fence with no intervening
//!   store). Lines the lint has never seen are *not* flagged — without a
//!   prior event there is no evidence the flush is wasted.
//! * **unflushed dirty lines**: lines still dirty when a report is taken or
//!   when a simulated crash resolves — exactly the writes a
//!   [`crate::PessimistAdversary`] crash would surface as lost — reported
//!   with the originating store's site, thread and sequence number.
//! * **fence-ordering violations**: a successful CAS that publishes a
//!   pointer to a line that was stored but not `pwb`'d-and-fenced before
//!   the CAS. Under explicit epoch persistency the published pointer can
//!   become durable while the pointee's content is lost; the paper's
//!   algorithms all `pbarrier` new nodes and descriptors before publishing
//!   them, and this check catches code that forgets to.
//!
//! ## Lock-free hot path
//!
//! The line-state machine lives in a direct-mapped table: one packed
//! atomic *meta* word per pool cache line (status, attributed store
//! site/thread, flush epoch) plus one atomic word for the attributed
//! store's sequence number. `nlines` is fixed at pool creation, the table
//! is lazily zero-mapped, and every transition is a CAS on the line's meta
//! word — `on_write`/`on_pwb` take no lock. Fences are O(1): instead of
//! draining a flushed-lines worklist, `on_fence` bumps a global *fence
//! epoch*, and a line whose stored status is `Flushed` reads as `Clean`
//! once the epoch has moved past the one recorded by its `pwb`. The only
//! lock left is a cold-path journal of first-touched lines (so reports,
//! exports and crash resolution iterate touched lines without scanning the
//! whole table) and the diagnostics list itself.
//!
//! With the `observer-heavy` feature the lint additionally self-validates
//! each transition's post-state (see `FlushLint`); the default build
//! records the exact same diagnostics without the per-event deep checks.
//!
//! The lint is event-driven and needs no shadow memory, so it works in
//! both Model and Perf pools; enable it via [`crate::PoolCfg::lint`] or
//! [`crate::PmemPool::set_lint_enabled`] and pull findings with
//! [`crate::PmemPool::lint_report`]:
//!
//! ```
//! use pmem::{LintKind, PmemPool, PoolCfg, SiteId};
//! let pool = PmemPool::new(PoolCfg { lint: true, ..PoolCfg::model(1 << 20) });
//! let a = pool.alloc_lines(1);
//! pool.store_at(a, 1, SiteId(4));
//! pool.pwb(a, SiteId(4)); // pays for new persistence: fine
//! pool.pwb(a, SiteId(9)); // re-flushes a line it knows is clean: flagged
//! pool.psync();
//! let report = pool.lint_report();
//! assert!(!report.is_clean());
//! assert_eq!(report.count(LintKind::RedundantPwb), 1);
//! assert_eq!(report.of_kind(LintKind::RedundantPwb).next().unwrap().site, 9);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::persist::{SiteId, MAX_SITES};
use crate::trace::NO_SITE;

/// The kind of a lint finding.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LintKind {
    /// A `pwb` of a line known to be clean: wasted flush traffic.
    RedundantPwb,
    /// A line still dirty at report/crash time: its stores are lost by a
    /// pessimist crash.
    UnflushedDirty,
    /// A successful CAS published a pointer to a line whose latest store
    /// was not flushed and fenced first.
    UnfencedPublish,
}

impl LintKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            LintKind::RedundantPwb => "redundant-pwb",
            LintKind::UnflushedDirty => "unflushed-dirty",
            LintKind::UnfencedPublish => "unfenced-publish",
        }
    }
}

/// One lint finding.
#[derive(Copy, Clone, Debug)]
pub struct Diagnostic {
    /// What was found.
    pub kind: LintKind,
    /// The cache line concerned.
    pub line: usize,
    /// The attributed call site: the `pwb`'s site for
    /// [`LintKind::RedundantPwb`], the originating *store*'s site for
    /// [`LintKind::UnflushedDirty`] and [`LintKind::UnfencedPublish`]
    /// ([`NO_SITE`] when the store was issued without attribution).
    pub site: u8,
    /// Trace index of the thread that triggered the finding.
    pub tid: usize,
    /// Global event sequence number at detection time.
    pub seq: u64,
}

/// A pulled copy of the lint's findings and per-site flush counters.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Findings, ascending by [`Diagnostic::seq`]. Includes one
    /// [`LintKind::UnflushedDirty`] entry per line still dirty when the
    /// report was taken.
    pub diags: Vec<Diagnostic>,
    /// Per-site count of `pwb`s that wrote back a dirty line (useful work).
    pub pwb_dirty: [u64; MAX_SITES],
    /// Per-site count of redundant `pwb`s (line known clean).
    pub pwb_redundant: [u64; MAX_SITES],
    /// Per-site count of `pwb`s of lines the lint had no history for.
    pub pwb_unknown: [u64; MAX_SITES],
}

impl LintReport {
    /// No findings at all?
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// Number of findings of `kind`.
    pub fn count(&self, kind: LintKind) -> usize {
        self.diags.iter().filter(|d| d.kind == kind).count()
    }

    /// Findings of `kind`.
    pub fn of_kind(&self, kind: LintKind) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(move |d| d.kind == kind)
    }

    /// Fraction of `pwb`s at `site` that flushed a dirty line, among those
    /// whose line state was known (1.0 when none were known — no evidence
    /// of waste).
    pub fn dirty_ratio(&self, site: SiteId) -> f64 {
        let i = site.0 as usize;
        let known = self.pwb_dirty[i] + self.pwb_redundant[i];
        if known == 0 {
            1.0
        } else {
            self.pwb_dirty[i] as f64 / known as f64
        }
    }

    /// Human-readable rendering; `name_of` maps sites to registered names
    /// (see [`crate::PmemPool::site_name`]).
    pub fn render(&self, name_of: impl Fn(u8) -> Option<&'static str>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.diags.is_empty() {
            out.push_str("flush-lint: clean\n");
            return out;
        }
        for d in &self.diags {
            let site = match (d.site, name_of(d.site)) {
                (NO_SITE, _) => "<unattributed>".to_string(),
                (id, Some(name)) => format!("site {id} ({name})"),
                (id, None) => format!("site {id}"),
            };
            let _ = writeln!(
                out,
                "flush-lint: {:<16} line {:<6} {} [tid {} seq {}]",
                d.kind.label(),
                d.line,
                site,
                d.tid,
                d.seq
            );
        }
        out
    }
}

/// Line states the lint distinguishes (status `0` in the packed meta word
/// = never seen).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Status {
    /// Stored since the last covering `pwb`; lost by a pessimist crash.
    Dirty,
    /// Written back; durable only after the next fence.
    Flushed,
    /// Written back and fenced; a further `pwb` without a store is wasted.
    Clean,
}

#[derive(Copy, Clone, Debug)]
pub(crate) struct LineState {
    status: Status,
    /// Originating store of the latest dirty epoch (first store since the
    /// line was last clean), for attribution.
    store_site: u8,
    store_tid: usize,
    store_seq: u64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    // Poison-tolerant: injected CrashPoint panics unwind through callers
    // while no lint lock is held, but a foreign panic must not wedge the
    // checker.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

// ---- packed meta word ----------------------------------------------------
// bits 0..2   status (0 = untracked, 1 = Dirty, 2 = Flushed, 3 = Clean)
// bits 2..10  attributed store site
// bits 10..32 attributed store tid (saturating)
// bits 32..64 fence epoch recorded by the covering pwb (Flushed only)

const ST_UNTRACKED: u64 = 0;
const ST_DIRTY: u64 = 1;
const ST_FLUSHED: u64 = 2;
const ST_CLEAN: u64 = 3;

const TID_BITS: u64 = 22;
const TID_MAX: u64 = (1 << TID_BITS) - 1;
const EPOCH_MASK: u64 = 0xffff_ffff;

fn pack_meta(status: u64, site: u8, tid: usize, epoch: u64) -> u64 {
    status | (site as u64) << 2 | (tid as u64).min(TID_MAX) << 10 | (epoch & EPOCH_MASK) << 32
}

fn meta_status(m: u64) -> u64 {
    m & 0x3
}

fn meta_site(m: u64) -> u8 {
    ((m >> 2) & 0xff) as u8
}

fn meta_tid(m: u64) -> usize {
    ((m >> 10) & TID_MAX) as usize
}

fn meta_epoch(m: u64) -> u64 {
    m >> 32
}

/// The status a meta word reads as under the current fence epoch: a
/// `Flushed` line whose recorded epoch the global counter has moved past
/// was committed by that fence — it is effectively `Clean`.
fn eff_status(m: u64, epoch: u64) -> u64 {
    let st = meta_status(m);
    if st == ST_FLUSHED && meta_epoch(m) != (epoch & EPOCH_MASK) {
        ST_CLEAN
    } else {
        st
    }
}

/// The live checker owned by a pool (see module docs).
pub(crate) struct FlushLint {
    enabled: AtomicBool,
    /// Packed per-line state (see the bit layout above); index = cache
    /// line. Lazily zero-mapped, so an untouched multi-GiB pool costs
    /// nothing.
    meta: Box<[AtomicU64]>,
    /// Per-line attributed store sequence number (word `line`).
    store_seq: Box<[AtomicU64]>,
    /// Global fence counter; bumped by `on_fence` (the O(1) replacement
    /// for the old flushed-lines worklist drain).
    fence_epoch: AtomicU64,
    /// Every line ever touched since the last reset, in first-touch order
    /// (cold path: pushed once per line). Reports, exports and crash
    /// resolution iterate this instead of scanning the table.
    journal: Mutex<Vec<usize>>,
    diags: Mutex<Vec<Diagnostic>>,
    pwb_dirty: [AtomicU64; MAX_SITES],
    pwb_redundant: [AtomicU64; MAX_SITES],
    pwb_unknown: [AtomicU64; MAX_SITES],
}

impl FlushLint {
    pub(crate) fn new(enabled: bool, nlines: usize) -> Self {
        FlushLint {
            enabled: AtomicBool::new(enabled),
            meta: crate::pool::alloc_zeroed_atomics(nlines),
            store_seq: crate::pool::alloc_zeroed_atomics(nlines),
            fence_epoch: AtomicU64::new(0),
            journal: Mutex::new(Vec::new()),
            diags: Mutex::new(Vec::new()),
            pwb_dirty: std::array::from_fn(|_| AtomicU64::new(0)),
            pwb_redundant: std::array::from_fn(|_| AtomicU64::new(0)),
            pwb_unknown: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub(crate) fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    /// `observer-heavy` deep check: the transition's post-state must read
    /// back as intended under the current fence epoch, and any tracked
    /// line must be journaled exactly once. Costs a journal scan per event
    /// — the price of the heavy tier; compiled out by default.
    #[cfg(feature = "observer-heavy")]
    fn deep_check(&self, line: usize, want_status: u64) {
        let m = self.meta[line].load(Ordering::SeqCst);
        let eff = eff_status(m, self.fence_epoch.load(Ordering::SeqCst));
        // A racing writer may legitimately have moved the line onward (CAS
        // publication is linearizable, not sticky), so only same-state
        // self-reads are asserted: the transition we just CASed in must be
        // *a* reachable state, and a tracked line must be journaled.
        assert!(
            eff != ST_UNTRACKED,
            "observer-heavy: line {line} lost its tracking after a transition to {want_status}"
        );
        let journaled = lock(&self.journal).iter().filter(|&&l| l == line).count();
        assert_eq!(
            journaled, 1,
            "observer-heavy: line {line} journaled {journaled} times (want exactly 1)"
        );
    }

    #[cfg(not(feature = "observer-heavy"))]
    #[inline]
    fn deep_check(&self, _line: usize, _want_status: u64) {}

    /// Current dirty state of `line` (for trace events).
    #[inline]
    pub(crate) fn line_dirty(&self, line: usize) -> bool {
        match self.meta.get(line) {
            // No eff_status: the fence epoch only turns Flushed into Clean,
            // it never makes a line dirty — the raw status check saves the
            // epoch load on this per-load hot path.
            Some(m) => meta_status(m.load(Ordering::Relaxed)) == ST_DIRTY,
            None => false,
        }
    }

    /// First touch of `line`: adds it to the journal (runs at most once
    /// per line between resets — the CAS that tracked the line arbitrates).
    fn journal_push(&self, line: usize) {
        lock(&self.journal).push(line);
    }

    /// A store (or successful CAS) wrote `line`. Returns the dirty state
    /// after the event (always `true`).
    #[inline]
    pub(crate) fn on_write(&self, line: usize, site: u8, tid: usize, seq: u64) -> bool {
        let Some(m) = self.meta.get(line) else {
            return true;
        };
        let mut cur = m.load(Ordering::Relaxed);
        loop {
            // Raw status check first: Dirty is the common steady state and
            // needs no fence-epoch load (the epoch only affects Flushed).
            if meta_status(cur) == ST_DIRTY {
                // Same dirty epoch: the first store keeps the attribution,
                // and the table is bit-identical — nothing to publish.
                return true;
            }
            // A fresh dirty epoch: this store is the one a lost line would
            // be attributed to.
            let new = pack_meta(ST_DIRTY, site, tid, 0);
            match m.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(prev) => {
                    self.store_seq[line].store(seq, Ordering::Relaxed);
                    if meta_status(prev) == ST_UNTRACKED {
                        self.journal_push(line);
                    }
                    self.deep_check(line, ST_DIRTY);
                    return true;
                }
                Err(v) => cur = v,
            }
        }
    }

    /// A `pwb` of `line` was issued at `site`. Returns whether the line was
    /// dirty before the flush (a `false` marks the flush as redundant or of
    /// unknown use).
    pub(crate) fn on_pwb(&self, line: usize, site: SiteId, seq: u64) -> bool {
        let Some(m) = self.meta.get(line) else {
            return false;
        };
        let count = self.enabled();
        let mut cur = m.load(Ordering::Relaxed);
        loop {
            let epoch = self.fence_epoch.load(Ordering::Relaxed);
            match eff_status(cur, epoch) {
                ST_DIRTY => {
                    // Keep the store attribution; record the fence epoch so
                    // the next fence commits the line.
                    let new = pack_meta(ST_FLUSHED, meta_site(cur), meta_tid(cur), epoch);
                    match m.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
                        Ok(_) => {
                            if count {
                                self.pwb_dirty[site.idx()].fetch_add(1, Ordering::Relaxed);
                            }
                            self.deep_check(line, ST_FLUSHED);
                            return true;
                        }
                        Err(v) => cur = v,
                    }
                }
                ST_UNTRACKED => {
                    // Never seen: can't prove the flush wasted; start
                    // tracking.
                    // Off the hot path (a line is untracked at most once
                    // per crash interval), so resolving the thread id here
                    // keeps the common flush free of thread-local lookups.
                    let new = pack_meta(ST_FLUSHED, NO_SITE, crate::trace::trace_tid(), epoch);
                    match m.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Relaxed) {
                        Ok(_) => {
                            self.store_seq[line].store(seq, Ordering::Relaxed);
                            self.journal_push(line);
                            if count {
                                self.pwb_unknown[site.idx()].fetch_add(1, Ordering::Relaxed);
                            }
                            self.deep_check(line, ST_FLUSHED);
                            return false;
                        }
                        Err(v) => cur = v,
                    }
                }
                _ => {
                    // Flushed (double flush) or Clean (re-flush after a
                    // fence): the line's content is already on its way to
                    // persistence. No table change.
                    if count {
                        self.pwb_redundant[site.idx()].fetch_add(1, Ordering::Relaxed);
                        lock(&self.diags).push(Diagnostic {
                            kind: LintKind::RedundantPwb,
                            line,
                            site: site.0,
                            tid: crate::trace::trace_tid(),
                            seq,
                        });
                    }
                    return false;
                }
            }
        }
    }

    /// A `pfence`/`psync` completed: every flushed line is now committed.
    /// O(1) — bumping the fence epoch retires every recorded `Flushed`
    /// epoch at once (see [`eff_status`]).
    pub(crate) fn on_fence(&self) {
        self.fence_epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// A successful CAS stored `new` into some word; if `new` decodes to a
    /// pool pointer whose target line is not flushed-and-fenced, the CAS
    /// published unpersisted content. `target_line` is the decoded line
    /// (the pool validates the pointer shape before calling).
    pub(crate) fn on_publish(&self, target_line: usize, tid: usize, seq: u64) {
        if !self.enabled() {
            return;
        }
        let Some(m) = self.meta.get(target_line) else {
            return;
        };
        let cur = m.load(Ordering::Relaxed);
        let eff = eff_status(cur, self.fence_epoch.load(Ordering::Relaxed));
        if eff == ST_DIRTY || eff == ST_FLUSHED {
            lock(&self.diags).push(Diagnostic {
                kind: LintKind::UnfencedPublish,
                line: target_line,
                site: meta_site(cur),
                tid,
                seq,
            });
        }
    }

    /// A simulated crash resolved: every line still dirty is recorded as a
    /// permanent finding (the losses the adversary could surface), and all
    /// tracked state resets — post-crash, volatile and persisted views
    /// agree everywhere.
    pub(crate) fn on_crash(&self, seq: u64) {
        let epoch = self.fence_epoch.load(Ordering::Relaxed);
        let mut journal = lock(&self.journal);
        if self.enabled() {
            let mut dirty: Vec<usize> = journal
                .iter()
                .copied()
                .filter(|&l| eff_status(self.meta[l].load(Ordering::Relaxed), epoch) == ST_DIRTY)
                .collect();
            dirty.sort_unstable();
            let mut diags = lock(&self.diags);
            for line in dirty {
                let m = self.meta[line].load(Ordering::Relaxed);
                diags.push(Diagnostic {
                    kind: LintKind::UnflushedDirty,
                    line,
                    site: meta_site(m),
                    tid: meta_tid(m),
                    seq,
                });
            }
        }
        for &l in journal.iter() {
            self.meta[l].store(0, Ordering::Relaxed);
            self.store_seq[l].store(0, Ordering::Relaxed);
        }
        journal.clear();
    }

    /// Builds a report: recorded findings plus one ephemeral
    /// [`LintKind::UnflushedDirty`] entry per currently-dirty line.
    pub(crate) fn report(&self) -> LintReport {
        let mut diags = lock(&self.diags).clone();
        if self.enabled() {
            let epoch = self.fence_epoch.load(Ordering::Relaxed);
            let mut dirty: Vec<usize> = lock(&self.journal)
                .iter()
                .copied()
                .filter(|&l| eff_status(self.meta[l].load(Ordering::Relaxed), epoch) == ST_DIRTY)
                .collect();
            dirty.sort_unstable();
            for line in dirty {
                let m = self.meta[line].load(Ordering::Relaxed);
                diags.push(Diagnostic {
                    kind: LintKind::UnflushedDirty,
                    line,
                    site: meta_site(m),
                    tid: meta_tid(m),
                    seq: self.store_seq[line].load(Ordering::Relaxed),
                });
            }
        }
        LintReport {
            diags,
            pwb_dirty: std::array::from_fn(|i| self.pwb_dirty[i].load(Ordering::Relaxed)),
            pwb_redundant: std::array::from_fn(|i| self.pwb_redundant[i].load(Ordering::Relaxed)),
            pwb_unknown: std::array::from_fn(|i| self.pwb_unknown[i].load(Ordering::Relaxed)),
        }
    }

    /// Copies out the line-state machine, sorted for determinism. Statuses
    /// are materialized under the current fence epoch (a `Flushed` line an
    /// epoch has passed exports as `Clean`). Part of
    /// [`crate::PmemPool::snapshot`]: a replay from a restored checkpoint
    /// must compute the same per-event dirty annotations the original
    /// timeline did.
    pub(crate) fn export_state(&self) -> Vec<(usize, LineState)> {
        let epoch = self.fence_epoch.load(Ordering::Relaxed);
        let mut tracked: Vec<usize> = lock(&self.journal).clone();
        tracked.sort_unstable();
        let mut lines = Vec::with_capacity(tracked.len());
        for l in tracked {
            let m = self.meta[l].load(Ordering::Relaxed);
            let status = match eff_status(m, epoch) {
                ST_DIRTY => Status::Dirty,
                ST_FLUSHED => Status::Flushed,
                ST_CLEAN => Status::Clean,
                _ => continue, // reset raced the journal copy; skip
            };
            lines.push((
                l,
                LineState {
                    status,
                    store_site: meta_site(m),
                    store_tid: meta_tid(m),
                    store_seq: self.store_seq[l].load(Ordering::Relaxed),
                },
            ));
        }
        lines
    }

    /// Replaces the line-state machine with state captured by
    /// [`FlushLint::export_state`] (findings and counters are left to the
    /// caller — [`crate::PmemPool::restore`] clears them first).
    pub(crate) fn import_state(&self, lines: &[(usize, LineState)]) {
        let epoch = self.fence_epoch.load(Ordering::Relaxed);
        let mut journal = lock(&self.journal);
        for &l in journal.iter() {
            self.meta[l].store(0, Ordering::Relaxed);
            self.store_seq[l].store(0, Ordering::Relaxed);
        }
        journal.clear();
        for &(l, s) in lines {
            let (st, ep) = match s.status {
                Status::Dirty => (ST_DIRTY, 0),
                // Re-anchor to the *current* epoch: the next fence commits.
                Status::Flushed => (ST_FLUSHED, epoch),
                Status::Clean => (ST_CLEAN, 0),
            };
            self.meta[l].store(
                pack_meta(st, s.store_site, s.store_tid, ep),
                Ordering::Relaxed,
            );
            self.store_seq[l].store(s.store_seq, Ordering::Relaxed);
            journal.push(l);
        }
    }

    /// Forgets all findings, counters and line states.
    pub(crate) fn clear(&self) {
        let mut journal = lock(&self.journal);
        for &l in journal.iter() {
            self.meta[l].store(0, Ordering::Relaxed);
            self.store_seq[l].store(0, Ordering::Relaxed);
        }
        journal.clear();
        drop(journal);
        lock(&self.diags).clear();
        for i in 0..MAX_SITES {
            self.pwb_dirty[i].store(0, Ordering::Relaxed);
            self.pwb_redundant[i].store(0, Ordering::Relaxed);
            self.pwb_unknown[i].store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint() -> FlushLint {
        FlushLint::new(true, 64)
    }

    #[test]
    fn store_pwb_fence_cycle_is_clean() {
        let l = lint();
        l.on_write(5, 2, 0, 0);
        assert!(l.line_dirty(5));
        assert!(l.on_pwb(5, SiteId(2), 1), "flush of a dirty line is useful");
        assert!(!l.line_dirty(5));
        l.on_fence();
        let r = l.report();
        assert!(r.is_clean(), "{:?}", r.diags);
        assert_eq!(r.pwb_dirty[2], 1);
        assert_eq!(r.dirty_ratio(SiteId(2)), 1.0);
    }

    #[test]
    fn double_flush_is_redundant() {
        let l = lint();
        l.on_write(5, NO_SITE, 0, 0);
        l.on_pwb(5, SiteId(4), 1);
        assert!(!l.on_pwb(5, SiteId(4), 2), "second flush covers nothing");
        let r = l.report();
        assert_eq!(r.count(LintKind::RedundantPwb), 1);
        let d = r.of_kind(LintKind::RedundantPwb).next().unwrap();
        assert_eq!((d.line, d.site), (5, 4));
        assert_eq!(r.pwb_redundant[4], 1);
    }

    #[test]
    fn reflush_after_fence_is_redundant() {
        let l = lint();
        l.on_write(7, NO_SITE, 0, 0);
        l.on_pwb(7, SiteId(1), 1);
        l.on_fence();
        l.on_pwb(7, SiteId(9), 2);
        let r = l.report();
        assert_eq!(r.count(LintKind::RedundantPwb), 1);
        assert_eq!(r.of_kind(LintKind::RedundantPwb).next().unwrap().site, 9);
    }

    #[test]
    fn unknown_line_flush_not_flagged() {
        let l = lint();
        l.on_pwb(3, SiteId(0), 0);
        let r = l.report();
        assert!(r.is_clean());
        assert_eq!(r.pwb_unknown[0], 1);
        // ... but a second flush of it now is
        l.on_pwb(3, SiteId(0), 1);
        assert_eq!(l.report().count(LintKind::RedundantPwb), 1);
    }

    #[test]
    fn store_after_flush_redirties() {
        let l = lint();
        l.on_write(2, NO_SITE, 0, 0);
        l.on_pwb(2, SiteId(0), 1);
        l.on_write(2, NO_SITE, 0, 2);
        assert!(
            l.on_pwb(2, SiteId(0), 3),
            "line was re-dirtied, flush useful"
        );
        assert!(l.report().is_clean());
    }

    #[test]
    fn dirty_line_reported_with_originating_store() {
        let l = lint();
        l.on_write(11, 7, 3, 42);
        l.on_write(11, 8, 4, 43); // same dirty epoch: first store wins
        let r = l.report();
        assert_eq!(r.count(LintKind::UnflushedDirty), 1);
        let d = r.of_kind(LintKind::UnflushedDirty).next().unwrap();
        assert_eq!((d.line, d.site, d.tid, d.seq), (11, 7, 3, 42));
    }

    #[test]
    fn crash_makes_dirty_findings_permanent_and_resets() {
        let l = lint();
        l.on_write(11, 7, 0, 0);
        l.on_crash(99);
        assert_eq!(l.report().count(LintKind::UnflushedDirty), 1);
        assert!(!l.line_dirty(11), "crash resets line state");
        // second report does not double-count
        assert_eq!(l.report().count(LintKind::UnflushedDirty), 1);
    }

    #[test]
    fn publish_of_dirty_line_flags() {
        let l = lint();
        l.on_write(20, 3, 0, 0);
        l.on_publish(20, 1, 5);
        let r = l.report();
        assert_eq!(r.count(LintKind::UnfencedPublish), 1);
        let d = r.of_kind(LintKind::UnfencedPublish).next().unwrap();
        assert_eq!((d.line, d.site, d.tid), (20, 3, 1));
    }

    #[test]
    fn publish_of_flushed_unfenced_line_flags() {
        let l = lint();
        l.on_write(20, 3, 0, 0);
        l.on_pwb(20, SiteId(3), 1);
        l.on_publish(20, 0, 2); // pwb'd but no fence yet
        assert_eq!(l.report().count(LintKind::UnfencedPublish), 1);
    }

    #[test]
    fn publish_of_fenced_line_is_clean() {
        let l = lint();
        l.on_write(20, 3, 0, 0);
        l.on_pwb(20, SiteId(3), 1);
        l.on_fence();
        l.on_publish(20, 0, 2);
        assert!(l.report().is_clean());
    }

    #[test]
    fn disabled_lint_tracks_state_but_records_nothing() {
        let l = FlushLint::new(false, 64);
        l.on_write(5, NO_SITE, 0, 0);
        l.on_pwb(5, SiteId(0), 1);
        l.on_pwb(5, SiteId(0), 2); // would be redundant
        assert!(!l.line_dirty(5));
        let r = l.report();
        assert!(r.is_clean());
        assert_eq!(r.pwb_redundant[0], 0);
    }

    #[test]
    fn clear_forgets_everything() {
        let l = lint();
        l.on_write(5, NO_SITE, 0, 0);
        l.on_pwb(5, SiteId(0), 1);
        l.on_pwb(5, SiteId(0), 2);
        l.clear();
        let r = l.report();
        assert!(r.is_clean());
        assert_eq!(r.pwb_dirty[0], 0);
        assert_eq!(r.pwb_redundant[0], 0);
    }

    #[test]
    fn export_import_round_trips_effective_state() {
        let l = lint();
        l.on_write(2, 1, 0, 10); // dirty
        l.on_write(3, 2, 0, 11);
        l.on_pwb(3, SiteId(2), 12); // flushed, unfenced
        l.on_write(4, 3, 0, 13);
        l.on_pwb(4, SiteId(3), 14);
        l.on_fence(); // line 4 clean; line 3 was flushed before the same
                      // fence, so it commits too
        l.on_write(3, 2, 0, 15); // re-dirty 3
        l.on_write(5, 4, 0, 16);
        l.on_pwb(5, SiteId(4), 17); // flushed, awaiting the next fence
        let lines = l.export_state();
        let status = |l: usize| lines.iter().find(|e| e.0 == l).map(|e| e.1.status);
        assert_eq!(status(4), Some(Status::Clean));
        assert_eq!(status(5), Some(Status::Flushed));
        let other = lint();
        other.import_state(&lines);
        assert!(other.line_dirty(2));
        assert!(other.line_dirty(3));
        assert!(!other.line_dirty(4));
        let lines2 = other.export_state();
        assert_eq!(lines.len(), lines2.len());
        for ((l1, s1), (l2, s2)) in lines.iter().zip(lines2.iter()) {
            assert_eq!(l1, l2);
            assert_eq!(s1.status, s2.status);
            assert_eq!(s1.store_site, s2.store_site);
            assert_eq!(s1.store_seq, s2.store_seq);
        }
        // The imported flush awaits a fence of the importing lint.
        other.on_fence();
        let after = other.export_state();
        assert!(after.iter().all(|(_, s)| s.status != Status::Flushed));
    }

    #[test]
    fn fence_commits_only_flushes_recorded_before_it() {
        // A pwb after a fence must wait for the *next* fence.
        let l = lint();
        l.on_write(6, 1, 0, 0);
        l.on_fence(); // no flush recorded: line stays dirty
        assert!(l.line_dirty(6));
        l.on_pwb(6, SiteId(1), 1);
        // Flushed but not fenced: publishing it must still flag.
        l.on_publish(6, 0, 2);
        assert_eq!(l.report().count(LintKind::UnfencedPublish), 1);
        l.on_fence();
        l.on_publish(6, 0, 3);
        assert_eq!(l.report().count(LintKind::UnfencedPublish), 1, "fenced now");
    }
}
