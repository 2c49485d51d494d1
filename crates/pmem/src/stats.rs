//! Per-site persistence-instruction counters, sharded per thread.
//!
//! Figures 3b/4b (number of `psync`s) and 3d/4d (number of `pwb`s) of the
//! paper are pure instruction counts; Figures 3e/4e additionally need the
//! counts *per call site* so executed `pwb`s can be attributed to the
//! low/medium/high impact categories. Counters are plain relaxed atomics —
//! one increment per instruction — and can be snapshot/delta'd around a
//! timed benchmark window.
//!
//! Counting must not perturb what is being counted: with a single counter
//! array, every thread's `pwb` RMWs the *same* cache line, which is exactly
//! the contended-line effect the paper's flush-cost analysis warns about.
//! The live counters are therefore sharded into cache-line-aligned blocks
//! indexed by a cheap per-thread id, so concurrent threads increment
//! disjoint lines; `Stats::snapshot` sums the shards back into the same
//! [`StatsSnapshot`] shape the figure drivers always consumed.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::persist::{SiteId, MAX_SITES};
use crate::trace::trace_tid;

/// Number of *exclusively owned* counter shards. Thread id `i < N_SHARDS`
/// owns shard `i` outright — it is that shard's only writer, so increments
/// can be a relaxed load+store pair instead of a locked `fetch_add` (on
/// x86 that replaces a serializing `lock xadd` with two plain moves, the
/// difference between the counters being visible in the off-overhead
/// benchmark and not). Up to 16 threads covers the paper's evaluation
/// tops; later thread ids degrade gracefully to one shared overflow shard
/// that still uses atomic RMWs.
const N_SHARDS: usize = 16;

/// One shard's counters. `#[repr(align(64))]` plus a size that is a
/// multiple of 64 bytes (64 + 2 u64s rounds up to 576) guarantees no two
/// shards ever share a cache line.
#[repr(align(64))]
struct Shard {
    pwb_per_site: [AtomicU64; MAX_SITES],
    psync: AtomicU64,
    pfence: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            pwb_per_site: std::array::from_fn(|_| AtomicU64::new(0)),
            psync: AtomicU64::new(0),
            pfence: AtomicU64::new(0),
        }
    }
}

/// A single-writer relaxed increment: safe only on a shard with exactly
/// one writing thread (concurrent `Stats::snapshot` readers may miss the
/// in-flight increment, which a racing `fetch_add` would not fix either).
#[inline]
fn bump(c: &AtomicU64) {
    c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// Live counters owned by a pool. `shards[i]` is written only by thread id
/// `i`; `overflow` is shared by every thread id `>= N_SHARDS`.
pub(crate) struct Stats {
    shards: Box<[Shard]>,
    overflow: Shard,
}

impl Stats {
    pub(crate) fn new() -> Self {
        Stats {
            shards: (0..N_SHARDS).map(|_| Shard::new()).collect(),
            overflow: Shard::new(),
        }
    }

    #[inline]
    pub(crate) fn count_pwb(&self, s: SiteId) {
        // `trace_tid()` hands out small dense per-thread ids (one TLS read).
        match self.shards.get(trace_tid()) {
            Some(sh) => bump(&sh.pwb_per_site[s.idx()]),
            None => {
                self.overflow.pwb_per_site[s.idx()].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[inline]
    pub(crate) fn count_psync(&self) {
        match self.shards.get(trace_tid()) {
            Some(sh) => bump(&sh.psync),
            None => {
                self.overflow.psync.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[inline]
    pub(crate) fn count_pfence(&self) {
        match self.shards.get(trace_tid()) {
            Some(sh) => bump(&sh.pfence),
            None => {
                self.overflow.pfence.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let mut snap = StatsSnapshot {
            pwb_per_site: [0; MAX_SITES],
            pwb_elided_per_site: [0; MAX_SITES],
            psync: 0,
            pfence: 0,
            psync_coalesced: 0,
        };
        for sh in self.shards.iter().chain(std::iter::once(&self.overflow)) {
            for (i, c) in sh.pwb_per_site.iter().enumerate() {
                snap.pwb_per_site[i] += c.load(Ordering::Relaxed);
            }
            snap.psync += sh.psync.load(Ordering::Relaxed);
            snap.pfence += sh.pfence.load(Ordering::Relaxed);
        }
        snap
    }

    pub(crate) fn reset(&self) {
        for sh in self.shards.iter().chain(std::iter::once(&self.overflow)) {
            for c in &sh.pwb_per_site {
                c.store(0, Ordering::Relaxed);
            }
            sh.psync.store(0, Ordering::Relaxed);
            sh.pfence.store(0, Ordering::Relaxed);
        }
    }
}

/// A point-in-time copy of a pool's persistence-instruction counters.
#[derive(Clone, Debug)]
pub struct StatsSnapshot {
    /// Executed `pwb`s per call site.
    pub pwb_per_site: [u64; MAX_SITES],
    /// Always 0: the flush-elision layer that filled it is retired. Kept
    /// only while the KV benchmark builds this struct with a literal and
    /// reports the layer's elisions; remove it once that report is gone.
    pub pwb_elided_per_site: [u64; MAX_SITES],
    /// Executed `psync`s.
    pub psync: u64,
    /// Executed `pfence`s.
    pub pfence: u64,
    /// Always 0, kept for the KV benchmark like `pwb_elided_per_site`.
    pub psync_coalesced: u64,
}

impl StatsSnapshot {
    /// Total `pwb`s across all sites.
    pub fn pwb_total(&self) -> u64 {
        self.pwb_per_site.iter().sum()
    }

    /// Always 0 (see `pwb_elided_per_site`). Kept only until the KV
    /// benchmark drops its flushopt twin.
    pub fn pwb_elided_total(&self) -> u64 {
        self.pwb_elided_per_site.iter().sum()
    }

    /// Counter deltas `self - earlier` (for bracketing a benchmark window).
    pub fn delta(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            pwb_per_site: std::array::from_fn(|i| {
                self.pwb_per_site[i].saturating_sub(earlier.pwb_per_site[i])
            }),
            pwb_elided_per_site: [0; MAX_SITES],
            psync: self.psync.saturating_sub(earlier.psync),
            pfence: self.pfence.saturating_sub(earlier.pfence),
            psync_coalesced: 0,
        }
    }

    /// Executed `pwb`s for one site.
    pub fn pwb_at(&self, s: SiteId) -> u64 {
        self.pwb_per_site[s.idx()]
    }

    /// The sites that executed at least one `pwb`, with their counts, in
    /// site order — the rows of a per-site attribution table.
    pub fn site_rows(&self) -> Vec<(SiteId, u64)> {
        self.pwb_per_site
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (SiteId(i as u8), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_accumulate_per_site() {
        let s = Stats::new();
        s.count_pwb(SiteId(0));
        s.count_pwb(SiteId(0));
        s.count_pwb(SiteId(5));
        s.count_psync();
        s.count_pfence();
        s.count_pfence();
        let snap = s.snapshot();
        assert_eq!(snap.pwb_at(SiteId(0)), 2);
        assert_eq!(snap.pwb_at(SiteId(5)), 1);
        assert_eq!(snap.pwb_at(SiteId(1)), 0);
        assert_eq!(snap.pwb_total(), 3);
        assert_eq!(snap.psync, 1);
        assert_eq!(snap.pfence, 2);
    }

    #[test]
    fn delta_subtracts() {
        let s = Stats::new();
        s.count_pwb(SiteId(2));
        let a = s.snapshot();
        s.count_pwb(SiteId(2));
        s.count_pwb(SiteId(3));
        s.count_psync();
        let b = s.snapshot();
        let d = b.delta(&a);
        assert_eq!(d.pwb_at(SiteId(2)), 1);
        assert_eq!(d.pwb_at(SiteId(3)), 1);
        assert_eq!(d.psync, 1);
    }

    #[test]
    fn reset_zeroes() {
        let s = Stats::new();
        s.count_pwb(SiteId(1));
        s.count_psync();
        s.reset();
        let snap = s.snapshot();
        assert_eq!(snap.pwb_total(), 0);
        assert_eq!(snap.psync, 0);
    }

    #[test]
    fn snapshot_sums_across_thread_shards() {
        // Increments from different OS threads land in different shards;
        // the snapshot must still report the global total.
        let s = std::sync::Arc::new(Stats::new());
        let mut handles = vec![];
        for _ in 0..4 {
            let s = s.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    s.count_pwb(SiteId(7));
                    s.count_psync();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.pwb_at(SiteId(7)), 400);
        assert_eq!(snap.psync, 400);
        assert_eq!(snap.pwb_total(), 400);
    }

    #[test]
    fn shards_never_share_cache_lines() {
        assert_eq!(std::mem::align_of::<Shard>(), 64);
        assert_eq!(std::mem::size_of::<Shard>() % 64, 0);
    }
}
