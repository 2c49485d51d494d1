//! The sorted chain the list and the hash map are built from: Algorithms
//! 3–4's node words, gather phase, helping step and descriptor sets,
//! written once.
//!
//! A chain is sorted by strictly increasing key between two sentinels,
//! `head` (key [`KEY_MIN`]) and `tail` (key [`KEY_MAX`]). A node is one
//! cache line, `⟨key, next, info⟩`, plus a `value` word in the hash map's
//! chains. The list is one chain and the hash map one per bucket; each
//! keeps only what is its own (the list its placements and ablations, the
//! map its routing, validations and resize).
//!
//! The gather phase persists nothing (unless the list's `traversal_flush`
//! ablation asks it to), so one [`search`] serves both structures. Every
//! helper issues its loads and stores in one fixed order, which the crash
//! sweeps' event pins record.

use pmem::{is_tagged, PAddr, PmemPool};

use crate::descriptor::{AffectEntry, Desc, WriteEntry};
use crate::help::help_tagged;
use crate::list::{KEY_MAX, KEY_MIN};
use crate::sites::{S_NEW, S_TRAVERSE};

// Node layout (one cache line): w0 = key, w1 = next, w2 = info, and in the
// hash map's chains w3 = value.
const KEY: u64 = 0;
const NEXT: u64 = 1;
const INFO: u64 = 2;
const VALUE: u64 = 3;

/// `n.key`.
pub(crate) fn key(pool: &PmemPool, n: PAddr) -> u64 {
    pool.load(n.add(KEY))
}

/// `n.next`, raw.
pub(crate) fn next(pool: &PmemPool, n: PAddr) -> u64 {
    pool.load(n.add(NEXT))
}

/// `n.info`.
pub(crate) fn info(pool: &PmemPool, n: PAddr) -> u64 {
    pool.load(n.add(INFO))
}

/// `n.value` (hash map chains only).
pub(crate) fn value(pool: &PmemPool, n: PAddr) -> u64 {
    pool.load(n.add(VALUE))
}

/// The address of `n.info`, for AffectSet and NewSet entries.
pub(crate) fn info_addr(n: PAddr) -> PAddr {
    n.add(INFO)
}

/// Panics unless `key` lies strictly between the sentinel keys.
pub(crate) fn assert_user_key(key: u64) {
    assert!(
        key > KEY_MIN && key < KEY_MAX,
        "user keys must lie strictly between the sentinels"
    );
}

/// Stores a node's words: `key`, `next`, `info` and, in a valued chain,
/// `val`.
pub(crate) fn fill(pool: &PmemPool, n: PAddr, key: u64, next: u64, info: u64, val: Option<u64>) {
    pool.store(n.add(KEY), key);
    pool.store(n.add(NEXT), next);
    pool.store(n.add(INFO), info);
    if let Some(v) = val {
        pool.store(n.add(VALUE), v);
    }
}

/// Fills the sentinels of an empty chain (Figure 2's initialization),
/// `head` linked to `tail`, both untagged, then flushes both; the caller
/// fences. A hash map bucket passes its directory cell `dir`: its sentinels
/// carry zero value words, and `head` is stored into `dir` before the
/// flushes.
pub(crate) fn sentinels(pool: &PmemPool, head: PAddr, tail: PAddr, dir: Option<PAddr>) {
    let val = dir.map(|_| 0);
    fill(pool, head, KEY_MIN, tail.raw(), 0, val);
    fill(pool, tail, KEY_MAX, 0, 0, val);
    if let Some(cell) = dir {
        pool.store(cell, head.raw());
    }
    pool.pwb(head, S_NEW);
    pool.pwb(tail, S_NEW);
}

/// A gathered link `pred → curr` with the `info` values read on first
/// access (the version stamps the tagging CASes expect).
#[derive(Copy, Clone)]
pub(crate) struct Pair {
    pub(crate) pred: PAddr,
    pub(crate) curr: PAddr,
    pub(crate) pred_info: u64,
    pub(crate) curr_info: u64,
}

/// What [`search`] gathers.
pub(crate) struct Gather {
    /// `curr` is the first node with key ≥ the searched key, `pred` its
    /// predecessor.
    pub(crate) pair: Pair,
    /// `head.info` as read before the first link was followed; an
    /// unchanged, untagged re-read validates the map's absent answers.
    pub(crate) head_info0: u64,
    /// User nodes traversed (the map's resize trigger).
    pub(crate) traversed: u64,
}

/// `Search(key)` from `head` (Algorithm 3 lines 35–44): the last two nodes
/// of the traversal and their `info` values. With `traversal_flush` (the
/// list's naive-placement ablation) every visited node is flushed and
/// fenced.
pub(crate) fn search(pool: &PmemPool, head: PAddr, key: u64, traversal_flush: bool) -> Gather {
    // Fence-coalescing region (see `pmem::flushopt`): on a flushopt pool the
    // ablation's per-node `pwb; pfence` pairs and helpers' re-flushes of
    // already-clean chain lines may elide here. Pure permission — a fence
    // with pending flush work still executes.
    let _region = pool.flushopt_enabled().then(|| pool.coalesce_fences());
    let mut pred = PAddr::NULL;
    let mut pred_info = 0;
    let mut curr = head;
    let mut curr_info = info(pool, curr);
    let head_info0 = curr_info;
    let mut traversed = 0u64;
    while pool.load(curr.add(KEY)) < key {
        if traversal_flush {
            pool.pwb(curr, S_TRAVERSE);
            pool.pfence();
        }
        pred = curr;
        pred_info = curr_info;
        curr = PAddr::from_raw(next(pool, curr));
        curr_info = info(pool, curr);
        traversed += 1;
    }
    if traversal_flush {
        pool.pwb(curr, S_TRAVERSE);
        pool.pfence();
    }
    Gather {
        pair: Pair {
            pred,
            curr,
            pred_info,
            curr_info,
        },
        head_info0,
        traversed: traversed.saturating_sub(1), // don't count the head
    }
}

/// The `init_*` methods initialize `desc` with op type `op` and the
/// response `res` its `help` records on success.
impl Pair {
    /// The helping step (Algorithm 1 lines 14–18) over the gathered pair:
    /// `true` when `pred` or `curr` was tagged and that operation has been
    /// helped, so the caller gathers again.
    pub(crate) fn help(&self, pool: &PmemPool) -> bool {
        help_tagged(pool, &[self.pred_info, self.curr_info])
    }

    /// `pred`'s AffectSet entry: it stays in the chain, so cleanup untags it.
    pub(crate) fn pred_entry(&self) -> AffectEntry {
        AffectEntry {
            info_addr: info_addr(self.pred),
            observed: self.pred_info,
            untag_on_cleanup: true,
        }
    }

    /// `curr`'s AffectSet entry. A node that leaves the chain (replaced,
    /// deleted or moved out) keeps its tag forever: `untag_on_cleanup` is
    /// `false` for it.
    pub(crate) fn curr_entry(&self, untag_on_cleanup: bool) -> AffectEntry {
        AffectEntry {
            info_addr: info_addr(self.curr),
            observed: self.curr_info,
            untag_on_cleanup,
        }
    }

    /// The WriteSet entry `pred→next: curr → new`.
    pub(crate) fn swing(&self, new: u64) -> WriteEntry {
        WriteEntry {
            field: self.pred.add(NEXT),
            old: self.curr.raw(),
            new,
        }
    }

    /// A read-only outcome's sets (the paper's red lines): the AffectSet is
    /// `curr` alone, untagged on cleanup, and nothing is written.
    pub(crate) fn init_read_only(&self, pool: &PmemPool, desc: Desc, op: u8, res: u64) {
        desc.init(pool, op, res, &[self.curr_entry(true)], &[], &[]);
    }

    /// Insert by copy, node fill (Algorithm 3 lines 19–20): `newcurr`
    /// becomes a copy of `curr`, whose key the caller read as `curr_key`,
    /// and `newnd` holds `key` and links to it; both are born tagged with
    /// `desc`. In a valued chain `newcurr` copies `curr`'s value and `newnd`
    /// holds `val`. The gathered `curr_info` validates these reads at
    /// tagging time.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fill_copy(
        &self,
        pool: &PmemPool,
        desc: Desc,
        curr_key: u64,
        newcurr: PAddr,
        newnd: PAddr,
        key: u64,
        val: Option<u64>,
    ) {
        pool.store(newcurr.add(KEY), curr_key);
        pool.store(newcurr.add(NEXT), next(pool, self.curr));
        pool.store(newcurr.add(INFO), desc.tagged());
        if val.is_some() {
            pool.store(newcurr.add(VALUE), value(pool, self.curr));
        }
        fill(pool, newnd, key, newcurr.raw(), desc.tagged(), val);
    }

    /// Insert by copy, descriptor sets (Algorithm 3 lines 25–27): tag
    /// `pred` and `curr` (replaced by its copy: tagged forever), swing
    /// `pred→next` from `curr` to `newnd`, and untag both new nodes on
    /// cleanup.
    pub(crate) fn init_insert(
        &self,
        pool: &PmemPool,
        desc: Desc,
        op: u8,
        res: u64,
        newcurr: PAddr,
        newnd: PAddr,
    ) {
        desc.init(
            pool,
            op,
            res,
            &[self.pred_entry(), self.curr_entry(false)],
            &[self.swing(newnd.raw())],
            &[info_addr(newcurr), info_addr(newnd)],
        );
    }

    /// Unlink (Algorithm 4 lines 66–68): tag `pred` and `curr` (unlinked:
    /// tagged forever) and swing `pred→next` from `curr` to its gathered
    /// successor `succ`. The value is ABA-free because `next` fields never
    /// repeat within an operation window (see the list's module docs).
    pub(crate) fn init_unlink(&self, pool: &PmemPool, desc: Desc, op: u8, res: u64, succ: u64) {
        desc.init(
            pool,
            op,
            res,
            &[self.pred_entry(), self.curr_entry(false)],
            &[self.swing(succ)],
            &[],
        );
    }
}

/// Visits every node after `head`, the tail included, as `f(node, key)`.
/// Only meaningful while no operation is in flight.
pub(crate) fn walk(pool: &PmemPool, head: PAddr, mut f: impl FnMut(PAddr, u64)) {
    let mut curr = PAddr::from_raw(next(pool, head));
    loop {
        let k = key(pool, curr);
        f(curr, k);
        if k == KEY_MAX {
            return;
        }
        curr = PAddr::from_raw(next(pool, curr));
    }
}

/// Checks one chain's structural invariants (quiescent): strictly
/// increasing keys, a reachable tail, and no node left tagged. `user` sees
/// each user key. Returns their number. Panics on violation.
pub(crate) fn check(pool: &PmemPool, head: PAddr, mut user: impl FnMut(u64)) -> usize {
    let mut count = 0;
    let mut prev_key = KEY_MIN;
    walk(pool, head, |n, k| {
        assert!(
            k > prev_key,
            "keys must be strictly increasing: {prev_key} !< {k}"
        );
        assert!(
            !is_tagged(info(pool, n)),
            "quiescent chain must hold no tagged node (key {k})"
        );
        if k != KEY_MAX {
            user(k);
            prev_key = k;
            count += 1;
        }
    });
    count
}
