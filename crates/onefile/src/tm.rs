//! The OneFile-style TM and its sorted-list set (see crate docs).

use std::sync::Arc;

use pmem::{PAddr, PmemPool, ThreadCtx, WORDS_PER_LINE};

use crate::sites::{F_ANNOUNCE, F_CURTX, F_LOG, F_RD, F_WORD};

// ---- packings ----------------------------------------------------------

/// Data words: value in the low 40 bits, committing sequence above.
const VAL_BITS: u64 = 40;
const VAL_MASK: u64 = (1 << VAL_BITS) - 1;

#[inline]
fn word_pack(val: u64, seq: u64) -> u64 {
    debug_assert!(val <= VAL_MASK, "value overflows the 40-bit word payload");
    val | seq << VAL_BITS
}

#[inline]
fn word_val(w: u64) -> u64 {
    w & VAL_MASK
}

#[inline]
fn word_seq(w: u64) -> u64 {
    w >> VAL_BITS
}

// curTx: log address (word index) in the low 40 bits, sequence above.
#[inline]
fn curtx_pack(log: PAddr, seq: u64) -> u64 {
    assert!(seq < 1 << 24, "transaction sequence space exhausted");
    log.raw() | seq << VAL_BITS
}

// Announce: op(2) | key(20) | opseq(42).
const A_NONE: u64 = 0;
const A_INSERT: u64 = 1;
const A_DELETE: u64 = 2;
const KEY_BITS: u64 = 20;

/// Largest usable key (the announce word packs op|key|opseq).
pub const KEY_LIMIT: u64 = (1 << KEY_BITS) - 1;

#[inline]
fn ann_pack(op: u64, key: u64, opseq: u64) -> u64 {
    op | key << 2 | opseq << (2 + KEY_BITS)
}

#[inline]
fn ann_unpack(a: u64) -> (u64, u64, u64) {
    (a & 0b11, (a >> 2) & KEY_LIMIT, a >> (2 + KEY_BITS))
}

// Region layout (word offsets into the sequence-stamped data region).
const ALLOC_NEXT: u64 = 0;
const FREE_HEAD: u64 = 1;
const LIST_HEAD: u64 = 2;
const OPRES_BASE: u64 = 8;
// nodes: {key, next}
const NK: u64 = 0;
const NN: u64 = 1;

/// Sentinel keys of the region list.
const KEY_MIN: u64 = 0;
const KEY_MAX_NODE: u64 = VAL_MASK; // tail sentinel key (fits the payload)

/// The OneFile-style detectably recoverable sorted-list set.
#[derive(Clone)]
pub struct OneFileList {
    pool: Arc<PmemPool>,
    /// `curTx` commit word (log address | sequence).
    curtx: PAddr,
    /// Base of the sequence-stamped data region.
    words: PAddr,
    ann_base: PAddr,
    threads: usize,
    size_words: usize,
}

/// Read-through-writeset view used while building a combined transaction.
struct TxView<'a> {
    list: &'a OneFileList,
    writes: Vec<(u64, u64)>,
}

impl TxView<'_> {
    fn read(&self, off: u64) -> u64 {
        for (o, v) in self.writes.iter().rev() {
            if *o == off {
                return *v;
            }
        }
        self.list.committed(off)
    }

    fn write(&mut self, off: u64, v: u64) {
        debug_assert!((off as usize) < self.list.size_words);
        self.writes.push((off, v));
    }

    fn alloc_node(&mut self) -> u64 {
        let fh = self.read(FREE_HEAD);
        if fh != 0 {
            let next = self.read(fh + NN);
            self.write(FREE_HEAD, next);
            fh
        } else {
            let n = self.read(ALLOC_NEXT);
            assert!(
                (n + 2) as usize <= self.list.size_words,
                "OneFile region exhausted"
            );
            self.write(ALLOC_NEXT, n + 2);
            n
        }
    }

    fn free_node(&mut self, off: u64) {
        let fh = self.read(FREE_HEAD);
        self.write(off + NN, fh);
        self.write(FREE_HEAD, off);
    }

    /// `None` if the traversal outlasts the region's node count: the
    /// committed state moved under the view (a newer transaction was
    /// applied mid-build), and the mix of its words with this view's own
    /// writes can form a cycle that would otherwise spin forever. The
    /// build is stale anyway — its `curTx` CAS must fail.
    fn search(&self, key: u64) -> Option<(u64, u64)> {
        let mut steps = self.list.size_words / 2 + 2;
        let mut pred = self.read(LIST_HEAD);
        let mut curr = self.read(pred + NN);
        while self.read(curr + NK) < key {
            pred = curr;
            curr = self.read(curr + NN);
            steps -= 1;
            if steps == 0 {
                return None;
            }
        }
        Some((pred, curr))
    }

    /// Applies one announced set operation, returning its response (`None`
    /// if the view is torn, see [`Self::search`]).
    fn apply_op(&mut self, op: u64, key: u64) -> Option<bool> {
        let (pred, curr) = self.search(key)?;
        Some(match op {
            A_INSERT => {
                if self.read(curr + NK) == key {
                    false
                } else {
                    let n = self.alloc_node();
                    self.write(n + NK, key);
                    self.write(n + NN, curr);
                    self.write(pred + NN, n);
                    true
                }
            }
            A_DELETE => {
                if self.read(curr + NK) != key {
                    false
                } else {
                    let next = self.read(curr + NN);
                    self.write(pred + NN, next);
                    self.free_node(curr);
                    true
                }
            }
            _ => unreachable!("invalid announced op"),
        })
    }
}

impl OneFileList {
    /// Creates a set for up to `threads` threads and roughly `max_keys`
    /// live keys, rooted in root cell `root_idx` (or re-attaches).
    pub fn new(pool: Arc<PmemPool>, root_idx: usize, threads: usize, max_keys: usize) -> Self {
        pool.register_site_names(&crate::sites::SITES);
        assert!(threads <= pool.max_threads());
        let root = pool.root(root_idx);
        let existing = pool.load(root);
        if existing != 0 {
            let sb = PAddr::from_raw(existing);
            let threads = pool.load(sb.add(3)) as usize;
            let size_words = pool.load(sb.add(4)) as usize;
            return OneFileList {
                pool: pool.clone(),
                curtx: sb,
                words: PAddr::from_raw(pool.load(sb.add(1))),
                ann_base: PAddr::from_raw(pool.load(sb.add(2))),
                threads,
                size_words,
            };
        }
        let heap_base = OPRES_BASE + threads as u64;
        let size_words = (heap_base as usize + 2 * (max_keys + 8)).next_multiple_of(8);
        let sb = pool.alloc_lines(1); // w0 = curTx, w1 words, w2 ann, w3 threads, w4 size
        let words = pool.alloc_lines(size_words / WORDS_PER_LINE);
        let ann_base = pool.alloc_lines(threads);
        let list = OneFileList {
            pool: pool.clone(),
            curtx: sb,
            words,
            ann_base,
            threads,
            size_words,
        };
        // Initialize the region directly (seq 0 = "initial"): allocator
        // watermark, head and tail sentinels.
        let head = heap_base;
        let tail = heap_base + 2;
        let init = [
            (ALLOC_NEXT, heap_base + 4),
            (head + NK, KEY_MIN),
            (head + NN, tail),
            (tail + NK, KEY_MAX_NODE),
            (tail + NN, 0),
            (LIST_HEAD, head),
        ];
        for (off, v) in init {
            pool.store(words.add(off), word_pack(v, 0));
        }
        pool.pwb_range(words, size_words, F_LOG);
        pool.store(sb.add(1), words.raw());
        pool.store(sb.add(2), ann_base.raw());
        pool.store(sb.add(3), threads as u64);
        pool.store(sb.add(4), size_words as u64);
        pool.pwb(sb, F_CURTX);
        pool.pfence();
        pool.store(root, sb.raw());
        pool.pbarrier(root, 1, F_CURTX);
        list
    }

    /// The owning pool.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    #[inline]
    fn committed(&self, off: u64) -> u64 {
        word_val(self.pool.load(self.words.add(off)))
    }

    fn ann(&self, tid: usize) -> PAddr {
        self.ann_base.add((tid * WORDS_PER_LINE) as u64)
    }

    /// Makes `curtx_val` durable and applies its redo log (idempotent;
    /// cooperative). The flush-before-apply order guarantees no data word
    /// ever carries a sequence newer than the *persisted* `curTx`.
    fn settle(&self, curtx_val: u64) {
        let pool = &*self.pool;
        let s = curtx_val >> VAL_BITS;
        pool.pwb(self.curtx, F_CURTX);
        pool.psync();
        if s == 0 {
            return;
        }
        let log = PAddr::from_raw(curtx_val & VAL_MASK);
        let hdr = pool.load(log);
        debug_assert_eq!(
            hdr & 0xFF_FFFF,
            s,
            "log header names a different transaction"
        );
        let n = hdr >> 32;
        for i in 0..n {
            let off = pool.load(log.add(1 + 2 * i));
            let val = pool.load(log.add(2 + 2 * i));
            let w = self.words.add(off);
            loop {
                let c = pool.load(w);
                if word_seq(c) >= s {
                    break; // already applied (or overwritten by a later tx)
                }
                if pool.cas(w, c, word_pack(val, s)).is_ok() {
                    pool.pwb(w, F_WORD);
                    break;
                }
            }
        }
        pool.pfence();
    }

    /// Inserts `key`; returns `false` if present.
    pub fn insert(&self, ctx: &ThreadCtx, key: u64) -> bool {
        ctx.begin_op(F_RD);
        self.update_started(ctx, A_INSERT, key)
    }

    /// Deletes `key`; returns `false` if absent.
    pub fn delete(&self, ctx: &ThreadCtx, key: u64) -> bool {
        ctx.begin_op(F_RD);
        self.update_started(ctx, A_DELETE, key)
    }

    /// Insert without the system's `CP_q := 0` pre-step.
    pub fn insert_started(&self, ctx: &ThreadCtx, key: u64) -> bool {
        self.update_started(ctx, A_INSERT, key)
    }

    /// Delete without the system's `CP_q := 0` pre-step.
    pub fn delete_started(&self, ctx: &ThreadCtx, key: u64) -> bool {
        self.update_started(ctx, A_DELETE, key)
    }

    fn update_started(&self, ctx: &ThreadCtx, op: u64, key: u64) -> bool {
        assert!(
            key > 0 && key <= KEY_LIMIT,
            "key outside announce packing range"
        );
        let pool = &*self.pool;
        let tid = ctx.tid();
        assert!(tid < self.threads);
        // RD_q is the operation-sequence source, persisted before the
        // announcement can become visible (same protocol as `redo`).
        let opseq = ctx.rd() + 1;
        ctx.set_rd(opseq);
        pool.pbarrier(ctx.rd_addr(), 1, F_RD);
        ctx.set_cp(1);
        pool.pwb(ctx.cp_addr(), F_RD);
        pool.psync();
        pool.store(self.ann(tid), ann_pack(op, key, opseq));
        pool.pwb(self.ann(tid), F_ANNOUNCE);
        pool.pfence();
        self.combine_until_applied(tid, opseq)
    }

    /// The combining loop: commit (or help commit) transactions until some
    /// committed one has applied this thread's announcement.
    fn combine_until_applied(&self, tid: usize, opseq: u64) -> bool {
        let pool = &*self.pool;
        loop {
            let cur = pool.load(self.curtx);
            self.settle(cur);
            let res = self.committed(OPRES_BASE + tid as u64);
            if res >> 1 == opseq {
                return res & 1 == 1;
            }
            // Build the combined transaction s+1 against the settled state.
            let s = cur >> VAL_BITS;
            let mut view = TxView {
                list: self,
                writes: Vec::with_capacity(16),
            };
            let mut torn = false;
            for t in 0..self.threads {
                let (op, key, aseq) = ann_unpack(pool.load(self.ann(t)));
                if op == A_NONE || aseq <= view.read(OPRES_BASE + t as u64) >> 1 {
                    continue;
                }
                let Some(r) = view.apply_op(op, key) else {
                    torn = true;
                    break;
                };
                view.write(OPRES_BASE + t as u64, aseq << 1 | r as u64);
            }
            if torn || view.writes.is_empty() {
                // Raced: someone else committed (and maybe applied
                // everything) while this transaction was being built.
                continue;
            }
            // Deduplicate to final values: application CASes each word to
            // `(value, s+1)` at most once (the seq check makes re-application
            // a no-op), so a log must carry exactly one entry per offset —
            // the last write wins (e.g. FREE_HEAD written by two deletes of
            // the same combined transaction).
            let mut seen = std::collections::HashMap::new();
            for (i, (off, _)) in view.writes.iter().enumerate() {
                seen.insert(*off, i); // last index per offset
            }
            let mut final_writes: Vec<(u64, u64)> = view
                .writes
                .iter()
                .enumerate()
                .filter(|(i, (off, _))| seen[off] == *i)
                .map(|(_, w)| *w)
                .collect();
            final_writes.sort_unstable_by_key(|(off, _)| *off);
            // Write the immutable redo log and publish it with one CAS.
            let n = final_writes.len() as u64;
            let log = pool.alloc_lines(((1 + 2 * n) as usize).div_ceil(WORDS_PER_LINE));
            pool.store(log, (s + 1) | n << 32);
            for (i, (off, val)) in final_writes.iter().enumerate() {
                pool.store(log.add(1 + 2 * i as u64), *off);
                pool.store(log.add(2 + 2 * i as u64), *val);
            }
            pool.pwb_range(log, (1 + 2 * n) as usize, F_LOG);
            pool.pfence();
            let _ = pool.cas(self.curtx, cur, curtx_pack(log, s + 1));
            // Win or lose, the next iteration settles whoever committed.
        }
    }

    /// Is `key` present? Reads the committed state optimistically,
    /// validating against `curTx` (which is made durable first, so the
    /// answer never depends on a transaction a crash could undo).
    pub fn find(&self, ctx: &ThreadCtx, key: u64) -> bool {
        let _ = ctx;
        let pool = &*self.pool;
        'retry: loop {
            let cur = pool.load(self.curtx);
            self.settle(cur);
            let mut steps = self.size_words / 2 + 2;
            let mut curr = self.committed(self.committed(LIST_HEAD) + NN);
            loop {
                if curr == 0 {
                    continue 'retry; // torn traversal (node recycled mid-read)
                }
                let k = self.committed(curr + NK);
                if k >= key {
                    if pool.load(self.curtx) != cur {
                        continue 'retry;
                    }
                    return k == key;
                }
                curr = self.committed(curr + NN);
                steps -= 1;
                if steps == 0 {
                    continue 'retry;
                }
            }
        }
    }

    /// `Insert.Recover`.
    pub fn recover_insert(&self, ctx: &ThreadCtx, key: u64) -> bool {
        match self.recover_update(ctx) {
            Some(r) => r,
            None => self.insert(ctx, key),
        }
    }

    /// `Delete.Recover`.
    pub fn recover_delete(&self, ctx: &ThreadCtx, key: u64) -> bool {
        match self.recover_update(ctx) {
            Some(r) => r,
            None => self.delete(ctx, key),
        }
    }

    /// `Find.Recover` (read-only: re-execute).
    pub fn recover_find(&self, ctx: &ThreadCtx, key: u64) -> bool {
        self.find(ctx, key)
    }

    fn recover_update(&self, ctx: &ThreadCtx) -> Option<bool> {
        let pool = &*self.pool;
        if ctx.cp() == 0 {
            return None;
        }
        let tid = ctx.tid();
        let opseq = ctx.rd();
        self.settle(pool.load(self.curtx));
        let res = self.committed(OPRES_BASE + tid as u64);
        if opseq != 0 && res >> 1 == opseq {
            return Some(res & 1 == 1);
        }
        let (op, _key, aseq) = ann_unpack(pool.load(self.ann(tid)));
        if op != A_NONE && aseq == opseq {
            // The announcement survived: combining will finish it.
            return Some(self.combine_until_applied(tid, opseq));
        }
        None
    }

    /// Live keys in order (quiescent only).
    pub fn keys(&self) -> Vec<u64> {
        let mut out = Vec::new();
        let mut curr = self.committed(self.committed(LIST_HEAD) + NN);
        loop {
            let k = self.committed(curr + NK);
            if k == KEY_MAX_NODE {
                return out;
            }
            out.push(k);
            curr = self.committed(curr + NN);
        }
    }

    /// Checks sortedness (quiescent); returns the key count.
    pub fn check_invariants(&self) -> usize {
        let ks = self.keys();
        assert!(
            ks.windows(2).all(|w| w[0] < w[1]),
            "keys must be strictly sorted"
        );
        ks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PessimistAdversary, PoolCfg, SiteId};
    use std::collections::BTreeSet;

    fn setup() -> (Arc<PmemPool>, OneFileList, ThreadCtx) {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(64 << 20)));
        let l = OneFileList::new(pool.clone(), 7, 8, 256);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        (pool, l, ctx)
    }

    #[test]
    fn basics() {
        let (_p, l, ctx) = setup();
        assert!(!l.find(&ctx, 10));
        assert!(l.insert(&ctx, 10));
        assert!(l.find(&ctx, 10));
        assert!(!l.insert(&ctx, 10));
        assert!(l.delete(&ctx, 10));
        assert!(!l.find(&ctx, 10));
        assert!(!l.delete(&ctx, 10));
        assert_eq!(l.check_invariants(), 0);
    }

    #[test]
    fn matches_reference_model_sequentially() {
        let (_p, l, ctx) = setup();
        let mut model = BTreeSet::new();
        let mut rng = 0x0F1CEu64;
        for _ in 0..1500 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (rng >> 33) % 60 + 1;
            match (rng >> 20) % 3 {
                0 => assert_eq!(l.insert(&ctx, key), model.insert(key), "insert {key}"),
                1 => assert_eq!(l.delete(&ctx, key), model.remove(&key), "delete {key}"),
                _ => assert_eq!(l.find(&ctx, key), model.contains(&key), "find {key}"),
            }
        }
        assert_eq!(l.keys(), model.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn node_recycling_reuses_freed_slots() {
        let (_p, l, ctx) = setup();
        for round in 0..5 {
            for k in 1..=50u64 {
                assert!(l.insert(&ctx, k), "round {round}");
            }
            for k in 1..=50u64 {
                assert!(l.delete(&ctx, k), "round {round}");
            }
        }
        assert_eq!(l.check_invariants(), 0);
        let used = l.committed(ALLOC_NEXT);
        assert!(
            used < OPRES_BASE + 8 + 4 + 2 * 60,
            "free list not recycling: {used}"
        );
    }

    #[test]
    fn concurrent_mixed_ops_preserve_invariants() {
        let (p, l, _ctx) = setup();
        let mut handles = vec![];
        for t in 0..4usize {
            let l = l.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            handles.push(std::thread::spawn(move || {
                let mut rng = pmem::Rng((t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
                for _ in 0..300 {
                    let r = rng.next();
                    let key = r % 40 + 1;
                    match (r >> 32) % 3 {
                        0 => {
                            l.insert(&ctx, key);
                        }
                        1 => {
                            l.delete(&ctx, key);
                        }
                        _ => {
                            l.find(&ctx, key);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        l.check_invariants();
    }

    #[test]
    fn concurrent_inserts_same_key_exactly_one_wins() {
        let (p, l, _ctx) = setup();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
        let mut handles = vec![];
        for t in 0..4usize {
            let l = l.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                l.insert(&ctx, 77)
            }));
        }
        let wins: usize = handles
            .into_iter()
            .map(|h| h.join().unwrap() as usize)
            .sum();
        assert_eq!(wins, 1);
        assert_eq!(l.keys(), vec![77]);
    }

    #[test]
    fn crash_swept_insert_recovers_detectably() {
        for crash_at in 0..4000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(64 << 20)));
            let l = OneFileList::new(pool.clone(), 7, 4, 64);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            ctx.begin_op(SiteId(0));
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| l.insert_started(&ctx, 5));
            pool.crash(&mut PessimistAdversary);
            match pre {
                Some(r) => {
                    assert!(r);
                    assert_eq!(l.keys(), vec![5]);
                    return;
                }
                None => {
                    assert!(l.recover_insert(&ctx, 5), "crash_at={crash_at}");
                    assert_eq!(l.keys(), vec![5], "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn crash_swept_delete_recovers_detectably() {
        for crash_at in 0..4000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(64 << 20)));
            let l = OneFileList::new(pool.clone(), 7, 4, 64);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            assert!(l.insert(&ctx, 5));
            ctx.begin_op(SiteId(0));
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| l.delete_started(&ctx, 5));
            pool.crash(&mut PessimistAdversary);
            match pre {
                Some(r) => {
                    assert!(r);
                    assert!(l.keys().is_empty());
                    return;
                }
                None => {
                    assert!(l.recover_delete(&ctx, 5), "crash_at={crash_at}");
                    assert!(l.keys().is_empty(), "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn combined_tx_with_duplicate_offsets_applies_final_values() {
        // Regression: two deletes aggregated into one combined transaction
        // both write FREE_HEAD; application CASes each word once, so the
        // log must be deduplicated to final values or the committed state
        // corrupts (previously livelocking readers on a broken chain).
        let (p, l, ctx0) = setup();
        for k in [10u64, 20, 30, 40] {
            assert!(l.insert(&ctx0, k));
        }
        // Hand-plant announces for threads 1 and 2 (the system half of the
        // protocol is irrelevant here; only the combiner's aggregation is
        // under test).
        p.store(l.ann(1), ann_pack(A_DELETE, 20, 1));
        p.pwb(l.ann(1), crate::sites::F_ANNOUNCE);
        p.store(l.ann(2), ann_pack(A_DELETE, 30, 1));
        p.pwb(l.ann(2), crate::sites::F_ANNOUNCE);
        p.pfence();
        // Thread 0's delete combines all three into one transaction.
        assert!(l.delete(&ctx0, 40));
        assert_eq!(l.keys(), vec![10], "all three deletes applied exactly once");
        l.check_invariants();
        // The helped threads' results are recorded too.
        assert_eq!(l.committed(OPRES_BASE + 1), 1 << 1 | 1);
        assert_eq!(l.committed(OPRES_BASE + 2), 1 << 1 | 1);
        // And the free list survived the double write: reinsert everything.
        for k in [20u64, 30, 40] {
            assert!(l.insert(&ctx0, k));
        }
        assert_eq!(l.keys(), vec![10, 20, 30, 40]);
    }

    #[test]
    fn recovery_of_completed_op_returns_recorded_result() {
        let (_p, l, ctx) = setup();
        assert!(l.insert(&ctx, 9));
        assert!(l.recover_insert(&ctx, 9));
        assert_eq!(l.keys(), vec![9]);
    }

    #[test]
    fn transactions_commit_atomically_across_crashes() {
        // Crash at every point of an insert; after recovery (of the
        // structure only — before the op's own recovery runs) the region
        // must never show a half-applied transaction: either the key is
        // fully linked or fully absent.
        for crash_at in 0..2000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(64 << 20)));
            let l = OneFileList::new(pool.clone(), 7, 4, 64);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            assert!(l.insert(&ctx, 10));
            ctx.begin_op(SiteId(0));
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| l.insert_started(&ctx, 5));
            pool.crash(&mut PessimistAdversary);
            // settle whatever the persisted curTx names
            l.settle(pool.load(l.curtx));
            let ks = l.keys();
            assert!(
                ks == vec![10] || ks == vec![5, 10],
                "crash_at={crash_at}: torn region state {ks:?}"
            );
            l.check_invariants();
            if pre.is_some() {
                return;
            }
        }
        panic!("sweep did not terminate");
    }
}
