//! The combining universal construction and its sorted-set state object.

use std::sync::Arc;

use pmem::{PAddr, PmemPool, ThreadCtx, WORDS_PER_LINE};

use crate::sites::{X_ANNOUNCE, X_RD, X_ROOT, X_STATE};

/// Announce-word op codes.
const A_NONE: u64 = 0;
const A_INSERT: u64 = 1;
const A_DELETE: u64 = 2;

const KEY_BITS: u64 = 20;
const SEQ_SHIFT: u64 = 2 + KEY_BITS;

/// Largest announcéable key (the announce word packs op|key|seq).
pub const KEY_LIMIT: u64 = (1 << KEY_BITS) - 1;

#[inline]
fn pack(op: u64, key: u64, seq: u64) -> u64 {
    debug_assert!(key <= KEY_LIMIT);
    op | key << 2 | seq << SEQ_SHIFT
}

#[inline]
fn unpack(a: u64) -> (u64, u64, u64) {
    (a & 0b11, (a >> 2) & KEY_LIMIT, a >> SEQ_SHIFT)
}

// State object layout: w0 = nkeys, then per-thread (applied_seq, result)
// pairs, then the sorted key array.
struct StateRef {
    base: PAddr,
    threads: usize,
}

impl StateRef {
    #[inline]
    fn nkeys(&self, pool: &PmemPool) -> u64 {
        pool.load(self.base)
    }

    #[inline]
    fn applied_seq(&self, pool: &PmemPool, tid: usize) -> u64 {
        pool.load(self.base.add(1 + 2 * tid as u64))
    }

    #[inline]
    fn result(&self, pool: &PmemPool, tid: usize) -> bool {
        pool.load(self.base.add(2 + 2 * tid as u64)) != 0
    }

    #[inline]
    fn key_at(&self, pool: &PmemPool, i: u64) -> u64 {
        pool.load(self.base.add(1 + 2 * self.threads as u64 + i))
    }

    /// Binary search: `Ok(pos)` if present, `Err(insert_pos)` otherwise.
    fn find_pos(&self, pool: &PmemPool, key: u64) -> Result<u64, u64> {
        let (mut lo, mut hi) = (0u64, self.nkeys(pool));
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = self.key_at(pool, mid);
            if k == key {
                return Ok(mid);
            } else if k < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Err(lo)
    }
}

/// The RedoOpt-style detectably recoverable set (see crate docs).
#[derive(Clone)]
pub struct RedoSet {
    pool: Arc<PmemPool>,
    /// Word holding the current state pointer (CASed by combiners).
    root_word: PAddr,
    ann_base: PAddr,
    threads: usize,
    cap: usize,
    state_words: usize,
}

impl RedoSet {
    /// Creates a set for up to `threads` threads and `cap` live keys,
    /// rooted in root cell `root_idx` (or re-attaches).
    pub fn new(pool: Arc<PmemPool>, root_idx: usize, threads: usize, cap: usize) -> Self {
        pool.register_site_names(&crate::sites::SITES);
        assert!(threads <= pool.max_threads());
        let root = pool.root(root_idx);
        let existing = pool.load(root);
        if existing != 0 {
            let sb = PAddr::from_raw(existing);
            let threads = pool.load(sb.add(2)) as usize;
            let cap = pool.load(sb.add(3)) as usize;
            let state_words = 1 + 2 * threads + cap;
            return RedoSet {
                pool: pool.clone(),
                root_word: sb,
                ann_base: PAddr::from_raw(pool.load(sb.add(1))),
                threads,
                cap,
                state_words,
            };
        }
        let sb = pool.alloc_lines(1);
        let ann_base = pool.alloc_lines(threads);
        let state_words = 1 + 2 * threads + cap;
        let init = pool.alloc_lines(state_words.div_ceil(WORDS_PER_LINE));
        // zero-initialized state: empty set, all seqs 0
        pool.pwb_range(init, state_words, X_STATE);
        pool.store(sb, init.raw());
        pool.store(sb.add(1), ann_base.raw());
        pool.store(sb.add(2), threads as u64);
        pool.store(sb.add(3), cap as u64);
        pool.pwb(sb, X_ROOT);
        pool.pfence();
        pool.store(root, sb.raw());
        pool.pbarrier(root, 1, X_ROOT);
        RedoSet {
            pool,
            root_word: sb,
            ann_base,
            threads,
            cap,
            state_words,
        }
    }

    /// The owning pool.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn ann(&self, tid: usize) -> PAddr {
        self.ann_base.add((tid * WORDS_PER_LINE) as u64)
    }

    fn cur_state(&self) -> StateRef {
        StateRef {
            base: PAddr::from_raw(self.pool.load(self.root_word)),
            threads: self.threads,
        }
    }

    /// Inserts `key`; returns `false` if already present.
    pub fn insert(&self, ctx: &ThreadCtx, key: u64) -> bool {
        ctx.begin_op(X_RD);
        self.update_started(ctx, A_INSERT, key)
    }

    /// Deletes `key`; returns `false` if absent.
    pub fn delete(&self, ctx: &ThreadCtx, key: u64) -> bool {
        ctx.begin_op(X_RD);
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
        // Sequence numbers are drawn from RD_q, which is persisted before
        // the announcement can become visible: a post-crash RD_q = s with
        // CP_q = 1 uniquely names the in-flight operation.
        let seq = ctx.rd() + 1;
        ctx.set_rd(seq);
        pool.pbarrier(ctx.rd_addr(), 1, X_RD);
        ctx.set_cp(1);
        pool.pwb(ctx.cp_addr(), X_RD);
        pool.psync();
        // Announce, persist the announcement, then combine.
        pool.store(self.ann(tid), pack(op, key, seq));
        pool.pwb(self.ann(tid), X_ANNOUNCE);
        pool.pfence();
        self.combine_until_applied(tid, seq)
    }

    /// The combining loop: returns as soon as some committed state has this
    /// thread's operation `seq` applied.
    fn combine_until_applied(&self, tid: usize, seq: u64) -> bool {
        let pool = &*self.pool;
        loop {
            let st_raw = pool.load(self.root_word);
            let st = StateRef {
                base: PAddr::from_raw(st_raw),
                threads: self.threads,
            };
            if st.applied_seq(pool, tid) == seq {
                // Make sure the state we are answering from is durable
                // before the response escapes.
                pool.pwb(self.root_word, X_ROOT);
                pool.psync();
                return st.result(pool, tid);
            }
            // Become a combiner: clone, apply all pending announces, publish.
            let new = pool.alloc_lines(self.state_words.div_ceil(WORDS_PER_LINE));
            for w in 0..self.state_words as u64 {
                pool.store(new.add(w), pool.load(st.base.add(w)));
            }
            let new_ref = StateRef {
                base: new,
                threads: self.threads,
            };
            for t in 0..self.threads {
                let (op, key, aseq) = unpack(pool.load(self.ann(t)));
                if op == A_NONE || aseq <= new_ref.applied_seq(pool, t) {
                    continue;
                }
                let r = self.apply(&new_ref, op, key);
                pool.store(new.add(1 + 2 * t as u64), aseq);
                pool.store(new.add(2 + 2 * t as u64), r as u64);
            }
            pool.pwb_range(new, self.state_words, X_STATE);
            pool.pfence();
            if pool.cas(self.root_word, st_raw, new.raw()).is_ok() {
                pool.pwb(self.root_word, X_ROOT);
                pool.psync();
            }
        }
    }

    /// Applies one operation to a (private, under-construction) state.
    fn apply(&self, st: &StateRef, op: u64, key: u64) -> bool {
        let pool = &*self.pool;
        let n = st.nkeys(pool);
        let keys_base = st.base.add(1 + 2 * self.threads as u64);
        match (op, st.find_pos(pool, key)) {
            (A_INSERT, Err(pos)) => {
                assert!((n as usize) < self.cap, "RedoSet capacity exhausted");
                let mut i = n;
                while i > pos {
                    pool.store(keys_base.add(i), pool.load(keys_base.add(i - 1)));
                    i -= 1;
                }
                pool.store(keys_base.add(pos), key);
                pool.store(st.base, n + 1);
                true
            }
            (A_INSERT, Ok(_)) => false,
            (A_DELETE, Ok(pos)) => {
                for i in pos..n - 1 {
                    pool.store(keys_base.add(i), pool.load(keys_base.add(i + 1)));
                }
                pool.store(st.base, n - 1);
                true
            }
            (A_DELETE, Err(_)) => false,
            _ => unreachable!("invalid op"),
        }
    }

    /// Is `key` present? Reads the current committed state directly —
    /// states are immutable once published, so this is linearizable at the
    /// root-pointer read (the UC analogue of the paper's read-only
    /// optimization). The root pointer is flushed before the response
    /// escapes: a find must never answer from a state a crash could still
    /// roll back.
    pub fn find(&self, ctx: &ThreadCtx, key: u64) -> bool {
        let _ = ctx;
        let pool = &*self.pool;
        let st = self.cur_state();
        let found = st.find_pos(pool, key).is_ok();
        pool.pwb(self.root_word, X_ROOT);
        pool.psync();
        found
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
        let seq = ctx.rd();
        let st = self.cur_state();
        if seq != 0 && st.applied_seq(pool, tid) == seq {
            return Some(st.result(pool, tid));
        }
        let (op, _key, aseq) = unpack(pool.load(self.ann(tid)));
        if op != A_NONE && aseq == seq {
            // The announcement survived: let combining finish it.
            return Some(self.combine_until_applied(tid, seq));
        }
        None // never announced durably, never applied: re-invoke
    }

    /// Live keys in order (quiescent only).
    pub fn keys(&self) -> Vec<u64> {
        let pool = &*self.pool;
        let st = self.cur_state();
        (0..st.nkeys(pool)).map(|i| st.key_at(pool, i)).collect()
    }

    /// Checks sortedness (quiescent); returns the key count.
    pub fn check_invariants(&self) -> usize {
        let ks = self.keys();
        assert!(
            ks.windows(2).all(|w| w[0] < w[1]),
            "state keys must be strictly sorted"
        );
        ks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PessimistAdversary, PoolCfg};
    use std::collections::BTreeSet;

    fn setup() -> (Arc<PmemPool>, RedoSet, ThreadCtx) {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(64 << 20)));
        let set = RedoSet::new(pool.clone(), 6, 8, 256);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        (pool, set, ctx)
    }

    #[test]
    fn basics() {
        let (_p, set, ctx) = setup();
        assert!(!set.find(&ctx, 10));
        assert!(set.insert(&ctx, 10));
        assert!(set.find(&ctx, 10));
        assert!(!set.insert(&ctx, 10));
        assert!(set.delete(&ctx, 10));
        assert!(!set.find(&ctx, 10));
        assert!(!set.delete(&ctx, 10));
        assert_eq!(set.check_invariants(), 0);
    }

    #[test]
    fn matches_reference_model_sequentially() {
        let (_p, set, ctx) = setup();
        let mut model = BTreeSet::new();
        let mut rng = 0xABCDu64;
        for _ in 0..1500 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (rng >> 33) % 60 + 1;
            match (rng >> 20) % 3 {
                0 => assert_eq!(set.insert(&ctx, key), model.insert(key), "insert {key}"),
                1 => assert_eq!(set.delete(&ctx, key), model.remove(&key), "delete {key}"),
                _ => assert_eq!(set.find(&ctx, key), model.contains(&key), "find {key}"),
            }
        }
        assert_eq!(set.keys(), model.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn keys_stay_sorted_through_shifting() {
        let (_p, set, ctx) = setup();
        for k in [9u64, 3, 7, 1, 5] {
            assert!(set.insert(&ctx, k));
        }
        assert_eq!(set.keys(), vec![1, 3, 5, 7, 9]);
        assert!(set.delete(&ctx, 1)); // head shift
        assert!(set.delete(&ctx, 9)); // tail pop
        assert!(set.delete(&ctx, 5)); // middle shift
        assert_eq!(set.keys(), vec![3, 7]);
    }

    #[test]
    fn concurrent_mixed_ops_preserve_invariants() {
        let (p, set, _ctx) = setup();
        let mut handles = vec![];
        for t in 0..4usize {
            let set = set.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            handles.push(std::thread::spawn(move || {
                let mut rng = pmem::Rng((t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
                for _ in 0..200 {
                    let r = rng.next();
                    let key = r % 40 + 1;
                    match (r >> 32) % 3 {
                        0 => {
                            set.insert(&ctx, key);
                        }
                        1 => {
                            set.delete(&ctx, key);
                        }
                        _ => {
                            set.find(&ctx, key);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        set.check_invariants();
    }

    #[test]
    fn concurrent_inserts_same_key_exactly_one_wins() {
        let (p, set, _ctx) = setup();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
        let mut handles = vec![];
        for t in 0..4usize {
            let set = set.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                set.insert(&ctx, 77)
            }));
        }
        let wins: usize = handles
            .into_iter()
            .map(|h| h.join().unwrap() as usize)
            .sum();
        assert_eq!(wins, 1);
        assert_eq!(set.keys(), vec![77]);
    }

    #[test]
    fn crash_swept_insert_recovers_detectably() {
        for crash_at in 0..4000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(64 << 20)));
            let set = RedoSet::new(pool.clone(), 6, 4, 64);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            ctx.begin_op(X_RD);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| set.insert_started(&ctx, 5));
            pool.crash(&mut PessimistAdversary);
            match pre {
                Some(r) => {
                    assert!(r);
                    assert_eq!(set.keys(), vec![5]);
                    return;
                }
                None => {
                    assert!(set.recover_insert(&ctx, 5), "crash_at={crash_at}");
                    assert_eq!(set.keys(), vec![5], "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn recovery_of_completed_op_returns_recorded_result() {
        let (_p, set, ctx) = setup();
        assert!(set.insert(&ctx, 9));
        assert!(set.recover_insert(&ctx, 9));
        assert_eq!(set.keys(), vec![9]);
    }

    #[test]
    #[should_panic(expected = "packing range")]
    fn oversized_keys_rejected() {
        let (_p, set, ctx) = setup();
        set.insert(&ctx, KEY_LIMIT + 1);
    }
}
