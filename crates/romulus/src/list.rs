//! A sorted-list set as Romulus transactions — the structure the paper
//! benchmarks against Tracking.
//!
//! Nodes (`⟨key, next⟩`, region offsets) live in the managed region and are
//! recycled through a free list; both are safe because update transactions
//! are serialized by the writer lock and readers validate against the
//! seqlock. Detectability: each update transaction also writes the
//! operation's sequence number and result into the calling thread's
//! persistent result slot *inside the region*, so the response commits
//! atomically with the update — after a crash, the slot tells exactly
//! whether the interrupted operation took effect.

use std::sync::Arc;

use pmem::{PmemPool, ThreadCtx};

use crate::sites::R_RD;
use crate::tm::{Off, ReadTx, RomulusTm, WriteTx};

/// Sentinel key of the region head node.
pub const KEY_MIN: u64 = 0;
/// Sentinel key of the region tail node.
pub const KEY_MAX: u64 = u64::MAX;

// Region layout (word offsets)
const ALLOC_NEXT: Off = 0;
const FREE_HEAD: Off = 1;
const LIST_HEAD: Off = 2;
const OPRES_BASE: Off = 8;
// nodes: {key, next}
const NK: u64 = 0;
const NN: u64 = 1;

/// The Romulus-backed detectably recoverable sorted-list set.
#[derive(Clone)]
pub struct RomulusList {
    tm: Arc<RomulusTm>,
    threads: usize,
}

impl RomulusList {
    /// Creates (or re-attaches to) a list inside a fresh TM rooted at
    /// `root_idx`, with capacity for roughly `max_keys` live keys.
    pub fn new(pool: Arc<PmemPool>, root_idx: usize, max_keys: usize) -> Self {
        pool.register_site_names(&crate::sites::SITES);
        let threads = pool.max_threads();
        let heap_base = OPRES_BASE + threads as u64;
        // head + tail + max_keys nodes, 2 words each, plus headroom
        let size = heap_base as usize + 2 * (max_keys + 8);
        let tm = RomulusTm::new(pool, root_idx, size);
        let list = RomulusList { tm, threads };
        list.tm.write_tx(|tx| {
            if tx.read(LIST_HEAD) != 0 {
                return; // already initialized (re-attach)
            }
            tx.write(ALLOC_NEXT, heap_base);
            let head = Self::alloc_node(tx);
            let tail = Self::alloc_node(tx);
            tx.write(head + NK, KEY_MIN);
            tx.write(head + NN, tail);
            tx.write(tail + NK, KEY_MAX);
            tx.write(tail + NN, 0);
            tx.write(LIST_HEAD, head);
        });
        list
    }

    /// The owning pool.
    pub fn pool(&self) -> &PmemPool {
        self.tm.pool()
    }

    /// The underlying TM (e.g. to run [`RomulusTm::recover`] after a crash).
    pub fn tm(&self) -> &Arc<RomulusTm> {
        &self.tm
    }

    fn alloc_node(tx: &mut WriteTx<'_>) -> Off {
        let fh = tx.read(FREE_HEAD);
        if fh != 0 {
            tx.write(FREE_HEAD, tx.read(fh + NN));
            fh
        } else {
            let n = tx.read(ALLOC_NEXT);
            tx.write(ALLOC_NEXT, n + 2);
            n
        }
    }

    fn free_node(tx: &mut WriteTx<'_>, off: Off) {
        tx.write(off + NN, tx.read(FREE_HEAD));
        tx.write(FREE_HEAD, off);
    }

    fn opres_slot(&self, ctx: &ThreadCtx) -> Off {
        assert!(ctx.tid() < self.threads);
        OPRES_BASE + ctx.tid() as u64
    }

    /// Next per-thread op sequence number (from the committed result slot).
    fn next_seq(&self, ctx: &ThreadCtx) -> u64 {
        let slot = self.opres_slot(ctx);
        (self.tm.read_tx(|r| Some(r.read(slot))) >> 1) + 1
    }

    /// Persist the operation's identity (`RD_q := seq`, then `CP_q := 1`)
    /// before running its transaction.
    fn prologue(&self, ctx: &ThreadCtx, seq: u64) {
        let pool = self.tm.pool();
        ctx.set_rd(seq);
        pool.pbarrier(ctx.rd_addr(), 1, R_RD);
        ctx.set_cp(1);
        pool.pwb(ctx.cp_addr(), R_RD);
        pool.psync();
    }

    fn search_tx(tx: &WriteTx<'_>, key: u64) -> (Off, Off) {
        let mut pred = tx.read(LIST_HEAD);
        let mut curr = tx.read(pred + NN);
        while tx.read(curr + NK) < key {
            pred = curr;
            curr = tx.read(curr + NN);
        }
        (pred, curr)
    }

    /// Inserts `key`; returns `false` if already present.
    pub fn insert(&self, ctx: &ThreadCtx, key: u64) -> bool {
        ctx.begin_op(R_RD);
        self.insert_started(ctx, key)
    }

    /// [`Self::insert`] without the system's `CP_q := 0` pre-step.
    pub fn insert_started(&self, ctx: &ThreadCtx, key: u64) -> bool {
        assert!(key > KEY_MIN && key < KEY_MAX);
        let seq = self.next_seq(ctx);
        self.prologue(ctx, seq);
        let slot = self.opres_slot(ctx);
        self.tm.write_tx(|tx| {
            let (pred, curr) = Self::search_tx(tx, key);
            let r = if tx.read(curr + NK) == key {
                false
            } else {
                let n = Self::alloc_node(tx);
                tx.write(n + NK, key);
                tx.write(n + NN, curr);
                tx.write(pred + NN, n);
                true
            };
            tx.write(slot, seq << 1 | r as u64);
            r
        })
    }

    /// Deletes `key`; returns `false` if absent.
    pub fn delete(&self, ctx: &ThreadCtx, key: u64) -> bool {
        ctx.begin_op(R_RD);
        self.delete_started(ctx, key)
    }

    /// [`Self::delete`] without the system's `CP_q := 0` pre-step.
    pub fn delete_started(&self, ctx: &ThreadCtx, key: u64) -> bool {
        assert!(key > KEY_MIN && key < KEY_MAX);
        let seq = self.next_seq(ctx);
        self.prologue(ctx, seq);
        let slot = self.opres_slot(ctx);
        self.tm.write_tx(|tx| {
            let (pred, curr) = Self::search_tx(tx, key);
            let r = if tx.read(curr + NK) != key {
                false
            } else {
                tx.write(pred + NN, tx.read(curr + NN));
                Self::free_node(tx, curr);
                true
            };
            tx.write(slot, seq << 1 | r as u64);
            r
        })
    }

    /// Is `key` present? Optimistic read transaction; no persistence (as in
    /// Romulus, read transactions touch no persistent metadata).
    pub fn find(&self, ctx: &ThreadCtx, key: u64) -> bool {
        let _ = ctx;
        self.tm.read_tx(|r| Self::find_in(r, key))
    }

    fn find_in(r: &ReadTx<'_>, key: u64) -> Option<bool> {
        // Bounded traversal: a torn read could route us into recycled nodes,
        // so give up (and re-validate) after more steps than nodes can exist.
        let mut steps = r.size_words() / 2 + 2;
        let mut curr = r.read(r.read(LIST_HEAD) + NN);
        loop {
            if curr == 0 {
                return None; // torn: fell off the list
            }
            let k = r.read(curr + NK);
            if k >= key {
                return Some(k == key);
            }
            curr = r.read(curr + NN);
            steps -= 1;
            if steps == 0 {
                return None;
            }
        }
    }

    /// `Insert.Recover`: run TM recovery first, then decide from the
    /// committed result slot.
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
        self.tm.recover();
        self.find(ctx, key)
    }

    fn recover_update(&self, ctx: &ThreadCtx) -> Option<bool> {
        self.tm.recover();
        if ctx.cp() == 0 {
            return None;
        }
        let seq = ctx.rd();
        let committed = self.tm.read_tx(|r| Some(r.read(self.opres_slot(ctx))));
        if committed >> 1 == seq {
            Some(committed & 1 == 1)
        } else {
            None // the transaction never committed; re-invoke
        }
    }

    /// Live keys in order (quiescent only).
    pub fn keys(&self) -> Vec<u64> {
        self.tm.read_tx(|r| {
            let mut out = Vec::new();
            let mut curr = r.read(r.read(LIST_HEAD) + NN);
            loop {
                let k = r.read(curr + NK);
                if k == KEY_MAX {
                    return Some(out);
                }
                out.push(k);
                curr = r.read(curr + NN);
            }
        })
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
    use pmem::{PessimistAdversary, PmemPool, PoolCfg};
    use std::collections::BTreeSet;

    fn setup() -> (Arc<PmemPool>, RomulusList, ThreadCtx) {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
        let list = RomulusList::new(pool.clone(), 5, 1000);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        (pool, list, ctx)
    }

    #[test]
    fn basics() {
        let (_p, list, ctx) = setup();
        assert!(!list.find(&ctx, 10));
        assert!(list.insert(&ctx, 10));
        assert!(list.find(&ctx, 10));
        assert!(!list.insert(&ctx, 10));
        assert!(list.delete(&ctx, 10));
        assert!(!list.find(&ctx, 10));
        assert!(!list.delete(&ctx, 10));
        assert_eq!(list.check_invariants(), 0);
    }

    #[test]
    fn matches_reference_model_sequentially() {
        let (_p, list, ctx) = setup();
        let mut model = BTreeSet::new();
        let mut rng = 0xFACEu64;
        for _ in 0..2000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (rng >> 33) % 60 + 1;
            match (rng >> 20) % 3 {
                0 => assert_eq!(list.insert(&ctx, key), model.insert(key), "insert {key}"),
                1 => assert_eq!(list.delete(&ctx, key), model.remove(&key), "delete {key}"),
                _ => assert_eq!(list.find(&ctx, key), model.contains(&key), "find {key}"),
            }
        }
        assert_eq!(list.keys(), model.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn node_recycling_reuses_freed_slots() {
        let (_p, list, ctx) = setup();
        for round in 0..5 {
            for k in 1..=50u64 {
                assert!(list.insert(&ctx, k), "round {round} insert {k}");
            }
            for k in 1..=50u64 {
                assert!(list.delete(&ctx, k), "round {round} delete {k}");
            }
        }
        assert_eq!(list.check_invariants(), 0);
        // Allocation watermark must not have grown by 5x: the free list
        // recycles.
        let used = list.tm.read_tx(|r| Some(r.read(ALLOC_NEXT)));
        assert!(
            used < OPRES_BASE + 128_u64 + 2 * 60,
            "free list not recycling: {used}"
        );
    }

    #[test]
    fn concurrent_mixed_ops_preserve_invariants() {
        let (p, list, _ctx) = setup();
        let mut handles = vec![];
        for t in 0..4usize {
            let list = list.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            handles.push(std::thread::spawn(move || {
                let mut rng = pmem::Rng((t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
                for _ in 0..300 {
                    let r = rng.next();
                    let key = r % 40 + 1;
                    match (r >> 32) % 3 {
                        0 => {
                            list.insert(&ctx, key);
                        }
                        1 => {
                            list.delete(&ctx, key);
                        }
                        _ => {
                            list.find(&ctx, key);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        list.check_invariants();
    }

    #[test]
    fn crash_swept_insert_recovers_detectably() {
        for crash_at in 0..4000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
            let list = RomulusList::new(pool.clone(), 5, 100);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            ctx.begin_op(R_RD);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| list.insert_started(&ctx, 5));
            pool.crash(&mut PessimistAdversary);
            match pre {
                Some(r) => {
                    assert!(r);
                    list.tm.recover();
                    assert_eq!(list.keys(), vec![5]);
                    return;
                }
                None => {
                    assert!(list.recover_insert(&ctx, 5), "crash_at={crash_at}");
                    assert_eq!(list.keys(), vec![5], "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn recovery_of_completed_op_returns_recorded_result() {
        let (_p, list, ctx) = setup();
        assert!(list.insert(&ctx, 9));
        assert!(list.recover_insert(&ctx, 9));
        assert_eq!(list.keys(), vec![9]);
    }
}
