//! A detectably recoverable FIFO queue derived with Tracking — an extra
//! structure beyond the paper's three, exercising the generic engine on a
//! Michael–Scott-style queue (the paper argues Tracking applies to "a large
//! collection of concurrent data structures"; recoverable queues are its
//! §7 point of comparison with Friedman et al.).
//!
//! Representation: a singly linked chain of `⟨value, next, info⟩` nodes.
//! A persistent root cell holds the **head sentinel** pointer; a second,
//! purely volatile hint accelerates locating the last node.
//!
//! * **Enqueue(v)** appends to the last node `L` (found by chasing `next`
//!   from the tail hint): AffectSet = `{L}` (stays in the chain ⇒ untag at
//!   cleanup), WriteSet = `{L.next: ⊥ → new}`, NewSet = `{new}`. Appending
//!   is safe even if `L` has already been consumed: the head pointer can
//!   only move *past* `L` after `L.next` is non-null, in which case the
//!   append CAS fails and the operation retries further down the chain.
//! * **Dequeue** consumes the successor `F` of the head sentinel `H` and
//!   makes `F` the new sentinel: AffectSet = `{H}` (leaves the structure ⇒
//!   tagged forever), WriteSet = `{head-cell: H → F}`, response =
//!   `F.value`. Before publishing, a dequeue persists the head cell: `H`
//!   may be the sentinel of a dequeue whose head-cell CAS is not yet
//!   durable, and a durable tag on `H` must not outlive that move.
//!   Competing dequeues serialize on `H`'s tag; the head cell
//!   CAS is ABA-free because sentinels advance through node addresses that
//!   are never reused *within an operation window* — fresh forever on the
//!   default bump pool, and on a `pmem::PoolCfg::reclaim` pool re-issued
//!   only after an epoch quiescence that no window spans (consumed
//!   sentinels are retired to `pmem::palloc` limbo; descriptors are never
//!   recycled, so info version stamps stay unique).
//! * **Empty dequeue** is a read-only outcome: gather `H` (untagged),
//!   observe `H.next = ⊥`, and re-validate that `H` is still the sentinel —
//!   head only moves forward, so the queue was empty at the observation.
//!   It builds no descriptor; it records the immediate `RD_q := FALSE`.
//!
//! Recovery is the standard Op-Recover skeleton over `CP_q`/`RD_q`.

use std::sync::Arc;

use pmem::{PAddr, PmemPool, ThreadCtx};

use crate::descriptor::{AffectEntry, Desc, WriteEntry};
use crate::help::{help, help_tagged};
use crate::op;
use crate::result::{dec_val, enc_val, BOTTOM, FALSE};
use crate::sites::{S_CP, S_NEW, S_UPDATE};

/// Descriptor op-type tag for enqueues.
pub const OP_ENQ: u8 = 10;
/// Descriptor op-type tag for dequeues.
pub const OP_DEQ: u8 = 11;

// Node layout (one cache line): w0 value, w1 next, w2 info.
const N_VALUE: u64 = 0;
const N_NEXT: u64 = 1;
const N_INFO: u64 = 2;

/// Largest enqueueable value (room for the result encoding).
pub const VALUE_MAX: u64 = u64::MAX - 4;

/// The detectably recoverable FIFO queue.
#[derive(Clone)]
pub struct RecoverableQueue {
    pool: Arc<PmemPool>,
    /// Persistent cell holding the head-sentinel pointer.
    head_cell: PAddr,
    /// Volatile-use cell holding a tail hint (never relied upon).
    tail_hint: PAddr,
}

impl RecoverableQueue {
    /// Creates a queue using root cells `root_idx` (head) and
    /// `root_idx + 1` (tail hint), or re-attaches.
    pub fn new(pool: Arc<PmemPool>, root_idx: usize) -> Self {
        let head_cell = pool.root(root_idx);
        let tail_hint = pool.root(root_idx + 1);
        if pool.load(head_cell) == 0 {
            let sentinel = pool.alloc_lines(1);
            pool.pwb(sentinel, S_NEW);
            pool.pfence();
            pool.store(head_cell, sentinel.raw());
            pool.store(tail_hint, sentinel.raw());
            pool.pbarrier(head_cell, 1, S_NEW);
        }
        RecoverableQueue {
            pool,
            head_cell,
            tail_hint,
        }
    }

    /// The owning pool.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    /// Chases `next` pointers from the tail hint to the last node, and the
    /// last node's `info` gathered on first access.
    fn find_last(&self) -> (PAddr, u64) {
        let pool = &*self.pool;
        let mut nd = PAddr::from_raw(pool.load(self.tail_hint));
        if nd.is_null() {
            nd = PAddr::from_raw(pool.load(self.head_cell));
        }
        loop {
            let next = pool.load(nd.add(N_NEXT));
            if next == 0 {
                let info = pool.load(nd.add(N_INFO));
                // re-check: still last after gathering the version stamp?
                if pool.load(nd.add(N_NEXT)) == 0 {
                    return (nd, info);
                }
            } else {
                nd = PAddr::from_raw(next);
            }
        }
    }

    /// Appends `value` at the tail.
    pub fn enqueue(&self, ctx: &ThreadCtx, value: u64) {
        ctx.begin_op(S_CP);
        self.enqueue_started(ctx, value)
    }

    /// [`Self::enqueue`] without the system's `CP_q := 0` pre-step.
    pub fn enqueue_started(&self, ctx: &ThreadCtx, value: u64) {
        assert!(value <= VALUE_MAX, "value too large to encode");
        let pool = &*self.pool;
        // The new node is allocated once and reused across attempts.
        let new = ctx.palloc(1);
        pool.store(new.add(N_VALUE), value);
        op::begin(ctx);
        loop {
            // Gather
            let (last, last_info) = self.find_last();
            // Helping
            if help_tagged(pool, &[last_info]) {
                continue;
            }
            let desc = Desc::alloc(pool);
            pool.store(new.add(N_INFO), desc.tagged());
            desc.init(
                pool,
                OP_ENQ,
                enc_val(value), // response of a successful enqueue: its value
                &[AffectEntry {
                    info_addr: last.add(N_INFO),
                    observed: last_info,
                    untag_on_cleanup: true,
                }],
                &[WriteEntry {
                    field: last.add(N_NEXT),
                    old: 0,
                    new: new.raw(),
                }],
                &[new.add(N_INFO)],
            );
            op::publish(ctx, desc, &[new]);
            help(pool, desc);
            if desc.result(pool) != BOTTOM {
                // best-effort tail hint (volatile semantics: safe to lose)
                pool.store(self.tail_hint, new.raw());
                return;
            }
        }
    }

    /// `Enqueue.Recover`.
    pub fn recover_enqueue(&self, ctx: &ThreadCtx, value: u64) {
        if op::recover(ctx) == BOTTOM {
            self.enqueue(ctx, value)
        }
    }

    /// Removes and returns the oldest value, or `None` when empty.
    pub fn dequeue(&self, ctx: &ThreadCtx) -> Option<u64> {
        ctx.begin_op(S_CP);
        self.dequeue_started(ctx)
    }

    /// [`Self::dequeue`] without the system's `CP_q := 0` pre-step.
    pub fn dequeue_started(&self, ctx: &ThreadCtx) -> Option<u64> {
        let pool = &*self.pool;
        op::begin(ctx);
        loop {
            // Gather
            let h = PAddr::from_raw(pool.load(self.head_cell));
            let h_info = pool.load(h.add(N_INFO));
            // Helping
            if help_tagged(pool, &[h_info]) {
                continue;
            }
            let next = pool.load(h.add(N_NEXT));
            if next == 0 {
                // Read-only empty outcome; valid only if h is still the
                // sentinel (head moves forward only, so the queue was empty
                // at the observation of h.next).
                if pool.load(self.head_cell) != h.raw() {
                    continue;
                }
                op::record_false(ctx);
                return None;
            }
            let desc = Desc::alloc(pool);
            let f = PAddr::from_raw(next);
            let value = pool.load(f.add(N_VALUE)); // immutable once published
            desc.init(
                pool,
                OP_DEQ,
                enc_val(value),
                &[AffectEntry {
                    info_addr: h.add(N_INFO),
                    observed: h_info,
                    untag_on_cleanup: false, // h leaves the structure
                }],
                &[WriteEntry {
                    field: self.head_cell,
                    old: h.raw(),
                    new: f.raw(),
                }],
                &[],
            );
            // `h` may be the sentinel of a dequeue whose head-cell CAS is
            // not yet durable. Persist the head cell (the publish fence
            // orders it) before tagging `h`: a durable tag on a sentinel
            // the head cell can still revert past would let recovery take
            // this dequeue's failed CAS for "done".
            pool.pwb(self.head_cell, S_UPDATE);
            op::publish(ctx, desc, &[]);
            help(pool, desc);
            let r = desc.result(pool);
            if r != BOTTOM {
                if r != FALSE {
                    // The head cell durably moved past h (help fenced the
                    // WriteSet CAS): the old sentinel is out of the chain.
                    // It keeps its tag; late dequeuers that gathered h
                    // still help through its intact info word.
                    ctx.retire(h, 1);
                }
                return if r == FALSE { None } else { Some(dec_val(r)) };
            }
        }
    }

    /// `Dequeue.Recover`.
    pub fn recover_dequeue(&self, ctx: &ThreadCtx) -> Option<u64> {
        match op::recover(ctx) {
            BOTTOM => self.dequeue(ctx),
            FALSE => None,
            r => Some(dec_val(r)),
        }
    }

    /// Values from head to tail (quiescent only).
    pub fn values(&self) -> Vec<u64> {
        let pool = &*self.pool;
        let mut out = Vec::new();
        let mut nd = PAddr::from_raw(pool.load(self.head_cell));
        loop {
            let next = pool.load(nd.add(N_NEXT));
            if next == 0 {
                return out;
            }
            nd = PAddr::from_raw(next);
            out.push(pool.load(nd.add(N_VALUE)));
        }
    }

    /// Number of queued values (quiescent only).
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// Is the queue empty (quiescent only)?
    pub fn is_empty(&self) -> bool {
        self.pool
            .load(PAddr::from_raw(self.pool.load(self.head_cell)).add(N_NEXT))
            == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PmemPool, PoolCfg};

    fn setup() -> (Arc<PmemPool>, RecoverableQueue, ThreadCtx) {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
        let q = RecoverableQueue::new(pool.clone(), 4);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        (pool, q, ctx)
    }

    /// A completed empty dequeue recovers to its recorded `None` even after
    /// another thread enqueued (what a recovery after a clean stop sees); a
    /// bare re-invocation would consume that thread's value.
    #[test]
    fn read_only_outcome_recovers_recorded_false_after_a_flip() {
        let (p, q, a) = setup();
        let b = ThreadCtx::new(p, 1);
        assert_eq!(q.dequeue(&a), None);
        q.enqueue(&b, 9);
        assert_eq!(q.recover_dequeue(&a), None);
        assert_eq!(q.values(), vec![9], "B's enqueue consumed");
    }

    #[test]
    fn fifo_order() {
        let (_p, q, ctx) = setup();
        assert!(q.is_empty());
        assert_eq!(q.dequeue(&ctx), None);
        for v in [3u64, 1, 4, 1, 5] {
            q.enqueue(&ctx, v);
        }
        assert_eq!(q.values(), vec![3, 1, 4, 1, 5]);
        assert_eq!(q.dequeue(&ctx), Some(3));
        assert_eq!(q.dequeue(&ctx), Some(1));
        q.enqueue(&ctx, 9);
        assert_eq!(q.values(), vec![4, 1, 5, 9]);
        for want in [4u64, 1, 5, 9] {
            assert_eq!(q.dequeue(&ctx), Some(want));
        }
        assert_eq!(q.dequeue(&ctx), None);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_and_refill_repeatedly() {
        let (_p, q, ctx) = setup();
        for round in 0..5u64 {
            for v in 0..20 {
                q.enqueue(&ctx, round * 100 + v);
            }
            for v in 0..20 {
                assert_eq!(q.dequeue(&ctx), Some(round * 100 + v));
            }
            assert_eq!(q.dequeue(&ctx), None, "round {round}");
        }
    }

    #[test]
    fn concurrent_producers_consumers_lose_nothing() {
        let (p, q, _ctx) = setup();
        let produced: u64 = 2 * 300;
        let mut handles = vec![];
        for t in 0..2u64 {
            let q = q.clone();
            let ctx = ThreadCtx::new(p.clone(), t as usize);
            handles.push(std::thread::spawn(move || {
                for i in 0..300u64 {
                    q.enqueue(&ctx, t * 1000 + i);
                }
                Vec::new()
            }));
        }
        for t in 2..4u64 {
            let q = q.clone();
            let ctx = ThreadCtx::new(p.clone(), t as usize);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while got.len() < 300 {
                    if let Some(v) = q.dequeue(&ctx) {
                        got.push(v);
                    }
                }
                got
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        assert_eq!(all.len() as u64, produced);
        all.sort_unstable();
        let mut want: Vec<u64> = (0..300u64).chain((0..300u64).map(|i| 1000 + i)).collect();
        want.sort_unstable();
        assert_eq!(all, want, "every produced value consumed exactly once");
        assert!(q.is_empty());
    }

    #[test]
    fn per_producer_fifo_preserved() {
        // one producer, one consumer: strict FIFO end to end
        let (p, q, _ctx) = setup();
        let prod = {
            let q = q.clone();
            let ctx = ThreadCtx::new(p.clone(), 0);
            std::thread::spawn(move || {
                for i in 0..500u64 {
                    q.enqueue(&ctx, i);
                }
            })
        };
        let cons = {
            let q = q.clone();
            let ctx = ThreadCtx::new(p.clone(), 1);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while got.len() < 500 {
                    if let Some(v) = q.dequeue(&ctx) {
                        got.push(v);
                    }
                }
                got
            })
        };
        prod.join().unwrap();
        let got = cons.join().unwrap();
        assert_eq!(got, (0..500u64).collect::<Vec<_>>());
    }

    #[test]
    fn crash_swept_enqueue_recovers_exactly_once() {
        for crash_at in 0..2000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
            let q = RecoverableQueue::new(pool.clone(), 4);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            q.enqueue(&ctx, 1);
            ctx.begin_op(S_CP);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| q.enqueue_started(&ctx, 2));
            pool.crash(&mut pmem::PessimistAdversary);
            match pre {
                Some(()) => {
                    assert_eq!(q.values(), vec![1, 2]);
                    return;
                }
                None => {
                    q.recover_enqueue(&ctx, 2);
                    assert_eq!(
                        q.values(),
                        vec![1, 2],
                        "crash_at={crash_at}: exactly-once append"
                    );
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn crash_swept_dequeue_recovers_exactly_once() {
        for crash_at in 0..2000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
            let q = RecoverableQueue::new(pool.clone(), 4);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            q.enqueue(&ctx, 7);
            q.enqueue(&ctx, 8);
            ctx.begin_op(S_CP);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| q.dequeue_started(&ctx));
            pool.crash(&mut pmem::PessimistAdversary);
            match pre {
                Some(r) => {
                    assert_eq!(r, Some(7));
                    assert_eq!(q.values(), vec![8]);
                    return;
                }
                None => {
                    let r = q.recover_dequeue(&ctx);
                    assert_eq!(r, Some(7), "crash_at={crash_at}: exactly-once dequeue");
                    assert_eq!(q.values(), vec![8], "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    /// Dequeue D2 crashes right after its head-cell CAS, so the head move
    /// exists only in volatile memory. Dequeue D0 gathers the moved head,
    /// tags the new sentinel and crashes right after its tagging psync.
    /// After a pessimist crash, recovering D0 before D2 must still hand
    /// out every value exactly once: D0's durable tag must not outlive the
    /// head move it builds on.
    #[test]
    fn dequeue_over_an_unpersisted_head_move_recovers_exactly_once() {
        let pool = Arc::new(PmemPool::new(PoolCfg {
            trace: true,
            trace_capacity: 1 << 16,
            ..PoolCfg::model(16 << 20)
        }));
        let q = RecoverableQueue::new(pool.clone(), 4);
        let d0 = ThreadCtx::new(pool.clone(), 0);
        let d2 = ThreadCtx::new(pool.clone(), 2);
        for v in 1..=4 {
            q.enqueue(&d0, v);
        }
        // Runs `deq` crash-free from a checkpoint, finds the index of the
        // event `at` picks out, rewinds, and replays `deq` to crash right
        // after that event.
        let crash_after = |deq: &dyn Fn(), at: &dyn Fn(&[pmem::Event]) -> usize| {
            let snap = pool.snapshot();
            pool.trace_clear();
            deq();
            let k = at(&pool.trace_snapshot().events) as u64;
            pool.restore(&snap);
            pool.crash_ctl().arm_after(k + 1);
            assert!(pmem::run_crashable(deq).is_none(), "crash did not fire");
        };
        let head = q.head_cell.raw();
        crash_after(
            &|| {
                q.dequeue(&d2);
            },
            &|ev| {
                ev.iter()
                    .position(|e| e.kind == pmem::EventKind::Cas && e.addr == head)
                    .expect("D2 moves the head")
            },
        );
        let moved = pool.load(q.head_cell);
        assert_ne!(
            pool.persisted_load(q.head_cell),
            moved,
            "head move is volatile"
        );
        let new_info = PAddr::from_raw(moved).add(N_INFO).raw();
        crash_after(
            &|| {
                q.dequeue(&d0);
            },
            &|ev| {
                let tag = ev
                    .iter()
                    .position(|e| e.kind == pmem::EventKind::Cas && e.addr == new_info)
                    .expect("D0 tags the new sentinel");
                tag + ev[tag..]
                    .iter()
                    .position(|e| e.kind == pmem::EventKind::Psync)
                    .expect("tagging psync")
            },
        );
        pool.crash(&mut pmem::PessimistAdversary);
        let mut out: Vec<u64> = [q.recover_dequeue(&d0), q.recover_dequeue(&d2)]
            .into_iter()
            .flatten()
            .chain(q.values())
            .collect();
        out.sort_unstable();
        assert_eq!(out, vec![1, 2, 3, 4], "every value exactly once");
    }

    #[test]
    fn recovery_of_completed_dequeue_replays_response() {
        let (_p, q, ctx) = setup();
        q.enqueue(&ctx, 42);
        assert_eq!(q.dequeue(&ctx), Some(42));
        assert_eq!(
            q.recover_dequeue(&ctx),
            Some(42),
            "must replay, not re-dequeue"
        );
        assert!(q.is_empty());
    }

    #[test]
    fn recovery_of_empty_dequeue_replays_none() {
        let (_p, q, ctx) = setup();
        assert_eq!(q.dequeue(&ctx), None);
        assert_eq!(q.recover_dequeue(&ctx), None);
    }
}
