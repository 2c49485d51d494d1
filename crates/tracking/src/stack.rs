//! A detectably recoverable LIFO stack derived with Tracking — a
//! Treiber-style stack driven by the generic engine (recoverable stacks
//! are among the hand-crafted structures the paper's related work cites;
//! here the same generic transformation yields one).
//!
//! Representation: a `top` root cell pointing to a chain of
//! `⟨value, next, info⟩` nodes ending in a permanent **bottom sentinel**
//! (so `top` always names a taggable node).
//!
//! * **Push(v)**: AffectSet = `{top-node}` (stays reachable as the new
//!   node's successor ⇒ untag at cleanup), WriteSet = `{top: old → new}`,
//!   NewSet = `{new}`.
//! * **Pop**: AffectSet = `{top-node}` (leaves the structure ⇒ tagged
//!   forever), WriteSet = `{top: node → node.next}`, response =
//!   `node.value`. Popping the sentinel is the read-only empty case
//!   (recorded as the immediate `RD_q := FALSE`, without a descriptor),
//!   validated by re-reading `top` (which can ABA only through node
//!   addresses not seen earlier in the same operation window — always
//!   fresh on the default bump pool, and on a `pmem::PoolCfg::reclaim`
//!   pool recycled only across an epoch quiescence that no window spans;
//!   popped nodes are retired to `pmem::palloc` limbo).
//!
//! ## Why `top` stores a *stamped* pointer
//!
//! The `top` cell does not hold a bare node address: it holds
//! `node | (desc << STAMP_SHIFT)` where `desc` is the address of the
//! descriptor whose WriteSet installed the value. The stamp closes a real
//! linearizability hole that a bare-pointer Treiber top has under the
//! generic help engine — the **stale-helper CAS**:
//!
//! 1. Helper H observes node `T` tagged by push-descriptor `d`
//!    (installing `X` over `T`) and enters `help(d)`'s update phase.
//! 2. H stalls (OS preemption). The owner completes `d`, cleanup untags
//!    `T`; later `X` is popped; later still the stack shrinks until `T`
//!    is top again — a *bare* `top` now holds exactly the value H's
//!    update CAS expects.
//! 3. H wakes and its `CAS(top, T, X)` succeeds, reinstalling the
//!    long-popped `X`. The reinstall self-heals (X is still tagged by
//!    its pop descriptor, so the next arriving operation re-helps that
//!    pop and removes it), **but** any legitimate update CAS racing the
//!    rogue one fails and is ignored as "already applied" — silently
//!    losing a concurrent completed push. (The rare
//!    `stack_survives_crash_storms_exactly_once` failures that prompted
//!    this audit turned out to have two further, independent causes:
//!    the help engine's update phase was not psynced before the result
//!    store, so a crash could keep an operation's result while reverting
//!    its `top` update — see the update-phase comment in `help.rs` — and
//!    the shadow crash model itself could commit a stale line snapshot
//!    taken by a long-descheduled thread, rolling `top`'s persisted image
//!    back past thousands of completed pops — see `ShadowMem::pwb`.)
//!
//! Note that the *tagging* phase cannot prevent this: H legitimately saw
//! the tag while it was in place; nothing re-validates between that
//! observation and H's update CAS, and no recheck can (TOCTOU). What
//! does close it is making `top`'s *value* unrepeatable: descriptors are
//! allocated from a bump path and never recycled, so each
//! `(node, installing-desc)` pair appears in `top` at most once in the
//! pool's entire history. By induction no update CAS can succeed twice
//! — a value can only recur in `top` via an earlier successful rogue
//! CAS, and there is no first one. The queue needs no stamp on its
//! `L.next` WriteSet fields (written exactly once, never reset), but its
//! `head` cell shares the hazard on reclaim pools; see DESIGN.md.
//!
//! Only the `top` cell is stamped. Node `next` fields still hold bare
//! node addresses, and readers mask with `node_of` before dereferencing.
//!
//! ## Why the gather re-reads `top` after the info load
//!
//! The stack gathers in the order *protected field first, stamp second*
//! (`top_word`, then the top node's `info`) — the reverse of the list and
//! BST, whose traversals read each node's `info` before the child/next
//! pointer it protects. The reversed order opens a window the tag cannot
//! see: if `top` moves between the two loads (a push buries the gathered
//! node and untags it to a fresh version), the info read returns the
//! *current* stamp, the tagging CAS succeeds on a node that is no longer
//! top, and the update CAS on `top` fails and is ignored as "already
//! applied" — recording a success that never took structural effect (a
//! lost push, or a duplicated pop leaving a reachable node tagged
//! forever). Both gathers therefore re-read `top_cell` after the info
//! load and retry on mismatch; past that point any movement of `top`
//! must first tag the gathered node, which the tagging CAS detects. The
//! queue and exchanger need no such re-read: their displaced nodes keep
//! their tag forever, so a stale gather always lands on a tagged node.

use std::sync::Arc;

use pmem::{PAddr, PmemPool, ThreadCtx};

use crate::descriptor::{AffectEntry, Desc, WriteEntry};
use crate::help::{help, help_tagged};
use crate::op;
use crate::result::{dec_val, enc_val, BOTTOM, FALSE};
use crate::sites::{S_CP, S_NEW};

/// Descriptor op-type tag for pushes.
pub const OP_PUSH: u8 = 12;
/// Descriptor op-type tag for pops.
pub const OP_POP: u8 = 13;

// Node layout (one cache line): w0 value, w1 next, w2 info, w3 is_sentinel.
const N_VALUE: u64 = 0;
const N_NEXT: u64 = 1;
const N_INFO: u64 = 2;
const N_SENTINEL: u64 = 3;

/// Largest pushable value (room for the result encoding).
pub const VALUE_MAX: u64 = u64::MAX - 4;

/// Bit position of the installing-descriptor stamp inside the `top` word
/// (see module docs). Node and descriptor addresses are word indices and
/// must each fit below this shift, which holds for pools up to 32 GiB.
pub const STAMP_SHIFT: u32 = 32;

const ADDR_MASK: u64 = (1 << STAMP_SHIFT) - 1;

/// Extracts the node address from a stamped `top` word.
#[inline]
fn node_of(top_word: u64) -> PAddr {
    PAddr::from_raw(top_word & ADDR_MASK)
}

/// Builds the stamped `top` word installing `node` on behalf of `desc`.
#[inline]
fn stamped(node: PAddr, desc: Desc) -> u64 {
    let d = desc.addr().raw();
    debug_assert!(
        node.raw() <= ADDR_MASK && d <= ADDR_MASK,
        "pool too large for top stamps"
    );
    node.raw() | (d << STAMP_SHIFT)
}

/// The detectably recoverable LIFO stack.
#[derive(Clone)]
pub struct RecoverableStack {
    pool: Arc<PmemPool>,
    top_cell: PAddr,
}

impl RecoverableStack {
    /// Creates a stack rooted in root cell `root_idx`, or re-attaches.
    pub fn new(pool: Arc<PmemPool>, root_idx: usize) -> Self {
        let top_cell = pool.root(root_idx);
        if pool.load(top_cell) == 0 {
            let bottom = pool.alloc_lines(1);
            pool.store(bottom.add(N_SENTINEL), 1);
            pool.pwb(bottom, S_NEW);
            pool.pfence();
            pool.store(top_cell, bottom.raw());
            pool.pbarrier(top_cell, 1, S_NEW);
        }
        RecoverableStack { pool, top_cell }
    }

    /// The owning pool.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    /// Pushes `value`.
    pub fn push(&self, ctx: &ThreadCtx, value: u64) {
        ctx.begin_op(S_CP);
        self.push_started(ctx, value)
    }

    /// [`Self::push`] without the system's `CP_q := 0` pre-step.
    pub fn push_started(&self, ctx: &ThreadCtx, value: u64) {
        assert!(value <= VALUE_MAX, "value too large to encode");
        let pool = &*self.pool;
        let new = ctx.palloc(1);
        pool.store(new.add(N_VALUE), value);
        op::begin(ctx);
        loop {
            // Gather: the current (stamped) top word and the top node's
            // info version stamp.
            let top_word = pool.load(self.top_cell);
            let top = node_of(top_word);
            let info = pool.load(top.add(N_INFO));
            if help_tagged(pool, &[info]) {
                continue;
            }
            // Validate that `top` is still the top *after* the info read.
            // `top_word` was read before `info`: if `top` moved between the
            // two loads (a push buried this node and untagged it to a fresh
            // version), the gathered info is current and the tagging CAS
            // would succeed — yet the update CAS on `top` would fail against
            // the moved word and be ignored, recording a success for a node
            // that was never installed. The re-read closes the window: once
            // `top_cell` still holds `top_word` here, any later movement
            // must first tag this node, which the tagging CAS detects.
            if pool.load(self.top_cell) != top_word {
                continue;
            }
            let desc = Desc::alloc(pool, 1, 1, 1);
            pool.store(new.add(N_NEXT), top.raw());
            pool.store(new.add(N_INFO), desc.tagged());
            desc.init(
                pool,
                OP_PUSH,
                enc_val(value),
                &[AffectEntry {
                    info_addr: top.add(N_INFO),
                    observed: info,
                    untag_on_cleanup: true, // stays in the stack below `new`
                }],
                &[WriteEntry {
                    field: self.top_cell,
                    old: top_word,
                    new: stamped(new, desc),
                }],
                &[new.add(N_INFO)],
            );
            op::publish(ctx, desc, &[new]);
            help(pool, desc);
            if desc.result(pool) != BOTTOM {
                return;
            }
        }
    }

    /// `Push.Recover`.
    pub fn recover_push(&self, ctx: &ThreadCtx, value: u64) {
        if op::recover(ctx) == BOTTOM {
            self.push(ctx, value)
        }
    }

    /// Pops the most recent value, or `None` when empty.
    pub fn pop(&self, ctx: &ThreadCtx) -> Option<u64> {
        ctx.begin_op(S_CP);
        self.pop_started(ctx)
    }

    /// [`Self::pop`] without the system's `CP_q := 0` pre-step.
    pub fn pop_started(&self, ctx: &ThreadCtx) -> Option<u64> {
        let pool = &*self.pool;
        op::begin(ctx);
        loop {
            let top_word = pool.load(self.top_cell);
            let top = node_of(top_word);
            let info = pool.load(top.add(N_INFO));
            if help_tagged(pool, &[info]) {
                continue;
            }
            // Same stale-gather window as in `push_started`: without this
            // re-read, a pop whose `top_word` predates the info read could
            // tag a buried node, have its update CAS fail silently, and
            // report that node's value popped — a duplicate, with the node
            // left reachable and tagged forever (a help livelock for every
            // later traversal).
            if pool.load(self.top_cell) != top_word {
                continue;
            }
            if pool.load(top.add(N_SENTINEL)) == 1 {
                // Read-only empty outcome, validated against the stamped
                // top word and the info version stamp still being in place
                // (top may have moved).
                if pool.load(self.top_cell) != top_word || pool.load(top.add(N_INFO)) != info {
                    continue;
                }
                op::record_false(ctx);
                return None;
            }
            let desc = Desc::alloc(pool, 1, 1, 0);
            let value = pool.load(top.add(N_VALUE)); // immutable once published
            let next = pool.load(top.add(N_NEXT));
            desc.init(
                pool,
                OP_POP,
                enc_val(value),
                &[AffectEntry {
                    info_addr: top.add(N_INFO),
                    observed: info,
                    untag_on_cleanup: false, // leaves the stack
                }],
                &[WriteEntry {
                    field: self.top_cell,
                    old: top_word,
                    new: stamped(PAddr::from_raw(next), desc),
                }],
                &[],
            );
            op::publish(ctx, desc, &[]);
            help(pool, desc);
            let r = desc.result(pool);
            if r != BOTTOM {
                if r != FALSE {
                    // top durably moved past the popped node (help fenced
                    // the WriteSet CAS): retire it. Its tag and payload
                    // words stay intact for late helpers.
                    ctx.retire(top, 1);
                }
                return if r == FALSE { None } else { Some(dec_val(r)) };
            }
        }
    }

    /// `Pop.Recover`.
    pub fn recover_pop(&self, ctx: &ThreadCtx) -> Option<u64> {
        match op::recover(ctx) {
            BOTTOM => self.pop(ctx),
            FALSE => None,
            r => Some(dec_val(r)),
        }
    }

    /// Values from top to bottom (quiescent only).
    pub fn values(&self) -> Vec<u64> {
        let pool = &*self.pool;
        let mut out = Vec::new();
        let mut nd = node_of(pool.load(self.top_cell));
        while pool.load(nd.add(N_SENTINEL)) != 1 {
            out.push(pool.load(nd.add(N_VALUE)));
            nd = PAddr::from_raw(pool.load(nd.add(N_NEXT)));
        }
        out
    }

    /// Number of stacked values (quiescent only).
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// Is the stack empty (quiescent only)?
    pub fn is_empty(&self) -> bool {
        let top = node_of(self.pool.load(self.top_cell));
        self.pool.load(top.add(N_SENTINEL)) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PmemPool, PoolCfg};

    fn setup() -> (Arc<PmemPool>, RecoverableStack, ThreadCtx) {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
        let s = RecoverableStack::new(pool.clone(), 6);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        (pool, s, ctx)
    }

    /// A completed empty pop recovers to its recorded `None` even after
    /// another thread pushed (what a recovery after a clean stop sees); a
    /// bare re-invocation would pop that thread's value.
    #[test]
    fn read_only_outcome_recovers_recorded_false_after_a_flip() {
        let (p, st, a) = setup();
        let b = ThreadCtx::new(p, 1);
        assert_eq!(st.pop(&a), None);
        st.push(&b, 9);
        assert_eq!(st.recover_pop(&a), None);
        assert_eq!(st.values(), vec![9], "B's push popped");
    }

    #[test]
    fn lifo_order() {
        let (_p, s, ctx) = setup();
        assert!(s.is_empty());
        assert_eq!(s.pop(&ctx), None);
        for v in [1u64, 2, 3] {
            s.push(&ctx, v);
        }
        assert_eq!(s.values(), vec![3, 2, 1]);
        assert_eq!(s.pop(&ctx), Some(3));
        s.push(&ctx, 9);
        assert_eq!(s.pop(&ctx), Some(9));
        assert_eq!(s.pop(&ctx), Some(2));
        assert_eq!(s.pop(&ctx), Some(1));
        assert_eq!(s.pop(&ctx), None);
        assert!(s.is_empty());
    }

    #[test]
    fn empty_refill_cycles() {
        let (_p, s, ctx) = setup();
        for round in 0..5u64 {
            for v in 0..10 {
                s.push(&ctx, round * 100 + v);
            }
            for v in (0..10).rev() {
                assert_eq!(s.pop(&ctx), Some(round * 100 + v));
            }
            assert_eq!(s.pop(&ctx), None, "round {round}");
        }
    }

    #[test]
    fn concurrent_push_pop_loses_nothing() {
        let (p, s, _ctx) = setup();
        let mut handles = vec![];
        for t in 0..2u64 {
            let s = s.clone();
            let ctx = ThreadCtx::new(p.clone(), t as usize);
            handles.push(std::thread::spawn(move || {
                for i in 0..300u64 {
                    s.push(&ctx, t * 1000 + i);
                }
                Vec::new()
            }));
        }
        for t in 2..4u64 {
            let s = s.clone();
            let ctx = ThreadCtx::new(p.clone(), t as usize);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while got.len() < 300 {
                    if let Some(v) = s.pop(&ctx) {
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
        all.sort_unstable();
        let mut want: Vec<u64> = (0..300).chain(1000..1300).collect();
        want.sort_unstable();
        assert_eq!(all, want, "every pushed value popped exactly once");
        assert!(s.is_empty());
    }

    #[test]
    fn crash_swept_push_recovers_exactly_once() {
        for crash_at in 0..2000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
            let s = RecoverableStack::new(pool.clone(), 6);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            s.push(&ctx, 1);
            ctx.begin_op(S_CP);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| s.push_started(&ctx, 2));
            pool.crash(&mut pmem::PessimistAdversary);
            match pre {
                Some(()) => {
                    assert_eq!(s.values(), vec![2, 1]);
                    return;
                }
                None => {
                    s.recover_push(&ctx, 2);
                    assert_eq!(s.values(), vec![2, 1], "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn crash_swept_pop_recovers_exactly_once() {
        for crash_at in 0..2000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
            let s = RecoverableStack::new(pool.clone(), 6);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            s.push(&ctx, 7);
            s.push(&ctx, 8);
            ctx.begin_op(S_CP);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| s.pop_started(&ctx));
            pool.crash(&mut pmem::PessimistAdversary);
            match pre {
                Some(r) => {
                    assert_eq!(r, Some(8));
                    assert_eq!(s.values(), vec![7]);
                    return;
                }
                None => {
                    assert_eq!(s.recover_pop(&ctx), Some(8), "crash_at={crash_at}");
                    assert_eq!(s.values(), vec![7], "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn recovery_replays_completed_responses() {
        let (_p, s, ctx) = setup();
        s.push(&ctx, 42);
        assert_eq!(s.pop(&ctx), Some(42));
        assert_eq!(s.recover_pop(&ctx), Some(42), "replay, not re-pop");
        assert!(s.is_empty());
        assert_eq!(s.pop(&ctx), None);
        assert_eq!(s.recover_pop(&ctx), None);
    }
}
