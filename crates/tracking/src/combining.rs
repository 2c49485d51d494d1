//! Detectable flat-combining queue and stack: op-batching variants that
//! coalesce persistence instructions under contention.
//!
//! The plain Tracking structures pay a fixed per-operation persistence
//! bill — descriptor flush, `RD_q` flush, tag/update/result/cleanup
//! flushes, and 3–4 `psync`s — because every thread drives its own
//! operation through the generic help engine. Under multi-core contention
//! that bill is also paid on *contended* lines, the expensive category of
//! the paper's Section 5. Combining attacks both at once (the approach of
//! PBcomb and of memento's `queue_comb`): threads *announce* operations,
//! one thread at a time becomes the **combiner**, applies every pending
//! announcement to a private copy of the structure state, and publishes
//! the whole batch with one coalesced `pwb` set and a **single `psync`**.
//! Per operation that leaves one `psync` for the announcement plus
//! `1/batch` for the round, versus 3–4 for plain Tracking.
//!
//! ## Persistent objects
//!
//! * **Announcement** — stored in the spare words of the thread's own
//!   recovery line ([`pmem::ThreadCtx::aux_addr`]), so `RD_q` (reused as
//!   the announcement sequence number) and the operation's kind/argument
//!   live in **one cache line** and are crash-atomic: after a crash the
//!   line holds either the whole announcement or none of it.
//! * **Round record** — a fresh, never-recycled allocation per combining
//!   round: the new structure state plus a full per-thread
//!   `(applied_seq, result)` table copied forward from the previous
//!   round. The table is the recovery index: "was my announcement `s`
//!   applied?" is one bounded lookup, never a log scan.
//! * **Header** — one line holding the current-round pointer. Publishing
//!   a round is `store; pwb; psync` of this one word: the round's
//!   effects and every participant's result become durable *atomically*
//!   (the round's lines are `pwb`ed and fenced before the header `pwb`,
//!   so a durable header implies a durable round).
//! * **Request/ready words** — per-thread words in lines that are *never*
//!   `pwb`ed: logically volatile (PBcomb keeps them in DRAM). `request[t]`
//!   is how an announcer hands its (already durable) announcement to the
//!   combiner — set strictly **after** the announcement `psync`, which is
//!   what makes "effect durable ⇒ announcement durable" hold, the
//!   property detectability rests on. `ready[t]` is how the combiner
//!   releases waiters, set strictly after the round `psync` so no thread
//!   returns a result that could still be lost. Because they live in the
//!   pool, a crash does **not** reliably zero them — an unflushed line can
//!   still reach persistence through cache eviction, which the crash
//!   adversary models by sometimes keeping the volatile image — so
//!   recovery must start with [`CombiningStack::recover_structure`] /
//!   [`CombiningQueue::recover_structure`], which clears them (see
//!   *Exactly-once recovery*).
//!
//! ## Exactly-once recovery
//!
//! Recovery after a full-system crash is sequential: first one call to
//! `recover_structure`, which zeroes the volatile coordination words
//! (combiner lock, every `request[t]` and `ready[t]`) — the adversary may
//! have "evicted" any of them to persistence, and a surviving lock word
//! would wedge every waiter behind a combiner that no longer exists,
//! while a surviving `ready[t] ≥ s` could release a re-issued operation
//! before it is applied. Then each crashed thread runs the matching
//! `recover_*`:
//!
//! * `CP_q = 0` or `RD_q = 0`: the announcement line never became
//!   durable. A request is set only after the announcement's `psync`,
//!   so no combiner saw this operation; re-execute it from scratch.
//! * `RD_q = s` and the current round's `table[q].applied_seq ≥ s`: the
//!   operation was applied in a durable round; return the recorded
//!   result without re-executing.
//! * `RD_q = s` and `table[q].applied_seq < s`: the announcement is
//!   durable but unapplied (any round that applied it died unpublished —
//!   and with it every one of its effects, atomically). Re-issue
//!   `request[q] = s` and finish it, typically by self-combining.
//!
//! Sequence numbers come from `table[q].applied_seq + 1`, which is
//! durable and monotone, so a re-executed operation can never collide
//! with — or be mistaken for — an already-applied one.
//!
//! ## Structure representations
//!
//! Committed rounds are **immutable**: the combiner only allocates fresh
//! nodes and only mutates them before the publish fence, so a crash can
//! never expose a half-mutated committed state. The stack is a plain
//! immutable chain. The queue is a functional two-list queue (front
//! chain to pop from, back chain to push on, reversed into a fresh front
//! chain when the front runs dry — amortized O(1)); an MS-queue style
//! tail append would mutate a committed node's `next` field in place and
//! break round atomicity. Nothing is ever retired or reused: round
//! records, popped nodes and drained back-chains become garbage, the
//! price of single-`psync` round atomicity (same precedent as Tracking's
//! descriptors; bounded by ops executed, reclaimable offline).
//!
//! ## Concurrency & schedulability
//!
//! The combiner lock is a CAS on a never-flushed pool word, cleared by
//! `recover_structure` after a crash. Waiters spin on instrumented pool loads, so
//! the deterministic explorer's yield hooks fire inside every wait loop
//! and the variants are fully schedulable. With a single thread the
//! announcer always self-combines, which keeps single-thread crash
//! sweeps deterministic.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use pmem::{CrashPoint, PAddr, PmemPool, ThreadCtx, MAX_THREADS, WORDS_PER_LINE};

use crate::result::{dec_val, enc_val, FALSE, TRUE};
use crate::sites::{S_ANNOUNCE, S_COMB_PUBLISH, S_COMB_ROUND, S_CP};

/// Announced-operation kind: push (stack) / enqueue (queue).
pub const K_INSERT: u64 = 1;
/// Announced-operation kind: pop (stack) / dequeue (queue).
pub const K_REMOVE: u64 = 2;

// Header line: w0 current round, w1 request base, w2 ready base,
// w3 lock line, w4 nthreads, w5 shape.
const H_ROUND: u64 = 0;
const H_REQUEST: u64 = 1;
const H_READY: u64 = 2;
const H_LOCK: u64 = 3;
const H_NTHREADS: u64 = 4;
const H_SHAPE: u64 = 5;

// Round record: w0 seq, w1 state a (stack top / queue front), w2 state b
// (queue back), w3 previous round; per-thread table from w8 on,
// two words per thread: applied_seq, result.
const R_SEQ: u64 = 0;
const R_A: u64 = 1;
const R_B: u64 = 2;
const R_PREV: u64 = 3;
const R_TABLE: u64 = 8;

// Node line: w0 value, w1 next.
const N_VALUE: u64 = 0;
const N_NEXT: u64 = 1;

// Recovery-line spare words (crash-atomic with RD_q): kind, argument.
const AUX_KIND: usize = 0;
const AUX_ARG: usize = 1;

const SHAPE_STACK: u64 = 1;
const SHAPE_QUEUE: u64 = 2;

/// Largest insertable value (room for the result encoding).
pub const VALUE_MAX: u64 = u64::MAX - 4;

/// The combining core shared by [`CombiningStack`] and [`CombiningQueue`].
#[derive(Clone)]
struct Comb {
    pool: Arc<PmemPool>,
    hdr: PAddr,
    nthreads: usize,
}

impl Comb {
    fn new(pool: Arc<PmemPool>, root_idx: usize, nthreads: usize, shape: u64) -> Comb {
        assert!(
            (1..=MAX_THREADS).contains(&nthreads),
            "nthreads out of range"
        );
        let root = pool.root(root_idx);
        let existing = pool.load(root);
        if existing != 0 {
            let hdr = PAddr::from_raw(existing);
            assert_eq!(
                pool.load(hdr.add(H_SHAPE)),
                shape,
                "root holds another shape"
            );
            let nthreads = pool.load(hdr.add(H_NTHREADS)) as usize;
            return Comb {
                pool,
                hdr,
                nthreads,
            };
        }
        let hdr = pool.alloc_lines(1);
        let request = pool.alloc_lines(nthreads);
        let ready = pool.alloc_lines(nthreads);
        let lock = pool.alloc_lines(1);
        let r0 = pool.alloc_lines(1 + table_lines(nthreads));
        // Fresh lines are durably zero: round 0 is ⟨seq 0, empty state,
        // all-zero table⟩ with no flushes needed.
        pool.store(hdr.add(H_ROUND), r0.raw());
        pool.store(hdr.add(H_REQUEST), request.raw());
        pool.store(hdr.add(H_READY), ready.raw());
        pool.store(hdr.add(H_LOCK), lock.raw());
        pool.store(hdr.add(H_NTHREADS), nthreads as u64);
        pool.store(hdr.add(H_SHAPE), shape);
        pool.pbarrier(hdr, WORDS_PER_LINE, S_COMB_PUBLISH);
        pool.store(root, hdr.raw());
        pool.pbarrier(root, 1, S_COMB_PUBLISH);
        Comb {
            pool,
            hdr,
            nthreads,
        }
    }

    #[inline]
    fn request_word(&self, t: usize) -> PAddr {
        PAddr::from_raw(self.pool.load(self.hdr.add(H_REQUEST))).add((t * WORDS_PER_LINE) as u64)
    }

    #[inline]
    fn ready_word(&self, t: usize) -> PAddr {
        PAddr::from_raw(self.pool.load(self.hdr.add(H_READY))).add((t * WORDS_PER_LINE) as u64)
    }

    #[inline]
    fn lock_word(&self) -> PAddr {
        PAddr::from_raw(self.pool.load(self.hdr.add(H_LOCK)))
    }

    #[inline]
    fn cur_round(&self) -> PAddr {
        PAddr::from_raw(self.pool.load(self.hdr.add(H_ROUND)))
    }

    #[inline]
    fn table_entry(&self, round: PAddr, t: usize) -> PAddr {
        round.add(R_TABLE + 2 * t as u64)
    }

    /// Announces `(kind, arg)` for `ctx`'s thread, waits (or combines)
    /// until it is durably applied, and returns the recorded result.
    fn run_op(&self, ctx: &ThreadCtx, kind: u64, arg: u64) -> u64 {
        let pool = &*self.pool;
        let q = ctx.tid();
        assert!(q < self.nthreads, "tid beyond the structure's nthreads");
        let s = pool.load(self.table_entry(self.cur_round(), q)) + 1;
        // One line (CP_q is already-durable 0 from begin_op; the crash
        // resolves the line all-or-nothing), one pwb, one psync. `CP_q` is
        // written strictly *last*: the crash adversary may "evict" the
        // line's volatile image at any store boundary, and every partial
        // announcement must keep `CP_q = 0` (operation invisible,
        // re-execute). Were `CP_q` set before `RD_q`, an eviction between
        // the two would persist `(CP=1, RD=previous op's seq)` and
        // recovery would replay the *previous* operation's result as this
        // one's.
        pool.store(ctx.aux_addr(AUX_KIND), kind);
        pool.store(ctx.aux_addr(AUX_ARG), arg);
        ctx.set_rd(s);
        ctx.set_cp(1);
        pool.pwb(ctx.rd_addr(), S_ANNOUNCE);
        pool.psync();
        // Only now may a combiner see the operation: a request implies
        // the announcement is durable.
        pool.store(self.request_word(q), s);
        self.await_applied(ctx, q, s)
    }

    /// Spins until the operation `(q, s)` is durably applied — helping as
    /// combiner whenever the lock is free — then returns its result.
    fn await_applied(&self, ctx: &ThreadCtx, q: usize, s: u64) -> u64 {
        let pool = &*self.pool;
        let lock = self.lock_word();
        loop {
            if pool.load(self.ready_word(q)) >= s {
                // `ready` is set only after the round psync; the current
                // round's table durably holds our entry.
                return pool.load(self.table_entry(self.cur_round(), q).add(1));
            }
            if pool.load(lock) == 0 && pool.cas(lock, 0, q as u64 + 1).is_ok() {
                // A combiner that panics (pool exhaustion) frees the lock,
                // or every waiter would spin forever. A crashed thread runs
                // no further pool events: after an injected crash,
                // `recover_structure` frees it.
                if let Err(e) = panic::catch_unwind(AssertUnwindSafe(|| self.combine(ctx))) {
                    if !e.is::<CrashPoint>() {
                        pool.store(lock, 0);
                    }
                    panic::resume_unwind(e);
                }
                pool.store(lock, 0);
            } else {
                // Real OS threads on few cores: hand the timeslice to the
                // combiner rather than burning it on the spin. Under the
                // deterministic explorer the instrumented loads above are
                // the yield points, and this is a no-op.
                std::thread::yield_now();
            }
        }
    }

    /// The combiner: applies every pending announcement to a fresh round
    /// record and publishes it with one coalesced flush batch and a
    /// single `psync`. Caller must hold the combiner lock.
    fn combine(&self, ctx: &ThreadCtx) {
        let pool = &*self.pool;
        let cur = self.cur_round();
        // First pass, no allocation: is anything actually pending?
        let mut pending: Vec<(usize, u64)> = Vec::new();
        for t in 0..self.nthreads {
            let req = pool.load(self.request_word(t));
            if req > pool.load(self.table_entry(cur, t)) {
                pending.push((t, req));
            }
        }
        if pending.is_empty() {
            return;
        }
        let shape = pool.load(self.hdr.add(H_SHAPE));
        let nr = pool.alloc_lines(1 + table_lines(self.nthreads));
        // Carry the table forward, then the header words.
        for t in 0..self.nthreads {
            let from = self.table_entry(cur, t);
            let to = self.table_entry(nr, t);
            pool.store(to, pool.load(from));
            pool.store(to.add(1), pool.load(from.add(1)));
        }
        pool.store(nr.add(R_SEQ), pool.load(cur.add(R_SEQ)) + 1);
        pool.store(nr.add(R_PREV), cur.raw());
        let mut a = pool.load(cur.add(R_A));
        let mut b = pool.load(cur.add(R_B));
        let mut fresh: Vec<PAddr> = Vec::new();
        for &(t, req) in &pending {
            let line = pool.recovery_line(t);
            let kind = pool.load(line.add(2 + AUX_KIND as u64));
            let arg = pool.load(line.add(2 + AUX_ARG as u64));
            let res = match shape {
                SHAPE_STACK => self.apply_stack(&mut a, kind, arg, &mut fresh, ctx),
                _ => self.apply_queue(&mut a, &mut b, kind, arg, &mut fresh, ctx),
            };
            let e = self.table_entry(nr, t);
            pool.store(e, req);
            pool.store(e.add(1), res);
        }
        pool.store(nr.add(R_A), a);
        pool.store(nr.add(R_B), b);
        // The coalesced persistence batch: every fresh node line and the
        // round record, one fence, then the single publish point.
        for node in &fresh {
            pool.pwb(*node, S_COMB_ROUND);
        }
        pool.pwb_range(
            nr,
            (1 + table_lines(self.nthreads)) * WORDS_PER_LINE,
            S_COMB_ROUND,
        );
        pool.pfence();
        pool.store(self.hdr.add(H_ROUND), nr.raw());
        pool.pwb(self.hdr, S_COMB_PUBLISH);
        pool.psync();
        // Durable: release the waiters.
        for &(t, req) in &pending {
            pool.store(self.ready_word(t), req);
        }
    }

    fn alloc_node(&self, ctx: &ThreadCtx, value: u64, next: u64, fresh: &mut Vec<PAddr>) -> PAddr {
        let pool = &*self.pool;
        let node = ctx.palloc(1);
        pool.store(node.add(N_VALUE), value);
        pool.store(node.add(N_NEXT), next);
        fresh.push(node);
        node
    }

    fn apply_stack(
        &self,
        top: &mut u64,
        kind: u64,
        arg: u64,
        fresh: &mut Vec<PAddr>,
        ctx: &ThreadCtx,
    ) -> u64 {
        let pool = &*self.pool;
        if kind == K_INSERT {
            *top = self.alloc_node(ctx, arg, *top, fresh).raw();
            TRUE
        } else if *top == 0 {
            FALSE
        } else {
            let node = PAddr::from_raw(*top);
            *top = pool.load(node.add(N_NEXT));
            enc_val(pool.load(node.add(N_VALUE)))
        }
    }

    fn apply_queue(
        &self,
        front: &mut u64,
        back: &mut u64,
        kind: u64,
        arg: u64,
        fresh: &mut Vec<PAddr>,
        ctx: &ThreadCtx,
    ) -> u64 {
        let pool = &*self.pool;
        if kind == K_INSERT {
            *back = self.alloc_node(ctx, arg, *back, fresh).raw();
            return TRUE;
        }
        if *front == 0 && *back != 0 {
            // Reverse the back chain into a *fresh* front chain (committed
            // nodes stay immutable — see module docs).
            let mut vals = Vec::new();
            let mut nd = PAddr::from_raw(*back);
            while !nd.is_null() {
                vals.push(pool.load(nd.add(N_VALUE)));
                nd = PAddr::from_raw(pool.load(nd.add(N_NEXT)));
            }
            let mut head = 0u64;
            for v in vals {
                // newest-first walk, so the last node built is the oldest:
                // it ends up at the head of the front chain.
                head = self.alloc_node(ctx, v, head, fresh).raw();
            }
            *front = head;
            *back = 0;
        }
        if *front == 0 {
            FALSE
        } else {
            let node = PAddr::from_raw(*front);
            *front = pool.load(node.add(N_NEXT));
            enc_val(pool.load(node.add(N_VALUE)))
        }
    }

    /// Zeroes the volatile coordination words after a full-system crash:
    /// the combiner lock and every thread's request/ready word. These
    /// lines are never `pwb`ed, but the crash adversary may keep their
    /// volatile images (modeling cache eviction), and any survivor is
    /// poison: a held lock wedges every waiter behind a dead combiner,
    /// a stale request re-submits a finished announcement (harmless but
    /// wasteful), and a stale `ready[t]` can release a re-issued
    /// operation before it is applied. Must run once, before any
    /// `recover_*` call and with no operations in flight.
    fn post_crash_reset(&self) {
        let pool = &*self.pool;
        pool.store(self.lock_word(), 0);
        for t in 0..self.nthreads {
            pool.store(self.request_word(t), 0);
            pool.store(self.ready_word(t), 0);
        }
    }

    /// The recovery path shared by all four `recover_*` wrappers; returns
    /// `None` when the caller must re-execute from scratch.
    fn recover(&self, ctx: &ThreadCtx) -> Option<u64> {
        let pool = &*self.pool;
        let q = ctx.tid();
        let s = ctx.rd();
        if ctx.cp() == 0 || s == 0 {
            return None; // never visibly started
        }
        let e = self.table_entry(self.cur_round(), q);
        if pool.load(e) >= s {
            return Some(pool.load(e.add(1))); // applied: replay the result
        }
        // Durable announcement, not applied: re-request and finish it.
        pool.store(self.request_word(q), s);
        Some(self.await_applied(ctx, q, s))
    }

    fn state(&self) -> (u64, u64) {
        let cur = self.cur_round();
        (self.pool.load(cur.add(R_A)), self.pool.load(cur.add(R_B)))
    }

    fn chain(&self, mut head: u64) -> Vec<u64> {
        let pool = &*self.pool;
        let mut out = Vec::new();
        while head != 0 {
            let nd = PAddr::from_raw(head);
            out.push(pool.load(nd.add(N_VALUE)));
            head = pool.load(nd.add(N_NEXT));
        }
        out
    }
}

fn table_lines(nthreads: usize) -> usize {
    (2 * nthreads).div_ceil(WORDS_PER_LINE)
}

/// Flat-combining detectable LIFO stack (see module docs).
#[derive(Clone)]
pub struct CombiningStack {
    inner: Comb,
}

impl CombiningStack {
    /// Creates a stack for up to `nthreads` announcing threads rooted in
    /// root cell `root_idx`, or re-attaches to an existing one.
    pub fn new(pool: Arc<PmemPool>, root_idx: usize, nthreads: usize) -> Self {
        CombiningStack {
            inner: Comb::new(pool, root_idx, nthreads, SHAPE_STACK),
        }
    }

    /// The owning pool.
    pub fn pool(&self) -> &PmemPool {
        &self.inner.pool
    }

    /// Pushes `value`.
    pub fn push(&self, ctx: &ThreadCtx, value: u64) {
        ctx.begin_op(S_CP);
        self.push_started(ctx, value)
    }

    /// [`Self::push`] without the system's `CP_q := 0` pre-step.
    pub fn push_started(&self, ctx: &ThreadCtx, value: u64) {
        assert!(value <= VALUE_MAX, "value too large to encode");
        self.inner.run_op(ctx, K_INSERT, value);
    }

    /// Post-crash structure recovery: clears the combiner lock and the
    /// request/ready words (see module docs, *Exactly-once recovery*).
    /// Call once after a full-system crash, before any `recover_*` or new
    /// operation; requires quiescence.
    pub fn recover_structure(&self) {
        self.inner.post_crash_reset()
    }

    /// `Push.Recover`.
    pub fn recover_push(&self, ctx: &ThreadCtx, value: u64) {
        if self.inner.recover(ctx).is_none() {
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
        decode_opt(self.inner.run_op(ctx, K_REMOVE, 0))
    }

    /// `Pop.Recover`.
    pub fn recover_pop(&self, ctx: &ThreadCtx) -> Option<u64> {
        match self.inner.recover(ctx) {
            Some(r) => decode_opt(r),
            None => self.pop(ctx),
        }
    }

    /// Values from top to bottom (quiescent only).
    pub fn values(&self) -> Vec<u64> {
        self.inner.chain(self.inner.state().0)
    }

    /// Number of stacked values (quiescent only).
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// Is the stack empty (quiescent only)?
    pub fn is_empty(&self) -> bool {
        self.inner.state().0 == 0
    }
}

/// Flat-combining detectable FIFO queue (see module docs).
#[derive(Clone)]
pub struct CombiningQueue {
    inner: Comb,
}

impl CombiningQueue {
    /// Creates a queue for up to `nthreads` announcing threads rooted in
    /// root cell `root_idx`, or re-attaches to an existing one.
    pub fn new(pool: Arc<PmemPool>, root_idx: usize, nthreads: usize) -> Self {
        CombiningQueue {
            inner: Comb::new(pool, root_idx, nthreads, SHAPE_QUEUE),
        }
    }

    /// The owning pool.
    pub fn pool(&self) -> &PmemPool {
        &self.inner.pool
    }

    /// Appends `value` at the tail.
    pub fn enqueue(&self, ctx: &ThreadCtx, value: u64) {
        ctx.begin_op(S_CP);
        self.enqueue_started(ctx, value)
    }

    /// [`Self::enqueue`] without the system's `CP_q := 0` pre-step.
    pub fn enqueue_started(&self, ctx: &ThreadCtx, value: u64) {
        assert!(value <= VALUE_MAX, "value too large to encode");
        self.inner.run_op(ctx, K_INSERT, value);
    }

    /// Post-crash structure recovery: clears the combiner lock and the
    /// request/ready words (see module docs, *Exactly-once recovery*).
    /// Call once after a full-system crash, before any `recover_*` or new
    /// operation; requires quiescence.
    pub fn recover_structure(&self) {
        self.inner.post_crash_reset()
    }

    /// `Enqueue.Recover`.
    pub fn recover_enqueue(&self, ctx: &ThreadCtx, value: u64) {
        if self.inner.recover(ctx).is_none() {
            self.enqueue(ctx, value)
        }
    }

    /// Removes the oldest value, or `None` when empty.
    pub fn dequeue(&self, ctx: &ThreadCtx) -> Option<u64> {
        ctx.begin_op(S_CP);
        self.dequeue_started(ctx)
    }

    /// [`Self::dequeue`] without the system's `CP_q := 0` pre-step.
    pub fn dequeue_started(&self, ctx: &ThreadCtx) -> Option<u64> {
        decode_opt(self.inner.run_op(ctx, K_REMOVE, 0))
    }

    /// `Dequeue.Recover`.
    pub fn recover_dequeue(&self, ctx: &ThreadCtx) -> Option<u64> {
        match self.inner.recover(ctx) {
            Some(r) => decode_opt(r),
            None => self.dequeue(ctx),
        }
    }

    /// Values in FIFO order, oldest first (quiescent only).
    pub fn values(&self) -> Vec<u64> {
        let (front, back) = self.inner.state();
        let mut out = self.inner.chain(front);
        let mut rear = self.inner.chain(back);
        rear.reverse();
        out.extend(rear);
        out
    }

    /// Number of queued values (quiescent only).
    pub fn len(&self) -> usize {
        self.values().len()
    }

    /// Is the queue empty (quiescent only)?
    pub fn is_empty(&self) -> bool {
        let (front, back) = self.inner.state();
        front == 0 && back == 0
    }
}

fn decode_opt(r: u64) -> Option<u64> {
    if r == FALSE {
        None
    } else {
        Some(dec_val(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PmemPool, PoolCfg};

    fn setup_stack() -> (Arc<PmemPool>, CombiningStack, ThreadCtx) {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(32 << 20)));
        let s = CombiningStack::new(pool.clone(), 8, 4);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        (pool, s, ctx)
    }

    fn setup_queue() -> (Arc<PmemPool>, CombiningQueue, ThreadCtx) {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(32 << 20)));
        let q = CombiningQueue::new(pool.clone(), 9, 4);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        (pool, q, ctx)
    }

    #[test]
    fn stack_lifo_order() {
        let (_p, s, ctx) = setup_stack();
        assert!(s.is_empty());
        assert_eq!(s.pop(&ctx), None);
        for v in [1u64, 2, 3] {
            s.push(&ctx, v);
        }
        assert_eq!(s.values(), vec![3, 2, 1]);
        assert_eq!(s.pop(&ctx), Some(3));
        assert_eq!(s.pop(&ctx), Some(2));
        assert_eq!(s.pop(&ctx), Some(1));
        assert_eq!(s.pop(&ctx), None);
    }

    #[test]
    fn queue_fifo_order_across_reversals() {
        let (_p, q, ctx) = setup_queue();
        assert_eq!(q.dequeue(&ctx), None);
        for v in 1..=5u64 {
            q.enqueue(&ctx, v);
        }
        assert_eq!(q.values(), vec![1, 2, 3, 4, 5]);
        assert_eq!(q.dequeue(&ctx), Some(1));
        q.enqueue(&ctx, 6);
        for want in 2..=6u64 {
            assert_eq!(q.dequeue(&ctx), Some(want));
        }
        assert_eq!(q.dequeue(&ctx), None);
        assert!(q.is_empty());
    }

    #[test]
    fn concurrent_stack_loses_nothing() {
        let (p, s, _ctx) = setup_stack();
        let mut handles = vec![];
        for t in 0..2u64 {
            let s = s.clone();
            let ctx = ThreadCtx::new(p.clone(), t as usize);
            handles.push(std::thread::spawn(move || {
                for i in 0..200u64 {
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
                while got.len() < 200 {
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
        let mut want: Vec<u64> = (0..200).chain(1000..1200).collect();
        want.sort_unstable();
        assert_eq!(all, want);
        assert!(s.is_empty());
    }

    /// A combiner that runs the pool dry panics holding the combiner
    /// lock. The next announcer must still finish, by returning or by the
    /// same exhaustion panic, rather than spin behind a dead combiner.
    #[test]
    fn exhausted_combiner_frees_the_lock_for_the_next_announcer() {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(1 << 20)));
        let s = CombiningStack::new(pool.clone(), 8, 2);
        // Leave no room for the first combining round's record.
        while pool.try_alloc_lines(1).is_some() {}
        let first = ThreadCtx::new(pool.clone(), 0);
        let died = panic::catch_unwind(AssertUnwindSafe(|| s.push(&first, 1)))
            .expect_err("the first combiner must run the pool dry");
        assert!(pmem::exhaustion_message(&*died).is_some());

        // A channel, not a bare join: a wedged announcer never finishes.
        let (tx, rx) = std::sync::mpsc::channel();
        let second = ThreadCtx::new(pool.clone(), 1);
        let waiter = std::thread::spawn(move || {
            let out = panic::catch_unwind(AssertUnwindSafe(|| s.pop(&second)));
            let _ = tx.send(out.map_err(|e| pmem::exhaustion_message(&*e).map(str::to_owned)));
        });
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(Ok(_)) | Ok(Err(Some(_))) => waiter.join().unwrap(),
            Ok(Err(None)) => panic!("the second announcer panicked, but not on exhaustion"),
            Err(_) => panic!("the second announcer is wedged behind the dead combiner's lock"),
        }
    }

    #[test]
    fn crash_swept_push_recovers_exactly_once() {
        for crash_at in 0..1000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(32 << 20)));
            let s = CombiningStack::new(pool.clone(), 8, 2);
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
                    s.recover_structure();
                    s.recover_push(&ctx, 2);
                    assert_eq!(s.values(), vec![2, 1], "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn crash_swept_pop_recovers_exactly_once() {
        for crash_at in 0..1000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(32 << 20)));
            let s = CombiningStack::new(pool.clone(), 8, 2);
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
                    s.recover_structure();
                    assert_eq!(s.recover_pop(&ctx), Some(8), "crash_at={crash_at}");
                    assert_eq!(s.values(), vec![7], "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn crash_swept_enqueue_recovers_exactly_once() {
        for crash_at in 0..1000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(32 << 20)));
            let q = CombiningQueue::new(pool.clone(), 9, 2);
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
                    q.recover_structure();
                    q.recover_enqueue(&ctx, 2);
                    assert_eq!(q.values(), vec![1, 2], "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn crash_swept_dequeue_recovers_exactly_once() {
        for crash_at in 0..1000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(32 << 20)));
            let q = CombiningQueue::new(pool.clone(), 9, 2);
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
                    q.recover_structure();
                    assert_eq!(q.recover_dequeue(&ctx), Some(7), "crash_at={crash_at}");
                    assert_eq!(q.values(), vec![8], "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn crash_swept_pop_recovers_under_seeded_adversary() {
        // The seeded adversary may keep the *volatile* image of the
        // never-flushed coordination lines — modeling cache eviction of a
        // held combiner lock (or a stale ready word) into persistence.
        // Without the `recover_structure` reset, recovery then spins
        // forever behind a combiner that no longer exists; this sweep is
        // the regression test for that wedge.
        for crash_at in 0..1000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(32 << 20)));
            let s = CombiningStack::new(pool.clone(), 8, 2);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            s.push(&ctx, 1);
            ctx.begin_op(S_CP);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| s.pop_started(&ctx));
            pool.crash(&mut pmem::SeededAdversary::new(
                crash_at.wrapping_mul(0x9E37_79B9) | 1,
            ));
            match pre {
                Some(r) => {
                    assert_eq!(r, Some(1));
                    return;
                }
                None => {
                    s.recover_structure();
                    assert_eq!(s.recover_pop(&ctx), Some(1), "crash_at={crash_at}");
                    assert!(s.is_empty(), "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn recovery_replays_completed_responses() {
        let (_p, s, ctx) = setup_stack();
        s.push(&ctx, 42);
        assert_eq!(s.pop(&ctx), Some(42));
        assert_eq!(s.recover_pop(&ctx), Some(42), "replay, not re-pop");
        assert!(s.is_empty());
    }

    #[test]
    fn reattach_preserves_contents() {
        let (p, s, ctx) = setup_stack();
        s.push(&ctx, 5);
        s.push(&ctx, 6);
        let s2 = CombiningStack::new(p.clone(), 8, 4);
        assert_eq!(s2.values(), vec![6, 5]);
    }
}
