//! The detectably recoverable exchanger — Section 6 of the paper, derived
//! from the Scherer–Lea–Scott elimination exchanger.
//!
//! The exchanger is a pointer `slot` to a node holding
//! `⟨value, partner, info⟩` plus a free/occupied marker. Following the
//! paper's sketch, every state transition is a Tracking operation driven by
//! the generic [`crate::help::help`] engine:
//!
//! * **Capture** — a thread `p` finding the slot node *free* installs its
//!   own node `nd_p` (value set, partner ⊥, born tagged as NewSet):
//!   AffectSet = `{slot-node}` (replaced ⇒ tagged forever), WriteSet =
//!   `{slot: free → nd_p}`. `p` then busy-waits on `nd_p.partner`.
//! * **Collide** — a thread `q` finding a *waiting* node `nd` pairs with
//!   it: WriteSet = `{nd.partner: ⊥ → q's value, slot: nd → fresh free
//!   node}`; its response is `nd.value`, gathered before tagging and
//!   immutable. The partner field is persisted by the engine's update
//!   phase *before* the result is set, so the waiter's response is durable
//!   no later than the collider's.
//! * **Cancel** — a waiter that exhausts its spin budget withdraws:
//!   WriteSet = `{slot: nd_p → fresh free node}`. Cancel and collide race
//!   on `nd_p`'s tag; exactly one wins, and a losing cancel finds the
//!   partner value written.
//!
//! Reclamation: every node that durably leaves the slot is retired to
//! `pmem::palloc` limbo by its unique unlinker — a successful collide
//! retires the waiter node it replaced (plus its own never-published
//! waiter node), a successful cancel retires the withdrawn node, a
//! successful capture retires the free node it displaced, and lost
//! attempts retire their unpublished replacement nodes. Recovery paths
//! never retire (they cannot tell whether the pre-crash run already did).
//! A no-op on the default bump pool.
//!
//! Detectability: `RD_q` always names the thread's latest
//! capture/collide/cancel descriptor. On recovery, a collide's outcome is
//! read from its descriptor; a capture that took effect resumes waiting on
//! its own node (recorded in the descriptor's NewSet); anything that did
//! not take effect is re-invoked.

use std::sync::Arc;

use pmem::{PAddr, PmemPool, ThreadCtx};

use crate::descriptor::{AffectEntry, Desc, WriteEntry};
use crate::help::{help, help_tagged};
use crate::op;
use crate::result::{dec_val, BOTTOM, TRUE};
use crate::sites::{S_CP, S_NEW, S_PARTNER};

/// Descriptor op-type tag for slot captures.
pub const OP_CAPTURE: u8 = 7;
/// Descriptor op-type tag for collisions.
pub const OP_COLLIDE: u8 = 8;
/// Descriptor op-type tag for cancellations.
pub const OP_CANCEL: u8 = 9;

// Node layout (one cache line): w0 value, w1 partner, w2 info, w3 free?.
const N_VALUE: u64 = 0;
const N_PARTNER: u64 = 1;
const N_INFO: u64 = 2;
const N_FREE: u64 = 3;

/// Largest exchangeable value (room for the +1 partner encoding and the
/// +3 result encoding).
pub const VALUE_MAX: u64 = u64::MAX - 4;

/// The detectably recoverable exchanger.
#[derive(Clone)]
pub struct RecoverableExchanger {
    pool: Arc<PmemPool>,
    slot: PAddr,
}

impl RecoverableExchanger {
    /// Creates an exchanger rooted in root cell `root_idx`, or re-attaches
    /// to the one already rooted there.
    pub fn new(pool: Arc<PmemPool>, root_idx: usize) -> Self {
        let slot = pool.root(root_idx);
        if pool.load(slot) == 0 {
            let free = Self::mk_free(&pool, 0);
            pool.pwb(free, S_NEW);
            pool.pfence();
            pool.store(slot, free.raw());
            pool.pbarrier(slot, 1, S_NEW);
        }
        RecoverableExchanger { pool, slot }
    }

    fn mk_free(pool: &PmemPool, info: u64) -> PAddr {
        let n = pool.alloc_lines(1);
        Self::init_free(pool, n, info);
        n
    }

    /// Free-node initialization, split from [`Self::mk_free`] so operation
    /// paths can allocate through [`ThreadCtx::palloc`] (recycling retired
    /// blocks on reclaim pools) while construction keeps the bump path.
    fn init_free(pool: &PmemPool, n: PAddr, info: u64) {
        pool.store(n.add(N_FREE), 1);
        pool.store(n.add(N_INFO), info);
    }

    /// The owning pool.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    /// Exchanges `value` with a concurrent peer. Spins up to roughly
    /// `spin_budget` iterations waiting for a partner after capturing the
    /// slot; returns `None` if the wait was cancelled without a collision.
    pub fn exchange(&self, ctx: &ThreadCtx, value: u64, spin_budget: usize) -> Option<u64> {
        ctx.begin_op(S_CP);
        self.exchange_started(ctx, value, spin_budget)
    }

    /// [`Self::exchange`] without the system's `CP_q := 0` pre-step.
    pub fn exchange_started(&self, ctx: &ThreadCtx, value: u64, spin_budget: usize) -> Option<u64> {
        assert!(value <= VALUE_MAX, "value too large to exchange");
        let pool = &*self.pool;
        op::begin(ctx);
        // The waiter node is allocated once and reused across attempts (it
        // is only published by a successful capture).
        let nd_p = ctx.palloc(1);
        pool.store(nd_p.add(N_VALUE), value);
        pool.store(nd_p.add(N_PARTNER), 0);
        pool.store(nd_p.add(N_FREE), 0);
        loop {
            // Gather: the current slot node and its info (version stamp).
            let nd_raw = pool.load(self.slot);
            let nd = PAddr::from_raw(nd_raw);
            let info = pool.load(nd.add(N_INFO));
            if help_tagged(pool, &[info]) {
                continue;
            }
            if pool.load(nd.add(N_FREE)) == 1 {
                // ---- Capture ----
                let desc = Desc::alloc(pool);
                pool.store(nd_p.add(N_INFO), desc.tagged());
                desc.init(
                    pool,
                    OP_CAPTURE,
                    TRUE,
                    &[AffectEntry {
                        info_addr: nd.add(N_INFO),
                        observed: info,
                        untag_on_cleanup: false, // leaves the slot forever
                    }],
                    &[WriteEntry {
                        field: self.slot,
                        old: nd_raw,
                        new: nd_p.raw(),
                    }],
                    &[nd_p.add(N_INFO)],
                );
                op::publish(ctx, desc, &[nd_p]);
                help(pool, desc);
                if desc.result(pool) == BOTTOM {
                    continue; // someone else captured first; retry
                }
                // The displaced free node left the slot for good (it keeps
                // its tag; late exchangers that gathered it still help
                // through its intact info word until the quiescent drain).
                ctx.retire(nd, 1);
                return self.wait_for_partner(ctx, nd_p, spin_budget);
            }
            // ---- Collide ----
            let their_value = pool.load(nd.add(N_VALUE)); // immutable once published
            let free2 = ctx.palloc(1);
            Self::init_free(pool, free2, 0);
            let desc = Desc::alloc(pool);
            pool.store(free2.add(N_INFO), desc.tagged());
            desc.init(
                pool,
                OP_COLLIDE,
                crate::result::enc_val(their_value),
                &[AffectEntry {
                    info_addr: nd.add(N_INFO),
                    observed: info,
                    untag_on_cleanup: false, // the waiter node leaves the slot
                }],
                &[
                    // partner first: the waiter's response must be in place
                    // (and is persisted by the update phase) before the slot
                    // is released
                    WriteEntry {
                        field: nd.add(N_PARTNER),
                        old: 0,
                        new: value + 1,
                    },
                    WriteEntry {
                        field: self.slot,
                        old: nd_raw,
                        new: free2.raw(),
                    },
                ],
                &[free2.add(N_INFO)],
            );
            op::publish(ctx, desc, &[free2]);
            help(pool, desc);
            let r = desc.result(pool);
            if r != BOTTOM {
                // Our collide replaced the waiter's node in the slot: we
                // are its unique unlinker, so we retire it — the waiter
                // only ever *reads* its partner word, and limbo keeps a
                // retired block's words intact until a quiescent drain
                // (which no operation window spans). Our own pre-allocated
                // waiter node was never published; it goes back too.
                ctx.retire(nd, 1);
                ctx.retire(nd_p, 1);
                return Some(dec_val(r));
            }
            // The collide lost the race on the waiter's tag: the
            // replacement free node was never published.
            ctx.retire(free2, 1);
        }
    }

    /// Waits on a captured node for a collision, cancelling after the spin
    /// budget runs out.
    fn wait_for_partner(&self, ctx: &ThreadCtx, nd_p: PAddr, spin_budget: usize) -> Option<u64> {
        let pool = &*self.pool;
        for i in 0..spin_budget {
            let partner = pool.load(nd_p.add(N_PARTNER));
            if partner != 0 {
                // Persist our own response before returning (the collider's
                // update-phase pwb covers it too, but we must not rely on
                // the collider still running).
                pool.pwb(nd_p.add(N_PARTNER), S_PARTNER);
                pool.psync();
                return Some(partner - 1);
            }
            if i % 64 == 63 {
                std::thread::yield_now();
            }
            std::hint::spin_loop();
        }
        // ---- Cancel ----
        loop {
            let partner = pool.load(nd_p.add(N_PARTNER));
            if partner != 0 {
                pool.pwb(nd_p.add(N_PARTNER), S_PARTNER);
                pool.psync();
                return Some(partner - 1);
            }
            let info = pool.load(nd_p.add(N_INFO));
            // a collider is mid-flight on our node: help it finish
            if help_tagged(pool, &[info]) {
                continue;
            }
            let free2 = ctx.palloc(1);
            Self::init_free(pool, free2, 0);
            let desc = Desc::alloc(pool);
            pool.store(free2.add(N_INFO), desc.tagged());
            desc.init(
                pool,
                OP_CANCEL,
                TRUE,
                &[AffectEntry {
                    info_addr: nd_p.add(N_INFO),
                    observed: info,
                    untag_on_cleanup: false,
                }],
                &[WriteEntry {
                    field: self.slot,
                    old: nd_p.raw(),
                    new: free2.raw(),
                }],
                &[free2.add(N_INFO)],
            );
            op::publish(ctx, desc, &[free2]);
            help(pool, desc);
            if desc.result(pool) != BOTTOM {
                // The withdrawal took effect: our node left the slot and —
                // uniquely here — nobody else will ever unlink it, so the
                // canceller retires it. The partner-found branches above
                // deliberately do NOT retire nd_p: a successful collider
                // already retired it as the node *it* unlinked, and
                // recovery re-enters this wait loop, so retiring on the
                // read-only exit would double-retire.
                ctx.retire(nd_p, 1);
                return None; // withdrew without a partner
            }
            // cancel lost the race on nd_p's tag: a collision happened (or
            // is happening); loop re-checks the partner field. The
            // unpublished replacement free node goes back.
            ctx.retire(free2, 1);
        }
    }

    /// `Exchange.Recover` (Algorithm 1 lines 27–31, specialized per
    /// descriptor type — see module docs).
    pub fn recover_exchange(&self, ctx: &ThreadCtx, value: u64, spin_budget: usize) -> Option<u64> {
        let pool = &*self.pool;
        let Some((desc, r)) = op::recover_attempt(ctx) else {
            return self.exchange(ctx, value, spin_budget);
        };
        match desc.op_type(pool) {
            OP_COLLIDE => {
                if r != BOTTOM {
                    Some(dec_val(r))
                } else {
                    self.exchange(ctx, value, spin_budget)
                }
            }
            OP_CAPTURE => {
                if r == BOTTOM {
                    return self.exchange(ctx, value, spin_budget);
                }
                // Captured: our node is the descriptor's NewSet entry.
                let nd_p = PAddr(desc.new_node(pool, 0).raw() - N_INFO);
                self.wait_for_partner(ctx, nd_p, spin_budget)
            }
            OP_CANCEL => {
                if r != BOTTOM {
                    None // the withdrawal took effect: no partner
                } else {
                    // cancel never took effect: resume the wait/cancel loop
                    let nd_p = PAddr(desc.affect(pool, 0).info_addr.raw() - N_INFO);
                    self.wait_for_partner(ctx, nd_p, spin_budget)
                }
            }
            other => panic!("RD_q names a non-exchanger descriptor (op type {other})"),
        }
    }

    /// Is the slot currently free (quiescent inspection)?
    pub fn is_free(&self) -> bool {
        let nd = PAddr::from_raw(self.pool.load(self.slot));
        self.pool.load(nd.add(N_FREE)) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PmemPool, PoolCfg};

    fn setup() -> (Arc<PmemPool>, RecoverableExchanger) {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
        let ex = RecoverableExchanger::new(pool.clone(), 2);
        (pool, ex)
    }

    #[test]
    fn lone_thread_times_out() {
        let (p, ex) = setup();
        let ctx = ThreadCtx::new(p, 0);
        assert_eq!(ex.exchange(&ctx, 42, 10), None);
        assert!(ex.is_free(), "cancelled exchange must leave the slot free");
    }

    #[test]
    fn two_threads_swap_values() {
        let (p, ex) = setup();
        let mut handles = vec![];
        for t in 0..2usize {
            let ex = ex.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            handles.push(std::thread::spawn(move || {
                ex.exchange(&ctx, t as u64 + 100, 50_000_000)
            }));
        }
        let got: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got[0], Some(101), "thread 0 receives thread 1's value");
        assert_eq!(got[1], Some(100), "thread 1 receives thread 0's value");
        assert!(ex.is_free());
    }

    #[test]
    fn many_threads_pair_up_consistently() {
        // 4 threads, each exchanging its id; every received value must be a
        // distinct other id, and pairing must be mutual.
        let (p, ex) = setup();
        let mut handles = vec![];
        for t in 0..4usize {
            let ex = ex.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            handles.push(std::thread::spawn(move || {
                ex.exchange(&ctx, t as u64, 50_000_000)
            }));
        }
        let got: Vec<Option<u64>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let mut received: Vec<u64> = got.iter().flatten().copied().collect();
        assert_eq!(
            received.len(),
            4,
            "with 4 peers and large budgets, all pair up"
        );
        received.sort_unstable();
        assert_eq!(received, vec![0, 1, 2, 3]);
        for (me, val) in got.iter().enumerate() {
            let other = val.unwrap() as usize;
            assert_eq!(got[other], Some(me as u64), "pairing must be mutual");
        }
    }

    #[test]
    fn sequential_reuse_after_timeout() {
        let (p, ex) = setup();
        let ctx = ThreadCtx::new(p, 0);
        for _ in 0..5 {
            assert_eq!(ex.exchange(&ctx, 7, 5), None);
            assert!(ex.is_free());
        }
    }

    #[test]
    fn crash_swept_lone_exchange_recovers() {
        // Crash a spin-budget-0 exchange (capture then cancel) at every
        // instrumented event; recovery must come back with None (no partner
        // ever existed) and a free slot.
        for crash_at in 0..4000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
            let ex = RecoverableExchanger::new(pool.clone(), 2);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            ctx.begin_op(S_CP);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| ex.exchange_started(&ctx, 9, 0));
            pool.crash(&mut pmem::PessimistAdversary);
            match pre {
                Some(r) => {
                    assert_eq!(r, None);
                    assert!(ex.is_free());
                    return;
                }
                None => {
                    assert_eq!(
                        ex.recover_exchange(&ctx, 9, 0),
                        None,
                        "crash_at={crash_at}: no partner ever arrived"
                    );
                    assert!(ex.is_free(), "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn recovery_of_completed_collide_returns_partner_value() {
        let (p, ex) = setup();
        let mut handles = vec![];
        for t in 0..2usize {
            let ex = ex.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            handles.push(std::thread::spawn(move || {
                let r = ex.exchange(&ctx, t as u64 + 100, 50_000_000);
                (ctx, r)
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Re-run recovery for both threads: each must reproduce its answer.
        for (ctx, original) in &results {
            let recovered = ex.recover_exchange(ctx, 0, 10);
            assert_eq!(recovered, *original, "recovery must reproduce the response");
        }
    }

    #[test]
    fn reclaim_pool_churn_recycles_slot_nodes() {
        // Repeated lone-thread timeouts and paired swaps on a reclaiming
        // pool. Every exchange allocates a value node, a reservation node
        // and fresh free nodes; all but the one left installed in the slot
        // must be retired, survive the allocator audit, and get re-issued
        // after a quiescent drain.
        let pool = Arc::new(PmemPool::new(PoolCfg {
            reclaim: true,
            ..PoolCfg::model(16 << 20)
        }));
        let ex = RecoverableExchanger::new(pool.clone(), 2);
        let ctx0 = ThreadCtx::new(pool.clone(), 0);
        for _ in 0..50 {
            assert_eq!(ex.exchange(&ctx0, 7, 10), None);
            assert!(ex.is_free());
        }
        pool.palloc_drain_all();
        pool.palloc_check().unwrap();
        assert!(
            !pool.palloc_free_blocks().is_empty(),
            "timeout churn retired nodes but none reached the free lists"
        );
        for round in 0..20 {
            let mut handles = vec![];
            for t in 0..2usize {
                let ex = ex.clone();
                let ctx = ThreadCtx::new(pool.clone(), t);
                handles.push(std::thread::spawn(move || {
                    ex.exchange(&ctx, t as u64 + 100, 50_000_000)
                }));
            }
            let got: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert_eq!(got[0], Some(101), "round {round}");
            assert_eq!(got[1], Some(100), "round {round}");
            // Quiescent: both participants returned, so limbo may drain.
            pool.palloc_drain_all();
            pool.palloc_check().unwrap();
        }
        // Recycling must be real: the next allocation comes from a drained
        // free list, not fresh bump space.
        let wm = pool.palloc_free_blocks().iter().map(|&(b, _)| b).max();
        let a = ctx0.palloc(1);
        assert!(
            wm.is_some_and(|hi| a.raw() <= hi),
            "allocation after drain skipped the free lists"
        );
    }
}
