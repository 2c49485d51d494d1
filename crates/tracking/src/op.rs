//! Algorithm 1's generic steps, written once for every Tracking structure.
//!
//! Tracking is one transformation: a structure supplies its gather phase
//! and its descriptor sets, and the glue around them is the same for the
//! list, the BST, the hash map, the queue, the stack and the exchanger.
//! That glue lives here, and with it the two persistence-order rules that
//! make recovery detectable:
//!
//! * [`begin`] — the prologue (lines 1–5). `RD_q := ⊥` is durable before
//!   `CP_q := 1`, so a post-crash `CP_q = 1` certifies that `RD_q` belongs
//!   to the interrupted operation rather than to its predecessor.
//! * [`publish`] — lines 19–21. The attempt's NewSet nodes and its
//!   descriptor are fenced before `RD_q := desc`, so a durable `RD_q`
//!   never names a descriptor, or a node it installs, that a crash lost.
//! * [`read_only`] — the pseudocode's red lines: a response recorded
//!   directly in a descriptor whose AffectSet is the one node the answer
//!   was read from, published without `help`.
//! * [`recover`] — `Op.Recover` (lines 27–31) up to decoding the response,
//!   which stays with each structure's `recover_*` function.
//!
//! The combining variants ([`crate::combining`]) run their own announce
//! protocol and do not use this module.

use pmem::{PAddr, ThreadCtx};

use crate::descriptor::{AffectEntry, Desc};
use crate::help::help;
use crate::sites::{S_CP, S_DESC, S_NEW, S_RD};

/// The operation prologue (Algorithm 1 lines 1–5): persist `RD_q := ⊥`
/// strictly before `CP_q := 1`.
pub(crate) fn begin(ctx: &ThreadCtx) {
    let pool = ctx.pool();
    ctx.set_rd(0);
    pool.pbarrier(ctx.rd_addr(), 1, S_RD);
    ctx.set_cp(1);
    pool.pwb(ctx.cp_addr(), S_CP);
    pool.psync();
}

/// Publishes an attempt (Algorithm 1 lines 19–21): flushes each new node
/// (the line at its base address), persists the descriptor, then persists
/// `RD_q := desc`.
pub(crate) fn publish(ctx: &ThreadCtx, desc: Desc, new_nodes: &[PAddr]) {
    let pool = ctx.pool();
    for &n in new_nodes {
        pool.pwb(n, S_NEW);
    }
    desc.pbarrier(pool, S_DESC);
    ctx.set_rd(desc.raw());
    pool.pwb(ctx.rd_addr(), S_RD);
    pool.psync();
}

/// Records and publishes a read-only outcome: `desc`'s AffectSet is the
/// node whose `info` word at `info_addr` held `observed` when the answer
/// was read (untagged on cleanup, should the descriptor ever be helped),
/// and its result is `result` from the start. Such an operation
/// linearizes at that read.
pub(crate) fn read_only(
    ctx: &ThreadCtx,
    desc: Desc,
    op_type: u8,
    result: u64,
    info_addr: PAddr,
    observed: u64,
) {
    let pool = ctx.pool();
    let node = AffectEntry {
        info_addr,
        observed,
        untag_on_cleanup: true,
    };
    desc.init(pool, op_type, result, &[node], &[], &[]);
    desc.set_result(pool, result);
    publish(ctx, desc, &[]);
}

/// `Op.Recover` (Algorithm 1 lines 27–31) without the decoding. Returns
/// `None` when no attempt of the interrupted operation is on record —
/// `CP_q = 0` (the prologue's `RD_q := ⊥` may not have persisted) or
/// `RD_q = ⊥` (no descriptor was published) — so the caller re-invokes.
/// Otherwise helps `RD_q`'s descriptor (idempotent, so safe even if the
/// attempt completed) and returns it with its result, which is ⊥ exactly
/// when the attempt did not take effect.
pub(crate) fn recover(ctx: &ThreadCtx) -> Option<(Desc, u64)> {
    let pool = ctx.pool();
    let rd = ctx.rd();
    if ctx.cp() == 0 || rd == 0 {
        return None;
    }
    let desc = Desc::from_raw(rd);
    help(pool, desc);
    Some((desc, desc.result(pool)))
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::Arc;

    use pmem::{
        run_crashable, CrashAdversary, PessimistAdversary, PmemPool, PoolCfg, SeededAdversary,
    };

    use super::*;
    use crate::descriptor::WriteEntry;
    use crate::result::{BOTTOM, FALSE, TRUE};

    // A one-line test node: w0 next, w1 info, w2 value.
    const NEXT: u64 = 0;
    const INFO: u64 = 1;
    const VALUE: u64 = 2;
    const OP_LINK: u8 = 99;

    /// What the swept operation writes, all allocated before the crash
    /// window: the descriptor, the node it links in, and the node whose
    /// `next` word it updates.
    struct Attempt {
        desc: Desc,
        new: PAddr,
        target: PAddr,
    }

    /// The swept operation: the system's `CP_q := 0`, the prologue, the
    /// descriptor and new node stores of an update attempt, and its
    /// publication. Records in `past_begin_op` whether the system step
    /// completed.
    fn run_attempt(ctx: &ThreadCtx, a: &Attempt, past_begin_op: &Cell<bool>) {
        let pool = ctx.pool();
        ctx.begin_op(S_CP);
        past_begin_op.set(true);
        begin(ctx);
        pool.store(a.new.add(VALUE), 77);
        pool.store(a.new.add(INFO), a.desc.tagged());
        a.desc.init(
            pool,
            OP_LINK,
            TRUE,
            &[AffectEntry {
                info_addr: a.target.add(INFO),
                observed: 0,
                untag_on_cleanup: true,
            }],
            &[WriteEntry {
                field: a.target.add(NEXT),
                old: 0,
                new: a.new.raw(),
            }],
            &[a.new.add(INFO)],
        );
        publish(ctx, a.desc, &[a.new]);
    }

    /// Crashes the swept operation after `k` events under `adv`, after one
    /// completed read-only operation, and checks the skeleton's laws on
    /// the surviving image. Returns whether the operation completed
    /// before the crash point.
    fn crash_at(k: u64, adv: &mut dyn CrashAdversary, pessimist: bool) -> bool {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(1 << 20)));
        let ctx = ThreadCtx::new(pool.clone(), 0);
        let target = pool.alloc_lines(1);
        pool.pbarrier(target, 1, S_NEW);
        // The previous operation: a read-only outcome over `target`.
        ctx.begin_op(S_CP);
        begin(&ctx);
        let old = Desc::alloc(&pool);
        read_only(&ctx, old, OP_LINK, FALSE, target.add(INFO), 0);
        let a = Attempt {
            desc: Desc::alloc(&pool),
            new: pool.alloc_lines(1),
            target,
        };
        let past_begin_op = Cell::new(false);
        pool.crash_ctl().arm_after(k);
        let completed = run_crashable(|| run_attempt(&ctx, &a, &past_begin_op)).is_some();
        pool.crash(adv);

        let (cp, rd) = (ctx.cp(), ctx.rd());
        if !past_begin_op.get() {
            // The crash struck the system's step, before the operation
            // started: RD_q still names the previous operation, which
            // `recover` resolves to its recorded result.
            assert_eq!(rd, old.raw(), "k={k}: previous RD_q lost");
            if cp == 1 {
                assert_eq!(recover(&ctx), Some((old, FALSE)), "k={k}");
            }
            return completed;
        }
        // Law 1: a durable CP_q = 1 certifies RD_q belongs to this
        // operation.
        if cp == 1 {
            assert!(
                rd == 0 || rd == a.desc.raw(),
                "k={k}: CP_q = 1 durable beside a stale RD_q {rd:#x}"
            );
        }
        // Law 2: a durable RD_q = desc implies the descriptor and the new
        // node are durable.
        let published = cp == 1 && rd == a.desc.raw();
        if rd == a.desc.raw() {
            let d = a.desc;
            assert_eq!(d.op_type(&pool), OP_LINK, "k={k}: descriptor header lost");
            assert_eq!(d.success_result(&pool), TRUE, "k={k}");
            assert_eq!(d.result(&pool), BOTTOM, "k={k}");
            let e = d.affect(&pool, 0);
            assert_eq!((e.info_addr, e.observed), (target.add(INFO), 0), "k={k}");
            let w = d.write(&pool, 0);
            assert_eq!((w.field, w.old, w.new), (target.add(NEXT), 0, a.new.raw()));
            assert_eq!(d.new_node(&pool, 0), a.new.add(INFO), "k={k}");
            assert_eq!(pool.load(a.new.add(VALUE)), 77, "k={k}: new node lost");
            assert_eq!(pool.load(a.new.add(INFO)), d.tagged(), "k={k}");
        }
        // Under the pessimist, RD_q := desc is durable exactly when the
        // publication's final psync ran.
        if pessimist {
            assert_eq!(published, completed, "k={k}");
        }
        // Law 3: Op.Recover re-invokes exactly when the crash preceded
        // the durable RD_q := desc, and otherwise completes the attempt.
        match recover(&ctx) {
            None => {
                assert!(!published, "k={k}: published attempt not recovered");
                assert_eq!(pool.load(target.add(NEXT)), 0, "k={k}");
            }
            Some((d, r)) => {
                assert!(published, "k={k}: recovered an unpublished attempt");
                assert_eq!((d, r), (a.desc, TRUE), "k={k}");
                assert_eq!(pool.load(target.add(NEXT)), a.new.raw(), "k={k}");
                assert_eq!(pool.load(target.add(INFO)), d.untagged(), "k={k}");
                assert_eq!(pool.load(a.new.add(INFO)), d.untagged(), "k={k}");
            }
        }
        completed
    }

    /// Crashes `begin_op` + `begin` + `publish` at every instrumented
    /// event, under the pessimist and under seeded adversaries, and checks
    /// the persistence-order laws the skeleton owns directly (every
    /// structure inherits them).
    #[test]
    fn skeleton_crash_sweep_keeps_cp_rd_laws() {
        for seed in [None, Some(1u64), Some(2), Some(3)] {
            let mut points = 0;
            loop {
                let completed = match seed {
                    None => crash_at(points, &mut PessimistAdversary, true),
                    Some(s) => crash_at(
                        points,
                        &mut SeededAdversary::new(s.wrapping_mul(0x9E37_79B9) ^ points),
                        false,
                    ),
                };
                if completed {
                    break;
                }
                points += 1;
                assert!(points < 1000, "the swept operation never completed");
            }
            assert!(points > 20, "only {points} crash points swept");
        }
    }
}
