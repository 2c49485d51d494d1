//! Algorithm 1's generic steps, written once for every Tracking structure.
//!
//! Tracking is one transformation: a structure supplies its gather phase
//! and its descriptor sets, and the glue around them is the same for the
//! list, the BST, the hash map, the queue, the stack and the exchanger.
//! That glue lives here. It persists only what `Op.Recover` reads (the
//! lean placement, DESIGN.md §7); a list built with the paper's placement
//! ([`crate::list::Placement`]) swaps in [`begin_durable`] and
//! [`read_only`].
//!
//! * [`begin`] — the prologue (lines 1–5) as two stores, `RD_q := ⊥` then
//!   `CP_q := 1`, with no flush of their own. Both words share the
//!   thread's recovery line, and a crash resolves a line to a prefix of its
//!   stores, so after the system's durable `CP_q := 0` the line can only
//!   come back as `[0, prev]`, `[0, ⊥]`, `[1, ⊥]`, `[1, FALSE]` or
//!   `[1, desc]`: a `CP_q = 1` never stands beside a predecessor's `RD_q`.
//! * [`publish`] — lines 19–21. The attempt's NewSet nodes and its
//!   descriptor are fenced before `RD_q := desc`, so a durable `RD_q`
//!   never names a descriptor, or a node it installs, that a crash lost.
//!   Its `pwb(RD_q); psync` persists `CP_q` with it.
//! * [`record_false`] — the read-only outcome of an update (a duplicate
//!   insert, an absent delete, an empty dequeue or pop): the immediate
//!   `RD_q := FALSE`, decided before any descriptor exists. Finds and gets
//!   record nothing at all; their recovery re-executes them.
//! * [`recover`] — `Op.Recover` (lines 27–31) up to decoding the response,
//!   which stays with each structure's `recover_*` function.
//!
//! The combining variants ([`crate::combining`]) run their own announce
//! protocol and do not use this module.

use pmem::{PAddr, ThreadCtx};

use crate::descriptor::{AffectEntry, Desc};
use crate::help::help;
use crate::result::{BOTTOM, FALSE};
use crate::sites::{S_CP, S_DESC, S_NEW, S_RD};

/// The operation prologue (Algorithm 1 lines 1–5), lean: `RD_q := ⊥` then
/// `CP_q := 1`, two stores to one line that the attempt's [`publish`]
/// persists together.
pub(crate) fn begin(ctx: &ThreadCtx) {
    ctx.set_rd(BOTTOM);
    ctx.set_cp(1);
}

/// The paper's prologue: persist `RD_q := ⊥` strictly before `CP_q := 1`.
pub(crate) fn begin_durable(ctx: &ThreadCtx) {
    let pool = ctx.pool();
    ctx.set_rd(BOTTOM);
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

/// Records an update's read-only outcome: the immediate `RD_q := FALSE`,
/// with nothing allocated and nothing flushed. No line-aligned descriptor
/// address equals it. If a crash loses it, recovery re-invokes an
/// operation that had no effect; if it survives — always, after a clean
/// stop — recovery answers `FALSE` even when another thread has since
/// changed the answer a re-invocation would give.
pub(crate) fn record_false(ctx: &ThreadCtx) {
    ctx.set_rd(FALSE);
}

/// The paper's read-only outcome (its pseudocode's red lines): `desc`'s
/// AffectSet is `node`, the entry of the node whose `info` word held the
/// observed value when the answer was read, and its result is `result`
/// from the start. Such an operation linearizes at that read.
pub(crate) fn read_only(ctx: &ThreadCtx, desc: Desc, op_type: u8, result: u64, node: AffectEntry) {
    let pool = ctx.pool();
    desc.init(pool, op_type, result, &[node], &[], &[]);
    desc.set_result(pool, result);
    publish(ctx, desc, &[]);
}

/// `Op.Recover` (Algorithm 1 lines 27–31) without the decoding: the
/// interrupted operation's response, or ⊥ when the caller must re-invoke
/// it — when no attempt is on record (`CP_q = 0` or `RD_q = ⊥`) or the
/// recorded attempt did not take effect. A recorded read-only outcome
/// answers `FALSE` without helping.
pub(crate) fn recover(ctx: &ThreadCtx) -> u64 {
    if ctx.cp() == 1 && ctx.rd() == FALSE {
        return FALSE;
    }
    recover_attempt(ctx).map_or(BOTTOM, |(_, r)| r)
}

/// [`recover`] for a structure whose recovery also needs the attempt (the
/// exchanger's, which records no read-only outcome). Returns `None` when
/// no attempt is on record. Otherwise helps `RD_q`'s descriptor
/// (idempotent, so safe even if the attempt completed) and returns it with
/// its result, which is ⊥ exactly when the attempt did not take effect.
pub(crate) fn recover_attempt(ctx: &ThreadCtx) -> Option<(Desc, u64)> {
    let rd = ctx.rd();
    if ctx.cp() == 0 || rd == BOTTOM || rd == FALSE {
        return None;
    }
    let desc = Desc::from_raw(rd);
    help(ctx.pool(), desc);
    Some((desc, desc.result(ctx.pool())))
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
    use crate::result::TRUE;

    // A one-line test node: w0 next, w1 info, w2 value.
    const NEXT: u64 = 0;
    const INFO: u64 = 1;
    const VALUE: u64 = 2;
    const OP_LINK: u8 = 99;

    /// The swept operation's outcome.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    enum Outcome {
        /// An update attempt that links a new node behind `target`.
        Update,
        /// A read-only outcome over `target`.
        ReadOnly,
    }

    /// What the swept operation writes, all allocated before the crash
    /// window: the descriptor (the update's, or the paper placement's
    /// read-only record), the node it links in, and the node whose `next`
    /// word it updates.
    struct Attempt {
        desc: Desc,
        new: PAddr,
        target: PAddr,
    }

    /// The swept operation: the system's `CP_q := 0`, the prologue, and
    /// either the descriptor and new node stores of an update attempt and
    /// its publication, or the recording of a read-only outcome. Records
    /// in `past_begin_op` whether the system step completed.
    fn run_op(ctx: &ThreadCtx, a: &Attempt, paper: bool, out: Outcome, past_begin_op: &Cell<bool>) {
        let pool = ctx.pool();
        ctx.begin_op(S_CP);
        past_begin_op.set(true);
        if paper {
            begin_durable(ctx);
        } else {
            begin(ctx);
        }
        if out == Outcome::ReadOnly {
            if paper {
                let node = AffectEntry {
                    info_addr: a.target.add(INFO),
                    observed: 0,
                    untag_on_cleanup: true,
                };
                read_only(ctx, a.desc, OP_LINK, FALSE, node);
            } else {
                record_false(ctx);
            }
            return;
        }
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
    /// completed update whose `[CP_q = 1, RD_q = desc]` is durable, and
    /// checks the skeleton's laws on the surviving image. Returns whether
    /// the operation completed before the crash point.
    fn crash_at(
        k: u64,
        paper: bool,
        out: Outcome,
        adv: &mut dyn CrashAdversary,
        pessimist: bool,
    ) -> bool {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(1 << 20)));
        let ctx = ThreadCtx::new(pool.clone(), 0);
        let target = pool.alloc_lines(1);
        pool.pbarrier(target, 1, S_NEW);
        // The previous operation: a completed update with an empty
        // footprint, so its stale record is what a misordered prologue
        // would expose.
        ctx.begin_op(S_CP);
        begin_durable(&ctx);
        let old = Desc::alloc(&pool);
        old.init(&pool, OP_LINK, TRUE, &[], &[], &[]);
        publish(&ctx, old, &[]);
        help(&pool, old);
        let a = Attempt {
            desc: Desc::alloc(&pool),
            new: pool.alloc_lines(1),
            target,
        };
        let past_begin_op = Cell::new(false);
        pool.crash_ctl().arm_after(k);
        let completed = run_crashable(|| run_op(&ctx, &a, paper, out, &past_begin_op)).is_some();
        pool.crash(adv);

        let (cp, rd) = (ctx.cp(), ctx.rd());
        if !past_begin_op.get() {
            // The crash struck the system's step, before the operation
            // started: RD_q still names the previous operation, which
            // `recover` resolves to its recorded result.
            assert_eq!(rd, old.raw(), "k={k}: previous RD_q lost");
            if cp == 1 {
                assert_eq!(recover(&ctx), TRUE, "k={k}");
            }
            return completed;
        }
        // What the swept operation records in RD_q.
        let own = match (out, paper) {
            (Outcome::ReadOnly, false) => FALSE,
            _ => a.desc.raw(),
        };
        // Law 1: a durable CP_q = 1 certifies RD_q belongs to this
        // operation — RD_q ∈ {⊥, FALSE, desc}, never the predecessor's.
        if cp == 1 {
            assert!(
                rd == BOTTOM || rd == own,
                "k={k}: CP_q = 1 durable beside a stale RD_q {rd:#x}"
            );
        }
        let recorded = cp == 1 && rd == own;
        // Law 2: a durable RD_q = desc implies the descriptor and its new
        // nodes are durable.
        if rd == a.desc.raw() {
            let d = a.desc;
            assert_eq!(d.op_type(&pool), OP_LINK, "k={k}: descriptor header lost");
            let e = d.affect(&pool, 0);
            assert_eq!((e.info_addr, e.observed), (target.add(INFO), 0), "k={k}");
            if out == Outcome::ReadOnly {
                assert_eq!(d.result(&pool), FALSE, "k={k}: recorded answer lost");
            } else {
                assert_eq!(d.success_result(&pool), TRUE, "k={k}");
                assert_eq!(d.result(&pool), BOTTOM, "k={k}");
                let w = d.write(&pool, 0);
                assert_eq!((w.field, w.old, w.new), (target.add(NEXT), 0, a.new.raw()));
                assert_eq!(d.new_node(&pool, 0), a.new.add(INFO), "k={k}");
                assert_eq!(pool.load(a.new.add(VALUE)), 77, "k={k}: new node lost");
                assert_eq!(pool.load(a.new.add(INFO)), d.tagged(), "k={k}");
            }
        }
        // Under the pessimist a record is durable exactly when the
        // operation's final psync ran; the lean read-only record is never
        // flushed by its own operation, so it never is.
        if pessimist {
            let flushed = completed && own != FALSE;
            assert_eq!(recorded, flushed, "k={k}");
        }
        // Law 3: Op.Recover re-invokes exactly when the crash preceded a
        // durable record. An update's record completes the attempt; a
        // read-only outcome answers FALSE, and a re-invoked one had no
        // effect.
        let r = recover(&ctx);
        match out {
            Outcome::Update if recorded => {
                assert_eq!(r, TRUE, "k={k}");
                assert_eq!(pool.load(target.add(NEXT)), a.new.raw(), "k={k}");
                assert_eq!(pool.load(target.add(INFO)), a.desc.untagged(), "k={k}");
                assert_eq!(pool.load(a.new.add(INFO)), a.desc.untagged(), "k={k}");
            }
            Outcome::ReadOnly if recorded => assert_eq!(r, FALSE, "k={k}"),
            _ => assert_eq!(r, BOTTOM, "k={k}: recovered an unrecorded outcome"),
        }
        if !(recorded && out == Outcome::Update) {
            assert_eq!(
                pool.load(target.add(NEXT)),
                0,
                "k={k}: no-effect attempt had one"
            );
        }
        completed
    }

    /// Crashes `begin_op` + the prologue + an update's publication or a
    /// read-only outcome at every instrumented event, in the lean and the
    /// paper's placement, under the pessimist and under seeded
    /// adversaries, and checks the persistence-order laws the skeleton owns
    /// directly (every structure inherits them).
    #[test]
    fn skeleton_crash_sweep_keeps_cp_rd_laws() {
        for paper in [false, true] {
            for out in [Outcome::Update, Outcome::ReadOnly] {
                for seed in [None, Some(1u64), Some(2), Some(3), Some(4), Some(5)] {
                    let mut points = 0;
                    loop {
                        let completed = match seed {
                            None => crash_at(points, paper, out, &mut PessimistAdversary, true),
                            Some(s) => crash_at(
                                points,
                                paper,
                                out,
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
                    let least = if paper || out == Outcome::Update {
                        20
                    } else {
                        5
                    };
                    assert!(
                        points > least,
                        "paper={paper} {out:?}: only {points} crash points swept"
                    );
                }
            }
        }
    }
}
