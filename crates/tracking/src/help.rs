//! The generic, idempotent `Help` engine — Algorithm 2 of the paper.
//!
//! `help(pool, desc)` drives an operation (its own, a conflicting
//! operation's, or a crashed operation's during recovery) through its
//! tagging, update, result and cleanup phases. It is safe to run any number
//! of times, concurrently, by any thread:
//!
//! * **Tagging** installs `tagged(desc)` into each AffectSet `info` field
//!   with a CAS expecting the gathered value. Seeing `tagged(desc)` already
//!   there means another helper got here first — fine, continue. Any other
//!   value means the node changed since the gather (info fields are version
//!   stamps that never revert), so the attempt **backtracks**: it untags, in
//!   reverse order, whatever this descriptor had tagged, and returns with
//!   `result` still ⊥.
//! * **Update** applies each WriteSet CAS. A failed CAS is ignored: it can
//!   only fail because another helper already applied it (the affected
//!   fields are protected by the tags), which is exactly the idempotence the
//!   recovery path relies on.
//! * **Result** stores the precomputed success response — every helper
//!   stores the same value, so the race is benign — and persists it *before*
//!   cleanup, so a recovering thread never unlocks nodes of an operation
//!   whose outcome is not yet durable.
//! * **Cleanup** untags AffectSet entries whose `untag_on_cleanup` flag is
//!   set (nodes removed from the structure keep their tag forever) and all
//!   NewSet nodes (born tagged, now live).
//!
//! Persistence placement follows the pseudocode exactly: a `pwb` after every
//! tagging/backtrack/update/cleanup CAS and the `result` store, and a
//! `psync` at the end of every phase.

use pmem::{is_tagged, PAddr, PmemPool};

use crate::descriptor::{Desc, Header};
use crate::sites::{S_BACKTRACK, S_CLEANUP, S_RESULT, S_TAG, S_UPDATE};

/// Runs Algorithm 2 for the operation described by `desc`.
///
/// On return, either the operation has taken effect (its `result` is set,
/// its updates applied, its cleanup done or duplicable by any later call),
/// or it did not take effect at all and `result` is still ⊥ (the caller —
/// owner or recovery — starts a new attempt).
pub fn help(pool: &PmemPool, desc: Desc) {
    // The tagging phase, the update phase and cleanup each load the header
    // word they need rather than share one load: every load is a crash
    // point, and the paper placement's pinned event streams count these.
    let alen = desc.header(pool).affect_len();
    let tag = desc.tagged();
    let untag = desc.untagged();

    // ---- Tagging phase (lines 32–47) ----
    for i in 0..alen {
        let entry = desc.affect(pool, i);
        let res = pool.cas(entry.info_addr, entry.observed, tag);
        pool.pwb(entry.info_addr, S_TAG);
        let seen = match res {
            Ok(_) => continue,
            Err(seen) => seen,
        };
        if seen == tag {
            continue; // another helper already tagged this node for us
        }
        // Tagging failure. If the result is already recorded, the operation
        // took effect and the "failure" is a trace of its (possibly
        // interrupted) cleanup — e.g. a crash persisted the untag of one
        // AffectSet entry but not of a NewSet node. Re-running the cleanup
        // phase is always safe (its CASes touch only this descriptor's own
        // tags) and is required for progress: a completed operation must
        // never leave a reachable node tagged forever. Note the read order:
        // cleanup untags happen-after the result write, so observing an
        // untag implies observing the result.
        if desc.result(pool) != crate::result::BOTTOM {
            cleanup(pool, desc, alen, tag, untag);
            return;
        }
        // ---- Backtrack phase (lines 38–44) ----
        // result is ⊥: the value is a genuinely foreign stamp (or our own
        // backtrack trace); no helper can ever complete this descriptor's
        // tagging (the stamp at the failed entry never reverts), so result
        // stays ⊥ and releasing our prefix is correct.
        for j in (0..i).rev() {
            let prev = desc.affect(pool, j);
            let _ = pool.cas(prev.info_addr, tag, untag);
            pool.pwb(prev.info_addr, S_BACKTRACK);
        }
        pool.psync();
        return;
    }
    pool.psync(); // line 47: tagging persisted before any update

    // ---- Update phase (lines 48–51) ----
    let hdr = desc.header(pool);
    for j in 0..hdr.write_len() {
        let w = desc.write(pool, hdr, j);
        let _ = pool.cas(w.field, w.old, w.new); // idempotent: failure means done
        pool.pwb(w.field, S_UPDATE);
    }
    // The psync below must come *before* the result store, not be merged
    // into the result phase's psync. Crash lines resolve independently: if
    // the result store were issued first, a crash in the window could keep
    // the result (volatile image) while reverting the updated field
    // (persisted image). Recovery would then trust a non-⊥ result for an
    // operation whose structural effect was undone — losing the value — or,
    // worse, resurrect a reachable node still tagged by this completed
    // descriptor whose update CAS can no longer match, wedging every later
    // traversal in a help loop. Syncing here guarantees: result ≠ ⊥ in any
    // crash resolution ⇒ every WriteSet field is durably at (or past) `new`.
    // Note every helper pwbs each field even when its CAS fails, so whichever
    // helper reaches the result store has itself persisted the updates.
    pool.psync();

    // ---- Result (lines 52–53) ----
    desc.set_result(pool, desc.success_result(pool));
    pool.pwb(desc.result_addr(), S_RESULT);
    pool.psync();

    // ---- Cleanup phase (lines 54–58) ----
    cleanup(pool, desc, alen, tag, untag);
}

/// The helping phase of Algorithm 1 (lines 14–18): if any of the gathered
/// `info` values is tagged, helps the operation of the first tagged one and
/// returns `true` (the caller gathers again); returns `false` otherwise.
pub(crate) fn help_tagged(pool: &PmemPool, infos: &[u64]) -> bool {
    let tagged = infos.iter().find(|&&info| is_tagged(info));
    if let Some(&info) = tagged {
        help(pool, Desc::from_raw(info));
    }
    tagged.is_some()
}

/// Did `desc` take effect without finishing its cleanup? True when its
/// result is recorded yet an AffectSet entry that cleanup untags, or a
/// NewSet node, still holds its tag: a crash kept some of the cleanup's
/// untags and lost others. `hdr` is `desc`'s header.
pub(crate) fn cleanup_unfinished(pool: &PmemPool, desc: Desc, hdr: Header) -> bool {
    if desc.result(pool) == crate::result::BOTTOM {
        return false;
    }
    let tag = desc.tagged();
    let untagged_entry_holds_tag = (0..hdr.affect_len()).any(|i| {
        let e = desc.affect(pool, i);
        e.untag_on_cleanup && pool.load(e.info_addr) == tag
    });
    untagged_entry_holds_tag
        || (0..hdr.new_len()).any(|i| pool.load(desc.new_node(pool, hdr, i)) == tag)
}

/// The cleanup phase (Algorithm 2 lines 54–58): untags every AffectSet
/// entry still part of the structure and every NewSet node. Idempotent;
/// also invoked when a helper detects a completed operation whose cleanup
/// was interrupted by a crash.
fn cleanup(pool: &PmemPool, desc: Desc, alen: usize, tag: u64, untag: u64) {
    for i in 0..alen {
        let entry = desc.affect(pool, i);
        if entry.untag_on_cleanup {
            let _ = pool.cas(entry.info_addr, tag, untag);
            pool.pwb(entry.info_addr, S_CLEANUP);
        }
    }
    let hdr = desc.header(pool);
    for i in 0..hdr.new_len() {
        let info_addr: PAddr = desc.new_node(pool, hdr, i);
        let _ = pool.cas(info_addr, tag, untag);
        pool.pwb(info_addr, S_CLEANUP);
    }
    pool.psync();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{AffectEntry, WriteEntry};
    use crate::result::{enc_bool, BOTTOM, TRUE};
    use pmem::{PessimistAdversary, PmemPool, PoolCfg};

    /// A fake two-word "node": w0 = field, w2 = info (w1 spare).
    fn node(p: &PmemPool, field: u64) -> PAddr {
        let n = p.alloc_lines(1);
        p.store(n, field);
        n
    }

    fn pool() -> PmemPool {
        PmemPool::new(PoolCfg::model(1 << 20))
    }

    #[test]
    fn successful_help_applies_update_result_cleanup() {
        let p = pool();
        let nd = node(&p, 5);
        let info = nd.add(2);
        let d = Desc::alloc(&p, 2, 1, 1);
        d.init(
            &p,
            1,
            enc_bool(true),
            &[AffectEntry {
                info_addr: info,
                observed: 0,
                untag_on_cleanup: true,
            }],
            &[WriteEntry {
                field: nd,
                old: 5,
                new: 9,
            }],
            &[],
        );
        help(&p, d);
        assert_eq!(p.load(nd), 9, "update applied");
        assert_eq!(d.result(&p), TRUE, "result recorded");
        assert_eq!(p.load(info), d.untagged(), "node untagged after cleanup");
    }

    #[test]
    fn help_is_idempotent() {
        let p = pool();
        let nd = node(&p, 5);
        let info = nd.add(2);
        let d = Desc::alloc(&p, 2, 1, 1);
        d.init(
            &p,
            1,
            enc_bool(true),
            &[AffectEntry {
                info_addr: info,
                observed: 0,
                untag_on_cleanup: true,
            }],
            &[WriteEntry {
                field: nd,
                old: 5,
                new: 9,
            }],
            &[],
        );
        for _ in 0..3 {
            help(&p, d);
        }
        assert_eq!(p.load(nd), 9);
        assert_eq!(d.result(&p), TRUE);
        assert_eq!(p.load(info), d.untagged());
    }

    #[test]
    fn conflicting_tag_backtracks_without_effect() {
        let p = pool();
        let nd1 = node(&p, 1);
        let nd2 = node(&p, 2);
        // nd2 is already tagged by a different descriptor
        let other = Desc::alloc(&p, 2, 1, 1);
        p.store(nd2.add(2), other.tagged());
        let d = Desc::alloc(&p, 2, 1, 1);
        d.init(
            &p,
            1,
            enc_bool(true),
            &[
                AffectEntry {
                    info_addr: nd1.add(2),
                    observed: 0,
                    untag_on_cleanup: true,
                },
                AffectEntry {
                    info_addr: nd2.add(2),
                    observed: 0,
                    untag_on_cleanup: true,
                },
            ],
            &[WriteEntry {
                field: nd1,
                old: 1,
                new: 100,
            }],
            &[],
        );
        help(&p, d);
        assert_eq!(d.result(&p), BOTTOM, "attempt must not take effect");
        assert_eq!(p.load(nd1), 1, "no update applied");
        // nd1 was tagged then backtracked: its info is untagged(d), a fresh
        // version-stamp value
        assert_eq!(p.load(nd1.add(2)), d.untagged());
        assert_eq!(
            p.load(nd2.add(2)),
            other.tagged(),
            "other op's tag untouched"
        );
    }

    #[test]
    fn stale_observed_value_fails_tagging() {
        let p = pool();
        let nd = node(&p, 1);
        let d = Desc::alloc(&p, 2, 1, 1);
        d.init(
            &p,
            1,
            enc_bool(true),
            &[AffectEntry {
                info_addr: nd.add(2),
                observed: 77,
                untag_on_cleanup: true,
            }],
            &[WriteEntry {
                field: nd,
                old: 1,
                new: 2,
            }],
            &[],
        );
        help(&p, d); // observed (77) != actual (0) -> backtrack immediately
        assert_eq!(d.result(&p), BOTTOM);
        assert_eq!(p.load(nd), 1);
        assert_eq!(p.load(nd.add(2)), 0, "info untouched (nothing was tagged)");
    }

    #[test]
    fn new_nodes_untagged_at_cleanup() {
        let p = pool();
        let nd = node(&p, 5);
        let d = Desc::alloc(&p, 2, 1, 1);
        let newnd = node(&p, 0);
        p.store(newnd.add(2), d.tagged()); // born tagged
        d.init(
            &p,
            1,
            enc_bool(true),
            &[AffectEntry {
                info_addr: nd.add(2),
                observed: 0,
                untag_on_cleanup: true,
            }],
            &[WriteEntry {
                field: nd,
                old: 5,
                new: newnd.raw(),
            }],
            &[newnd.add(2)],
        );
        help(&p, d);
        assert_eq!(p.load(newnd.add(2)), d.untagged());
    }

    #[test]
    fn deleted_node_keeps_tag_forever() {
        let p = pool();
        let pred = node(&p, 10);
        let curr = node(&p, 20);
        let d = Desc::alloc(&p, 2, 1, 1);
        d.init(
            &p,
            2,
            enc_bool(true),
            &[
                AffectEntry {
                    info_addr: pred.add(2),
                    observed: 0,
                    untag_on_cleanup: true,
                },
                AffectEntry {
                    info_addr: curr.add(2),
                    observed: 0,
                    untag_on_cleanup: false,
                },
            ],
            &[WriteEntry {
                field: pred,
                old: 10,
                new: 11,
            }],
            &[],
        );
        help(&p, d);
        assert_eq!(p.load(pred.add(2)), d.untagged());
        assert_eq!(p.load(curr.add(2)), d.tagged(), "removed node stays tagged");
    }

    #[test]
    fn crash_mid_help_then_rehelp_completes() {
        // Crash at every instrumented event of help(); after the pessimist
        // crash, a re-help must bring the operation to its final state.
        let p = pool();
        for crash_at in 0.. {
            let nd = node(&p, 5);
            let info = nd.add(2);
            // in the real algorithms affected nodes are already durable
            p.pwb(nd, pmem::SiteId(1));
            p.psync();
            let d = Desc::alloc(&p, 2, 1, 1);
            d.init(
                &p,
                1,
                enc_bool(true),
                &[AffectEntry {
                    info_addr: info,
                    observed: 0,
                    untag_on_cleanup: true,
                }],
                &[WriteEntry {
                    field: nd,
                    old: 5,
                    new: 9,
                }],
                &[],
            );
            d.pbarrier(&p, pmem::SiteId(0)); // descriptor durable before help
            p.crash_ctl().arm_after(crash_at);
            let done = pmem::run_crashable(|| help(&p, d)).is_some();
            p.crash(&mut PessimistAdversary);
            // recovery: re-run help (idempotent)
            help(&p, d);
            assert_eq!(p.load(nd), 9, "crash_at={crash_at}");
            assert_eq!(d.result(&p), TRUE, "crash_at={crash_at}");
            assert_eq!(p.load(info), d.untagged(), "crash_at={crash_at}");
            if done {
                break; // the whole help() ran without crashing: sweep complete
            }
        }
    }

    #[test]
    fn result_implies_update_under_mixed_crash_resolutions() {
        // Regression for a lost-suffix / recovery-livelock bug: the update
        // phase must psync before the result store. The seeded adversary
        // resolves each unflushed line independently, so without that sync a
        // crash between the result store and the result psync could keep the
        // result (volatile image of its line) while reverting the WriteSet
        // field (persisted image of its line). Recovery then trusts a non-⊥
        // result for an operation whose effect was undone. Sweep every crash
        // point under several seeds and assert the detectability invariant:
        // a non-⊥ result implies the update is durably applied.
        use pmem::SeededAdversary;
        for seed in [1u64, 0x9E37_79B9, 104729, 0xDEAD_BEE5, 777] {
            let p = pool();
            for crash_at in 0.. {
                let nd = node(&p, 5);
                let info = nd.add(2);
                p.pwb(nd, pmem::SiteId(1));
                p.psync();
                let d = Desc::alloc(&p, 2, 1, 1);
                d.init(
                    &p,
                    1,
                    enc_bool(true),
                    &[AffectEntry {
                        info_addr: info,
                        observed: 0,
                        untag_on_cleanup: true,
                    }],
                    &[WriteEntry {
                        field: nd,
                        old: 5,
                        new: 9,
                    }],
                    &[],
                );
                d.pbarrier(&p, pmem::SiteId(0));
                p.crash_ctl().arm_after(crash_at);
                let done = pmem::run_crashable(|| help(&p, d)).is_some();
                p.crash(&mut SeededAdversary::new(seed ^ crash_at));
                if d.result(&p) != BOTTOM {
                    assert_eq!(
                        p.load(nd),
                        9,
                        "seed={seed} crash_at={crash_at}: non-⊥ result with unapplied update"
                    );
                }
                // Re-help must always converge to the final state.
                help(&p, d);
                assert_eq!(p.load(nd), 9, "seed={seed} crash_at={crash_at}");
                assert_eq!(d.result(&p), TRUE, "seed={seed} crash_at={crash_at}");
                assert_eq!(
                    p.load(info),
                    d.untagged(),
                    "seed={seed} crash_at={crash_at}"
                );
                if done {
                    break;
                }
            }
        }
    }

    #[test]
    fn interrupted_cleanup_is_finished_by_later_helpers() {
        // Regression: an operation completed (result durable) but a crash
        // resurrected the tag of a NewSet node while the AffectSet entry's
        // untag survived. A later help() of the descriptor must finish the
        // cleanup rather than backtrack-and-return, or the reachable node
        // would stay tagged forever and every traversal would livelock.
        let p = pool();
        let nd = node(&p, 5);
        let d = Desc::alloc(&p, 2, 1, 1);
        let newnd = node(&p, 0);
        p.store(newnd.add(2), d.tagged());
        d.init(
            &p,
            1,
            enc_bool(true),
            &[AffectEntry {
                info_addr: nd.add(2),
                observed: 0,
                untag_on_cleanup: true,
            }],
            &[WriteEntry {
                field: nd,
                old: 5,
                new: newnd.raw(),
            }],
            &[newnd.add(2)],
        );
        help(&p, d); // completes: both untagged
        assert_eq!(p.load(newnd.add(2)), d.untagged());
        // simulate the crash resurrecting the NewSet tag only
        p.store(newnd.add(2), d.tagged());
        help(&p, d);
        assert_eq!(
            p.load(newnd.add(2)),
            d.untagged(),
            "completed op's cleanup must be re-run, not backtracked"
        );
        assert_eq!(d.result(&p), TRUE);
        assert_eq!(p.load(nd), newnd.raw(), "update untouched");
    }

    #[test]
    fn competing_helpers_apply_update_once() {
        // Two descriptors fight over one node; exactly one takes effect.
        let p = pool();
        let nd = node(&p, 5);
        let info = nd.add(2);
        let d1 = Desc::alloc(&p, 2, 1, 1);
        let d2 = Desc::alloc(&p, 2, 1, 1);
        for (d, new) in [(d1, 100u64), (d2, 200u64)] {
            d.init(
                &p,
                1,
                enc_bool(true),
                &[AffectEntry {
                    info_addr: info,
                    observed: 0,
                    untag_on_cleanup: true,
                }],
                &[WriteEntry {
                    field: nd,
                    old: 5,
                    new,
                }],
                &[],
            );
        }
        help(&p, d1);
        help(&p, d2); // d2's observed value (0) is stale now -> backtracks
        assert_eq!(p.load(nd), 100);
        assert_eq!(d1.result(&p), TRUE);
        assert_eq!(d2.result(&p), BOTTOM);
    }
}
