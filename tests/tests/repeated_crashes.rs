//! Crashes during recovery: the paper's model allows a thread to "incur
//! multiple crashes while executing Op and/or Op.Recover". These tests
//! crash the recovery function itself, repeatedly, and require the final
//! outcome to still be correct.

use integration_tests::{all_algos, mk};
use pmem::{SeededAdversary, SiteId, ThreadCtx};

/// Crash an insert, then crash its recovery k times before letting it
/// finish. Whatever the final recovery returns must agree with the
/// structure's state.
#[test]
fn recovery_survives_repeated_crashes() {
    for kind in all_algos() {
        for first_crash in [3u64, 17, 45, 90, 160, 300] {
            let (pool, algo) = mk(kind, 128 << 20, 2, 32);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            assert!(algo.insert(&ctx, 10));
            ctx.begin_op(SiteId(0));
            pool.crash_ctl().arm_after(first_crash);
            let pre = pmem::run_crashable(|| algo.insert_started(&ctx, 5));
            if pre.is_some() {
                continue; // ran to completion before the crash point
            }
            pool.crash(&mut SeededAdversary::new(first_crash | 1));
            // Crash the recovery itself a few times with shrinking windows.
            let mut response = None;
            for (attempt, window) in [7u64, 23, 61, 150, 400, 100_000].iter().enumerate() {
                algo.recover_structure();
                pool.crash_ctl().arm_after(*window);
                match pmem::run_crashable(|| algo.recover_insert(&ctx, 5)) {
                    Some(r) => {
                        pool.crash_ctl().disarm();
                        response = Some(r);
                        break;
                    }
                    None => {
                        pool.crash(&mut SeededAdversary::new(
                            (attempt as u64 + 2).wrapping_mul(0x9E3779B97F4A7C15) | 1,
                        ));
                    }
                }
            }
            let response = response.expect("recovery must eventually complete");
            assert!(
                response,
                "{kind:?} first_crash={first_crash}: insert of a fresh key must succeed"
            );
            assert!(algo.find(&ctx, 5), "{kind:?} first_crash={first_crash}");
            assert_eq!(algo.len(), 2, "{kind:?} first_crash={first_crash}");
        }
    }
}

/// The recovery function of a *completed* operation must be idempotent:
/// calling it many times keeps returning the recorded response without
/// re-executing the operation.
#[test]
fn recovery_of_completed_op_is_idempotent() {
    for kind in all_algos() {
        let (pool, algo) = mk(kind, 64 << 20, 2, 32);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        assert!(algo.insert(&ctx, 9));
        for _ in 0..5 {
            assert!(
                algo.recover_insert(&ctx, 9),
                "{kind:?}: must replay the response"
            );
            assert_eq!(algo.len(), 1, "{kind:?}: must not re-execute the insert");
        }
        assert!(algo.delete(&ctx, 9));
        for _ in 0..5 {
            assert!(algo.recover_delete(&ctx, 9), "{kind:?}");
            assert_eq!(algo.len(), 0, "{kind:?}: must not re-execute the delete");
        }
    }
}

/// Recovery invoked when nothing crashed mid-operation (`CP_q = 0`): the
/// system re-invokes the operation — it must behave like a fresh call.
#[test]
fn recovery_with_clean_checkpoint_reinvokes() {
    for kind in all_algos() {
        let (pool, algo) = mk(kind, 64 << 20, 2, 32);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        // CP_q = 0, RD_q = initial: a crash fell before the op started.
        ctx.begin_op(SiteId(0));
        assert!(
            algo.recover_insert(&ctx, 4),
            "{kind:?}: re-invoked insert succeeds"
        );
        assert_eq!(algo.len(), 1, "{kind:?}");
        ctx.begin_op(SiteId(0));
        assert!(
            algo.recover_delete(&ctx, 4),
            "{kind:?}: re-invoked delete succeeds"
        );
        assert_eq!(algo.len(), 0, "{kind:?}");
    }
}
