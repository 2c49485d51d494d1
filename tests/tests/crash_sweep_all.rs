//! Crash-at-every-step detectability sweeps, uniformly across all six
//! implementations and under two different crash adversaries.
//!
//! For each algorithm: prefill a small set, then run one update operation
//! with a crash injected after exactly `n` instrumented persistent-memory
//! events, for every `n` until the operation completes crash-free. After
//! each crash, the adversary destroys (pessimist) or selectively retains
//! (seeded) the unflushed cache lines; the recovery function must then
//! return the *correct* response and leave the structure in the correct
//! state. This is the paper's definition of detectable recovery, checked
//! exhaustively.

use bench::AlgoKind;
use integration_tests::{all_algos, mk};
use pmem::Rng;
use pmem::{CrashAdversary, PessimistAdversary, SeededAdversary, SiteId, ThreadCtx};

const POOL: usize = 64 << 20;

fn sweep_insert(kind: AlgoKind, adversary: &mut dyn FnMut(u64) -> Box<dyn CrashAdversary>) {
    for crash_at in 0..6000 {
        let (pool, algo) = mk(kind, POOL, 4, 64);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        // prefill so searches traverse a few nodes
        for k in [10u64, 20, 30] {
            assert!(algo.insert(&ctx, k));
        }
        ctx.begin_op(SiteId(0));
        pool.crash_ctl().arm_after(crash_at);
        let pre = pmem::run_crashable(|| algo.insert_started(&ctx, 15));
        match pre {
            Some(r) => {
                assert!(r, "{kind:?}: fresh insert must succeed");
                return; // sweep covered every crash point
            }
            None => {
                pool.crash(&mut *adversary(crash_at));
                algo.recover_structure();
                let r = algo.recover_insert(&ctx, 15);
                assert!(
                    r,
                    "{kind:?} crash_at={crash_at}: recovered insert must report success"
                );
                assert!(
                    algo.find(&ctx, 15),
                    "{kind:?} crash_at={crash_at}: key must be present"
                );
                assert_eq!(
                    algo.len(),
                    4,
                    "{kind:?} crash_at={crash_at}: structure corrupted"
                );
            }
        }
    }
    panic!("{kind:?}: insert sweep did not terminate within 6000 events");
}

fn sweep_delete(kind: AlgoKind, adversary: &mut dyn FnMut(u64) -> Box<dyn CrashAdversary>) {
    for crash_at in 0..6000 {
        let (pool, algo) = mk(kind, POOL, 4, 64);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        for k in [10u64, 20, 30] {
            assert!(algo.insert(&ctx, k));
        }
        ctx.begin_op(SiteId(0));
        pool.crash_ctl().arm_after(crash_at);
        let pre = pmem::run_crashable(|| algo.delete_started(&ctx, 20));
        match pre {
            Some(r) => {
                assert!(r);
                return;
            }
            None => {
                pool.crash(&mut *adversary(crash_at));
                algo.recover_structure();
                let r = algo.recover_delete(&ctx, 20);
                assert!(
                    r,
                    "{kind:?} crash_at={crash_at}: recovered delete must report success"
                );
                assert!(
                    !algo.find(&ctx, 20),
                    "{kind:?} crash_at={crash_at}: key must be gone"
                );
                assert_eq!(
                    algo.len(),
                    2,
                    "{kind:?} crash_at={crash_at}: structure corrupted"
                );
            }
        }
    }
    panic!("{kind:?}: delete sweep did not terminate within 6000 events");
}

fn pessimist() -> impl FnMut(u64) -> Box<dyn CrashAdversary> {
    |_| Box::new(PessimistAdversary)
}

fn seeded() -> impl FnMut(u64) -> Box<dyn CrashAdversary> {
    |crash_at| Box::new(SeededAdversary::new(crash_at.wrapping_mul(2654435761) | 1))
}

macro_rules! sweeps {
    ($($name:ident => $kind:expr),+ $(,)?) => {$(
        mod $name {
            use super::*;
            #[test]
            fn insert_pessimist() { sweep_insert($kind, &mut pessimist()); }
            #[test]
            fn insert_seeded() { sweep_insert($kind, &mut seeded()); }
            #[test]
            fn delete_pessimist() { sweep_delete($kind, &mut pessimist()); }
            #[test]
            fn delete_seeded() { sweep_delete($kind, &mut seeded()); }
        }
    )+};
}

sweeps! {
    tracking_list => AlgoKind::Tracking,
    tracking_bst => AlgoKind::TrackingBst,
    capsules_full => AlgoKind::Capsules,
    capsules_opt => AlgoKind::CapsulesOpt,
    romulus => AlgoKind::Romulus,
    redo_opt => AlgoKind::RedoOpt,
}

/// Read-only operations: a crash during a find must recover to a correct
/// answer as well (trivially, by re-execution — but the structure must not
/// have been corrupted by the interrupted read).
#[test]
fn find_crash_sweep_all_algorithms() {
    for kind in all_algos() {
        for crash_at in 0..400 {
            let (pool, algo) = mk(kind, POOL, 4, 64);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            assert!(algo.insert(&ctx, 7));
            ctx.begin_op(SiteId(0));
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| algo.find(&ctx, 7));
            match pre {
                Some(r) => {
                    assert!(r, "{kind:?}");
                    break;
                }
                None => {
                    pool.crash(&mut SeededAdversary::new(crash_at | 1));
                    algo.recover_structure();
                    assert!(algo.recover_find(&ctx, 7), "{kind:?} crash_at={crash_at}");
                    assert_eq!(algo.len(), 1, "{kind:?} crash_at={crash_at}");
                }
            }
        }
    }
}

/// Mixed random workload with random crash points: single thread, many
/// operations, each possibly crashing; responses (direct or recovered) must
/// track a sequential reference model exactly.
#[test]
fn randomized_crash_workload_matches_model() {
    for kind in all_algos() {
        let (pool, algo) = mk(kind, 256 << 20, 4, 32);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        let mut model = std::collections::BTreeSet::new();
        let mut rng = Rng(0x1234_5678 ^ kind as u64);
        for round in 0..300 {
            let r = rng.next();
            let key = r % 32 + 1;
            let is_insert = r & 1 == 0;
            let crash_after = (r >> 33) % 500;
            ctx.begin_op(SiteId(0));
            pool.crash_ctl().arm_after(crash_after);
            let pre = pmem::run_crashable(|| {
                if is_insert {
                    algo.insert_started(&ctx, key)
                } else {
                    algo.delete_started(&ctx, key)
                }
            });
            pool.crash_ctl().disarm();
            let response = match pre {
                Some(r) => r,
                None => {
                    pool.crash(&mut SeededAdversary::new(r | 1));
                    algo.recover_structure();
                    if is_insert {
                        algo.recover_insert(&ctx, key)
                    } else {
                        algo.recover_delete(&ctx, key)
                    }
                }
            };
            let expected = if is_insert {
                model.insert(key)
            } else {
                model.remove(&key)
            };
            assert_eq!(
                response,
                expected,
                "{kind:?} round {round}: {} {key}",
                if is_insert { "insert" } else { "delete" }
            );
            assert_eq!(algo.len(), model.len(), "{kind:?} round {round}");
        }
    }
}
