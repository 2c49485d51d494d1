//! Crash-at-every-step detectability sweeps, uniformly across the set
//! implementations and under both crash adversaries.
//!
//! Each test runs the sweep engine ([`bench::sweep::run_sweep_script`]) over
//! a short fixed scenario: a crash is injected at every instrumented
//! persistent-memory event of every operation, prefill and prologue
//! included. After each crash the adversary destroys (pessimist) or
//! selectively retains (seeded) the unflushed cache lines; recovery must
//! return the response the sequential model gives the interrupted
//! operation, and the whole history plus a post-recovery observation of
//! every key must linearize. This is the paper's definition of detectable
//! recovery, checked exhaustively.

use bench::registry;
use bench::subject::SetSubject;
use bench::sweep::{run_sweep_script, AdversaryKind, SweepCfg};
use bench::AlgoKind;
use integration_tests::{all_algos, assert_sweep_clean, mk};
use linearize::SetOp;
use pmem::Rng;
use pmem::{SeededAdversary, SiteId, ThreadCtx};

/// Sweeps `script` on the set implementation `kind` under `adversary`.
fn sweep(kind: AlgoKind, adversary: AdversaryKind, script: Vec<SetOp>) {
    let cfg = SweepCfg {
        adversary,
        ..SweepCfg::new(registry::set(kind).structure, kind)
    };
    assert_sweep_clean(&run_sweep_script::<SetSubject>(&cfg, script));
}

/// Three inserts, then the swept insert of a key between them, so its
/// search traverses nodes.
fn sweep_insert(kind: AlgoKind, adversary: AdversaryKind) {
    sweep(kind, adversary, [2, 4, 6, 3].map(SetOp::Insert).to_vec());
}

/// The same prefill, then the swept delete of a middle key.
fn sweep_delete(kind: AlgoKind, adversary: AdversaryKind) {
    let mut script = [2, 4, 6].map(SetOp::Insert).to_vec();
    script.push(SetOp::Delete(4));
    sweep(kind, adversary, script);
}

macro_rules! sweeps {
    ($($name:ident => $kind:expr),+ $(,)?) => {$(
        mod $name {
            use super::*;
            #[test]
            fn insert_pessimist() { sweep_insert($kind, AdversaryKind::Pessimist); }
            #[test]
            fn insert_seeded() { sweep_insert($kind, AdversaryKind::Seeded); }
            #[test]
            fn delete_pessimist() { sweep_delete($kind, AdversaryKind::Pessimist); }
            #[test]
            fn delete_seeded() { sweep_delete($kind, AdversaryKind::Seeded); }
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
        sweep(
            kind,
            AdversaryKind::Seeded,
            vec![SetOp::Insert(7), SetOp::Find(7)],
        );
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
