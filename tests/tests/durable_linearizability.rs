//! Durable linearizability of *completed* operations: "the effects of all
//! operations that have completed before a crash are reflected in the
//! object's state upon recovery" (the paper's Section 2, citing
//! Izraelevitz et al.). Detectability covers interrupted operations;
//! these tests cover the complementary guarantee for operations that
//! returned — under the maximal-loss adversary, so nothing an algorithm
//! forgot to flush can hide behind a lucky eviction.

use bench::AlgoKind;
use integration_tests::{all_algos, mk};
use pmem::Rng;
use pmem::{PessimistAdversary, ThreadCtx};

/// Every completed update survives a maximal-loss crash struck immediately
/// after it returns.
#[test]
fn completed_updates_survive_maximal_loss() {
    for kind in all_algos() {
        let (pool, algo) = mk(kind, 256 << 20, 2, 32);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        let mut model = std::collections::BTreeSet::new();
        let mut rng = Rng(0xD00D ^ kind as u64);
        for round in 0..120 {
            let r = rng.next();
            let key = r % 32 + 1;
            let expected;
            if r & 1 == 0 {
                expected = model.insert(key);
                assert_eq!(algo.insert(&ctx, key), expected, "{kind:?} round {round}");
            } else {
                expected = model.remove(&key);
                assert_eq!(algo.delete(&ctx, key), expected, "{kind:?} round {round}");
            }
            // the operation returned: its effect must now be durable
            pool.crash(&mut PessimistAdversary);
            algo.recover_structure();
            assert_eq!(
                algo.len(),
                model.len(),
                "{kind:?} round {round}: completed op's effect lost by the crash"
            );
            assert_eq!(
                algo.find(&ctx, key),
                model.contains(&key),
                "{kind:?} round {round}: key {key} state lost"
            );
        }
    }
}

/// A completed find's answer must remain justified after a crash: if a
/// find returned true, the key is still present post-crash (the paper's
/// Capsules-Opt discussion — a find must not answer from unpersisted
/// state).
#[test]
fn completed_finds_remain_justified_after_crash() {
    for kind in all_algos() {
        let (pool, algo) = mk(kind, 128 << 20, 2, 16);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        let mut rng = Rng(0xF17D ^ kind as u64);
        let mut model = std::collections::BTreeSet::new();
        for _ in 0..60 {
            let r = rng.next();
            let key = r % 16 + 1;
            match r % 3 {
                0 => {
                    model.insert(key);
                    algo.insert(&ctx, key);
                }
                1 => {
                    model.remove(&key);
                    algo.delete(&ctx, key);
                }
                _ => {
                    let found = algo.find(&ctx, key);
                    assert_eq!(found, model.contains(&key), "{kind:?}");
                    pool.crash(&mut PessimistAdversary);
                    algo.recover_structure();
                    assert_eq!(
                        algo.find(&ctx, key),
                        found,
                        "{kind:?}: a returned find's answer was undone by the crash"
                    );
                }
            }
        }
    }
}

/// The same guarantee under concurrency: ops completed by other threads
/// before the crash stay visible afterwards.
#[test]
fn concurrently_completed_updates_survive() {
    for kind in [
        AlgoKind::Tracking,
        AlgoKind::TrackingBst,
        AlgoKind::CapsulesOpt,
    ] {
        let (pool, algo) = mk(kind, 256 << 20, 4, 64);
        // 4 threads insert disjoint stripes and join (all ops completed)
        let mut handles = Vec::new();
        for t in 0..4usize {
            let pool = pool.clone();
            let algo = algo.clone();
            handles.push(std::thread::spawn(move || {
                let ctx = ThreadCtx::new(pool, t);
                for k in 1..=12u64 {
                    assert!(algo.insert(&ctx, t as u64 * 12 + k));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        pool.crash(&mut PessimistAdversary);
        algo.recover_structure();
        let ctx = ThreadCtx::new(pool, 0);
        for t in 0..4u64 {
            for k in 1..=12u64 {
                assert!(
                    algo.find(&ctx, t * 12 + k),
                    "{kind:?}: completed insert of {} lost",
                    t * 12 + k
                );
            }
        }
        assert_eq!(algo.len(), 48, "{kind:?}");
    }
}
