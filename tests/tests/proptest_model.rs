//! Randomized model testing: arbitrary operation sequences (with and
//! without injected crashes) must track a sequential reference model, for
//! every implementation. Sequences come from a seeded xorshift64* generator
//! (the workspace builds offline, so no proptest); every failing case is
//! reproducible from the printed case index and seed.

use bench::AlgoKind;
use integration_tests::{all_algos, mk};
use pmem::Rng;
use pmem::{SeededAdversary, SiteId, ThreadCtx};

#[derive(Copy, Clone, Debug)]
enum Op {
    Insert(u64),
    Delete(u64),
    Find(u64),
}

fn gen_ops(rng: &mut Rng, range: u64, max_len: usize) -> Vec<Op> {
    let len = (rng.next() as usize % max_len).max(1);
    (0..len)
        .map(|_| {
            let r = rng.next();
            let key = (r >> 8) % range + 1;
            match r % 3 {
                0 => Op::Insert(key),
                1 => Op::Delete(key),
                _ => Op::Find(key),
            }
        })
        .collect()
}

/// Applies `ops` sequentially and compares every response with `BTreeSet`.
fn check_sequential(kind: AlgoKind, ops: &[Op], case: u64) {
    let (pool, algo) = mk(kind, 128 << 20, 2, 64);
    let ctx = ThreadCtx::new(pool, 0);
    let mut model = std::collections::BTreeSet::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k) => assert_eq!(
                algo.insert(&ctx, k),
                model.insert(k),
                "{kind:?} case {case} op {i}: insert {k}"
            ),
            Op::Delete(k) => assert_eq!(
                algo.delete(&ctx, k),
                model.remove(&k),
                "{kind:?} case {case} op {i}: delete {k}"
            ),
            Op::Find(k) => assert_eq!(
                algo.find(&ctx, k),
                model.contains(&k),
                "{kind:?} case {case} op {i}: find {k}"
            ),
        }
    }
    assert_eq!(algo.len(), model.len(), "{kind:?} case {case}: final size");
}

/// Applies `ops` with a crash injected into each update at a pseudo-random
/// point; responses come from recovery where the crash fired.
fn check_crashy(kind: AlgoKind, ops: &[Op], seed: u64) {
    let (pool, algo) = mk(kind, 256 << 20, 2, 32);
    let ctx = ThreadCtx::new(pool.clone(), 0);
    let mut model = std::collections::BTreeSet::new();
    let mut s = seed | 1;
    for (i, op) in ops.iter().enumerate() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let crash_after = (s >> 33) % 400;
        let (key, is_insert) = match *op {
            Op::Insert(k) => (k, true),
            Op::Delete(k) => (k, false),
            Op::Find(k) => {
                assert_eq!(algo.find(&ctx, k), model.contains(&k), "{kind:?} op {i}");
                continue;
            }
        };
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
                pool.crash(&mut SeededAdversary::new(s));
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
            response, expected,
            "{kind:?} seed {seed:#x} op {i}: key {key}"
        );
    }
    assert_eq!(
        algo.len(),
        model.len(),
        "{kind:?} seed {seed:#x}: final size"
    );
}

const CASES: u64 = 12;

fn sequential_cases(kind: AlgoKind, seed: u64) {
    let mut rng = Rng(seed);
    for case in 0..CASES {
        let ops = gen_ops(&mut rng, 64, 120);
        check_sequential(kind, &ops, case);
    }
}

fn crashy_cases(kind: AlgoKind, seed: u64) {
    let mut rng = Rng(seed);
    for _case in 0..CASES {
        let ops = gen_ops(&mut rng, 32, 60);
        let s = rng.next();
        check_crashy(kind, &ops, s);
    }
}

#[test]
fn tracking_list_matches_model() {
    sequential_cases(AlgoKind::Tracking, 0x7E57_0001);
}

#[test]
fn tracking_bst_matches_model() {
    sequential_cases(AlgoKind::TrackingBst, 0x7E57_0002);
}

#[test]
fn capsules_opt_matches_model() {
    sequential_cases(AlgoKind::CapsulesOpt, 0x7E57_0003);
}

#[test]
fn romulus_matches_model() {
    sequential_cases(AlgoKind::Romulus, 0x7E57_0004);
}

#[test]
fn redo_opt_matches_model() {
    sequential_cases(AlgoKind::RedoOpt, 0x7E57_0005);
}

#[test]
fn tracking_list_matches_model_under_crashes() {
    crashy_cases(AlgoKind::Tracking, 0x7E57_0011);
}

#[test]
fn tracking_bst_matches_model_under_crashes() {
    crashy_cases(AlgoKind::TrackingBst, 0x7E57_0012);
}

#[test]
fn capsules_opt_matches_model_under_crashes() {
    crashy_cases(AlgoKind::CapsulesOpt, 0x7E57_0013);
}

#[test]
fn romulus_matches_model_under_crashes() {
    crashy_cases(AlgoKind::Romulus, 0x7E57_0014);
}

#[test]
fn redo_opt_matches_model_under_crashes() {
    crashy_cases(AlgoKind::RedoOpt, 0x7E57_0015);
}

/// Deterministic cross-implementation agreement: every algorithm must give
/// byte-identical responses on the same operation sequence.
#[test]
fn all_algorithms_agree_on_a_long_sequence() {
    let mut s = 0x600D_F00Du64;
    let ops: Vec<Op> = (0..500)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (s >> 33) % 48 + 1;
            match (s >> 20) % 3 {
                0 => Op::Insert(key),
                1 => Op::Delete(key),
                _ => Op::Find(key),
            }
        })
        .collect();
    let mut reference: Option<Vec<bool>> = None;
    for kind in all_algos() {
        let (pool, algo) = mk(kind, 256 << 20, 2, 64);
        let ctx = ThreadCtx::new(pool, 0);
        let responses: Vec<bool> = ops
            .iter()
            .map(|op| match *op {
                Op::Insert(k) => algo.insert(&ctx, k),
                Op::Delete(k) => algo.delete(&ctx, k),
                Op::Find(k) => algo.find(&ctx, k),
            })
            .collect();
        match &reference {
            None => reference = Some(responses),
            Some(want) => assert_eq!(&responses, want, "{kind:?} diverged"),
        }
    }
}
