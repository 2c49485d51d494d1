//! Concurrency safety without crashes: the per-key balance oracle over
//! heavy multi-thread workloads, plus targeted contention patterns.

use std::sync::{Arc, Barrier};

use bench::AlgoKind;
use integration_tests::{all_algos, mk, KeyTally};
use pmem::Rng;
use pmem::ThreadCtx;

const THREADS: usize = 4;

/// Heavy mixed workload: every response is tallied; at quiescence the
/// balance of every key must equal its presence.
#[test]
fn per_key_balance_holds_for_all_algorithms() {
    for kind in all_algos() {
        let range = 20u64;
        let (pool, algo) = mk(kind, 512 << 20, THREADS, range);
        let tally = Arc::new(KeyTally::new(range));
        let barrier = Arc::new(Barrier::new(THREADS));
        let ops_per_thread = if kind == AlgoKind::Capsules {
            300
        } else {
            1500
        };
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let pool = pool.clone();
            let algo = algo.clone();
            let tally = tally.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                let ctx = ThreadCtx::new(pool, t);
                let mut rng = Rng((t as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
                barrier.wait();
                for _ in 0..ops_per_thread {
                    let r = rng.next();
                    let key = r % range + 1;
                    match r % 3 {
                        0 => tally.insert(key, algo.insert(&ctx, key)),
                        1 => tally.delete(key, algo.delete(&ctx, key)),
                        _ => {
                            algo.find(&ctx, key);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let ctx = ThreadCtx::new(pool, 0);
        tally.check(&*algo, &ctx, &format!("{kind:?}"));
    }
}

/// All threads fight over a single key: successful inserts and deletes of
/// that key must alternate globally, which the balance oracle enforces.
#[test]
fn single_key_contention_alternates() {
    for kind in all_algos() {
        let (pool, algo) = mk(kind, 256 << 20, THREADS, 4);
        let tally = Arc::new(KeyTally::new(4));
        let barrier = Arc::new(Barrier::new(THREADS));
        let rounds = if kind == AlgoKind::Capsules { 100 } else { 500 };
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let pool = pool.clone();
            let algo = algo.clone();
            let tally = tally.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                let ctx = ThreadCtx::new(pool, t);
                barrier.wait();
                for i in 0..rounds {
                    if (i + t) % 2 == 0 {
                        tally.insert(1, algo.insert(&ctx, 1));
                    } else {
                        tally.delete(1, algo.delete(&ctx, 1));
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let ctx = ThreadCtx::new(pool, 0);
        tally.check(&*algo, &ctx, &format!("{kind:?} single-key"));
    }
}

/// Disjoint key partitions: with no cross-thread conflicts every operation
/// must succeed, and the final size is exact.
#[test]
fn disjoint_partitions_never_conflict() {
    for kind in all_algos() {
        // RedoOpt packs keys into 20 bits and Romulus sizes its region up
        // front, so keep the per-thread stripes modest.
        let per_thread = 40u64;
        let range = THREADS as u64 * per_thread;
        let (pool, algo) = mk(kind, 512 << 20, THREADS, range);
        let barrier = Arc::new(Barrier::new(THREADS));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let pool = pool.clone();
            let algo = algo.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                let ctx = ThreadCtx::new(pool, t);
                let base = t as u64 * per_thread;
                barrier.wait();
                for k in 1..=per_thread {
                    assert!(
                        algo.insert(&ctx, base + k),
                        "{kind:?}: disjoint insert must win"
                    );
                }
                for k in 1..=per_thread {
                    assert!(algo.find(&ctx, base + k), "{kind:?}");
                }
                for k in (1..=per_thread).step_by(2) {
                    assert!(algo.delete(&ctx, base + k), "{kind:?}");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(algo.len(), THREADS * (per_thread as usize / 2), "{kind:?}");
    }
}
