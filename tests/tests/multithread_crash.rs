//! System-wide crash under concurrency: several threads hammer the
//! structure, a broadcast crash stops every thread mid-operation, the
//! adversary destroys unflushed lines, every thread runs its recovery
//! function — and then *every* operation in the history must have a
//! definite, mutually consistent response.
//!
//! The oracle is the per-key balance ([`integration_tests::KeyTally`]):
//! in a linearizable set history, successful inserts and deletes of a key
//! strictly alternate, so at quiescence the balance equals presence. A
//! recovered operation that lies about what it did breaks the balance.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use bench::AlgoKind;
use integration_tests::{mk, KeyTally};
use pmem::Rng;
use pmem::{SeededAdversary, SiteId, ThreadCtx};

const THREADS: usize = 4;
const RANGE: u64 = 24;
const ROUNDS: usize = 8;

#[derive(Copy, Clone)]
enum Pending {
    None,
    Insert(u64),
    Delete(u64),
}

fn crash_storm(kind: AlgoKind) {
    let (pool, algo) = mk(kind, 512 << 20, THREADS, RANGE);
    let tally = Arc::new(KeyTally::new(RANGE));
    let main_ctx = ThreadCtx::new(pool.clone(), THREADS); // observer slot

    for round in 0..ROUNDS {
        let barrier = Arc::new(Barrier::new(THREADS + 1));
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let pool = pool.clone();
            let algo = algo.clone();
            let tally = tally.clone();
            let barrier = barrier.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let ctx = ThreadCtx::new(pool.clone(), t);
                let mut rng = Rng(((round as u64) << 32) | ((t as u64 + 1) * 0x9E37));
                barrier.wait();
                loop {
                    if stop.load(Ordering::Relaxed) && !pool.crash_ctl().raised() {
                        // graceful end (crash already resolved this round)
                        return (ctx, Pending::None);
                    }
                    let r = rng.next();
                    let key = r % RANGE + 1;
                    // The system step: if the crash hits here, the op never
                    // started and needs no response.
                    if pmem::run_crashable(|| ctx.begin_op(SiteId(0))).is_none() {
                        return (ctx, Pending::None);
                    }
                    match r % 3 {
                        0 => match pmem::run_crashable(|| algo.insert_started(&ctx, key)) {
                            Some(won) => tally.insert(key, won),
                            None => return (ctx, Pending::Insert(key)),
                        },
                        1 => match pmem::run_crashable(|| algo.delete_started(&ctx, key)) {
                            Some(won) => tally.delete(key, won),
                            None => return (ctx, Pending::Delete(key)),
                        },
                        _ => {
                            if pmem::run_crashable(|| algo.find(&ctx, key)).is_none() {
                                return (ctx, Pending::None); // read-only: no effect
                            }
                        }
                    }
                }
            }));
        }
        barrier.wait();
        // Let the threads work, then pull the plug on everyone at once.
        std::thread::sleep(std::time::Duration::from_millis(30));
        pool.crash_ctl().raise();
        stop.store(true, Ordering::Relaxed);
        let outcomes: Vec<(ThreadCtx, Pending)> = handles
            .into_iter()
            .map(|h| h.join().expect("worker died"))
            .collect();

        // All threads are stopped: resolve the crash and recover.
        pool.crash(&mut SeededAdversary::new(
            ((round as u64 + 1) * 0xDEAD_BEEF) | 1,
        ));
        algo.recover_structure();
        for (ctx, pending) in &outcomes {
            match *pending {
                Pending::None => {}
                Pending::Insert(key) => tally.insert(key, algo.recover_insert(ctx, key)),
                Pending::Delete(key) => tally.delete(key, algo.recover_delete(ctx, key)),
            }
        }
        tally.check(
            &*algo,
            &main_ctx,
            &format!("{kind:?} after crash round {round}"),
        );
    }

    // The structure must still be fully operational after all the storms.
    let ctx = ThreadCtx::new(pool, 0);
    let probe = RANGE + 1 - 1; // reuse top key
    let had = algo.find(&ctx, probe);
    if had {
        assert!(algo.delete(&ctx, probe));
    }
    assert!(algo.insert(&ctx, probe));
    assert!(algo.find(&ctx, probe));
}

#[test]
fn tracking_list_survives_crash_storms() {
    crash_storm(AlgoKind::Tracking);
}

#[test]
fn tracking_bst_survives_crash_storms() {
    crash_storm(AlgoKind::TrackingBst);
}

#[test]
fn capsules_opt_survives_crash_storms() {
    crash_storm(AlgoKind::CapsulesOpt);
}

#[test]
fn romulus_survives_crash_storms() {
    crash_storm(AlgoKind::Romulus);
}

#[test]
fn redo_opt_survives_crash_storms() {
    crash_storm(AlgoKind::RedoOpt);
}

#[test]
fn onefile_survives_crash_storms() {
    crash_storm(AlgoKind::OneFile);
}
