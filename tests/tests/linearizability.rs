//! Exact linearizability checking of recorded concurrent histories, via
//! the `linearize` crate's Wing–Gong search.
//!
//! Threads time-stamp each invocation and response with a shared logical
//! clock while running real operations on the structures; the checker then
//! searches for a witness linearization. Histories are kept small (the
//! search is exponential in the worst case) but the trials are many and
//! seeded differently.

use std::sync::{Arc, Barrier, Mutex};

use bench::AlgoKind;
use integration_tests::{all_algos, mk};
use linearize::{Clock, History, QueueOp, QueueRet, QueueSpec, SetOp, SetSpec};
use pmem::Rng;
use pmem::{PmemPool, PoolCfg, ThreadCtx};

type EventLog<Op, Ret> = Arc<Mutex<Vec<(Op, Ret, u64, u64)>>>;

const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 6;
const TRIALS: usize = 12;

/// Runs one concurrent trial against `kind` and returns the history.
fn record_set_history(kind: AlgoKind, seed: u64) -> History<SetSpec> {
    let (pool, algo) = mk(kind, 128 << 20, THREADS, 8);
    let clock = Arc::new(Clock::new());
    let events: EventLog<SetOp, bool> = Arc::new(Mutex::new(Vec::new()));
    let barrier = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let pool = pool.clone();
        let algo = algo.clone();
        let clock = clock.clone();
        let events = events.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let ctx = ThreadCtx::new(pool, t);
            let mut rng = Rng(seed ^ (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            let mut local = Vec::new();
            barrier.wait();
            for _ in 0..OPS_PER_THREAD {
                let r = rng.next();
                let key = r % 4 + 1; // tiny key space maximizes conflicts
                let inv = clock.now();
                let (op, ret) = match r % 3 {
                    0 => (SetOp::Insert(key), algo.insert(&ctx, key)),
                    1 => (SetOp::Delete(key), algo.delete(&ctx, key)),
                    _ => (SetOp::Find(key), algo.find(&ctx, key)),
                };
                let res = clock.now();
                local.push((op, ret, inv, res));
            }
            events.lock().unwrap().extend(local);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let mut hist = History::new();
    for (op, ret, inv, res) in events.lock().unwrap().iter() {
        hist.record(*op, *ret, *inv, *res);
    }
    hist
}

#[test]
fn concurrent_set_histories_are_linearizable() {
    for kind in all_algos() {
        for trial in 0..TRIALS {
            let h = record_set_history(kind, 0xACE0 + trial as u64 * 7919);
            assert_eq!(h.len(), THREADS * OPS_PER_THREAD);
            if let Err(e) = h.check(SetSpec::default()) {
                panic!("{kind:?} trial {trial}: {e}");
            }
        }
    }
}

#[test]
fn concurrent_queue_histories_are_linearizable() {
    for trial in 0..TRIALS {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(128 << 20)));
        let q = tracking::RecoverableQueue::new(pool.clone(), 0);
        let clock = Arc::new(Clock::new());
        let events: EventLog<QueueOp, QueueRet> = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(THREADS));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let pool = pool.clone();
            let q = q.clone();
            let clock = clock.clone();
            let events = events.clone();
            let barrier = barrier.clone();
            let trial = trial as u64;
            handles.push(std::thread::spawn(move || {
                let ctx = ThreadCtx::new(pool, t);
                let mut rng = Rng(trial * 104729 + t as u64 + 1);
                let mut local = Vec::new();
                barrier.wait();
                for i in 0..OPS_PER_THREAD {
                    let r = rng.next();
                    let inv = clock.now();
                    let (op, ret) = if r.is_multiple_of(2) {
                        let v = (t * 100 + i) as u64; // unique values
                        q.enqueue(&ctx, v);
                        (QueueOp::Enqueue(v), QueueRet::Enqueued)
                    } else {
                        (QueueOp::Dequeue, QueueRet::Dequeued(q.dequeue(&ctx)))
                    };
                    let res = clock.now();
                    local.push((op, ret, inv, res));
                }
                events.lock().unwrap().extend(local);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut hist: History<QueueSpec> = History::new();
        for (op, ret, inv, res) in events.lock().unwrap().iter() {
            hist.record(*op, ret.clone(), *inv, *res);
        }
        if let Err(e) = hist.check(QueueSpec::default()) {
            panic!("queue trial {trial}: {e}");
        }
    }
}

/// Histories spanning a crash: operations before the crash, a system-wide
/// crash with recovery, then operations after. The *combined* history
/// (with recovered responses standing in for the interrupted operations)
/// must still be linearizable — this is detectable recovery expressed as a
/// linearizability property.
#[test]
fn set_histories_spanning_crashes_are_linearizable() {
    for kind in all_algos() {
        for trial in 0..6u64 {
            let (pool, algo) = mk(kind, 128 << 20, 2, 8);
            let clock = Clock::new();
            let mut hist: History<SetSpec> = History::new();
            let ctx = ThreadCtx::new(pool.clone(), 0);
            let mut rng = Rng(trial * 31337 + kind as u64 + 1);
            for _ in 0..10 {
                let r = rng.next();
                let key = r % 4 + 1;
                let is_insert = r & 1 == 0;
                let inv = clock.now();
                ctx.begin_op(pmem::SiteId(0));
                pool.crash_ctl().arm_after((r >> 33) % 250);
                let pre = pmem::run_crashable(|| {
                    if is_insert {
                        algo.insert_started(&ctx, key)
                    } else {
                        algo.delete_started(&ctx, key)
                    }
                });
                pool.crash_ctl().disarm();
                let ret = match pre {
                    Some(v) => v,
                    None => {
                        pool.crash(&mut pmem::SeededAdversary::new(r | 1));
                        algo.recover_structure();
                        if is_insert {
                            algo.recover_insert(&ctx, key)
                        } else {
                            algo.recover_delete(&ctx, key)
                        }
                    }
                };
                let res = clock.now();
                hist.record(
                    if is_insert {
                        SetOp::Insert(key)
                    } else {
                        SetOp::Delete(key)
                    },
                    ret,
                    inv,
                    res,
                );
            }
            if let Err(e) = hist.check(SetSpec::default()) {
                panic!("{kind:?} trial {trial}: {e}");
            }
        }
    }
}
