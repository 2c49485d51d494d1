//! Crash storms and sweeps for the queue and stack (the two structures the
//! generic engine derives beyond the paper's three), with an
//! exactly-once transfer oracle: after any number of crashes and
//! recoveries, {consumed values} ∪ {values still inside} must equal
//! {produced values}, with no duplicates.

use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};

use bench::subject::{PushPop, QueueSubject};
use bench::sweep::{run_sweep_script, AdversaryKind, SweepCfg};
use bench::{AlgoKind, StructureKind};
use integration_tests::assert_sweep_clean;
use linearize::QueueOp;
use pmem::Rng;
use pmem::{PmemPool, PoolCfg, SeededAdversary, SiteId, ThreadCtx};
use tracking::{RecoverableQueue, RecoverableStack};

const THREADS: usize = 4;
const ROUNDS: usize = 6;

#[derive(Copy, Clone)]
enum Pending {
    None,
    Push(u64),
    Pop,
}

/// `ROUNDS` crash storms over one structure: `THREADS` workers push and pop
/// (rng salt `salt`) until a crash is raised, the pool crashes under a
/// seeded adversary (`adversary_seed` times the round), every interrupted
/// operation recovers, and the exactly-once oracle must hold. `values`
/// lists what is still inside at quiescence.
fn storm<P: PushPop + Clone>(
    pool: Arc<PmemPool>,
    s: P,
    values: fn(&P) -> Vec<u64>,
    salt: u64,
    adversary_seed: u64,
) {
    let produced: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let consumed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    for round in 0..ROUNDS {
        let barrier = Arc::new(Barrier::new(THREADS + 1));
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let pool = pool.clone();
            let s = s.clone();
            let produced = produced.clone();
            let consumed = consumed.clone();
            let barrier = barrier.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let ctx = ThreadCtx::new(pool.clone(), t);
                let mut rng = Rng(((round * THREADS + t) as u64 + 1) * salt);
                let mut counter = 0u64;
                barrier.wait();
                loop {
                    if stop.load(Ordering::Relaxed) && !pool.crash_ctl().raised() {
                        return (ctx, Pending::None);
                    }
                    let r = rng.next();
                    if pmem::run_crashable(|| ctx.begin_op(SiteId(0))).is_none() {
                        return (ctx, Pending::None);
                    }
                    if r & 1 == 0 {
                        counter += 1;
                        let v = (round as u64) << 32 | (t as u64) << 24 | counter;
                        produced.lock().unwrap().insert(v);
                        // The value is committed to the oracle before the
                        // attempt: a crashed push must be recovered and
                        // land exactly once.
                        match pmem::run_crashable(|| s.push_started(&ctx, v)) {
                            Some(()) => {}
                            None => return (ctx, Pending::Push(v)),
                        }
                    } else {
                        match pmem::run_crashable(|| s.pop_started(&ctx)) {
                            Some(Some(v)) => consumed.lock().unwrap().push(v),
                            Some(None) => {}
                            None => return (ctx, Pending::Pop),
                        }
                    }
                }
            }));
        }
        barrier.wait();
        std::thread::sleep(std::time::Duration::from_millis(25));
        pool.crash_ctl().raise();
        stop.store(true, Ordering::Relaxed);
        let outcomes: Vec<(ThreadCtx, Pending)> = handles
            .into_iter()
            .map(|h| h.join().expect("worker died"))
            .collect();
        // `pool.crash` disarms the raised crash before resolving the image.
        let seed = ((round as u64 + 1) * adversary_seed) | 1;
        pool.crash(&mut SeededAdversary::new(seed));
        for (ctx, pending) in &outcomes {
            match *pending {
                Pending::None => {}
                Pending::Push(v) => s.recover_push(ctx, v),
                Pending::Pop => {
                    if let Some(v) = s.recover_pop(ctx) {
                        consumed.lock().unwrap().push(v);
                    }
                }
            }
        }
        // exactly-once oracle at quiescence
        let faults = exactly_once(
            &produced.lock().unwrap(),
            &consumed.lock().unwrap(),
            &values(&s),
        );
        assert!(
            faults.is_empty(),
            "round {round} (salt {salt:#x}, adversary seed {seed:#x}): \
             consumed+inside must equal produced exactly\n{}",
            faults.join("\n")
        );
    }
}

/// The exactly-once oracle: one line per value seen more than once (with
/// where its copies sit), per produced value found nowhere, and per value
/// found that was never produced. Empty when the transfer was exact.
fn exactly_once(produced: &HashSet<u64>, consumed: &[u64], inside: &[u64]) -> Vec<String> {
    let mut copies: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    for &v in consumed {
        copies.entry(v).or_default().0 += 1;
    }
    for &v in inside {
        copies.entry(v).or_default().1 += 1;
    }
    let mut faults = Vec::new();
    for (&v, &(c, i)) in &copies {
        if !produced.contains(&v) {
            faults.push(format!("  phantom   {v:#x}: never produced"));
        } else if c + i > 1 {
            faults.push(format!(
                "  duplicate {v:#x}: consumed {c} time(s), still inside {i} time(s)"
            ));
        }
    }
    let mut missing: Vec<u64> = produced
        .iter()
        .filter(|v| !copies.contains_key(v))
        .copied()
        .collect();
    missing.sort_unstable();
    for v in missing {
        faults.push(format!("  missing   {v:#x}: found nowhere"));
    }
    faults
}

#[test]
fn queue_survives_crash_storms_exactly_once() {
    let pool = Arc::new(PmemPool::new(PoolCfg::model(512 << 20)));
    let q = RecoverableQueue::new(pool.clone(), 0);
    storm(pool, q, RecoverableQueue::values, 0x9E37_79B9, 7919);
}

#[test]
fn stack_survives_crash_storms_exactly_once() {
    let pool = Arc::new(PmemPool::new(PoolCfg::model(512 << 20)));
    let s = RecoverableStack::new(pool.clone(), 0);
    storm(pool, s, RecoverableStack::values, 0xABCD_1234, 104729);
}

/// FIFO order across a crash: six enqueues, each crashed at every event;
/// the sweep's observation drains the queue, so the linearizability
/// verdict checks that every value comes out once and in order.
#[test]
fn queue_order_survives_crashes() {
    let cfg = SweepCfg {
        adversary: AdversaryKind::Seeded,
        ..SweepCfg::new(StructureKind::Queue, AlgoKind::Tracking)
    };
    let script = (1..=6).map(QueueOp::Enqueue).collect();
    assert_sweep_clean(&run_sweep_script::<QueueSubject<RecoverableQueue>>(
        &cfg, script,
    ));
}
