//! Crash-storm forensics harness for the recoverable stack.
//!
//! Runs the exact worker/recovery protocol of
//! `stack_survives_crash_storms_exactly_once` in a loop until the
//! exactly-once oracle breaks or a recovery wedges, then dumps the evidence
//! needed to reconstruct the failure offline:
//!
//! * the violation, classified (value missing / value duplicated, and where
//!   each copy sits — consumed list vs still inside the stack),
//! * a bounded walk of the post-crash chain with every node's raw words and
//!   decoded `info` state,
//! * every node line in the heap holding an anomalous value, with its
//!   **pre-crash** volatile / pending / persisted images from a
//!   [`pmem::PoolSnapshot`] taken just before the crash resolution,
//! * the descriptors referenced by those nodes' `info` tags and by each
//!   thread's `RD_q` slot (op type, result, AffectSet, WriteSet),
//! * each thread's recovery line (`CP_q`/`RD_q`), current and pre-crash.
//!
//! A watchdog thread bounds each storm iteration; if recovery livelocks
//! (e.g. an operation helping a descriptor that can never untag its node),
//! the watchdog performs the same dump against the live pool and aborts.
//!
//! Exit codes: 0 = all iterations clean, 1 = oracle violation (dump on
//! stderr), 2 = wedged recovery (dump on stderr).
//!
//! Usage: `storm_forensics [iterations]` (default 50).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use pmem::Rng;
use pmem::{is_tagged, PAddr, PmemPool, PoolCfg, PoolSnapshot, SeededAdversary, SiteId, ThreadCtx};
use tracking::descriptor::Desc;
use tracking::stack::node_of;
use tracking::RecoverableStack;

const THREADS: usize = 4;
const ROUNDS: usize = 6;
const WATCHDOG_SECS: u64 = 60;

// Stack node word offsets (crates/tracking/src/stack.rs layout).
const N_VALUE: u64 = 0;
const N_NEXT: u64 = 1;
const N_INFO: u64 = 2;
const N_SENTINEL: u64 = 3;

#[derive(Copy, Clone)]
enum Pending {
    None,
    Enq(u64),
    Deq,
}

/// Everything the watchdog needs to dump state while the storm thread is
/// stuck inside recovery.
struct Diag {
    pool: Arc<PmemPool>,
    /// Snapshot taken immediately before the current round's crash
    /// resolution (None until the first crash of the iteration).
    snap: Mutex<Option<PoolSnapshot>>,
    round: AtomicUsize,
    /// Index into the outcomes vector recovery is currently processing.
    recovering: AtomicUsize,
    in_recovery: AtomicBool,
    produced: Arc<Mutex<HashSet<u64>>>,
    consumed: Arc<Mutex<Vec<u64>>>,
}

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50);
    for iter in 1..=iters {
        eprintln!("== storm iteration {iter}/{iters}");
        run_storm(iter);
    }
    eprintln!("all {iters} iterations clean");
}

fn run_storm(iter: usize) {
    let pool = Arc::new(PmemPool::new(PoolCfg::model(512 << 20)));
    let produced: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));
    let consumed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let diag = Arc::new(Diag {
        pool: pool.clone(),
        snap: Mutex::new(None),
        round: AtomicUsize::new(0),
        recovering: AtomicUsize::new(0),
        in_recovery: AtomicBool::new(false),
        produced: produced.clone(),
        consumed: consumed.clone(),
    });

    let (done_tx, done_rx) = std::sync::mpsc::channel::<i32>();
    let storm = {
        let diag = diag.clone();
        std::thread::spawn(move || {
            let code = storm_body(&diag);
            let _ = done_tx.send(code);
        })
    };
    match done_rx.recv_timeout(Duration::from_secs(WATCHDOG_SECS)) {
        Ok(0) => {
            storm.join().ok();
        }
        Ok(code) => {
            // Dump already printed by the storm body.
            eprintln!("iteration {iter}: VIOLATION (exit {code})");
            std::process::exit(code);
        }
        Err(_) => {
            eprintln!(
                "iteration {iter}: WEDGED after {WATCHDOG_SECS}s in round {} \
                 (in_recovery={} outcome#{})",
                diag.round.load(Ordering::Relaxed),
                diag.in_recovery.load(Ordering::Relaxed),
                diag.recovering.load(Ordering::Relaxed),
            );
            dump_state(&diag, &[]);
            std::process::exit(2);
        }
    }
}

/// One full storm (6 rounds); returns 0 if clean, 1 after dumping a
/// violation.
fn storm_body(diag: &Diag) -> i32 {
    let pool = &diag.pool;
    let s = RecoverableStack::new(pool.clone(), 0);
    for round in 0..ROUNDS {
        diag.round.store(round, Ordering::Relaxed);
        let barrier = Arc::new(Barrier::new(THREADS + 1));
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..THREADS {
            let pool = pool.clone();
            let s = s.clone();
            let produced = diag.produced.clone();
            let consumed = diag.consumed.clone();
            let barrier = barrier.clone();
            let stop = stop.clone();
            handles.push(std::thread::spawn(move || {
                let ctx = ThreadCtx::new(pool.clone(), t);
                let mut rng = Rng(((round * THREADS + t) as u64 + 1) * 0xABCD_1234);
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
                        match pmem::run_crashable(|| s.push_started(&ctx, v)) {
                            Some(()) => {}
                            None => return (ctx, Pending::Enq(v)),
                        }
                    } else {
                        match pmem::run_crashable(|| s.pop_started(&ctx)) {
                            Some(Some(v)) => consumed.lock().unwrap().push(v),
                            Some(None) => {}
                            None => return (ctx, Pending::Deq),
                        }
                    }
                }
            }));
        }
        barrier.wait();
        std::thread::sleep(Duration::from_millis(25));
        pool.crash_ctl().raise();
        stop.store(true, Ordering::Relaxed);
        let outcomes: Vec<(ThreadCtx, Pending)> = handles
            .into_iter()
            .map(|h| h.join().expect("worker died"))
            .collect();
        pool.crash_ctl().disarm();
        *diag.snap.lock().unwrap() = Some(pool.snapshot());
        pool.crash(&mut SeededAdversary::new(((round as u64 + 1) * 104729) | 1));
        diag.in_recovery.store(true, Ordering::Relaxed);
        for (i, (ctx, pending)) in outcomes.iter().enumerate() {
            diag.recovering.store(i, Ordering::Relaxed);
            match *pending {
                Pending::None => {}
                Pending::Enq(v) => s.recover_push(ctx, v),
                Pending::Deq => {
                    if let Some(v) = s.recover_pop(ctx) {
                        diag.consumed.lock().unwrap().push(v);
                    }
                }
            }
        }
        diag.in_recovery.store(false, Ordering::Relaxed);

        // Exactly-once oracle.
        let inside: Vec<u64> = s.values();
        let consumed_now = diag.consumed.lock().unwrap().clone();
        let produced_now = diag.produced.lock().unwrap().clone();
        let mut count: HashMap<u64, (usize, usize)> = HashMap::new();
        for &v in &consumed_now {
            count.entry(v).or_default().0 += 1;
        }
        for &v in &inside {
            count.entry(v).or_default().1 += 1;
        }
        let dups: Vec<(u64, usize, usize)> = count
            .iter()
            .filter(|&(_, &(c, i))| c + i > 1)
            .map(|(&v, &(c, i))| (v, c, i))
            .collect();
        let missing: Vec<u64> = produced_now
            .iter()
            .filter(|v| !count.contains_key(v))
            .cloned()
            .collect();
        let phantom: Vec<u64> = count
            .keys()
            .filter(|v| !produced_now.contains(v))
            .cloned()
            .collect();
        if !dups.is_empty() || !missing.is_empty() || !phantom.is_empty() {
            eprintln!("VIOLATION in round {round}:");
            for &(v, c, i) in &dups {
                eprintln!("  duplicate {v:#x}: consumed {c} time(s), inside {i} time(s)");
            }
            for &v in &missing {
                eprintln!("  missing   {v:#x}");
            }
            for &v in &phantom {
                eprintln!("  phantom   {v:#x} (never produced)");
            }
            for (t, (_, p)) in outcomes.iter().enumerate() {
                let k = match p {
                    Pending::None => "none".into(),
                    Pending::Enq(v) => format!("enq {v:#x}"),
                    Pending::Deq => "deq".to_string(),
                };
                eprintln!("  t{t} pending at crash: {k}");
            }
            let anomalies: Vec<u64> = dups
                .iter()
                .map(|&(v, _, _)| v)
                .chain(missing.iter().cloned())
                .chain(phantom.iter().cloned())
                .collect();
            dump_state(diag, &anomalies);
            return 1;
        }
    }
    0
}

// ---------------------------------------------------------------------
// Forensic dump
// ---------------------------------------------------------------------

fn dump_state(diag: &Diag, anomalies: &[u64]) {
    let pool = &diag.pool;
    let snap = diag.snap.lock().unwrap();
    let top_cell = pool.root(0);

    eprintln!("-- top cell {top_cell:?}");
    dump_word_images(pool, snap.as_ref(), top_cell, "top");

    // Bounded chain walk (the pool may be mid-livelock; reads are racy but
    // the chain below a quiescent wedge is stable).
    eprintln!("-- chain from top (first 30 nodes):");
    let mut seen = HashSet::new();
    let mut cur = node_of(pool.load(top_cell));
    let mut n = 0usize;
    let mut chain_nodes = Vec::new();
    while n < 200_000 {
        if pool.load(cur.add(N_SENTINEL)) == 1 {
            eprintln!("   [{n}] sentinel {cur:?}");
            break;
        }
        if !seen.insert(cur.raw()) {
            eprintln!("   [{n}] CYCLE back to {cur:?}");
            break;
        }
        if n < 30 {
            dump_node(pool, snap.as_ref(), cur, n);
        }
        chain_nodes.push(cur);
        cur = PAddr::from_raw(pool.load(cur.add(N_NEXT)));
        n += 1;
    }
    if n >= 200_000 {
        eprintln!("   walk truncated at {n} nodes");
    }
    eprintln!("   chain length {n}");

    // Every heap node line holding an anomalous value (node lines have the
    // value in word 0; values in this harness are always >= 1<<32 so root
    // and descriptor lines can't false-positive on small integers, and a
    // descriptor line's word 0 is a packed header far from any value).
    if !anomalies.is_empty() {
        eprintln!("-- heap scan for anomalous values:");
        let anomaly_set: HashSet<u64> = anomalies.iter().cloned().collect();
        let words = snap.as_ref().map_or(0, |s| s.watermark());
        let wpl = pmem::WORDS_PER_LINE;
        for line_base in (0..words).step_by(wpl) {
            let a = PAddr::from_raw(line_base as u64);
            let v = pool.load(a);
            if anomaly_set.contains(&v) {
                eprintln!("   node line at word {line_base} (value {v:#x}):");
                dump_node(pool, snap.as_ref(), a, usize::MAX);
                let on_chain = chain_nodes.iter().any(|c| c.word() == line_base);
                eprintln!("     reachable from top: {on_chain}");
            }
        }
    }

    // Recovery lines.
    eprintln!("-- per-thread recovery lines:");
    for t in 0..THREADS {
        let line = pool.recovery_line(t);
        let cp = pool.load(line);
        let rd = pool.load(line.add(1));
        eprintln!("   t{t}: cp={cp} rd={rd:#x}");
        dump_word_images(pool, snap.as_ref(), line, &format!("t{t}.cp"));
        dump_word_images(pool, snap.as_ref(), line.add(1), &format!("t{t}.rd"));
        if rd != 0 {
            dump_desc(
                pool,
                snap.as_ref(),
                Desc::from_raw(rd),
                &format!("t{t}.rd desc"),
            );
        }
    }
}

fn dump_node(pool: &PmemPool, snap: Option<&PoolSnapshot>, node: PAddr, idx: usize) {
    let value = pool.load(node.add(N_VALUE));
    let next = pool.load(node.add(N_NEXT));
    let info = pool.load(node.add(N_INFO));
    let tag = if is_tagged(info) { " TAGGED" } else { "" };
    let pos = if idx == usize::MAX {
        String::new()
    } else {
        format!("[{idx}] ")
    };
    eprintln!("   {pos}{node:?}: value={value:#x} next={next:#x} info={info:#x}{tag}");
    if let Some(s) = snap {
        let w = node.word();
        eprintln!(
            "     pre-crash images (vol/pend/pers): value {:?}/{:?}/{:?} next {:?}/{:?}/{:?} info {:?}/{:?}/{:?}",
            s.word(w).map(Hex),
            s.pending_word(w).map(Hex),
            s.persisted_word(w).map(Hex),
            s.word(w + 1).map(Hex),
            s.pending_word(w + 1).map(Hex),
            s.persisted_word(w + 1).map(Hex),
            s.word(w + 2).map(Hex),
            s.pending_word(w + 2).map(Hex),
            s.persisted_word(w + 2).map(Hex),
        );
    }
    if info != 0 {
        dump_desc(pool, snap, Desc::from_raw(info), "     info desc");
    }
}

fn dump_desc(pool: &PmemPool, snap: Option<&PoolSnapshot>, desc: Desc, label: &str) {
    let op = desc.op_type(pool);
    let result = desc.result(pool);
    let success = desc.success_result(pool);
    eprintln!(
        "{label}: addr={:?} op={op} result={result:#x} success_result={success:#x}",
        desc.addr()
    );
    for i in 0..desc.affect_len(pool) {
        let e = desc.affect(pool, i);
        eprintln!(
            "       affect[{i}]: info_addr={:?} observed={:#x} untag_on_cleanup={} current={:#x}",
            e.info_addr,
            e.observed,
            e.untag_on_cleanup,
            pool.load(e.info_addr)
        );
    }
    for j in 0..desc.write_len(pool) {
        let w = desc.write(pool, j);
        eprintln!(
            "       write[{j}]: field={:?} old={:#x} new={:#x} current={:#x}",
            w.field,
            w.old,
            w.new,
            pool.load(w.field)
        );
    }
    if let Some(s) = snap {
        let rw = desc.result_addr().word();
        eprintln!(
            "       pre-crash result images (vol/pend/pers): {:?}/{:?}/{:?}",
            s.word(rw).map(Hex),
            s.pending_word(rw).map(Hex),
            s.persisted_word(rw).map(Hex),
        );
    }
}

fn dump_word_images(pool: &PmemPool, snap: Option<&PoolSnapshot>, a: PAddr, label: &str) {
    let now = pool.load(a);
    match snap {
        Some(s) => {
            let w = a.word();
            eprintln!(
                "   {label}: now={now:#x} pre-crash vol/pend/pers = {:?}/{:?}/{:?}",
                s.word(w).map(Hex),
                s.pending_word(w).map(Hex),
                s.persisted_word(w).map(Hex),
            );
        }
        None => eprintln!("   {label}: now={now:#x} (no pre-crash snapshot)"),
    }
}

/// Hex-formatting wrapper so `Option<u64>` debug output stays readable.
struct Hex(u64);

impl std::fmt::Debug for Hex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}
