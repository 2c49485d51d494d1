//! Randomized tests of the shadow crash model's durability laws.
//!
//! The laws being checked (for arbitrary interleavings of writes, `pwb`s,
//! `pfence`s, `psync`s and a final crash):
//!
//! 1. **Persistence**: a write whose line was `pwb`ed and then `psync`ed
//!    (with no later write to that word) survives *any* adversary.
//! 2. **Monotonicity**: under the pessimist adversary, every surviving word
//!    holds a value that was actually written (or the initial zero) — the
//!    crash can lose suffixes, never invent values.
//! 3. **Line granularity**: resolution never tears below the tracked
//!    granularity — a surviving value for word `w` was `w`'s value at some
//!    pwb/psync/crash boundary.
//! 4. **Forward-only persistence**: under concurrency, a word's persisted
//!    image never moves backward past a durably-committed value — once a
//!    thread's `pwb`+`psync` has returned, no later `psync` (draining
//!    another thread's snapshot) may regress the image below what that
//!    thread persisted.
//!
//! Sequences are drawn from a seeded xorshift64* generator (the workspace
//! builds offline, so no proptest): every case is reproducible from the
//! printed seed.

use pmem::{PAddr, PessimistAdversary, PmemPool, PoolCfg, Rng, SeededAdversary, SiteId};

#[derive(Copy, Clone, Debug)]
enum Step {
    Write { word: u8, val: u8 },
    Pwb { word: u8 },
    Psync,
    Pfence,
}

/// Draws a random step sequence of length `0..60` (mirrors the old
/// proptest strategy: writes twice as likely as the other steps).
fn gen_steps(rng: &mut Rng) -> Vec<Step> {
    let len = (rng.next() % 60) as usize;
    (0..len)
        .map(|_| {
            let r = rng.next();
            match r % 4 {
                0 | 1 => Step::Write {
                    word: (r >> 8) as u8 % 32,
                    val: ((r >> 16) as u8).max(1),
                },
                2 => Step::Pwb {
                    word: (r >> 8) as u8 % 32,
                },
                _ => {
                    if r & 0x100 == 0 {
                        Step::Psync
                    } else {
                        Step::Pfence
                    }
                }
            }
        })
        .collect()
}

/// Replays `steps` on a model pool, returning (pool, base address, the
/// per-word set of values ever written, the per-word durable-for-sure
/// value).
fn replay(steps: &[Step]) -> (PmemPool, PAddr, Vec<Vec<u64>>, Vec<Option<u64>>) {
    let pool = PmemPool::new(PoolCfg::model(1 << 20));
    let base = pool.alloc_lines(4); // 32 words
    let mut written: Vec<Vec<u64>> = vec![vec![0]; 32];
    // word -> value covered by the latest pwb of its line, not yet synced
    let mut pending: Vec<Option<u64>> = vec![None; 32];
    let mut durable: Vec<Option<u64>> = vec![Some(0); 32];
    let mut current: Vec<u64> = vec![0; 32];
    for s in steps {
        match *s {
            Step::Write { word, val } => {
                let w = word as usize;
                pool.store(base.add(w as u64), val as u64);
                current[w] = val as u64;
                written[w].push(val as u64);
                // a write after the pwb is not covered by it
            }
            Step::Pwb { word } => {
                let w = word as usize;
                pool.pwb(base.add(w as u64), SiteId(0));
                // the pwb covers the whole line's current content
                let line = w / 8 * 8;
                for i in line..line + 8 {
                    pending[i] = Some(current[i]);
                }
            }
            Step::Psync | Step::Pfence => {
                if matches!(s, Step::Psync) {
                    pool.psync();
                } else {
                    pool.pfence();
                }
                for i in 0..32 {
                    if let Some(v) = pending[i].take() {
                        durable[i] = Some(v);
                    }
                }
            }
        }
    }
    (pool, base, written, durable)
}

const CASES: u64 = 64;

#[test]
fn synced_writes_survive_the_pessimist() {
    let mut rng = Rng(0xD00B_1E01);
    for case in 0..CASES {
        let seed = rng.0;
        let steps = gen_steps(&mut rng);
        let (pool, base, _written, durable) = replay(&steps);
        pool.crash(&mut PessimistAdversary);
        for (w, d) in durable.iter().enumerate() {
            // The pessimist keeps exactly the durable image.
            assert_eq!(
                pool.load(base.add(w as u64)),
                d.unwrap(),
                "case {case} (seed {seed:#x}): word {w} lost its synced value"
            );
        }
    }
}

#[test]
fn crashes_never_invent_values() {
    let mut rng = Rng(0xD00B_1E02);
    for case in 0..CASES {
        let seed = rng.0;
        let steps = gen_steps(&mut rng);
        let (pool, base, written, _durable) = replay(&steps);
        pool.crash(&mut SeededAdversary::new(rng.next() | 1));
        for (w, vals) in written.iter().enumerate() {
            let got = pool.load(base.add(w as u64));
            assert!(
                vals.contains(&got),
                "case {case} (seed {seed:#x}): word {w} holds {got} which was never written \
                 (history {vals:?})"
            );
        }
    }
}

#[test]
fn volatile_view_equals_persisted_view_after_crash() {
    let mut rng = Rng(0xD00B_1E03);
    for case in 0..CASES {
        let seed = rng.0;
        let steps = gen_steps(&mut rng);
        let (pool, base, _written, _durable) = replay(&steps);
        pool.crash(&mut SeededAdversary::new(rng.next() | 1));
        for w in 0..32u64 {
            assert_eq!(
                pool.load(base.add(w)),
                pool.persisted_load(base.add(w)),
                "case {case} (seed {seed:#x}): post-crash volatile and persisted views diverge \
                 at word {w}"
            );
        }
    }
}

#[test]
fn double_crash_is_idempotent_under_pessimist() {
    let mut rng = Rng(0xD00B_1E04);
    for case in 0..CASES {
        let seed = rng.0;
        let steps = gen_steps(&mut rng);
        let (pool, base, _w, _d) = replay(&steps);
        pool.crash(&mut PessimistAdversary);
        let first: Vec<u64> = (0..32).map(|w| pool.load(base.add(w))).collect();
        pool.crash(&mut PessimistAdversary);
        let second: Vec<u64> = (0..32).map(|w| pool.load(base.add(w))).collect();
        assert_eq!(
            first, second,
            "case {case} (seed {seed:#x}): a second crash changed settled state"
        );
    }
}

/// Law 4: the persisted image of a word never regresses behind a value a
/// thread has durably committed.
///
/// Four threads race to raise one cell (CAS-max, so the volatile cell is
/// monotone), each raise followed by `pwb` + `psync`. The moment a
/// thread's `psync` returns, its value is durable: the snapshot it
/// inserted covered the cell at (or past) that value, and any snapshot
/// that replaces it in the pending map was taken later under the same
/// lock, hence covers a same-or-newer cell. The persisted image must
/// therefore read at-or-past the thread's value — forever.
///
/// This is a regression test for a real bug: `ShadowMem::pwb` used to read
/// the line snapshot *before* taking the pending lock, so a descheduled
/// thread could publish an arbitrarily stale snapshot which the next
/// `psync` then committed, rolling the persisted image backward past
/// thousands of completed, durably-acknowledged operations. (The failure
/// is a thread-timing race, so this test is probabilistic — it cannot
/// catch every regression on every run — but the storm tests in the
/// `integration-tests` crate hit the same law from above.)
#[test]
fn persisted_image_never_regresses_under_concurrency() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const THREADS: usize = 4;
    const ITERS: u64 = 8_000;

    let pool = Arc::new(PmemPool::new(PoolCfg::model(1 << 20)));
    let cell = pool.alloc_lines(1);
    let ticket = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let pool = Arc::clone(&pool);
            let ticket = Arc::clone(&ticket);
            std::thread::spawn(move || {
                for _ in 0..ITERS {
                    let v = ticket.fetch_add(1, Ordering::Relaxed) + 1;
                    // CAS-max: never lower the cell, so its history is monotone.
                    loop {
                        let cur = pool.load(cell);
                        if cur >= v || pool.cas(cell, cur, v).is_ok() {
                            break;
                        }
                    }
                    pool.pwb(cell, SiteId(0));
                    pool.psync();
                    let persisted = pool.persisted_load(cell);
                    assert!(
                        persisted >= v,
                        "persisted image regressed: committed {v} but later read {persisted}"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}
