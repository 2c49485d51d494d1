//! Exchanger demo: pairs of threads rendezvous through the detectably
//! recoverable exchanger and swap work items — the paper's third data
//! structure (Section 6).
//!
//! An even number of workers each contribute a value per round; the
//! exchanger pairs them two at a time. Every round starts at a barrier, so
//! a round's exchanges pair up among themselves, and a worker whose wait
//! runs out of spin budget (its cancelled exchange had no effect) simply
//! tries again. The demo verifies the pairing is a perfect mutual
//! matching, then shows the timeout path (a lone thread cancelling its
//! slot capture cleanly).
//!
//! ```text
//! cargo run -p examples --bin exchanger_pairing
//! ```

use std::sync::{Arc, Barrier};

use pmem::{PmemPool, PoolCfg, ThreadCtx};
use tracking::RecoverableExchanger;

const WORKERS: usize = 6;
const ROUNDS: usize = 50;

fn main() {
    let pool = Arc::new(PmemPool::new(PoolCfg::perf(64 << 20)));
    let ex = RecoverableExchanger::new(pool.clone(), 0);

    println!("{WORKERS} workers × {ROUNDS} rounds of pairing…");
    let barrier = Arc::new(Barrier::new(WORKERS));
    let mut handles = Vec::new();
    for w in 0..WORKERS {
        let ex = ex.clone();
        let ctx = ThreadCtx::new(pool.clone(), w);
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let mut partners = Vec::with_capacity(ROUNDS);
            for round in 0..ROUNDS {
                // With an even worker count starting each round together,
                // every exchange of the round eventually meets a partner.
                barrier.wait();
                // value encodes (worker, round) so pairings are auditable
                let token = (w * ROUNDS + round) as u64;
                let got = loop {
                    if let Some(got) = ex.exchange(&ctx, token, 200_000_000) {
                        break got;
                    }
                };
                partners.push((token, got));
            }
            partners
        }));
    }
    let all: Vec<Vec<(u64, u64)>> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Audit: every handed-out token was received exactly once, and the
    // matching is mutual ((a received b) implies (b received a)).
    let mut pairs = std::collections::HashMap::new();
    for worker in &all {
        for &(mine, got) in worker {
            pairs.insert(mine, got);
        }
    }
    assert_eq!(pairs.len(), WORKERS * ROUNDS);
    let mut mutual = 0;
    for (&mine, &got) in &pairs {
        assert_eq!(pairs.get(&got), Some(&mine), "pairing must be mutual");
        mutual += 1;
    }
    println!(
        "{} exchanges, all mutual — no value lost or duplicated",
        mutual
    );

    // The timeout path: a lone exchanger cancels and leaves the slot free.
    let ctx = ThreadCtx::new(pool.clone(), 0);
    let r = ex.exchange(&ctx, 999, 100);
    assert_eq!(r, None, "no peer: the exchange must time out");
    assert!(ex.is_free(), "a cancelled capture must free the slot");
    println!("lone exchange timed out cleanly; slot free again");

    let stats = pool.stats();
    println!(
        "\npersistence instructions: {} pwbs, {} psyncs/pfences",
        stats.pwb_total(),
        stats.psync + stats.pfence
    );
}
