//! Quickstart: a detectably recoverable sorted set in five minutes.
//!
//! Creates a simulated persistent-memory pool, builds the Tracking linked
//! list on it, runs a few operations from several threads, and shows the
//! persistence-instruction accounting that the paper's evaluation is built
//! on.
//!
//! ```text
//! cargo run -p examples --bin quickstart
//! ```

use std::sync::Arc;

use pmem::{PmemPool, PoolCfg, ThreadCtx};
use tracking::RecoverableList;

fn main() {
    // A pool is a word-addressable simulated NVMM. Perf mode: pwb = real
    // cache-line flush, psync = store fence.
    let pool = Arc::new(PmemPool::new(PoolCfg::perf(64 << 20)));
    let list = RecoverableList::new(pool.clone(), 0);

    // Every thread carries a ThreadCtx: its identity plus the persistent
    // CP_q / RD_q recovery variables of the paper's system model.
    let ctx = ThreadCtx::new(pool.clone(), 0);

    assert!(list.insert(&ctx, 42));
    assert!(
        !list.insert(&ctx, 42),
        "second insert of 42 reports 'already there'"
    );
    assert!(list.find(&ctx, 42));
    assert!(list.delete(&ctx, 42));
    assert!(!list.find(&ctx, 42));

    // A few threads hammering the same small key range.
    let mut handles = Vec::new();
    for t in 0..4 {
        let list = list.clone();
        let ctx = ThreadCtx::new(pool.clone(), t);
        handles.push(std::thread::spawn(move || {
            let mut rng = pmem::Rng((t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
            let mut done = 0u64;
            for _ in 0..10_000 {
                let r = rng.next();
                let key = r % 100 + 1;
                match (r >> 32) % 3 {
                    0 => drop(list.insert(&ctx, key)),
                    1 => drop(list.delete(&ctx, key)),
                    _ => drop(list.find(&ctx, key)),
                }
                done += 1;
            }
            done
        }));
    }
    let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    let keys = list.check_invariants();
    println!("ran {total} operations from 4 threads; {keys} keys remain, invariants hold");

    // The per-site persistence accounting behind Figures 3b–3e.
    let stats = pool.stats();
    println!("\npersistence instructions executed:");
    println!("  psync/pfence: {}", stats.psync + stats.pfence);
    for (site, name) in tracking::sites::SITES {
        let n = stats.pwb_at(site);
        if n > 0 {
            println!("  pwb[{name:<14}] {n}");
        }
    }
}
