//! Thread ids are recycled. A process that starts many threads over its
//! lifetime, one after another, keeps every id below the stats layer's 16
//! exclusively owned counter shards; ids above them share one atomically
//! updated overflow shard.
//!
//! This file is its own test binary, so no other test holds ids while it
//! runs.

use std::sync::Arc;

use pmem::{PmemPool, PoolCfg};

/// The stats layer's exclusively owned shards (`N_SHARDS` in `stats.rs`).
const OWNED_SHARDS: usize = 16;

#[test]
fn threads_started_one_after_another_reuse_ids() {
    let pool = Arc::new(PmemPool::new(PoolCfg {
        trace: true,
        ..PoolCfg::model(1 << 20)
    }));
    let cell = pool.alloc_lines(1);
    for i in 0..64u64 {
        let pool = pool.clone();
        std::thread::spawn(move || pool.store(cell, i))
            .join()
            .expect("worker panicked");
    }
    let snap = pool.trace_snapshot();
    assert_eq!(snap.events.len(), 64, "one traced store per thread");
    for e in &snap.events {
        assert!(
            e.tid < OWNED_SHARDS,
            "thread id {} was handed out although earlier threads had exited",
            e.tid
        );
    }
}
