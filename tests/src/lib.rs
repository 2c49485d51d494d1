//! Shared helpers for the cross-crate integration tests.
//!
//! The central safety property exercised here is **detectable recovery**:
//! after any crash, every operation — completed or interrupted — has a
//! definite, correct response, and the structure is uncorrupted. The
//! helpers make that checkable mechanically:
//!
//! * [`mk`] builds any evaluated set algorithm on a fresh Model-mode pool,
//!   and [`all_algos`] lists the registry's set competitors;
//! * [`KeyTally`] maintains, per key, the balance of *successful* inserts
//!   minus *successful* deletes. Because set operations on the same key
//!   serialize (a successful insert and a successful delete of the same key
//!   never both "win" the same state), in any linearizable history the
//!   balance of each key is exactly its presence (0 or 1) at quiescence —
//!   regardless of interleaving. With detectable recovery, crashed
//!   operations still produce definite responses (via `recover_*`), so the
//!   balance check extends across crashes: it fails if a recovered
//!   response misreports what the operation actually did.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use bench::registry::{self, COMPETITOR};
use bench::{build, AlgoKind, SetAlgo};
use pmem::{PmemPool, PoolCfg, ThreadCtx};

/// All set algorithms under test: the registry's competitors — the
/// paper's five, the Tracking BST, and OneFile (measured in the paper,
/// shown here).
pub fn all_algos() -> Vec<AlgoKind> {
    registry::with_role(COMPETITOR).map(|e| e.algo).collect()
}

/// Builds `kind` on a fresh Model-mode (shadowed, crashable) pool.
pub fn mk(
    kind: AlgoKind,
    pool_bytes: usize,
    threads: usize,
    range: u64,
) -> (Arc<PmemPool>, Arc<dyn SetAlgo>) {
    let pool = Arc::new(PmemPool::new(PoolCfg::model(pool_bytes)));
    let algo = build(kind, pool.clone(), threads, range);
    (pool, algo)
}

/// Per-key balance of successful inserts minus successful deletes.
pub struct KeyTally {
    per_key: Vec<AtomicI64>,
}

impl KeyTally {
    /// Tally over keys `1..=range`.
    pub fn new(range: u64) -> KeyTally {
        KeyTally {
            per_key: (0..=range).map(|_| AtomicI64::new(0)).collect(),
        }
    }

    /// Records an insert response.
    pub fn insert(&self, key: u64, won: bool) {
        if won {
            self.per_key[key as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a delete response.
    pub fn delete(&self, key: u64, won: bool) {
        if won {
            self.per_key[key as usize].fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Asserts the balance of every key matches its presence in `algo`.
    pub fn check(&self, algo: &dyn SetAlgo, ctx: &ThreadCtx, label: &str) {
        let mut present = 0;
        for (key, bal) in self.per_key.iter().enumerate().skip(1) {
            let bal = bal.load(Ordering::Relaxed);
            assert!(
                bal == 0 || bal == 1,
                "{label}: key {key} has balance {bal} — some response was wrong"
            );
            let found = algo.find(ctx, key as u64);
            assert_eq!(
                found,
                bal == 1,
                "{label}: key {key} balance {bal} but find says {found}"
            );
            present += bal as usize;
        }
        assert_eq!(
            algo.len(),
            present,
            "{label}: structure size disagrees with tally"
        );
    }
}
