//! Crash recovery, end to end: crash an operation at a random instrumented
//! step, lose every non-persisted cache line, run the recovery function,
//! and verify detectability — many times in a row.
//!
//! This is the paper's central claim made executable: *"after a crash,
//! every executed operation is able to recover and return a correct
//! response, and the state of the data structure is not corrupted."*
//!
//! ```text
//! cargo run -p examples --bin crash_recovery            # Tracking list
//! cargo run -p examples --bin crash_recovery -- bst     # Tracking BST
//! cargo run -p examples --bin crash_recovery -- capsules
//! ```

use std::collections::BTreeSet;
use std::sync::Arc;

use pmem::{PmemPool, PoolCfg, SeededAdversary, ThreadCtx};

const ROUNDS: usize = 400;
const RANGE: u64 = 40;

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "list".into());
    match which.as_str() {
        "list" => run(
            "Tracking list",
            |pool| tracking::RecoverableList::new(pool, 0),
            |l, c, k| l.insert_started(c, k),
            |l, c, k| l.delete_started(c, k),
            |l, c, k| l.recover_insert(c, k),
            |l, c, k| l.recover_delete(c, k),
            |l| l.keys(),
        ),
        "bst" => run(
            "Tracking BST",
            |pool| tracking::RecoverableBst::new(pool, 0),
            |t, c, k| t.insert_started(c, k),
            |t, c, k| t.delete_started(c, k),
            |t, c, k| t.recover_insert(c, k),
            |t, c, k| t.recover_delete(c, k),
            |t| t.keys(),
        ),
        "capsules" => run(
            "Capsules-Opt list",
            |pool| capsules::CapsulesList::new(pool, 0, capsules::PersistPolicy::Opt),
            |l, c, k| l.insert_started(c, k),
            |l, c, k| l.delete_started(c, k),
            |l, c, k| l.recover_insert(c, k),
            |l, c, k| l.recover_delete(c, k),
            |l| l.keys(),
        ),
        other => {
            eprintln!("unknown structure '{other}' (list|bst|capsules)");
            std::process::exit(2);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run<S>(
    name: &str,
    build: impl Fn(Arc<PmemPool>) -> S,
    ins: impl Fn(&S, &ThreadCtx, u64) -> bool,
    del: impl Fn(&S, &ThreadCtx, u64) -> bool,
    rec_ins: impl Fn(&S, &ThreadCtx, u64) -> bool,
    rec_del: impl Fn(&S, &ThreadCtx, u64) -> bool,
    keys: impl Fn(&S) -> Vec<u64>,
) {
    // Model mode: shadow memory tracks what is really durable.
    let pool = Arc::new(PmemPool::new(PoolCfg::model(256 << 20)));
    let s = build(pool.clone());
    let ctx = ThreadCtx::new(pool.clone(), 0);
    let mut model = BTreeSet::new();
    let mut rng = pmem::Rng(0xC0FFEE);
    let mut crashes = 0usize;
    let mut completions = 0usize;

    for round in 0..ROUNDS {
        let r = rng.next();
        let key = r % RANGE + 1;
        let is_insert = r & 1 == 0;
        let crash_after = (r >> 33) % 600; // random instrumented step

        // The "system" persists CP_q := 0, then invokes the op with a crash
        // armed at a random point.
        ctx.begin_op(tracking::sites::S_CP);
        pool.crash_ctl().arm_after(crash_after);
        let outcome = pmem::run_crashable(|| {
            if is_insert {
                ins(&s, &ctx, key)
            } else {
                del(&s, &ctx, key)
            }
        });
        pool.crash_ctl().disarm();

        let response = match outcome {
            Some(r) => {
                completions += 1;
                r
            }
            None => {
                // Crash: an adversary decides the fate of every un-synced
                // cache line, then the thread recovers.
                crashes += 1;
                pool.crash(&mut SeededAdversary::new(r | 1));
                if is_insert {
                    rec_ins(&s, &ctx, key)
                } else {
                    rec_del(&s, &ctx, key)
                }
            }
        };
        // Detectability check against the sequential model.
        let expected = if is_insert {
            model.insert(key)
        } else {
            model.remove(&key)
        };
        assert_eq!(
            response,
            expected,
            "round {round}: {} {key} returned {response}, model says {expected}",
            if is_insert { "insert" } else { "delete" }
        );
        let got = keys(&s);
        let want: Vec<u64> = model.iter().copied().collect();
        assert_eq!(
            got, want,
            "round {round}: structure diverged from model after recovery"
        );
    }
    println!(
        "{name}: {ROUNDS} ops, {crashes} crashed and recovered, {completions} ran to completion — \
         every response matched the sequential model"
    );
}
