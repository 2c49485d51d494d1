//! The detectably recoverable sorted linked list — Section 4 of the paper
//! (Algorithms 3 and 4, types and initialization of Figure 2).
//!
//! The list is one sorted chain, the same chain the hash map's buckets are
//! built on: strictly increasing keys between two sentinels, `head` (key
//! [`KEY_MIN`]) and `tail` (key [`KEY_MAX`]); user keys lie strictly
//! between. A node is one cache line: `⟨key, next, info⟩`. The chain owns
//! the node words, the gather phase and the descriptor sets; this module
//! owns Algorithm 1's placements and the ablations.
//!
//! Characteristic details faithfully carried over from the pseudocode:
//!
//! * **Insert replaces its successor with a copy** (`newcurr`, Algorithm 3
//!   lines 1/19): `pred→next` is CASed from `curr` to a fresh `newnd` whose
//!   `next` is a fresh copy of `curr`. On the default bump pool every value
//!   stored into a `next` field is a never-before-seen node address, so no
//!   `next` field ever holds the same value twice — the paper's assumption
//!   (a), which makes the WriteSet CAS of a *delete*
//!   (`pred→next: curr → curr→next`) ABA-free as well. On a
//!   `pmem::PoolCfg::reclaim` pool node addresses *can* repeat, but only
//!   across an epoch quiescence (removed nodes are retired to
//!   `pmem::palloc` limbo and re-issued only after a drain, which the
//!   harness runs strictly between operations): every `next` expectation is
//!   gathered and CASed within one operation window, and no window spans a
//!   quiescence point, so the CAS still cannot observe a recycled address.
//!   Descriptors are never recycled (see [`Desc::alloc`]), keeping info
//!   version stamps unique forever.
//! * **A deleted (or replaced) node keeps its descriptor tag forever**
//!   (Figure 1c): its AffectSet entry has `untag_on_cleanup = false`, so any
//!   thread that still reaches it helps the finished operation and retries,
//!   never mutating a node that left the list.
//! * **Read-only outcomes skip `help`** (the red lines of the pseudocode):
//!   an insert of a present key, a delete of an absent key and every `find`
//!   return without tagging anything. Such operations linearize at the
//!   point the `info` field of the node holding the answer was read. By
//!   default ([`Placement::Lean`]) they allocate no descriptor and flush
//!   nothing: a `find` records nothing, and an insert or delete stores the
//!   immediate `RD_q := FALSE`. The paper's placement
//!   ([`Placement::Paper`]) records each response in a descriptor and
//!   persists it together with `RD_q`.

use std::sync::Arc;

use pmem::{PAddr, PmemPool, ThreadCtx};

use crate::chain::{self, Pair};
use crate::descriptor::Desc;
use crate::help::{help, help_tagged};
use crate::op;
use crate::result::{dec_bool, enc_bool, BOTTOM};
use crate::sites::{S_CP, S_NEW};

/// Sentinel key of `head` (smaller than every user key).
pub const KEY_MIN: u64 = 0;
/// Sentinel key of `tail` (larger than every user key).
pub const KEY_MAX: u64 = u64::MAX;

/// Descriptor op-type tag for list inserts.
pub const OP_INSERT: u8 = 1;
/// Descriptor op-type tag for list deletes.
pub const OP_DELETE: u8 = 2;
/// Descriptor op-type tag for list finds.
pub const OP_FIND: u8 = 3;

/// Where Algorithm 1 places its persistence instructions.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Placement {
    /// Persist only what `Op.Recover` reads, the placement of every other
    /// Tracking structure: the prologue is two stores with no flush, a
    /// `find` records nothing, and a duplicate insert or absent delete
    /// stores the immediate `RD_q := FALSE` without a descriptor
    /// (DESIGN.md §7).
    #[default]
    Lean,
    /// The paper's Algorithm 1: a durable prologue (lines 1–5), and every
    /// read-only outcome recorded in a published descriptor without `help`
    /// (the pseudocode's red lines).
    Paper,
    /// The paper's placement without its read-only optimization: read-only
    /// outcomes run the full tag–update–cleanup pipeline.
    PaperNoReadOpt,
}

/// Ablation knobs for the design choices (both default to the lean
/// configuration). The benchmark harness measures what each choice buys
/// (see DESIGN.md's ablation index).
#[derive(Copy, Clone, Debug, Default)]
pub struct ListConfig {
    /// Flush-and-fence after every shared read of the gather phase — the
    /// naive Izraelevitz-style placement the paper's scheme avoids.
    /// Default `false`.
    pub traversal_flush: bool,
    /// Where Algorithm 1's persistence instructions go. Default
    /// [`Placement::Lean`].
    pub placement: Placement,
}

/// The detectably recoverable sorted linked list.
///
/// Cloneable handle; all state lives in the pool. Every method takes the
/// calling thread's [`ThreadCtx`] (which carries the persistent `CP_q` and
/// `RD_q` recovery variables).
#[derive(Clone)]
pub struct RecoverableList {
    pool: Arc<PmemPool>,
    head: PAddr,
    cfg: ListConfig,
}

impl RecoverableList {
    /// Creates a new empty list whose head pointer is stored in root cell
    /// `root_idx`, or re-attaches to the list already rooted there (e.g.
    /// after a simulated crash).
    pub fn new(pool: Arc<PmemPool>, root_idx: usize) -> Self {
        Self::with_config(pool, root_idx, ListConfig::default())
    }

    /// [`Self::new`] with explicit ablation knobs.
    pub fn with_config(pool: Arc<PmemPool>, root_idx: usize, cfg: ListConfig) -> Self {
        pool.register_site_names(&crate::sites::SITES);
        let root = pool.root(root_idx);
        let existing = pool.load(root);
        if existing != 0 {
            return RecoverableList {
                pool,
                head: PAddr::from_raw(existing),
                cfg,
            };
        }
        let head = pool.alloc_lines(1);
        let tail = pool.alloc_lines(1);
        chain::sentinels(&pool, head, tail, None);
        pool.pfence();
        pool.store(root, head.raw());
        pool.pbarrier(root, 1, S_NEW);
        RecoverableList { pool, head, cfg }
    }

    /// The owning pool.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    /// The prologue (Algorithm 1 lines 1–5) in this list's placement.
    fn begin(&self, ctx: &ThreadCtx) {
        match self.cfg.placement {
            Placement::Lean => op::begin(ctx),
            Placement::Paper | Placement::PaperNoReadOpt => op::begin_durable(ctx),
        }
    }

    /// `Search(key)` (Algorithm 3 lines 35–44) over the list's chain, with
    /// the `traversal_flush` ablation if configured.
    fn search(&self, key: u64) -> Pair {
        chain::search(&self.pool, self.head, key, self.cfg.traversal_flush).pair
    }

    /// A read-only outcome's descriptor in the paper's placements
    /// (Algorithm 3 lines 21–23, Algorithm 4 lines 63–65): AffectSet
    /// `{curr}` and response `result`, recorded from the start in
    /// [`Placement::Paper`] and left to `help` in
    /// [`Placement::PaperNoReadOpt`].
    fn init_read_only(&self, s: &Pair, desc: Desc, op_type: u8, result: u64) {
        s.init_read_only(&self.pool, desc, op_type, result);
        if self.cfg.placement == Placement::Paper {
            desc.set_result(&self.pool, result);
        }
    }

    // ------------------------------------------------------------------
    // Insert (Algorithm 3)
    // ------------------------------------------------------------------

    /// Inserts `key`; returns `false` if it was already present.
    pub fn insert(&self, ctx: &ThreadCtx, key: u64) -> bool {
        ctx.begin_op(S_CP);
        self.insert_started(ctx, key)
    }

    /// [`Self::insert`] without the system's `CP_q := 0` pre-step (for
    /// harnesses that call [`ThreadCtx::begin_op`] themselves).
    pub fn insert_started(&self, ctx: &ThreadCtx, key: u64) -> bool {
        chain::assert_user_key(key);
        let pool = &*self.pool;
        // Lines 1–2: the new nodes are allocated once and reused across
        // attempts (they are only published by a successful tagging phase).
        let newcurr = ctx.palloc(1);
        let newnd = ctx.palloc(1);
        let placement = self.cfg.placement;
        self.begin(ctx);
        loop {
            // Gather phase (lines 9–13), helping phase (lines 14–18)
            let s = self.search(key);
            if s.help(pool) {
                continue;
            }
            if placement == Placement::Lean && chain::key(pool, s.curr) == key {
                // Lines 11–12, 21–23, lean: the duplicate is decided before
                // any descriptor exists, and its answer is the immediate
                // RD_q := FALSE. The pre-built nodes were never published.
                // (The paper's placements decide it below, after building
                // the nodes, as the pseudocode does.)
                op::record_false(ctx);
                ctx.retire(newcurr, 1);
                ctx.retire(newnd, 1);
                return false;
            }
            let desc = Desc::alloc(pool);
            // Lines 19–20: newcurr becomes a copy of curr, newnd links to it
            let curr_key = chain::key(pool, s.curr);
            s.fill_copy(pool, desc, curr_key, newcurr, newnd, key, None);
            let dup = chain::key(pool, s.curr) == key;
            if dup {
                // Lines 11–12, 21–23: read-only outcome
                self.init_read_only(&s, desc, OP_INSERT, enc_bool(false));
            } else {
                // Lines 13, 25–27
                s.init_insert(pool, desc, OP_INSERT, enc_bool(true), newcurr, newnd);
            }
            // Lines 28–30: pbarrier(newcurr, newnd, *opInfo), then RD_q
            op::publish(ctx, desc, &[newcurr, newnd]);
            // Line 31: read-only outcome returns without Help (unless the
            // read-only optimization is ablated away)
            if dup && placement == Placement::Paper {
                // The pre-built nodes were never published: retire them
                // (no-op on a bump pool).
                ctx.retire(newcurr, 1);
                ctx.retire(newnd, 1);
                return false;
            }
            // Lines 32–33
            help(pool, desc);
            let r = desc.result(pool);
            if r != BOTTOM {
                let ok = dec_bool(r);
                if ok {
                    // The WriteSet CAS replaced curr with its copy and its
                    // durability was fenced by help's cleanup: curr left
                    // the structure for good (it keeps its tag, so late
                    // readers still help through its intact info word).
                    ctx.retire(s.curr, 1);
                } else {
                    ctx.retire(newcurr, 1);
                    ctx.retire(newnd, 1);
                }
                return ok;
            }
            // Line 34: a new attempt uses a fresh descriptor (allocated at
            // the top of the loop).
        }
    }

    /// `Insert.Recover` (Algorithm 1 lines 27–31).
    pub fn recover_insert(&self, ctx: &ThreadCtx, key: u64) -> bool {
        match op::recover(ctx) {
            BOTTOM => self.insert(ctx, key),
            r => dec_bool(r),
        }
    }

    // ------------------------------------------------------------------
    // Delete (Algorithm 4)
    // ------------------------------------------------------------------

    /// Deletes `key`; returns `false` if it was absent.
    pub fn delete(&self, ctx: &ThreadCtx, key: u64) -> bool {
        ctx.begin_op(S_CP);
        self.delete_started(ctx, key)
    }

    /// [`Self::delete`] without the system's `CP_q := 0` pre-step.
    pub fn delete_started(&self, ctx: &ThreadCtx, key: u64) -> bool {
        chain::assert_user_key(key);
        let pool = &*self.pool;
        let placement = self.cfg.placement;
        self.begin(ctx);
        loop {
            // Gather phase (lines 51–55), helping phase (lines 56–62)
            let s = self.search(key);
            if s.help(pool) {
                continue;
            }
            let absent = chain::key(pool, s.curr) != key;
            if absent && placement == Placement::Lean {
                // Lines 53–54, 63–65, lean: the immediate RD_q := FALSE.
                op::record_false(ctx);
                return false;
            }
            let desc = Desc::alloc(pool);
            if absent {
                // Lines 53–54, 63–65
                self.init_read_only(&s, desc, OP_DELETE, enc_bool(false));
            } else {
                // Lines 55, 66–68: unlink curr
                s.init_unlink(
                    pool,
                    desc,
                    OP_DELETE,
                    enc_bool(true),
                    chain::next(pool, s.curr),
                );
            }
            // Lines 69–71
            op::publish(ctx, desc, &[]);
            // Line 72
            if absent && placement == Placement::Paper {
                return false;
            }
            // Lines 73–74
            help(pool, desc);
            let r = desc.result(pool);
            if r != BOTTOM {
                let ok = dec_bool(r);
                if ok {
                    // curr was durably unlinked (help fenced the WriteSet
                    // CAS before recording the result): retire it.
                    ctx.retire(s.curr, 1);
                }
                return ok;
            }
        }
    }

    /// `Delete.Recover` (Algorithm 1 lines 27–31).
    pub fn recover_delete(&self, ctx: &ThreadCtx, key: u64) -> bool {
        match op::recover(ctx) {
            BOTTOM => self.delete(ctx, key),
            r => dec_bool(r),
        }
    }

    // ------------------------------------------------------------------
    // Find (Algorithm 4 lines 76–90)
    // ------------------------------------------------------------------

    /// Is `key` present? Read-only; never tags a node (the paper's
    /// optimization for read-only operations — unless ablated with
    /// [`Placement::PaperNoReadOpt`], in which case the full tag–result–
    /// cleanup pipeline produces the response). In the lean placement it
    /// records nothing.
    pub fn find(&self, ctx: &ThreadCtx, key: u64) -> bool {
        chain::assert_user_key(key);
        let pool = &*self.pool;
        let placement = self.cfg.placement;
        // Line 76: the paper's one descriptor for the whole operation.
        let desc = (placement == Placement::Paper).then(|| Desc::alloc(pool));
        if placement == Placement::PaperNoReadOpt {
            op::begin_durable(ctx);
        }
        loop {
            // Gather phase (lines 78–80), helping phase (lines 81–84)
            let s = self.search(key);
            if help_tagged(pool, &[s.curr_info]) {
                continue;
            }
            // Lines 85–90: the response depends only on the immutable key
            // of curr; linearizes at the read of curr's info field above.
            let found = chain::key(pool, s.curr) == key;
            if let Some(desc) = desc {
                op::read_only(ctx, desc, OP_FIND, enc_bool(found), s.curr_entry(true));
            } else if placement == Placement::PaperNoReadOpt {
                // A fresh descriptor per attempt: a backtracked descriptor
                // must never be re-initialized (helpers may still hold
                // references).
                let desc = Desc::alloc(pool);
                self.init_read_only(&s, desc, OP_FIND, enc_bool(found));
                op::publish(ctx, desc, &[]);
                help(pool, desc);
                if desc.result(pool) == BOTTOM {
                    continue;
                }
            }
            return found;
        }
    }

    /// `Find.Recover`: a find is read-only, so recovery simply re-executes
    /// it — the re-execution linearizes after the crash, which is always
    /// admissible for an operation that had not returned.
    pub fn recover_find(&self, ctx: &ThreadCtx, key: u64) -> bool {
        self.find(ctx, key)
    }

    // ------------------------------------------------------------------
    // Quiescent inspection helpers (tests, examples, validation)
    // ------------------------------------------------------------------

    /// Collects the user keys in list order. Only meaningful while no
    /// operation is in flight.
    pub fn keys(&self) -> Vec<u64> {
        let mut out = Vec::new();
        chain::walk(&self.pool, self.head, |_, k| {
            if k != KEY_MAX {
                out.push(k);
            }
        });
        out
    }

    /// Checks structural invariants (quiescent): strictly sorted keys,
    /// reachable tail, and no node left tagged. Returns the number of user
    /// keys. Panics on violation.
    pub fn check_invariants(&self) -> usize {
        chain::check(&self.pool, self.head, |_| {})
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PmemPool, PoolCfg};
    use std::collections::BTreeSet;

    fn setup() -> (Arc<PmemPool>, RecoverableList, ThreadCtx) {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(8 << 20)));
        let list = RecoverableList::new(pool.clone(), 0);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        (pool, list, ctx)
    }

    #[test]
    fn empty_list_invariants() {
        let (_p, list, _ctx) = setup();
        assert_eq!(list.check_invariants(), 0);
        assert!(list.keys().is_empty());
    }

    #[test]
    fn insert_find_delete_basics() {
        let (_p, list, ctx) = setup();
        assert!(!list.find(&ctx, 10));
        assert!(list.insert(&ctx, 10));
        assert!(list.find(&ctx, 10));
        assert!(!list.insert(&ctx, 10), "duplicate insert fails");
        assert!(list.delete(&ctx, 10));
        assert!(!list.find(&ctx, 10));
        assert!(!list.delete(&ctx, 10), "absent delete fails");
        assert_eq!(list.check_invariants(), 0);
    }

    #[test]
    fn flush_discipline_is_lint_clean() {
        // The flush lint must not flag Tracking's persistence placement: no
        // redundant pwbs, no lines published before their pbarrier, and —
        // after the final psync — no dirty line left whose loss a pessimist
        // crash could surface.
        let pool = Arc::new(PmemPool::new(PoolCfg {
            lint: true,
            ..PoolCfg::model(8 << 20)
        }));
        let list = RecoverableList::new(pool.clone(), 0);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        // Construction flushes before the lint saw the stores' history are
        // not findings; start the checked window at a known-clean point.
        pool.lint_clear();
        let mut rng = 0xC0FFEEu64;
        for _ in 0..300 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (rng >> 33) % 40 + 1;
            match (rng >> 20) % 3 {
                0 => {
                    list.insert(&ctx, key);
                }
                1 => {
                    list.delete(&ctx, key);
                }
                _ => {
                    list.find(&ctx, key);
                }
            }
        }
        let r = pool.lint_report();
        assert!(
            r.is_clean(),
            "tracking flush discipline violations:\n{}",
            pool.lint_report_text()
        );
    }

    #[test]
    fn keys_stay_sorted() {
        let (_p, list, ctx) = setup();
        for k in [5u64, 1, 9, 3, 7] {
            assert!(list.insert(&ctx, k));
        }
        assert_eq!(list.keys(), vec![1, 3, 5, 7, 9]);
        assert!(list.delete(&ctx, 5));
        assert_eq!(list.keys(), vec![1, 3, 7, 9]);
        assert_eq!(list.check_invariants(), 4);
    }

    #[test]
    fn matches_reference_model_sequentially() {
        let (_p, list, ctx) = setup();
        let mut model = BTreeSet::new();
        let mut rng = 0x12345u64;
        for _ in 0..2000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (rng >> 33) % 60 + 1;
            match (rng >> 20) % 3 {
                0 => assert_eq!(list.insert(&ctx, key), model.insert(key), "insert {key}"),
                1 => assert_eq!(list.delete(&ctx, key), model.remove(&key), "delete {key}"),
                _ => assert_eq!(list.find(&ctx, key), model.contains(&key), "find {key}"),
            }
        }
        assert_eq!(list.keys(), model.iter().copied().collect::<Vec<_>>());
        list.check_invariants();
    }

    #[test]
    fn boundary_positions() {
        let (_p, list, ctx) = setup();
        assert!(list.insert(&ctx, 50));
        assert!(list.insert(&ctx, 1), "smallest user key at the front");
        assert!(
            list.insert(&ctx, u64::MAX - 1),
            "largest user key at the back"
        );
        assert_eq!(list.keys(), vec![1, 50, u64::MAX - 1]);
        assert!(list.delete(&ctx, 1));
        assert!(list.delete(&ctx, u64::MAX - 1));
        assert_eq!(list.keys(), vec![50]);
    }

    #[test]
    #[should_panic(expected = "between the sentinels")]
    fn sentinel_keys_rejected() {
        let (_p, list, ctx) = setup();
        list.insert(&ctx, KEY_MAX);
    }

    #[test]
    fn reattach_finds_existing_list() {
        let (p, list, ctx) = setup();
        list.insert(&ctx, 42);
        let list2 = RecoverableList::new(p, 0);
        assert_eq!(list2.keys(), vec![42]);
    }

    #[test]
    fn rd_points_to_last_op_descriptor() {
        let (p, list, ctx) = setup();
        list.insert(&ctx, 7);
        let d = Desc::from_raw(ctx.rd());
        assert_eq!(d.op_type(&p), OP_INSERT);
        assert_eq!(d.result(&p), enc_bool(true));
        list.delete(&ctx, 7);
        let d = Desc::from_raw(ctx.rd());
        assert_eq!(d.op_type(&p), OP_DELETE);
        assert_eq!(d.result(&p), enc_bool(true));
    }

    #[test]
    fn concurrent_inserts_distinct_keys() {
        let (p, list, _ctx) = setup();
        let mut handles = vec![];
        for t in 0..4u64 {
            let list = list.clone();
            let ctx = ThreadCtx::new(p.clone(), t as usize);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    assert!(list.insert(&ctx, t * 1000 + i + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(list.check_invariants(), 200);
    }

    #[test]
    fn concurrent_mixed_ops_preserve_invariants() {
        let (p, list, _ctx) = setup();
        let mut handles = vec![];
        for t in 0..4usize {
            let list = list.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            handles.push(std::thread::spawn(move || {
                let mut rng = (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15);
                for _ in 0..500 {
                    rng ^= rng << 13;
                    rng ^= rng >> 7;
                    rng ^= rng << 17;
                    let key = rng % 40 + 1;
                    match (rng >> 32) % 3 {
                        0 => {
                            list.insert(&ctx, key);
                        }
                        1 => {
                            list.delete(&ctx, key);
                        }
                        _ => {
                            list.find(&ctx, key);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        list.check_invariants();
    }

    #[test]
    fn contending_inserts_same_key_exactly_one_wins() {
        let (p, list, _ctx) = setup();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
        let mut handles = vec![];
        for t in 0..4usize {
            let list = list.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                list.insert(&ctx, 77)
            }));
        }
        let wins: usize = handles
            .into_iter()
            .filter(|_| true)
            .map(|h| h.join().unwrap() as usize)
            .sum();
        assert_eq!(
            wins, 1,
            "exactly one concurrent insert of the same key succeeds"
        );
        assert_eq!(list.keys(), vec![77]);
    }

    #[test]
    fn crash_swept_insert_recovers_detectably() {
        // Crash an insert at every instrumented event; after recovery the
        // response must agree with the list's state: recovered-true iff the
        // key is present exactly once, and a re-invoked op must also succeed.
        for crash_at in 0..2000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(8 << 20)));
            let list = RecoverableList::new(pool.clone(), 0);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            ctx.begin_op(S_CP);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| list.insert_started(&ctx, 5));
            pool.crash(&mut pmem::PessimistAdversary);
            match pre {
                Some(r) => {
                    // op completed before the crash point was reached: the
                    // sweep is over
                    assert!(r);
                    assert_eq!(list.keys(), vec![5]);
                    return;
                }
                None => {
                    let r = list.recover_insert(&ctx, 5);
                    assert!(r, "recovered insert of a fresh key must report success");
                    assert_eq!(list.keys(), vec![5], "crash_at={crash_at}");
                    list.check_invariants();
                }
            }
        }
        panic!("sweep did not terminate: operation needs more than 2000 events");
    }

    #[test]
    fn crash_swept_delete_recovers_detectably() {
        for crash_at in 0..2000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(8 << 20)));
            let list = RecoverableList::new(pool.clone(), 0);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            assert!(list.insert(&ctx, 5));
            ctx.begin_op(S_CP);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| list.delete_started(&ctx, 5));
            pool.crash(&mut pmem::PessimistAdversary);
            match pre {
                Some(r) => {
                    assert!(r);
                    assert!(list.keys().is_empty());
                    return;
                }
                None => {
                    let r = list.recover_delete(&ctx, 5);
                    assert!(r, "recovered delete of a present key must report success");
                    assert!(list.keys().is_empty(), "crash_at={crash_at}");
                    list.check_invariants();
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn recovery_of_completed_op_returns_recorded_result() {
        let (_p, list, ctx) = setup();
        assert!(list.insert(&ctx, 9));
        // Crash struck after the return value was computed but before the
        // caller consumed it: recover must reproduce `true`, not re-insert.
        assert!(list.recover_insert(&ctx, 9));
        assert_eq!(list.keys(), vec![9], "no double insert");
    }

    /// A completed read-only outcome recovers to its recorded `false` even
    /// after another thread flipped the key, in every placement — what a
    /// recovery after a clean stop sees. A bare re-invocation would insert
    /// (or delete) the key instead and undo the other thread's update.
    #[test]
    fn read_only_outcome_recovers_recorded_false_after_a_flip() {
        for placement in [Placement::Lean, Placement::Paper, Placement::PaperNoReadOpt] {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(8 << 20)));
            let cfg = ListConfig {
                placement,
                ..ListConfig::default()
            };
            let list = RecoverableList::with_config(pool.clone(), 0, cfg);
            let a = ThreadCtx::new(pool.clone(), 0);
            let b = ThreadCtx::new(pool, 1);
            assert!(list.insert(&a, 5));
            assert!(!list.insert(&a, 5), "{placement:?}");
            assert!(list.delete(&b, 5));
            assert!(!list.recover_insert(&a, 5), "{placement:?}");
            assert!(list.keys().is_empty(), "{placement:?}: B's delete undone");

            assert!(!list.delete(&a, 7), "{placement:?}");
            assert!(list.insert(&b, 7));
            assert!(!list.recover_delete(&a, 7), "{placement:?}");
            assert_eq!(list.keys(), vec![7], "{placement:?}: B's insert undone");
        }
    }

    #[test]
    fn lean_read_only_outcomes_persist_nothing() {
        let (p, list, ctx) = setup();
        assert!(list.insert(&ctx, 5));
        p.stats_reset();
        assert!(list.find(&ctx, 5));
        assert!(!list.find(&ctx, 6));
        let s = p.stats();
        assert_eq!((s.pwb_total(), s.pfence, s.psync), (0, 0, 0), "find");
        // An update's read-only outcome: only the system's CP_q := 0 step.
        assert!(!list.insert(&ctx, 5));
        assert!(!list.delete(&ctx, 6));
        let s = p.stats();
        assert_eq!((s.pwb_total(), s.pfence, s.psync), (2, 0, 2));
        assert_eq!(s.pwb_at(S_CP), 2);
        assert_eq!((ctx.cp(), ctx.rd()), (1, crate::result::FALSE));
    }

    #[test]
    fn ablation_configs_match_reference_model() {
        let placements = [Placement::Lean, Placement::Paper, Placement::PaperNoReadOpt];
        let configs = placements.into_iter().flat_map(|placement| {
            [false, true].map(|traversal_flush| ListConfig {
                traversal_flush,
                placement,
            })
        });
        for cfg in configs {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
            let list = RecoverableList::with_config(pool.clone(), 0, cfg);
            let ctx = ThreadCtx::new(pool, 0);
            let mut model = BTreeSet::new();
            let mut rng = 0x7777u64;
            for _ in 0..800 {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let key = (rng >> 33) % 40 + 1;
                match (rng >> 20) % 3 {
                    0 => assert_eq!(list.insert(&ctx, key), model.insert(key), "{cfg:?}"),
                    1 => assert_eq!(list.delete(&ctx, key), model.remove(&key), "{cfg:?}"),
                    _ => assert_eq!(list.find(&ctx, key), model.contains(&key), "{cfg:?}"),
                }
            }
            assert_eq!(
                list.keys(),
                model.iter().copied().collect::<Vec<_>>(),
                "{cfg:?}"
            );
            list.check_invariants();
        }
    }

    #[test]
    fn traversal_flush_ablation_flushes_per_visited_node() {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
        let list = RecoverableList::with_config(
            pool.clone(),
            0,
            ListConfig {
                traversal_flush: true,
                ..ListConfig::default()
            },
        );
        let ctx = ThreadCtx::new(pool.clone(), 0);
        for k in 1..=20u64 {
            list.insert(&ctx, k);
        }
        pool.stats_reset();
        list.find(&ctx, 20); // traverses the whole list
        let s = pool.stats();
        assert!(
            s.pwb_at(crate::sites::S_TRAVERSE) >= 20,
            "naive placement must flush every visited node (got {})",
            s.pwb_at(crate::sites::S_TRAVERSE)
        );
    }

    #[test]
    fn no_read_opt_ablation_tags_on_find() {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
        let list = RecoverableList::with_config(
            pool.clone(),
            0,
            ListConfig {
                traversal_flush: false,
                placement: Placement::PaperNoReadOpt,
            },
        );
        let ctx = ThreadCtx::new(pool.clone(), 0);
        list.insert(&ctx, 5);
        pool.stats_reset();
        assert!(list.find(&ctx, 5));
        let s = pool.stats();
        assert!(
            s.pwb_at(crate::sites::S_TAG) >= 1,
            "without the optimization a find runs the tagging phase"
        );
        list.check_invariants(); // and cleans up after itself
    }

    #[test]
    fn ablated_find_still_recovers() {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
        let list = RecoverableList::with_config(
            pool.clone(),
            0,
            ListConfig {
                traversal_flush: false,
                placement: Placement::PaperNoReadOpt,
            },
        );
        let ctx = ThreadCtx::new(pool.clone(), 0);
        list.insert(&ctx, 5);
        for crash_at in [3u64, 15, 40, 90] {
            ctx.begin_op(S_CP);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| list.find(&ctx, 5));
            pool.crash(&mut pmem::PessimistAdversary);
            let r = match pre {
                Some(r) => r,
                None => list.recover_find(&ctx, 5),
            };
            assert!(r, "crash_at={crash_at}");
            list.check_invariants();
        }
    }
}
