//! The detectably recoverable leaf-oriented (external) binary search tree —
//! Section 6 of the paper (Algorithms 5–6, types of Figure 7), derived from
//! the Ellen–Fatourou–Ruppert–van Breugel lock-free BST.
//!
//! Every key resides in a leaf; internal nodes route searches (`k <
//! node.key` goes left). The tree is initialized with a root whose key is
//! ∞₂ and two leaf children ∞₁ < ∞₂, both larger than every user key, so a
//! search never falls off the tree.
//!
//! * **Insert** replaces the reached leaf `l` with a three-node subtree:
//!   a fresh internal node (key `max(k, l.key)`) whose children are a new
//!   leaf `k` and a *copy* of `l` — the same replace-with-copy trick as the
//!   list, which keeps child pointers ABA-free. AffectSet = `{p}`; NewSet =
//!   `{newInternal}` (leaves carry no `info` field and need no untagging).
//! * **Delete** unlinks leaf `l` and its parent `p` by CASing the proper
//!   child pointer of the grandparent `gp` from `p` to `l`'s sibling.
//!   AffectSet = `{gp, p}` in root-down order (the paper's assumption (b));
//!   `p` leaves the tree and keeps its tag forever.
//!
//! Unlinked nodes (the replaced leaf of an insert, the leaf/parent pair of
//! a delete) and the unpublished nodes of a lost attempt are retired to
//! `pmem::palloc` limbo by the operation's owner — ABA freedom is
//! preserved because retired addresses are re-issued only after an epoch
//! quiescence that no operation window spans, and helpers still read a
//! retired node's intact words until that drain. A no-op on the default
//! bump pool.
//!
//! Two deliberate deviations from the (abbreviated) pseudocode, both noted
//! in DESIGN.md:
//!
//! 1. Algorithm 6 stores a non-empty WriteSet even on the key-absent path
//!    and Algorithm 5 on the duplicate-key path. Since `Op.Recover` calls
//!    `Help` unconditionally, replaying such a descriptor would apply an
//!    update the operation never intended. Read-only outcomes here build
//!    no descriptor at all: they record the immediate `RD_q := FALSE` of
//!    the lean placement (DESIGN.md §7), and `find` records nothing.
//! 2. Algorithm 5 line 24 omits the new key leaf from its `pbarrier`; we
//!    flush all three new nodes before publication.

use std::sync::Arc;

use pmem::{is_tagged, PAddr, PmemPool, ThreadCtx};

use crate::descriptor::{AffectEntry, Desc, WriteEntry};
use crate::help::{help, help_tagged};
use crate::op;
use crate::result::{dec_bool, enc_bool, BOTTOM};
use crate::sites::{S_CP, S_NEW};

/// First sentinel key: larger than every user key, smaller than [`INF2`].
pub const INF1: u64 = u64::MAX - 1;
/// Second sentinel key (the root's key).
pub const INF2: u64 = u64::MAX;

/// Descriptor op-type tag for BST inserts.
pub const OP_INSERT: u8 = 4;
/// Descriptor op-type tag for BST deletes.
pub const OP_DELETE: u8 = 5;

// Node layout (one cache line): w0 key, w1 left, w2 right, w3 info, w4 kind.
const N_KEY: u64 = 0;
const N_LEFT: u64 = 1;
const N_RIGHT: u64 = 2;
const N_INFO: u64 = 3;
const N_KIND: u64 = 4;
const KIND_LEAF: u64 = 0;
const KIND_INTERNAL: u64 = 1;

/// The detectably recoverable external binary search tree.
#[derive(Clone)]
pub struct RecoverableBst {
    pool: Arc<PmemPool>,
    root: PAddr,
}

/// Result of `Search(k)` (Algorithm 5 lines 30–39): the reached leaf `l`,
/// its parent `p`, grandparent `gp` (null at depth 1), and the `info`
/// values gathered on first access.
struct SearchRes {
    gp: PAddr,
    p: PAddr,
    l: PAddr,
    gp_info: u64,
    p_info: u64,
}

impl RecoverableBst {
    /// Creates an empty tree rooted in root cell `root_idx`, or re-attaches
    /// to the tree already rooted there.
    pub fn new(pool: Arc<PmemPool>, root_idx: usize) -> Self {
        pool.register_site_names(&crate::sites::SITES);
        let root_cell = pool.root(root_idx);
        let existing = pool.load(root_cell);
        if existing != 0 {
            return RecoverableBst {
                pool,
                root: PAddr::from_raw(existing),
            };
        }
        let root = pool.alloc_lines(1);
        let leaf1 = Self::mk_leaf(&pool, INF1);
        let leaf2 = Self::mk_leaf(&pool, INF2);
        pool.store(root.add(N_KEY), INF2);
        pool.store(root.add(N_LEFT), leaf1.raw());
        pool.store(root.add(N_RIGHT), leaf2.raw());
        pool.store(root.add(N_INFO), 0);
        pool.store(root.add(N_KIND), KIND_INTERNAL);
        pool.pwb(root, S_NEW);
        pool.pwb(leaf1, S_NEW);
        pool.pwb(leaf2, S_NEW);
        pool.pfence();
        pool.store(root_cell, root.raw());
        pool.pbarrier(root_cell, 1, S_NEW);
        RecoverableBst { pool, root }
    }

    fn mk_leaf(pool: &PmemPool, key: u64) -> PAddr {
        let n = pool.alloc_lines(1);
        Self::init_leaf(pool, n, key);
        n
    }

    /// Leaf initialization, split from [`Self::mk_leaf`] so operation paths
    /// can allocate through [`ThreadCtx::palloc`] (recycling retired blocks
    /// on reclaim pools) while construction keeps the plain bump path.
    fn init_leaf(pool: &PmemPool, n: PAddr, key: u64) {
        pool.store(n.add(N_KEY), key);
        pool.store(n.add(N_KIND), KIND_LEAF);
    }

    /// The owning pool.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn assert_user_key(key: u64) {
        assert!(key < INF1, "user keys must be smaller than the sentinels");
        assert!(key > 0, "key 0 is reserved");
    }

    fn is_internal(&self, n: PAddr) -> bool {
        self.pool.load(n.add(N_KIND)) == KIND_INTERNAL
    }

    fn search(&self, key: u64) -> SearchRes {
        let pool = &*self.pool;
        let mut gp = PAddr::NULL;
        let mut p = PAddr::NULL;
        let mut gp_info = 0;
        let mut p_info = 0;
        let mut l = self.root;
        while self.is_internal(l) {
            gp = p;
            p = l;
            gp_info = p_info;
            p_info = pool.load(p.add(N_INFO));
            l = if key < pool.load(l.add(N_KEY)) {
                PAddr::from_raw(pool.load(p.add(N_LEFT)))
            } else {
                PAddr::from_raw(pool.load(p.add(N_RIGHT)))
            };
        }
        SearchRes {
            gp,
            p,
            l,
            gp_info,
            p_info,
        }
    }

    // ------------------------------------------------------------------
    // Insert (Algorithm 5)
    // ------------------------------------------------------------------

    /// Inserts `key`; returns `false` if already present.
    pub fn insert(&self, ctx: &ThreadCtx, key: u64) -> bool {
        ctx.begin_op(S_CP);
        self.insert_started(ctx, key)
    }

    /// [`Self::insert`] without the system's `CP_q := 0` pre-step.
    pub fn insert_started(&self, ctx: &ThreadCtx, key: u64) -> bool {
        Self::assert_user_key(key);
        let pool = &*self.pool;
        // Line 1: the key leaf is allocated once, reused across attempts.
        let new_leaf = ctx.palloc(1);
        Self::init_leaf(pool, new_leaf, key);
        op::begin(ctx);
        loop {
            // Gather phase (lines 8–10)
            let s = self.search(key);
            // Helping phase (lines 11–13)
            if help_tagged(pool, &[s.p_info]) {
                continue;
            }
            let l_key = pool.load(s.l.add(N_KEY));
            if l_key == key {
                // Duplicate: read-only outcome (lines 22–23, 27), recorded
                // without a descriptor (see module docs, deviation 1).
                op::record_false(ctx);
                // The pre-allocated key leaf was never published: retire it
                // (no-op on a bump pool).
                ctx.retire(new_leaf, 1);
                return false;
            }
            let desc = Desc::alloc(pool, 1, 1, 1);
            // Lines 14–15: duplicate of l and the new internal node
            let new_sibling = ctx.palloc(1);
            Self::init_leaf(pool, new_sibling, l_key);
            let internal = ctx.palloc(1);
            let (left, right) = if key < l_key {
                (new_leaf, new_sibling)
            } else {
                (new_sibling, new_leaf)
            };
            pool.store(internal.add(N_KEY), key.max(l_key));
            pool.store(internal.add(N_LEFT), left.raw());
            pool.store(internal.add(N_RIGHT), right.raw());
            pool.store(internal.add(N_INFO), desc.tagged()); // line 21
            pool.store(internal.add(N_KIND), KIND_INTERNAL);
            // Lines 16–18: which child of p held l
            let side = if pool.load(s.p.add(N_LEFT)) == s.l.raw() {
                N_LEFT
            } else {
                N_RIGHT
            };
            // Lines 19–20
            desc.init(
                pool,
                OP_INSERT,
                enc_bool(true),
                &[AffectEntry {
                    info_addr: s.p.add(N_INFO),
                    observed: s.p_info,
                    untag_on_cleanup: true,
                }],
                &[WriteEntry {
                    field: s.p.add(side),
                    old: s.l.raw(),
                    new: internal.raw(),
                }],
                &[internal.add(N_INFO)],
            );
            // Lines 24–26 (+ deviation 2: flush the key leaf as well)
            op::publish(ctx, desc, &[new_leaf, new_sibling, internal]);
            // Lines 28–29
            help(pool, desc);
            let r = desc.result(pool);
            if r != BOTTOM {
                // Non-duplicate descriptors commit `true`: the WriteSet CAS
                // replaced the reached leaf with the new subtree, and its
                // durability was fenced by help's cleanup — l left the tree
                // for good. Leaves carry no info word, so late searchers
                // that still hold l's address only ever read it.
                ctx.retire(s.l, 1);
                return dec_bool(r);
            }
            // The attempt lost the tag race on p: its subtree nodes were
            // never published; the next attempt re-allocates them (the
            // reached leaf — and hence the sibling key — may have changed).
            ctx.retire(new_sibling, 1);
            ctx.retire(internal, 1);
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
    // Delete (Algorithm 6)
    // ------------------------------------------------------------------

    /// Deletes `key`; returns `false` if absent.
    pub fn delete(&self, ctx: &ThreadCtx, key: u64) -> bool {
        ctx.begin_op(S_CP);
        self.delete_started(ctx, key)
    }

    /// [`Self::delete`] without the system's `CP_q := 0` pre-step.
    pub fn delete_started(&self, ctx: &ThreadCtx, key: u64) -> bool {
        Self::assert_user_key(key);
        let pool = &*self.pool;
        op::begin(ctx);
        loop {
            // Gather phase (lines 46–48)
            let s = self.search(key);
            // Helping phase (lines 49–53); a null gp has `gp_info == 0`,
            // which is untagged
            if help_tagged(pool, &[s.gp_info, s.p_info]) {
                continue;
            }
            if pool.load(s.l.add(N_KEY)) != key {
                // Absent: read-only outcome (lines 60–61, 65), recorded
                // without a descriptor (deviation 1).
                op::record_false(ctx);
                return false;
            }
            let desc = Desc::alloc(pool, 2, 1, 0);
            // A present user key is at depth >= 2 (depth-1 leaves are the
            // sentinels), so gp exists.
            assert!(!s.gp.is_null(), "present key must have a grandparent");
            // Lines 54–55: l's sibling
            let other = if pool.load(s.p.add(N_LEFT)) == s.l.raw() {
                pool.load(s.p.add(N_RIGHT))
            } else {
                pool.load(s.p.add(N_LEFT))
            };
            // Lines 56–58: which child of gp held p
            let side = if pool.load(s.gp.add(N_LEFT)) == s.p.raw() {
                N_LEFT
            } else {
                N_RIGHT
            };
            // Line 59; AffectSet in root-down order (assumption (b))
            desc.init(
                pool,
                OP_DELETE,
                enc_bool(true),
                &[
                    AffectEntry {
                        info_addr: s.gp.add(N_INFO),
                        observed: s.gp_info,
                        untag_on_cleanup: true,
                    },
                    AffectEntry {
                        info_addr: s.p.add(N_INFO),
                        observed: s.p_info,
                        untag_on_cleanup: false, // p leaves the tree
                    },
                ],
                &[WriteEntry {
                    field: s.gp.add(side),
                    old: s.p.raw(),
                    new: other,
                }],
                &[],
            );
            // Lines 62–64
            op::publish(ctx, desc, &[]);
            // Lines 66–67
            help(pool, desc);
            let r = desc.result(pool);
            if r != BOTTOM {
                // Present-key descriptors commit `true`: the grandparent's
                // child CAS unlinked both p and l durably. p keeps its tag
                // forever, so late searchers that gathered it still help
                // through its intact info word — retirement only parks the
                // blocks in limbo until a quiescent drain.
                ctx.retire(s.p, 1);
                ctx.retire(s.l, 1);
                return dec_bool(r);
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
    // Find
    // ------------------------------------------------------------------

    /// Is `key` present? Read-only; tags nothing and records nothing.
    pub fn find(&self, _ctx: &ThreadCtx, key: u64) -> bool {
        Self::assert_user_key(key);
        let pool = &*self.pool;
        loop {
            let s = self.search(key);
            if help_tagged(pool, &[s.p_info]) {
                continue;
            }
            return pool.load(s.l.add(N_KEY)) == key;
        }
    }

    /// `Find.Recover`: read-only, so simply re-execute.
    pub fn recover_find(&self, ctx: &ThreadCtx, key: u64) -> bool {
        self.find(ctx, key)
    }

    // ------------------------------------------------------------------
    // Quiescent inspection helpers
    // ------------------------------------------------------------------

    /// In-order user keys (quiescent only).
    pub fn keys(&self) -> Vec<u64> {
        let mut out = Vec::new();
        self.collect(self.root, &mut out);
        out
    }

    fn collect(&self, n: PAddr, out: &mut Vec<u64>) {
        if self.is_internal(n) {
            self.collect(PAddr::from_raw(self.pool.load(n.add(N_LEFT))), out);
            self.collect(PAddr::from_raw(self.pool.load(n.add(N_RIGHT))), out);
        } else {
            let k = self.pool.load(n.add(N_KEY));
            if k < INF1 {
                out.push(k);
            }
        }
    }

    /// Checks structural invariants (quiescent): the external-BST routing
    /// property (left-subtree keys < node key ≤ right-subtree keys), every
    /// internal node has two children, and no reachable node is tagged.
    /// Returns the number of user keys. Panics on violation.
    pub fn check_invariants(&self) -> usize {
        let n = self.check_range(self.root, 0, INF2);
        // in-order keys must come out strictly sorted
        let ks = self.keys();
        assert!(
            ks.windows(2).all(|w| w[0] < w[1]),
            "duplicate or unsorted keys"
        );
        assert_eq!(ks.len(), n);
        n
    }

    fn check_range(&self, n: PAddr, lo: u64, hi: u64) -> usize {
        assert!(!n.is_null(), "internal node with a missing child");
        let pool = &*self.pool;
        let k = pool.load(n.add(N_KEY));
        if self.is_internal(n) {
            let info = pool.load(n.add(N_INFO));
            assert!(
                !is_tagged(info),
                "quiescent tree must hold no tagged node (key {k})"
            );
            assert!(k > lo && k <= hi, "routing key {k} outside ({lo}, {hi}]");
            let l = self.check_range(PAddr::from_raw(pool.load(n.add(N_LEFT))), lo, k - 1);
            let r = self.check_range(PAddr::from_raw(pool.load(n.add(N_RIGHT))), k.max(lo), hi);
            l + r
        } else {
            assert!(k >= lo && k <= hi, "leaf key {k} outside [{lo}, {hi}]");
            (k < INF1) as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PmemPool, PoolCfg};
    use std::collections::BTreeSet;

    fn setup() -> (Arc<PmemPool>, RecoverableBst, ThreadCtx) {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
        let bst = RecoverableBst::new(pool.clone(), 1);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        (pool, bst, ctx)
    }

    #[test]
    fn empty_tree_invariants() {
        let (_p, bst, _ctx) = setup();
        assert_eq!(bst.check_invariants(), 0);
        assert!(bst.keys().is_empty());
    }

    #[test]
    fn insert_find_delete_basics() {
        let (_p, bst, ctx) = setup();
        assert!(!bst.find(&ctx, 10));
        assert!(bst.insert(&ctx, 10));
        assert!(bst.find(&ctx, 10));
        assert!(!bst.insert(&ctx, 10));
        assert!(bst.delete(&ctx, 10));
        assert!(!bst.find(&ctx, 10));
        assert!(!bst.delete(&ctx, 10));
        assert_eq!(bst.check_invariants(), 0);
    }

    #[test]
    fn inorder_keys_sorted() {
        let (_p, bst, ctx) = setup();
        for k in [50u64, 20, 80, 10, 30, 70, 90] {
            assert!(bst.insert(&ctx, k));
        }
        assert_eq!(bst.keys(), vec![10, 20, 30, 50, 70, 80, 90]);
        assert!(bst.delete(&ctx, 50));
        assert!(bst.delete(&ctx, 10));
        assert_eq!(bst.keys(), vec![20, 30, 70, 80, 90]);
        bst.check_invariants();
    }

    #[test]
    fn matches_reference_model_sequentially() {
        let (_p, bst, ctx) = setup();
        let mut model = BTreeSet::new();
        let mut rng = 0xBEEFu64;
        for _ in 0..2000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (rng >> 33) % 60 + 1;
            match (rng >> 20) % 3 {
                0 => assert_eq!(bst.insert(&ctx, key), model.insert(key), "insert {key}"),
                1 => assert_eq!(bst.delete(&ctx, key), model.remove(&key), "delete {key}"),
                _ => assert_eq!(bst.find(&ctx, key), model.contains(&key), "find {key}"),
            }
        }
        assert_eq!(bst.keys(), model.iter().copied().collect::<Vec<_>>());
        bst.check_invariants();
    }

    #[test]
    fn ascending_and_descending_fills() {
        let (_p, bst, ctx) = setup();
        for k in 1..=40u64 {
            assert!(bst.insert(&ctx, k));
        }
        assert_eq!(bst.check_invariants(), 40);
        for k in (1..=40u64).rev() {
            assert!(bst.delete(&ctx, k));
        }
        assert_eq!(bst.check_invariants(), 0);
    }

    #[test]
    fn delete_root_level_and_rebuild() {
        let (_p, bst, ctx) = setup();
        assert!(bst.insert(&ctx, 5));
        assert!(bst.delete(&ctx, 5), "delete the only key");
        assert_eq!(bst.check_invariants(), 0);
        assert!(bst.insert(&ctx, 5), "reinsert after emptying");
        assert_eq!(bst.keys(), vec![5]);
    }

    #[test]
    fn concurrent_inserts_distinct_keys() {
        let (p, bst, _ctx) = setup();
        let mut handles = vec![];
        for t in 0..4u64 {
            let bst = bst.clone();
            let ctx = ThreadCtx::new(p.clone(), t as usize);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    assert!(bst.insert(&ctx, t * 1000 + i + 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(bst.check_invariants(), 200);
    }

    #[test]
    fn concurrent_mixed_ops_preserve_invariants() {
        let (p, bst, _ctx) = setup();
        let mut handles = vec![];
        for t in 0..4usize {
            let bst = bst.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            handles.push(std::thread::spawn(move || {
                let mut rng = pmem::Rng((t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
                for _ in 0..500 {
                    let r = rng.next();
                    let key = r % 40 + 1;
                    match (r >> 32) % 3 {
                        0 => {
                            bst.insert(&ctx, key);
                        }
                        1 => {
                            bst.delete(&ctx, key);
                        }
                        _ => {
                            bst.find(&ctx, key);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        bst.check_invariants();
    }

    #[test]
    fn crash_swept_insert_recovers_detectably() {
        for crash_at in 0..3000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
            let bst = RecoverableBst::new(pool.clone(), 1);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            assert!(bst.insert(&ctx, 10)); // pre-populate so p/gp paths exist
            ctx.begin_op(S_CP);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| bst.insert_started(&ctx, 5));
            pool.crash(&mut pmem::PessimistAdversary);
            match pre {
                Some(r) => {
                    assert!(r);
                    assert_eq!(bst.keys(), vec![5, 10]);
                    return;
                }
                None => {
                    assert!(bst.recover_insert(&ctx, 5), "crash_at={crash_at}");
                    assert_eq!(bst.keys(), vec![5, 10], "crash_at={crash_at}");
                    bst.check_invariants();
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn crash_swept_delete_recovers_detectably() {
        for crash_at in 0..3000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(16 << 20)));
            let bst = RecoverableBst::new(pool.clone(), 1);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            assert!(bst.insert(&ctx, 10));
            assert!(bst.insert(&ctx, 5));
            ctx.begin_op(S_CP);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| bst.delete_started(&ctx, 5));
            pool.crash(&mut pmem::PessimistAdversary);
            match pre {
                Some(r) => {
                    assert!(r);
                    assert_eq!(bst.keys(), vec![10]);
                    return;
                }
                None => {
                    assert!(bst.recover_delete(&ctx, 5), "crash_at={crash_at}");
                    assert_eq!(bst.keys(), vec![10], "crash_at={crash_at}");
                    bst.check_invariants();
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn recovery_of_completed_op_returns_recorded_result() {
        let (_p, bst, ctx) = setup();
        assert!(bst.insert(&ctx, 9));
        assert!(bst.recover_insert(&ctx, 9));
        assert_eq!(bst.keys(), vec![9], "no double insert");
    }

    /// A completed read-only outcome recovers to its recorded `false` even
    /// after another thread flipped the key (what a recovery after a clean
    /// stop sees); a bare re-invocation would undo that thread's update.
    #[test]
    fn read_only_outcome_recovers_recorded_false_after_a_flip() {
        let (p, bst, a) = setup();
        let b = ThreadCtx::new(p, 1);
        assert!(bst.insert(&a, 5));
        assert!(!bst.insert(&a, 5));
        assert!(bst.delete(&b, 5));
        assert!(!bst.recover_insert(&a, 5));
        assert!(bst.keys().is_empty(), "B's delete undone");

        assert!(!bst.delete(&a, 7));
        assert!(bst.insert(&b, 7));
        assert!(!bst.recover_delete(&a, 7));
        assert_eq!(bst.keys(), vec![7], "B's insert undone");
    }

    #[test]
    fn reclaim_pool_churn_recycles_unlinked_nodes() {
        // Insert/delete churn over a small key range on a reclaiming pool.
        // Every unlinked leaf/internal/descriptor must land in limbo, survive
        // the audit, and actually get re-issued after a quiescent drain —
        // otherwise the tree leaks a node per delete and the working set
        // grows without bound.
        let pool = Arc::new(PmemPool::new(PoolCfg {
            reclaim: true,
            ..PoolCfg::model(16 << 20)
        }));
        let bst = RecoverableBst::new(pool.clone(), 1);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        let mut model = BTreeSet::new();
        let mut rng = 0xC0FFEEu64;
        for round in 0..6 {
            for _ in 0..200 {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let k = 1 + (rng >> 33) % 16;
                if rng & 1 == 0 {
                    assert_eq!(bst.insert(&ctx, k), model.insert(k));
                } else {
                    assert_eq!(bst.delete(&ctx, k), model.remove(&k));
                }
            }
            assert_eq!(bst.keys(), model.iter().copied().collect::<Vec<_>>());
            assert_eq!(bst.check_invariants(), model.len());
            // Quiescent point: no op in flight, so limbo may drain to the
            // free lists and the allocator audit must hold.
            pool.palloc_drain_all();
            pool.palloc_check().unwrap();
            if round == 0 {
                assert!(
                    !pool.palloc_free_blocks().is_empty(),
                    "churn retired nodes but none reached the free lists"
                );
            }
        }
        // Recycling must be real: the next single-line allocation comes from
        // a drained free list, not fresh bump space.
        let wm = pool.palloc_free_blocks().iter().map(|&(b, _)| b).max();
        let a = ctx.palloc(1);
        assert!(
            wm.is_some_and(|hi| a.raw() <= hi),
            "allocation after drain skipped the free lists"
        );
    }
}
