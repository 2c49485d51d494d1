//! A detectably recoverable, lock-free, Clevel-style **resizable hash
//! table** — the Tracking transformation applied to a structure class the
//! paper did not cover.
//!
//! Each bucket is a sorted linked list built on the shared chain, the one
//! under the list too (per-bucket `head`/`tail` sentinels, one-line nodes
//! carrying an extra `value` word). The table grows by publishing a **new
//! level** whose bucket directory is twice as large and migrating every old
//! bucket into it; the resize protocol itself runs through the same
//! descriptor/`help` machinery as user operations, so it is restartable
//! from *any* crash point:
//!
//! * **Publish**: the new level (directory + fresh sentinels) is built and
//!   persisted, then installed with a CAS on the header's `next` word.
//!   Helpers that observe `next ≠ 0` re-flush the header before migrating
//!   (flush-on-read), so no migration effect can become durable while the
//!   published level is not.
//! * **Migrate**: buckets are drained in cursor order. Each step moves the
//!   *first* node of the old chain with a `OP_MOVE` descriptor whose
//!   WriteSet links the copy into the new level **before** unlinking the
//!   original — a key is transiently in both levels (benign for an
//!   insert-if-absent map) but never in neither. The moved-out original
//!   keeps its tag forever, like a deleted list node. An empty bucket is
//!   closed with a write-free `OP_SEAL` descriptor that tags the bucket
//!   head forever: the tag doubles as the version stamp proving the bucket
//!   was continuously empty, and permanently diverts late operations.
//! * **Finish**: the header's `current` word is CASed to the new level and
//!   `next` is cleared, each persisted separately; both words share one
//!   cache line, so every crash resolution of the header is a legal
//!   protocol state.
//!
//! User operations never run two-level routing: an operation that observes
//! a pending resize completes the *entire* migration first (cooperative
//! full-help), and operations that raced with the publish are caught by the
//! version stamps — see DESIGN.md ("Resize detectability invariants") for
//! the case analysis of why a stale-level answer is always either valid or
//! retried.
//!
//! # Crash-inject → recover
//!
//! ```
//! use std::sync::Arc;
//! use pmem::{PmemPool, PoolCfg, ThreadCtx};
//! use tracking::hashmap::RecoverableHashMap;
//! use tracking::sites::S_CP;
//!
//! let pool = Arc::new(PmemPool::new(PoolCfg::model(8 << 20)));
//! let map = RecoverableHashMap::new(pool.clone(), 0);
//! let ctx = ThreadCtx::new(pool.clone(), 0);
//! assert!(map.put(&ctx, 1, 100));
//!
//! // Crash a put mid-flight after 25 instrumented events...
//! ctx.begin_op(S_CP);
//! pool.crash_ctl().arm_after(25);
//! let pre = pmem::run_crashable(|| map.put_started(&ctx, 7, 700));
//! pool.crash(&mut pmem::PessimistAdversary);
//!
//! // ...and recover: the response is exact, the effect exactly-once.
//! let created = match pre {
//!     Some(r) => r,                          // completed before the crash
//!     None => map.recover_put(&ctx, 7, 700), // detectable recovery
//! };
//! assert!(created);
//! assert_eq!(map.get(&ctx, 7), Some(700));
//! assert_eq!(map.get(&ctx, 1), Some(100));
//! ```

use std::sync::Arc;

use pmem::{is_tagged, PAddr, PmemPool, ThreadCtx};

use crate::chain::{self, Pair};
use crate::descriptor::{AffectEntry, Desc};
use crate::help::{cleanup_unfinished, help, help_tagged};
use crate::list::KEY_MAX;
use crate::op;
use crate::result::{dec_val, enc_val, BOTTOM, FALSE, TRUE};
use crate::sites::{S_CP, S_CURSOR, S_DESC, S_LEVEL, S_NEW};

/// Descriptor op-type tag for map puts.
pub const OP_PUT: u8 = 10;
/// Descriptor op-type tag for map removes.
pub const OP_REMOVE: u8 = 11;
/// Descriptor op-type tag for resize bucket-migration moves.
pub const OP_MOVE: u8 = 13;
/// Descriptor op-type tag for resize bucket seals.
pub const OP_SEAL: u8 = 14;

// Header line: w0 = current level, w1 = pending next level (0 = none).
const H_CURR: u64 = 0;
const H_NEXT: u64 = 1;

// Level block: w0 = bucket count (power of two, immutable), w1 = migration
// cursor (next *old* bucket to drain while this level is pending),
// w2.. = bucket head pointers.
const L_NB: u64 = 0;
const L_CURSOR: u64 = 1;
const L_BUCKETS: u64 = 2;

/// Sizing knobs. The harness uses aggressive values (tiny initial directory,
/// short chains) so resizes land inside the swept/explored event space; the
/// defaults suit the examples.
#[derive(Copy, Clone, Debug)]
pub struct HashMapConfig {
    /// Bucket count of the first level. Must be a power of two ≥ 1.
    pub initial_buckets: u64,
    /// A put that traverses more than this many user nodes in one bucket
    /// triggers a doubling resize.
    pub max_chain: u64,
}

impl Default for HashMapConfig {
    fn default() -> Self {
        HashMapConfig {
            initial_buckets: 8,
            max_chain: 4,
        }
    }
}

/// The detectably recoverable resizable hash map (insert-if-absent
/// semantics: `put` never overwrites, so a key's value is immutable while
/// bound, and a value word can be gathered without its own stamp).
///
/// Cloneable handle; all state lives in the pool.
#[derive(Clone)]
pub struct RecoverableHashMap {
    pool: Arc<PmemPool>,
    header: PAddr,
    cfg: HashMapConfig,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl RecoverableHashMap {
    /// Creates a new empty map whose header is stored in root cell
    /// `root_idx`, or re-attaches to the map already rooted there (e.g.
    /// after a simulated crash).
    pub fn new(pool: Arc<PmemPool>, root_idx: usize) -> Self {
        Self::with_config(pool, root_idx, HashMapConfig::default())
    }

    /// [`Self::new`] with explicit sizing knobs.
    pub fn with_config(pool: Arc<PmemPool>, root_idx: usize, cfg: HashMapConfig) -> Self {
        assert!(
            cfg.initial_buckets.is_power_of_two(),
            "initial_buckets must be a power of two"
        );
        pool.register_site_names(&crate::sites::SITES);
        let root = pool.root(root_idx);
        let existing = pool.load(root);
        if existing != 0 {
            return RecoverableHashMap {
                pool,
                header: PAddr::from_raw(existing),
                cfg,
            };
        }
        let mut alloc = |n: usize| pool.alloc_lines(n);
        let lvl = Self::build_level(&pool, &mut alloc, cfg.initial_buckets);
        pool.pfence();
        let header = pool.alloc_lines(1);
        pool.store(header.add(H_CURR), lvl.raw());
        pool.store(header.add(H_NEXT), 0);
        pool.pwb(header, S_LEVEL);
        pool.pfence();
        pool.store(root, header.raw());
        pool.pbarrier(root, 1, S_LEVEL);
        RecoverableHashMap { pool, header, cfg }
    }

    /// The owning pool.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }

    fn assert_user_kv(key: u64, val: u64) {
        chain::assert_user_key(key);
        assert!(val <= u64::MAX - 4, "value too large for result encoding");
    }

    /// Builds a level (directory + per-bucket `head`/`tail` sentinels) and
    /// issues its flushes; the caller fences. `alloc` is `pool.alloc_lines`
    /// at construction and `ctx.palloc` at runtime (sentinels of a losing
    /// or sealed level must be retireable).
    fn build_level(pool: &PmemPool, alloc: &mut dyn FnMut(usize) -> PAddr, nbuckets: u64) -> PAddr {
        let nwords = L_BUCKETS + nbuckets;
        let lvl = pool.alloc_lines(nwords.div_ceil(8) as usize);
        pool.store(lvl.add(L_NB), nbuckets);
        pool.store(lvl.add(L_CURSOR), 0);
        for i in 0..nbuckets {
            let head = alloc(1);
            let tail = alloc(1);
            chain::sentinels(pool, head, tail, Some(lvl.add(L_BUCKETS + i)));
        }
        pool.pwb_range(lvl, nwords as usize, S_LEVEL);
        lvl
    }

    fn bucket_head(&self, lvl: PAddr, key: u64) -> PAddr {
        let pool = &*self.pool;
        let nb = pool.load(lvl.add(L_NB));
        let idx = splitmix64(key) & (nb - 1);
        PAddr::from_raw(pool.load(lvl.add(L_BUCKETS + idx)))
    }

    /// Returns the current level, first driving any pending resize to
    /// completion (cooperative full-help: user operations never run
    /// two-level routing).
    fn current_level(&self, ctx: &ThreadCtx) -> PAddr {
        let pool = &*self.pool;
        loop {
            if pool.load(self.header.add(H_NEXT)) == 0 {
                return PAddr::from_raw(pool.load(self.header.add(H_CURR)));
            }
            // Flush-on-read: the publish we observed may not be durable
            // yet, but our migration effects are about to be. Persist the
            // header first so no crash can orphan a half-drained level.
            pool.pwb(self.header, S_LEVEL);
            pool.psync();
            self.drive_resize(ctx);
        }
    }

    /// Validates a read-only **absent** answer computed over `head`'s chain.
    /// An unchanged, untagged head stamp plus no pending resize proves the
    /// key could not have been migrated to another level before the
    /// traversal began (every move out of a bucket drains its first node
    /// and so bumps the head stamp; a finished resize leaves the head
    /// sealed, i.e. tagged). Helping a tagged head is required for progress
    /// when its tag is an orphan of a crashed operation.
    fn absent_still_valid(&self, head: PAddr, head_info0: u64) -> bool {
        let pool = &*self.pool;
        let now = chain::info(pool, head);
        !help_tagged(pool, &[now]) && now == head_info0 && pool.load(self.header.add(H_NEXT)) == 0
    }

    // ------------------------------------------------------------------
    // Put
    // ------------------------------------------------------------------

    /// Binds `key` to `val` if absent; returns `false` (and changes
    /// nothing) if the key was already bound.
    pub fn put(&self, ctx: &ThreadCtx, key: u64, val: u64) -> bool {
        ctx.begin_op(S_CP);
        self.put_started(ctx, key, val)
    }

    /// [`Self::put`] without the system's `CP_q := 0` pre-step (for
    /// harnesses that call [`ThreadCtx::begin_op`] themselves).
    pub fn put_started(&self, ctx: &ThreadCtx, key: u64, val: u64) -> bool {
        Self::assert_user_kv(key, val);
        let pool = &*self.pool;
        // The new nodes are allocated once and reused across attempts (they
        // are only published by a successful tagging phase).
        let newcurr = ctx.palloc(1);
        let newnd = ctx.palloc(1);
        op::begin(ctx);
        loop {
            let lvl = self.current_level(ctx);
            let g = chain::search(pool, self.bucket_head(lvl, key), key, false);
            let s = g.pair;
            if s.help(pool) {
                continue;
            }
            // Stale-level guard: if a resize started before our gather, the
            // key may already live in the next level and our absence
            // evidence is void. (A resize that *finished* in that window is
            // caught by the tag CAS instead: a drained node is tagged
            // forever and a sealed head is tagged forever.)
            if pool.load(self.header.add(H_NEXT)) != 0 {
                continue;
            }
            if g.traversed > self.cfg.max_chain {
                self.start_resize(ctx, lvl);
                continue;
            }
            let curr_key = chain::key(pool, s.curr);
            if curr_key == key {
                // Read-only outcome (a presence answer: valid by curr's own
                // untagged stamp, no resize validation needed), recorded
                // without a descriptor. The pre-built nodes were never
                // published.
                op::record_false(ctx);
                ctx.retire(newcurr, 1);
                ctx.retire(newnd, 1);
                return false;
            }
            let desc = Desc::alloc(pool, 2, 1, 2);
            s.fill_copy(pool, desc, curr_key, newcurr, newnd, key, Some(val));
            s.init_insert(pool, desc, OP_PUT, TRUE, newcurr, newnd);
            op::publish(ctx, desc, &[newcurr, newnd]);
            help(pool, desc);
            if desc.result(pool) != BOTTOM {
                // The result can only be the success result here.
                ctx.retire(s.curr, 1);
                return true;
            }
        }
    }

    /// `Put.Recover`: returns the recorded response if the interrupted put
    /// demonstrably took effect, else re-invokes it.
    pub fn recover_put(&self, ctx: &ThreadCtx, key: u64, val: u64) -> bool {
        match op::recover(ctx) {
            BOTTOM => self.put(ctx, key, val),
            r => r == TRUE,
        }
    }

    // ------------------------------------------------------------------
    // Remove
    // ------------------------------------------------------------------

    /// Removes `key`; returns the value it was bound to, or `None` if it
    /// was absent.
    pub fn remove(&self, ctx: &ThreadCtx, key: u64) -> Option<u64> {
        ctx.begin_op(S_CP);
        self.remove_started(ctx, key)
    }

    /// [`Self::remove`] without the system's `CP_q := 0` pre-step.
    pub fn remove_started(&self, ctx: &ThreadCtx, key: u64) -> Option<u64> {
        Self::assert_user_kv(key, 0);
        let pool = &*self.pool;
        op::begin(ctx);
        loop {
            let head = self.bucket_head(self.current_level(ctx), key);
            let g = chain::search(pool, head, key, false);
            let s = g.pair;
            if s.help(pool) {
                continue;
            }
            let absent = chain::key(pool, s.curr) != key;
            if absent {
                // An absent answer over a bucket that may have been drained
                // into another level is void: validate *before* publishing.
                if !self.absent_still_valid(head, g.head_info0) {
                    continue;
                }
                op::record_false(ctx);
                return None;
            }
            // Present: unlink curr; its gathered value becomes the response
            // (immutable while bound, so the stamp CAS validates it too).
            let succ = chain::next(pool, s.curr);
            let val = chain::value(pool, s.curr);
            let desc = Desc::alloc(pool, 2, 1, 0);
            s.init_unlink(pool, desc, OP_REMOVE, enc_val(val), succ);
            op::publish(ctx, desc, &[]);
            help(pool, desc);
            let r = desc.result(pool);
            if r != BOTTOM {
                ctx.retire(s.curr, 1);
                return Some(dec_val(r));
            }
        }
    }

    /// `Remove.Recover`: returns the recorded response if the interrupted
    /// remove demonstrably took effect, else re-invokes it.
    pub fn recover_remove(&self, ctx: &ThreadCtx, key: u64) -> Option<u64> {
        match op::recover(ctx) {
            BOTTOM => self.remove(ctx, key),
            FALSE => None,
            r => Some(dec_val(r)),
        }
    }

    // ------------------------------------------------------------------
    // Get
    // ------------------------------------------------------------------

    /// Looks `key` up. Read-only; never tags a node and records nothing.
    pub fn get(&self, ctx: &ThreadCtx, key: u64) -> Option<u64> {
        Self::assert_user_kv(key, 0);
        let pool = &*self.pool;
        loop {
            let head = self.bucket_head(self.current_level(ctx), key);
            let g = chain::search(pool, head, key, false);
            let s = g.pair;
            if s.help(pool) {
                continue;
            }
            if chain::key(pool, s.curr) == key {
                return Some(chain::value(pool, s.curr));
            }
            if self.absent_still_valid(head, g.head_info0) {
                return None;
            }
        }
    }

    /// `Get.Recover`: a get is read-only, so recovery simply re-executes it.
    pub fn recover_get(&self, ctx: &ThreadCtx, key: u64) -> Option<u64> {
        self.get(ctx, key)
    }

    // ------------------------------------------------------------------
    // Resize
    // ------------------------------------------------------------------

    /// Builds a doubled level and publishes it as the header's `next`, then
    /// drives the migration to completion. Losing the publish race retires
    /// the unused sentinels and helps the winner instead.
    fn start_resize(&self, ctx: &ThreadCtx, oldl: PAddr) {
        let pool = &*self.pool;
        if pool.load(self.header.add(H_NEXT)) != 0
            || pool.load(self.header.add(H_CURR)) != oldl.raw()
        {
            return; // superseded; the caller's loop re-routes
        }
        let nb = pool.load(oldl.add(L_NB)) * 2;
        let mut alloc = |n: usize| ctx.palloc(n);
        let newl = Self::build_level(pool, &mut alloc, nb);
        pool.pfence(); // the level is durable before it can be reachable
        if pool.cas(self.header.add(H_NEXT), 0, newl.raw()).is_ok() {
            pool.pwb(self.header, S_LEVEL);
            pool.psync();
        } else {
            // Lost the race: our level was never published. The directory
            // block is bump-leaked (bounded: level blocks total < 2x the
            // final directory), the sentinels recycle.
            for i in 0..nb {
                let head = PAddr::from_raw(pool.load(newl.add(L_BUCKETS + i)));
                let tail = PAddr::from_raw(chain::next(pool, head));
                ctx.retire(head, 1);
                ctx.retire(tail, 1);
            }
        }
        self.drive_resize(ctx);
    }

    /// Drives one pending resize generation: drains every old bucket in
    /// cursor order, then flips the header. Safe to run any number of
    /// times, concurrently, by any thread; restartable from any crash
    /// point. Precondition: the `next` pointer it acts on is durable
    /// (publisher psync, or flush-on-read in [`Self::current_level`]).
    fn drive_resize(&self, ctx: &ThreadCtx) {
        let pool = &*self.pool;
        let nxt = pool.load(self.header.add(H_NEXT));
        if nxt == 0 {
            return;
        }
        let curr = pool.load(self.header.add(H_CURR));
        if curr != nxt {
            let oldl = PAddr::from_raw(curr);
            let newl = PAddr::from_raw(nxt);
            let nb_old = pool.load(oldl.add(L_NB));
            self.finish_cursor_move(oldl, newl, nb_old);
            loop {
                let c = pool.load(newl.add(L_CURSOR));
                if c >= nb_old {
                    break;
                }
                self.migrate_bucket(ctx, oldl, newl, c);
                let _ = pool.cas(newl.add(L_CURSOR), c, c + 1);
                pool.pwb(newl.add(L_CURSOR), S_CURSOR);
            }
            // Finish, step 1: the new level becomes current. The cursor's
            // trailing flush must complete first — its line is part of the
            // level block being published.
            pool.pfence();
            let _ = pool.cas(self.header.add(H_CURR), curr, nxt);
            pool.pwb(self.header, S_LEVEL);
            pool.psync();
        }
        // Finish, step 2: clear the pending pointer. Both header words are
        // on one line, so a crash between the psyncs resolves to either
        // "resize pending, already drained" (helpers re-run the idempotent
        // finish) or "done".
        let _ = pool.cas(self.header.add(H_NEXT), nxt, 0);
        pool.pwb(self.header, S_LEVEL);
        pool.psync();
    }

    /// Finishes the cleanup of the cursor bucket's last move when a power
    /// failure cut it short. The crash model resolves each line on its
    /// own, so a crash can keep the old head's untag and lose the untag of
    /// the new-level predecessor or of the copied node. No request's `RD_q`
    /// names a move, and the migration walks past an untagged head, so
    /// nothing else would finish that cleanup. The cursor bucket is the only
    /// place to look: the cursor passes a bucket only after its last move's
    /// cleanup psync. Only an unfinished cleanup is helped: re-running a
    /// finished one would issue redundant pwbs.
    fn finish_cursor_move(&self, oldl: PAddr, newl: PAddr, nb_old: u64) {
        let pool = &*self.pool;
        let c = pool.load(newl.add(L_CURSOR));
        if c >= nb_old {
            return;
        }
        let head = PAddr::from_raw(pool.load(oldl.add(L_BUCKETS + c)));
        let hinfo = chain::info(pool, head);
        if hinfo == 0 || is_tagged(hinfo) {
            return; // never stamped, or tagged: the migration helps a tag
        }
        let d = Desc::from_raw(hinfo);
        let hdr = d.header(pool);
        if hdr.op_type() == OP_MOVE && cleanup_unfinished(pool, d, hdr) {
            help(pool, d);
        }
    }

    /// Drains old bucket `i` into the new level: repeatedly moves the first
    /// chain node with an `OP_MOVE` descriptor, then seals the empty bucket
    /// with an `OP_SEAL` descriptor (tagging the head forever). Returns
    /// once the bucket is sealed.
    fn migrate_bucket(&self, ctx: &ThreadCtx, oldl: PAddr, newl: PAddr, i: u64) {
        let pool = &*self.pool;
        let head = PAddr::from_raw(pool.load(oldl.add(L_BUCKETS + i)));
        loop {
            let hinfo = chain::info(pool, head);
            if is_tagged(hinfo) {
                let d = Desc::from_raw(hinfo);
                help(pool, d);
                if d.op_type(pool) == OP_SEAL {
                    return; // someone sealed it: bucket done
                }
                continue;
            }
            let first = PAddr::from_raw(chain::next(pool, head));
            if chain::key(pool, first) == KEY_MAX {
                // Empty chain: seal. The tag CAS succeeds only if the head
                // stamp is still `hinfo`, i.e. the bucket stayed empty.
                let d = Desc::alloc(pool, 1, 0, 0);
                d.init(
                    pool,
                    OP_SEAL,
                    TRUE,
                    &[AffectEntry {
                        info_addr: chain::info_addr(head),
                        observed: hinfo,
                        untag_on_cleanup: false, // sealed forever
                    }],
                    &[],
                    &[],
                );
                d.pbarrier(pool, S_DESC);
                help(pool, d);
                if d.result(pool) != BOTTOM {
                    // We sealed it: the frozen sentinels recycle (drained
                    // only at quiescence, like every retired node).
                    ctx.retire(head, 1);
                    ctx.retire(first, 1);
                    return;
                }
                continue;
            }
            // Move `first`. Gather its fields *after* its stamp: the tag
            // CAS expecting `finfo` validates them all.
            let finfo = chain::info(pool, first);
            if help_tagged(pool, &[finfo]) {
                continue;
            }
            let key = chain::key(pool, first);
            let val = chain::value(pool, first);
            let succ = chain::next(pool, first);
            // The link the move drains: `first` keeps its tag forever.
            let out = Pair {
                pred: head,
                curr: first,
                pred_info: hinfo,
                curr_info: finfo,
            };
            let s = chain::search(pool, self.bucket_head(newl, key), key, false).pair;
            if s.help(pool) {
                continue;
            }
            // Sized for the move's sets; the defensive unlink's fit too.
            let d = Desc::alloc(pool, 3, 2, 1);
            let copy = if chain::key(pool, s.curr) == key {
                // Defensive: the key is already in the new level (a remnant
                // of an interrupted move of this very node). Unlink only.
                out.init_unlink(pool, d, OP_MOVE, TRUE, succ);
                None
            } else {
                // The WriteSet links the copy into the new level *before*
                // unlinking the original: the key is transiently in both
                // levels (benign for presence answers) but never in neither.
                let newnd = ctx.palloc(1);
                chain::fill(pool, newnd, key, s.curr.raw(), d.tagged(), Some(val));
                d.init(
                    pool,
                    OP_MOVE,
                    TRUE,
                    &[out.pred_entry(), out.curr_entry(false), s.pred_entry()],
                    &[s.swing(newnd.raw()), out.swing(succ)],
                    &[chain::info_addr(newnd)],
                );
                pool.pwb(newnd, S_NEW);
                Some(newnd)
            };
            d.pbarrier(pool, S_DESC);
            help(pool, d);
            if d.result(pool) != BOTTOM {
                ctx.retire(first, 1);
            } else if let Some(newnd) = copy {
                ctx.retire(newnd, 1); // never published
            }
        }
    }

    // ------------------------------------------------------------------
    // Quiescent inspection helpers (tests, examples, validation)
    // ------------------------------------------------------------------

    /// Number of bound keys. Only meaningful while no operation (or
    /// resize) is in flight.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Is the map empty? (Quiescent.)
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Collects the `(key, value)` pairs sorted by key. (Quiescent.)
    pub fn entries(&self) -> Vec<(u64, u64)> {
        let pool = &*self.pool;
        let lvl = PAddr::from_raw(pool.load(self.header.add(H_CURR)));
        let nb = pool.load(lvl.add(L_NB));
        let mut out = Vec::new();
        for i in 0..nb {
            let head = PAddr::from_raw(pool.load(lvl.add(L_BUCKETS + i)));
            chain::walk(pool, head, |n, k| {
                if k != KEY_MAX {
                    out.push((k, chain::value(pool, n)));
                }
            });
        }
        out.sort_unstable();
        out
    }

    /// Checks structural invariants (quiescent): no pending resize, every
    /// chain strictly sorted, every key in its hash bucket, no reachable
    /// node left tagged. Returns the number of bound keys.
    pub fn check_invariants(&self) -> usize {
        let pool = &*self.pool;
        assert_eq!(
            pool.load(self.header.add(H_NEXT)),
            0,
            "quiescent map must have no pending resize"
        );
        let lvl = PAddr::from_raw(pool.load(self.header.add(H_CURR)));
        let nb = pool.load(lvl.add(L_NB));
        assert!(nb.is_power_of_two());
        let mut count = 0;
        for i in 0..nb {
            let head = PAddr::from_raw(pool.load(lvl.add(L_BUCKETS + i)));
            assert!(
                !is_tagged(chain::info(pool, head)),
                "current-level bucket {i} head must not be sealed/tagged"
            );
            count += chain::check(pool, head, |k| {
                let b = splitmix64(k) & (nb - 1);
                assert_eq!(b, i, "key {k} of bucket {i} hashed to bucket {b}");
            });
        }
        count
    }

    /// Bucket count of the current level (for tests asserting growth).
    pub fn bucket_count(&self) -> u64 {
        let pool = &*self.pool;
        let lvl = PAddr::from_raw(pool.load(self.header.add(H_CURR)));
        pool.load(lvl.add(L_NB))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PmemPool, PoolCfg};
    use std::cell::Cell;
    use std::collections::BTreeMap;

    fn setup_cfg(cfg: HashMapConfig) -> (Arc<PmemPool>, RecoverableHashMap, ThreadCtx) {
        let pool = Arc::new(PmemPool::new(PoolCfg::model(32 << 20)));
        let map = RecoverableHashMap::with_config(pool.clone(), 0, cfg);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        (pool, map, ctx)
    }

    fn setup() -> (Arc<PmemPool>, RecoverableHashMap, ThreadCtx) {
        setup_cfg(HashMapConfig::default())
    }

    /// Tiny directory + short chains: resizes trigger within a few puts.
    fn aggressive() -> HashMapConfig {
        HashMapConfig {
            initial_buckets: 2,
            max_chain: 2,
        }
    }

    #[test]
    fn empty_map_invariants() {
        let (_p, map, _ctx) = setup();
        assert_eq!(map.check_invariants(), 0);
        assert!(map.entries().is_empty());
        assert!(map.is_empty());
    }

    #[test]
    fn put_get_remove_basics() {
        let (_p, map, ctx) = setup();
        assert_eq!(map.get(&ctx, 10), None);
        assert!(map.put(&ctx, 10, 1000));
        assert_eq!(map.get(&ctx, 10), Some(1000));
        assert!(!map.put(&ctx, 10, 2000), "duplicate put fails");
        assert_eq!(map.get(&ctx, 10), Some(1000), "and does not overwrite");
        assert_eq!(map.remove(&ctx, 10), Some(1000));
        assert_eq!(map.get(&ctx, 10), None);
        assert_eq!(map.remove(&ctx, 10), None, "absent remove");
        assert_eq!(map.check_invariants(), 0);
    }

    #[test]
    fn grows_through_multiple_levels() {
        let (_p, map, ctx) = setup_cfg(aggressive());
        assert_eq!(map.bucket_count(), 2);
        for k in 1..=64u64 {
            assert!(map.put(&ctx, k, k * 10));
        }
        assert!(map.bucket_count() > 2, "table must have resized");
        assert_eq!(map.check_invariants(), 64);
        for k in 1..=64u64 {
            assert_eq!(map.get(&ctx, k), Some(k * 10), "key {k} after resizes");
        }
    }

    #[test]
    fn matches_reference_model_sequentially() {
        let (_p, map, ctx) = setup_cfg(aggressive());
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = 0x12345u64;
        for _ in 0..3000 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (rng >> 33) % 60 + 1;
            let val = (rng >> 13) % 1000 + 1;
            match (rng >> 20) % 3 {
                0 => {
                    let fresh = !model.contains_key(&key);
                    if fresh {
                        model.insert(key, val);
                    }
                    assert_eq!(map.put(&ctx, key, val), fresh, "put {key}");
                }
                1 => assert_eq!(map.remove(&ctx, key), model.remove(&key), "remove {key}"),
                _ => assert_eq!(map.get(&ctx, key), model.get(&key).copied(), "get {key}"),
            }
        }
        assert_eq!(
            map.entries(),
            model.into_iter().collect::<Vec<_>>(),
            "final contents"
        );
        map.check_invariants();
    }

    #[test]
    fn flush_discipline_is_lint_clean_including_resizes() {
        let pool = Arc::new(PmemPool::new(PoolCfg {
            lint: true,
            ..PoolCfg::model(32 << 20)
        }));
        let map = RecoverableHashMap::with_config(pool.clone(), 0, aggressive());
        let ctx = ThreadCtx::new(pool.clone(), 0);
        pool.lint_clear();
        let mut rng = 0xC0FFEEu64;
        for _ in 0..300 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (rng >> 33) % 40 + 1;
            match (rng >> 20) % 3 {
                0 => {
                    map.put(&ctx, key, key);
                }
                1 => {
                    map.remove(&ctx, key);
                }
                _ => {
                    map.get(&ctx, key);
                }
            }
        }
        assert!(map.bucket_count() > 2, "workload must have resized");
        let r = pool.lint_report();
        assert!(
            r.is_clean(),
            "hashmap flush discipline violations:\n{}",
            pool.lint_report_text()
        );
    }

    #[test]
    fn reattach_finds_existing_map() {
        let (p, map, ctx) = setup_cfg(aggressive());
        for k in 1..=20u64 {
            map.put(&ctx, k, k + 100);
        }
        let map2 = RecoverableHashMap::new(p, 0);
        assert_eq!(map2.check_invariants(), 20);
        assert_eq!(map2.get(&ctx, 7), Some(107));
    }

    #[test]
    fn rd_points_to_last_op_descriptor() {
        let (p, map, ctx) = setup();
        map.put(&ctx, 7, 70);
        let d = Desc::from_raw(ctx.rd());
        assert_eq!(d.op_type(&p), OP_PUT);
        assert_eq!(d.result(&p), TRUE);
        assert_eq!(map.remove(&ctx, 7), Some(70));
        let d = Desc::from_raw(ctx.rd());
        assert_eq!(d.op_type(&p), OP_REMOVE);
        assert_eq!(d.result(&p), enc_val(70));
    }

    #[test]
    fn recovery_of_completed_op_returns_recorded_result() {
        let (_p, map, ctx) = setup();
        assert!(map.put(&ctx, 9, 90));
        // Crash struck after the return value was computed but before the
        // caller consumed it: recover must reproduce `true`, not re-put.
        assert!(map.recover_put(&ctx, 9, 90));
        assert_eq!(map.entries(), vec![(9, 90)], "no double put");
        assert_eq!(map.remove(&ctx, 9), Some(90));
        assert_eq!(map.recover_remove(&ctx, 9), Some(90));
        assert!(map.is_empty());
    }

    /// A completed read-only outcome recovers to its recorded answer even
    /// after another thread flipped the key — the unit-level twin of the
    /// KV benchmark's last-request check after a clean stop. A bare
    /// re-invocation would undo that thread's update.
    #[test]
    fn read_only_outcome_recovers_recorded_false_after_a_flip() {
        let (p, map, a) = setup();
        let b = ThreadCtx::new(p, 1);
        assert!(map.put(&a, 5, 50));
        assert!(!map.put(&a, 5, 51));
        assert_eq!(map.remove(&b, 5), Some(50));
        assert!(!map.recover_put(&a, 5, 51));
        assert!(map.is_empty(), "B's remove undone");

        assert_eq!(map.remove(&a, 7), None);
        assert!(map.put(&b, 7, 70));
        assert_eq!(map.recover_remove(&a, 7), None);
        assert_eq!(map.entries(), vec![(7, 70)], "B's put undone");
    }

    fn crash_swept_put(cfg: HashMapConfig, prefill: u64, bound: u64) {
        // Crash a put at every instrumented event; after recovery the
        // response must agree with the map's state. With `prefill` sized to
        // leave the trigger chain one short of `max_chain`, the swept put
        // drives a full resize, so every migration step gets crashed too.
        for crash_at in 0..bound {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(32 << 20)));
            let map = RecoverableHashMap::with_config(pool.clone(), 0, cfg);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            for k in 1..=prefill {
                assert!(map.put(&ctx, k, k));
            }
            ctx.begin_op(S_CP);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| map.put_started(&ctx, 100, 42));
            pool.crash(&mut pmem::PessimistAdversary);
            match pre {
                Some(r) => {
                    assert!(r);
                    assert_eq!(map.check_invariants(), prefill as usize + 1);
                    return;
                }
                None => {
                    let r = map.recover_put(&ctx, 100, 42);
                    assert!(r, "recovered put of a fresh key must succeed");
                    assert_eq!(map.get(&ctx, 100), Some(42), "crash_at={crash_at}");
                    assert_eq!(
                        map.check_invariants(),
                        prefill as usize + 1,
                        "crash_at={crash_at}"
                    );
                }
            }
        }
        panic!("sweep did not terminate: operation needs more than {bound} events");
    }

    #[test]
    fn crash_swept_put_recovers_detectably() {
        crash_swept_put(HashMapConfig::default(), 0, 2000);
    }

    #[test]
    fn crash_swept_put_through_resize_recovers_detectably() {
        // 12 keys in 2 buckets: the swept put's traversal exceeds
        // max_chain=2 and triggers (at least) a 2→4 resize mid-operation.
        crash_swept_put(aggressive(), 12, 30000);
    }

    #[test]
    fn crash_swept_remove_recovers_detectably() {
        for crash_at in 0..2000 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(32 << 20)));
            let map = RecoverableHashMap::with_config(pool.clone(), 0, aggressive());
            let ctx = ThreadCtx::new(pool.clone(), 0);
            for k in 1..=6u64 {
                assert!(map.put(&ctx, k, k * 7));
            }
            ctx.begin_op(S_CP);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| map.remove_started(&ctx, 5));
            pool.crash(&mut pmem::PessimistAdversary);
            match pre {
                Some(r) => {
                    assert_eq!(r, Some(35));
                    assert_eq!(map.check_invariants(), 5);
                    return;
                }
                None => {
                    let r = map.recover_remove(&ctx, 5);
                    assert_eq!(r, Some(35), "crash_at={crash_at}");
                    assert_eq!(map.get(&ctx, 5), None, "crash_at={crash_at}");
                    assert_eq!(map.check_invariants(), 5, "crash_at={crash_at}");
                }
            }
        }
        panic!("sweep did not terminate");
    }

    #[test]
    fn crash_swept_get_reexecutes() {
        for crash_at in [2u64, 5, 9, 14, 20, 35, 60] {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(32 << 20)));
            let map = RecoverableHashMap::new(pool.clone(), 0);
            let ctx = ThreadCtx::new(pool.clone(), 0);
            assert!(map.put(&ctx, 5, 55));
            ctx.begin_op(S_CP);
            pool.crash_ctl().arm_after(crash_at);
            let pre = pmem::run_crashable(|| map.get(&ctx, 5));
            pool.crash(&mut pmem::PessimistAdversary);
            let r = match pre {
                Some(r) => r,
                None => map.recover_get(&ctx, 5),
            };
            assert_eq!(r, Some(55), "crash_at={crash_at}");
            map.check_invariants();
        }
    }

    #[test]
    fn concurrent_puts_distinct_keys() {
        let (p, map, _ctx) = setup_cfg(aggressive());
        let mut handles = vec![];
        for t in 0..4u64 {
            let map = map.clone();
            let ctx = ThreadCtx::new(p.clone(), t as usize);
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let k = t * 1000 + i + 1;
                    assert!(map.put(&ctx, k, k));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(map.check_invariants(), 200);
        assert!(map.bucket_count() > 2, "concurrent load must have resized");
    }

    #[test]
    fn contending_puts_same_key_exactly_one_wins() {
        let (p, map, _ctx) = setup();
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
        let mut handles = vec![];
        for t in 0..4usize {
            let map = map.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                map.put(&ctx, 77, t as u64 + 1)
            }));
        }
        let wins: usize = handles
            .into_iter()
            .map(|h| h.join().unwrap() as usize)
            .sum();
        assert_eq!(wins, 1, "exactly one concurrent put of one key succeeds");
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn concurrent_mixed_ops_with_resizes_preserve_invariants() {
        let (p, map, _ctx) = setup_cfg(aggressive());
        let mut handles = vec![];
        for t in 0..4usize {
            let map = map.clone();
            let ctx = ThreadCtx::new(p.clone(), t);
            handles.push(std::thread::spawn(move || {
                let mut rng = pmem::Rng((t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
                for _ in 0..400 {
                    let r = rng.next();
                    let key = r % 64 + 1;
                    match (r >> 32) % 3 {
                        0 => {
                            map.put(&ctx, key, key);
                        }
                        1 => {
                            map.remove(&ctx, key);
                        }
                        _ => {
                            map.get(&ctx, key);
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        map.check_invariants();
        assert!(map.bucket_count() > 2);
    }

    #[test]
    fn migrated_nodes_recycle_on_reclaim_pool() {
        // Phase 1 on both pools: identical growth through several resizes.
        // Phase 2: churn. On the reclaim pool the nodes retired by phase 1's
        // migrations (moved-out originals, sealed sentinels) and by the
        // removes must be re-issued, so its arena consumption stays well
        // under the bump pool's.
        let mk = |reclaim: bool| {
            let pool = Arc::new(PmemPool::new(PoolCfg {
                reclaim,
                ..PoolCfg::model(32 << 20)
            }));
            let map = RecoverableHashMap::with_config(pool.clone(), 0, aggressive());
            let ctx = ThreadCtx::new(pool.clone(), 0);
            for k in 1..=48u64 {
                assert!(map.put(&ctx, k, k));
            }
            pool.palloc_drain_all();
            (pool, map, ctx)
        };
        let consumed = |reclaim: bool| {
            let (pool, map, ctx) = mk(reclaim);
            let before = pool.remaining_lines();
            for round in 0..6u64 {
                for k in 1..=48u64 {
                    assert_eq!(map.remove(&ctx, k), Some(k));
                }
                pool.palloc_drain_all();
                for k in 1..=48u64 {
                    assert!(map.put(&ctx, k, k), "round {round}");
                }
                pool.palloc_drain_all();
            }
            pool.palloc_check().expect("allocator integrity");
            map.check_invariants();
            before - pool.remaining_lines()
        };
        let bump = consumed(false);
        let reclaimed = consumed(true);
        // Descriptors are bump-allocated forever on both pools; the entire
        // difference is recycled node lines (2 per put x 48 keys x 6 rounds).
        assert!(
            bump - reclaimed >= 48 * 2 * 6,
            "reclaim pool must recycle retired nodes (consumed {reclaimed} vs bump {bump})"
        );
        // And the free lists stocked by phase 1 are fed by the *migrations*
        // (moved-out originals, sealed sentinels), not only by the puts'
        // replaced-successor retirees — at most 48 of those exist. Bump
        // addresses are monotone, so a palloc returning an address below a
        // freshly taken bump watermark was served from a free list.
        let (pool, _map, ctx) = mk(true);
        let wm = pool.alloc_lines(1);
        let recycled = (0..120).filter(|_| ctx.palloc(1).0 < wm.0).count();
        assert!(
            recycled > 48,
            "free list after growth must hold migration-retired blocks, not \
             just put-replacement retirees ({recycled} of 120 recycled)"
        );
    }

    /// A power failure inside a resize move's cleanup can persist the old
    /// head's untag and lose the untag of the new-level predecessor or of
    /// the copied node, and no request names the move for its recovery to
    /// help. Grows default maps to 128 buckets under seeded failures (gaps
    /// of 1–6 000 events), recovers each interrupted put — re-invoking it
    /// when the failure struck inside `begin_op` — and checks right after
    /// every recovery that no completed move left a tag behind.
    #[test]
    fn growth_under_seeded_failures_leaves_no_tag_after_recovery() {
        let mut recoveries = 0;
        for seed in 1..=100u64 {
            let pool = Arc::new(PmemPool::new(PoolCfg::model(32 << 20)));
            let mut map = RecoverableHashMap::new(pool.clone(), 0);
            let mut ctx = ThreadCtx::new(pool.clone(), 0);
            let mut rng = pmem::Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let ctl = pool.crash_ctl();
            ctl.arm_after(rng.next() % 6_000 + 1);
            for key in 1.. {
                // The harness's own read must not tick the countdown.
                let left = ctl.remaining();
                ctl.disarm();
                if map.bucket_count() >= 128 {
                    break;
                }
                ctl.arm_after(left as u64);
                let past_begin_op = Cell::new(false);
                let pre = pmem::run_crashable(|| {
                    ctx.begin_op(S_CP);
                    past_begin_op.set(true);
                    map.put_started(&ctx, key, key)
                });
                if let Some(created) = pre {
                    assert!(created, "seed {seed}: fresh key {key}");
                    continue;
                }
                pool.crash(&mut pmem::SeededAdversary::new(rng.next()));
                map = RecoverableHashMap::new(pool.clone(), 0);
                ctx = ThreadCtx::new(pool.clone(), 0);
                let created = if past_begin_op.get() {
                    map.recover_put(&ctx, key, key)
                } else {
                    ctx.begin_op(S_CP);
                    map.put_started(&ctx, key, key)
                };
                assert!(created, "seed {seed}: recovered put of fresh key {key}");
                assert_eq!(map.check_invariants(), key as usize, "seed {seed}");
                recoveries += 1;
                ctl.arm_after(rng.next() % 6_000 + 1);
            }
        }
        assert!(recoveries > 100, "only {recoveries} failures struck");
    }

    #[test]
    #[should_panic(expected = "between the sentinels")]
    fn sentinel_keys_rejected() {
        let (_p, map, ctx) = setup();
        map.put(&ctx, KEY_MAX, 1);
    }
}
