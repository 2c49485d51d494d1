//! Operation descriptors (`Info` objects) laid out in persistent memory.
//!
//! A descriptor is the paper's
//! `⟨opType, AffectSet, WriteSet, NewSet, result⟩` tuple (Algorithm 1 line
//! 16), plus a `success_result` word: for every operation the response of a
//! *successful* attempt is known when the descriptor is built (`true` for a
//! list/BST update, the partner's gathered value for an exchange), so the
//! generic help engine can write "the response of the operation described by
//! opInfo" (Algorithm 2 line 52) without structure-specific callbacks.
//! Read-only outcomes build no descriptor in the default (lean) placement;
//! in the paper's placement they write `result` directly, exactly like the
//! pseudocode's red lines.
//!
//! Layout (24 words = 3 cache lines, line-aligned so descriptor flushes have
//! deterministic line counts):
//!
//! ```text
//! w0        header: opType | alen<<8 | wlen<<16 | nlen<<24 | untagFlags<<32
//! w1        result            (⊥ until the op takes effect)
//! w2        success_result    (what `help` writes on success)
//! w3..w10   AffectSet         (info-field addr, observed value) × ≤4
//! w11..w16  WriteSet          (field addr, old, new)            × ≤2
//! w17..w19  NewSet            (info-field addr of new node)     × ≤3
//! ```
//!
//! AffectSet and NewSet entries store the address of a node's **info
//! field** (not the node base): the engine tags/untags nodes without
//! knowing any structure's node layout. `untagFlags` bit *i* records
//! whether AffectSet entry *i* is still part of the data structure after
//! the update and must be untagged during cleanup — a deleted or replaced
//! node keeps its tag forever (paper, Figure 1c).

use pmem::{PAddr, PmemPool, SiteId};

use crate::result::BOTTOM;

/// Maximum AffectSet entries (the BST delete needs 2; 4 leaves headroom).
pub const AFFECT_MAX: usize = 4;
/// Maximum WriteSet entries (the exchanger's collide needs 2).
pub const WRITE_MAX: usize = 2;
/// Maximum NewSet entries (the list insert allocates 2; 3 leaves headroom).
pub const NEW_MAX: usize = 3;

/// Descriptor size in words (3 cache lines).
pub const D_WORDS: usize = 24;
/// Descriptor size in cache lines.
pub const D_LINES: usize = 3;

const W_HDR: u64 = 0;
const W_RESULT: u64 = 1;
const W_SUCCESS: u64 = 2;
const W_AFFECT: u64 = 3;
const W_WRITE: u64 = 11;
const W_NEW: u64 = 17;

/// One AffectSet entry.
#[derive(Copy, Clone, Debug)]
pub struct AffectEntry {
    /// Address of the affected node's `info` field.
    pub info_addr: PAddr,
    /// The info value observed during the gather phase (the version stamp
    /// the tagging CAS validates against).
    pub observed: u64,
    /// Untag this node during cleanup (it remains in the structure)?
    pub untag_on_cleanup: bool,
}

/// One WriteSet entry: `CAS(field, old, new)`.
#[derive(Copy, Clone, Debug)]
pub struct WriteEntry {
    /// Address of the field to change.
    pub field: PAddr,
    /// Expected old value.
    pub old: u64,
    /// New value.
    pub new: u64,
}

/// A handle on a descriptor in persistent memory (the untagged base
/// address). Copy-cheap; all state lives in the pool.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Desc {
    addr: PAddr,
}

impl Desc {
    /// Allocates a fresh (zeroed) descriptor. `result` is ⊥ (= 0) by
    /// construction. Only an update attempt (or a read-only outcome in the
    /// paper's placement) allocates one: finds, gets and the read-only
    /// outcomes of updates record no descriptor.
    ///
    /// Descriptors are deliberately bump-allocated — never recycled, even
    /// on a pool built with `pmem::PoolCfg::reclaim`. Cleanup leaves
    /// `untagged(desc)` behind as the *info version stamp* of every
    /// AffectSet node that survives the operation, and that stamp is
    /// validated by tagging CASes arbitrarily far in the future; re-issuing
    /// a descriptor address could therefore resurrect an old stamp value on
    /// a node the new descriptor's operation also affects, and a stale
    /// tagging CAS would validate against it (ABA across operation
    /// windows). Only *node* blocks — whose addresses are compared solely
    /// against values gathered within a single operation window — are safe
    /// to recycle; see `pmem::palloc`.
    pub fn alloc(pool: &PmemPool) -> Desc {
        Desc {
            addr: pool.alloc_lines(D_LINES),
        }
    }

    /// Wraps a raw descriptor reference read from `RD_q` or an `info` field
    /// (any tag bit is cleared).
    #[inline]
    pub fn from_raw(raw: u64) -> Desc {
        Desc {
            addr: PAddr(pmem::untagged(raw)),
        }
    }

    /// Untagged base address.
    #[inline]
    pub fn addr(&self) -> PAddr {
        self.addr
    }

    /// Raw untagged reference (for `RD_q`).
    #[inline]
    pub fn raw(&self) -> u64 {
        self.addr.raw()
    }

    /// The value a tagging CAS installs into `info` fields.
    #[inline]
    pub fn tagged(&self) -> u64 {
        pmem::tagged(self.addr.raw())
    }

    /// The value cleanup/backtrack leave in `info` fields.
    #[inline]
    pub fn untagged(&self) -> u64 {
        pmem::untagged(self.addr.raw())
    }

    /// Fills in every field of a freshly allocated descriptor (Algorithm 1
    /// line 16). Plain stores; the caller persists with [`Desc::pbarrier`]
    /// *before* publishing the descriptor through `RD_q` or a tagging CAS.
    pub fn init(
        &self,
        pool: &PmemPool,
        op_type: u8,
        success_result: u64,
        affect: &[AffectEntry],
        writes: &[WriteEntry],
        news: &[PAddr],
    ) {
        assert!(affect.len() <= AFFECT_MAX, "AffectSet too large");
        assert!(writes.len() <= WRITE_MAX, "WriteSet too large");
        assert!(news.len() <= NEW_MAX, "NewSet too large");
        let mut untag_flags = 0u64;
        for (i, e) in affect.iter().enumerate() {
            pool.store(self.addr.add(W_AFFECT + 2 * i as u64), e.info_addr.raw());
            pool.store(self.addr.add(W_AFFECT + 2 * i as u64 + 1), e.observed);
            if e.untag_on_cleanup {
                untag_flags |= 1 << i;
            }
        }
        for (j, w) in writes.iter().enumerate() {
            let base = W_WRITE + 3 * j as u64;
            pool.store(self.addr.add(base), w.field.raw());
            pool.store(self.addr.add(base + 1), w.old);
            pool.store(self.addr.add(base + 2), w.new);
        }
        for (i, n) in news.iter().enumerate() {
            pool.store(self.addr.add(W_NEW + i as u64), n.raw());
        }
        pool.store(self.addr.add(W_SUCCESS), success_result);
        pool.store(self.addr.add(W_RESULT), BOTTOM);
        let hdr = op_type as u64
            | (affect.len() as u64) << 8
            | (writes.len() as u64) << 16
            | (news.len() as u64) << 24
            | untag_flags << 32;
        pool.store(self.addr.add(W_HDR), hdr);
    }

    /// Flushes the whole descriptor and fences (the `pbarrier(*opInfo)` of
    /// Algorithm 1 line 19).
    pub fn pbarrier(&self, pool: &PmemPool, site: SiteId) {
        pool.pbarrier(self.addr, D_WORDS, site);
    }

    // --- field readers -------------------------------------------------

    /// Structure-defined operation type tag.
    pub fn op_type(&self, pool: &PmemPool) -> u8 {
        (pool.load(self.addr.add(W_HDR)) & 0xFF) as u8
    }

    /// AffectSet length.
    pub fn affect_len(&self, pool: &PmemPool) -> usize {
        ((pool.load(self.addr.add(W_HDR)) >> 8) & 0xFF) as usize
    }

    /// WriteSet length.
    pub fn write_len(&self, pool: &PmemPool) -> usize {
        ((pool.load(self.addr.add(W_HDR)) >> 16) & 0xFF) as usize
    }

    /// NewSet length.
    pub fn new_len(&self, pool: &PmemPool) -> usize {
        ((pool.load(self.addr.add(W_HDR)) >> 24) & 0xFF) as usize
    }

    /// AffectSet entry `i`.
    ///
    /// Bounds checks here (and in [`Self::write`], [`Self::new_node`]) must
    /// stay free of instrumented pool reads: an extra debug-only `load`
    /// would tick the crash countdown, making crash-point enumeration
    /// differ between debug and release builds.
    pub fn affect(&self, pool: &PmemPool, i: usize) -> AffectEntry {
        let hdr = pool.load(self.addr.add(W_HDR));
        debug_assert!(i < ((hdr >> 8) & 0xFF) as usize);
        let flags = hdr >> 32;
        AffectEntry {
            info_addr: PAddr::from_raw(pool.load(self.addr.add(W_AFFECT + 2 * i as u64))),
            observed: pool.load(self.addr.add(W_AFFECT + 2 * i as u64 + 1)),
            untag_on_cleanup: flags & (1 << i) != 0,
        }
    }

    /// WriteSet entry `j`.
    pub fn write(&self, pool: &PmemPool, j: usize) -> WriteEntry {
        debug_assert!(j < WRITE_MAX);
        let base = W_WRITE + 3 * j as u64;
        WriteEntry {
            field: PAddr::from_raw(pool.load(self.addr.add(base))),
            old: pool.load(self.addr.add(base + 1)),
            new: pool.load(self.addr.add(base + 2)),
        }
    }

    /// NewSet entry `i` (info-field address of the new node).
    pub fn new_node(&self, pool: &PmemPool, i: usize) -> PAddr {
        debug_assert!(i < NEW_MAX);
        PAddr::from_raw(pool.load(self.addr.add(W_NEW + i as u64)))
    }

    /// Current `result` (⊥ until the operation takes effect).
    pub fn result(&self, pool: &PmemPool) -> u64 {
        pool.load(self.addr.add(W_RESULT))
    }

    /// The response `help` publishes when the update phase completes.
    pub fn success_result(&self, pool: &PmemPool) -> u64 {
        pool.load(self.addr.add(W_SUCCESS))
    }

    /// Writes `result` directly (read-only / failing paths, Algorithm 3
    /// line 23 etc.). The caller persists it.
    pub fn set_result(&self, pool: &PmemPool, r: u64) {
        pool.store(self.addr.add(W_RESULT), r);
    }

    /// Address of the `result` word (for targeted `pwb`s, Algorithm 2
    /// line 53).
    pub fn result_addr(&self) -> PAddr {
        self.addr.add(W_RESULT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem::{PmemPool, PoolCfg};

    fn pool() -> PmemPool {
        PmemPool::new(PoolCfg::model(1 << 20))
    }

    #[test]
    fn roundtrip_all_fields() {
        let p = pool();
        let d = Desc::alloc(&p);
        let n1 = p.alloc_lines(1);
        let n2 = p.alloc_lines(1);
        let nn = p.alloc_lines(1);
        d.init(
            &p,
            7,
            crate::result::TRUE,
            &[
                AffectEntry {
                    info_addr: n1.add(2),
                    observed: 11,
                    untag_on_cleanup: true,
                },
                AffectEntry {
                    info_addr: n2.add(2),
                    observed: 13,
                    untag_on_cleanup: false,
                },
            ],
            &[WriteEntry {
                field: n1.add(1),
                old: 5,
                new: 6,
            }],
            &[nn.add(2)],
        );
        assert_eq!(d.op_type(&p), 7);
        assert_eq!(d.affect_len(&p), 2);
        assert_eq!(d.write_len(&p), 1);
        assert_eq!(d.new_len(&p), 1);
        let a0 = d.affect(&p, 0);
        assert_eq!(a0.info_addr, n1.add(2));
        assert_eq!(a0.observed, 11);
        assert!(a0.untag_on_cleanup);
        let a1 = d.affect(&p, 1);
        assert_eq!(a1.info_addr, n2.add(2));
        assert!(!a1.untag_on_cleanup);
        let w0 = d.write(&p, 0);
        assert_eq!((w0.field, w0.old, w0.new), (n1.add(1), 5, 6));
        assert_eq!(d.new_node(&p, 0), nn.add(2));
        assert_eq!(d.result(&p), BOTTOM);
        assert_eq!(d.success_result(&p), crate::result::TRUE);
    }

    #[test]
    fn result_starts_bottom_and_is_settable() {
        let p = pool();
        let d = Desc::alloc(&p);
        d.init(&p, 1, crate::result::TRUE, &[], &[], &[]);
        assert_eq!(d.result(&p), BOTTOM);
        d.set_result(&p, crate::result::FALSE);
        assert_eq!(d.result(&p), crate::result::FALSE);
    }

    #[test]
    fn tagged_untagged_refer_to_same_descriptor() {
        let p = pool();
        let d = Desc::alloc(&p);
        assert_ne!(d.tagged(), d.untagged());
        assert_eq!(Desc::from_raw(d.tagged()), d);
        assert_eq!(Desc::from_raw(d.untagged()), d);
        assert!(pmem::is_tagged(d.tagged()));
        assert!(!pmem::is_tagged(d.untagged()));
    }

    #[test]
    fn descriptors_are_line_aligned_and_fresh() {
        let p = pool();
        let a = Desc::alloc(&p);
        let b = Desc::alloc(&p);
        assert_eq!(a.addr().word() % pmem::WORDS_PER_LINE, 0);
        assert!(b.addr().raw() >= a.addr().raw() + D_WORDS as u64);
    }

    #[test]
    fn pbarrier_persists_descriptor() {
        let p = pool();
        let d = Desc::alloc(&p);
        d.init(&p, 3, crate::result::TRUE, &[], &[], &[]);
        d.pbarrier(&p, pmem::SiteId(0));
        p.crash(&mut pmem::PessimistAdversary);
        assert_eq!(d.op_type(&p), 3);
        assert_eq!(d.success_result(&p), crate::result::TRUE);
    }

    #[test]
    #[should_panic(expected = "AffectSet too large")]
    fn affect_overflow_checked() {
        let p = pool();
        let d = Desc::alloc(&p);
        let e = AffectEntry {
            info_addr: PAddr(8),
            observed: 0,
            untag_on_cleanup: false,
        };
        d.init(&p, 0, 0, &[e; 5], &[], &[]);
    }
}
