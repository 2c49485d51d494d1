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
//! Layout: three header words, then the three sets back to back, each
//! located from the lengths in the header word (`a`, `w`, `n` entries):
//!
//! ```text
//! w0              header: opType | a<<8 | w<<16 | n<<24 | untagFlags<<32
//! w1              result            (⊥ until the op takes effect)
//! w2              success_result    (what `help` writes on success)
//! w3 ..           AffectSet         (info-field addr, observed value) × a
//! w3+2a ..        WriteSet          (field addr, old, new)            × w
//! w3+2a+3w ..     NewSet            (info-field addr of new node)     × n
//! ```
//!
//! A descriptor is line-aligned, so its flush has a deterministic line
//! count, and [`Desc::alloc`] sizes it to the sets its operation fills:
//!
//! | operation                                  | a, w, n | words | lines |
//! |--------------------------------------------|---------|-------|-------|
//! | hash-map seal                              | 1, 0, 0 | 5     | 1     |
//! | pop, dequeue                               | 1, 1, 0 | 8     | 1     |
//! | push, enqueue, BST insert, capture, cancel | 1, 1, 1 | 9     | 2     |
//! | list/map delete, BST delete                | 2, 1, 0 | 10    | 2     |
//! | list/map insert                            | 2, 1, 2 | 12    | 2     |
//! | collide                                    | 1, 2, 1 | 12    | 2     |
//! | hash-map move                              | 3, 2, 1 | 16    | 2     |
//!
//! The list's paper placements ([`crate::list::Placement::Paper`] and
//! `PaperNoReadOpt`) keep the paper's fixed size instead:
//! [`Desc::alloc_paper`] allocates [`D_LINES`] = 3 lines, room for the
//! largest sets, and [`Desc::pbarrier`] flushes all three.
//!
//! AffectSet and NewSet entries store the address of a node's **info
//! field** (not the node base): the engine tags/untags nodes without
//! knowing any structure's node layout. `untagFlags` bit *i* records
//! whether AffectSet entry *i* is still part of the data structure after
//! the update and must be untagged during cleanup — a deleted or replaced
//! node keeps its tag forever (paper, Figure 1c).

use pmem::{PAddr, PmemPool, SiteId, WORDS_PER_LINE};

use crate::result::BOTTOM;

/// Maximum AffectSet entries (the hash map's move needs 3; 4 leaves
/// headroom).
pub const AFFECT_MAX: usize = 4;
/// Maximum WriteSet entries (the exchanger's collide and the hash map's
/// move need 2).
pub const WRITE_MAX: usize = 2;
/// Maximum NewSet entries (the list insert allocates 2; 3 leaves headroom).
pub const NEW_MAX: usize = 3;

/// The paper placement's descriptor size in cache lines: room for the
/// largest sets.
pub const D_LINES: usize = 3;

const W_HDR: u64 = 0;
const W_RESULT: u64 = 1;
const W_SUCCESS: u64 = 2;
const W_AFFECT: u64 = 3;

const _: () = assert!(words(AFFECT_MAX, WRITE_MAX, NEW_MAX) <= D_LINES * WORDS_PER_LINE);

/// Words a descriptor with `affect` AffectSet, `writes` WriteSet and `news`
/// NewSet entries fills.
const fn words(affect: usize, writes: usize, news: usize) -> usize {
    W_AFFECT as usize + 2 * affect + 3 * writes + news
}

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

/// A descriptor's header word, decoded: the op type, the three set lengths
/// and the untag flags. [`Desc::header`] reads it with one load, and the
/// WriteSet and NewSet readers take it to locate their set without loading
/// it again.
#[derive(Copy, Clone, Debug)]
pub struct Header(u64);

impl Header {
    /// Structure-defined operation type tag.
    pub fn op_type(self) -> u8 {
        (self.0 & 0xFF) as u8
    }

    /// AffectSet length.
    pub fn affect_len(self) -> usize {
        ((self.0 >> 8) & 0xFF) as usize
    }

    /// WriteSet length.
    pub fn write_len(self) -> usize {
        ((self.0 >> 16) & 0xFF) as usize
    }

    /// NewSet length.
    pub fn new_len(self) -> usize {
        ((self.0 >> 24) & 0xFF) as usize
    }

    /// Word offset of WriteSet entry `j`.
    fn write_at(self, j: usize) -> u64 {
        words(self.affect_len(), j, 0) as u64
    }

    /// Word offset of NewSet entry `i`.
    fn new_at(self, i: usize) -> u64 {
        words(self.affect_len(), self.write_len(), i) as u64
    }
}

/// A handle on a descriptor in persistent memory (the untagged base
/// address). Copy-cheap; all state lives in the pool. Handles compare by
/// address.
#[derive(Copy, Clone, Debug)]
pub struct Desc {
    addr: PAddr,
    /// Lines allocated. Only the handle an allocation returned knows them
    /// (0 on a handle read back by [`Desc::from_raw`]); only its owner
    /// fills and flushes the descriptor.
    lines: usize,
}

impl PartialEq for Desc {
    fn eq(&self, other: &Desc) -> bool {
        self.addr == other.addr
    }
}

impl Eq for Desc {}

impl Desc {
    /// Allocates a fresh (zeroed) descriptor sized to hold `affect`
    /// AffectSet, `writes` WriteSet and `news` NewSet entries: the lines
    /// those words fill, 1 or 2 for every lean operation (see the module
    /// docs). `result` is ⊥ (= 0) by construction. Only an update
    /// attempt (or a read-only outcome in the paper's placement) allocates
    /// one: finds, gets and the read-only outcomes of updates record no
    /// descriptor.
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
    pub fn alloc(pool: &PmemPool, affect: usize, writes: usize, news: usize) -> Desc {
        Self::alloc_lines(pool, words(affect, writes, news).div_ceil(WORDS_PER_LINE))
    }

    /// Allocates a fresh descriptor of the paper placement's fixed size,
    /// [`D_LINES`] lines, whose [`Self::pbarrier`] flushes all of them
    /// (Figures 3–6 measure that flush).
    pub fn alloc_paper(pool: &PmemPool) -> Desc {
        Self::alloc_lines(pool, D_LINES)
    }

    fn alloc_lines(pool: &PmemPool, lines: usize) -> Desc {
        Desc {
            addr: pool.alloc_lines(lines),
            lines,
        }
    }

    /// Wraps a raw descriptor reference read from `RD_q` or an `info` field
    /// (any tag bit is cleared).
    #[inline]
    pub fn from_raw(raw: u64) -> Desc {
        Desc {
            addr: PAddr(pmem::untagged(raw)),
            lines: 0,
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
    /// Panics if the sets do not fit the allocation.
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
        assert!(
            words(affect.len(), writes.len(), news.len()) <= self.lines * WORDS_PER_LINE,
            "descriptor sets overflow the allocation"
        );
        let mut untag_flags = 0u64;
        for (i, e) in affect.iter().enumerate() {
            pool.store(self.addr.add(W_AFFECT + 2 * i as u64), e.info_addr.raw());
            pool.store(self.addr.add(W_AFFECT + 2 * i as u64 + 1), e.observed);
            if e.untag_on_cleanup {
                untag_flags |= 1 << i;
            }
        }
        let hdr = Header(
            op_type as u64
                | (affect.len() as u64) << 8
                | (writes.len() as u64) << 16
                | (news.len() as u64) << 24
                | untag_flags << 32,
        );
        for (j, w) in writes.iter().enumerate() {
            let base = hdr.write_at(j);
            pool.store(self.addr.add(base), w.field.raw());
            pool.store(self.addr.add(base + 1), w.old);
            pool.store(self.addr.add(base + 2), w.new);
        }
        for (i, n) in news.iter().enumerate() {
            pool.store(self.addr.add(hdr.new_at(i)), n.raw());
        }
        pool.store(self.addr.add(W_SUCCESS), success_result);
        pool.store(self.addr.add(W_RESULT), BOTTOM);
        pool.store(self.addr.add(W_HDR), hdr.0);
    }

    /// Flushes the allocated lines and fences (the `pbarrier(*opInfo)` of
    /// Algorithm 1 line 19). Only the handle an allocation returned knows
    /// the descriptor's size.
    pub fn pbarrier(&self, pool: &PmemPool, site: SiteId) {
        assert!(self.lines > 0, "pbarrier on a descriptor handle read back");
        pool.pbarrier(self.addr, self.lines * WORDS_PER_LINE, site);
    }

    // --- field readers -------------------------------------------------
    //
    // Bounds checks here must stay free of instrumented pool reads: an
    // extra debug-only `load` would tick the crash countdown, making
    // crash-point enumeration differ between debug and release builds.

    /// The header word (one load).
    pub fn header(&self, pool: &PmemPool) -> Header {
        Header(pool.load(self.addr.add(W_HDR)))
    }

    /// Structure-defined operation type tag.
    pub fn op_type(&self, pool: &PmemPool) -> u8 {
        self.header(pool).op_type()
    }

    /// AffectSet entry `i` (loads the header for its untag flag).
    pub fn affect(&self, pool: &PmemPool, i: usize) -> AffectEntry {
        let hdr = self.header(pool);
        debug_assert!(i < hdr.affect_len());
        let flags = hdr.0 >> 32;
        AffectEntry {
            info_addr: PAddr::from_raw(pool.load(self.addr.add(W_AFFECT + 2 * i as u64))),
            observed: pool.load(self.addr.add(W_AFFECT + 2 * i as u64 + 1)),
            untag_on_cleanup: flags & (1 << i) != 0,
        }
    }

    /// WriteSet entry `j`, located through `hdr`, this descriptor's
    /// [`Self::header`].
    pub fn write(&self, pool: &PmemPool, hdr: Header, j: usize) -> WriteEntry {
        debug_assert!(j < hdr.write_len());
        let base = hdr.write_at(j);
        WriteEntry {
            field: PAddr::from_raw(pool.load(self.addr.add(base))),
            old: pool.load(self.addr.add(base + 1)),
            new: pool.load(self.addr.add(base + 2)),
        }
    }

    /// NewSet entry `i` (info-field address of the new node), located
    /// through `hdr`, this descriptor's [`Self::header`].
    pub fn new_node(&self, pool: &PmemPool, hdr: Header, i: usize) -> PAddr {
        debug_assert!(i < hdr.new_len());
        PAddr::from_raw(pool.load(self.addr.add(hdr.new_at(i))))
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
    use crate::sites::S_DESC;
    use pmem::{PmemPool, PoolCfg};

    fn pool() -> PmemPool {
        PmemPool::new(PoolCfg::model(1 << 20))
    }

    fn affect(info_addr: PAddr, observed: u64, untag_on_cleanup: bool) -> AffectEntry {
        AffectEntry {
            info_addr,
            observed,
            untag_on_cleanup,
        }
    }

    fn write(field: PAddr, old: u64, new: u64) -> WriteEntry {
        WriteEntry { field, old, new }
    }

    /// Fills a descriptor sized for the sets, reads every field back, and
    /// checks the sets are packed: the last NewSet entry (or WriteSet
    /// entry) sits at the last word the shape fills.
    fn roundtrip(p: &PmemPool, affect: &[AffectEntry], writes: &[WriteEntry], news: &[PAddr]) {
        let d = Desc::alloc(p, affect.len(), writes.len(), news.len());
        d.init(p, 7, crate::result::TRUE, affect, writes, news);
        let hdr = d.header(p);
        assert_eq!(hdr.op_type(), 7);
        assert_eq!(d.op_type(p), 7);
        assert_eq!(
            (hdr.affect_len(), hdr.write_len(), hdr.new_len()),
            (affect.len(), writes.len(), news.len())
        );
        for (i, e) in affect.iter().enumerate() {
            let got = d.affect(p, i);
            assert_eq!(
                (got.info_addr, got.observed, got.untag_on_cleanup),
                (e.info_addr, e.observed, e.untag_on_cleanup),
                "AffectSet entry {i}"
            );
        }
        for (j, w) in writes.iter().enumerate() {
            let got = d.write(p, hdr, j);
            assert_eq!((got.field, got.old, got.new), (w.field, w.old, w.new));
        }
        for (i, &n) in news.iter().enumerate() {
            assert_eq!(d.new_node(p, hdr, i), n, "NewSet entry {i}");
        }
        assert_eq!(d.result(p), BOTTOM);
        assert_eq!(d.success_result(p), crate::result::TRUE);
        let last = words(affect.len(), writes.len(), news.len()) as u64 - 1;
        assert_ne!(p.load(d.addr().add(last)), 0, "the sets are packed");
    }

    #[test]
    fn roundtrip_all_fields() {
        let p = pool();
        let (n1, n2, nn) = (p.alloc_lines(1), p.alloc_lines(1), p.alloc_lines(1));
        roundtrip(
            &p,
            &[affect(n1.add(2), 11, true), affect(n2.add(2), 13, false)],
            &[write(n1.add(1), 5, 6)],
            &[nn.add(2)],
        );
    }

    /// The hash map's move fills all 16 words of its two lines.
    #[test]
    fn roundtrip_move_shape() {
        let p = pool();
        let (head, first, pred, newnd) = (
            p.alloc_lines(1),
            p.alloc_lines(1),
            p.alloc_lines(1),
            p.alloc_lines(1),
        );
        assert_eq!(words(3, 2, 1), 2 * WORDS_PER_LINE);
        roundtrip(
            &p,
            &[
                affect(head.add(2), 21, true),
                affect(first.add(2), 22, false),
                affect(pred.add(2), 23, true),
            ],
            &[write(pred.add(1), 31, 32), write(head.add(1), 33, 34)],
            &[newnd.add(2)],
        );
    }

    #[test]
    fn result_starts_bottom_and_is_settable() {
        let p = pool();
        let d = Desc::alloc(&p, 0, 0, 0);
        d.init(&p, 1, crate::result::TRUE, &[], &[], &[]);
        assert_eq!(d.result(&p), BOTTOM);
        d.set_result(&p, crate::result::FALSE);
        assert_eq!(d.result(&p), crate::result::FALSE);
    }

    #[test]
    fn tagged_untagged_refer_to_same_descriptor() {
        let p = pool();
        let d = Desc::alloc(&p, 1, 1, 0);
        assert_ne!(d.tagged(), d.untagged());
        assert_eq!(Desc::from_raw(d.tagged()), d);
        assert_eq!(Desc::from_raw(d.untagged()), d);
        assert!(pmem::is_tagged(d.tagged()));
        assert!(!pmem::is_tagged(d.untagged()));
    }

    /// Each descriptor starts on a fresh line past the previous one's
    /// allocation: a one-line shape takes one line, a two-line shape two,
    /// the paper's descriptor three.
    #[test]
    fn descriptors_are_line_aligned_and_fresh() {
        let p = pool();
        let line = WORDS_PER_LINE as u64;
        let pop = Desc::alloc(&p, 1, 1, 0);
        let insert = Desc::alloc(&p, 2, 1, 2);
        let paper = Desc::alloc_paper(&p);
        let next = Desc::alloc(&p, 1, 0, 0);
        for d in [pop, insert, paper, next] {
            assert_eq!(d.addr().word() % WORDS_PER_LINE, 0);
        }
        assert!(insert.raw() >= pop.raw() + line);
        assert!(paper.raw() >= insert.raw() + 2 * line);
        assert!(next.raw() >= paper.raw() + D_LINES as u64 * line);
    }

    #[test]
    fn pbarrier_persists_descriptor() {
        let p = pool();
        let d = Desc::alloc(&p, 0, 0, 0);
        d.init(&p, 3, crate::result::TRUE, &[], &[], &[]);
        d.pbarrier(&p, pmem::SiteId(0));
        p.crash(&mut pmem::PessimistAdversary);
        assert_eq!(d.op_type(&p), 3);
        assert_eq!(d.success_result(&p), crate::result::TRUE);
    }

    /// `desc`-site pwbs one `pbarrier` of a descriptor of this shape issues.
    fn desc_pwbs(d: impl Fn(&PmemPool) -> Desc, a: usize, w: usize, n: usize) -> u64 {
        let p = pool();
        let d = d(&p);
        let e = affect(p.alloc_lines(1).add(2), 0, true);
        let x = write(p.alloc_lines(1), 0, 1);
        d.init(
            &p,
            1,
            crate::result::TRUE,
            &[e; 3][..a],
            &[x; 2][..w],
            &[e.info_addr; 2][..n],
        );
        let before = p.stats().pwb_at(S_DESC);
        d.pbarrier(&p, S_DESC);
        p.stats().pwb_at(S_DESC) - before
    }

    /// A pop, a dequeue or a seal flushes one descriptor line; every other
    /// lean shape two; the paper placement's descriptor all three.
    #[test]
    fn pbarrier_flushes_the_lines_of_the_shape() {
        let lean = |a, w, n| desc_pwbs(|p| Desc::alloc(p, a, w, n), a, w, n);
        assert_eq!(lean(1, 1, 0), 1, "pop, dequeue");
        assert_eq!(lean(1, 0, 0), 1, "seal");
        for (a, w, n) in [(1, 1, 1), (2, 1, 0), (2, 1, 2), (1, 2, 1), (3, 2, 1)] {
            assert_eq!(lean(a, w, n), 2, "shape ({a}, {w}, {n})");
        }
        for (a, w, n) in [(1, 0, 0), (2, 1, 2)] {
            assert_eq!(desc_pwbs(Desc::alloc_paper, a, w, n), D_LINES as u64);
        }
    }

    #[test]
    #[should_panic(expected = "AffectSet too large")]
    fn affect_overflow_checked() {
        let p = pool();
        let d = Desc::alloc_paper(&p);
        let e = affect(PAddr(8), 0, false);
        d.init(&p, 0, 0, &[e; 5], &[], &[]);
    }

    #[test]
    #[should_panic(expected = "descriptor sets overflow the allocation")]
    fn sets_overflowing_the_allocation_are_checked() {
        let p = pool();
        let d = Desc::alloc(&p, 1, 1, 0); // a pop's one line
        let e = affect(PAddr(8), 0, true);
        d.init(&p, 0, 0, &[e], &[write(PAddr(16), 0, 1)], &[PAddr(24)]);
    }
}
