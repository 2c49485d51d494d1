//! Persistence-instruction call sites and performance backends.
//!
//! Every `pwb` in an algorithm is identified by a [`SiteId`] naming the code
//! line it corresponds to (e.g. "flush of `RD_q`", "flush of a node's `info`
//! field after the tagging CAS"). The pool counts executions per site and
//! exposes a runtime *site mask*, so the paper's experiments — the
//! persistence-free version, single-site impact measurements, and
//! category add/remove sweeps (Figures 3e–f, 4e–f, 5, 6) — are all driven
//! by masks on one binary, exactly as the paper's methodology prescribes.

use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum number of distinct `pwb` call sites per pool.
pub const MAX_SITES: usize = 64;

/// Identifier of a `pwb` call site within one algorithm.
///
/// Algorithm crates define their own site constants (with names) in the
/// range `0..MAX_SITES`; the pool treats sites as opaque counters.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct SiteId(pub u8);

impl SiteId {
    #[inline]
    pub(crate) fn idx(self) -> usize {
        self.0 as usize
    }
}

/// How persistence instructions behave at run time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `pwb` = a real cache-line write-back of the backing DRAM line
    /// (`clwb` where the host supports it — Optane's own instruction —
    /// falling back to `clflushopt`/`clflush`), `psync`/`pfence` = real
    /// `sfence`. Default on x86-64; reproduces the coherence/write-back
    /// cost structure of flushes that the paper's analysis is about. On
    /// other hosts both fall back to a sequentially consistent fence.
    Clflush,
    /// Count persistence instructions but execute nothing. Used for pure
    /// instruction-count experiments (Figures 3b/3d) where the counting
    /// itself must not perturb the run.
    Noop,
}

/// Runtime enable/disable mask over `pwb` sites plus a global `psync` switch.
///
/// "Removing a code line containing a persistence instruction" (the paper's
/// phrasing) corresponds to clearing the site's bit.
pub(crate) struct SiteMask {
    bits: AtomicU64,
    psync_on: AtomicU64, // 0 or 1; u64 keeps everything lock-free & simple
}

impl SiteMask {
    pub(crate) fn all_on() -> Self {
        SiteMask {
            bits: AtomicU64::new(u64::MAX),
            psync_on: AtomicU64::new(1),
        }
    }

    #[inline]
    pub(crate) fn site_enabled(&self, s: SiteId) -> bool {
        self.bits.load(Ordering::Relaxed) & (1u64 << s.idx()) != 0
    }

    #[inline]
    pub(crate) fn psync_enabled(&self) -> bool {
        self.psync_on.load(Ordering::Relaxed) != 0
    }

    pub(crate) fn set_site(&self, s: SiteId, on: bool) {
        if on {
            self.bits.fetch_or(1u64 << s.idx(), Ordering::Relaxed);
        } else {
            self.bits.fetch_and(!(1u64 << s.idx()), Ordering::Relaxed);
        }
    }

    pub(crate) fn set_mask(&self, mask: u64) {
        self.bits.store(mask, Ordering::Relaxed);
    }

    pub(crate) fn mask(&self) -> u64 {
        self.bits.load(Ordering::Relaxed)
    }

    pub(crate) fn set_psync(&self, on: bool) {
        self.psync_on.store(on as u64, Ordering::Relaxed);
    }
}

/// Which write-back instruction the host supports (best first).
#[cfg(target_arch = "x86_64")]
#[derive(Copy, Clone, PartialEq, Eq)]
enum FlushInsn {
    /// `clwb`: write back, keep the line valid — Optane's instruction, and
    /// the one that makes thread-private flushes cheap (the crux of the
    /// paper's L/M/H categorization).
    Clwb,
    /// `clflushopt`: write back and invalidate, weakly ordered.
    ClflushOpt,
    /// `clflush`: write back and invalidate, strongly ordered (SSE2).
    Clflush,
}

#[cfg(target_arch = "x86_64")]
fn flush_insn() -> FlushInsn {
    use std::sync::atomic::AtomicU8;
    static KIND: AtomicU8 = AtomicU8::new(u8::MAX);
    match KIND.load(Ordering::Relaxed) {
        0 => FlushInsn::Clwb,
        1 => FlushInsn::ClflushOpt,
        2 => FlushInsn::Clflush,
        _ => {
            // CPUID.(EAX=7, ECX=0): EBX bit 24 = CLWB, bit 23 = CLFLUSHOPT.
            let ebx = core::arch::x86_64::__cpuid_count(7, 0).ebx;
            let k = if ebx & (1 << 24) != 0 {
                FlushInsn::Clwb
            } else if ebx & (1 << 23) != 0 {
                FlushInsn::ClflushOpt
            } else {
                FlushInsn::Clflush
            };
            KIND.store(k as u8, Ordering::Relaxed);
            k
        }
    }
}

/// Issues a cache-line write-back of the line containing `ptr` (Perf
/// backend), using the best instruction the host offers: `clwb` (Optane's
/// `pwb`; keeps the line valid, so flushing a thread-private line is
/// cheap), falling back to `clflushopt`/`clflush` (which additionally
/// invalidate — strictly more expensive, same direction).
#[inline]
pub(crate) fn hw_flush(ptr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: the selected instruction is supported (runtime-detected) and
    // `ptr` is a valid address inside the pool allocation; cache-line
    // write-backs have no other preconditions.
    unsafe {
        match flush_insn() {
            FlushInsn::Clwb => {
                std::arch::asm!("clwb [{0}]", in(reg) ptr, options(nostack, preserves_flags));
            }
            FlushInsn::ClflushOpt => {
                std::arch::asm!("clflushopt [{0}]", in(reg) ptr, options(nostack, preserves_flags));
            }
            FlushInsn::Clflush => core::arch::x86_64::_mm_clflush(ptr),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = ptr;
        std::sync::atomic::fence(Ordering::SeqCst);
    }
}

/// Issues a store fence (Perf backend `psync`/`pfence`).
#[inline]
pub(crate) fn hw_sfence() {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_mm_sfence();
    }
    #[cfg(not(target_arch = "x86_64"))]
    std::sync::atomic::fence(Ordering::SeqCst);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_default_all_on() {
        let m = SiteMask::all_on();
        for i in 0..MAX_SITES as u8 {
            assert!(m.site_enabled(SiteId(i)));
        }
        assert!(m.psync_enabled());
    }

    #[test]
    fn mask_individual_toggle() {
        let m = SiteMask::all_on();
        m.set_site(SiteId(3), false);
        assert!(!m.site_enabled(SiteId(3)));
        assert!(m.site_enabled(SiteId(2)));
        assert!(m.site_enabled(SiteId(4)));
        m.set_site(SiteId(3), true);
        assert!(m.site_enabled(SiteId(3)));
    }

    #[test]
    fn mask_bulk_set() {
        let m = SiteMask::all_on();
        m.set_mask(0);
        for i in 0..MAX_SITES as u8 {
            assert!(!m.site_enabled(SiteId(i)));
        }
        m.set_mask(0b101);
        assert!(m.site_enabled(SiteId(0)));
        assert!(!m.site_enabled(SiteId(1)));
        assert!(m.site_enabled(SiteId(2)));
    }

    #[test]
    fn psync_toggle() {
        let m = SiteMask::all_on();
        m.set_psync(false);
        assert!(!m.psync_enabled());
        m.set_psync(true);
        assert!(m.psync_enabled());
    }
}
