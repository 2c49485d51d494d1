//! The fused *instrumentation epoch*: one shared atomic word summarizing
//! every slow-path obligation of the pool's hot primitives.
//!
//! `load`/`store`/`cas`/`pwb`/`pfence`/`psync` used to pay several
//! independent flag loads per event (crash-injection armed? trace on? lint
//! on? shadow present?). All of those are rare, test-time conditions; the
//! performance runs the paper's Section 5 is about have none of them set.
//! Fusing them into one word means the common case costs exactly one
//! relaxed load and a predictable not-taken branch, and the cold function
//! handling the rest stays out of the inlined fast path entirely.
//!
//! Bit owners: [`crate::crash::CrashCtl`] maintains [`EP_CRASH`] from its
//! arm/disarm/auto-disarm transitions; [`crate::PmemPool`] sets
//! [`EP_SHADOW`] once at construction and never toggles it, maintains
//! [`EP_TRACE`]/[`EP_LINT`] from the observer toggles, [`EP_MASK`] from
//! the site-mask setters (and [`crate::PmemPool::restore`], which puts a
//! snapshot's mask back), and [`EP_SCHED`] from the schedule explorer's
//! enable toggle. Snapshot, restore and crash resolution set no bit of
//! their own: a checkpointed replay runs on the same fast paths as a run
//! on a fresh pool.
//!
//! Ordering: *setting* bits uses SeqCst (arming a crash or enabling an
//! observer is a rare control action that must not reorder with the
//! workload it governs), while the hot-path *read* is Relaxed — see the
//! fast-path comments in `pool.rs` for why that is sufficient.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Crash injection armed ([`crate::crash::CrashCtl`] countdown/broadcast).
pub(crate) const EP_CRASH: u64 = 1 << 0;
/// Persistence-event trace recording ([`crate::trace`]).
pub(crate) const EP_TRACE: u64 = 1 << 1;
/// Flush lint recording ([`crate::lint`]).
pub(crate) const EP_LINT: u64 = 1 << 2;
/// Shadow crash model present (Model mode pools; set at construction and
/// never cleared).
pub(crate) const EP_SHADOW: u64 = 1 << 3;
/// Some persistence instruction is masked off (site mask not all-ones, or
/// `psync` disabled) — the paper's "remove this code line" experiments.
/// Folding this into the epoch keeps the unmasked `pwb`/`pfence`/`psync`
/// fast paths free of the separate mask load; masked runs take the slow
/// path, which checks the mask *before* the crash tick so a disabled site
/// stays completely invisible to crash-point enumeration.
pub(crate) const EP_MASK: u64 = 1 << 5;
/// Cooperative-scheduler yield points armed ([`crate::sched`]): every
/// instrumented event first calls the calling thread's registered yield
/// hook, which the schedule explorer uses to serialize virtual threads
/// deterministically. Set by [`crate::PmemPool::set_sched_enabled`]; like
/// every other bit, costs nothing when clear.
pub(crate) const EP_SCHED: u64 = 1 << 6;

/// The shared epoch word. An `Arc` because the pool and its [`CrashCtl`]
/// both write it ([`CrashCtl`] must clear [`EP_CRASH`] when a fired
/// countdown auto-disarms, without reaching back into the pool).
///
/// [`CrashCtl`]: crate::crash::CrashCtl
pub(crate) type Epoch = Arc<AtomicU64>;

/// A fresh epoch word with the given initial bits.
pub(crate) fn new_epoch(bits: u64) -> Epoch {
    Arc::new(AtomicU64::new(bits))
}
