//! Per-thread *yield hook* for deterministic cooperative scheduling.
//!
//! The schedule explorer (`bench::explore`) serializes N real OS threads
//! into one deterministic interleaving by parking every thread except one
//! and handing the "run token" around at well-defined yield points. The
//! yield points are exactly the pool's instrumented memory events —
//! `load`/`store`/`cas`/`pwb`/`pfence`/`psync` — the same event stream that
//! crash injection counts, so a schedule's event index *k* names both "the
//! k-th yield decision" and "the k-th possible crash point".
//!
//! Mechanically this module is just a thread-local `FnMut()` slot. A worker
//! thread registers its hook with [`set_yield_hook`] before touching the
//! pool; when the pool's scheduler epoch bit (`EP_SCHED`) is set, every
//! instrumented event invokes the hook *immediately before* the event executes (and,
//! for maskable persistence instructions, *after* the site-mask check, so
//! masked sites stay invisible to scheduling exactly as they are invisible
//! to crash-point enumeration). A thread with no registered hook — the main
//! thread during recovery, or any thread outside an exploration — falls
//! straight through.
//!
//! The hook is taken out of the slot while it runs: if the hook itself
//! triggers a pool event (it should not, but a scheduler bug must not
//! recurse into itself), the nested call sees an empty slot and returns.
//!
//! ## The spin channel
//!
//! A second, separate slot carries *spin yields* ([`set_spin_hook`] /
//! [`yield_spin`]). A blocking subject — Romulus's writer mutex, its
//! seqlock readers — busy-waits on state only another thread can change;
//! under the explorer's one-thread-at-a-time turn protocol such a wait can
//! never resolve unless the waiter explicitly offers the turn back. The
//! subject calls [`yield_spin`] from inside its wait loop to do exactly
//! that. A spin yield is deliberately **not** a pool event: it does not
//! tick the crash countdown and the explorer does not count it, because
//! the number of wait-loop iterations is a scheduling artifact, not a
//! point in the algorithm where a crash is meaningful or a schedule index
//! must be stable. Subjects that never block never call it; threads with
//! no spin hook (every thread outside an exploration) fall straight
//! through, so the call is free in production paths.
//!
//! Zero-cost when off: the only cost on the pool's fast paths is the one
//! fused epoch load they already perform; `EP_SCHED` rides along in the
//! slow-path masks.

use std::cell::RefCell;

thread_local! {
    /// This thread's yield hook, if it is participating in an exploration.
    static YIELD_HOOK: RefCell<Option<Box<dyn FnMut()>>> = const { RefCell::new(None) };
    /// This thread's spin hook — the turn-release channel for busy-wait
    /// loops in blocking subjects (see the module docs).
    static SPIN_HOOK: RefCell<Option<Box<dyn FnMut()>>> = const { RefCell::new(None) };
}

/// Registers `hook` as the calling thread's yield hook. It will be invoked
/// immediately before every instrumented pool event this thread executes
/// while the pool's scheduler bit is set (see
/// [`PmemPool::set_sched_enabled`](crate::PmemPool::set_sched_enabled)).
/// Replaces any previously registered hook.
///
/// The hook typically blocks (on a condvar) until a scheduler grants this
/// thread the right to execute its pending event — that is what makes the
/// interleaving deterministic. It must not touch the pool itself; a nested
/// pool event from inside the hook sees an empty slot and does not recurse.
pub fn set_yield_hook(hook: Box<dyn FnMut()>) {
    YIELD_HOOK.with(|h| *h.borrow_mut() = Some(hook));
}

/// Removes the calling thread's yield hook, if any. Safe to call when none
/// is registered. Worker threads call this after their scripted run so
/// later pool use (teardown asserts, panics unwinding into drops) cannot
/// block on a scheduler that has already moved on.
pub fn clear_yield_hook() {
    YIELD_HOOK.with(|h| *h.borrow_mut() = None);
}

/// Registers `hook` as the calling thread's *spin* hook, invoked by
/// [`yield_spin`] from the busy-wait loops of blocking subjects. Replaces
/// any previously registered spin hook. Explorer workers register it
/// alongside the yield hook; the two channels are independent so a spin
/// never perturbs event counting or crash-point indexing.
pub fn set_spin_hook(hook: Box<dyn FnMut()>) {
    SPIN_HOOK.with(|h| *h.borrow_mut() = Some(hook));
}

/// Removes the calling thread's spin hook, if any. Safe to call when none
/// is registered.
pub fn clear_spin_hook() {
    SPIN_HOOK.with(|h| *h.borrow_mut() = None);
}

/// Does the calling thread currently have a spin hook registered?
/// Blocking subjects use this to choose between their native blocking
/// acquire (no hook: real parallelism, the OS arbitrates) and a
/// `try`-acquire loop around [`yield_spin`] (hook: the explorer
/// arbitrates, and parking the OS thread would deadlock the turn).
pub fn has_spin_hook() -> bool {
    SPIN_HOOK.with(|h| h.borrow().is_some())
}

/// Offers the scheduler a chance to run someone else from inside a
/// busy-wait loop. Invokes the calling thread's spin hook if one is
/// registered; a no-op otherwise, so subjects may call it unconditionally
/// from their wait loops. Same re-entrancy discipline as the yield hook:
/// the hook is taken out of its slot for the duration of the call.
pub fn yield_spin() {
    let hook = SPIN_HOOK.with(|h| h.borrow_mut().take());
    if let Some(mut f) = hook {
        f();
        SPIN_HOOK.with(|h| {
            let mut slot = h.borrow_mut();
            if slot.is_none() {
                *slot = Some(f);
            }
        });
    }
}

/// Invokes the calling thread's yield hook, if one is registered. Called
/// from the pool's slow paths when [`EP_SCHED`](crate::epoch::EP_SCHED) is
/// set; a no-op for threads without a hook. The hook is removed from its
/// slot for the duration of the call (re-entrancy guard) and put back
/// afterwards; if the hook panics (e.g. a scheduler fuel-exhaustion abort)
/// the slot simply stays empty while the panic unwinds the thread.
pub(crate) fn yield_now() {
    let hook = YIELD_HOOK.with(|h| h.borrow_mut().take());
    if let Some(mut f) = hook {
        f();
        YIELD_HOOK.with(|h| {
            let mut slot = h.borrow_mut();
            // Keep a replacement the hook may have installed for itself.
            if slot.is_none() {
                *slot = Some(f);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    #[test]
    fn hook_fires_and_clears() {
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        set_yield_hook(Box::new(move || h.set(h.get() + 1)));
        yield_now();
        yield_now();
        assert_eq!(hits.get(), 2);
        clear_yield_hook();
        yield_now(); // no hook: falls through
        assert_eq!(hits.get(), 2);
    }

    #[test]
    fn spin_channel_is_independent_of_the_yield_channel() {
        let yields = Rc::new(Cell::new(0u32));
        let spins = Rc::new(Cell::new(0u32));
        let (y, s) = (yields.clone(), spins.clone());
        set_yield_hook(Box::new(move || y.set(y.get() + 1)));
        set_spin_hook(Box::new(move || s.set(s.get() + 1)));
        assert!(has_spin_hook());
        yield_spin();
        yield_spin();
        assert_eq!((yields.get(), spins.get()), (0, 2));
        yield_now();
        assert_eq!((yields.get(), spins.get()), (1, 2));
        clear_spin_hook();
        assert!(!has_spin_hook());
        yield_spin(); // no hook: falls through
        assert_eq!(spins.get(), 2);
        clear_yield_hook();
    }

    #[test]
    fn hook_does_not_recurse() {
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        set_yield_hook(Box::new(move || {
            h.set(h.get() + 1);
            yield_now(); // nested: slot is empty, must not recurse
        }));
        yield_now();
        assert_eq!(hits.get(), 1);
        // The hook is restored after the call.
        yield_now();
        assert_eq!(hits.get(), 2);
        clear_yield_hook();
    }

    #[test]
    fn pool_events_reach_the_hook_only_when_armed() {
        use crate::{PmemPool, PoolCfg, SiteId};
        let pool = PmemPool::new(PoolCfg::model(1 << 16));
        let a = pool.alloc_lines(1);
        let hits = Rc::new(Cell::new(0u32));
        let h = hits.clone();
        set_yield_hook(Box::new(move || h.set(h.get() + 1)));

        // Scheduler bit clear: instrumented events bypass the hook.
        pool.store(a, 1);
        pool.load(a);
        assert_eq!(hits.get(), 0);

        pool.set_sched_enabled(true);
        pool.store(a, 2); // 1
        pool.load(a); // 2
        let _ = pool.cas(a, 2, 3); // 3
        pool.pwb(a, SiteId(0)); // 4
        pool.pfence(); // 5
        pool.psync(); // 6
        assert_eq!(hits.get(), 6);

        // Masked sites stay invisible to scheduling, exactly as they are
        // invisible to crash-point enumeration.
        pool.set_site_enabled(SiteId(0), false);
        pool.pwb(a, SiteId(0));
        assert_eq!(hits.get(), 6);
        pool.set_psync_enabled(false);
        pool.psync();
        assert_eq!(hits.get(), 6);

        pool.set_sched_enabled(false);
        pool.store(a, 4);
        assert_eq!(hits.get(), 6);
        clear_yield_hook();
    }
}
