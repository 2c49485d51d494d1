//! # pmem — a simulated byte-addressable persistent main memory
//!
//! This crate is the hardware substrate for the PPoPP '22 paper
//! *Detectable Recovery of Lock-Free Data Structures* (Attiya, Ben-Baruch,
//! Fatourou, Hendler, Kosmas). The paper's algorithms run on Intel Optane
//! DCPMM with explicit epoch persistency: volatile caches, persistent main
//! memory, and three persistence instructions:
//!
//! * **`pwb(x)`** — *persistent write-back*: initiates the write-back of the
//!   cache line holding `x`. Write-backs of different lines may reorder.
//! * **`pfence`** — orders preceding `pwb`s before subsequent `pwb`s.
//! * **`psync`** — waits until all preceding `pwb`s have reached persistent
//!   memory.
//!
//! We do not have NVMM hardware, so [`PmemPool`] simulates it over DRAM with
//! two orthogonal facilities, selectable per pool via [`PoolCfg`]:
//!
//! 1. **Performance backend** ([`Backend`]): in [`Backend::Clflush`] mode a
//!    `pwb` issues a real `clflush` on the backing cache line and
//!    `psync`/`pfence` issue a real `sfence`. Flushing DRAM cache lines
//!    reproduces the *mechanism* behind the paper's persistence-cost
//!    analysis — a flush of a contended shared line causes coherence misses
//!    and is expensive, a flush of a thread-private line is cheap — which is
//!    exactly the low/medium/high categorization of Figures 3e–f, 4e–f, 5
//!    and 6. [`Backend::Delay`] injects calibrated latencies instead (for
//!    non-x86 hosts), and [`Backend::Noop`] turns persistence instructions
//!    into pure counters.
//! 2. **Crash model** (the `shadow` module, enabled with
//!    [`PoolCfg::shadow`]): every cache line keeps a *persisted* image and an
//!    optional *pwb-pending* snapshot. A simulated crash
//!    ([`PmemPool::crash`]) resolves each line — via a pluggable
//!    [`shadow::CrashAdversary`] — to its persisted, pending, or current
//!    volatile content, modeling loss of non-written-back lines as well as
//!    spontaneous cache evictions. Crash *injection* ([`crash::CrashCtl`])
//!    panics a thread at the N-th instrumented memory event so tests can
//!    crash an operation at every single step and exercise its recovery
//!    function.
//!
//! Persistence instructions are *instrumented per call site* ([`SiteId`]):
//! each `pwb` in an algorithm names the code line it came from, the pool
//! counts executions per site, and sites can be enabled or disabled at run
//! time. This is the instrument that regenerates the paper's
//! categorization experiments without rebuilding: the persistence-free
//! version is "all sites masked", Figure 3e enables one site at a time, and
//! Figures 3f/5/6 add or remove whole categories.
//!
//! ## Memory layout
//!
//! A pool is a flat array of 64-bit words grouped into 64-byte lines (8
//! words). [`PAddr`] is a word index; `PAddr::NULL` (word 0) is reserved.
//! Words 8..8+[`NUM_ROOTS`] form a root directory for data-structure entry
//! points, followed by a per-thread recovery table (one line per thread
//! holding the paper's `CP_q` and `RD_q` variables — see [`ThreadCtx`]).
//! All allocations are line-aligned. By default they are pure bump
//! allocations and memory is never recycled during a run, mirroring the
//! paper's reliance on a garbage collector (their §7 leaves recoverable
//! memory management to future work) and discharging ABA concerns by
//! construction. A pool built with [`PoolCfg::reclaim`] layers the
//! recoverable free-list allocator of the [`palloc`] module on top:
//! retired blocks park on per-thread limbo lists and are re-issued only
//! after an epoch quiescence, which preserves the no-reuse-inside-an-
//! operation-window property the ABA arguments actually need.
//!
//! ## The crash-inject → recover loop
//!
//! The idiom every crash test (and the `crashsweep` harness) is built on:
//! count the instrumented events of a workload once, then replay it once
//! per crash point, resolving the crash and checking the recovered state.
//! Here the "algorithm" is a two-word persist-before-publish protocol and
//! the invariant is that a published flag implies the payload survived:
//!
//! ```
//! use pmem::{PmemPool, PoolCfg, PessimistAdversary, SiteId, run_crashable};
//!
//! let publish = |pool: &PmemPool| {
//!     let data = pool.root(0);
//!     let flag = pool.root(1);
//!     pool.store_at(data, 42, SiteId(1));
//!     pool.pwb(data, SiteId(1));
//!     pool.pfence(); // order the payload before the flag...
//!     pool.store_at(flag, 1, SiteId(2));
//!     pool.pwb(flag, SiteId(2));
//!     pool.psync(); // ...and make the flag durable before returning
//! };
//!
//! // 1. Count the workload's instrumented events with the trace.
//! let pool = PmemPool::new(PoolCfg { trace: true, ..PoolCfg::model(1 << 20) });
//! publish(&pool);
//! let snap = pool.trace_snapshot();
//! let n = snap.events.len() as u64 + snap.dropped;
//!
//! // 2. Replay once per crash point k; event k panics with a CrashPoint.
//! for k in 0..n {
//!     let pool = PmemPool::new(PoolCfg::model(1 << 20));
//!     pool.crash_ctl().arm_after(k);
//!     assert!(run_crashable(|| publish(&pool)).is_none(), "crash point {k} must fire");
//!     // 3. Resolve the crash under maximal loss, then check recovery:
//!     //    the flag may only be durable if the payload is.
//!     pool.crash(&mut PessimistAdversary);
//!     if pool.load(pool.root(1)) == 1 {
//!         assert_eq!(pool.load(pool.root(0)), 42, "flag published but payload lost");
//!     }
//! }
//! ```

#![warn(missing_docs)]

pub mod addr;
pub mod arena;
pub mod crash;
mod epoch;
pub mod lint;
pub mod palloc;
pub mod persist;
pub mod pool;
pub mod rng;
pub mod sched;
pub mod shadow;
pub mod stats;
pub mod thread;
pub mod trace;

pub use addr::{is_tagged, tagged, untagged, PAddr, WORDS_PER_LINE};
pub use arena::{install_thread_arena, uninstall_thread_arena, SubArena, DEFAULT_CHUNK_LINES};
pub use crash::{run_crashable, CrashCtl, CrashPoint};
pub use lint::{Diagnostic, LintKind, LintReport};
pub use palloc::{MAX_CLASS, PALLOC_SITES};
pub use persist::{Backend, SiteId, MAX_SITES};
pub use pool::{exhaustion_message, PmemPool, PoolCfg, PoolSnapshot, EXHAUSTED_PREFIX, NUM_ROOTS};
pub use rng::Rng;
pub use sched::{
    clear_spin_hook, clear_yield_hook, has_spin_hook, has_yield_hook, set_spin_hook,
    set_yield_hook, yield_spin,
};
pub use shadow::{
    CrashAdversary, CrashChoice, OptimistAdversary, PessimistAdversary, SeededAdversary,
};
pub use stats::StatsSnapshot;
pub use thread::{ThreadCtx, MAX_THREADS};
pub use trace::{Event, EventKind, TraceSnapshot, NO_SITE};
