//! # tracking — detectable recovery of lock-free data structures
//!
//! A from-scratch Rust implementation of the **Tracking** approach of
//! *Detectable Recovery of Lock-Free Data Structures* (Attiya, Ben-Baruch,
//! Fatourou, Hendler, Kosmas — PPoPP 2022), over the simulated NVMM of the
//! [`pmem`] crate.
//!
//! ## The approach in one paragraph
//!
//! Each operation `Op` carries an *operation descriptor* ([`descriptor::Desc`])
//! recording everything needed to finish it: the **AffectSet** (the nodes Op
//! will update/delete, as `(info-field, observed-value)` pairs), the
//! **WriteSet** (field → old/new CAS triples), the **NewSet** (freshly
//! allocated nodes, born tagged), and a `result` field initialized to ⊥.
//! Execution proceeds in phases — *gather*, *helping*, *tagging*, *update*,
//! *cleanup* — driven by the idempotent [`help::help`] engine (the paper's
//! Algorithm 2). Tagging installs a pointer to the descriptor, with its
//! least-significant bit set, into each affected node's `info` field ("a
//! soft lock"); a failed tag backtracks and retries. Crucially, an `info`
//! field acts as a *version stamp*: its value moves monotonically through
//! fresh descriptor addresses and never reverts, so a successful tagging CAS
//! against the gathered value certifies that the node is unchanged since the
//! gather — which is what makes `help` idempotent and recovery sound.
//!
//! Detectability comes from two persistent per-thread words (provided by
//! [`pmem::ThreadCtx`]): the check-point `CP_q` and the recovery-data
//! reference `RD_q`, set by lines 1–5 and persisted by lines 19–21 of
//! Algorithm 1 so that after a crash the recovery function can fetch the
//! descriptor of the interrupted operation, call `help` on it, and either
//! return the recorded result or safely re-invoke the operation.
//!
//! These steps of Algorithm 1 — the prologue, the publication of each
//! attempt's descriptor through `RD_q`, the read-only outcome and
//! `Op.Recover` — are written once, in the crate-private `op` module, with
//! the persistence orders they rely on. By default they persist only what
//! `Op.Recover` reads: the prologue is two unflushed stores, finds and gets
//! record nothing, and the read-only outcome of an update is the immediate
//! `RD_q := FALSE` (DESIGN.md §7). The list can still run the paper's own
//! placement ([`list::Placement`]). Each structure supplies only its gather
//! phase and its descriptor sets (the flat-combining variants run their own
//! announce protocol instead).
//!
//! ## What is provided
//!
//! * [`list::RecoverableList`] — the detectably recoverable sorted linked
//!   list of Section 4 (Algorithms 3–4), including the read-only
//!   optimization for `find` and for already-present/absent keys.
//! * [`bst::RecoverableBst`] — the detectably recoverable leaf-oriented
//!   (external) binary search tree of Section 6 (Algorithms 5–6, Figure 7),
//!   derived from the Ellen-Fatourou-Ruppert-van Breugel LF-BST.
//! * [`exchanger::RecoverableExchanger`] — the detectably recoverable
//!   exchanger of Section 6 (capture / collide / cancel as Tracking
//!   operations).
//! * [`queue::RecoverableQueue`] — a detectably recoverable MS-style FIFO
//!   queue, an extra structure demonstrating the approach's generality.
//! * [`stack::RecoverableStack`] — a detectably recoverable Treiber-style
//!   LIFO stack (same engine, fourth shape).
//! * [`hashmap::RecoverableHashMap`] — a detectably recoverable,
//!   Clevel-style *resizable* hash table: bucket operations **and the
//!   resize protocol itself** (level publish, helped bucket migration,
//!   seal/finish) run through the Tracking machinery, so a resize is
//!   restartable from any crash point with no lost or duplicated keys.
//! * [`combining::CombiningQueue`] / [`combining::CombiningStack`] —
//!   detectable flat-combining variants of the queue and stack: one
//!   combiner applies a whole batch of announced operations and pays a
//!   single coalesced `pwb`/`psync` bill for the round (the PBComb-style
//!   alternative the paper's related work contrasts with).
//! * Per-operation recovery functions (`recover_insert`, …) implementing
//!   the paper's `Op.Recover` (Algorithm 1 lines 27–31).
//!
//! ## System contract
//!
//! The paper's system model persists `CP_q := 0` *before* an operation
//! starts (its footnote 1: "system support is necessary for designing
//! detectable algorithms"). The public operation methods perform that step
//! themselves via [`pmem::ThreadCtx::begin_op`]; the `*_started` variants
//! skip it for harnesses (like the crash tests) that play the system role
//! explicitly and must know exactly which persistent events belong to the
//! operation proper.

#![warn(missing_docs)]

pub mod bst;
pub mod combining;
pub mod descriptor;
pub mod exchanger;
pub mod hashmap;
pub mod help;
pub mod list;
mod op;
pub mod queue;
pub mod result;
pub mod sites;
pub mod stack;

pub use bst::RecoverableBst;
pub use combining::{CombiningQueue, CombiningStack};
pub use exchanger::RecoverableExchanger;
pub use hashmap::RecoverableHashMap;
pub use list::RecoverableList;
pub use queue::RecoverableQueue;
pub use stack::RecoverableStack;
