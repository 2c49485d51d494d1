//! # bench — the harness regenerating every figure of the paper
//!
//! The paper's evaluation (Section 5) consists of Figures 3–6 over a sorted
//! linked list with keys uniform in `[1, 500]`, prefilled with 250 random
//! inserts, under a read-intensive (70 % find) and an update-intensive
//! (30 % find) mix. This crate provides:
//!
//! * [`registry`] — every evaluated (structure, algorithm) pair, listed
//!   once: the Tracking list, BST, queue, stack, exchanger and hash table,
//!   the flat-combining queue/stack, and the list competitors (Capsules,
//!   Capsules-Opt, Romulus, RedoOpt, OneFile). It builds each pair's
//!   [`subject::Subject`] for every engine below;
//! * [`subject`] — the one interface the engines drive: the detectable
//!   operation contract, the sequential specification, and the op
//!   generators, one impl per structure shape; [`adapter`] is the uniform
//!   [`adapter::SetAlgo`] interface the set implementations share;
//! * [`workload`] — the timed multi-thread engine with
//!   persistence-instruction accounting, behind both the figure runs and
//!   the baseline's real-thread sweep ([`parallel`]: every thread on one
//!   contended structure, per-thread [`pmem::SubArena`] allocation, the
//!   `thread_sweep` series);
//! * [`figures`] — drivers that reproduce each figure's measurement
//!   protocol, including the paper's pwb-categorization methodology
//!   (persistence-free baseline → single-site impact → L/M/H classes →
//!   category add/remove sweeps);
//! * [`sweep`] — the exhaustive crash-sweep verification engine: crash a
//!   scripted workload at every instrumented persistence event, then check
//!   detectability and durable linearizability of the recovered state
//!   against the [`linearize`] specifications;
//! * [`explore`] — the deterministic concurrent-schedule explorer:
//!   serialize N virtual threads through the pool's instrumented events
//!   under round-robin / seeded-random / PCT strategies, optionally crash
//!   at any (schedule, event) point, and check the concurrent history
//!   linearizes after recovery;
//! * `bin/figures` — the CLI that writes one CSV per figure into
//!   `results/`;
//! * `bin/crashsweep` — the CLI driving [`sweep`] over the registry's
//!   lineup, writing one CSV per pair into `results/crashsweep/`;
//! * `bin/explore` — the CLI driving [`explore`] over the same lineup,
//!   writing one CSV per pair into `results/explore/`;
//! * [`baseline`] / `bin/baseline` — the tracked perf baseline: each
//!   registered subject's own micro-workload, the allocator phases, the
//!   thread sweep and an instrumentation-overhead benchmark, emitted as
//!   `BENCH_*.json` at the repo root so successive PRs leave a comparable
//!   trajectory;
//! * [`cli`] — the flag reader the command-line tools share.
//!
//! Numbers are *shapes*, not absolutes: the substrate is simulated NVMM
//! over DRAM (`clflush`/`sfence`), and a thread count above the host's
//! cores interleaves rather than scales. See EXPERIMENTS.md for the
//! paper-vs-measured discussion.

#![warn(missing_docs)]

pub mod adapter;
pub mod baseline;
pub mod cli;
pub mod csv;
pub mod explore;
pub mod figures;
pub mod parallel;
pub mod registry;
pub mod subject;
pub mod sweep;
pub mod workload;

pub use adapter::{AlgoKind, SetAlgo, StructureKind};
pub use explore::{run_explore, CrashMode, ExploreCfg, ExploreReport, StrategyKind};
pub use parallel::run_thread_sweep;
pub use registry::{build, Entry};
pub use subject::Subject;
pub use sweep::{run_palloc_sweep, run_sweep, SweepCfg, SweepReport};
pub use workload::{run, Mix, RunCfg, RunResult};
