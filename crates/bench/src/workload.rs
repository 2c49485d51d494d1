//! The timed run engine: N real OS threads drive one registered subject
//! for a fixed window, and persistence-instruction counters are
//! snapshotted around it so every run reports its `pwb`/`psync` per
//! operation alongside throughput.
//!
//! Both timed workloads run here:
//!
//! * **the paper's benchmark loop** (the figure drivers, [`RunCfg::paper`]):
//!   keys uniform in `[1, key_range]`, the structure prefilled with
//!   `key_range / 2` random inserts (the paper's 250 over range 500), no
//!   sub-arenas;
//! * **the thread sweep** (the baseline's `thread_sweep`,
//!   [`RunCfg::contended`]): every thread on the one structure (the fully
//!   contended configuration the combining variants target), each worker
//!   allocating from a thread-private [`pmem::SubArena`] that touches the
//!   global cursor only on chunk refills. On a host with fewer cores than
//!   threads the threads time-slice, which still exercises every
//!   synchronization path; the count-based `pwb`/`psync`-per-op numbers
//!   are scheduling-independent and are the primary cross-variant signal
//!   (see EXPERIMENTS.md, "Scaling & throughput methodology").

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pmem::{install_thread_arena, uninstall_thread_arena, SubArena};
use pmem::{Backend, PmemPool, PoolCfg, Rng, ThreadCtx};

use crate::adapter::AlgoKind;
use crate::registry::{self, Dims, Engine, Entry};
use crate::subject::Subject;

/// An operation mix: each operation rolls a die of `of` faces; the first
/// `read` faces draw a read-only operation (find, get), the next `add` an
/// add (insert, enqueue, push, put) and the rest a remove. Shapes without
/// a read-only operation remove instead.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Mix {
    /// Faces of the die.
    pub of: u64,
    /// Faces that draw a read-only operation.
    pub read: u64,
    /// Faces that draw an add.
    pub add: u64,
}

/// What a roll of a [`Mix`] drew.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Class {
    /// A read-only operation.
    Read,
    /// An add.
    Add,
    /// A remove.
    Remove,
}

impl Mix {
    /// The paper's mixes: `pct` % finds, inserts and deletes splitting the
    /// rest evenly.
    pub const fn finds(pct: u64) -> Mix {
        Mix {
            of: 100,
            read: pct,
            add: (100 - pct) / 2,
        }
    }

    /// The paper's read-intensive benchmark (70 % finds).
    pub const READ_INTENSIVE: Mix = Mix::finds(70);
    /// The paper's update-intensive benchmark (30 % finds).
    pub const UPDATE_INTENSIVE: Mix = Mix::finds(30);
    /// Adds only (prefills).
    pub const ADD: Mix = Mix {
        of: 1,
        read: 0,
        add: 1,
    };
    /// The thread sweep's mix: half adds, a quarter each of reads and
    /// removes, so pops mostly succeed and both paths stay hot.
    pub const THROUGHPUT: Mix = Mix {
        of: 4,
        read: 1,
        add: 2,
    };

    /// The class the die roll `roll` draws.
    pub fn class(&self, roll: u64) -> Class {
        let face = roll % self.of;
        if face < self.read {
            Class::Read
        } else if face < self.read + self.add {
            Class::Add
        } else {
            Class::Remove
        }
    }

    /// Does this mix read at least as often as it updates?
    pub fn read_mostly(&self) -> bool {
        2 * self.read >= self.of
    }
}

/// Free lines a worker keeps in reserve: it stops before allocation could
/// abort the run.
const HEADROOM_LINES: usize = 8192;

/// One timed-run configuration.
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// The registered pair to run.
    pub subject: &'static Entry,
    /// Worker threads.
    pub threads: usize,
    /// Timed-window length.
    pub duration: Duration,
    /// Keys are uniform in `[1, key_range]`.
    pub key_range: u64,
    /// Operation mix.
    pub mix: Mix,
    /// Adds before the window (so removes mostly succeed).
    pub prefill: u64,
    /// Pool capacity in bytes (arena for nodes + descriptors).
    pub pool_bytes: usize,
    /// Persistence backend for the run.
    pub backend: Backend,
    /// RNG seed (deterministic workloads across variants).
    pub seed: u64,
    /// Disable `psync`/`pfence` (the paper's `[no psyncs]` variants).
    pub psync_enabled: bool,
    /// `pwb` site mask (bit *i* enables site *i*); `u64::MAX` = all.
    pub site_mask: u64,
    /// Sub-arena chunk size in lines (0 = no per-thread arena).
    pub chunk_lines: usize,
}

impl RunCfg {
    /// The paper's benchmark for the set algorithm `kind` at `threads`
    /// threads: no sub-arenas.
    pub fn paper(kind: AlgoKind, threads: usize) -> RunCfg {
        RunCfg {
            subject: registry::set(kind),
            threads,
            duration: Duration::from_millis(300),
            key_range: 500,
            mix: Mix::READ_INTENSIVE,
            prefill: 250,
            pool_bytes: 1 << 30,
            backend: Backend::Clflush,
            seed: 0xD1CE,
            psync_enabled: true,
            site_mask: u64::MAX,
            chunk_lines: 0,
        }
    }

    /// The thread sweep's defaults for `subject` at `threads` threads:
    /// Clflush backend, per-thread arenas on.
    pub fn contended(subject: &'static Entry, threads: usize) -> RunCfg {
        RunCfg {
            subject,
            threads,
            duration: Duration::from_millis(200),
            key_range: 4096,
            mix: Mix::THROUGHPUT,
            prefill: 256,
            pool_bytes: 1 << 30,
            backend: Backend::Clflush,
            seed: 0x7A11E1,
            psync_enabled: true,
            site_mask: u64::MAX,
            chunk_lines: pmem::DEFAULT_CHUNK_LINES,
        }
    }
}

/// What a run measured.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Subject name.
    pub subject: &'static str,
    /// Worker threads.
    pub threads: usize,
    /// Completed operations across all threads.
    pub ops: u64,
    /// Completed operations per thread.
    pub per_thread_ops: Vec<u64>,
    /// Actual timed-window length.
    pub elapsed: Duration,
    /// `pwb` executions per site during the window.
    pub pwb_per_site: [u64; pmem::MAX_SITES],
    /// `psync` + `pfence` executions during the window.
    pub psync: u64,
    /// Sub-arena chunk refills across all workers (global-cursor touches).
    pub arena_refills: u64,
}

impl RunResult {
    /// Million operations per second.
    pub fn mops(&self) -> f64 {
        self.ops_per_sec() / 1e6
    }

    /// Aggregate operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Mean per-thread operations per second.
    pub fn per_thread_ops_per_sec(&self) -> f64 {
        self.ops_per_sec() / self.threads.max(1) as f64
    }

    /// Total `pwb`s in the window.
    pub fn pwb_total(&self) -> u64 {
        self.pwb_per_site.iter().sum()
    }

    /// `pwb`s per completed operation.
    pub fn pwb_per_op(&self) -> f64 {
        self.pwb_total() as f64 / self.ops.max(1) as f64
    }

    /// `psync`s (incl. `pfence`s) per completed operation.
    pub fn psync_per_op(&self) -> f64 {
        self.psync as f64 / self.ops.max(1) as f64
    }
}

/// Runs one timed measurement per `cfg`.
pub fn run(cfg: &RunCfg) -> RunResult {
    cfg.subject.with(Timed(cfg))
}

struct Timed<'a>(&'a RunCfg);

impl Engine for Timed<'_> {
    type Out = RunResult;

    fn run<Sub: Subject>(
        self,
        make: impl Fn(&Arc<PmemPool>, &Dims) -> Sub + Copy + Send + Sync + 'static,
    ) -> RunResult {
        let cfg = self.0;
        let threads = cfg.threads.max(1);
        let pool = Arc::new(PmemPool::new(PoolCfg {
            capacity: cfg.pool_bytes,
            backend: cfg.backend,
            shadow: false,
            max_threads: threads.next_power_of_two().max(8),
            ..Default::default()
        }));
        let sub = make(
            &pool,
            &Dims {
                threads,
                keys: cfg.key_range,
                map: Default::default(),
            },
        );
        // Prefill from thread slot 0, with persistence on.
        {
            let ctx = ThreadCtx::new(pool.clone(), 0);
            let mut rng = Rng(cfg.seed ^ 0xABCDEF);
            for _ in 0..cfg.prefill {
                let op = Sub::draw(rng.next(), &Mix::ADD, cfg.key_range);
                sub.call(&ctx, &op);
            }
        }
        pool.set_psync_enabled(cfg.psync_enabled);
        pool.set_sites_mask(cfg.site_mask);
        pool.stats_reset();
        let before = pool.stats();

        let stop = AtomicBool::new(false);
        let barrier = Barrier::new(threads + 1);
        let (outs, elapsed) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (pool, sub, stop, barrier) = (&pool, &sub, &stop, &barrier);
                    s.spawn(move || {
                        if cfg.chunk_lines > 0 {
                            install_thread_arena(SubArena::new(pool.clone(), cfg.chunk_lines));
                        }
                        let ctx = ThreadCtx::new(pool.clone(), t);
                        let mut rng =
                            Rng(cfg.seed ^ (t as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15));
                        barrier.wait();
                        let mut ops = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            if pool.remaining_lines() < HEADROOM_LINES {
                                break;
                            }
                            let op = Sub::draw(rng.next(), &cfg.mix, cfg.key_range);
                            std::hint::black_box(sub.call(&ctx, &op));
                            ops += 1;
                        }
                        let refills = uninstall_thread_arena().map_or(0, |a| a.refills());
                        (ops, refills)
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            std::thread::sleep(cfg.duration);
            stop.store(true, Ordering::Relaxed);
            let outs: Vec<(u64, u64)> = handles
                .into_iter()
                .map(|h| h.join().expect("timed worker panicked"))
                .collect();
            (outs, start.elapsed())
        });
        let d = pool.stats().delta(&before);
        let per_thread_ops: Vec<u64> = outs.iter().map(|o| o.0).collect();
        RunResult {
            subject: cfg.subject.name,
            threads,
            ops: per_thread_ops.iter().sum(),
            per_thread_ops,
            elapsed,
            pwb_per_site: d.pwb_per_site,
            psync: d.psync + d.pfence,
            arena_refills: outs.iter().map(|o| o.1).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(kind: AlgoKind) -> RunCfg {
        RunCfg {
            duration: Duration::from_millis(50),
            pool_bytes: 256 << 20,
            key_range: 64,
            prefill: 32,
            backend: Backend::Noop,
            ..RunCfg::paper(kind, 2)
        }
    }

    #[test]
    fn every_algorithm_sustains_a_tiny_run() {
        for kind in AlgoKind::paper_lineup() {
            let r = run(&tiny(kind));
            assert!(r.ops > 0, "{kind:?} completed no ops");
            assert!(r.elapsed.as_millis() >= 45, "{kind:?} window too short");
        }
    }

    #[test]
    fn tracking_counts_persistence_instructions() {
        let r = run(&tiny(AlgoKind::Tracking));
        assert!(r.pwb_total() > 0, "tracking must flush");
        assert!(r.psync > 0, "tracking must fence");
        assert!(r.pwb_per_op() >= 1.0, "at least the RD flush per op");
    }

    #[test]
    fn site_mask_suppresses_pwbs() {
        let mut cfg = tiny(AlgoKind::Tracking);
        cfg.site_mask = 0;
        cfg.psync_enabled = false;
        let r = run(&cfg);
        assert_eq!(r.pwb_total(), 0, "persistence-free run must not flush");
        assert_eq!(r.psync, 0);
    }

    #[test]
    fn update_mix_produces_more_updates_than_read_mix() {
        let mut read = tiny(AlgoKind::Tracking);
        read.mix = Mix::READ_INTENSIVE;
        let mut upd = tiny(AlgoKind::Tracking);
        upd.mix = Mix::UPDATE_INTENSIVE;
        let r1 = run(&read);
        let r2 = run(&upd);
        // update ops persist more: pwb/op must be clearly higher
        assert!(
            r2.pwb_per_op() > r1.pwb_per_op(),
            "update-intensive should flush more per op ({} vs {})",
            r2.pwb_per_op(),
            r1.pwb_per_op()
        );
    }
}
