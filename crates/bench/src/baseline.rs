//! Tracked performance baseline: fixed micro-workloads whose timings are
//! committed as `BENCH_*.json` at the repo root, so every PR leaves a
//! comparable datapoint and regressions in the simulated substrate are
//! visible as a trajectory rather than anecdotes.
//!
//! The report holds four parts:
//!
//! * **registered rows** — one fixed op-count, single-threaded run of each
//!   [`BASELINE`] pair of the [`crate::registry`], drawing its subject's own
//!   workload ([`crate::subject::Subject::BENCH`]) in Perf mode
//!   ([`pmem::Backend::Clflush`]), and reporting ns/op, ops/sec, and the
//!   persistence-instruction and instrumented-event densities;
//! * **allocator phases** — the recoverable free-list allocator's pop,
//!   retire, and drain paths (`pmem::palloc`), timed over a full recycling
//!   cycle on a `reclaim` pool;
//! * **the thread sweep** — the [`THROUGHPUT`] pairs on real threads
//!   ([`crate::parallel`]);
//! * **instrumentation overhead** — a pure pool-primitive loop
//!   (load/store/cas/pwb/psync over a handful of lines) with every observer
//!   off versus trace+lint on. The *off* number is the cost the substrate
//!   adds to every hot path even when nobody is watching; keeping it near
//!   zero is what lets the paper's relative persistence-cost signal
//!   (Figures 3–4) survive simulation. The on/off ratio is the median of
//!   `OVERHEAD_TRIALS` interleaved (off, on) trial pairs.
//!
//! The JSON schema is documented in EXPERIMENTS.md ("Performance
//! methodology") and sanity-checked by [`validate_json`], which the CI
//! smoke job runs against the freshly produced file.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pmem::{Backend, PmemPool, PoolCfg, Rng, SiteId, ThreadCtx};

use crate::parallel::{run_thread_sweep, time_point, SweepPoint};
use crate::registry::{self, Dims, Engine, Entry, BASELINE, THROUGHPUT};
use crate::subject::Subject;
use crate::workload::Mix;

/// Schema identifier embedded in every report.
///
/// The tag is unchanged since PR 4; later additions are strictly additive
/// (`thread_sweep` since PR 7), so every committed `BENCH_*.json` remains
/// readable by the current tooling. EXPERIMENTS.md documents the schema
/// field by field with the PR each field appeared in.
pub const SCHEMA: &str = "bench-baseline/v1";

/// Timed window per thread-sweep point, the same in the smoke and full
/// tiers: the smoke sweep's trend is compared with a full capture's, and a
/// shorter window lets the hash map's early resizes dominate the point.
pub const SWEEP_WINDOW: std::time::Duration = std::time::Duration::from_millis(200);

/// Pool size of each thread-sweep point.
const SWEEP_POOL_BYTES: usize = 512 << 20;

/// Configuration of one baseline capture.
#[derive(Clone, Debug)]
pub struct BaselineCfg {
    /// Operations per timed workload (the smoke tier shrinks this).
    pub ops: u64,
    /// Iterations of the primitive loop per timed overhead trial.
    pub overhead_iters: u64,
    /// Thread counts of the parallel thread sweep (`bench::parallel`
    /// over the [`THROUGHPUT`] pairs). Every point is timed over
    /// [`SWEEP_WINDOW`] in both tiers.
    pub sweep_threads: Vec<usize>,
    /// Label recorded in the report (e.g. `pr4`).
    pub label: String,
    /// Previously captured `off_ns_per_op`, for trend reporting (read from
    /// an earlier `BENCH_*.json` with [`extract_number`]).
    pub prev_off_ns_per_op: Option<f64>,
}

impl BaselineCfg {
    /// Full-size capture.
    pub fn full(label: &str) -> BaselineCfg {
        BaselineCfg {
            ops: 40_000,
            overhead_iters: 4_000_000,
            sweep_threads: vec![1, 2, 4],
            label: label.to_string(),
            prev_off_ns_per_op: None,
        }
    }

    /// CI smoke tier: same benches, ~20× fewer iterations.
    pub fn smoke(label: &str) -> BaselineCfg {
        BaselineCfg {
            ops: 2_000,
            overhead_iters: 200_000,
            sweep_threads: vec![1, 2],
            label: label.to_string(),
            prev_off_ns_per_op: None,
        }
    }
}

/// One timed micro-workload.
#[derive(Clone, Debug)]
pub struct BenchRow {
    /// Bench name (`list/Tracking`, `queue/Tracking`, …).
    pub name: String,
    /// Structure shape.
    pub structure: &'static str,
    /// Implementation.
    pub algo: String,
    /// Operations timed.
    pub ops: u64,
    /// Nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations per second.
    pub ops_per_sec: f64,
    /// Instrumented pool events per operation (from a traced Model-mode
    /// run of the same script — the crash sweep's cost currency).
    pub events_per_op: f64,
    /// Executed `pwb`s per operation.
    pub pwb_per_op: f64,
    /// Executed `psync`s+`pfence`s per operation.
    pub psync_per_op: f64,
}

/// The instrumentation-overhead benchmark: the primitive loop with all
/// observers off versus trace+lint on.
#[derive(Clone, Debug)]
pub struct OverheadRow {
    /// Iterations of the primitive loop per timed trial.
    pub iters: u64,
    /// Median ns per primitive-loop iteration, observers off (the
    /// zero-cost-when-off claim under test).
    pub off_ns_per_op: f64,
    /// Median ns per iteration with trace+lint enabled.
    pub on_ns_per_op: f64,
    /// Median over the trial pairs of each pair's `on / off` slowdown.
    pub ratio: f64,
}

/// A full baseline capture.
#[derive(Clone, Debug)]
pub struct BaselineReport {
    /// The configuration that produced it.
    pub cfg: BaselineCfg,
    /// Unix timestamp of the capture.
    pub created_unix: u64,
    /// Timed micro-workloads.
    pub rows: Vec<BenchRow>,
    /// The parallel thread sweep over the [`THROUGHPUT`] pairs, every
    /// thread on one contended structure.
    pub thread_sweep: Vec<SweepPoint>,
    /// The observers-off/on comparison.
    pub overhead: OverheadRow,
}

fn perf_pool(bytes: usize) -> Arc<PmemPool> {
    Arc::new(PmemPool::new(PoolCfg {
        max_threads: 8,
        ..PoolCfg::perf(bytes)
    }))
}

fn model_pool(bytes: usize, trace: bool) -> Arc<PmemPool> {
    Arc::new(PmemPool::new(PoolCfg {
        trace,
        max_threads: 8,
        trace_capacity: 64, // the total counter, not the window, is used
        ..PoolCfg::model(bytes)
    }))
}

/// The allocator phases the baseline times (`palloc/<phase>` rows), in
/// report order.
pub const PALLOC_PHASES: [&str; 3] = ["alloc", "retire", "drain"];

/// Times one registered pair's baseline workload and measures its event
/// density.
fn bench_row(entry: &'static Entry, ops: u64) -> BenchRow {
    entry.with(Row { entry, ops })
}

struct Row {
    entry: &'static Entry,
    ops: u64,
}

impl Engine for Row {
    type Out = BenchRow;

    fn run<Sub: Subject>(
        self,
        make: impl Fn(&Arc<PmemPool>, &Dims) -> Sub + Copy + Send + Sync + 'static,
    ) -> BenchRow {
        let b = Sub::BENCH;
        let dims = Dims {
            threads: 2,
            keys: b.keys + 4,
            map: Default::default(),
        };
        // Builds the subject in `pool` and runs `n` of its calls; returns
        // the time since the counters last restarted (see `Bench`).
        let drive = |pool: &Arc<PmemPool>, n: u64| -> Duration {
            let ctx = ThreadCtx::new(pool.clone(), 0);
            let restart = || {
                pool.stats_reset();
                pool.trace_clear();
                Instant::now()
            };
            let mut start = restart();
            let sub = make(pool, &dims);
            if b.prefill > 0 {
                let mut rng = Rng(b.seed ^ 0xF00D);
                for _ in 0..b.prefill {
                    sub.call(&ctx, &Sub::draw(rng.next(), &Mix::ADD, b.keys));
                }
                start = restart();
            }
            let mut rng = Rng(b.seed);
            for _ in 0..n {
                let op = Sub::draw(rng.next(), &b.mix, b.keys);
                std::hint::black_box(sub.call(&ctx, &op));
            }
            start.elapsed()
        };

        // Timed run: Perf mode, real flushes, observers off.
        let pool = perf_pool(256 << 20);
        let elapsed = drive(&pool, self.ops);
        let stats = pool.stats();

        // Event density: a short traced Model-mode replay of the same script.
        let ev_ops = self.ops.min(512);
        let tp = model_pool(64 << 20, true);
        drive(&tp, ev_ops);
        let events = tp.trace_snapshot().total();

        let ops = self.ops as f64;
        let ns = elapsed.as_nanos() as f64 / ops;
        BenchRow {
            name: self.entry.name.to_string(),
            structure: self.entry.structure.name(),
            algo: self.entry.algo.name().to_string(),
            ops: self.ops,
            ns_per_op: ns,
            ops_per_sec: 1e9 / ns,
            events_per_op: events as f64 / ev_ops as f64,
            pwb_per_op: stats.pwb_total() as f64 / ops,
            psync_per_op: (stats.psync + stats.pfence) as f64 / ops,
        }
    }
}

/// Times the recoverable free-list allocator (`pmem::palloc`) phase by
/// phase over `ops` class-1 blocks: free-list pops (`palloc/alloc`), limbo
/// pushes (`palloc/retire`), and the quiescent limbo→free-list drain
/// (`palloc/drain`, reported per drained block). The pool is pre-cycled so
/// the timed alloc phase pops recycled blocks rather than bumping the
/// arena — the number under test is the recycling path the bump arena
/// doesn't have.
fn bench_palloc(ops: u64) -> Vec<BenchRow> {
    const TID: usize = 0;
    fn cycle(
        pool: &Arc<PmemPool>,
        ctx: &ThreadCtx,
        n: u64,
        mut mark: impl FnMut(&str),
    ) -> Vec<pmem::PAddr> {
        // Prime: push n blocks through a full retire+drain cycle so the
        // free list holds exactly n class-1 blocks.
        let mut blocks: Vec<pmem::PAddr> = (0..n).map(|_| ctx.palloc(1)).collect();
        for b in &blocks {
            ctx.retire(*b, 1);
        }
        pool.palloc_drain(TID);
        mark("primed");
        blocks.clear();
        for _ in 0..n {
            blocks.push(ctx.palloc(1));
        }
        mark("alloc");
        for b in &blocks {
            ctx.retire(*b, 1);
        }
        mark("retire");
        pool.palloc_drain(TID);
        mark("drain");
        blocks
    }

    // Timed run: Perf mode, real flushes, observers off.
    let pool = Arc::new(PmemPool::new(PoolCfg {
        max_threads: 8,
        reclaim: true,
        ..PoolCfg::perf(256 << 20)
    }));
    let ctx = ThreadCtx::new(pool.clone(), TID);
    let mut marks: Vec<(std::time::Duration, u64, u64)> = Vec::new();
    {
        let mut last = Instant::now();
        let pool2 = pool.clone();
        cycle(&pool, &ctx, ops, |_| {
            let stats = pool2.stats();
            marks.push((
                last.elapsed(),
                stats.pwb_total(),
                stats.psync + stats.pfence,
            ));
            pool2.stats_reset();
            last = Instant::now();
        });
    }

    // Event density: the same cycle traced on a short Model-mode run.
    let ev_ops = ops.min(512);
    let tp = Arc::new(PmemPool::new(PoolCfg {
        trace: true,
        max_threads: 8,
        reclaim: true,
        trace_capacity: 64,
        ..PoolCfg::model(64 << 20)
    }));
    let tctx = ThreadCtx::new(tp.clone(), TID);
    let mut events: Vec<u64> = Vec::new();
    {
        let tp2 = tp.clone();
        cycle(&tp, &tctx, ev_ops, |_| {
            events.push(tp2.trace_snapshot().total());
            tp2.trace_clear();
        });
    }

    // marks[0]/events[0] are the untimed priming pass; phases follow.
    PALLOC_PHASES
        .iter()
        .enumerate()
        .map(|(i, phase)| {
            let (elapsed, pwb, psync) = marks[i + 1];
            let ns = elapsed.as_nanos() as f64 / ops as f64;
            BenchRow {
                name: format!("palloc/{phase}"),
                structure: "palloc",
                algo: "palloc".to_string(),
                ops,
                ns_per_op: ns,
                ops_per_sec: 1e9 / ns,
                events_per_op: events[i + 1] as f64 / ev_ops as f64,
                pwb_per_op: pwb as f64 / ops as f64,
                psync_per_op: psync as f64 / ops as f64,
            }
        })
        .collect()
}

/// The primitive loop of the overhead benchmark: 4 loads, 2 stores, 1 CAS,
/// 1 pwb, 1 psync per iteration over four resident lines — the instruction
/// mix of a short traversal plus one persisted update.
fn primitive_loop(pool: &PmemPool, iters: u64) {
    let a = pool.alloc_lines(4);
    let b = a.add(8);
    let c = a.add(16);
    let d = a.add(24);
    for i in 0..iters {
        std::hint::black_box(pool.load(a));
        std::hint::black_box(pool.load(b));
        std::hint::black_box(pool.load(c));
        std::hint::black_box(pool.load(d));
        pool.store(a, i);
        pool.store_at(b, i, SiteId(1));
        let _ = std::hint::black_box(pool.cas(c, i, i + 1));
        pool.pwb(a, SiteId(2));
        pool.psync();
    }
}

/// Timed (off, on) trial pairs behind each overhead figure. One pair is a
/// single wall-clock sample of each side, and on a shared host a preempted
/// trial moves its ratio by a fifth, so each figure is a median over pairs.
const OVERHEAD_TRIALS: usize = 7;

/// The median of `xs` (the upper one of an even-length slice).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Measures the substrate's own per-event cost with observers off vs on.
///
/// Backend is [`Backend::Noop`] and shadow is off, so the loop times
/// *instrumentation* (flag checks, counters, crash-tick plumbing) rather
/// than flush hardware. The two pools run interleaved, one off trial then
/// one on trial, so a slow stretch of the host lands on both sides of a
/// pair; each figure is the median over `OVERHEAD_TRIALS` pairs.
pub fn bench_overhead(iters: u64) -> OverheadRow {
    let off_pool = PmemPool::new(PoolCfg {
        backend: Backend::Noop,
        ..PoolCfg::perf(1 << 20)
    });
    let on_pool = PmemPool::new(PoolCfg {
        backend: Backend::Noop,
        trace: true,
        lint: true,
        trace_capacity: 64,
        ..PoolCfg::perf(1 << 20)
    });
    let timed = |pool: &PmemPool| {
        let t = Instant::now();
        primitive_loop(pool, iters);
        t.elapsed().as_nanos() as f64 / iters as f64
    };
    primitive_loop(&off_pool, iters / 10);
    primitive_loop(&on_pool, iters / 10);
    let (mut off, mut on, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_TRIALS {
        let off_ns = timed(&off_pool);
        let on_ns = timed(&on_pool);
        off.push(off_ns);
        on.push(on_ns);
        ratio.push(on_ns / off_ns.max(1e-9));
    }
    OverheadRow {
        iters,
        off_ns_per_op: median(off),
        on_ns_per_op: median(on),
        ratio: median(ratio),
    }
}

/// Times one more window of a thread-sweep point as [`run_baseline`]
/// timed it, returning its ops/sec (the `--prev` trend's retime).
pub fn retime_sweep_point(p: &SweepPoint) -> f64 {
    let subject = registry::entries().find(|e| e.name == p.subject);
    let subject = subject.expect("a registered subject");
    time_point(subject, p.threads, SWEEP_WINDOW, SWEEP_POOL_BYTES).ops_per_sec
}

/// Available parallelism of the host, sampled now (not cached): the value
/// recorded in emitted reports must describe the machine *at emit time*,
/// e.g. after the runner shrank a cpuset mid-session.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Does a sweep over `threads_list` oversubscribe this host? When true, the
/// multi-thread sweep points measure scheduler time-slicing, not contention,
/// and must not be compared against points captured on a wider machine.
pub fn degraded_parallelism(threads_list: &[usize]) -> bool {
    threads_list.iter().copied().max().unwrap_or(0) > host_cpus()
}

/// Runs every baseline bench per `cfg`.
pub fn run_baseline(cfg: &BaselineCfg) -> BaselineReport {
    let mut rows: Vec<BenchRow> = registry::with_role(BASELINE)
        .map(|entry| bench_row(entry, cfg.ops))
        .collect();
    rows.extend(bench_palloc(cfg.ops));
    if degraded_parallelism(&cfg.sweep_threads) {
        eprintln!(
            "WARNING: thread sweep requests up to {} threads but the host exposes \
             only {} CPU(s); multi-thread points measure time-slicing, not \
             contention. The report will carry \"degraded_parallelism\": true.",
            cfg.sweep_threads.iter().max().unwrap_or(&0),
            host_cpus(),
        );
    }
    let thread_sweep = run_thread_sweep(
        &registry::with_role(THROUGHPUT).collect::<Vec<_>>(),
        &cfg.sweep_threads,
        SWEEP_WINDOW,
        SWEEP_POOL_BYTES,
    );
    let overhead = bench_overhead(cfg.overhead_iters);
    BaselineReport {
        cfg: cfg.clone(),
        created_unix: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        rows,
        thread_sweep,
        overhead,
    }
}

/// A JSON number with three decimals (`null` when not finite).
pub(crate) fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

impl BaselineReport {
    /// Renders the report as the committed `BENCH_*.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str(&format!("  \"label\": \"{}\",\n", self.cfg.label));
        out.push_str(&format!("  \"created_unix\": {},\n", self.created_unix));
        out.push_str(&format!("  \"ops_per_bench\": {},\n", self.cfg.ops));
        out.push_str(&format!("  \"host_cpus\": {},\n", host_cpus()));
        out.push_str(&format!(
            "  \"degraded_parallelism\": {},\n",
            degraded_parallelism(&self.cfg.sweep_threads)
        ));
        out.push_str("  \"benches\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"structure\": \"{}\", \"algo\": \"{}\", \
                 \"ops\": {}, \"ns_per_op\": {}, \"ops_per_sec\": {}, \
                 \"events_per_op\": {}, \"pwb_per_op\": {}, \"psync_per_op\": {}}}{}\n",
                r.name,
                r.structure,
                r.algo,
                r.ops,
                json_f(r.ns_per_op),
                json_f(r.ops_per_sec),
                json_f(r.events_per_op),
                json_f(r.pwb_per_op),
                json_f(r.psync_per_op),
                if i + 1 == self.rows.len() { "" } else { "," },
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"thread_sweep\": [\n");
        for (i, p) in self.thread_sweep.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&p.to_json());
            out.push_str(if i + 1 == self.thread_sweep.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"overhead\": {\n");
        out.push_str(&format!(
            "    \"iters\": {},\n    \"off_ns_per_op\": {},\n    \"on_ns_per_op\": {},\n    \"ratio\": {}",
            self.overhead.iters,
            json_f(self.overhead.off_ns_per_op),
            json_f(self.overhead.on_ns_per_op),
            json_f(self.overhead.ratio),
        ));
        if let Some(prev) = self.cfg.prev_off_ns_per_op {
            out.push_str(&format!(
                ",\n    \"prev_off_ns_per_op\": {},\n    \"off_vs_prev\": {}",
                json_f(prev),
                json_f(self.overhead.off_ns_per_op / prev.max(1e-9)),
            ));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Console table.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "{:<24} {:>10} {:>12} {:>10} {:>8} {:>8}\n",
            "bench", "ns/op", "ops/sec", "events/op", "pwb/op", "psync/op"
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<24} {:>10.1} {:>12.0} {:>10.1} {:>8.2} {:>8.2}\n",
                r.name, r.ns_per_op, r.ops_per_sec, r.events_per_op, r.pwb_per_op, r.psync_per_op
            ));
        }
        if !self.thread_sweep.is_empty() {
            out.push_str(&format!(
                "{:<18} {:>3} {:>12} {:>12} {:>8} {:>9}\n",
                "thread sweep", "thr", "ops/sec", "ops/sec/thr", "pwb/op", "psync/op"
            ));
            for p in &self.thread_sweep {
                out.push_str(&format!(
                    "{:<18} {:>3} {:>12.0} {:>12.0} {:>8.2} {:>9.2}\n",
                    p.subject,
                    p.threads,
                    p.ops_per_sec,
                    p.per_thread_ops_per_sec,
                    p.pwb_per_op,
                    p.psync_per_op
                ));
            }
        }
        out.push_str(&format!(
            "instrumentation overhead: off {:.2} ns/iter, on {:.2} ns/iter (x{:.1}, median of {} pairs)",
            self.overhead.off_ns_per_op,
            self.overhead.on_ns_per_op,
            self.overhead.ratio,
            OVERHEAD_TRIALS
        ));
        if let Some(prev) = self.cfg.prev_off_ns_per_op {
            out.push_str(&format!(
                "; off vs prev {:.2} ns = x{:.2}",
                prev,
                self.overhead.off_ns_per_op / prev.max(1e-9)
            ));
        }
        out.push('\n');
        out
    }
}

/// Extracts the first `"key": <number>` occurrence from a JSON document
/// (enough structure awareness to read our own schema back without a JSON
/// dependency).
pub fn extract_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Per-row `(name, ops, pwb_per_op, psync_per_op)` of a baseline
/// document's `benches` section — the counters the `--prev` density
/// comparison runs on (hand-rolled like [`extract_number`]; thread-sweep
/// points use `subject` rather than `name` and are skipped naturally). A
/// row without an `ops` field reads as 0 ops.
pub fn bench_rows_from_json(json: &str) -> Vec<(String, u64, f64, f64)> {
    let mut out = Vec::new();
    for chunk in json.split("{\"name\": \"").skip(1) {
        let Some(name_end) = chunk.find('"') else {
            continue;
        };
        let body = &chunk[..chunk.find('}').unwrap_or(chunk.len())];
        if let (Some(pwb), Some(psync)) = (
            extract_number(body, "pwb_per_op"),
            extract_number(body, "psync_per_op"),
        ) {
            let ops = extract_number(body, "ops").unwrap_or(0.0) as u64;
            out.push((chunk[..name_end].to_string(), ops, pwb, psync));
        }
    }
    out
}

/// Compares per-row persistence-instruction densities against a previous
/// report's rows: any same-named row captured at the same op count whose
/// executed `pwb`/op or `psync`/op grew by more than `tol` (relative)
/// yields a warning line. Unlike wall-clock numbers these counters are
/// deterministic functions of the scripted workload and its length, so a
/// movement is a placement change, not noise. A row captured at another op
/// count is skipped and counted in a closing note: the hash map spreads its
/// resizes over the run, so its density depends on the length. New rows
/// and removed rows are normal across schema growth, so this warns rather
/// than fails.
pub fn compare_bench_rows(
    prev: &[(String, u64, f64, f64)],
    cur: &[BenchRow],
    tol: f64,
) -> (Vec<String>, usize) {
    let mut lines = Vec::new();
    let mut warnings = 0;
    let mut skipped = 0;
    for r in cur {
        let Some((_, ops, ppwb, ppsync)) = prev.iter().find(|(n, ..)| *n == r.name) else {
            continue;
        };
        if *ops != r.ops {
            skipped += 1;
            continue;
        }
        for (what, prev_v, cur_v) in [
            ("pwb/op", *ppwb, r.pwb_per_op),
            ("psync/op", *ppsync, r.psync_per_op),
        ] {
            if prev_v <= 0.0 {
                continue;
            }
            let rel = cur_v / prev_v - 1.0;
            if rel > tol {
                lines.push(format!(
                    "WARNING: {} {what} regressed {prev_v:.2} -> {cur_v:.2} ({:+.1}%)",
                    r.name,
                    rel * 100.0
                ));
                warnings += 1;
            }
        }
    }
    if skipped > 0 {
        lines.push(format!(
            "({skipped} row(s) not compared: the previous report ran them at another op count)"
        ));
    }
    (lines, warnings)
}

/// Checks every object of `json` that opens with `opener` (read up to its
/// first `}`): each must carry every one of `keys` as a finite non-negative
/// number (`json_f` writes `null` for a non-finite value). Returns how many
/// it checked.
fn check_rows(json: &str, opener: &str, keys: &[&str]) -> Result<usize, String> {
    let mut rows = 0;
    for chunk in json.split(opener).skip(1) {
        let row = &chunk[..chunk.find('}').unwrap_or(chunk.len())];
        for key in keys {
            if !extract_number(row, key).is_some_and(|v| v.is_finite() && v >= 0.0) {
                return Err(format!("no finite non-negative {key} in {opener}{row}}}"));
            }
        }
        rows += 1;
    }
    Ok(rows)
}

/// Validates that `json` looks like a `bench-baseline/v1` document: schema
/// tag, at least two bench rows, and an overhead block, with every numeric
/// field of every bench row, thread-sweep point and the overhead block
/// present, finite and non-negative. Returns a description of the first
/// problem found.
///
/// The `thread_sweep` section (added in PR 7) is validated when present —
/// it must then be non-empty — but its absence is accepted, so pre-PR-7
/// committed reports still pass (the schema grows additively; fresh
/// reports always include it).
pub fn validate_json(json: &str) -> Result<(), String> {
    if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
        return Err(format!("missing schema tag {SCHEMA:?}"));
    }
    for key in ["\"benches\": [", "\"overhead\": {"] {
        if !json.contains(key) {
            return Err(format!("missing section {key}"));
        }
    }
    let benches = check_rows(
        json,
        "{\"name\": \"",
        &[
            "ops",
            "ns_per_op",
            "ops_per_sec",
            "events_per_op",
            "pwb_per_op",
            "psync_per_op",
        ],
    )?;
    if benches < 2 {
        return Err("fewer than two bench rows".into());
    }
    if json.contains("\"thread_sweep\": [") {
        let points = check_rows(
            json,
            "{\"subject\": \"",
            &[
                "threads",
                "ops",
                "ops_per_sec",
                "per_thread_ops_per_sec",
                "pwb_per_op",
                "psync_per_op",
            ],
        )?;
        if points == 0 {
            return Err("thread_sweep section present but empty".into());
        }
    }
    check_rows(
        json,
        "\"overhead\": {",
        &["iters", "off_ns_per_op", "on_ns_per_op", "ratio"],
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_report_roundtrips_schema() {
        let mut cfg = BaselineCfg::smoke("unit");
        cfg.ops = 64;
        cfg.overhead_iters = 2_000;
        cfg.sweep_threads = vec![1, 2];
        cfg.prev_off_ns_per_op = Some(12.5);
        let report = run_baseline(&cfg);
        assert_eq!(
            report.rows.len(),
            13,
            "6 list competitors + 4 structures + 3 allocator phases"
        );
        for r in &report.rows {
            assert!(r.ns_per_op > 0.0, "{} measured nothing", r.name);
            assert!(r.events_per_op > 0.0, "{} counted no events", r.name);
        }
        assert_eq!(
            report.thread_sweep.len(),
            10,
            "5 parallel subjects x 2 thread counts"
        );
        for p in &report.thread_sweep {
            assert!(p.ops > 0, "{} @{}T completed no ops", p.subject, p.threads);
        }
        assert!(report.overhead.off_ns_per_op > 0.0);
        let json = report.to_json();
        validate_json(&json).expect("self-produced JSON must validate");
        assert_eq!(extract_number(&json, "prev_off_ns_per_op"), Some(12.5));
        let parsed = crate::parallel::sweep_points_from_json(&json);
        assert_eq!(parsed.len(), 10, "sweep points must parse back");
        assert!(report.to_text().contains("list/Tracking"));
        assert!(report.to_text().contains("queue/Combining"));
    }

    #[test]
    fn bench_row_density_comparison_flags_regressions() {
        let prev_doc = "{\"benches\": [\n    \
            {\"name\": \"list/Tracking\", \"ops\": 1, \"pwb_per_op\": 6.0, \"psync_per_op\": 3.4},\n    \
            {\"name\": \"list/Capsules\", \"ops\": 1, \"pwb_per_op\": 5.0, \"psync_per_op\": 4.0},\n    \
            {\"name\": \"hashmap/Tracking\", \"ops\": 20, \"pwb_per_op\": 2.4, \"psync_per_op\": 1.4}\n  ]}";
        let prev = bench_rows_from_json(prev_doc);
        assert_eq!(prev.len(), 3);
        assert_eq!(prev[0], ("list/Tracking".to_string(), 1, 6.0, 3.4));
        let row = |name: &str, pwb: f64, psync: f64| BenchRow {
            name: name.to_string(),
            structure: "list",
            algo: "x".to_string(),
            ops: 1,
            ns_per_op: 1.0,
            ops_per_sec: 1.0,
            events_per_op: 1.0,
            pwb_per_op: pwb,
            psync_per_op: psync,
        };
        // Unchanged + unknown rows: silent. A >5% pwb/op growth: flagged.
        let (lines, warnings) = compare_bench_rows(
            &prev,
            &[
                row("list/Tracking", 6.0, 3.4),
                row("queue/Tracking", 99.0, 99.0),
            ],
            0.05,
        );
        assert_eq!(warnings, 0, "{lines:?}");
        let (lines, warnings) = compare_bench_rows(&prev, &[row("list/Capsules", 9.0, 4.0)], 0.05);
        assert_eq!(warnings, 1);
        assert!(lines[0].contains("list/Capsules"), "{lines:?}");
        assert!(lines[0].contains("pwb/op"), "{lines:?}");
        // A row captured at another op count is not compared, only noted:
        // a shorter run packs the hash map's resizes into fewer ops.
        let (lines, warnings) =
            compare_bench_rows(&prev, &[row("hashmap/Tracking", 5.3, 2.6)], 0.05);
        assert_eq!(warnings, 0, "{lines:?}");
        assert_eq!(lines.len(), 1, "{lines:?}");
        assert!(lines[0].contains("1 row(s) not compared"), "{lines:?}");
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_json("{}").is_err());
        assert!(validate_json("{\"schema\": \"bench-baseline/v1\"}").is_err());
    }

    /// Every bench row and every thread-sweep point is checked, not only
    /// the first one carrying a field.
    #[test]
    fn validate_checks_every_row() {
        let row = "{\"name\": \"list/a\", \"ops\": 10, \"ns_per_op\": 2.0, \"ops_per_sec\": 5.0, \
                   \"events_per_op\": 3.0, \"pwb_per_op\": 1.0, \"psync_per_op\": 1.0}";
        let point = "{\"subject\": \"stack/Tracking\", \"threads\": 1, \"ops\": 10, \
                     \"ops_per_sec\": 5.0, \"per_thread_ops_per_sec\": 5.0, \"pwb_per_op\": 1.0, \
                     \"psync_per_op\": 1.0}";
        let doc = |second_row: &str, second_point: &str| {
            format!(
                "{{\"schema\": \"{SCHEMA}\", \"benches\": [{row}, {second_row}], \
                 \"thread_sweep\": [{point}, {second_point}], \"overhead\": {{\"iters\": 1, \
                 \"off_ns_per_op\": 1.0, \"on_ns_per_op\": 2.0, \"ratio\": 2.0}}}}"
            )
        };
        // `json_f` writes `null` for a non-finite value.
        let null = |obj: &str| obj.replace("5.0", "null");
        assert_eq!(validate_json(&doc(row, point)), Ok(()));
        let err = validate_json(&doc(&null(row), point)).expect_err("a null second bench row");
        assert!(err.contains("ops_per_sec"), "{err}");
        let err = validate_json(&doc(row, &null(point))).expect_err("a null second sweep point");
        assert!(err.contains("ops_per_sec"), "{err}");
    }

    #[test]
    fn extract_number_reads_fields() {
        let doc = "{\"a\": 3.25, \"b\": -1, \"c\": \"x\"}";
        assert_eq!(extract_number(doc, "a"), Some(3.25));
        assert_eq!(extract_number(doc, "b"), Some(-1.0));
        assert_eq!(extract_number(doc, "c"), None);
        assert_eq!(extract_number(doc, "zz"), None);
    }
}
