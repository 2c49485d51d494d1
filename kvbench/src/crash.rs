//! kv-crash: one client grows a fresh table while power failures strike.
//!
//! Each cycle builds a fresh reclaiming pool in the crash model, then sends
//! requests until the table has grown to the target bucket count, so every
//! cycle runs the same ladder of resizes. A failure is armed
//! at a seeded offset of the pool's instrumented event stream, so failures
//! land in each phase (traversal, helping, migration, allocation) in
//! proportion to the events spent there. After each failure the pool is
//! crashed under a seeded adversary and the rebooted client recovers:
//! allocator, attach, the interrupted request, then a first `get`. Every
//! `Spec::drain_every` requests the client drains the allocator's limbo
//! lists (a quiescent point: it is the only thread), so a failure finds
//! free lists of the length the cycle has built up and the allocator's
//! recovery walks them.
//!
//! Everything is single-threaded and seeded, so every count repeats exactly
//! for a seed; only times vary.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use pmem::{run_crashable, CrashCtl, PmemPool, PoolCfg, SeededAdversary, StatsSnapshot, ThreadCtx};
use tracking::sites::S_CP;
use tracking::RecoverableHashMap;

use crate::kv::{
    add_stats, ns, pool_cfg, recover, EventCounts, MapObs, Recoveries, Resp, Step, TwinTimes,
    Variant,
};
use crate::plan::{stream, value_of, KeyDist, Mix, Op, Req, Rng};
use crate::report::{block_quantiles, median_f64, persist_counts, quantile, ratio, Metrics};
use crate::spans::{at, Recorder, Span};

pub struct Spec {
    pub universe: u32,
    /// A cycle ends once the table has grown to this many buckets.
    pub target_buckets: u64,
    pub mix: Mix,
    /// Requests drawn per cycle; far more than reaching the target takes.
    pub max_requests: usize,
    /// Pool bytes one request takes (measured; see the doc page), used to
    /// size each cycle's pool from the planned request count.
    pub bytes_per_req: usize,
    /// Mean instrumented events between two failures.
    pub mean_gap: u64,
    /// Requests between two quiescent allocator drains.
    pub drain_every: usize,
    /// Cycles per second of `--seconds`: the cycle count is fixed by the
    /// arguments, never by elapsed time, so counts repeat for a seed.
    pub cycles_per_s: f64,
}

pub struct Plan {
    pub cycles: Vec<Vec<Req>>,
    /// Events before each successive failure.
    pub gaps: Vec<u64>,
    pub adversary_seed: u64,
}

/// Request spans kept in the span file.
const SPAN_CAP: usize = 1 << 17;

/// Seed of the cycles' request scripts, the same for every `--seed`: when
/// a table doubles depends on the order keys arrive in, and with it how
/// many blocks the migrations retire and how long the free lists are that
/// a recovery walks. With scripts drawn from `--seed`, the median free-list
/// length at a failure moved by ±20 % between seeds. The seed draws where
/// the failures strike and how the adversary resolves each line.
const SCRIPT_SEED: u64 = 0x000c_4a54;

pub fn plan(spec: &Spec, seed: u64, seconds: f64) -> Plan {
    let n = ((spec.cycles_per_s * seconds).round() as usize).max(1);
    let cycles = (0..n)
        .map(|c| {
            stream(
                spec.max_requests,
                spec.universe,
                spec.mix,
                &KeyDist::Uniform,
                &mut Rng::new(SCRIPT_SEED, 100 + c as u64),
            )
        })
        .collect();
    let mut rng = Rng::new(seed, 1);
    // Far more gaps than failures; drawn up front so inputs are fixed.
    let gaps = (0..n * 4096)
        .map(|_| 1 + rng.below(2 * spec.mean_gap))
        .collect();
    Plan {
        cycles,
        gaps,
        adversary_seed: Rng::new(seed, 2).next_u64(),
    }
}

/// Runs `f` with crash injection paused, keeping the countdown's position:
/// the benchmark's own reads must not move where the next failure lands.
fn paused<R>(ctl: &CrashCtl, f: impl FnOnce() -> R) -> R {
    if !ctl.armed() {
        return f();
    }
    let left = ctl.remaining().max(0) as u64;
    ctl.disarm();
    let r = f();
    ctl.arm_after(left);
    r
}

/// The response the sequential specification gives at state `present`.
fn expected(present: &[bool], req: Req) -> Resp {
    let p = present[req.idx() as usize];
    let val = p.then(|| value_of(req.key()));
    match req.op() {
        Op::Get | Op::Remove => Resp::Val(val),
        Op::Put => Resp::Bool(!p),
    }
}

fn apply(present: &mut [bool], live: &mut usize, req: Req) {
    let slot = &mut present[req.idx() as usize];
    match req.op() {
        Op::Put if !*slot => {
            *slot = true;
            *live += 1;
        }
        Op::Remove if *slot => {
            *slot = false;
            *live -= 1;
        }
        _ => {}
    }
}

/// The request after the system's `CP_q := 0` step, which the caller
/// issues itself so a failure inside it is told apart.
fn exec_started(map: &RecoverableHashMap, ctx: &ThreadCtx, req: Req) -> Resp {
    let k = req.key();
    match req.op() {
        Op::Get => Resp::Val(map.get(ctx, k)),
        Op::Put => Resp::Bool(map.put_started(ctx, k, value_of(k))),
        Op::Remove => Resp::Val(map.remove_started(ctx, k)),
    }
}

#[derive(Default)]
pub struct Run {
    pub requests: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub failures: u64,
    prologue_failures: u64,
    loop_ns: u64,
    /// Requests per second of each cycle's request loop.
    cycle_rates: Vec<f64>,
    setups: Vec<f64>,
    lat: Vec<u32>,
    map: MapObs,
    stats: Option<StatsSnapshot>,
    consumed_lines: u64,
    used_lines: u64,
    drain_ns: u64,
    free_blocks: u64,
    crash_resolve: Vec<u32>,
    pub recoveries: Recoveries,
    events: EventCounts,
    pub recorders: Vec<Recorder>,
}

impl Run {
    pub fn ns_per_req(&self) -> f64 {
        ratio(self.loop_ns as f64, self.requests as f64)
    }
}

pub fn run(spec: &Spec, plan: &Plan, v: Variant, seed: u64) -> Run {
    let epoch = Instant::now();
    let mut out = Run::default();
    let mut rec = v.spans.then(|| Recorder::new(1, SPAN_CAP));
    let mut gaps = plan.gaps.iter().copied();
    let mut adversary = Rng::new(plan.adversary_seed, 0);
    let mut carry: Option<u64> = None;
    for (c, reqs) in plan.cycles.iter().enumerate() {
        let r = catch_unwind(AssertUnwindSafe(|| {
            cycle(
                spec,
                reqs,
                v,
                &mut out,
                rec.as_mut(),
                epoch,
                &mut gaps,
                &mut adversary,
                &mut carry,
            )
        }));
        if r.is_err() {
            out.failed += 1;
            out.notes.push(format!(
                "seed {seed} cycle {c}: panic outside a crash point"
            ));
            carry = None;
        }
    }
    out.recorders.extend(rec);
    out
}

#[allow(clippy::too_many_arguments)]
fn cycle(
    spec: &Spec,
    reqs: &[Req],
    v: Variant,
    out: &mut Run,
    mut rec: Option<&mut Recorder>,
    epoch: Instant,
    gaps: &mut impl Iterator<Item = u64>,
    adversary: &mut Rng,
    carry: &mut Option<u64>,
) {
    let t0 = Instant::now();
    let pool = Arc::new(PmemPool::new(pool_cfg(
        PoolCfg::model(spec.max_requests * spec.bytes_per_req / 2 * 3 + (64 << 20)),
        v,
        true,
    )));
    let heap_lines = pool.remaining_lines() as u64;
    let mut map = RecoverableHashMap::new(pool.clone(), 0);
    let mut ctx = ThreadCtx::new(pool.clone(), 0);
    out.setups.push(t0.elapsed().as_secs_f64());
    let buckets0 = map.bucket_count();

    let mut present = vec![false; spec.universe as usize];
    let mut live = 0usize;
    let ctl = pool.crash_ctl();
    let stats0 = pool.stats();
    let lines0 = pool.remaining_lines() as u64;
    if v.pool_trace {
        pool.set_trace_enabled(true);
    }
    if let Some(g) = carry.take().or_else(|| gaps.next()) {
        ctl.arm_after(g);
    }
    let loop_start = Instant::now();
    let mut sent = 0;
    let mut bc0 = buckets0;
    for (i, &req) in reqs.iter().enumerate() {
        if bc0 >= spec.target_buckets {
            break;
        }
        sent = i + 1;
        let want = expected(&present, req);
        let past_prologue = Cell::new(false);
        let t = Instant::now();
        let pre = run_crashable(|| {
            if req.op() != Op::Get {
                ctx.begin_op(S_CP);
            }
            past_prologue.set(true);
            exec_started(&map, &ctx, req)
        });
        let d = ns(t.elapsed());
        out.requests += 1;
        let got = match pre {
            Some(resp) => {
                out.lat.push(d);
                if v.spans {
                    out.map.by_op[req.op() as usize].push(d);
                }
                resp
            }
            None => {
                // Power failure: resolve every line under the adversary,
                // then reboot and recover.
                out.failures += 1;
                let rid = 1 << 62 | out.failures;
                let mut step = Step {
                    rec: rec.as_deref_mut(),
                    epoch,
                    parent: 0,
                    req: rid,
                };
                let ((), resolve) = step.run("pool.crash", || {
                    pool.crash(&mut SeededAdversary::new(adversary.next_u64()))
                });
                out.crash_resolve.push(resolve);
                let parent = rec.as_deref_mut().map_or(0, Recorder::id);
                let before = v.spans.then(|| (pool.stats(), pool.remaining_lines()));
                let mut step = Step {
                    rec: rec.as_deref_mut(),
                    epoch,
                    parent,
                    req: rid,
                };
                let r0 = Instant::now();
                let ((), a) = step.run("recover_allocator", || pool.recover_allocator());
                let ((m, x), b) = step.run("attach", || {
                    (
                        RecoverableHashMap::new(pool.clone(), 0),
                        ThreadCtx::new(pool.clone(), 0),
                    )
                });
                (map, ctx) = (m, x);
                let bc_attach = if v.spans { map.bucket_count() } else { 0 };
                let prologue = !past_prologue.get();
                let (resp, c) = if prologue {
                    // The failure struck inside `begin_op`: the request was
                    // never invoked and `RD_q` still names the previous one,
                    // so the system re-invokes it fresh.
                    out.prologue_failures += 1;
                    step.run("reinvoke", || {
                        if req.op() != Op::Get {
                            ctx.begin_op(S_CP);
                        }
                        exec_started(&map, &ctx, req)
                    })
                } else {
                    step.run(recover_step(req.op()), || recover(&map, &ctx, req))
                };
                let (first, e) = step.run("first_get", || map.get(&ctx, req.key()));
                let r1 = Instant::now();
                let rc = &mut out.recoveries;
                rc.total.push(ns(r1.duration_since(r0)));
                rc.allocator.push(a);
                rc.attach.push(b);
                rc.resolve.push(c);
                rc.first_get.push(e);
                if v.spans && map.bucket_count() != bc_attach {
                    rc.finished_resize += 1;
                }
                if let (Some(rec), Some((s0, lines0))) = (rec.as_deref_mut(), before.as_ref()) {
                    let delta = pool.stats().delta(s0);
                    rec.push(Span {
                        id: parent,
                        parent: 0,
                        req: rid,
                        name: "recovery",
                        start_ns: at(epoch, r0),
                        end_ns: at(epoch, r1),
                        attrs: vec![
                            ("op", req.op() as i64),
                            ("key", req.key() as i64),
                            ("prologue", prologue as i64),
                            ("buckets_at_attach", bc_attach as i64),
                            ("buckets_at_first_get", map.bucket_count() as i64),
                            ("pwb", delta.pwb_total() as i64),
                            ("psync", delta.psync as i64),
                            ("remaining_lines_before", *lines0 as i64),
                            ("remaining_lines_after", pool.remaining_lines() as i64),
                        ],
                    });
                }
                let mut after = present.clone();
                let mut l = live;
                apply(&mut after, &mut l, req);
                if Resp::Val(first) != expected(&after, Req::new(Op::Get, req.idx())) {
                    out.failed += 1;
                    out.notes.push(format!(
                        "first get after recovering {req:?} answered {first:?}"
                    ));
                }
                if let Some(g) = gaps.next() {
                    ctl.arm_after(g);
                }
                resp
            }
        };
        if got != want {
            out.failed += 1;
            out.notes.push(format!(
                "{req:?}: answered {got:?}, specification says {want:?}"
            ));
        }
        out.map.count(req, want);
        apply(&mut present, &mut live, req);
        let bc1 = paused(ctl, || map.bucket_count());
        if v.spans {
            let mut attrs = Vec::new();
            if bc1 != bc0 {
                out.map.resize_stall_ns += d as u64;
                attrs = vec![
                    ("buckets_before", bc0 as i64),
                    ("buckets_after", bc1 as i64),
                ];
            }
            if let Some(rec) = rec.as_deref_mut() {
                let id = rec.id();
                let start_ns = at(epoch, t);
                rec.request(Span {
                    id,
                    parent: 0,
                    req: i as u64,
                    name: req.op().name(),
                    start_ns,
                    end_ns: start_ns + d as u64,
                    attrs,
                });
            }
        }
        bc0 = bc1;
        if sent % spec.drain_every == 0 {
            // Drains are not failure points: the countdown pauses, so
            // failures land in requests only.
            let mut step = Step {
                rec: rec.as_deref_mut(),
                epoch,
                parent: 0,
                req: 0,
            };
            let ((), d) = step.run("palloc_drain_all", || {
                paused(ctl, || pool.palloc_drain_all())
            });
            out.drain_ns += d as u64;
        }
    }
    let loop_ns = loop_start.elapsed().as_nanos() as u64;
    out.loop_ns += loop_ns;
    out.cycle_rates
        .push(ratio(sent as f64 * 1e9, loop_ns as f64));
    if ctl.armed() {
        *carry = Some(ctl.remaining().max(0) as u64);
        ctl.disarm();
    }
    if v.pool_trace {
        out.events.add(&pool.trace_snapshot());
        pool.set_trace_enabled(false);
    }
    if bc0 < spec.target_buckets {
        out.failed += 1;
        out.notes.push(format!(
            "cycle ended at {bc0} buckets after {sent} requests: plan too short"
        ));
    }
    // The bytes a cycle consumed are counted after a last drain.
    pool.palloc_drain_all();
    add_stats(&mut out.stats, pool.stats().delta(&stats0));
    let lines1 = pool.remaining_lines() as u64;
    out.consumed_lines += lines0 - lines1;
    out.used_lines += heap_lines - lines1;
    out.map.live += live as u64;
    let buckets = map.bucket_count();
    out.map.buckets += buckets;
    out.map.resizes += (buckets / buckets0).trailing_zeros() as u64;
    out.free_blocks += pool.palloc_free_blocks().len() as u64;

    // Per-cycle audit: the table holds exactly the specification's keys.
    let entries = map.entries();
    let want: Vec<(u64, u64)> = present
        .iter()
        .enumerate()
        .filter(|(_, &p)| p)
        .map(|(s, _)| (s as u64 + 1, value_of(s as u64 + 1)))
        .collect();
    if entries != want {
        out.failed += 1;
        out.notes.push(format!(
            "audit: table holds {} keys, specification {}",
            entries.len(),
            want.len()
        ));
    }
    if map.check_invariants() != live {
        out.failed += 1;
        out.notes
            .push("check_invariants disagrees with the key count".into());
    }
    if let Err(e) = pool.palloc_check() {
        out.failed += 1;
        out.notes.push(format!("palloc_check: {e}"));
    }
}

fn recover_step(op: Op) -> &'static str {
    match op {
        Op::Get => "recover_get",
        Op::Put => "recover_put",
        Op::Remove => "recover_remove",
    }
}

/// Consecutive uninterrupted requests per latency block.
const LAT_BLOCK: usize = 1 << 16;

pub fn e2e(run: &mut Run) -> Metrics {
    let mut m = Metrics::default();
    m.set("throughput_ops_s", median_f64(&run.cycle_rates), "req/s");
    m.set(
        "p50_us",
        median_f64(&block_quantiles(&run.lat, LAT_BLOCK, 0.5)) / 1e3,
        "us",
    );
    m.set(
        "p99_us",
        median_f64(&block_quantiles(&run.lat, LAT_BLOCK, 0.99)) / 1e3,
        "us",
    );
    m.set(
        "recovery_p50_us",
        quantile(&mut run.recoveries.total, 0.5) / 1e3,
        "us",
    );
    m.set(
        "recovery_p99_us",
        quantile(&mut run.recoveries.total, 0.99) / 1e3,
        "us",
    );
    m.set(
        "pmem_bytes_per_op",
        ratio(run.consumed_lines as f64 * 64.0, run.requests as f64),
        "B",
    );
    m.set(
        "pmem_bytes_per_key",
        ratio(run.used_lines as f64 * 64.0, run.map.live as f64),
        "B",
    );
    m.set("setup_s", median_f64(&run.setups), "s");
    m
}

pub fn layers(traced: &mut Run, plain: &Run, noop: &Run, fo: &Run, pt: &Run) -> Metrics {
    let mut m = Metrics::default();
    traced.map.metrics(&mut m);
    let stats = traced.stats.clone().expect("at least one cycle");
    persist_counts(&mut m, &stats, traced.requests);
    m.set("palloc.drain_ms", traced.drain_ns as f64 / 1e6, "ms");
    m.set(
        "palloc.drain_stall_share",
        ratio(traced.drain_ns as f64, traced.loop_ns as f64),
        "ratio",
    );
    let cycles = traced.setups.len().max(1) as f64;
    m.set(
        "palloc.free_blocks",
        traced.free_blocks as f64 / cycles,
        "count",
    );
    traced.recoveries.metrics(&mut m);
    m.set(
        "recover.prologue_crash_ratio",
        ratio(traced.prologue_failures as f64, traced.failures as f64),
        "ratio",
    );
    let resolve_ms = quantile(&mut traced.crash_resolve, 0.5) / 1e6;
    m.set("crash.resolve_ms", resolve_ms, "ms");
    m.set("crash.failures", traced.failures as f64, "count");
    pt.events.metrics(&mut m, pt.requests);
    let elided = fo.stats.as_ref().map_or(0, StatsSnapshot::pwb_elided_total);
    m.set(
        "flushopt.pwb_elided_per_op",
        ratio(elided as f64, fo.requests as f64),
        "pwb",
    );
    m.set("client.imbalance", 1.0, "ratio");
    TwinTimes {
        traced: traced.ns_per_req(),
        plain: plain.ns_per_req(),
        noop: noop.ns_per_req(),
        flushopt: fo.ns_per_req(),
    }
    .metrics(&mut m);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Spec {
        Spec {
            universe: 1024,
            target_buckets: 128,
            mix: Mix { get: 10, put: 70 },
            max_requests: 20_000,
            mean_gap: 3_000,
            drain_every: 256,
            cycles_per_s: 4.0,
            bytes_per_req: 1_200,
        }
    }

    #[test]
    fn counts_repeat_for_a_seed_and_every_check_passes() {
        let spec = tiny();
        let plan = plan(&spec, 11, 1.0);
        let mut a = run(&spec, &plan, Variant::PLAIN, 11);
        let mut b = run(&spec, &plan, Variant::TRACED, 11);
        assert_eq!(a.failed, 0, "{:?}", a.notes);
        assert_eq!(b.failed, 0, "{:?}", b.notes);
        assert!(a.failures > 0, "the plan must inject failures");
        assert_eq!(
            (
                a.failures,
                a.requests,
                a.consumed_lines,
                a.stats.as_ref().map(|s| s.pwb_per_site)
            ),
            (
                b.failures,
                b.requests,
                b.consumed_lines,
                b.stats.as_ref().map(|s| s.pwb_per_site)
            ),
        );
        let (ea, eb) = (e2e(&mut a), e2e(&mut b));
        assert_eq!(ea.0[5], eb.0[5], "pmem_bytes_per_op repeats exactly");
    }
}
