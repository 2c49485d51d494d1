//! What every workload shares: how a request is sent and checked, how a
//! pool is configured, and how the steps of one recovery are timed.

use std::time::Instant;

use pmem::{Backend, EventKind, PoolCfg, StatsSnapshot, ThreadCtx, TraceSnapshot};
use tracking::RecoverableHashMap;

use crate::plan::{value_of, Op, Req};
use crate::report::{quantile, ratio, Metrics};
use crate::spans::{at, Recorder, Span};

/// A response of the map.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Resp {
    Bool(bool),
    Val(Option<u64>),
}

pub fn exec(map: &RecoverableHashMap, ctx: &ThreadCtx, req: Req) -> Resp {
    let k = req.key();
    match req.op() {
        Op::Get => Resp::Val(map.get(ctx, k)),
        Op::Put => Resp::Bool(map.put(ctx, k, value_of(k))),
        Op::Remove => Resp::Val(map.remove(ctx, k)),
    }
}

/// The request's `recover_*` entry point with its original arguments.
pub fn recover(map: &RecoverableHashMap, ctx: &ThreadCtx, req: Req) -> Resp {
    let k = req.key();
    match req.op() {
        Op::Get => Resp::Val(map.recover_get(ctx, k)),
        Op::Put => Resp::Bool(map.recover_put(ctx, k, value_of(k))),
        Op::Remove => Resp::Val(map.recover_remove(ctx, k)),
    }
}

/// Checks what can be checked without knowing the map's state: the
/// response has the operation's shape and a returned value is the one
/// every put of that key binds.
pub fn well_formed(req: Req, resp: Resp) -> bool {
    match (req.op(), resp) {
        (Op::Put, Resp::Bool(_)) => true,
        (Op::Get | Op::Remove, Resp::Val(None)) => true,
        (Op::Get | Op::Remove, Resp::Val(Some(v))) => v == value_of(req.key()),
        _ => false,
    }
}

/// One pool configuration of a run. The end-to-end run uses [`Variant::PLAIN`];
/// the traced run adds the span-recording run and the twins that isolate one
/// layer each.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Variant {
    pub name: &'static str,
    pub backend: Backend,
    pub flushopt: bool,
    /// Turn on the pool's own event trace for the timed phase.
    pub pool_trace: bool,
    /// Record spans and boundary counts from this benchmark's code.
    pub spans: bool,
}

impl Variant {
    pub const PLAIN: Variant = Variant {
        name: "plain",
        backend: Backend::Clflush,
        flushopt: false,
        pool_trace: false,
        spans: false,
    };
    pub const TRACED: Variant = Variant {
        name: "traced",
        spans: true,
        ..Variant::PLAIN
    };
    pub const NOOP: Variant = Variant {
        name: "noop-backend",
        backend: Backend::Noop,
        ..Variant::PLAIN
    };
    pub const FLUSHOPT: Variant = Variant {
        name: "flushopt",
        flushopt: true,
        ..Variant::PLAIN
    };
    pub const POOL_TRACE: Variant = Variant {
        name: "pool-trace",
        pool_trace: true,
        ..Variant::PLAIN
    };
}

/// Events kept per thread by the pool's event trace in the pool-trace twin;
/// the per-kind shares come from these, the event total is exact.
const POOL_TRACE_EVENTS: usize = 1 << 19;

/// Recovery slots reserved per pool: the clients plus the slot the
/// restarts' first `get`s run in.
const MAX_THREADS: usize = 4;

pub fn pool_cfg(base: PoolCfg, v: Variant, reclaim: bool) -> PoolCfg {
    PoolCfg {
        backend: v.backend,
        flushopt: v.flushopt,
        reclaim,
        max_threads: MAX_THREADS,
        trace: false,
        trace_capacity: if v.pool_trace { POOL_TRACE_EVENTS } else { 1 },
        ..base
    }
}

/// Times of the steps of every recovery of a run, in nanoseconds.
#[derive(Default)]
pub struct Recoveries {
    /// Time-to-first-serve of each recovery.
    pub total: Vec<u32>,
    pub allocator: Vec<u32>,
    pub attach: Vec<u32>,
    pub resolve: Vec<u32>,
    pub first_get: Vec<u32>,
    /// Recoveries across which the bucket count changed (a resize finished).
    pub finished_resize: u64,
}

impl Recoveries {
    pub fn metrics(&mut self, m: &mut Metrics) {
        let us = |v: &mut Vec<u32>, q: f64| quantile(v, q) / 1e3;
        m.set("recover.allocator_us", us(&mut self.allocator, 0.5), "us");
        m.set("recover.attach_us", us(&mut self.attach, 0.5), "us");
        m.set("recover.resolve_p50_us", us(&mut self.resolve, 0.5), "us");
        m.set("recover.resolve_p99_us", us(&mut self.resolve, 0.99), "us");
        m.set("recover.first_get_us", us(&mut self.first_get, 0.5), "us");
        m.set(
            "recover.finished_resize_ratio",
            ratio(self.finished_resize as f64, self.total.len() as f64),
            "ratio",
        );
    }
}

/// A step timer that also records the step as a span when tracing.
pub struct Step<'a> {
    pub rec: Option<&'a mut Recorder>,
    pub epoch: Instant,
    pub parent: u64,
    pub req: u64,
}

impl Step<'_> {
    /// Runs `f` as step `name`, returning its result and duration in ns.
    pub fn run<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u32) {
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        if let Some(rec) = self.rec.as_deref_mut() {
            let id = rec.id();
            rec.push(Span {
                id,
                parent: self.parent,
                req: self.req,
                name,
                start_ns: at(self.epoch, t0),
                end_ns: at(self.epoch, t1),
                attrs: Vec::new(),
            });
        }
        (r, ns(t1.duration_since(t0)))
    }
}

/// A duration as a latency sample: nanoseconds, saturating at 4.3 s.
pub fn ns(d: std::time::Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

/// Adds a window's counter deltas to a run's total.
pub fn add_stats(acc: &mut Option<StatsSnapshot>, d: StatsSnapshot) {
    *acc = Some(match acc.take() {
        None => d,
        Some(a) => StatsSnapshot {
            pwb_per_site: std::array::from_fn(|i| a.pwb_per_site[i] + d.pwb_per_site[i]),
            pwb_elided_per_site: std::array::from_fn(|i| {
                a.pwb_elided_per_site[i] + d.pwb_elided_per_site[i]
            }),
            psync: a.psync + d.psync,
            pfence: a.pfence + d.pfence,
            psync_coalesced: a.psync_coalesced + d.psync_coalesced,
        },
    });
}

/// Pool events of the pool-trace twin: the exact total, and per-kind
/// counts over the events each thread's ring kept.
#[derive(Default)]
pub struct EventCounts {
    total: u64,
    kept: u64,
    loads: u64,
    cas: u64,
    cas_fail: u64,
}

impl EventCounts {
    pub fn add(&mut self, snap: &TraceSnapshot) {
        self.total += snap.total();
        self.kept += snap.events.len() as u64;
        self.loads += snap.count(EventKind::Load) as u64;
        self.cas += snap.count(EventKind::Cas) as u64;
        self.cas_fail += snap.count(EventKind::CasFail) as u64;
    }

    pub fn metrics(&self, m: &mut Metrics, requests: u64) {
        let per_op = ratio(self.total as f64, requests as f64);
        let share = |n: u64| ratio(n as f64, self.kept as f64);
        let cas = self.cas + self.cas_fail;
        m.set("pool.events_per_op", per_op, "events");
        m.set("pool.loads_per_op", per_op * share(self.loads), "loads");
        m.set("pool.cas_per_op", per_op * share(cas), "cas");
        m.set(
            "pool.cas_fail_ratio",
            ratio(self.cas_fail as f64, cas as f64),
            "ratio",
        );
    }
}

/// What a run observes of the `tracking::hashmap` layer.
#[derive(Default)]
pub struct MapObs {
    /// Latencies by operation (traced runs), indexed get/put/remove.
    pub by_op: [Vec<u32>; 3],
    /// Requests and hits per operation: a get or remove that found its
    /// key, a put that inserted.
    pub ops: [u64; 3],
    pub hits: [u64; 3],
    pub resizes: u64,
    /// Summed latency of requests across which the bucket count changed.
    pub resize_stall_ns: u64,
    /// Bucket count and live keys at the end, summed over the run's pools.
    pub buckets: u64,
    pub live: u64,
}

impl MapObs {
    pub fn count(&mut self, req: Req, resp: Resp) {
        let i = req.op() as usize;
        self.ops[i] += 1;
        self.hits[i] += match resp {
            Resp::Bool(inserted) => inserted,
            Resp::Val(v) => v.is_some(),
        } as u64;
    }

    pub fn absorb(&mut self, o: &mut MapObs) {
        for i in 0..3 {
            self.by_op[i].append(&mut o.by_op[i]);
            self.ops[i] += o.ops[i];
            self.hits[i] += o.hits[i];
        }
        self.resizes += o.resizes;
        self.resize_stall_ns += o.resize_stall_ns;
        self.buckets += o.buckets;
        self.live += o.live;
    }

    pub fn metrics(&mut self, m: &mut Metrics) {
        for (i, op) in ["get", "put", "remove"].iter().enumerate() {
            let v = &mut self.by_op[i];
            m.set(format!("hashmap.{op}_p50_us"), quantile(v, 0.5) / 1e3, "us");
            m.set(
                format!("hashmap.{op}_p99_us"),
                quantile(v, 0.99) / 1e3,
                "us",
            );
        }
        let names = ["get_hit_ratio", "put_insert_ratio", "remove_hit_ratio"];
        for (i, name) in names.iter().enumerate() {
            let r = ratio(self.hits[i] as f64, self.ops[i] as f64);
            m.set(format!("hashmap.{name}"), r, "ratio");
        }
        m.set("hashmap.resizes", self.resizes as f64, "count");
        m.set(
            "hashmap.resize_stall_ms",
            self.resize_stall_ns as f64 / 1e6,
            "ms",
        );
        let per_key = ratio(self.buckets as f64, self.live as f64);
        m.set("hashmap.buckets_per_key", per_key, "ratio");
    }
}

/// Time per request of the runs of one plan, in nanoseconds: the traced
/// run and its plain, Noop-backend and flushopt twins.
pub struct TwinTimes {
    pub traced: f64,
    pub plain: f64,
    pub noop: f64,
    pub flushopt: f64,
}

impl TwinTimes {
    pub fn metrics(&self, m: &mut Metrics) {
        m.set(
            "pmem.backend_share",
            1.0 - ratio(self.noop, self.plain),
            "ratio",
        );
        m.set(
            "flushopt.time_ratio",
            ratio(self.flushopt, self.plain),
            "ratio",
        );
        m.set(
            "trace.overhead_ratio",
            ratio(self.traced, self.plain),
            "ratio",
        );
    }
}
