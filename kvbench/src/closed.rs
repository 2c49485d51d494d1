//! kv-read and kv-churn: closed-loop clients sharing one table.
//!
//! Each client sends its next request only after the previous one returned.
//! A run is the seeded plan (untimed), then per segment: set-up on a fresh
//! pool (timed as `setup_s`) → a share of the timed window → audit →
//! a share of the clean restarts (time-to-first-serve).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use pmem::{install_thread_arena, uninstall_thread_arena, PmemPool, PoolCfg, StatsSnapshot};
use pmem::{SubArena, ThreadCtx, DEFAULT_CHUNK_LINES};
use tracking::RecoverableHashMap;

use crate::kv::{
    add_stats, exec, ns, pool_cfg, recover, well_formed, EventCounts, MapObs, Recoveries, Resp,
    Step, TwinTimes, Variant,
};
use crate::plan::{key_of, permutation, stream, value_of, KeyDist, Mix, Op, Req, Rng};
use crate::report::{block_quantiles, median_f64, persist_counts, ratio, Metrics};
use crate::spans::{at, Recorder, Span};

/// One closed-loop workload.
pub struct Spec {
    pub clients: usize,
    pub universe: u32,
    pub prefill: u32,
    pub mix: Mix,
    /// Zipf exponent; uniform keys when `None`.
    pub zipf: Option<f64>,
    pub reclaim: bool,
    /// Requests each client sends between two quiescent allocator drains.
    pub drain_every: Option<usize>,
    /// Requests per second per client the streams are sized for: at least
    /// twice what a client reaches, so the window, not the plan, ends a run.
    pub plan_rate: f64,
    /// Pool bytes one request and one universe key of the set-up take
    /// (measured; see the doc page), used to size the pool from the plan.
    pub bytes_per_req: usize,
    pub bytes_per_key: usize,
    /// Clean restarts timed after the windows, shared evenly by the
    /// segments (each share a multiple of the recovery-time block).
    pub reboots: usize,
    /// Consecutive restarts per recovery-time block; the run reports the
    /// median over blocks of each block's quantile.
    pub reboot_block: usize,
    /// Sleep between two blocks of restarts, so that restarts which take
    /// microseconds still sample the host over seconds; zero when the
    /// segments already spread them.
    pub reboot_pause: Duration,
    /// Segments per run. Each segment sets up a fresh pool and runs an
    /// equal share of the window on it, so `setup_s` is a median and a
    /// pool only ever holds one segment's allocations.
    pub segments: usize,
}

/// Consecutive requests of one client per latency block.
const LAT_BLOCK: usize = 1 << 16;
/// Untimed restarts after the window's audit and after each pause. The
/// first restarts there walk free lists the host has evicted from cache on
/// a core it has clocked down: on kv-churn they took 2.5–3× as long as the
/// rest, and how many of them were slow varied from 2 to 15 with the host,
/// which made a block's p99 a measure of the host.
const REBOOT_WARMUP: usize = 32;
/// Request spans kept per client in the span file.
const SPAN_CAP: usize = 1 << 16;

/// Seed of the set-up order, fixed so that set-up is the same for every
/// `--seed`.
const SETUP_ORDER_SEED: u64 = 0x0005_e70b;

/// The seeded inputs of one run.
pub struct Plan {
    /// Every universe slot in set-up insertion order (the same for every
    /// seed); the first `Spec::prefill` of them stay in the table for the
    /// window.
    pub order: Vec<u32>,
    pub streams: Vec<Vec<Req>>,
    /// Slots the first `get` of each reboot asks for.
    pub probes: Vec<u32>,
}

pub fn plan(spec: &Spec, seed: u64, seconds: f64) -> Plan {
    // The set-up order is the same for every seed. When the table doubles
    // depends on the order keys arrive in, and with it how many nodes the
    // migrations retire: depending on the seed, set-up left 45 000 or
    // 60 000–65 000 free blocks on kv-churn, and every clean restart walks
    // them. One order loads the same table with the same garbage every run.
    let order = permutation(spec.universe, &mut Rng::new(SETUP_ORDER_SEED, 0));
    let mut rng = Rng::new(seed, 0);
    let dist = match spec.zipf {
        Some(theta) => KeyDist::zipf(spec.universe, theta, &mut rng),
        None => KeyDist::Uniform,
    };
    let probes = (0..spec.reboots)
        .map(|_| rng.below(spec.universe as u64) as u32)
        .collect();
    let len = (spec.plan_rate * seconds) as usize + 4096;
    let streams = std::thread::scope(|s| {
        let dist = &dist;
        let handles: Vec<_> = (0..spec.clients)
            .map(|c| {
                s.spawn(move || {
                    stream(
                        len,
                        spec.universe,
                        spec.mix,
                        dist,
                        &mut Rng::new(seed, 1 + c as u64),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream generator panicked"))
            .collect()
    });
    Plan {
        order,
        streams,
        probes,
    }
}

/// What one client did in the window.
struct Client {
    requests: u64,
    lat: Vec<u32>,
    map: MapObs,
    wrong: u64,
    panicked: u64,
    /// Successful puts minus successful removes, per universe slot.
    ledger: Vec<i32>,
    last: Option<(Req, Resp)>,
    drain_ns: u64,
    stall_ns: u64,
    start_ns: u64,
    end_ns: u64,
    exhausted: bool,
    rec: Option<Recorder>,
}

struct Shared {
    start: Barrier,
    drain: Barrier,
    stop: AtomicBool,
    exhausted: AtomicBool,
    deadline: Duration,
    epoch: Instant,
}

struct Setup {
    pool: Arc<PmemPool>,
    map: RecoverableHashMap,
    secs: f64,
    /// Heap lines available right after the pool was built.
    heap_lines: usize,
    failed: u64,
    resizes: u64,
    resize_stall_ns: u64,
}

fn setup(
    spec: &Spec,
    plan: &Plan,
    v: Variant,
    capacity: usize,
    rec: Option<&mut Recorder>,
    epoch: Instant,
) -> Setup {
    let t0 = Instant::now();
    let pool = Arc::new(PmemPool::new(pool_cfg(
        PoolCfg::perf(capacity),
        v,
        spec.reclaim,
    )));
    let heap_lines = pool.remaining_lines();
    let map = RecoverableHashMap::new(pool.clone(), 0);
    // Set-up runs as client 0, as a loader that goes on serving would: the
    // blocks it retires land on client 0's free lists and are reused in the
    // window instead of stranding on a thread that never allocates again.
    let ctx = ThreadCtx::new(pool.clone(), 0);
    let mut failed = 0;
    let (mut resizes, mut stall) = (0, 0);
    let traced = rec.is_some();
    let mut bc = map.bucket_count();
    let mut resize_spans = Vec::new();
    // Pass 0 inserts every universe key. Pass 1 puts each again: a no-op
    // for a present key, but its traversal still trips the resize trigger,
    // so after it no chain holds a key with more than `max_chain` smaller
    // keys before it. Every key set of the window is a subset of the
    // universe, so no request of the window can resize the table. Pass 2
    // removes the keys outside the prefill.
    let keep = spec.prefill as usize;
    for pass in 0..3 {
        let slots = if pass < 2 {
            &plan.order[..]
        } else {
            &plan.order[keep..]
        };
        for &slot in slots {
            let k = key_of(slot);
            let t = Instant::now();
            let ok = match pass {
                0 => map.put(&ctx, k, value_of(k)),
                1 => !map.put(&ctx, k, value_of(k)),
                _ => map.remove(&ctx, k) == Some(value_of(k)),
            };
            if !ok {
                failed += 1;
            }
            if traced {
                let after = map.bucket_count();
                if after != bc {
                    let d = t.elapsed();
                    resizes += (after / bc).trailing_zeros() as u64;
                    stall += d.as_nanos() as u64;
                    resize_spans.push((t, d, bc, after));
                    bc = after;
                }
            }
        }
        // The loader is the only thread, so each pass ends at a quiescent
        // point: draining there lets the next pass reuse what this one
        // retired (a no-op on the bump arena).
        pool.palloc_drain_all();
    }
    let secs = t0.elapsed().as_secs_f64();
    if let Some(rec) = rec {
        let root = rec.id();
        for (t, d, before, after) in resize_spans {
            let id = rec.id();
            rec.push(Span {
                id,
                parent: root,
                req: 0,
                name: "setup.resizing_request",
                start_ns: at(epoch, t),
                end_ns: at(epoch, t) + d.as_nanos() as u64,
                attrs: vec![
                    ("buckets_before", before as i64),
                    ("buckets_after", after as i64),
                ],
            });
        }
        rec.push(Span {
            id: root,
            parent: 0,
            req: 0,
            name: "setup",
            start_ns: at(epoch, t0),
            end_ns: at(epoch, t0) + (secs * 1e9) as u64,
            attrs: vec![
                ("keys", keep as i64),
                ("bucket_count", map.bucket_count() as i64),
                ("remaining_lines", pool.remaining_lines() as i64),
            ],
        });
    }
    Setup {
        pool,
        map,
        secs,
        heap_lines,
        failed,
        resizes,
        resize_stall_ns: stall,
    }
}

#[allow(clippy::too_many_arguments)]
fn client(
    c: usize,
    spec: &Spec,
    stream: &[Req],
    pool: &Arc<PmemPool>,
    map: &RecoverableHashMap,
    sh: &Shared,
    rec: Option<Recorder>,
) -> Client {
    install_thread_arena(SubArena::new(pool.clone(), DEFAULT_CHUNK_LINES));
    let traced = rec.is_some();
    let ctx = ThreadCtx::new(pool.clone(), c);
    let mut out = Client {
        requests: 0,
        lat: Vec::with_capacity(stream.len()),
        map: MapObs::default(),
        wrong: 0,
        panicked: 0,
        ledger: vec![0; spec.universe as usize],
        last: None,
        drain_ns: 0,
        stall_ns: 0,
        start_ns: 0,
        end_ns: 0,
        exhausted: false,
        rec,
    };
    let chunk = spec.drain_every.unwrap_or(stream.len());
    sh.start.wait();
    let start = Instant::now();
    out.start_ns = at(sh.epoch, start);
    let mut i = 0;
    'window: loop {
        let end = (i + chunk).min(stream.len());
        while i < end {
            if spec.drain_every.is_none() && sh.stop.load(Ordering::Relaxed) {
                break 'window;
            }
            let req = stream[i];
            i += 1;
            let bc0 = if traced { map.bucket_count() } else { 0 };
            let t0 = Instant::now();
            let r = catch_unwind(AssertUnwindSafe(|| exec(map, &ctx, req)));
            let t1 = Instant::now();
            let d = ns(t1.duration_since(t0));
            out.requests += 1;
            out.lat.push(d);
            let Ok(resp) = r else {
                out.panicked += 1;
                continue;
            };
            if !well_formed(req, resp) {
                out.wrong += 1;
            }
            let slot = req.idx() as usize;
            match (req.op(), resp) {
                (Op::Put, Resp::Bool(true)) => out.ledger[slot] += 1,
                (Op::Remove, Resp::Val(Some(_))) => out.ledger[slot] -= 1,
                _ => {}
            }
            out.map.count(req, resp);
            out.last = Some((req, resp));
            if let Some(rec) = out.rec.as_mut() {
                out.map.by_op[req.op() as usize].push(d);
                let bc1 = map.bucket_count();
                let mut attrs = Vec::new();
                if bc1 != bc0 {
                    out.map.resize_stall_ns += d as u64;
                    attrs = vec![
                        ("buckets_before", bc0 as i64),
                        ("buckets_after", bc1 as i64),
                    ];
                }
                let id = rec.id();
                rec.request(Span {
                    id,
                    parent: 0,
                    req: (c as u64) << 40 | i as u64,
                    name: req.op().name(),
                    start_ns: at(sh.epoch, t0),
                    end_ns: at(sh.epoch, t1),
                    attrs,
                });
            }
        }
        if spec.drain_every.is_none() {
            out.exhausted = true;
            break;
        }
        // Quiescent point: every client waits while client 0 drains the
        // allocator's limbo lists, then all decide together whether to stop.
        if i == stream.len() {
            sh.exhausted.store(true, Ordering::SeqCst);
        }
        let w0 = Instant::now();
        sh.drain.wait();
        if c == 0 {
            let before = out
                .rec
                .is_some()
                .then(|| (pool.stats(), pool.remaining_lines()));
            let d0 = Instant::now();
            pool.palloc_drain_all();
            let d1 = Instant::now();
            out.drain_ns += d1.duration_since(d0).as_nanos() as u64;
            if let (Some(rec), Some((s0, r0))) = (out.rec.as_mut(), before) {
                let d = pool.stats().delta(&s0);
                let palloc: u64 = pmem::PALLOC_SITES.iter().map(|(s, _)| d.pwb_at(*s)).sum();
                let id = rec.id();
                rec.push(Span {
                    id,
                    parent: 0,
                    req: 0,
                    name: "palloc_drain_all",
                    start_ns: at(sh.epoch, d0),
                    end_ns: at(sh.epoch, d1),
                    attrs: vec![
                        ("palloc_pwb", palloc as i64),
                        ("remaining_lines_before", r0 as i64),
                        ("remaining_lines_after", pool.remaining_lines() as i64),
                    ],
                });
            }
            if start.elapsed() >= sh.deadline || sh.exhausted.load(Ordering::SeqCst) {
                sh.stop.store(true, Ordering::SeqCst);
            }
        }
        sh.drain.wait();
        let w1 = Instant::now();
        out.stall_ns += w1.duration_since(w0).as_nanos() as u64;
        if let Some(rec) = out.rec.as_mut() {
            let id = rec.id();
            rec.push(Span {
                id,
                parent: 0,
                req: 0,
                name: "drain_barrier",
                start_ns: at(sh.epoch, w0),
                end_ns: at(sh.epoch, w1),
                attrs: Vec::new(),
            });
        }
        if sh.stop.load(Ordering::SeqCst) {
            break;
        }
    }
    out.end_ns = sh.epoch.elapsed().as_nanos() as u64;
    drop(uninstall_thread_arena());
    out
}

/// One segment's window for a client thread.
struct Job {
    pool: Arc<PmemPool>,
    map: Arc<RecoverableHashMap>,
    sh: Arc<Shared>,
    /// Where in the client's stream this segment starts.
    offset: usize,
    rec: Option<Recorder>,
}

/// Everything one run (segments of set-up, window, audit; then reboots)
/// of one variant gives.
#[derive(Default)]
pub struct Run {
    pub requests: u64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    pub window_ns: u64,
    setups: Vec<f64>,
    /// Per-block latency quantiles of every client and segment.
    lat_p50: Vec<f64>,
    lat_p99: Vec<f64>,
    /// Requests of all clients ÷ window, per segment.
    rates: Vec<f64>,
    map: MapObs,
    per_client: Vec<u64>,
    stats: Option<StatsSnapshot>,
    consumed_lines: usize,
    /// Lines in use once set-up finished, summed over segments.
    setup_lines: usize,
    prefill: u32,
    reboot_block: usize,
    drain_ns: u64,
    stall_ns: u64,
    free_blocks: usize,
    recoveries: Recoveries,
    events: EventCounts,
    pub plan_exhausted: bool,
    pub recorders: Vec<Recorder>,
}

impl Run {
    /// Mean client time per request in nanoseconds.
    pub fn ns_per_req(&self) -> f64 {
        ratio(
            self.window_ns as f64 * self.per_client.len() as f64,
            self.requests as f64,
        )
    }
}

/// Pool capacity for a plan: every key and every planned request at the
/// measured footprint, with a margin. Capacity is reserved address space;
/// only pages the run touches take memory.
fn capacity(spec: &Spec, plan: &Plan) -> usize {
    let reqs: usize = plan.streams.iter().map(Vec::len).sum();
    let bytes = spec.universe as usize * spec.bytes_per_key + reqs * spec.bytes_per_req;
    bytes / 2 * 3 + (64 << 20)
}

pub fn run(spec: &Spec, plan: &Plan, v: Variant, seconds: f64, fault: bool) -> Run {
    let epoch = Instant::now();
    let mut main_rec = v.spans.then(|| Recorder::new(0, 0));
    let mut recs: Vec<Option<Recorder>> = (0..spec.clients)
        .map(|c| v.spans.then(|| Recorder::new(1 + c as u64, SPAN_CAP)))
        .collect();
    let cap = capacity(spec, plan);
    let mut out = Run {
        per_client: vec![0; spec.clients],
        prefill: spec.prefill,
        reboot_block: spec.reboot_block,
        ..Run::default()
    };
    let mut offsets = vec![0; spec.clients];
    // The client threads live for the whole run, as a server's would. A
    // thread that first touches a pool takes the next process-wide thread
    // id, and `pmem` counts the ids from 16 on in one shared, atomically
    // updated stats shard: with fresh threads per segment, the segments
    // after the seventh ran 35 % slower on kv-churn.
    std::thread::scope(|sc| {
        let (done_tx, done_rx) = mpsc::channel::<(usize, Client)>();
        let jobs: Vec<mpsc::Sender<Job>> = (0..spec.clients)
            .map(|c| {
                let (tx, rx) = mpsc::channel::<Job>();
                let (done, stream) = (done_tx.clone(), &plan.streams[c]);
                sc.spawn(move || {
                    for j in rx {
                        let cl =
                            client(c, spec, &stream[j.offset..], &j.pool, &j.map, &j.sh, j.rec);
                        if done.send((c, cl)).is_err() {
                            break;
                        }
                    }
                });
                tx
            })
            .collect();
        drop(done_tx);
        for seg in 0..spec.segments {
            let s = setup(spec, plan, v, cap, main_rec.as_mut(), epoch);
            out.setups.push(s.secs);
            out.map.resizes += s.resizes;
            out.map.resize_stall_ns += s.resize_stall_ns;
            out.failed += s.failed;
            if s.failed > 0 {
                out.notes
                    .push(format!("{} set-up requests answered wrongly", s.failed));
            }
            let (pool, map) = (s.pool, Arc::new(s.map));
            out.setup_lines += s.heap_lines.saturating_sub(pool.remaining_lines());
            if v.pool_trace {
                pool.set_trace_enabled(true);
                pool.trace_clear();
            }
            let buckets0 = map.bucket_count();
            let lines0 = pool.remaining_lines();
            let stats0 = pool.stats();
            let sh = Arc::new(Shared {
                start: Barrier::new(spec.clients + 1),
                drain: Barrier::new(spec.clients),
                stop: AtomicBool::new(false),
                exhausted: AtomicBool::new(false),
                deadline: Duration::from_secs_f64(seconds / spec.segments as f64),
                epoch,
            });
            for (c, tx) in jobs.iter().enumerate() {
                let job = Job {
                    pool: pool.clone(),
                    map: map.clone(),
                    sh: sh.clone(),
                    offset: offsets[c],
                    rec: recs[c].take(),
                };
                tx.send(job).expect("client thread alive");
            }
            sh.start.wait();
            if spec.drain_every.is_none() {
                std::thread::sleep(sh.deadline);
                sh.stop.store(true, Ordering::Relaxed);
            }
            let mut done: Vec<Option<Client>> = (0..spec.clients).map(|_| None).collect();
            for _ in 0..spec.clients {
                let (c, cl) = done_rx
                    .recv()
                    .expect("client thread panicked outside a request");
                done[c] = Some(cl);
            }
            let mut clients: Vec<Client> = done.into_iter().flatten().collect();
            add_stats(&mut out.stats, pool.stats().delta(&stats0));
            if v.pool_trace {
                out.events.add(&pool.trace_snapshot());
                pool.set_trace_enabled(false);
            }
            if spec.reclaim {
                pool.palloc_drain_all();
            }
            let window_ns = clients.iter().map(|c| c.end_ns).max().unwrap_or(0)
                - clients.iter().map(|c| c.start_ns).min().unwrap_or(0);
            out.window_ns += window_ns;
            let seg_requests: u64 = clients.iter().map(|c| c.requests).sum();
            out.rates
                .push(ratio(seg_requests as f64 * 1e9, window_ns as f64));
            out.plan_exhausted |=
                clients.iter().any(|c| c.exhausted) || sh.exhausted.load(Ordering::SeqCst);
            for (c, cl) in clients.iter_mut().enumerate() {
                if cl.wrong + cl.panicked > 0 {
                    out.notes.push(format!(
                        "segment {seg} client {c}: {} wrong answers, {} panicked requests",
                        cl.wrong, cl.panicked
                    ));
                }
                out.failed += cl.wrong + cl.panicked;
                out.requests += cl.requests;
                out.per_client[c] += cl.requests;
                offsets[c] += cl.requests as usize;
                out.lat_p50.extend(block_quantiles(&cl.lat, LAT_BLOCK, 0.5));
                out.lat_p99
                    .extend(block_quantiles(&cl.lat, LAT_BLOCK, 0.99));
                out.map.absorb(&mut cl.map);
                out.drain_ns += cl.drain_ns;
                out.stall_ns += cl.stall_ns;
                recs[c] = cl.rec.take();
            }
            if fault && seg == 0 {
                // Negative check: one corrupted ledger entry must fail the audit.
                clients[0].ledger[plan.order[0] as usize] += 1;
            }
            let (audit_failed, present, live) =
                audit(spec, plan, &pool, &map, &clients, &mut out.notes);
            out.failed += audit_failed;
            let lines1 = pool.remaining_lines();
            out.consumed_lines += lines0.saturating_sub(lines1);
            out.map.live += live as u64;
            let buckets = map.bucket_count();
            out.map.buckets += buckets;
            out.map.resizes += (buckets / buckets0).trailing_zeros() as u64;
            out.free_blocks += pool.palloc_free_blocks().len();
            if v.spans || v == Variant::PLAIN {
                // Each segment times its share of the restarts, so they sample
                // the host at several moments of the run, not one.
                let share = plan.probes.len() / spec.segments;
                let probes = &plan.probes[seg * share..(seg + 1) * share];
                let lasts: Vec<Option<(Req, Resp)>> = clients.iter().map(|c| c.last).collect();
                let (ra, rf) = reboots(
                    spec,
                    probes,
                    &pool,
                    &lasts,
                    &present,
                    &mut out.recoveries,
                    main_rec.as_mut(),
                    epoch,
                );
                if rf > 0 {
                    out.notes.push(format!("{rf} reboot checks failed"));
                }
                out.failed += rf;
                out.attempted += ra;
            }
        }
    });
    out.attempted += out.requests;
    out.recorders.extend(main_rec);
    out.recorders.extend(recs.into_iter().flatten());
    out
}

/// Checks the table against prefill plus every client's ledger, key by key,
/// and runs the structural audits. Returns the failures, the expected
/// presence of every slot, and the live key count.
fn audit(
    spec: &Spec,
    plan: &Plan,
    pool: &PmemPool,
    map: &RecoverableHashMap,
    clients: &[Client],
    notes: &mut Vec<String>,
) -> (u64, Vec<bool>, usize) {
    let u = spec.universe as usize;
    let mut expected = vec![0i64; u];
    for &s in &plan.order[..spec.prefill as usize] {
        expected[s as usize] += 1;
    }
    for c in clients {
        for (e, l) in expected.iter_mut().zip(&c.ledger) {
            *e += *l as i64;
        }
    }
    let mut failed = 0;
    let mut present = vec![false; u];
    match catch_unwind(AssertUnwindSafe(|| map.entries())) {
        Ok(entries) => {
            for (k, val) in &entries {
                let slot = (*k as usize).wrapping_sub(1);
                if slot >= u || present[slot] || *val != value_of(*k) {
                    failed += 1;
                    notes.push(format!("entries(): unexpected entry ({k}, {val})"));
                } else {
                    present[slot] = true;
                }
            }
        }
        Err(_) => {
            failed += 1;
            notes.push("entries() panicked".into());
        }
    }
    let mut mismatched = 0;
    for (slot, (&e, &p)) in expected.iter().zip(&present).enumerate() {
        if !(0..=1).contains(&e) || (e == 1) != p {
            mismatched += 1;
            if mismatched <= 5 {
                notes.push(format!(
                    "key {}: prefill + ledger = {e}, present = {p}",
                    key_of(slot as u32)
                ));
            }
        }
    }
    failed += mismatched;
    match catch_unwind(AssertUnwindSafe(|| map.check_invariants())) {
        Ok(n) if n == present.iter().filter(|&&p| p).count() => {}
        Ok(n) => {
            failed += 1;
            notes.push(format!("check_invariants counted {n} keys"));
        }
        Err(_) => {
            failed += 1;
            notes.push("check_invariants failed".into());
        }
    }
    if let Err(e) = pool.palloc_check() {
        failed += 1;
        notes.push(format!("palloc_check: {e}"));
    }
    let live = present.iter().filter(|&&p| p).count();
    // Reboots probe the state the audit established.
    let truth = expected.iter().map(|&e| e == 1).collect();
    (failed, truth, live)
}

/// Clean restarts. Each restart runs what a restarted process runs before
/// it serves: allocator recovery (on a reclaiming pool, a walk of every
/// free list), attach, and one `get`; from the first step to that answer is
/// one time-to-first-serve sample. No request is in flight at a clean stop,
/// so no `recover_*` call belongs in the timed path; each client's last
/// request is checked through its `recover_*` once, afterwards. Returns
/// the checks made and how many of them failed.
#[allow(clippy::too_many_arguments)]
fn reboots(
    spec: &Spec,
    probes: &[u32],
    pool: &Arc<PmemPool>,
    lasts: &[Option<(Req, Resp)>],
    present: &[bool],
    out: &mut Recoveries,
    mut rec: Option<&mut Recorder>,
    epoch: Instant,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (probes.len() as u64, 0);
    let probe_ctx = ThreadCtx::new(pool.clone(), spec.clients);
    for (r, &slot) in probes.iter().enumerate() {
        let pause = r > 0 && r % spec.reboot_block == 0 && !spec.reboot_pause.is_zero();
        if pause {
            std::thread::sleep(spec.reboot_pause);
        }
        if r == 0 || pause {
            for &w in &probes[r..(r + REBOOT_WARMUP).min(probes.len())] {
                attempted += 1;
                pool.recover_allocator();
                let map = RecoverableHashMap::new(pool.clone(), 0);
                let k = key_of(w);
                failed +=
                    (map.get(&probe_ctx, k) != present[w as usize].then(|| value_of(k))) as u64;
            }
        }
        // The recovery span's own id names the whole restart.
        let parent = rec.as_deref_mut().map_or(0, Recorder::id);
        let req = parent;
        let mut step = Step {
            rec: rec.as_deref_mut(),
            epoch,
            parent,
            req,
        };
        let t0 = Instant::now();
        let ((), a) = step.run("recover_allocator", || pool.recover_allocator());
        let (map, b) = step.run("attach", || RecoverableHashMap::new(pool.clone(), 0));
        let k = key_of(slot);
        let (got, d) = step.run("first_get", || map.get(&probe_ctx, k));
        let t1 = Instant::now();
        out.total.push(ns(t1.duration_since(t0)));
        out.allocator.push(a);
        out.attach.push(b);
        out.first_get.push(d);
        failed += (got != present[slot as usize].then(|| value_of(k))) as u64;
        if let Some(rec) = rec.as_deref_mut() {
            rec.push(Span {
                id: parent,
                parent: 0,
                req,
                name: "recovery",
                start_ns: at(epoch, t0),
                end_ns: at(epoch, t1),
                attrs: vec![("bucket_count", map.bucket_count() as i64)],
            });
        }
    }
    let map = RecoverableHashMap::new(pool.clone(), 0);
    for (c, last) in lasts.iter().enumerate() {
        if let Some((q, resp)) = *last {
            // A completed update recovers to its recorded response; a get
            // is re-executed, so it answers from the table as it is now.
            let want = match q.op() {
                Op::Get => Resp::Val(present[q.idx() as usize].then(|| value_of(q.key()))),
                _ => resp,
            };
            let ctx = ThreadCtx::new(pool.clone(), c);
            let t = Instant::now();
            failed += (recover(&map, &ctx, q) != want) as u64;
            out.resolve.push(ns(t.elapsed()));
            attempted += 1;
        }
    }
    (attempted, failed)
}

/// The end-to-end metrics of a run.
pub fn e2e(run: &mut Run) -> Metrics {
    let mut m = Metrics::default();
    m.set("throughput_ops_s", median_f64(&run.rates), "req/s");
    m.set("p50_us", median_f64(&run.lat_p50) / 1e3, "us");
    m.set("p99_us", median_f64(&run.lat_p99) / 1e3, "us");
    let rec = &run.recoveries.total;
    m.set(
        "recovery_p50_us",
        median_f64(&block_quantiles(rec, run.reboot_block, 0.5)) / 1e3,
        "us",
    );
    m.set(
        "recovery_p99_us",
        median_f64(&block_quantiles(rec, run.reboot_block, 0.99)) / 1e3,
        "us",
    );
    m.set(
        "pmem_bytes_per_op",
        ratio(run.consumed_lines as f64 * 64.0, run.requests as f64),
        "B",
    );
    let keys = run.setups.len() as f64 * run.prefill as f64;
    m.set(
        "pmem_bytes_per_key",
        ratio(run.setup_lines as f64 * 64.0, keys),
        "B",
    );
    m.set("setup_s", median_f64(&run.setups), "s");
    m
}

/// The per-layer metrics of a traced run and its twins.
pub fn layers(traced: &mut Run, plain: &Run, noop: &Run, fo: &Run, pt: &Run) -> Metrics {
    let mut m = Metrics::default();
    traced.map.metrics(&mut m);
    let stats = traced.stats.clone().expect("at least one segment");
    persist_counts(&mut m, &stats, traced.requests);
    m.set("palloc.drain_ms", traced.drain_ns as f64 / 1e6, "ms");
    let client_ns = traced.window_ns as f64 * traced.per_client.len() as f64;
    m.set(
        "palloc.drain_stall_share",
        ratio(traced.stall_ns as f64, client_ns),
        "ratio",
    );
    let pools = traced.setups.len().max(1) as f64;
    m.set(
        "palloc.free_blocks",
        traced.free_blocks as f64 / pools,
        "count",
    );
    traced.recoveries.metrics(&mut m);
    m.set("recover.prologue_crash_ratio", 0.0, "ratio");
    m.set("crash.resolve_ms", 0.0, "ms");
    m.set("crash.failures", 0.0, "count");
    pt.events.metrics(&mut m, pt.requests);
    let elided = fo.stats.as_ref().map_or(0, StatsSnapshot::pwb_elided_total);
    m.set(
        "flushopt.pwb_elided_per_op",
        ratio(elided as f64, fo.requests as f64),
        "pwb",
    );
    let lo = traced.per_client.iter().copied().min().unwrap_or(0);
    let hi = traced.per_client.iter().copied().max().unwrap_or(0);
    m.set("client.imbalance", ratio(hi as f64, lo as f64), "ratio");
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
            clients: 2,
            universe: 512,
            prefill: 256,
            mix: Mix { get: 20, put: 40 },
            zipf: None,
            reclaim: true,
            drain_every: Some(64),
            plan_rate: 20_000.0,
            bytes_per_req: 256,
            bytes_per_key: 2048,
            segments: 2,
            reboots: 50,
            reboot_block: 25,
            reboot_pause: Duration::ZERO,
        }
    }

    #[test]
    fn clean_run_passes_every_check() {
        let spec = tiny();
        let plan = plan(&spec, 3, 0.05);
        let run = run(&spec, &plan, Variant::PLAIN, 0.05, false);
        assert_eq!(run.failed, 0, "{:?}", run.notes);
        assert!(run.requests > 0);
    }

    #[test]
    fn corrupted_ledger_entry_fails_the_audit() {
        let spec = tiny();
        let plan = plan(&spec, 3, 0.05);
        let run = run(&spec, &plan, Variant::PLAIN, 0.05, true);
        assert_eq!(run.failed, 1, "{:?}", run.notes);
        assert!(run.notes.iter().any(|n| n.contains("prefill + ledger")));
    }
}
