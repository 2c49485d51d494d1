//! Regression pins for the crash-sweep verification engine
//! (`bench::sweep`).
//!
//! The sweep's coverage guarantee rests on one invariant: the instrumented
//! event count `N` of the scripted workload is an exact, stable function of
//! the configuration, because every crash point `k ∈ [0, N)` is enumerated
//! from it. These tests pin `N` for fixed seeds so that any change to the
//! persistence-instruction placement of the algorithms — an extra `pwb`, a
//! dropped `psync`, a reordered store — shows up as a failed pin rather
//! than as silently shifted crash points. When a pin moves *intentionally*
//! (the placement really changed), update the constant and say so in the
//! commit message.

use bench::sweep::{run_sweep, AdversaryKind, SweepCfg};
use bench::{AlgoKind, StructureKind};

/// Fixed seed for the pinned workloads (any change to it invalidates pins).
const PIN_SEED: u64 = 0xDECA_FBAD;

fn pinned_cfg(structure: StructureKind, algo: AlgoKind) -> SweepCfg {
    let mut cfg = SweepCfg::new(structure, algo);
    cfg.seed = PIN_SEED;
    cfg.script_len = 6;
    cfg.pool_bytes = 16 << 20;
    cfg
}

/// The Tracking list pins: 6 scripted ops produce exactly this many
/// instrumented events (each one a distinct crash point), in the paper's
/// persistence-instruction placement and in the lean one.
#[test]
fn tracking_list_event_count_is_pinned() {
    for (algo, pinned) in [(AlgoKind::TrackingPaper, 319), (AlgoKind::Tracking, 264)] {
        let mut cfg = pinned_cfg(StructureKind::List, algo);
        // Counting alone needs no replays; skip them so the pin stays cheap.
        cfg.sample = 0.0;
        let report = run_sweep(&cfg);
        assert_eq!(
            report.total_events,
            pinned,
            "{} list persistence-event count changed: its \
             persistence-instruction placement moved (or the script generator \
             changed). If intentional, update this pin.",
            algo.name()
        );
        assert_eq!(report.points_skipped, report.total_events);
    }
}

/// The Tracking queue pin, plus a sampled end-to-end run: the sampled
/// points must all recover detectably and durably.
#[test]
fn tracking_queue_pin_and_sampled_sweep_is_clean() {
    let mut cfg = pinned_cfg(StructureKind::Queue, AlgoKind::Tracking);
    cfg.sample = 0.2;
    let report = run_sweep(&cfg);
    assert_eq!(report.total_events, 252, "Tracking queue event count moved");
    assert!(report.points_run > 0, "0.2 sample selected nothing");
    assert!(
        report.ok(),
        "sampled queue sweep found violations: {:?}",
        report.violations
    );
}

/// The Tracking hashmap pin, plus a sampled end-to-end run. The pinned
/// script is put-heavy over a 2-bucket / max-chain-2 table, so the counted
/// event space includes at least one full resize (level publish, bucket
/// migration, seal and finish) — a moved pin means the resize protocol's
/// persistence-instruction placement changed, not just the bucket ops'.
/// The total count cannot see events reordered inside an operation, so the
/// full event stream of a crash-free traced run is hash-pinned beside it.
#[test]
fn tracking_hashmap_pin_and_sampled_sweep_is_clean() {
    let (hash, buckets_before, buckets_after) = pinned_hashmap_stream();
    assert!(
        buckets_after > buckets_before,
        "the pinned hashmap script must grow the table ({buckets_before} -> {buckets_after})"
    );
    assert_eq!(
        hash, TRACKING_HASHMAP_STREAM_HASH,
        "Tracking hashmap event stream moved: a bucket-op or resize event \
         was added, dropped or reordered"
    );

    let mut cfg = pinned_cfg(StructureKind::Hashmap, AlgoKind::Tracking);
    // The short 6-op script shared by the other pins never trips the
    // aggressive config's resize threshold; 24 ops do (guarded by
    // `pinned_hashmap_script_reaches_a_resize` in bench).
    cfg.script_len = 24;
    cfg.sample = 0.05;
    let report = run_sweep(&cfg);
    assert_eq!(
        report.total_events, 1791,
        "Tracking hashmap persistence-event count changed: bucket-op or \
         resize instruction placement moved. If intentional, update this pin."
    );
    assert!(report.points_run > 0, "0.1 sample selected nothing");
    assert!(
        report.ok(),
        "sampled hashmap sweep found violations: {:?}",
        report.violations
    );
}

/// Counting is idempotent and replay-independent: two sweeps of the same
/// configuration see the same `N` and the same per-point outcomes.
#[test]
fn sweep_is_deterministic_across_runs() {
    let mut cfg = pinned_cfg(StructureKind::List, AlgoKind::Tracking);
    cfg.sample = 0.05;
    let a = run_sweep(&cfg);
    let b = run_sweep(&cfg);
    assert_eq!(a.total_events, b.total_events);
    assert_eq!(a.points_run, b.points_run);
    assert!(a.ok() && b.ok());
}

/// The seeded adversary must also recover cleanly on a sampled Tracking
/// sweep (partial cache-line survival instead of maximal loss).
#[test]
fn seeded_adversary_sampled_sweep_is_clean() {
    let mut cfg = pinned_cfg(StructureKind::Stack, AlgoKind::Tracking);
    cfg.adversary = AdversaryKind::Seeded;
    cfg.sample = 0.2;
    let report = run_sweep(&cfg);
    assert!(
        report.ok(),
        "seeded stack sweep found violations: {:?}",
        report.violations
    );
}

/// Masked-site pins: disabling a `pwb` site removes exactly its events
/// from the crash-point space, and the resulting total is stable. The
/// masked totals are pinned absolutely (not just as deltas) so that a
/// placement change hiding behind a compensating change elsewhere still
/// trips a pin. Both placements of the Tracking list are pinned: the
/// paper's (`pwb(CP_q)` in the system step and the prologue) and the lean
/// one (in the system step only).
#[test]
fn masked_site_event_totals_are_pinned() {
    for (algo, [unmasked, no_cp, no_result]) in [
        (AlgoKind::TrackingPaper, [319, 308, 316]),
        (AlgoKind::Tracking, [264, 258, 261]),
    ] {
        let name = algo.name();
        let mut cfg = pinned_cfg(StructureKind::List, algo);
        cfg.sample = 0.0; // count only
        let full = run_sweep(&cfg);
        assert_eq!(full.total_events, unmasked, "{name}: unmasked pin moved");

        cfg.site_mask = !(1 << tracking::sites::S_CP.0);
        let masked = run_sweep(&cfg);
        assert_eq!(masked.total_events, no_cp, "{name}: masked S_CP pin moved");

        cfg.site_mask = !(1 << tracking::sites::S_RESULT.0);
        let masked = run_sweep(&cfg);
        assert_eq!(
            masked.total_events, no_result,
            "{name}: masked S_RESULT pin moved"
        );
    }
}

/// Hashes a trace stream's observable content (everything but the seq
/// numbers, which per-thread banking makes allocation-order dependent):
/// kind, site, line, thread and dirty annotation of every retained event,
/// in global order. Two runs with equal hashes executed bit-identical
/// instrumented event streams.
///
/// Threads are numbered by their first appearance in the stream, not by
/// their trace tid: trace tids are process-wide, so the threads of other
/// tests in the same binary would shift them.
fn stream_hash(snap: &pmem::TraceSnapshot) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325; // FNV-1a
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x100000001b3);
    };
    let mut threads = Vec::new();
    for e in &snap.events {
        let thread = match threads.iter().position(|&t| t == e.tid) {
            Some(i) => i,
            None => {
                threads.push(e.tid);
                threads.len() - 1
            }
        };
        mix(e.kind.label().len() as u64 ^ (e.kind as u64) << 8);
        mix(e.site as u64);
        mix(e.line as u64);
        mix(thread as u64);
        mix(e.dirty as u64);
    }
    mix(snap.dropped);
    h
}

/// Runs the pinned deterministic single-thread scripted workload against a
/// traced Model pool and returns the stream hash. `flushopt` selects the
/// elision layer; `false` must reproduce the PR 8 streams bit-for-bit.
fn pinned_stream(algo: AlgoKind, flushopt: bool) -> u64 {
    use pmem::{PmemPool, PoolCfg, ThreadCtx};
    let pool = std::sync::Arc::new(PmemPool::new(PoolCfg {
        trace: true,
        flushopt,
        ..PoolCfg::model(16 << 20)
    }));
    let ctx = ThreadCtx::new(pool.clone(), 0);
    let set = bench::build(algo, pool.clone(), 1, 32);
    let mut rng = PIN_SEED;
    for i in 0..24u64 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = rng >> 33 & 31;
        match i % 4 {
            0 | 1 => {
                set.insert(&ctx, key);
            }
            2 => {
                set.delete(&ctx, key);
            }
            _ => {
                set.find(&ctx, key);
            }
        }
    }
    stream_hash(&pool.trace_snapshot())
}

/// A crash-free traced put/remove/get script on the sweep geometry
/// ([`bench::subject::HASHMAP_SWEEP_CFG`]). Returns the stream hash and the
/// bucket count before and after the script.
fn pinned_hashmap_stream() -> (u64, u64, u64) {
    use pmem::{PmemPool, PoolCfg, ThreadCtx};
    use tracking::hashmap::RecoverableHashMap;
    let pool = std::sync::Arc::new(PmemPool::new(PoolCfg {
        trace: true,
        trace_capacity: 1 << 16,
        ..PoolCfg::model(16 << 20)
    }));
    let ctx = ThreadCtx::new(pool.clone(), 0);
    let map = RecoverableHashMap::with_config(pool.clone(), 0, bench::subject::HASHMAP_SWEEP_CFG);
    let before = map.bucket_count();
    let mut rng = PIN_SEED;
    for i in 0..32u64 {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = (rng >> 33) % 24 + 1;
        match i % 4 {
            0 | 1 => {
                map.put(&ctx, key, key * 10);
            }
            2 => {
                map.remove(&ctx, key);
            }
            _ => {
                map.get(&ctx, key);
            }
        }
    }
    let snap = pool.trace_snapshot();
    assert_eq!(snap.dropped, 0, "the trace ring must retain the whole run");
    (stream_hash(&snap), before, map.bucket_count())
}

/// The flushopt-off event streams are bit-identical to PR 8: with the
/// elision layer disabled (the default), every store/pwb/fence takes
/// exactly the code path it took before `pmem::flushopt` existed, pinned
/// here as a content hash over the full trace of a scripted Tracking run
/// (in the paper's placement, which PR 8 ran) and a scripted Capsules
/// (Full-persist) run. If either hash moves, the flushopt-off path is no
/// longer a bystander — that is a regression, not a pin to update lightly.
/// The lean Tracking placement's stream and the Tracking BST's are pinned
/// beside them.
#[test]
fn flushopt_off_streams_are_bit_identical_to_pr8() {
    assert_eq!(
        pinned_stream(AlgoKind::TrackingPaper, false),
        TRACKING_PR8_STREAM_HASH,
        "Tracking[paper] flushopt-off stream diverged from PR 8"
    );
    assert_eq!(
        pinned_stream(AlgoKind::Capsules, false),
        CAPSULES_PR8_STREAM_HASH,
        "Capsules flushopt-off stream diverged from PR 8"
    );
    assert_eq!(
        pinned_stream(AlgoKind::Tracking, false),
        TRACKING_LEAN_STREAM_HASH,
        "lean Tracking flushopt-off stream moved"
    );
    assert_eq!(
        pinned_stream(AlgoKind::TrackingBst, false),
        TRACKING_BST_STREAM_HASH,
        "Tracking-BST flushopt-off stream moved"
    );
}

const TRACKING_PR8_STREAM_HASH: u64 = 1931165606446196522;
const CAPSULES_PR8_STREAM_HASH: u64 = 16994248641333252118;
const TRACKING_LEAN_STREAM_HASH: u64 = 2419197221114425761;
const TRACKING_BST_STREAM_HASH: u64 = 6669449963082274064;
const TRACKING_HASHMAP_STREAM_HASH: u64 = 14812654398093830758;

/// A masked site is invisible at the substrate level, not just in sweep
/// accounting: its `pwb` neither ticks the crash countdown, nor records a
/// trace event, nor counts in the per-site stats.
#[test]
fn masked_site_is_invisible_at_pool_level() {
    use pmem::{run_crashable, PmemPool, PoolCfg, SiteId};
    let pool = PmemPool::new(PoolCfg {
        trace: true,
        ..PoolCfg::model(1 << 20)
    });
    let a = pool.alloc_lines(1);
    pool.store(a, 1);
    let site = SiteId(7);
    pool.set_site_enabled(site, false);

    let events_before = pool.trace_snapshot().total();
    pool.crash_ctl().arm_after(0); // the very next counted event fires
    pool.pwb(a, site); // masked: must not be that event
    assert!(
        !pool.crash_ctl().raised(),
        "masked pwb ticked the crash countdown"
    );
    assert_eq!(
        pool.trace_snapshot().total(),
        events_before,
        "masked pwb recorded a trace event"
    );
    assert_eq!(pool.stats().pwb_at(site), 0, "masked pwb was counted");

    // The countdown is still pending: the next *unmasked* event fires it
    // (and the crash preempts the fence, so nothing is traced for it).
    assert!(run_crashable(|| pool.psync()).is_none());

    // Re-enabled, the same call is visible again.
    pool.set_site_enabled(site, true);
    pool.pwb(a, site);
    assert_eq!(pool.stats().pwb_at(site), 1);
    assert_eq!(pool.trace_snapshot().total(), events_before + 1); // the pwb
}
