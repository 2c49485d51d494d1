//! End-to-end checks of the deterministic concurrent-schedule explorer
//! (`bench::explore`) across the structure × algorithm × strategy matrix.
//!
//! The explorer's claims, verified here from the outside:
//!
//! 1. every schedulable pair linearizes under every strategy (the
//!    zero-violation matrix committed under `results/explore/` is
//!    reproducible),
//! 2. schedules are deterministic — the same configuration replays the
//!    identical event counts and verdicts, which is what makes a crash
//!    point `(schedule, k)` addressable at all,
//! 3. injected crashes actually interrupt concurrent operations (the
//!    crashed-thread counts prove multiple threads were in flight), and
//!    recovery still produces a linearizable history,
//! 4. sharding partitions the schedule grid without changing any verdict.

use bench::explore::{run_explore, CrashMode, ExploreCfg};
use bench::registry;
use bench::sweep::AdversaryKind;
use bench::{AlgoKind, StructureKind};

fn quick_cfg(structure: StructureKind, algo: AlgoKind) -> ExploreCfg {
    let mut cfg = ExploreCfg::new(structure, algo);
    cfg.pool_bytes = 8 << 20;
    cfg.schedules = 2;
    cfg.crash = CrashMode::Sampled { per_schedule: 2 };
    cfg
}

/// The full lineup at 2 threads: every structure family, every registered
/// implementation in its lineup (Romulus included, schedulable through the
/// spin-yield channel), all three strategies, with crash injection.
#[test]
fn full_matrix_linearizes_with_crash_injection() {
    for structure in StructureKind::all() {
        for pair in registry::select(&[structure], None).unwrap() {
            let algo = pair.algo;
            let report = run_explore(&quick_cfg(structure, algo));
            assert!(
                report.ok(),
                "{}/{} violations: {:?}",
                structure.name(),
                algo.name(),
                report.violations
            );
            assert_eq!(report.runs, 6, "3 strategies x 2 schedules");
            assert!(
                report.crash_runs > 0,
                "{}/{} injected no crashes",
                structure.name(),
                algo.name()
            );
        }
    }
}

/// Romulus used to be the one non-schedulable competitor (blocking writer
/// mutex + volatile seqlock reader spin); the spin-yield channel
/// (`pmem::yield_spin` inside both wait loops) made it schedulable, so
/// the full list lineup participates in exploration.
#[test]
fn romulus_is_schedulable_via_the_spin_channel() {
    let lineup = registry::select(&[StructureKind::List], None).unwrap();
    let algos: Vec<AlgoKind> = lineup.iter().map(|e| e.algo).collect();
    assert!(algos.contains(&AlgoKind::Romulus));
    // The whole paper lineup is schedulable.
    assert_eq!(algos, AlgoKind::paper_lineup());
}

/// Determinism: identical configurations replay identical schedules —
/// same per-run event counts, same verdicts, byte-identical CSV.
#[test]
fn schedules_replay_deterministically() {
    let cfg = quick_cfg(StructureKind::List, AlgoKind::Tracking);
    let a = run_explore(&cfg);
    let b = run_explore(&cfg);
    assert!(a.ok() && b.ok());
    assert_eq!(a.total_events, b.total_events);
    assert_eq!(a.csv.to_text(), b.csv.to_text());

    // A different seed explores different interleavings (event totals may
    // coincide per-strategy, but the whole CSV matching would mean the
    // seed is dead).
    let reseeded = ExploreCfg {
        seed: cfg.seed ^ 0xFFFF,
        ..cfg
    };
    let c = run_explore(&reseeded);
    assert!(c.ok());
    assert_ne!(a.csv.to_text(), c.csv.to_text());
}

/// Crash injection interrupts genuinely concurrent executions: with two
/// threads mid-script, a broadcast crash must regularly catch both with an
/// operation in flight, and recovery must linearize under both adversaries.
#[test]
fn injected_crashes_interrupt_concurrent_operations() {
    for adversary in [AdversaryKind::Pessimist, AdversaryKind::Seeded] {
        let mut cfg = quick_cfg(StructureKind::Queue, AlgoKind::Tracking);
        cfg.adversary = adversary;
        cfg.crash = CrashMode::Sampled { per_schedule: 4 };
        let report = run_explore(&cfg);
        assert!(
            report.ok(),
            "{:?} violations: {:?}",
            adversary,
            report.violations
        );
        assert!(report.crash_runs >= 6);
    }
}

/// Three-thread schedules exercise the checker's frontier pruning with a
/// genuinely concurrent 3-way history on the contended set.
#[test]
fn three_thread_set_schedules_linearize() {
    let mut cfg = quick_cfg(StructureKind::List, AlgoKind::Capsules);
    cfg.threads = 3;
    cfg.ops_per_thread = 3;
    let report = run_explore(&cfg);
    assert!(report.ok(), "violations: {:?}", report.violations);
}

/// Resize-vs-insert: two threads over the aggressive sweep table (2
/// buckets, max-chain 2), long enough scripts that thread 0's all-put
/// stream triggers a resize while thread 1 keeps inserting and removing
/// (guarded by `explore_map_scripts_reach_a_resize` in bench). Crash
/// injection lands points inside the migration. The full CSV is pinned as
/// a golden file: any change to the hashmap's event placement, the
/// scheduler, or the crash-point sampling shows up as a diff here — if
/// intentional, regenerate the golden and say so in the commit message.
#[test]
fn hashmap_resize_vs_insert_schedule_matches_golden() {
    let mut cfg = quick_cfg(StructureKind::Hashmap, AlgoKind::Tracking);
    cfg.ops_per_thread = 12;
    let report = run_explore(&cfg);
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.crash_runs > 0, "no crash-injected runs");
    assert_eq!(
        report.csv.to_text(),
        include_str!("../golden/explore_hashmap_resize_t2.csv"),
        "resize-vs-insert schedule CSV diverged from the committed golden"
    );
}

/// The same resize-vs-insert mix at three threads (two inserters against
/// the resize-triggering putter) still linearizes under crash injection.
#[test]
fn hashmap_three_thread_resize_schedules_linearize() {
    let mut cfg = quick_cfg(StructureKind::Hashmap, AlgoKind::Tracking);
    cfg.threads = 3;
    cfg.ops_per_thread = 8;
    let report = run_explore(&cfg);
    assert!(report.ok(), "violations: {:?}", report.violations);
    assert!(report.crash_runs > 0);
}

/// Sharding covers the grid exactly once and never changes a verdict.
#[test]
fn shards_partition_the_grid_without_changing_verdicts() {
    let mut cfg = quick_cfg(StructureKind::Exchanger, AlgoKind::Tracking);
    cfg.crash = CrashMode::Off;
    let full = run_explore(&cfg);
    assert!(full.ok());
    let mut sharded_runs = 0;
    cfg.shard_count = 2;
    for i in 0..2 {
        cfg.shard_index = i;
        let part = run_explore(&cfg);
        assert!(part.ok(), "shard {i} violations: {:?}", part.violations);
        sharded_runs += part.runs;
    }
    assert_eq!(sharded_runs, full.runs);
}
