//! Checkpoint-engine equivalence, per structure family.
//!
//! The checkpointed sweep engine (`bench::sweep` with `cfg.checkpoint`)
//! replays each crash point from a pool snapshot instead of rebuilding the
//! structure from scratch, and its restore path is *incremental*: only the
//! cache lines the previous replay touched are rewritten, and crash
//! resolution scans only that footprint. These tests assert the strongest
//! available equivalence for every structure family: with `paranoia = 1.0`
//! every single replayed point is re-run from scratch, traced, and the two
//! engines must agree on the verdict *and* produce byte-identical
//! pre-crash event streams. Any divergence — a stale line the incremental
//! restore missed, an adversary RNG stream shifted by the bounded crash
//! scan — lands in `violations` and fails the run.

use bench::sweep::{run_palloc_sweep, run_sweep, AdversaryKind, SweepCfg};
use bench::{AlgoKind, StructureKind};

fn assert_engines_equivalent(structure: StructureKind, algo: AlgoKind, adversary: AdversaryKind) {
    assert_engines_equivalent_reclaim(structure, algo, adversary, false)
}

fn assert_engines_equivalent_reclaim(
    structure: StructureKind,
    algo: AlgoKind,
    adversary: AdversaryKind,
    reclaim: bool,
) {
    let mut cfg = SweepCfg::new(structure, algo);
    cfg.script_len = 5;
    cfg.pool_bytes = 4 << 20;
    cfg.adversary = adversary;
    cfg.checkpoint = true;
    cfg.paranoia = 1.0;
    cfg.reclaim = reclaim;
    let ck = run_sweep(&cfg);
    assert!(
        ck.ok(),
        "{}/{}: checkpointed sweep diverged or failed: {:?}",
        structure.name(),
        algo.name(),
        ck.violations
    );
    assert_eq!(
        ck.paranoia_checked, ck.points_run,
        "paranoia 1.0 must cross-check every replayed point"
    );

    // The from-scratch engine over the same space agrees on its shape.
    let scratch = run_sweep(&SweepCfg {
        checkpoint: false,
        paranoia: 0.0,
        ..cfg
    });
    assert!(scratch.ok());
    assert_eq!(ck.total_events, scratch.total_events);
    assert_eq!(ck.points_run, scratch.points_run);
}

/// List family, seeded adversary: partial-line survival exercises the
/// bounded crash scan's "clean lines consume no adversary choice"
/// invariant — a scan-order difference between the engines would shift
/// the RNG stream and change crash resolutions.
#[test]
fn list_checkpoint_engine_is_equivalent() {
    assert_engines_equivalent(
        StructureKind::List,
        AlgoKind::Tracking,
        AdversaryKind::Seeded,
    );
}

/// Queue family, pessimist adversary (maximal loss of unflushed lines).
#[test]
fn queue_checkpoint_engine_is_equivalent() {
    assert_engines_equivalent(
        StructureKind::Queue,
        AlgoKind::Tracking,
        AdversaryKind::Pessimist,
    );
}

/// Exchanger family: the deepest per-op event streams (two-sided
/// handshake), and the family whose checkpoints are sparsest.
#[test]
fn exchanger_checkpoint_engine_is_equivalent() {
    assert_engines_equivalent(
        StructureKind::Exchanger,
        AlgoKind::Tracking,
        AdversaryKind::Pessimist,
    );
}

/// Hashmap family, pessimist adversary: the sweep config (2 buckets,
/// max-chain 2) drives the scripted puts through bucket migrations, so the
/// incremental restore must reproduce level headers, migration cursors and
/// move descriptors exactly — a stale `H_NEXT` or cursor line would send
/// the replayed recovery down a different (still-migrating vs finished)
/// path than the scratch engine's.
#[test]
fn hashmap_checkpoint_engine_is_equivalent() {
    assert_engines_equivalent(
        StructureKind::Hashmap,
        AlgoKind::Tracking,
        AdversaryKind::Pessimist,
    );
}

/// Hashmap on a reclaim pool: migrated-out originals and sealed sentinels
/// retire into limbo, so the per-thread allocator metadata joins the
/// checkpointed footprint.
#[test]
fn churn_hashmap_checkpoint_engine_is_equivalent() {
    assert_engines_equivalent_reclaim(
        StructureKind::Hashmap,
        AlgoKind::Tracking,
        AdversaryKind::Seeded,
        true,
    );
}

/// Allocator-churn list on a reclaim pool: deletes retire nodes into
/// limbo, op boundaries drain it, and every verdict audits the free
/// lists — so the allocator's instrumented events join the sweep's event
/// space and the incremental restore must reproduce the per-thread
/// allocator metadata lines exactly. A stale free-list head or a drain
/// replayed against an un-restored limbo line would diverge the engines.
#[test]
fn churn_list_checkpoint_engine_is_equivalent() {
    assert_engines_equivalent_reclaim(
        StructureKind::List,
        AlgoKind::Tracking,
        AdversaryKind::Seeded,
        true,
    );
}

/// The allocator's own crash-sweep subject (alloc/retire/drain script over
/// a persistent owned list), checkpoint vs scratch with every point
/// cross-checked.
#[test]
fn palloc_checkpoint_engine_is_equivalent() {
    let mut cfg = SweepCfg::new(StructureKind::List, AlgoKind::Tracking);
    cfg.script_len = 6;
    cfg.pool_bytes = 4 << 20;
    cfg.adversary = AdversaryKind::Seeded;
    cfg.checkpoint = true;
    cfg.paranoia = 1.0;
    let ck = run_palloc_sweep(&cfg);
    assert!(
        ck.ok(),
        "palloc: checkpointed sweep diverged or failed: {:?}",
        ck.violations
    );
    assert_eq!(ck.paranoia_checked, ck.points_run);

    let scratch = run_palloc_sweep(&SweepCfg {
        checkpoint: false,
        paranoia: 0.0,
        ..cfg
    });
    assert!(scratch.ok());
    assert_eq!(ck.total_events, scratch.total_events);
    assert_eq!(ck.points_run, scratch.points_run);
}
