//! Pool- and algorithm-level behavior of the flush-elision layer
//! (`pmem::flushopt`, armed with `PoolCfg::flushopt`).
//!
//! The layer's unit tests (in `pmem`) cover its state machine in
//! isolation; these tests check the *wiring*: that elision and coalescing
//! are counted where the stats say, that a deferred flush is never
//! silently treated as durable (the lint and the crash model both still
//! see the line as dirty until the draining fence runs), and that the
//! Capsules Full-persist list — the traverse-heavy workload the layer was
//! built for — actually sheds its redundant flushes without changing a
//! single operation result.

use std::sync::Arc;

use pmem::{LintKind, PessimistAdversary, PmemPool, PoolCfg, SiteId, ThreadCtx};

fn flushopt_pool(bytes: usize) -> PmemPool {
    PmemPool::new(PoolCfg {
        flushopt: true,
        ..PoolCfg::model(bytes)
    })
}

/// A `pwb` of a line flushed-and-fenced since its last store executes
/// nothing and is counted as elided; a re-dirtied line defers, coalesces
/// duplicates, and drains exactly one real flush at the fence.
#[test]
fn elision_and_coalescing_are_counted_and_sound() {
    let pool = flushopt_pool(1 << 20);
    let a = pool.alloc_lines(1);
    let site = SiteId(3);

    pool.store(a, 7);
    pool.pwb(a, site); // dirty: parked in the combining buffer
    let s = pool.stats();
    assert_eq!(s.pwb_at(site), 0, "a deferred pwb must not execute yet");
    pool.psync(); // drains: the one real flush happens here
    let s = pool.stats();
    assert_eq!(s.pwb_at(site), 1);
    assert_eq!(s.pwb_elided_total(), 0);

    pool.pwb(a, site); // clean line: elided
    pool.pwb(a, site); // still elided
    let s = pool.stats();
    assert_eq!(s.pwb_at(site), 1, "re-flush of a clean line executed");
    assert_eq!(s.pwb_elided_total(), 2);

    pool.store(a, 8); // re-dirty
    pool.pwb(a, site); // deferred again
    pool.pwb(a, site); // coalesced into the buffered entry
    pool.psync();
    let s = pool.stats();
    assert_eq!(s.pwb_at(site), 2, "one drained flush per dirty line");
    assert_eq!(s.pwb_elided_total(), 3, "the coalesced duplicate counts");

    // Durability: the drained flush really committed the store.
    pool.crash(&mut PessimistAdversary);
    assert_eq!(pool.load(a), 8, "drained flush lost the line");
}

/// Fences elide only inside a coalescible region and only when nothing —
/// buffered or executed-but-unfenced — is pending; everywhere else they
/// execute in full.
#[test]
fn fences_coalesce_only_inside_regions_with_no_obligations() {
    let pool = flushopt_pool(1 << 20);
    let a = pool.alloc_lines(1);
    pool.store(a, 1);
    pool.pwb(a, SiteId(1));
    pool.psync(); // drain; everything clean and fenced now
    let base = pool.stats();

    // Outside any region: an identity fence still executes.
    pool.psync();
    let s = pool.stats();
    assert_eq!(s.psync, base.psync + 1);
    assert_eq!(s.psync_coalesced, base.psync_coalesced);

    {
        let _region = pool.coalesce_fences();
        pool.psync(); // identity: coalesced away
        pool.pfence(); // likewise
        let s = pool.stats();
        assert_eq!(s.psync, base.psync + 1, "in-region identity fence ran");
        assert_eq!(s.psync_coalesced, base.psync_coalesced + 2);

        // A deferred pwb is an obligation: the next fence must execute
        // (and drain) even inside the region.
        pool.store(a, 2);
        pool.pwb(a, SiteId(1));
        pool.psync();
        let s = pool.stats();
        assert_eq!(s.psync, base.psync + 2, "draining fence was elided");
        assert_eq!(s.psync_coalesced, base.psync_coalesced + 2);
    }

    // Region closed: identity fences execute again.
    pool.psync();
    let s = pool.stats();
    assert_eq!(s.psync, base.psync + 3);
    assert_eq!(s.psync_coalesced, base.psync_coalesced + 2);
}

/// A crash between a deferred `pwb` and the fence that would have drained
/// it must lose the line — and the lint must still report it as
/// unflushed-dirty. The buffer parks the flush; it never *performs* it, so
/// neither the crash model nor the lint may treat the line as written
/// back. (This is the "deferral is not durability" half of the soundness
/// argument; the elision half is the elided-dirty-pwb cross-check.)
#[test]
fn crash_between_deferred_pwb_and_fence_loses_the_line_loudly() {
    let pool = PmemPool::new(PoolCfg {
        flushopt: true,
        lint: true,
        ..PoolCfg::model(1 << 20)
    });
    let a = pool.alloc_lines(1);
    pool.store(a, 99);
    pool.pwb(a, SiteId(4)); // parked in the combining buffer
    assert_eq!(pool.stats().pwb_at(SiteId(4)), 0);

    pool.crash(&mut PessimistAdversary);
    assert_eq!(
        pool.load(a),
        0,
        "a never-executed (deferred) pwb must not persist the store"
    );
    let report = pool.lint_report();
    assert!(
        report
            .of_kind(LintKind::UnflushedDirty)
            .any(|d| d.line == a.line()),
        "lint lost track of the line parked in the combining buffer: {:?}",
        report.diags
    );
}

/// The Capsules Full-persist list sheds its redundant traverse flushes
/// under the layer — with bit-identical operation results to the layer-off
/// run, and the elided volume accounted at the traverse site.
#[test]
fn capsules_full_elides_traverse_flushes_without_changing_results() {
    let run = |flushopt: bool| {
        let pool = Arc::new(PmemPool::new(PoolCfg {
            flushopt,
            ..PoolCfg::model(16 << 20)
        }));
        let ctx = ThreadCtx::new(pool.clone(), 0);
        let set = bench::build(bench::AlgoKind::Capsules, pool.clone(), 1, 32);
        let mut results = Vec::new();
        let mut rng = 0x0BAD_5EEDu64;
        for i in 0..96u64 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = (rng >> 33) % 30 + 1;
            results.push(match i % 4 {
                0 | 1 => set.insert(&ctx, key),
                2 => set.delete(&ctx, key),
                _ => set.find(&ctx, key),
            });
        }
        (results, pool.stats())
    };

    let (off_results, off_stats) = run(false);
    let (on_results, on_stats) = run(true);
    assert_eq!(
        off_results, on_results,
        "flushopt changed operation results"
    );

    let traverse = capsules::sites::C_TRAVERSE;
    assert!(
        on_stats.pwb_at(traverse) * 5 <= off_stats.pwb_at(traverse),
        "traverse flushes should drop >=5x: {} -> {}",
        off_stats.pwb_at(traverse),
        on_stats.pwb_at(traverse)
    );
    assert!(
        on_stats.pwb_elided_per_site[traverse.0 as usize] > 0,
        "elisions must be attributed to the traverse site"
    );
    assert!(
        on_stats.psync_coalesced > 0,
        "the traverse region's identity fences should coalesce"
    );
    assert!(
        on_stats.pwb_total() <= off_stats.pwb_total(),
        "the layer may only remove flushes"
    );
}
