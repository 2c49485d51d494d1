//! `pwb` call sites of the Tracking algorithms.
//!
//! Each constant names one code line of Algorithms 1–6 that issues a `pwb`.
//! The paper's evaluation (Section 5) measures the performance impact of
//! each such code line individually and sorts them into low / medium / high
//! impact categories; the benchmark harness drives those sweeps by enabling
//! and disabling these sites on the pool. The paper's qualitative finding —
//! `S_CP`, `S_RD`, `S_DESC`, `S_NEW` hit thread-private or
//! not-yet-shared lines and are cheap, while `S_TAG`/`S_UPDATE`/`S_CLEANUP`
//! hit contended shared lines — is exactly what the categorization
//! experiment re-derives empirically.

use pmem::SiteId;

/// `pwb(CP_q)` in the system's `CP_q := 0` step
/// ([`pmem::ThreadCtx::begin_op`]) and, in the paper's placement, in the
/// operation prologue (Alg. 1 line 5; Alg. 3 line 7; …).
pub const S_CP: SiteId = SiteId(0);
/// `pwb(RD_q)` after publishing the attempt's descriptor (Alg. 1 line 21)
/// and, in the paper's placement, in the prologue (Alg. 1 line 3).
pub const S_RD: SiteId = SiteId(1);
/// `pbarrier(*opInfo)` — flush of the freshly written descriptor
/// (Alg. 1 line 19; Alg. 3 line 28; Alg. 4 lines 69/87; Alg. 5 line 24).
pub const S_DESC: SiteId = SiteId(2);
/// `pbarrier(new nodes)` — flush of newly allocated, not-yet-shared nodes
/// (part of Alg. 1 line 19 / Alg. 3 line 28 / Alg. 5 line 24).
pub const S_NEW: SiteId = SiteId(3);
/// `pwb(nd→info)` after a tagging CAS (Alg. 2 line 36).
pub const S_TAG: SiteId = SiteId(4);
/// `pwb(nd→info)` in the backtrack phase (Alg. 2 line 42).
pub const S_BACKTRACK: SiteId = SiteId(5);
/// `pwb(updated field)` in the update phase (Alg. 2 line 51).
pub const S_UPDATE: SiteId = SiteId(6);
/// `pwb(opInfo→result)` (Alg. 2 line 53).
pub const S_RESULT: SiteId = SiteId(7);
/// `pwb(nd→info)` in the cleanup phase (Alg. 2 line 57).
pub const S_CLEANUP: SiteId = SiteId(8);
/// Exchanger only: the waiter persisting its node's `partner` field before
/// returning the exchanged value.
pub const S_PARTNER: SiteId = SiteId(9);
/// Ablation only ([`crate::list::ListConfig::traversal_flush`]): the naive
/// Izraelevitz-style `pwb; pfence` after every shared read of the gather
/// phase — the placement the paper's approach deliberately avoids.
pub const S_TRAVERSE: SiteId = SiteId(10);
/// Combining variants ([`crate::combining`]): `pwb` of a thread's announced
/// operation (its recovery line, one line, one `psync`).
pub const S_ANNOUNCE: SiteId = SiteId(11);
/// Combining variants: the combiner's coalesced `pwb` batch over a round's
/// fresh nodes and round record.
pub const S_COMB_ROUND: SiteId = SiteId(12);
/// Combining variants: `pwb` of the structure header publishing a round.
pub const S_COMB_PUBLISH: SiteId = SiteId(13);
/// Hash table ([`crate::hashmap`]): `pwb` of a level directory or of the
/// header line when a resize is published or finished.
pub const S_LEVEL: SiteId = SiteId(14);
/// Hash table: `pwb` of the migration cursor after a bucket is drained.
pub const S_CURSOR: SiteId = SiteId(15);

/// All Tracking sites with human-readable names, for harness reports.
pub const SITES: [(SiteId, &str); 16] = [
    (S_CP, "cp"),
    (S_RD, "rd"),
    (S_DESC, "desc"),
    (S_NEW, "new-node"),
    (S_TAG, "tag-info"),
    (S_BACKTRACK, "backtrack-info"),
    (S_UPDATE, "updated-field"),
    (S_RESULT, "result"),
    (S_CLEANUP, "cleanup-info"),
    (S_PARTNER, "partner"),
    (S_TRAVERSE, "traverse(ablation)"),
    (S_ANNOUNCE, "comb-announce"),
    (S_COMB_ROUND, "comb-round"),
    (S_COMB_PUBLISH, "comb-publish"),
    (S_LEVEL, "level"),
    (S_CURSOR, "migrate-cursor"),
];

/// Human-readable name of a Tracking site (or `"?"`).
pub fn site_name(s: SiteId) -> &'static str {
    SITES
        .iter()
        .find(|(id, _)| *id == s)
        .map(|(_, n)| *n)
        .unwrap_or("?")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_ids_are_unique() {
        for (i, (a, _)) in SITES.iter().enumerate() {
            for (b, _) in SITES.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn names_resolve() {
        assert_eq!(site_name(S_TAG), "tag-info");
        assert_eq!(site_name(SiteId(63)), "?");
    }
}
