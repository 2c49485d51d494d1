//! A uniform set interface over all evaluated implementations, and the
//! structure and algorithm kinds the [`crate::registry`] pairs.

use pmem::{SiteId, ThreadCtx};

/// The concurrent-set operations every evaluated algorithm exposes, plus
/// the metadata the categorization experiments need (its `pwb` site table).
pub trait SetAlgo: Send + Sync {
    /// Inserts `key`; `false` if present.
    fn insert(&self, ctx: &ThreadCtx, key: u64) -> bool;
    /// Deletes `key`; `false` if absent.
    fn delete(&self, ctx: &ThreadCtx, key: u64) -> bool;
    /// Is `key` present?
    fn find(&self, ctx: &ThreadCtx, key: u64) -> bool;
    /// [`Self::insert`] without the system's `CP_q := 0` pre-step (crash
    /// harnesses call [`ThreadCtx::begin_op`] themselves).
    fn insert_started(&self, ctx: &ThreadCtx, key: u64) -> bool;
    /// [`Self::delete`] without the system's `CP_q := 0` pre-step.
    fn delete_started(&self, ctx: &ThreadCtx, key: u64) -> bool;
    /// `Insert.Recover` — the recovery function after a crash during insert.
    fn recover_insert(&self, ctx: &ThreadCtx, key: u64) -> bool;
    /// `Delete.Recover`.
    fn recover_delete(&self, ctx: &ThreadCtx, key: u64) -> bool;
    /// `Find.Recover`.
    fn recover_find(&self, ctx: &ThreadCtx, key: u64) -> bool;
    /// Post-crash structural repair (Romulus' region recovery); a no-op for
    /// the lock-free algorithms.
    fn recover_structure(&self) {}
    /// The algorithm's `pwb` call sites (id, name).
    fn sites(&self) -> &'static [(SiteId, &'static str)];
    /// Quiescent key count (sanity checking between runs).
    fn len(&self) -> usize;
    /// Is the set empty (quiescent)?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The implementations of the paper's evaluation, Figure 3a's legend.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AlgoKind {
    /// The paper's contribution applied to the sorted linked list (§4), in
    /// the lean persistence placement (DESIGN.md §7).
    Tracking,
    /// The Tracking list in the paper's own persistence placement: what
    /// the figure drivers reproducing the paper run.
    TrackingPaper,
    /// Tracking applied to the external BST (§6) — extra datapoint, not in
    /// the paper's figures.
    TrackingBst,
    /// Ablation: the paper's Tracking list with the naive
    /// flush-every-shared-read placement (what the paper's
    /// persistence-instruction scheme avoids).
    TrackingNaive,
    /// Ablation: the paper's Tracking list without its read-only
    /// optimization.
    TrackingNoReadOpt,
    /// Flat-combining detectable variant of the queue/stack shapes
    /// (`tracking::CombiningQueue` / `CombiningStack`) — not a set
    /// implementation; the registry pairs it with those two shapes only.
    TrackingComb,
    /// Capsules + full durability transformation.
    Capsules,
    /// Hand-tuned Capsules-Opt.
    CapsulesOpt,
    /// Romulus-style blocking durable TM.
    Romulus,
    /// RedoOpt-style wait-free universal construction.
    RedoOpt,
    /// OneFile-style wait-free persistent TM (measured in the paper but
    /// dominated by RedoOpt, hence absent from its figures).
    OneFile,
}

impl AlgoKind {
    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<AlgoKind> {
        Some(match s {
            "tracking" => AlgoKind::Tracking,
            "tracking-paper" => AlgoKind::TrackingPaper,
            "tracking-bst" => AlgoKind::TrackingBst,
            "tracking-naive" => AlgoKind::TrackingNaive,
            "tracking-no-read-opt" => AlgoKind::TrackingNoReadOpt,
            "tracking-comb" => AlgoKind::TrackingComb,
            "capsules" => AlgoKind::Capsules,
            "capsules-opt" => AlgoKind::CapsulesOpt,
            "romulus" => AlgoKind::Romulus,
            "redo-opt" | "redoopt" => AlgoKind::RedoOpt,
            "onefile" | "one-file" => AlgoKind::OneFile,
            _ => return None,
        })
    }

    /// Display name (matches the paper's legends).
    pub fn name(self) -> &'static str {
        match self {
            AlgoKind::Tracking => "Tracking",
            AlgoKind::TrackingPaper => "Tracking[paper]",
            AlgoKind::TrackingBst => "Tracking-BST",
            AlgoKind::TrackingNaive => "Tracking[naive-flush]",
            AlgoKind::TrackingNoReadOpt => "Tracking[no-read-opt]",
            AlgoKind::TrackingComb => "Tracking-Comb",
            AlgoKind::Capsules => "Capsules",
            AlgoKind::CapsulesOpt => "Capsules-Opt",
            AlgoKind::Romulus => "Romulus",
            AlgoKind::RedoOpt => "RedoOpt",
            AlgoKind::OneFile => "OneFile",
        }
    }

    /// The five list-based competitors of Figures 3–4, Tracking in the
    /// lean placement (the figure drivers draw it in the paper's,
    /// [`AlgoKind::TrackingPaper`]).
    pub fn paper_lineup() -> [AlgoKind; 5] {
        [
            AlgoKind::Tracking,
            AlgoKind::Capsules,
            AlgoKind::CapsulesOpt,
            AlgoKind::Romulus,
            AlgoKind::RedoOpt,
        ]
    }
}

/// The recoverable structure shapes the harness evaluates.
///
/// The set shapes (`List`, `Bst`) run every implementation through the
/// [`SetAlgo`] interface; the other shapes are Tracking-only structures
/// (`tracking::RecoverableQueue` / `RecoverableStack` /
/// `RecoverableExchanger` / `RecoverableHashMap`, plus the flat-combining
/// queue and stack). [`crate::registry`] lists which pairs exist.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum StructureKind {
    /// Sorted linked-list set (the paper's running example, §4).
    List,
    /// External binary search tree set (§6).
    Bst,
    /// Durable FIFO queue.
    Queue,
    /// Durable LIFO stack.
    Stack,
    /// Durable elimination exchanger.
    Exchanger,
    /// Resizable hash-table map (`tracking::RecoverableHashMap`): bucket
    /// ops *and* the Clevel-style resize protocol run through Tracking, so
    /// the sweep injects crashes mid-migration as well as mid-operation.
    Hashmap,
}

impl StructureKind {
    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<StructureKind> {
        Some(match s {
            "list" => StructureKind::List,
            "bst" => StructureKind::Bst,
            "queue" => StructureKind::Queue,
            "stack" => StructureKind::Stack,
            "exchanger" => StructureKind::Exchanger,
            "hashmap" | "map" => StructureKind::Hashmap,
            _ => return None,
        })
    }

    /// CLI / report name.
    pub fn name(self) -> &'static str {
        match self {
            StructureKind::List => "list",
            StructureKind::Bst => "bst",
            StructureKind::Queue => "queue",
            StructureKind::Stack => "stack",
            StructureKind::Exchanger => "exchanger",
            StructureKind::Hashmap => "hashmap",
        }
    }

    /// Every shape, in sweep order.
    pub fn all() -> [StructureKind; 6] {
        [
            StructureKind::List,
            StructureKind::Bst,
            StructureKind::Queue,
            StructureKind::Stack,
            StructureKind::Exchanger,
            StructureKind::Hashmap,
        ]
    }
}

/// Implements [`SetAlgo`] for a set type by forwarding to its inherent
/// methods of the same names; `sites` is its `pwb` site table.
macro_rules! set_algo {
    ($ty:ty, $sites:expr $(, recover_structure: $recover:expr)?) => {
        impl SetAlgo for $ty {
            fn insert(&self, ctx: &ThreadCtx, key: u64) -> bool {
                <$ty>::insert(self, ctx, key)
            }
            fn delete(&self, ctx: &ThreadCtx, key: u64) -> bool {
                <$ty>::delete(self, ctx, key)
            }
            fn find(&self, ctx: &ThreadCtx, key: u64) -> bool {
                <$ty>::find(self, ctx, key)
            }
            fn insert_started(&self, ctx: &ThreadCtx, key: u64) -> bool {
                <$ty>::insert_started(self, ctx, key)
            }
            fn delete_started(&self, ctx: &ThreadCtx, key: u64) -> bool {
                <$ty>::delete_started(self, ctx, key)
            }
            fn recover_insert(&self, ctx: &ThreadCtx, key: u64) -> bool {
                <$ty>::recover_insert(self, ctx, key)
            }
            fn recover_delete(&self, ctx: &ThreadCtx, key: u64) -> bool {
                <$ty>::recover_delete(self, ctx, key)
            }
            fn recover_find(&self, ctx: &ThreadCtx, key: u64) -> bool {
                <$ty>::recover_find(self, ctx, key)
            }
            $(fn recover_structure(&self) {
                ($recover)(self)
            })?
            fn sites(&self) -> &'static [(SiteId, &'static str)] {
                &$sites
            }
            fn len(&self) -> usize {
                self.keys().len()
            }
        }
    };
}

set_algo!(tracking::RecoverableList, tracking::sites::SITES);
set_algo!(tracking::RecoverableBst, tracking::sites::SITES);
set_algo!(capsules::CapsulesList, capsules::sites::SITES);
set_algo!(redo::RedoSet, redo::sites::SITES);
set_algo!(onefile::OneFileList, onefile::sites::SITES);
set_algo!(
    romulus::RomulusList,
    romulus::sites::SITES,
    recover_structure: |l: &romulus::RomulusList| l.tm().recover()
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{build, entries};
    use pmem::{PmemPool, PoolCfg};
    use std::sync::Arc;

    /// Every registered set pair builds through [`build`] and operates.
    #[test]
    fn every_kind_builds_and_operates() {
        let sets =
            entries().filter(|e| matches!(e.structure, StructureKind::List | StructureKind::Bst));
        for e in sets {
            let name = e.name;
            let pool = Arc::new(PmemPool::new(PoolCfg::model(32 << 20)));
            let ctx = ThreadCtx::new(pool.clone(), 0);
            let s = build(e.algo, pool, 4, 500);
            assert!(s.insert(&ctx, 10), "{name}");
            assert!(s.find(&ctx, 10), "{name}");
            assert!(s.delete(&ctx, 10), "{name}");
            assert!(!s.find(&ctx, 10), "{name}");
            assert!(s.is_empty(), "{name}");
            assert!(!s.sites().is_empty(), "{name}");
        }
    }

    #[test]
    fn kind_names_roundtrip() {
        for kind in AlgoKind::paper_lineup() {
            let lower = kind.name().to_lowercase();
            assert_eq!(AlgoKind::parse(&lower), Some(kind));
        }
        assert_eq!(AlgoKind::parse("nope"), None);
    }
}
