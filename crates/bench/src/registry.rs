//! The subject registry: every (structure, algorithm) pair the harness
//! evaluates, listed once.
//!
//! Each [`Entry`] names a pair, says which runs include it by default
//! ([`VERIFY`], [`BASELINE`], [`THROUGHPUT`], [`COMPETITOR`]), and
//! [`Entry::with`] builds its [`Subject`] for any [`Engine`] — the crash
//! sweep, the schedule explorer, the timed runs and the baseline rows are
//! all engines. `with` holds the only constructor calls of the evaluated
//! structures in this crate, so a pair that is not listed cannot be built.
//! Adding a structure is one [`Subject`] impl plus one entry here.

use std::any::Any;
use std::sync::Arc;

use pmem::PmemPool;
use tracking::hashmap::HashMapConfig;
use tracking::list::{ListConfig, Placement};

use crate::adapter::{AlgoKind, SetAlgo, StructureKind};
use crate::subject::{
    ExchangerSubject, HashmapSubject, QueueSubject, SetSubject, StackSubject, Subject,
};

/// In the default crash-sweep and explore lineup of its structure.
pub const VERIFY: u8 = 1 << 0;
/// A row of the perf baseline.
pub const BASELINE: u8 = 1 << 1;
/// A subject of the real-thread throughput sweep (`bin/throughput` and the
/// baseline's `thread_sweep`).
pub const THROUGHPUT: u8 = 1 << 2;
/// A set competitor of the latency table, the site attribution and the
/// integration suite's set tests.
pub const COMPETITOR: u8 = 1 << 3;

/// One registered (structure, algorithm) pair.
#[derive(Debug, PartialEq, Eq)]
pub struct Entry {
    /// Structure shape.
    pub structure: StructureKind,
    /// Implementation.
    pub algo: AlgoKind,
    /// Report name: baseline rows and thread-sweep subjects key on it.
    pub name: &'static str,
    roles: u8,
}

const fn entry(structure: StructureKind, algo: AlgoKind, name: &'static str, roles: u8) -> Entry {
    Entry {
        structure,
        algo,
        name,
        roles,
    }
}

use AlgoKind as A;
use StructureKind as S;

/// Every registered pair, in report order.
#[rustfmt::skip]
static ENTRIES: [Entry; 16] = [
    entry(S::List, A::Tracking, "list/Tracking", VERIFY | BASELINE | COMPETITOR),
    entry(S::List, A::TrackingPaper, "list/Tracking[paper]", 0),
    entry(S::List, A::TrackingNaive, "list/Tracking[naive-flush]", 0),
    entry(S::List, A::TrackingNoReadOpt, "list/Tracking[no-read-opt]", 0),
    entry(S::List, A::Capsules, "list/Capsules", VERIFY | BASELINE | COMPETITOR),
    entry(S::List, A::CapsulesOpt, "list/Capsules-Opt", VERIFY | BASELINE | COMPETITOR),
    entry(S::List, A::Romulus, "list/Romulus", VERIFY | BASELINE | COMPETITOR),
    entry(S::List, A::RedoOpt, "list/RedoOpt", VERIFY | BASELINE | COMPETITOR),
    entry(S::List, A::OneFile, "list/OneFile", BASELINE | COMPETITOR),
    entry(S::Bst, A::TrackingBst, "bst/Tracking-BST", VERIFY | COMPETITOR),
    entry(S::Queue, A::Tracking, "queue/Tracking", VERIFY | BASELINE | THROUGHPUT),
    entry(S::Queue, A::TrackingComb, "queue/Combining", VERIFY | THROUGHPUT),
    entry(S::Stack, A::Tracking, "stack/Tracking", VERIFY | BASELINE | THROUGHPUT),
    entry(S::Stack, A::TrackingComb, "stack/Combining", VERIFY | THROUGHPUT),
    entry(S::Exchanger, A::Tracking, "exchanger/Tracking", VERIFY | BASELINE),
    entry(S::Hashmap, A::Tracking, "hashmap/Tracking", VERIFY | BASELINE | THROUGHPUT),
];

/// What a constructor needs besides the pool.
#[derive(Copy, Clone, Debug)]
pub struct Dims {
    /// Root cell the structure hangs off.
    pub root: usize,
    /// Threads that will operate on it (sizes the per-thread tables of
    /// RedoOpt, OneFile and the combining variants).
    pub threads: usize,
    /// Key range (sizes the fixed-capacity state of Romulus, RedoOpt and
    /// OneFile at `keys + 16`).
    pub keys: u64,
    /// Hash-table geometry.
    pub map: HashMapConfig,
}

impl Dims {
    /// The verification engines' dimensions: root 0, the set scripts' key
    /// universe plus slack, and the resize-forcing hash-table geometry.
    pub fn verify(threads: usize) -> Dims {
        Dims {
            root: 0,
            threads,
            keys: crate::subject::SET_KEYS + 4,
            map: crate::subject::HASHMAP_SWEEP_CFG,
        }
    }
}

/// An engine generic over the subject type: [`Entry::with`] hands it the
/// pair's constructor, which builds the subject in a pool (registering its
/// `pwb` site names there) as often as the engine needs.
pub trait Engine {
    /// What the engine produces.
    type Out;
    /// Runs the engine on the subject `make` builds.
    fn run<Sub: Subject>(
        self,
        make: impl Fn(&Arc<PmemPool>, &Dims) -> Sub + Copy + Send + Sync + 'static,
    ) -> Self::Out;
}

/// Runs `e` on `make`'s subject, registering the subject's site names.
fn go<E: Engine, Sub: Subject>(
    e: E,
    make: impl Fn(&Arc<PmemPool>, &Dims) -> Sub + Copy + Send + Sync + 'static,
) -> E::Out {
    e.run(move |pool: &Arc<PmemPool>, d: &Dims| {
        let sub = make(pool, d);
        pool.register_site_names(sub.sites());
        sub
    })
}

/// A set subject over `algo`.
fn set_subject(algo: impl SetAlgo + 'static) -> SetSubject {
    SetSubject(Arc::new(algo))
}

impl Entry {
    /// Is the entry in a run with `role` by default?
    pub fn has(&self, role: u8) -> bool {
        self.roles & role != 0
    }

    /// CSV label stem of the pair (`list_tracking`, `queue_tracking-comb`);
    /// sweep and explore CSVs prefix and suffix it.
    pub fn label(&self) -> String {
        format!("{}_{}", self.structure.name(), file_slug(self.algo.name()))
    }

    /// Builds the pair's subject in `pool`.
    ///
    /// # Panics
    ///
    /// Panics if the pair's subject is not a `Sub`.
    pub fn subject<Sub: Subject>(&self, pool: &Arc<PmemPool>, dims: &Dims) -> Sub {
        struct Make<'a>(&'a Arc<PmemPool>, &'a Dims);
        impl Engine for Make<'_> {
            type Out = Box<dyn Any>;
            fn run<S: Subject>(
                self,
                make: impl Fn(&Arc<PmemPool>, &Dims) -> S + Copy + Send + Sync + 'static,
            ) -> Box<dyn Any> {
                Box::new(make(self.0, self.1))
            }
        }
        match self.with(Make(pool, dims)).downcast::<Sub>() {
            Ok(sub) => *sub,
            Err(_) => panic!("{} builds a different subject type", self.name),
        }
    }

    /// Builds the pair's subject for `e` and runs it.
    pub fn with<E: Engine>(&self, e: E) -> E::Out {
        let paper = ListConfig {
            traversal_flush: false,
            placement: Placement::Paper,
        };
        let naive = ListConfig {
            traversal_flush: true,
            ..paper
        };
        let no_read_opt = ListConfig {
            placement: Placement::PaperNoReadOpt,
            ..paper
        };
        match (self.structure, self.algo) {
            (S::List, A::Tracking) => go(e, |p, d| {
                set_subject(tracking::RecoverableList::new(p.clone(), d.root))
            }),
            (S::List, A::TrackingPaper) => go(e, move |p, d| {
                set_subject(tracking::RecoverableList::with_config(
                    p.clone(),
                    d.root,
                    paper,
                ))
            }),
            (S::List, A::TrackingNaive) => go(e, move |p, d| {
                set_subject(tracking::RecoverableList::with_config(
                    p.clone(),
                    d.root,
                    naive,
                ))
            }),
            (S::List, A::TrackingNoReadOpt) => go(e, move |p, d| {
                set_subject(tracking::RecoverableList::with_config(
                    p.clone(),
                    d.root,
                    no_read_opt,
                ))
            }),
            (S::List, A::Capsules) => go(e, |p, d| {
                set_subject(capsules::CapsulesList::new(
                    p.clone(),
                    d.root,
                    capsules::PersistPolicy::Full,
                ))
            }),
            (S::List, A::CapsulesOpt) => go(e, |p, d| {
                set_subject(capsules::CapsulesList::new(
                    p.clone(),
                    d.root,
                    capsules::PersistPolicy::Opt,
                ))
            }),
            (S::List, A::Romulus) => go(e, |p, d| {
                set_subject(romulus::RomulusList::new(
                    p.clone(),
                    d.root,
                    d.keys as usize + 16,
                ))
            }),
            (S::List, A::RedoOpt) => go(e, |p, d| {
                set_subject(redo::RedoSet::new(
                    p.clone(),
                    d.root,
                    d.threads,
                    d.keys as usize + 16,
                ))
            }),
            (S::List, A::OneFile) => go(e, |p, d| {
                set_subject(onefile::OneFileList::new(
                    p.clone(),
                    d.root,
                    d.threads,
                    d.keys as usize + 16,
                ))
            }),
            (S::Bst, A::TrackingBst) => go(e, |p, d| {
                set_subject(tracking::RecoverableBst::new(p.clone(), d.root))
            }),
            (S::Queue, A::Tracking) => go(e, |p, d| {
                QueueSubject::new(tracking::RecoverableQueue::new(p.clone(), d.root))
            }),
            (S::Queue, A::TrackingComb) => go(e, |p, d| {
                QueueSubject::new(tracking::CombiningQueue::new(p.clone(), d.root, d.threads))
            }),
            (S::Stack, A::Tracking) => go(e, |p, d| {
                StackSubject::new(tracking::RecoverableStack::new(p.clone(), d.root))
            }),
            (S::Stack, A::TrackingComb) => go(e, |p, d| {
                StackSubject::new(tracking::CombiningStack::new(p.clone(), d.root, d.threads))
            }),
            (S::Exchanger, A::Tracking) => go(e, |p, d| {
                ExchangerSubject(tracking::RecoverableExchanger::new(p.clone(), d.root))
            }),
            (S::Hashmap, A::Tracking) => go(e, |p, d| {
                HashmapSubject(tracking::RecoverableHashMap::with_config(
                    p.clone(),
                    d.root,
                    d.map,
                ))
            }),
            (s, a) => unreachable!("{s:?}/{a:?} is not a registered pair"),
        }
    }
}

/// Every registered pair, in report order.
pub fn entries() -> impl Iterator<Item = &'static Entry> {
    ENTRIES.iter()
}

/// The registered pairs in runs with `role`, in report order.
pub fn with_role(role: u8) -> impl Iterator<Item = &'static Entry> {
    entries().filter(move |e| e.has(role))
}

/// The registered pair `(structure, algo)`, if any.
pub fn find(structure: StructureKind, algo: AlgoKind) -> Option<&'static Entry> {
    entries().find(|e| e.structure == structure && e.algo == algo)
}

/// The set-shaped pair of the set algorithm `kind`.
///
/// # Panics
///
/// Panics if `kind` is not a set implementation.
pub fn set(kind: AlgoKind) -> &'static Entry {
    entries()
        .find(|e| e.algo == kind && matches!(e.structure, S::List | S::Bst))
        .unwrap_or_else(|| panic!("{} is not a set implementation", kind.name()))
}

/// The pairs a sweep or an exploration of `structures` covers: each
/// structure's [`VERIFY`] lineup, or, with `algo`, that one registered
/// pair per structure. Naming a single structure together with an
/// algorithm it has no pair for is an error.
pub fn select(
    structures: &[StructureKind],
    algo: Option<AlgoKind>,
) -> Result<Vec<&'static Entry>, String> {
    let mut pairs = Vec::new();
    for &s in structures {
        match algo {
            None => pairs.extend(with_role(VERIFY).filter(|e| e.structure == s)),
            Some(a) => match find(s, a) {
                Some(e) => pairs.push(e),
                None if structures.len() == 1 => {
                    let available: Vec<&str> = entries()
                        .filter(|e| e.structure == s)
                        .map(|e| e.algo.name())
                        .collect();
                    return Err(format!(
                        "{} has no {} implementation (available: {})",
                        s.name(),
                        a.name(),
                        available.join(", ")
                    ));
                }
                None => {}
            },
        }
    }
    Ok(pairs)
}

/// Parses a throughput subject: its report name (`queue/Combining`), a
/// structure name for its Tracking pair (`queue`), or `comb-<structure>`
/// for its flat-combining pair.
pub fn parse_subject(token: &str) -> Option<&'static Entry> {
    if let Some(e) = entries().find(|e| e.name == token) {
        return Some(e);
    }
    let (algo, structure) = match token.strip_prefix("comb-") {
        Some(s) => (A::TrackingComb, s),
        None => (A::Tracking, token),
    };
    find(StructureKind::parse(structure)?, algo)
}

/// Builds the set algorithm `kind` in `pool` (rooted at root cell 0).
/// `threads` and `key_range` size the per-thread tables of the algorithms
/// that need them (Romulus' region, RedoOpt's state object).
///
/// # Panics
///
/// Panics if `kind` is not a set implementation.
pub fn build(
    kind: AlgoKind,
    pool: Arc<PmemPool>,
    threads: usize,
    key_range: u64,
) -> Arc<dyn SetAlgo> {
    let dims = Dims {
        root: 0,
        threads,
        keys: key_range,
        map: HashMapConfig::default(),
    };
    set(kind).subject::<SetSubject>(&pool, &dims).0
}

/// A file-name-safe slug of an algorithm name (`Capsules-Opt` →
/// `capsules-opt`).
pub(crate) fn file_slug(s: &str) -> String {
    s.chars()
        .map(|ch| {
            if ch.is_ascii_alphanumeric() {
                ch.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::PALLOC_PHASES;
    use crate::explore::{run_explore, CrashMode, ExploreCfg, StrategyKind};
    use crate::sweep::{run_sweep, AdversaryKind, SweepCfg};

    /// Every registered pair builds and passes a short sampled crash sweep
    /// and a two-thread explored schedule with no violations. (Operating
    /// every set pair and running every pair on two real threads are
    /// `adapter::tests::every_kind_builds_and_operates` and
    /// `parallel::tests::every_subject_sustains_two_threads`.)
    #[test]
    fn every_registered_pair_sweeps_and_explores_clean() {
        for e in entries() {
            let name = e.name;
            let sweep = run_sweep(&SweepCfg {
                pool_bytes: 8 << 20,
                script_len: 6,
                sample: 0.2,
                adversary: AdversaryKind::Seeded,
                ..SweepCfg::new(e.structure, e.algo)
            });
            assert!(sweep.total_events > 0, "{name} swept no events");
            assert!(sweep.ok(), "{name} sweep: {:?}", sweep.violations);

            let explore = run_explore(&ExploreCfg {
                ops_per_thread: 3,
                schedules: 1,
                strategies: vec![StrategyKind::Random],
                crash: CrashMode::Sampled { per_schedule: 1 },
                pool_bytes: 8 << 20,
                ..ExploreCfg::new(e.structure, e.algo)
            });
            assert_eq!(explore.runs, 1, "{name}");
            assert!(explore.ok(), "{name} explore: {:?}", explore.violations);
        }
    }

    /// The names the committed files and `--prev` comparisons key on stay
    /// put.
    #[test]
    fn report_names_stay_put() {
        let lineup = select(&StructureKind::all(), None).unwrap();
        assert!(lineup.contains(&find(S::List, A::Romulus).unwrap()));
        let labels: Vec<String> = lineup.iter().map(|e| e.label()).collect();
        assert_eq!(
            labels.join(" "),
            "list_tracking list_capsules list_capsules-opt list_romulus list_redoopt \
             bst_tracking-bst queue_tracking queue_tracking-comb stack_tracking \
             stack_tracking-comb exchanger_tracking hashmap_tracking"
        );

        let subjects: Vec<&str> = with_role(THROUGHPUT).map(|e| e.name).collect();
        assert_eq!(
            subjects.join(" "),
            "queue/Tracking queue/Combining stack/Tracking stack/Combining hashmap/Tracking"
        );
        for (token, name) in [
            ("queue", "queue/Tracking"),
            ("comb-queue", "queue/Combining"),
            ("stack", "stack/Tracking"),
            ("comb-stack", "stack/Combining"),
            ("hashmap", "hashmap/Tracking"),
            ("queue/Combining", "queue/Combining"),
        ] {
            assert_eq!(parse_subject(token).map(|e| e.name), Some(name), "{token}");
        }

        let rows: Vec<String> = with_role(BASELINE)
            .map(|e| e.name.to_string())
            .chain(PALLOC_PHASES.iter().map(|p| format!("palloc/{p}")))
            .collect();
        assert_eq!(
            rows.join(" "),
            "list/Tracking list/Capsules list/Capsules-Opt list/Romulus list/RedoOpt \
             list/OneFile queue/Tracking stack/Tracking exchanger/Tracking hashmap/Tracking \
             palloc/alloc palloc/retire palloc/drain"
        );
    }
}
