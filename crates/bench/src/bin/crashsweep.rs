//! CLI driving the exhaustive crash-sweep verifier (`bench::sweep`).
//!
//! ```text
//! crashsweep [options]
//!   --structure list|bst|queue|stack|exchanger|hashmap|all   shape(s) to sweep (default all)
//!   --algo tracking|capsules|...|all                 implementation(s) (default all
//!                                                    = the shape's registered lineup)
//!   --shard I/N            run only crash points with k % N == I
//!   --sample P             run each point with probability P (deterministic in
//!                          the seed; 1.0 = exhaustive)
//!   --adversary pessimist|seeded                     crash model (default pessimist)
//!   --seed S               workload/sampling seed
//!   --ops N                script length (operations per sweep)
//!   --pool-mb M            pool size per replay (default 64)
//!   --engine checkpoint|scratch   replay engine (default checkpoint: restore the
//!                          nearest op-boundary snapshot instead of rebuilding
//!                          the structure per crash point)
//!   --paranoia P           cross-check each replayed point with probability P:
//!                          both engines re-run it traced and must agree on the
//!                          verdict and the event stream (checkpoint engine only)
//!   --multi-crash N        multi-crash tier: per first crash point, inject N
//!                          second crashes *inside recovery* (deterministic
//!                          points over recovery's own event count), re-run
//!                          recovery after each, and apply the full verdict;
//!                          CSVs gain a recrash_ prefix
//!   --churn                allocator-churn mode: reclaim pools (structures
//!                          retire removed nodes, boundaries drain limbo, every
//!                          verdict audits the free lists), plus the allocator's
//!                          own crash sweep; CSVs gain a churn_ prefix
//!   --palloc               sweep only the allocator itself (implies reclaim)
//!
//!   --smoke                CI tier: the churn matrix over the retiring pairs
//!                          with a short script and sampled points (fast,
//!                          deterministic; combines with --shard/--seed)
//!   --out DIR              CSV directory (default results/crashsweep)
//! ```
//!
//! Exit status is non-zero if any replayed crash point violated
//! detectability or durable linearizability. One CSV per
//! structure × algorithm pair is written under `--out`; the first failing
//! point (if any) is minimized and its final trace window printed.

use bench::cli::{self, Args};
use bench::registry;
use bench::sweep::{run_palloc_sweep, run_sweep, SweepCfg, SweepReport};
use bench::{AlgoKind, StructureKind};

fn main() {
    let mut structures: Vec<StructureKind> = StructureKind::all().to_vec();
    let mut algo: Option<AlgoKind> = None;
    let mut base = SweepCfg::new(StructureKind::List, AlgoKind::Tracking);
    let mut out = std::path::PathBuf::from("results/crashsweep");
    let (mut churn, mut palloc_only, mut smoke) = (false, false, false);
    let mut structures_named = false;
    let mut args = Args::from_env();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--structure" => {
                structures_named = true;
                structures = cli::structures(&args.value::<String>(&flag));
            }
            "--algo" => algo = cli::algo(&args.value::<String>(&flag)),
            "--shard" => {
                (base.shard_index, base.shard_count) = cli::shard(&args.value::<String>(&flag));
            }
            "--sample" => {
                base.sample = args.value(&flag);
                assert!(
                    (0.0..=1.0).contains(&base.sample),
                    "sample must be in [0, 1]"
                );
            }
            "--adversary" => base.adversary = cli::adversary(&args.value::<String>(&flag)),
            "--seed" => base.seed = args.value(&flag),
            "--ops" => base.script_len = args.value(&flag),
            "--pool-mb" => base.pool_bytes = args.value::<usize>(&flag) << 20,
            "--engine" => {
                base.checkpoint = match args.value::<String>(&flag).as_str() {
                    "checkpoint" => true,
                    "scratch" => false,
                    e => cli::usage(format!("unknown engine '{e}' (checkpoint|scratch)")),
                };
            }
            "--paranoia" => {
                base.paranoia = args.value(&flag);
                assert!(
                    (0.0..=1.0).contains(&base.paranoia),
                    "paranoia must be in [0, 1]"
                );
            }
            "--multi-crash" => base.multi_crash = args.value(&flag),
            "--churn" => churn = true,
            "--palloc" => palloc_only = true,
            "--smoke" => smoke = true,
            "--out" => out = args.value::<String>(&flag).into(),
            flag => cli::usage(format!("unknown flag {flag}")),
        }
    }

    if smoke {
        // CI tier: churn matrix over the pairs that actually retire nodes,
        // short script, sampled points. ~seconds, still covering alloc,
        // retire, drain and recover_allocator paths end to end.
        churn = true;
        base.script_len = base.script_len.min(8);
        base.sample = base.sample.min(0.25);
        if !structures_named {
            structures = vec![
                StructureKind::List,
                StructureKind::Queue,
                StructureKind::Stack,
                StructureKind::Hashmap,
            ];
        }
    }
    if churn || palloc_only {
        base.reclaim = true;
    }

    let pairs = if smoke && algo.is_none() && !structures_named {
        // Only the pairs that actually retire nodes on a reclaim pool.
        [
            (StructureKind::List, AlgoKind::Tracking),
            (StructureKind::List, AlgoKind::Capsules),
            (StructureKind::List, AlgoKind::CapsulesOpt),
            (StructureKind::Queue, AlgoKind::Tracking),
            (StructureKind::Stack, AlgoKind::Tracking),
            (StructureKind::Hashmap, AlgoKind::Tracking),
        ]
        .into_iter()
        .map(|(s, a)| registry::find(s, a).expect("smoke pairs are registered"))
        .collect()
    } else {
        registry::select(&structures, algo).unwrap_or_else(|e| cli::usage(e))
    };

    println!(
        "crash sweep: {} pair(s), engine={}, adversary={}, shard {}/{}, sample {}, paranoia {}, seed {:#x}",
        pairs.len(),
        if base.checkpoint { "checkpoint" } else { "scratch" },
        base.adversary.name(),
        base.shard_index,
        base.shard_count,
        base.sample,
        base.paranoia,
        base.seed,
    );

    let mut failed = false;
    let engine_start = std::time::Instant::now();
    let (mut total_points, mut total_paranoia) = (0u64, 0u64);
    let mut emit = |report: SweepReport, failed: &mut bool| {
        println!("{}", report.summary());
        let path = report.csv.write(&out).expect("writing CSV");
        println!("  -> {}", path.display());
        if let Some(f) = &report.first_failure {
            print!("{}", f.render());
        }
        total_points += report.points_run;
        total_paranoia += report.paranoia_checked;
        *failed |= !report.ok();
    };
    if !palloc_only {
        for pair in pairs {
            let cfg = SweepCfg {
                structure: pair.structure,
                algo: pair.algo,
                ..base.clone()
            };
            emit(run_sweep(&cfg), &mut failed);
        }
    }
    if churn || palloc_only {
        // The allocator's own crash sweep rides along with every churn run.
        emit(run_palloc_sweep(&base), &mut failed);
    }
    // Engine-only wall clock (excludes process startup/compilation noise) —
    // the number the A/B `--engine` timing comparison records.
    println!(
        "engine elapsed: {:.3}s ({} points, {} paranoia-checked)",
        engine_start.elapsed().as_secs_f64(),
        total_points,
        total_paranoia,
    );
    if failed {
        eprintln!("crash sweep FAILED: see violations above");
        std::process::exit(1);
    }
    println!("crash sweep passed: every replayed crash point recovered correctly");
}
