//! CLI driving the deterministic concurrent-schedule explorer
//! (`bench::explore`).
//!
//! ```text
//! explore [options]
//!   --structure list|bst|queue|stack|exchanger|hashmap|all   shape(s) to explore (default all)
//!   --algo tracking|capsules|...|all                 implementation(s) (default all =
//!                                                    the shape's registered lineup;
//!                                                    Romulus spins via the scheduler's
//!                                                    spin-yield channel)
//!   --threads N            virtual threads per schedule (default 2)
//!   --ops N                scripted operations per thread (default 4)
//!   --schedules N          schedules per strategy (default 4)
//!   --strategy rr|random|pct|all                     strategies to run (default all)
//!   --crash off|sampled    crash injection (default sampled)
//!   --crash-samples N      crash points per schedule in sampled mode (default 2)
//!   --adversary pessimist|seeded                     crash model (default pessimist)
//!   --seed S               script/strategy/sampling seed
//!   --shard I/N            run only (strategy, schedule) cells with index % N == I
//!   --pool-mb M            pool size (default 64)
//!   --out DIR              CSV directory (default results/explore)
//!   --smoke                quick CI tier: 1 schedule per strategy, 1 crash sample
//! ```
//!
//! Exit status is non-zero if any executed schedule produced a
//! non-linearizable history (or a schedule replay diverged). One CSV per
//! structure × algorithm pair is written under `--out`.

use bench::cli::{self, Args};
use bench::explore::{run_explore, CrashMode, ExploreCfg, StrategyKind};
use bench::registry;
use bench::{AlgoKind, StructureKind};

fn main() {
    let mut structures: Vec<StructureKind> = StructureKind::all().to_vec();
    let mut algo: Option<AlgoKind> = None;
    let mut base = ExploreCfg::new(StructureKind::List, AlgoKind::Tracking);
    let mut crash_samples = 2u64;
    let mut crash_on = true;
    let mut out = std::path::PathBuf::from("results/explore");
    let mut args = Args::from_env();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--structure" => structures = cli::structures(&args.value::<String>(&flag)),
            "--algo" => algo = cli::algo(&args.value::<String>(&flag)),
            "--threads" => base.threads = args.value(&flag),
            "--ops" => base.ops_per_thread = args.value(&flag),
            "--schedules" => base.schedules = args.value(&flag),
            "--strategy" => {
                base.strategies = match args.value::<String>(&flag).as_str() {
                    "all" => StrategyKind::all().to_vec(),
                    s => vec![StrategyKind::parse(s).unwrap_or_else(|| {
                        cli::usage(format!("unknown strategy '{s}' (rr|random|pct|all)"))
                    })],
                };
            }
            "--crash" => {
                crash_on = match args.value::<String>(&flag).as_str() {
                    "off" => false,
                    "sampled" => true,
                    c => cli::usage(format!("unknown crash mode '{c}' (off|sampled)")),
                };
            }
            "--crash-samples" => crash_samples = args.value(&flag),
            "--adversary" => base.adversary = cli::adversary(&args.value::<String>(&flag)),
            "--seed" => base.seed = args.value(&flag),
            "--shard" => {
                (base.shard_index, base.shard_count) = cli::shard(&args.value::<String>(&flag));
            }
            "--pool-mb" => base.pool_bytes = args.value::<usize>(&flag) << 20,
            "--out" => out = args.value::<String>(&flag).into(),
            "--smoke" => {
                base.schedules = 1;
                crash_samples = 1;
            }
            flag => cli::usage(format!("unknown flag {flag}")),
        }
    }
    base.crash = if crash_on {
        CrashMode::Sampled {
            per_schedule: crash_samples,
        }
    } else {
        CrashMode::Off
    };

    let pairs = registry::select(&structures, algo).unwrap_or_else(|e| cli::usage(e));

    println!(
        "schedule explorer: {} pair(s), threads={}, ops/thread={}, schedules={}/strategy, \
         strategies=[{}], crash={}, adversary={}, shard {}/{}, seed {:#x}",
        pairs.len(),
        base.threads,
        base.ops_per_thread,
        base.schedules,
        base.strategies
            .iter()
            .map(|s| s.name())
            .collect::<Vec<_>>()
            .join(", "),
        match base.crash {
            CrashMode::Off => "off".to_string(),
            CrashMode::Sampled { per_schedule } => format!("sampled({per_schedule}/schedule)"),
        },
        base.adversary.name(),
        base.shard_index,
        base.shard_count,
        base.seed,
    );

    let mut failed = false;
    let start = std::time::Instant::now();
    let (mut total_runs, mut total_crash_runs) = (0u64, 0u64);
    for pair in pairs {
        let cfg = ExploreCfg {
            structure: pair.structure,
            algo: pair.algo,
            ..base.clone()
        };
        let report = run_explore(&cfg);
        println!("{}", report.summary());
        let path = report.csv.write(&out).expect("writing CSV");
        println!("  -> {}", path.display());
        for v in &report.violations {
            println!(
                "  VIOLATION: strategy={} schedule={} crash_k={:?}: {}",
                v.strategy.name(),
                v.schedule,
                v.crash_k,
                v.note
            );
        }
        total_runs += report.runs;
        total_crash_runs += report.crash_runs;
        failed |= !report.ok();
    }
    println!(
        "explorer elapsed: {:.3}s ({} schedule runs, {} crash-injected runs)",
        start.elapsed().as_secs_f64(),
        total_runs,
        total_crash_runs,
    );
    if failed {
        eprintln!("schedule exploration FAILED: see violations above");
        std::process::exit(1);
    }
    println!("schedule exploration passed: every executed schedule linearized");
}
