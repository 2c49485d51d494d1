//! CLI for the real-thread throughput sweep (`bench::parallel` over the
//! `bench::workload` engine).
//!
//! ```text
//! throughput [options]
//!   --smoke            CI tier: 2 subjects, short windows
//!   --threads LIST     comma-separated thread counts (default 1,2,4)
//!   --shards N         structure replicas, 0 = one per thread, at most 8
//!                      (default 1)
//!   --duration-ms N    timed window per point (default 200, smoke 40)
//!   --subjects LIST    comma-separated: queue,stack,comb-queue,comb-stack,hashmap
//!                      (or any registered pair's report name, e.g. queue/Tracking)
//!   --label L          report label (default pr7)
//!   --out PATH         output JSON path (default BENCH_throughput_<label>.json)
//!   --prev PATH        earlier report to compare aggregate ops/sec against
//! ```
//!
//! Every point runs its threads as real concurrent OS threads — no turn
//! monitor — and reports aggregate and per-thread ops/sec plus the
//! count-based `pwb`/`psync` per operation (the scheduling-independent
//! signal; see EXPERIMENTS.md, "Scaling & throughput methodology").
//! The produced document is validated against `bench-throughput/v1`
//! (non-zero exit on violations, so CI catches malformed reports).

use std::time::Duration;

use bench::cli::{self, Args};
use bench::parallel::{
    compare_sweeps, sweep_points_from_json, throughput_json, validate_throughput_json, SweepPoint,
};
use bench::registry::{self, Entry, THROUGHPUT};
use bench::{run, RunCfg, StructureKind};

fn main() {
    let mut smoke = false;
    let mut threads_list: Option<Vec<usize>> = None;
    let mut shards: usize = 1;
    let mut duration_ms: Option<u64> = None;
    let mut subjects: Option<Vec<&'static Entry>> = None;
    let mut label = "pr7".to_string();
    let mut out: Option<std::path::PathBuf> = None;
    let mut prev: Option<std::path::PathBuf> = None;
    let mut args = Args::from_env();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--threads" => threads_list = Some(cli::list(&args.value::<String>(&flag))),
            "--shards" => shards = args.value(&flag),
            "--duration-ms" => duration_ms = Some(args.value(&flag)),
            "--subjects" => {
                let tokens: String = args.value(&flag);
                let parse = |t: &str| {
                    registry::parse_subject(t.trim())
                        .unwrap_or_else(|| cli::usage(format!("unknown subject {t}")))
                };
                subjects = Some(tokens.split(',').map(parse).collect());
            }
            "--label" => label = args.value(&flag),
            "--out" => out = Some(args.value::<String>(&flag).into()),
            "--prev" => prev = Some(args.value::<String>(&flag).into()),
            flag => cli::usage(format!("unknown flag {flag}")),
        }
    }

    let threads_list = threads_list.unwrap_or_else(|| if smoke { vec![2] } else { vec![1, 2, 4] });
    let subjects = subjects.unwrap_or_else(|| {
        let all = registry::with_role(THROUGHPUT);
        if smoke {
            all.filter(|e| e.structure == StructureKind::Queue)
                .collect()
        } else {
            all.collect()
        }
    });
    let duration = Duration::from_millis(duration_ms.unwrap_or(if smoke { 40 } else { 200 }));

    if bench::baseline::degraded_parallelism(&threads_list) {
        eprintln!(
            "WARNING: sweep requests up to {} threads but the host exposes only {} \
             CPU(s); multi-thread points measure time-slicing, not contention. The \
             report will carry \"degraded_parallelism\": true.",
            threads_list.iter().max().unwrap_or(&0),
            bench::baseline::host_cpus(),
        );
    }

    println!(
        "{:<16} {:>3} {:>3} {:>10} {:>12} {:>12} {:>8} {:>9}",
        "subject", "thr", "shd", "ops", "ops/sec", "ops/sec/thr", "pwb/op", "psync/op"
    );
    let mut points: Vec<SweepPoint> = Vec::new();
    for &subject in &subjects {
        for &threads in &threads_list {
            let cfg = RunCfg {
                shards: if shards == 0 { threads } else { shards },
                duration,
                ..RunCfg::contended(subject, threads)
            };
            let r = run(&cfg);
            println!(
                "{:<16} {:>3} {:>3} {:>10} {:>12.0} {:>12.0} {:>8.2} {:>9.2}",
                r.subject,
                r.threads,
                r.shards,
                r.ops,
                r.ops_per_sec(),
                r.per_thread_ops_per_sec(),
                r.pwb_per_op(),
                r.psync_per_op()
            );
            points.push(SweepPoint::from_result(&r));
        }
    }

    if let Some(p) = &prev {
        let doc = std::fs::read_to_string(p).expect("reading --prev JSON");
        let prev_pts = sweep_points_from_json(&doc);
        if prev_pts.is_empty() {
            println!("prev {} has no sweep points to compare", p.display());
        } else {
            let (lines, warnings) = compare_sweeps(&prev_pts, &points, 0.25);
            for l in lines {
                println!("{l}");
            }
            if warnings > 0 {
                println!(
                    "WARNING: {warnings} scaling regression(s) vs {}",
                    p.display()
                );
            }
        }
    }

    let json = throughput_json(&label, &threads_list, &points);
    if let Err(e) = validate_throughput_json(&json) {
        eprintln!("produced JSON violates the throughput schema: {e}");
        std::process::exit(1);
    }
    let path = out.unwrap_or_else(|| format!("BENCH_throughput_{label}.json").into());
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("creating output directory");
        }
    }
    std::fs::write(&path, json).expect("writing throughput JSON");
    println!("-> {}", path.display());
}
