//! CLI producing the tracked perf baseline (`bench::baseline`).
//!
//! ```text
//! baseline [options]
//!   --smoke            CI tier: ~20x fewer iterations per bench
//!   --label L          report label and default file stem (default pr4)
//!   --out PATH         output JSON path (default BENCH_<label>.json)
//!   --prev PATH        earlier BENCH_*.json to compare against: trend
//!                      lines for off-cost, the thread sweep, and per-row
//!                      pwb/op + psync/op densities of rows run at the
//!                      same op count (all warn only), plus
//!                      a hard gate on the observers-on/off ratio (exit 1
//!                      if it worsens by more than 15%). A sweep point
//!                      more than 25% slow is timed twice more and flagged
//!                      only if the median of its three timings is still
//!                      slow; a ratio past its gate is measured once more
//!                      and fails only if that measurement is past it too.
//!   --ops N            operations per micro-workload (overrides tier)
//! ```
//!
//! Writes the JSON report, prints the console table, and validates the
//! produced document against the `bench-baseline/v1` schema (non-zero exit
//! on schema violations, so CI catches a malformed report immediately).

use bench::baseline::{
    bench_overhead, bench_rows_from_json, compare_bench_rows, extract_number, retime_sweep_point,
    run_baseline, validate_json, BaselineCfg,
};
use bench::cli::{self, Args};

fn main() {
    let mut smoke = false;
    let mut label = "pr4".to_string();
    let mut out: Option<std::path::PathBuf> = None;
    let mut prev: Option<std::path::PathBuf> = None;
    let mut ops: Option<u64> = None;
    let mut args = Args::from_env();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => smoke = true,
            "--label" => label = args.value(&flag),
            "--out" => out = Some(args.value::<String>(&flag).into()),
            "--prev" => prev = Some(args.value::<String>(&flag).into()),
            "--ops" => ops = Some(args.value(&flag)),
            flag => cli::usage(format!("unknown flag {flag}")),
        }
    }

    let mut cfg = if smoke {
        BaselineCfg::smoke(&label)
    } else {
        BaselineCfg::full(&label)
    };
    if let Some(n) = ops {
        cfg.ops = n;
    }
    let mut prev_doc: Option<String> = None;
    if let Some(p) = &prev {
        let doc = std::fs::read_to_string(p).expect("reading --prev JSON");
        cfg.prev_off_ns_per_op = extract_number(&doc, "off_ns_per_op");
        if cfg.prev_off_ns_per_op.is_none() {
            cli::usage(format!("--prev {} has no off_ns_per_op field", p.display()));
        }
        prev_doc = Some(doc);
    }

    let mut report = run_baseline(&cfg);
    print!("{}", report.to_text());

    // Scaling trend: compare the fresh thread sweep against the previous
    // report's (reports older than the sweep have none — note and move
    // on). A slow point is retimed before it is flagged. Warns, never
    // fails: wall-clock throughput on a shared host is noisy, so the
    // committed captures carry the trajectory.
    if let Some(doc) = &prev_doc {
        let prev_pts = bench::parallel::sweep_points_from_json(doc);
        if prev_pts.is_empty() {
            println!("(prev report has no thread_sweep section; no scaling trend)");
        } else {
            let (lines, warnings) = bench::parallel::compare_sweeps(
                &prev_pts,
                &report.thread_sweep,
                0.25,
                retime_sweep_point,
            );
            for l in lines {
                println!("{l}");
            }
            if warnings > 0 {
                println!("WARNING: {warnings} scaling regression(s) vs previous report");
            }
        }
    }

    // Persistence-density trend: executed pwb/op and psync/op per row vs
    // the previous report's rows of the same op count. These are
    // deterministic functions of the fixed scripts, so any growth is a real
    // placement change. Warns only (rows come and go as the schema grows;
    // the hard gate below stays the overhead ratio).
    if let Some(doc) = &prev_doc {
        let prev_rows = bench_rows_from_json(doc);
        if prev_rows.is_empty() {
            println!("(prev report has no bench rows; no density trend)");
        } else {
            let (lines, warnings) = compare_bench_rows(&prev_rows, &report.rows, 0.05);
            for l in lines {
                println!("{l}");
            }
            if warnings > 0 {
                println!(
                    "WARNING: {warnings} persistence-density regression(s) vs previous report"
                );
            }
        }
    }

    // Overhead-ratio regression gate. Unlike wall-clock throughput (which
    // only warns above — shared hosts are noisy), the observers-on/off
    // ratio divides two runs of the same loop on the same host in the same
    // process, so host speed cancels out, and it is the median of several
    // interleaved trial pairs, so one preempted trial does not move it.
    // A slow stretch of the host can still span several pairs, so a ratio
    // past the gate is measured once more: a worsening of >15% in both
    // measurements is a genuine fast-path regression and fails the run.
    if let Some(doc) = &prev_doc {
        match extract_number(doc, "ratio") {
            Some(prev_ratio) if prev_ratio > 0.0 => {
                // Prints one measurement against the capture's; returns
                // its relative worsening.
                let compare = |ratio: f64| {
                    let rel = ratio / prev_ratio - 1.0;
                    println!(
                        "overhead ratio: {ratio:.2}x vs previous {prev_ratio:.2}x ({:+.1}%)",
                        rel * 100.0
                    );
                    rel
                };
                if compare(report.overhead.ratio) > 0.15 {
                    println!("overhead ratio past the 15% gate; measuring it once more");
                    let again = bench_overhead(cfg.overhead_iters);
                    let worse = compare(again.ratio);
                    if worse > 0.15 {
                        eprintln!(
                            "FAIL: observer overhead ratio regressed by {:.1}% (> 15% gate)",
                            worse * 100.0
                        );
                        std::process::exit(1);
                    }
                    // The report records the measurement that passed.
                    report.overhead = again;
                }
            }
            _ => println!("(prev report has no overhead ratio; no ratio gate)"),
        }
    }

    let json = report.to_json();
    if let Err(e) = validate_json(&json) {
        eprintln!("produced JSON violates the baseline schema: {e}");
        std::process::exit(1);
    }
    let path = out.unwrap_or_else(|| format!("BENCH_{label}.json").into());
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("creating output directory");
        }
    }
    std::fs::write(&path, json).expect("writing baseline JSON");
    println!("-> {}", path.display());
}
