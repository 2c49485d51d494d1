//! CLI regenerating the paper's figures.
//!
//! ```text
//! figures [all|fig3|fig4|fig5|fig6|ablation|range|mix|uc|categorize|attribution] [options]
//!   --threads 1,2,4,8      thread counts (default 1,2,4,8)
//!   --duration-ms 300      timed window per data point
//!   --range 500            key range
//!   --pool-mb 1024         pmem pool size per run
//!   --out results          output directory for CSVs
//!   --smoke                tiny preset (fast CI run)
//! ```

use std::time::Duration;

use bench::cli::{self, Args};
use bench::figures::{self, FigCfg};
use bench::workload::Mix;
use bench::AlgoKind;

fn main() {
    let mut what = "all".to_string();
    let mut cfg = FigCfg::default();
    let mut args = Args::from_env();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--threads" => cfg.threads = cli::list(&args.value::<String>(&flag)),
            "--duration-ms" => cfg.duration = Duration::from_millis(args.value(&flag)),
            "--range" => cfg.key_range = args.value(&flag),
            "--pool-mb" => cfg.pool_bytes = args.value::<usize>(&flag) << 20,
            "--out" => cfg.out_dir = args.value::<String>(&flag).into(),
            "--smoke" => {
                let out = cfg.out_dir.clone();
                cfg = FigCfg::smoke();
                cfg.out_dir = out;
            }
            "--attribution" => what = "attribution".to_string(),
            flag if flag.starts_with("--") => cli::usage(format!("unknown flag {flag}")),
            w => what = w.to_string(),
        }
    }

    let emit = |csv: bench::csv::Csv| {
        println!("\n== {} ==\n{}", csv.name(), csv.to_text());
        let path = csv.write(&cfg.out_dir).expect("writing CSV");
        println!("-> {}", path.display());
    };

    match what.as_str() {
        "all" => {
            let files = figures::run_all(&cfg);
            println!("\nwrote {} CSVs to {}", files.len(), cfg.out_dir.display());
        }
        "fig3" | "fig4" => {
            let (mix, f) = if what == "fig3" {
                (Mix::READ_INTENSIVE, "fig3")
            } else {
                (Mix::UPDATE_INTENSIVE, "fig4")
            };
            let m = if mix.read_mostly() {
                "read-intensive"
            } else {
                "update-intensive"
            };
            emit(figures::fig_throughput(
                &cfg,
                mix,
                &format!("{f}a_throughput_{m}"),
            ));
            emit(figures::fig_psyncs(&cfg, mix, &format!("{f}b_psyncs_{m}")));
            emit(figures::fig_no_psync(
                &cfg,
                mix,
                &format!("{f}c_no_psync_{m}"),
            ));
            emit(figures::fig_pwbs(&cfg, mix, &format!("{f}d_pwbs_{m}")));
            emit(figures::fig_pwb_categories(
                &cfg,
                mix,
                &format!("{f}e_pwb_categories_{m}"),
            ));
            emit(figures::fig_category_sweep(
                &cfg,
                mix,
                &format!("{f}f_category_sweep_{m}"),
            ));
        }
        "fig5" => emit(figures::fig_x_loss(
            &cfg,
            Mix::UPDATE_INTENSIVE,
            figures::PAPER_TRACKING,
            "fig5_x_loss_tracking",
        )),
        "fig6" => emit(figures::fig_x_loss(
            &cfg,
            Mix::UPDATE_INTENSIVE,
            AlgoKind::CapsulesOpt,
            "fig6_x_loss_capsules_opt",
        )),
        "ablation" => emit(figures::fig_ablation(
            &cfg,
            "ablation_tracking_design_choices",
        )),
        "range" => emit(figures::fig_range_sweep(&cfg, "appendix_range_sweep")),
        "mix" => emit(figures::fig_mix_sweep(&cfg, "appendix_mix_sweep")),
        "uc" => emit(figures::fig_uc_compare(&cfg, "appendix_uc_compare")),
        "attribution" => emit(figures::fig_attribution(&cfg, "appendix_site_attribution")),
        "categorize" => {
            for kind in [figures::PAPER_TRACKING, AlgoKind::CapsulesOpt] {
                println!(
                    "\n== {} sites ({} threads) ==",
                    kind.name(),
                    cfg.categorize_threads
                );
                for s in figures::categorize(&cfg, Mix::UPDATE_INTENSIVE, kind) {
                    println!(
                        "  {:<16} impact {:>5.1}%  category {}",
                        s.name,
                        s.impact * 100.0,
                        s.category.label()
                    );
                }
            }
        }
        other => cli::usage(format!(
            "unknown figure '{other}' (use all|fig3|fig4|fig5|fig6|ablation|range|mix|uc|categorize|attribution)"
        )),
    }
}
