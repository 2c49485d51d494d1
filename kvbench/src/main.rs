//! End-to-end and per-layer benchmark of the detectable KV request path:
//! `tracking::RecoverableHashMap` over a `pmem` pool, driven by seeded
//! closed-loop clients, with time-to-first-serve after crashes.
//!
//! ```text
//! cargo run --release --manifest-path kvbench/Cargo.toml -- \
//!     --workload kv-read --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `kvbench/README.md`.

mod closed;
mod crash;
mod kv;
mod plan;
mod report;
mod spans;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use kv::Variant;
use plan::Mix;
use report::{result_line, Metrics};

const USAGE: &str = "usage: kvbench --workload <kv-read|kv-churn|kv-crash> --seed <n> \
--seconds <s> --trace <0|1> [--spans <file>]";

const WORKLOADS: [&str; 3] = ["kv-read", "kv-churn", "kv-crash"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut spans = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|n| **n == w)
                        .ok_or(format!("unknown workload {w}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace takes 0 or 1, not {t}")),
                })
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            f => return Err(format!("unknown argument {f}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// kv-read: the paper's configuration (bump arena) with an index far larger
/// than L2, zipf-skewed and read-mostly.
fn kv_read() -> closed::Spec {
    closed::Spec {
        clients: 2,
        universe: 92_000,
        prefill: 46_000,
        mix: Mix { get: 90, put: 5 },
        zipf: Some(0.99),
        reclaim: false,
        drain_every: None,
        plan_rate: 1_200_000.0,
        bytes_per_req: 200,
        bytes_per_key: 2_048,
        segments: 3,
        reboots: 21_000,
        reboot_block: 1_000,
        reboot_pause: Duration::from_millis(100),
    }
}

/// kv-churn: a reclaiming pool, an in-cache index and a write-only mix
/// under two-client contention, with quiescent drains.
fn kv_churn() -> closed::Spec {
    closed::Spec {
        clients: 2,
        universe: 8_192,
        prefill: 4_096,
        mix: Mix { get: 0, put: 50 },
        zipf: None,
        reclaim: true,
        drain_every: Some(1024),
        plan_rate: 500_000.0,
        bytes_per_req: 256,
        bytes_per_key: 2_048,
        segments: 10,
        reboots: 3_000,
        reboot_block: 100,
        reboot_pause: Duration::ZERO,
    }
}

/// kv-crash: one client growing fresh tables through seeded power failures.
fn kv_crash() -> crash::Spec {
    crash::Spec {
        universe: 32_768,
        target_buckets: 16_384,
        mix: Mix { get: 10, put: 70 },
        max_requests: 100_000,
        mean_gap: 10_000,
        drain_every: 1024,
        cycles_per_s: 2.0,
        bytes_per_req: 1_200,
    }
}

static PANICS: AtomicU64 = AtomicU64::new(0);

/// Pins glibc's mmap threshold. By default glibc raises the threshold to
/// the size of each large block freed, so once a run has dropped a pool,
/// the next pool's metadata arrays (30 MiB each on kv-crash) come from the
/// heap and `calloc` clears them: building a pool then took 16–85 ms
/// instead of 0.1 ms, depending on the heap's history. With the threshold
/// fixed, every large array is a fresh mapping that the kernel zeroes page
/// by page on first touch, as `pmem` allocates it to be.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: std::os::raw::c_int = -3;
    extern "C" {
        fn mallopt(param: std::os::raw::c_int, value: std::os::raw::c_int) -> std::os::raw::c_int;
    }
    // SAFETY: `mallopt` only changes allocator tuning; it runs before this
    // program starts any thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 << 10);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kvbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Panics other than injected crash points are failures; report each
    // (the first few) with the seed that reproduces it.
    let (workload, seed) = (args.workload, args.seed);
    std::panic::set_hook(Box::new(move |info| {
        if PANICS.fetch_add(1, Ordering::Relaxed) < 5 {
            eprintln!("kvbench: panic in {workload} (seed {seed}): {info}");
        }
    }));

    let prov = provenance(&args);
    println!("{prov}");
    let mut out = match args.workload {
        "kv-read" => run_closed(&args, kv_read()),
        "kv-churn" => run_closed(&args, kv_churn()),
        _ => run_crash(&args),
    };
    let error_rate = report::ratio(out.failed as f64, out.attempted as f64);
    if args.trace {
        out.metrics.set("error_rate", error_rate, "ratio");
    }
    for n in out.notes.iter().take(20) {
        println!("FAIL {n}");
    }
    for (n, v, u) in &out.metrics.0 {
        println!("{n:<34} {v:>16} {u}");
    }
    for f in &out.flags {
        println!("NOTE {f}");
    }
    println!(
        "error_rate {} ({} failed of {} attempted)",
        error_rate, out.failed, out.attempted
    );
    if args.trace {
        let path = args
            .spans
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("kvbench-out/{}.spans.jsonl", args.workload)));
        match spans::write(&path, &prov, &out.recorders) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("kvbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let line = result_line(
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        &out.metrics,
    );
    println!("{line}");
    ExitCode::SUCCESS
}

/// What a workload run reports.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// One line per failed check.
    notes: Vec<String>,
    metrics: Metrics,
    recorders: Vec<spans::Recorder>,
    /// Facts about the run worth printing that are not failures.
    flags: Vec<String>,
}

impl Outcome {
    /// Folds a twin's checks into the traced run's outcome.
    fn absorb(&mut self, attempted: u64, failed: u64, notes: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        self.notes.extend_from_slice(notes);
    }
}

const TWINS: [Variant; 4] = [
    Variant::PLAIN,
    Variant::NOOP,
    Variant::FLUSHOPT,
    Variant::POOL_TRACE,
];

fn run_closed(args: &Args, spec: closed::Spec) -> Outcome {
    let plan = closed::plan(&spec, args.seed, args.seconds);
    let v = if args.trace {
        Variant::TRACED
    } else {
        Variant::PLAIN
    };
    let mut main = closed::run(&spec, &plan, v, args.seconds, false);
    let mut out = Outcome::default();
    out.absorb(main.attempted, main.failed, &main.notes);
    if main.plan_exhausted {
        out.flags
            .push("a client used up its request stream before the window ended".into());
    }
    if !args.trace {
        out.metrics = closed::e2e(&mut main);
        return out;
    }
    let twins: Vec<closed::Run> = TWINS
        .iter()
        .map(|&v| closed::run(&spec, &plan, v, args.seconds, false))
        .collect();
    for t in &twins {
        out.absorb(t.attempted, t.failed, &t.notes);
    }
    out.metrics = closed::layers(&mut main, &twins[0], &twins[1], &twins[2], &twins[3]);
    out.recorders = std::mem::take(&mut main.recorders);
    out
}

fn run_crash(args: &Args) -> Outcome {
    let spec = kv_crash();
    let plan = crash::plan(&spec, args.seed, args.seconds);
    let v = if args.trace {
        Variant::TRACED
    } else {
        Variant::PLAIN
    };
    let mut main = crash::run(&spec, &plan, v, args.seed);
    let mut out = Outcome::default();
    out.absorb(main.requests, main.failed, &main.notes);
    out.flags.push(format!(
        "{} cycles to {} buckets, {} power failures",
        plan.cycles.len(),
        spec.target_buckets,
        main.failures
    ));
    if !args.trace {
        out.metrics = crash::e2e(&mut main);
        return out;
    }
    let twins: Vec<crash::Run> = TWINS
        .iter()
        .map(|&v| crash::run(&spec, &plan, v, args.seed))
        .collect();
    for (t, v) in twins.iter().zip(TWINS) {
        out.absorb(t.requests, t.failed, &t.notes);
        // Single-threaded and seeded: a twin whose event stream is the
        // traced run's must see the same failures (flush elision removes
        // events, so the flushopt twin's failures land elsewhere).
        if !v.flushopt && t.failures != main.failures {
            out.absorb(
                0,
                1,
                &[format!(
                    "{} twin saw {} power failures, traced run {}",
                    v.name, t.failures, main.failures
                )],
            );
        }
    }
    out.metrics = crash::layers(&mut main, &twins[0], &twins[1], &twins[2], &twins[3]);
    out.recorders = std::mem::take(&mut main.recorders);
    out
}

/// One JSON line naming everything a result depends on besides the code.
fn provenance(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let clients = if args.workload == "kv-crash" { 1 } else { 2 };
    let pool = match args.workload {
        "kv-read" => "perf bump-arena (reclaim off), per-client sub-arenas",
        "kv-churn" => "perf reclaim on, per-client sub-arenas",
        _ => "model (shadow crash model) reclaim on",
    };
    if clients > nproc {
        eprintln!("kvbench: WARNING: {clients} client threads on {nproc} CPUs (oversubscribed)");
    }
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"client_threads\": {clients}, \"oversubscribed\": {}, \
         \"host_clwb\": {}, \"backend\": \"Clflush\", \"psync\": true, \"flushopt\": false, \
         \"pool\": \"{pool}\", \"hashmap\": \"default HashMapConfig\", \"commit\": \"{}\", \
         \"source_digest\": \"{:016x}\"}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        clients > nproc,
        host_clwb(),
        commit(),
        source_digest(),
    )
}

/// Whether the host has `clwb`, the write-back `Backend::Clflush` issues
/// when present (CPUID leaf 7, EBX bit 24).
fn host_clwb() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        core::arch::x86_64::__cpuid_count(7, 0).ebx & (1 << 24) != 0
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a git checkout.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{r}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the sources this binary was built from, so results of a
/// checkout without git history still name the code they measured.
fn source_digest() -> u64 {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["../crates/pmem/src", "../crates/tracking/src", "src"] {
        if let Ok(rd) = std::fs::read_dir(root.join(dir)) {
            files.extend(rd.filter_map(|e| e.ok()).map(|e| e.path()));
        }
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in std::fs::read(&f).unwrap_or_default() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}
