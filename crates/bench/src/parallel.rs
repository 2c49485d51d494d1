//! The real-thread throughput sweep: `subjects × thread counts` timed runs
//! of the [`crate::workload`] engine on one contended shard, reported as
//! the baseline's `thread_sweep` series and as the standalone
//! `bench-throughput/v1` document of `bin/throughput`, plus the readers
//! and comparisons the `--prev` checks run on those documents.

use std::time::Duration;

use crate::registry::Entry;
use crate::workload::{run, RunCfg, RunResult};

/// One `(subject, threads)` datapoint of a thread sweep, as recorded in
/// the committed JSON reports (`thread_sweep` section of
/// `bench-baseline/v1`, `points` of `bench-throughput/v1`).
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Subject name.
    pub subject: &'static str,
    /// Worker threads.
    pub threads: usize,
    /// Shards used.
    pub shards: usize,
    /// Completed operations.
    pub ops: u64,
    /// Aggregate operations per second.
    pub ops_per_sec: f64,
    /// Mean per-thread operations per second.
    pub per_thread_ops_per_sec: f64,
    /// `pwb`s per operation.
    pub pwb_per_op: f64,
    /// `psync`s per operation.
    pub psync_per_op: f64,
}

impl SweepPoint {
    /// The datapoint of one timed run.
    pub fn from_result(r: &RunResult) -> SweepPoint {
        SweepPoint {
            subject: r.subject,
            threads: r.threads,
            shards: r.shards,
            ops: r.ops,
            ops_per_sec: r.ops_per_sec(),
            per_thread_ops_per_sec: r.per_thread_ops_per_sec(),
            pwb_per_op: r.pwb_per_op(),
            psync_per_op: r.psync_per_op(),
        }
    }

    /// Renders the point as a JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let f = crate::baseline::json_f;
        format!(
            "{{\"subject\": \"{}\", \"threads\": {}, \"shards\": {}, \"ops\": {}, \
             \"ops_per_sec\": {}, \"per_thread_ops_per_sec\": {}, \
             \"pwb_per_op\": {}, \"psync_per_op\": {}}}",
            self.subject,
            self.threads,
            self.shards,
            self.ops,
            f(self.ops_per_sec),
            f(self.per_thread_ops_per_sec),
            f(self.pwb_per_op),
            f(self.psync_per_op),
        )
    }
}

/// Runs `subjects × threads_list` on one contended shard and returns the
/// datapoints in sweep order.
pub fn run_thread_sweep(
    subjects: &[&'static Entry],
    threads_list: &[usize],
    duration: Duration,
    pool_bytes: usize,
) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &subject in subjects {
        for &threads in threads_list {
            let cfg = RunCfg {
                duration,
                pool_bytes,
                ..RunCfg::contended(subject, threads)
            };
            out.push(SweepPoint::from_result(&run(&cfg)));
        }
    }
    out
}

/// Schema identifier of the standalone `throughput` report.
pub const THROUGHPUT_SCHEMA: &str = "bench-throughput/v1";

/// Renders a standalone `bench-throughput/v1` document.
pub fn throughput_json(label: &str, threads_list: &[usize], points: &[SweepPoint]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{THROUGHPUT_SCHEMA}\",\n"));
    out.push_str(&format!("  \"label\": \"{label}\",\n"));
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        crate::baseline::host_cpus()
    ));
    out.push_str(&format!(
        "  \"degraded_parallelism\": {},\n",
        crate::baseline::degraded_parallelism(threads_list)
    ));
    out.push_str(&format!(
        "  \"threads\": [{}],\n",
        threads_list
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&p.to_json());
        out.push_str(if i + 1 == points.len() { "\n" } else { ",\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Validates a `bench-throughput/v1` document: schema tag, a non-empty
/// `points` array, and finite non-negative numerics per point.
pub fn validate_throughput_json(json: &str) -> Result<(), String> {
    if !json.contains(&format!("\"schema\": \"{THROUGHPUT_SCHEMA}\"")) {
        return Err(format!("missing schema tag {THROUGHPUT_SCHEMA:?}"));
    }
    if !json.contains("\"points\": [") {
        return Err("missing points section".into());
    }
    let n = json.matches("\"subject\":").count();
    if n == 0 {
        return Err("no sweep points".into());
    }
    for key in [
        "ops_per_sec",
        "per_thread_ops_per_sec",
        "pwb_per_op",
        "psync_per_op",
    ] {
        crate::baseline::check_number(json, key)?;
    }
    Ok(())
}

/// Extracts every sweep point `(subject, threads, ops_per_sec,
/// psync_per_op)` from a committed JSON document — works on both the
/// baseline's `thread_sweep` section and the throughput report's `points`
/// (the objects are identical). Used by `baseline --prev` to flag scaling
/// regressions without a JSON dependency.
pub fn sweep_points_from_json(json: &str) -> Vec<(String, usize, f64, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(at) = rest.find("{\"subject\": \"") {
        let obj_start = at + "{\"subject\": \"".len();
        let Some(name_end) = rest[obj_start..].find('"') else {
            break;
        };
        let subject = rest[obj_start..obj_start + name_end].to_string();
        let Some(obj_end) = rest[at..].find('}') else {
            break;
        };
        let obj = &rest[at..at + obj_end + 1];
        let threads = crate::baseline::extract_number(obj, "threads").unwrap_or(0.0) as usize;
        let ops_per_sec = crate::baseline::extract_number(obj, "ops_per_sec").unwrap_or(0.0);
        let psync_per_op = crate::baseline::extract_number(obj, "psync_per_op").unwrap_or(0.0);
        if threads > 0 {
            out.push((subject, threads, ops_per_sec, psync_per_op));
        }
        rest = &rest[at + obj_end + 1..];
    }
    out
}

/// Compares a fresh sweep against a previous report's points, returning
/// one human-readable line per matching `(subject, threads)` pair and a
/// warning count for aggregate-throughput drops beyond `tolerance`
/// (e.g. `0.25` flags drops of more than 25 %). Time-based throughput on
/// a shared CI host is noisy, so callers report, not fail, on warnings.
pub fn compare_sweeps(
    prev: &[(String, usize, f64, f64)],
    cur: &[SweepPoint],
    tolerance: f64,
) -> (Vec<String>, usize) {
    let mut lines = Vec::new();
    let mut warnings = 0;
    for p in cur {
        let Some((_, _, prev_ops, _)) = prev
            .iter()
            .find(|(s, t, _, _)| s == p.subject && *t == p.threads)
        else {
            continue;
        };
        let ratio = p.ops_per_sec / prev_ops.max(1e-9);
        let flag = if ratio < 1.0 - tolerance {
            warnings += 1;
            "  <-- REGRESSION"
        } else {
            ""
        };
        lines.push(format!(
            "{} @{}T: {:.0} ops/s vs prev {:.0} = x{:.2}{}",
            p.subject, p.threads, p.ops_per_sec, prev_ops, ratio, flag
        ));
    }
    (lines, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{AlgoKind, StructureKind};
    use crate::registry;
    use pmem::Backend;

    fn tiny(subject: &'static Entry, threads: usize) -> RunCfg {
        RunCfg {
            duration: Duration::from_millis(40),
            pool_bytes: 256 << 20,
            backend: Backend::Noop,
            prefill: 64,
            ..RunCfg::contended(subject, threads)
        }
    }

    /// Every registered pair keeps both of two real threads busy and
    /// persists. At 64 keys, so the list competitors that copy or walk the
    /// whole set per operation stay quick in a debug build.
    #[test]
    fn every_subject_sustains_two_threads() {
        for e in registry::entries() {
            let r = run(&RunCfg {
                duration: Duration::from_millis(40),
                key_range: 64,
                pool_bytes: 256 << 20,
                backend: Backend::Noop,
                prefill: 32,
                ..RunCfg::contended(e, 2)
            });
            let name = e.name;
            assert_eq!(r.per_thread_ops.len(), 2, "{name}");
            assert!(r.ops > 0, "{name} completed no ops");
            assert!(
                r.per_thread_ops.iter().all(|&o| o > 0),
                "{name} starved a thread: {:?}",
                r.per_thread_ops
            );
            assert!(r.pwb_total() > 0 && r.psync > 0, "{name} must persist");
        }
    }

    /// Every throughput subject runs two real threads on two shards.
    #[test]
    fn sharding_spreads_threads() {
        for e in registry::with_role(registry::THROUGHPUT) {
            let r = run(&RunCfg {
                shards: 2,
                ..tiny(e, 2)
            });
            let name = e.name;
            assert_eq!(r.shards, 2, "{name}");
            assert!(
                r.per_thread_ops.iter().all(|&o| o > 0),
                "{name} starved a shard: {:?}",
                r.per_thread_ops
            );
        }
    }

    #[test]
    fn arena_refills_stay_rare() {
        let queue = registry::find(StructureKind::Queue, AlgoKind::Tracking).unwrap();
        let r = run(&tiny(queue, 2));
        // Each 4096-line chunk serves dozens of ops, so refills must stay a
        // tiny fraction of throughput; a regression to per-op global-cursor
        // traffic would put refills on the order of `ops` itself. The bound
        // scales with completed ops so a faster machine (more ops in the
        // 40 ms window, hence more refills) cannot trip it.
        assert!(
            r.arena_refills <= r.ops / 32 + 8,
            "arena refills {} vs {} ops suggest the sub-arena is not serving allocations",
            r.arena_refills,
            r.ops
        );
    }

    #[test]
    fn throughput_json_roundtrips() {
        let stack = registry::find(StructureKind::Stack, AlgoKind::Tracking).unwrap();
        let pts = run_thread_sweep(&[stack], &[1, 2], Duration::from_millis(30), 256 << 20);
        assert_eq!(pts.len(), 2);
        let json = throughput_json("unit", &[1, 2], &pts);
        validate_throughput_json(&json).expect("self-produced JSON must validate");
        let parsed = sweep_points_from_json(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "stack/Tracking");
        assert_eq!(parsed[0].1, 1);
        let (lines, warnings) = compare_sweeps(&parsed, &pts, 0.25);
        assert_eq!(lines.len(), 2);
        assert_eq!(warnings, 0, "identical sweeps cannot regress");
    }

    #[test]
    fn validate_rejects_garbage() {
        assert!(validate_throughput_json("{}").is_err());
        assert!(validate_throughput_json("{\"schema\": \"bench-throughput/v1\"}").is_err());
    }
}
