//! The real-thread sweep: `subjects × thread counts` timed runs of the
//! [`crate::workload`] engine on one contended structure, reported as the
//! baseline's `thread_sweep` series, plus the reader and comparison the
//! `--prev` check runs on a committed capture's series.

use std::time::Duration;

use crate::registry::Entry;
use crate::workload::{run, RunCfg, RunResult};

/// One `(subject, threads)` datapoint of a thread sweep, as recorded in
/// the `thread_sweep` section of the committed `bench-baseline/v1` reports.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// Subject name.
    pub subject: &'static str,
    /// Worker threads.
    pub threads: usize,
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
            "{{\"subject\": \"{}\", \"threads\": {}, \"ops\": {}, \
             \"ops_per_sec\": {}, \"per_thread_ops_per_sec\": {}, \
             \"pwb_per_op\": {}, \"psync_per_op\": {}}}",
            self.subject,
            self.threads,
            self.ops,
            f(self.ops_per_sec),
            f(self.per_thread_ops_per_sec),
            f(self.pwb_per_op),
            f(self.psync_per_op),
        )
    }
}

/// Runs `subjects × threads_list` on one contended structure each and
/// returns the datapoints in sweep order.
pub fn run_thread_sweep(
    subjects: &[&'static Entry],
    threads_list: &[usize],
    duration: Duration,
    pool_bytes: usize,
) -> Vec<SweepPoint> {
    let mut out = Vec::new();
    for &subject in subjects {
        for &threads in threads_list {
            out.push(time_point(subject, threads, duration, pool_bytes));
        }
    }
    out
}

/// One timed window of `subject` at `threads` threads on one contended
/// structure.
pub fn time_point(
    subject: &'static Entry,
    threads: usize,
    duration: Duration,
    pool_bytes: usize,
) -> SweepPoint {
    let cfg = RunCfg {
        duration,
        pool_bytes,
        ..RunCfg::contended(subject, threads)
    };
    SweepPoint::from_result(&run(&cfg))
}

/// Extracts every sweep point `(subject, threads, ops_per_sec,
/// psync_per_op)` from a baseline document's `thread_sweep` section (keys
/// it does not read, such as the `shards` of captures up to
/// `BENCH_pr19.json`, are skipped). Used by `baseline --prev` to flag
/// scaling regressions without a JSON dependency.
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
/// (e.g. `0.25` flags drops of more than 25 %). A point below the bound
/// is timed twice more with `retime` (which returns ops/sec) and flagged
/// only if the median of its three timings is still below: one slow
/// window on a shared host is noise, a regression repeats. Time-based
/// throughput on a shared CI host is noisy, so callers report, not fail,
/// on warnings.
pub fn compare_sweeps(
    prev: &[(String, usize, f64, f64)],
    cur: &[SweepPoint],
    tolerance: f64,
    mut retime: impl FnMut(&SweepPoint) -> f64,
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
        let prev_ops = prev_ops.max(1e-9);
        let mut ratio = p.ops_per_sec / prev_ops;
        let mut line = format!(
            "{} @{}T: {:.0} ops/s vs prev {:.0} = x{:.2}",
            p.subject, p.threads, p.ops_per_sec, prev_ops, ratio
        );
        if ratio < 1.0 - tolerance {
            let (a, b) = (retime(p), retime(p));
            let mut three = [p.ops_per_sec, a, b];
            three.sort_by(f64::total_cmp);
            ratio = three[1] / prev_ops;
            line.push_str(&format!(
                "; retimed {a:.0}, {b:.0} ops/s: median x{ratio:.2}"
            ));
        }
        if ratio < 1.0 - tolerance {
            warnings += 1;
            line.push_str("  <-- REGRESSION");
        }
        lines.push(line);
    }
    (lines, warnings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{AlgoKind, StructureKind};
    use crate::registry;
    use pmem::Backend;

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

    #[test]
    fn arena_refills_stay_rare() {
        let queue = registry::find(StructureKind::Queue, AlgoKind::Tracking).unwrap();
        let r = run(&RunCfg {
            duration: Duration::from_millis(40),
            pool_bytes: 256 << 20,
            backend: Backend::Noop,
            prefill: 64,
            ..RunCfg::contended(queue, 2)
        });
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

    /// Rendered points parse back, and `compare_sweeps` retimes a slow
    /// point before it flags it.
    #[test]
    fn compare_sweeps_retimes_before_flagging() {
        let stack = registry::find(StructureKind::Stack, AlgoKind::Tracking).unwrap();
        let pts = run_thread_sweep(&[stack], &[1, 2], Duration::from_millis(30), 256 << 20);
        assert_eq!(pts.len(), 2);
        let rows: Vec<String> = pts.iter().map(SweepPoint::to_json).collect();
        let json = format!("{{\"thread_sweep\": [\n{}\n]}}", rows.join(",\n"));
        let parsed = sweep_points_from_json(&json);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "stack/Tracking");
        assert_eq!(parsed[0].1, 1);
        let (lines, warnings) = compare_sweeps(&parsed, &pts, 0.25, |_| unreachable!());
        assert_eq!(lines.len(), 2);
        assert_eq!(warnings, 0, "identical sweeps cannot regress");

        // Against a capture twice as fast, each point is retimed twice and
        // flagged only while the median of its three timings stays slow.
        let faster: Vec<_> = parsed
            .iter()
            .map(|(s, t, o, p)| (s.clone(), *t, 2.0 * o, *p))
            .collect();
        let mut retimes = 0;
        let (lines, warnings) = compare_sweeps(&faster, &pts, 0.25, |p| {
            retimes += 1;
            p.ops_per_sec
        });
        assert_eq!((retimes, warnings), (4, 2), "{lines:?}");
        assert!(lines
            .iter()
            .all(|l| l.contains("retimed") && l.ends_with("<-- REGRESSION")));
        let (lines, warnings) = compare_sweeps(&faster, &pts, 0.25, |p| 4.0 * p.ops_per_sec);
        assert_eq!(warnings, 0, "a slow first window alone is noise: {lines:?}");
    }
}
