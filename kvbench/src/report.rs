//! Metric collection, percentiles and the result line.

use pmem::{SiteId, StatsSnapshot, PALLOC_SITES};
use tracking::sites::SITES;

/// Metrics in insertion order: name, value, unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.retain(|(n, _, _)| *n != name);
        self.0.push((name, value, unit));
    }
}

/// Nearest-rank quantile of `samples` (reorders them). 0 when empty.
pub fn quantile(samples: &mut [u32], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(rank).1 as f64
}

/// Quantile `q` of each full block of `block` consecutive samples, or of
/// the whole sample when it holds no full block. The median of these is
/// the run's estimate: a burst of interference from outside the program
/// moves the blocks it hits, not the median.
pub fn block_quantiles(samples: &[u32], block: usize, q: f64) -> Vec<f64> {
    if samples.len() < block {
        return vec![quantile(&mut samples.to_vec(), q)];
    }
    samples
        .chunks_exact(block)
        .map(|c| quantile(&mut c.to_vec(), q))
        .collect()
}

pub fn median_f64(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Tracking sites on the KV request path, by report name.
pub const PATH_SITES: [&str; 11] = [
    "cp",
    "rd",
    "desc",
    "new-node",
    "tag-info",
    "backtrack-info",
    "updated-field",
    "result",
    "cleanup-info",
    "level",
    "migrate-cursor",
];

fn site(name: &str) -> SiteId {
    SITES
        .iter()
        .find(|(_, n)| *n == name)
        .map(|(s, _)| *s)
        .expect("known tracking site")
}

/// The persistence-count metrics of one window: per-site pwbs of the help
/// engine and descriptors, totals of `pmem::persist`, and the allocator's
/// share, all per request.
pub fn persist_counts(m: &mut Metrics, d: &StatsSnapshot, requests: u64) {
    let per = |x: u64| ratio(x as f64, requests as f64);
    for name in PATH_SITES {
        m.set(
            format!("pwb_per_op.{name}"),
            per(d.pwb_at(site(name))),
            "pwb",
        );
    }
    m.set(
        "help.backtrack_ratio",
        ratio(
            d.pwb_at(site("backtrack-info")) as f64,
            d.pwb_at(site("tag-info")) as f64,
        ),
        "ratio",
    );
    // Every descriptor is persisted once, one pwb per descriptor line.
    m.set(
        "desc.per_op",
        per(d.pwb_at(site("desc"))) / tracking::descriptor::D_LINES as f64,
        "desc",
    );
    m.set("pmem.pwb_per_op", per(d.pwb_total()), "pwb");
    m.set("pmem.psync_per_op", per(d.psync), "psync");
    m.set("pmem.pfence_per_op", per(d.pfence), "pfence");
    let palloc: u64 = PALLOC_SITES.iter().map(|(s, _)| d.pwb_at(*s)).sum();
    m.set("palloc.pwb_per_op", per(palloc), "pwb");
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, m: &Metrics) -> String {
    let body: Vec<String> =
        m.0.iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut m = Metrics::default();
        m.set("p50_us", 1.25, "us");
        m.set("setup_s", 2.0, "s");
        let line = result_line(true, 10, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"p50_us\": {\"value\": 1.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }
}
