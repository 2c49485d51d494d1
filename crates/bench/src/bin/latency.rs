//! Per-operation latency percentiles for every implementation.
//!
//! Complements the throughput harness and the baseline with a
//! latency-distribution view of every set competitor in the registry:
//! p50/p90/p99/p999 per operation kind, from a log-bucketed histogram
//! (hand-rolled; no extra dependencies).
//!
//! ```text
//! cargo run -p bench --release --bin latency [-- --ops 200000 --range 500]
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bench::cli::{self, Args};
use bench::registry::{self, Dims, Engine, COMPETITOR};
use bench::{AlgoKind, Mix, Subject};
use pmem::{Backend, PmemPool, PoolCfg, ThreadCtx};

/// Log-bucketed latency histogram: bucket i covers [2^(i/4), 2^((i+1)/4))
/// nanoseconds-ish (quarter-powers of two give <20 % bucket error, plenty
/// for percentile reporting).
struct Histogram {
    buckets: Vec<u64>,
    count: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: vec![0; 256],
            count: 0,
        }
    }

    fn bucket_of(ns: u64) -> usize {
        if ns < 2 {
            return 0;
        }
        let log2 = 63 - ns.leading_zeros() as u64;
        let frac = (ns >> log2.saturating_sub(2)) & 0b11; // next 2 bits
        ((log2 * 4 + frac) as usize).min(255)
    }

    fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
        self.count += 1;
    }

    /// Upper edge (ns) of the bucket holding the q-quantile.
    fn quantile(&self, q: f64) -> u64 {
        let target = (self.count as f64 * q) as u64;
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target.max(1) {
                let log2 = i as u64 / 4;
                let frac = i as u64 % 4;
                return (1u64 << log2) + ((frac + 1) << log2.saturating_sub(2));
            }
        }
        u64::MAX
    }
}

fn main() {
    let mut ops: u64 = 100_000;
    let mut range: u64 = 500;
    let mut args = Args::from_env();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--ops" => ops = args.value(&flag),
            "--range" => range = args.value(&flag),
            other => cli::usage(format!("unknown flag {other}")),
        }
    }

    println!(
        "{:<22} {:>10} {:>8} {:>8} {:>8} {:>8}",
        "algo/op", "ops", "p50(ns)", "p90(ns)", "p99(ns)", "p999(ns)"
    );
    for entry in registry::with_role(COMPETITOR) {
        // Capsules is ~20x slower; keep wall time comparable.
        let n = if entry.algo == AlgoKind::Capsules {
            ops / 10
        } else {
            ops
        };
        for (op, h) in entry.with(Latency { ops: n, range }) {
            println!(
                "{:<22} {:>10} {:>8} {:>8} {:>8} {:>8}",
                format!("{}/{}", entry.algo.name(), op),
                h.count,
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.quantile(0.999),
            );
        }
    }
}

/// Times `ops` calls of one subject, drawn a third each of reads, adds
/// and removes over keys `[1, range]` after `range / 2` adds, into one
/// histogram per operation kind (`Insert`, `Delete`, `Find`, …).
struct Latency {
    ops: u64,
    range: u64,
}

impl Engine for Latency {
    type Out = BTreeMap<String, Histogram>;

    fn run<Sub: Subject>(
        self,
        make: impl Fn(&Arc<PmemPool>, &Dims) -> Sub + Copy + Send + Sync + 'static,
    ) -> Self::Out {
        let pool = Arc::new(PmemPool::new(PoolCfg {
            capacity: 2 << 30,
            backend: Backend::Clflush,
            shadow: false,
            max_threads: 8,
            ..Default::default()
        }));
        let dims = Dims {
            root: 0,
            threads: 4,
            keys: self.range,
            map: Default::default(),
        };
        let sub = make(&pool, &dims);
        let ctx = ThreadCtx::new(pool.clone(), 0);
        let mut rng = pmem::Rng(0x5EED);
        for _ in 0..self.range / 2 {
            sub.call(&ctx, &Sub::draw(rng.next(), &Mix::ADD, self.range));
        }
        let mix = Mix {
            of: 3,
            read: 1,
            add: 1,
        };
        let mut hists: BTreeMap<String, Histogram> = BTreeMap::new();
        for _ in 0..self.ops {
            if pool.remaining_lines() < 4096 {
                break;
            }
            let op = Sub::draw(rng.next(), &mix, self.range);
            let kind = format!("{op:?}");
            let kind = kind.split('(').next().unwrap_or_default().to_string();
            let t = Instant::now();
            std::hint::black_box(sub.call(&ctx, &op));
            let ns = t.elapsed().as_nanos() as u64;
            hists.entry(kind).or_insert_with(Histogram::new).record(ns);
        }
        hists
    }
}
