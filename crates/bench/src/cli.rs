//! The flag reader the command-line tools of this crate share.

use std::str::FromStr;

use crate::adapter::{AlgoKind, StructureKind};
use crate::sweep::AdversaryKind;

/// Prints `msg` and exits with status 2 (bad usage).
pub fn usage(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// The process arguments after the program name, read flag by flag.
pub struct Args(std::vec::IntoIter<String>);

impl Args {
    /// The arguments of this process.
    pub fn from_env() -> Args {
        Args(std::env::args().skip(1).collect::<Vec<_>>().into_iter())
    }

    /// The value following `flag`, parsed; a missing or malformed value is
    /// a usage error.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> T {
        let v = self
            .0
            .next()
            .unwrap_or_else(|| usage(format!("{flag} expects a value")));
        v.parse()
            .unwrap_or_else(|_| usage(format!("bad value '{v}' for {flag}")))
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// A comma-separated list (`1,2,4`).
pub fn list<T: FromStr>(s: &str) -> Vec<T> {
    s.split(',')
        .map(|t| {
            t.trim()
                .parse()
                .unwrap_or_else(|_| usage(format!("bad list item '{t}'")))
        })
        .collect()
}

/// A `--structure` value: one shape, or `all`.
pub fn structures(s: &str) -> Vec<StructureKind> {
    if s == "all" {
        return StructureKind::all().to_vec();
    }
    vec![StructureKind::parse(s).unwrap_or_else(|| {
        usage(format!(
            "unknown structure '{s}' (list|bst|queue|stack|exchanger|hashmap|all)"
        ))
    })]
}

/// An `--algo` value: one implementation, or `None` for `all`.
pub fn algo(s: &str) -> Option<AlgoKind> {
    (s != "all")
        .then(|| AlgoKind::parse(s).unwrap_or_else(|| usage(format!("unknown algorithm '{s}'"))))
}

/// A `--shard I/N` value: `(I, N)` with `I < N`.
pub fn shard(s: &str) -> (u64, u64) {
    let parsed = s
        .split_once('/')
        .and_then(|(i, n)| Some((i.parse().ok()?, n.parse().ok()?)));
    match parsed {
        Some((i, n)) if i < n => (i, n),
        _ => usage("--shard expects I/N with I < N, e.g. --shard 0/4"),
    }
}

/// An `--adversary` value.
pub fn adversary(s: &str) -> AdversaryKind {
    AdversaryKind::parse(s)
        .unwrap_or_else(|| usage(format!("unknown adversary '{s}' (pessimist|seeded)")))
}
