//! The four workloads, and everything a run derives from `--seed`: the
//! database, the queries and the open-loop arrival schedule. The
//! program under test receives only these generated inputs.

use sapla_core::TimeSeries;
use sapla_data::generators::{generate, Family};

/// Neighbours per kNN query, every workload.
pub const K: usize = 10;
/// Coefficient budget `M` of the reduction, every workload.
pub const M: usize = 12;
/// Signal families, and variants cycled per family, when generating
/// series: series `i` is of family `i % FAMILIES`.
pub const FAMILIES: usize = Family::ALL.len();
pub const VARIANTS: usize = 12;

/// One set of inputs the benchmark runs. Everything not listed is the
/// engine's default (DBCH-tree, `NodeDistRule::Paper`, fill 2..5).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why this workload exists (repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// Database size and series length.
    pub series: usize,
    pub len: usize,
    /// Raw queries (none of them is in the database).
    pub queries: usize,
    pub shards: usize,
    /// Engine worker threads, in process and in the server.
    pub threads: usize,
    /// Measured single-query passes over all queries (after one
    /// discarded warm-up stretch). Fewer where one query costs more:
    /// the run must fit the driver's total time.
    pub knn_passes: usize,
    /// Queries per served request.
    pub serve_batch: usize,
    /// Open-loop arrival rate (traced run), requests per second: low
    /// enough that each of the two connections is under half busy even
    /// in the sandbox's slow stretches. Nearer saturation a stall of the
    /// sandbox builds a queue that takes seconds to drain: at 60/s
    /// `sharded-batch` had 52 of 1000 requests between 300 and 413 ms.
    pub serve_rate: f64,
    /// Seconds between empty-blob `reload` requests on a control
    /// connection while the server is under load.
    pub reload_every_s: Option<f64>,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "short-wide",
        why: "32000 x n=128: node bounds, leaf filter and heap dominate, refining 128 points is cheap; an index change shows here, a reduction change barely",
        series: 32_000,
        len: 128,
        queries: 1000,
        shards: 1,
        threads: 1,
        knn_passes: 1,
        serve_batch: 1,
        serve_rate: 60.0,
        reload_every_s: None,
    },
    Workload {
        name: "long-narrow",
        why: "4096 x n=2048: reduction is ~96% of build, refinement is 2048-point Euclid, 16 KB wire queries, raw-dominated snapshot; the tree does almost nothing",
        series: 4096,
        len: 2048,
        queries: 1000,
        shards: 1,
        threads: 1,
        knn_passes: 2,
        serve_batch: 1,
        serve_rate: 120.0,
        reload_every_s: None,
    },
    Workload {
        name: "sharded-batch",
        why: "16000 x n=256 on 4 shards, 2 threads, multi-query requests: the only workload with (block, shard) scatter, per-query merge and the pruning cost of sharding",
        series: 16_000,
        len: 256,
        queries: 1024,
        shards: 4,
        threads: 2,
        knn_passes: 3,
        serve_batch: 2,
        serve_rate: 40.0,
        reload_every_s: None,
    },
    Workload {
        name: "reload-under-load",
        why: "10000 x n=256 with a snapshot reload every 0.5 s beside the reads: foreground stalls caused by background work show in the served latencies here and nowhere else",
        series: 10_000,
        len: 256,
        queries: 1000,
        shards: 1,
        threads: 1,
        knn_passes: 4,
        serve_batch: 1,
        serve_rate: 150.0,
        reload_every_s: Some(0.5),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The contract's name rule: letters, digits, `_`, `.`, `-`; starts
/// with a letter or digit; at most 64 characters.
#[cfg(test)]
pub fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64 && s.starts_with(|c: char| c.is_ascii_alphanumeric()) && s.chars().all(ok)
}

/// splitmix64: the harness's only source of randomness besides the
/// repository's own generators, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in the open interval (0, 1).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    }
}

/// Series `i` of stream `stream` (0 = database, 1 = queries): families
/// and variants cycle so every run holds every signal regime, and the
/// per-series seed mixes `seed`, the stream and `i`.
fn series(seed: u64, stream: u64, i: usize, len: usize) -> TimeSeries {
    let family = Family::ALL[i % FAMILIES];
    let variant = (i / FAMILIES % VARIANTS) as u64;
    let mut mix = Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    let per_series = mix.next_u64().wrapping_add(i as u64);
    generate(family, variant, per_series, len)
}

/// The generated inputs of one run.
#[derive(Debug, Clone)]
pub struct Data {
    pub db: Vec<TimeSeries>,
    pub queries: Vec<TimeSeries>,
}

pub fn generate_data(w: &Workload, seed: u64) -> Data {
    Data {
        db: (0..w.series).map(|i| series(seed, 0, i, w.len)).collect(),
        queries: (0..w.queries).map(|i| series(seed, 1, i, w.len)).collect(),
    }
}

/// Due times (seconds from the start of the open loop) of `requests`
/// Poisson arrivals at `rate` per second.
pub fn poisson_schedule(seed: u64, rate: f64, requests: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ 0x0A11_CE5C_4ED0_1E5D);
    let mut t = 0.0f64;
    (0..requests)
        .map(|_| {
            t += -rng.unit().ln() / rate;
            t
        })
        .collect()
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// A lifecycle small enough for `cargo test`, still with the 1000
    /// samples a p99 needs.
    pub const TINY: Workload = Workload {
        name: "tiny",
        why: "test only",
        series: 600,
        len: 64,
        queries: 1000,
        shards: 2,
        threads: 2,
        knn_passes: 1,
        serve_batch: 2,
        serve_rate: 1000.0,
        reload_every_s: Some(0.3),
    };

    #[test]
    fn names_follow_the_contract() {
        assert!(is_name("short-wide") && is_name("index.knn_us_per_query") && is_name("9x"));
        assert!(!is_name("") && !is_name("-x") && !is_name("a b") && !is_name("a/b"));
        assert!(!is_name(&"x".repeat(65)));
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.queries >= 1000, "{}: recall and the medians rest on 1000 queries", w.name);
            assert!(w.knn_passes >= 1, "{}", w.name);
            assert_eq!(w.queries % w.serve_batch, 0, "{}", w.name);
        }
        assert!(find("long-narrow").is_some() && find("nope").is_none());
    }

    #[test]
    fn equal_seeds_give_equal_data_and_different_seeds_differ() {
        let a = generate_data(&TINY, 11);
        let b = generate_data(&TINY, 11);
        let c = generate_data(&TINY, 12);
        assert_eq!(a.db.len(), TINY.series);
        assert_eq!(a.queries.len(), TINY.queries);
        assert!(a.db.iter().chain(&a.queries).all(|s| s.len() == TINY.len));
        assert_eq!(a.db, b.db);
        assert_eq!(a.queries, b.queries);
        assert_ne!(a.db, c.db);
        assert_ne!(a.queries, c.queries);
        // Queries are fresh draws, not database members.
        assert!(a.queries.iter().all(|q| !a.db.contains(q)));
    }

    #[test]
    fn poisson_schedule_is_seeded_ascending_and_at_rate() {
        let a = poisson_schedule(5, 200.0, 4000);
        assert_eq!(a, poisson_schedule(5, 200.0, 4000));
        assert_ne!(a, poisson_schedule(6, 200.0, 4000));
        assert!(a.windows(2).all(|w| w[0] < w[1]) && a[0] > 0.0);
        // 4000 arrivals at 200/s end near 20 s (relative sd 1/sqrt(4000)).
        let end = *a.last().unwrap();
        assert!((end - 20.0).abs() < 2.0, "{end}");
        // Exponential gaps: about exp(-1) of them exceed the mean gap.
        let mean_gap = 1.0 / 200.0;
        let long = a.windows(2).filter(|w| w[1] - w[0] > mean_gap).count() as f64 / 3999.0;
        assert!((long - (-1.0f64).exp()).abs() < 0.05, "{long}");
    }
}
