//! One run: one workload through the whole lifecycle in one process —
//! set-up, build, single-query kNN, batch kNN, ε-range, snapshot,
//! serve — with its outputs checked. There is one lifecycle
//! ([`lifecycle`]); every call it makes into a layer goes through the
//! [`Tracer`], which records a span when tracing is on and only times
//! the call when it is off. An untraced run goes through it
//! [`ROUNDS`] times and reports the end-to-end metrics. A traced run
//! goes through it once, then runs the layer probes and the open loop
//! ([`probes`]), and reports the per-layer metrics.

mod lifecycle;
mod probes;

use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sapla_distance::euclidean;
use sapla_index::{linear_scan_knn, linear_scan_range, Engine, EngineConfig, SearchStats};
use sapla_serve::{Server, ServerConfig};

use crate::loadgen::{self, LoadResult};
use crate::metrics::{median, Report};
use crate::rundir::RunDir;
use crate::tally::Tally;
use crate::trace::Tracer;
use crate::workload::{generate_data, Data, Workload, K, M};

/// An untraced run goes through the lifecycle this many times, each
/// round on its own share of the queries, and reports medians over the
/// rounds and percentiles over their pooled samples. The sandbox runs
/// ~25% fast for a second or two every so often; a metric measured in
/// one short stretch would catch or miss that by luck.
const ROUNDS: usize = 3;
/// Queries answered and discarded after each build, before timing: they
/// warm caches and lazily grown scratch (an unwarmed pass measured ~10%
/// slow).
const WARMUP_QUERIES: usize = 64;
/// Data generations (set-up) whose median is reported.
const SETUP_REPS: usize = 3;
/// Queries of a batch call, and ε-range queries per round. A batch call
/// is long enough to time at this size. `range_recall` is a mean over
/// queries whose own recall runs from 0 to 1, so its seed-to-seed spread
/// falls with the square root of their number: at 128 a round it was
/// 3.2%, wider than half its bound.
const BATCH_QUERIES: usize = 128;
const RANGE_QUERIES: usize = 256;
/// Client connections of the closed loop and the open loop.
const CONNECTIONS: usize = 2;
/// Share of `--seconds` given to the 2-connection closed loop, over the
/// [`ROUNDS`] of an untraced run. `--seconds` sets the length of the
/// serve phases only: every other phase does a fixed amount of work.
const CLOSED_SHARE: f64 = 0.36;
/// Requests a serve phase sends at least: what a p99 needs.
const MIN_P99_REQUESTS: usize = 1000;

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory under which the run makes its private directory.
    pub tmp_base: PathBuf,
}

pub struct Outcome {
    pub report: Report,
    pub tally: Tally,
    pub tracer: Tracer,
    /// Wall time of each phase, for the human-readable log.
    pub phases: Vec<(&'static str, f64)>,
}

fn err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// The queries of round `round`: the `round`-th of [`ROUNDS`] nearly
/// equal consecutive parts of `0..nq`.
fn round_share(nq: usize, round: usize) -> Range<usize> {
    nq * round / ROUNDS..nq * (round + 1) / ROUNDS
}

/// The first `count` of `range`.
fn leading(range: &Range<usize>, count: usize) -> Range<usize> {
    range.start..range.end.min(range.start + count)
}

/// Linear-scan answers every recall figure is measured against.
struct Truth {
    knn: Vec<SearchStats>,
    /// For the leading [`RANGE_QUERIES`] queries of each round's share,
    /// round after round, with ε = that query's true k-th-NN distance.
    range: Vec<SearchStats>,
}

struct Run {
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    data: Data,
    truth: Truth,
    dir: RunDir,
    report: Report,
    tally: Tally,
    tracer: Tracer,
    phases: Vec<(&'static str, f64)>,
    phase_start: Instant,
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut tracer = Tracer::new(opts.trace, origin);
    let dir = RunDir::create(&opts.tmp_base).map_err(|e| err("run directory", e))?;
    let (data, truth, setup_s) = set_up(opts.workload, opts.seed, &mut tracer)?;
    let mut run = Run {
        w: opts.workload,
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace,
        data,
        truth,
        dir,
        report: Report::default(),
        tally: Tally::default(),
        tracer,
        phases: vec![("setup", origin.elapsed().as_secs_f64())],
        phase_start: Instant::now(),
    };
    run.report.set("setup_s", setup_s, SETUP_REPS);
    run.lifecycle()?;
    Ok(Outcome { report: run.report, tally: run.tally, tracer: run.tracer, phases: run.phases })
}

/// Generate the inputs from the seed and compute ground truth by linear
/// scan. Returns the set-up time: the median generation time plus the
/// ground-truth time.
fn set_up(w: &Workload, seed: u64, tracer: &mut Tracer) -> Result<(Data, Truth, f64), String> {
    let phase = tracer.begin("bench.setup", 0);
    let mut gen_s = Vec::with_capacity(SETUP_REPS);
    let mut data = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        data = Some(generate_data(w, seed));
        gen_s.push(start.elapsed().as_secs_f64());
    }
    let data = data.expect("SETUP_REPS is at least one");
    let start = Instant::now();
    let mut knn = Vec::with_capacity(data.queries.len());
    for (qi, q) in data.queries.iter().enumerate() {
        let (found, _) =
            tracer.timed("index.linear_scan_knn", qi, || linear_scan_knn(q, &data.db, K));
        let found = found.map_err(|e| err("linear_scan_knn", e))?;
        if found.distances.len() != K {
            return Err(format!("ground truth of query {qi} has {} hits", found.distances.len()));
        }
        knn.push(found);
    }
    let nq = data.queries.len();
    let mut range = Vec::with_capacity(ROUNDS * RANGE_QUERIES);
    for qi in (0..ROUNDS).flat_map(|round| leading(&round_share(nq, round), RANGE_QUERIES)) {
        let found = linear_scan_range(&data.queries[qi], &data.db, knn[qi].distances[K - 1]);
        range.push(found.map_err(|e| err("linear_scan_range", e))?);
    }
    let setup_s = median(&gen_s) + start.elapsed().as_secs_f64();
    tracer.end(phase);
    Ok((data, Truth { knn, range }, setup_s))
}

fn same_answer(a: &SearchStats, b: &SearchStats) -> bool {
    a.retrieved == b.retrieved
        && a.distances.len() == b.distances.len()
        && a.distances.iter().zip(&b.distances).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl Run {
    fn end_phase(&mut self, name: &'static str) {
        self.phases.push((name, self.phase_start.elapsed().as_secs_f64()));
        self.phase_start = Instant::now();
    }

    fn config(&self) -> EngineConfig {
        EngineConfig { m: M, shards: self.w.shards, ..EngineConfig::default() }
    }

    /// Output checks on one kNN answer: `k` hits, distances ascending,
    /// each the Euclidean distance to the returned id.
    fn check_knn_answer(&mut self, qi: usize, answer: &SearchStats) {
        let q = &self.data.queries[qi];
        let db = &self.data.db;
        let well_formed = answer.retrieved.len() == K
            && answer.distances.len() == K
            && answer.distances.windows(2).all(|w| w[0] <= w[1])
            && answer.retrieved.iter().zip(&answer.distances).all(|(&id, &d)| {
                db.get(id).and_then(|s| euclidean(q, s).ok()).is_some_and(|exact| {
                    // Summation order is the program's business; the
                    // distance must still be the Euclidean one.
                    (exact - d).abs() <= 1e-9 * exact.max(1.0)
                })
            });
        self.tally.check(well_formed, || format!("kNN answer of query {qi} is malformed"));
    }

    /// One raw query answered the way a caller would: `Engine::prepare`
    /// then `Engine::knn`. Returns its microseconds and the answer.
    fn knn_query(&mut self, engine: &Engine, qi: usize) -> Result<(f64, SearchStats), String> {
        let raw = std::slice::from_ref(&self.data.queries[qi]);
        let threads = self.w.threads;
        let start = Instant::now();
        let op = self.tracer.begin("bench.knn_query", qi);
        let (prepared, _) = self.tracer.timed("core.prepare", qi, || engine.prepare(raw, threads));
        let prepared = prepared.map_err(|e| err("Engine::prepare", e))?;
        let (found, _) = self.tracer.timed("index.knn", qi, || engine.knn(&prepared, K, threads));
        self.tracer.end(op);
        let took = us(start.elapsed());
        let (mut found, _) = found.map_err(|e| err("Engine::knn", e))?;
        Ok((took, found.pop().ok_or("Engine::knn returned no answer")?))
    }

    /// One single-query closed-loop pass over `queries`.
    fn knn_pass(
        &mut self,
        engine: &Engine,
        queries: Range<usize>,
    ) -> Result<(Vec<f64>, Vec<SearchStats>), String> {
        let mut took = Vec::with_capacity(queries.len());
        let mut answers = Vec::with_capacity(queries.len());
        for qi in queries {
            let (us, answer) = self.knn_query(engine, qi)?;
            took.push(us);
            answers.push(answer);
        }
        Ok((took, answers))
    }

    fn start_server(&self, engine: Engine, index_file: PathBuf) -> Result<Server, String> {
        let cfg = ServerConfig {
            threads: self.w.threads,
            index_file: Some(index_file),
            ..ServerConfig::default()
        };
        Server::start(engine, "127.0.0.1:0", cfg).map_err(|e| err("Server::start", e))
    }

    /// Run `load` against `server` with the workload's reloads (if any)
    /// on a control connection beside it.
    fn with_reloads(
        &mut self,
        server: &Server,
        load: impl FnOnce(&mut Tally, &mut Tracer) -> Result<LoadResult, String>,
    ) -> Result<LoadResult, String> {
        let addr = server.addr();
        let records = self.w.series as u64;
        let stop = AtomicBool::new(false);
        let (mut reload_tally, mut reload_tracer) = (Tally::default(), self.tracer.fork());
        let (load, reloads) = std::thread::scope(|scope| {
            let control = self.w.reload_every_s.map(|every| {
                let (stop, tally, tracer) = (&stop, &mut reload_tally, &mut reload_tracer);
                scope.spawn(move || {
                    let every = Duration::from_secs_f64(every);
                    loadgen::reload_loop(addr, every, records, stop, tally, tracer)
                })
            });
            let load = load(&mut self.tally, &mut self.tracer);
            stop.store(true, Ordering::Release);
            let reloads = control.map_or(Ok(()), |h| h.join().expect("reload thread panicked"));
            (load, reloads)
        });
        self.tally.absorb(reload_tally);
        self.tracer.absorb(reload_tracer);
        reloads?;
        load
    }
}
