//! The lifecycle every run goes through — build, single-query kNN,
//! batch, ε-range, snapshot load, serve — and the end-to-end metrics an
//! untraced run reports from it. Every call into a layer goes through
//! the tracer, so a traced run of the same code yields the spans the
//! per-layer metrics are read from.

use std::ops::Range;
use std::path::Path;
use std::time::Duration;

use sapla_baselines::SaplaReducer;
use sapla_index::{linear_scan_knn, Engine, SearchStats};
use sapla_serve::Server;

use super::{
    err, leading, ms, round_share, same_answer, us, Run, BATCH_QUERIES, CLOSED_SHARE, CONNECTIONS,
    MIN_P99_REQUESTS, RANGE_QUERIES, ROUNDS, WARMUP_QUERIES,
};
use crate::loadgen::{self, Requests};
use crate::metrics::median;
use crate::workload::K;

/// Per round: linear scans timed beside the index, snapshot loads, and
/// queries the loaded engine must answer like the built one.
const SCAN_QUERIES: usize = 64;
const LOADS_PER_ROUND: usize = 2;
const LOADED_CHECK_QUERIES: usize = 32;

/// What the rounds have measured so far.
#[derive(Default)]
pub(super) struct Rounds {
    build_s: Vec<f64>,
    /// Bytes of the snapshot file the first build wrote.
    pub(super) snapshot_bytes: u64,
    /// Per single-query pass, microseconds by query id (the rounds take
    /// the queries in order).
    pub(super) knn_us: Vec<Vec<f64>>,
    /// First-pass answer of every query so far, by query id: what every
    /// later answer to the same query must equal.
    pub(super) answers: Vec<SearchStats>,
    vs_scan: Vec<f64>,
    batch_s_per_query: Vec<f64>,
    range_us: Vec<f64>,
    pub(super) ranged: Vec<SearchStats>,
    load_ms: Vec<f64>,
    pub(super) sat_qps: Vec<f64>,
    pub(super) served_ms: Vec<f64>,
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| err("VmHWM", e))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM: not in /proc/self/status".to_string())
}

/// Hits shared with the ground truth, and the ground truth's hits, both
/// summed over `answers`.
fn shared_with_truth(answers: &[SearchStats], truth: &[SearchStats]) -> (usize, usize) {
    assert_eq!(answers.len(), truth.len());
    let shared = |(a, t): (&SearchStats, &SearchStats)| {
        a.retrieved.iter().filter(|id| t.retrieved.contains(id)).count()
    };
    (answers.iter().zip(truth).map(shared).sum(), truth.iter().map(|t| t.retrieved.len()).sum())
}

impl Run {
    /// The whole run after set-up. Untraced: [`ROUNDS`] rounds, then
    /// the end-to-end metrics. Traced: one round with the layer probes
    /// in it, then the per-layer metrics.
    pub(super) fn lifecycle(&mut self) -> Result<(), String> {
        let nq = self.data.queries.len();
        let path = self.dir.file("index.snap");
        let mut acc = Rounds { knn_us: vec![Vec::new(); self.w.knn_passes], ..Rounds::default() };
        for round in 0..if self.traced { 1 } else { ROUNDS } {
            let share = round_share(nq, round);
            let engine = self.build(&mut acc, round)?;
            if round == 0 {
                self.first_build(&mut acc, &engine, &path)?;
            }
            self.end_phase("build");
            self.single_queries(&mut acc, &engine, &share)?;
            self.end_phase("knn");
            self.batch(&mut acc, &engine, &share)?;
            self.end_phase("batch");
            self.ranges(&mut acc, &engine, &share)?;
            self.end_phase("range");
            if self.traced {
                self.engine_probes(&acc, &engine, &share, &path)?;
                self.end_phase("probes");
            }
            let loaded = self.load(&mut acc, &path, &share)?;
            drop(engine);
            self.end_phase("snapshot");
            let server = self.start_server(loaded, path.clone())?;
            let mut served = self.serve(&mut acc, &server, &share);
            self.end_phase("serve");
            if self.traced && served.is_ok() {
                served = self.serve_probes(&acc, &server, &share);
                self.end_phase("serve probes");
            }
            server.stop();
            served?;
            if round == 0 {
                // After one whole lifecycle. Later rounds only add what
                // the allocator keeps of earlier ones, which varies.
                self.report.set("peak_rss_mb", peak_rss_mb()?, 1);
            }
        }
        if self.traced {
            self.report_layers(&mut acc)
        } else {
            self.report_rounds(&acc);
            Ok(())
        }
    }

    /// `Engine::build` at the workload's threads.
    fn build(&mut self, acc: &mut Rounds, round: usize) -> Result<Engine, String> {
        let (cfg, raws, threads) = (self.config(), self.data.db.clone(), self.w.threads);
        let (built, took) = self.tracer.timed("index.build", round, || {
            Engine::build(cfg, Box::new(SaplaReducer::new()), raws, threads)
        });
        acc.build_s.push(took.as_secs_f64());
        self.tally.ok();
        built.map_err(|e| err("Engine::build", e))
    }

    /// What is the same after every build and so is measured once: the
    /// mean over the database of each representation's max deviation
    /// from its series (Definition 3.4, the paper's headline figure),
    /// and the snapshot, which every round then loads.
    fn first_build(
        &mut self,
        acc: &mut Rounds,
        engine: &Engine,
        path: &Path,
    ) -> Result<(), String> {
        let reps = engine.reps();
        let mut sum = 0.0;
        for (rep, raw) in reps.iter().zip(&self.data.db) {
            let linear = rep.as_linear().ok_or("SAPLA representation is not linear")?;
            sum += linear.max_deviation(raw).map_err(|e| err("max_deviation", e))?;
        }
        let (bytes, _) = self
            .tracer
            .timed("index.write_snapshot_file", 0, || engine.write_snapshot_file(path, None));
        acc.snapshot_bytes = bytes.map_err(|e| err("write_snapshot_file", e))?;
        self.tally.ok();
        let series = self.w.series as f64;
        self.report.set("reduce_max_dev", sum / reps.len() as f64, reps.len());
        self.report.set("snapshot_bytes_per_series", acc.snapshot_bytes as f64 / series, 1);
        Ok(())
    }

    /// Single-query closed loop over the round's share, `knn_passes`
    /// times after a discarded warm-up, then some of the same queries
    /// by linear scan.
    fn single_queries(
        &mut self,
        acc: &mut Rounds,
        engine: &Engine,
        share: &Range<usize>,
    ) -> Result<(), String> {
        self.knn_pass(engine, leading(share, WARMUP_QUERIES))?;
        for pass in 0..acc.knn_us.len() {
            let (took, found) = self.knn_pass(engine, share.clone())?;
            acc.knn_us[pass].extend(took);
            if pass == 0 {
                for (qi, a) in share.clone().zip(&found) {
                    self.check_knn_answer(qi, a);
                }
                acc.answers.extend(found);
            } else {
                for (qi, a) in share.clone().zip(&found) {
                    self.tally.check(same_answer(a, &acc.answers[qi]), || {
                        format!("query {qi} answered differently on pass {pass}")
                    });
                }
            }
        }
        // The scan is timed in the same stretch of the run as the index,
        // so the ratio of their medians moves less with the machine's
        // speed than the absolute times do.
        let mut scan_us = Vec::with_capacity(SCAN_QUERIES);
        for qi in leading(share, SCAN_QUERIES) {
            let (found, took) = self.tracer.timed("index.linear_scan_knn", qi, || {
                linear_scan_knn(&self.data.queries[qi], &self.data.db, K)
            });
            scan_us.push(us(took));
            let found = found.map_err(|e| err("linear_scan_knn", e))?;
            self.tally.check(same_answer(&found, &self.truth.knn[qi]), || {
                format!("linear scan of query {qi} differs from the ground truth")
            });
        }
        let index_p50_us: Vec<f64> =
            acc.knn_us.iter().map(|pass| median(&pass[share.clone()])).collect();
        acc.vs_scan.push(median(&scan_us) / median(&index_p50_us));
        Ok(())
    }

    /// One batch call, `prepare` + `knn`, at the workload's threads.
    fn batch(
        &mut self,
        acc: &mut Rounds,
        engine: &Engine,
        share: &Range<usize>,
    ) -> Result<(), String> {
        let batch = leading(share, BATCH_QUERIES);
        let threads = self.w.threads;
        let (found, took) = self.tracer.timed("index.knn_batch", batch.start, || {
            engine
                .prepare(&self.data.queries[batch.clone()], threads)
                .and_then(|prepared| engine.knn(&prepared, K, threads))
        });
        acc.batch_s_per_query.push(took.as_secs_f64() / batch.len() as f64);
        let (found, _) = found.map_err(|e| err("batch kNN", e))?;
        for (qi, a) in batch.zip(&found) {
            self.tally.check(same_answer(a, &acc.answers[qi]), || {
                format!("query {qi} answered differently in a batch")
            });
        }
        Ok(())
    }

    /// `prepare` + `Engine::range` per raw query, ε = the query's true
    /// k-th-NN distance.
    fn ranges(
        &mut self,
        acc: &mut Rounds,
        engine: &Engine,
        share: &Range<usize>,
    ) -> Result<(), String> {
        let threads = self.w.threads;
        for qi in leading(share, RANGE_QUERIES) {
            let epsilon = self.truth.knn[qi].distances[K - 1];
            let raw = std::slice::from_ref(&self.data.queries[qi]);
            let op = self.tracer.begin("bench.range_query", qi);
            let (prepared, preparing) =
                self.tracer.timed("core.prepare", qi, || engine.prepare(raw, threads));
            let prepared = prepared.map_err(|e| err("Engine::prepare", e))?;
            let (hits, ranging) =
                self.tracer.timed("index.range", qi, || engine.range(&prepared[0], epsilon));
            self.tracer.end(op);
            acc.range_us.push(us(preparing + ranging));
            let hits = hits.map_err(|e| err("Engine::range", e))?;
            let well_formed = hits.distances.windows(2).all(|w| w[0] <= w[1])
                && hits.distances.iter().all(|&d| d <= epsilon)
                && hits.retrieved.len() == hits.distances.len();
            self.tally.check(well_formed, || format!("range answer of query {qi} is malformed"));
            acc.ranged.push(hits);
        }
        Ok(())
    }

    /// `from_snapshot_file` + a first answer, [`LOADS_PER_ROUND`] times;
    /// the last engine loaded must answer like the built one, and goes
    /// on to be served.
    fn load(
        &mut self,
        acc: &mut Rounds,
        path: &Path,
        share: &Range<usize>,
    ) -> Result<Engine, String> {
        let threads = self.w.threads;
        let mut loaded = None;
        for rep in 0..LOADS_PER_ROUND {
            drop(loaded.take());
            let (fresh, took) = self.tracer.timed("index.load_first_answer", rep, || {
                let fresh = Engine::from_snapshot_file(path)?;
                let first = fresh
                    .prepare(&self.data.queries[..1], threads)
                    .and_then(|q| fresh.knn(&q, K, threads))?;
                Ok::<_, sapla_core::Error>((fresh, first))
            });
            acc.load_ms.push(ms(took));
            let (fresh, first) = fresh.map_err(|e| err("from_snapshot_file + first answer", e))?;
            self.tally.check(same_answer(&first.0[0], &acc.answers[0]), || {
                "first answer after load differs from the built engine's".to_string()
            });
            loaded = Some(fresh);
        }
        let loaded = loaded.expect("LOADS_PER_ROUND is at least one");
        let check = leading(share, LOADED_CHECK_QUERIES);
        let again = loaded
            .prepare(&self.data.queries[check.clone()], threads)
            .and_then(|prepared| loaded.knn(&prepared, K, threads))
            .map_err(|e| err("loaded engine", e))?;
        for (qi, a) in check.zip(&again.0) {
            self.tally.check(same_answer(a, &acc.answers[qi]), || {
                format!("loaded engine answers query {qi} differently from the built one")
            });
        }
        Ok(loaded)
    }

    /// The round's queries as served requests of the workload's size
    /// (a last incomplete request is left out), with the in-process
    /// answers every reply must equal.
    pub(super) fn requests(&self, acc: &Rounds, share: &Range<usize>, batch: usize) -> Requests {
        let whole = share.start..share.end - share.len() % batch;
        Requests::new(&self.data.queries[whole.clone()], &acc.answers[whole], batch)
    }

    /// How long one closed loop runs: a round's part of the closed-loop
    /// share of `--seconds`.
    pub(super) fn closed_loop_duration(&self) -> Duration {
        Duration::from_secs_f64(CLOSED_SHARE * self.seconds / ROUNDS as f64)
    }

    /// Closed loop on [`CONNECTIONS`] connections against the in-process
    /// server on loopback, for [`Run::closed_loop_duration`] and at least
    /// 334 requests (a traced run's p95 needs 200), with the workload's
    /// reloads beside it.
    fn serve(
        &mut self,
        acc: &mut Rounds,
        server: &Server,
        share: &Range<usize>,
    ) -> Result<(), String> {
        let requests = self.requests(acc, share, self.w.serve_batch);
        let duration = self.closed_loop_duration();
        let min_requests = MIN_P99_REQUESTS.div_ceil(ROUNDS);
        let addr = server.addr();
        let served = self.with_reloads(server, |tally, tracer| {
            loadgen::closed_loop(
                addr,
                CONNECTIONS,
                duration,
                min_requests,
                &requests,
                tally,
                tracer,
            )
        })?;
        acc.sat_qps.push(served.queries_answered as f64 / served.elapsed_s);
        acc.served_ms.extend(served.latency_ms);
        Ok(())
    }

    /// Medians over the rounds, and over their pooled samples.
    fn report_rounds(&mut self, acc: &Rounds) {
        let series = self.w.series as f64;
        self.report.set("build_series_per_s", series / median(&acc.build_s), ROUNDS);

        let recall = shared_with_truth(&acc.answers, &self.truth.knn);
        self.report.set("recall_at_k", recall.0 as f64 / recall.1 as f64, recall.1);
        let samples: usize = acc.knn_us.iter().map(Vec::len).sum();
        let pass_p50_us: Vec<f64> = acc.knn_us.iter().map(|pass| median(pass)).collect();
        self.report.set("knn_p50_us", median(&pass_p50_us), samples);
        self.report.set("knn_speedup_vs_scan", median(&acc.vs_scan), ROUNDS);
        self.report.set("knn_batch_qps", 1.0 / median(&acc.batch_s_per_query), ROUNDS);

        self.report.set("range_p50_us", median(&acc.range_us), acc.range_us.len());
        let recall = shared_with_truth(&acc.ranged, &self.truth.range);
        self.report.set("range_recall", recall.0 as f64 / recall.1 as f64, recall.1);

        self.report.set("load_first_answer_ms", median(&acc.load_ms), acc.load_ms.len());
        self.report.set("serve_p50_ms", median(&acc.served_ms), acc.served_ms.len());
    }
}
