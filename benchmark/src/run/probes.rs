//! What only a traced run does, beside the one round of the lifecycle
//! it shares with an untraced run: the layer probes, the open loop, and
//! the per-layer metrics, read from the spans where the lifecycle
//! already makes the call. Nothing here feeds an end-to-end metric.

use std::ops::Range;
use std::path::Path;
use std::time::Duration;

use sapla_baselines::{reduce_batch, SaplaReducer};
use sapla_distance::{dist_par_sq, euclidean_sq};
use sapla_index::Engine;
use sapla_serve::{Client, Server};
use sapla_store::{SnapshotBytes, SnapshotView};

use super::lifecycle::Rounds;
use super::{err, leading, mean, ms, Run, BATCH_QUERIES, CONNECTIONS, MIN_P99_REQUESTS};
use crate::json;
use crate::loadgen;
use crate::metrics::{median, median_and_tail};
use crate::workload::{poisson_schedule, K, M};

/// The (query, entry) grid of the distance probes.
const PROBE_QUERIES: usize = 64;
const PROBE_ENTRIES: usize = 4096;
/// Snapshot reads and adoptions whose median is reported.
const SNAPSHOT_READS: usize = 3;
/// Share of `--seconds` given to the open loop.
const OPEN_SHARE: f64 = 0.4;
/// Idle reloads timed on the control connection.
const IDLE_RELOADS: usize = 3;

impl Run {
    /// The probes that need the built engine.
    pub(super) fn engine_probes(
        &mut self,
        acc: &Rounds,
        engine: &Engine,
        share: &Range<usize>,
        path: &Path,
    ) -> Result<(), String> {
        self.trace_overhead(acc, engine, share)?;
        self.build_probe()?;
        self.distance_probes(engine)?;
        self.batch_probe(engine, share)?;
        self.snapshot_probe(engine, path)
    }

    /// Mean duration in microseconds, and count, of the spans called
    /// `name`.
    fn span_mean_us(&self, name: &str) -> (f64, usize) {
        let ns = self.tracer.durations(name);
        (mean(&ns) / 1e3, ns.len())
    }

    /// In-process p50 of the round's last single-query pass,
    /// microseconds.
    fn knn_p50_us(acc: &Rounds, share: &Range<usize>) -> f64 {
        median(&acc.knn_us.last().expect("a workload has a single-query pass")[share.clone()])
    }

    /// One more single-query pass, spans off, against the lifecycle's
    /// last one, spans on: the difference of the means is what tracing
    /// costs.
    fn trace_overhead(
        &mut self,
        acc: &Rounds,
        engine: &Engine,
        share: &Range<usize>,
    ) -> Result<(), String> {
        self.tracer.set_enabled(false);
        let plain = self.knn_pass(engine, share.clone());
        self.tracer.set_enabled(true);
        let (plain_us, _) = plain?;
        let traced_us =
            &acc.knn_us.last().expect("a workload has a single-query pass")[share.clone()];
        let overhead = mean(traced_us) / mean(&plain_us) - 1.0;
        self.report.set("obs.trace_overhead_pct", overhead * 100.0, share.len());
        Ok(())
    }

    /// The build split at the layer boundary — reduce, then insert — on
    /// one thread, and once more whole on two.
    fn build_probe(&mut self) -> Result<(), String> {
        let series = self.w.series;
        let reducer = SaplaReducer::new();
        let (reps, reduce) =
            self.tracer.timed("core.reduce_batch", 0, || reduce_batch(&reducer, &self.data.db, M));
        let reps = reps.map_err(|e| err("reduce_batch", e))?;
        let (cfg, raws) = (self.config(), self.data.db.clone());
        let (engine, insert) = self.tracer.timed("index.from_parts", 0, || {
            Engine::from_parts(cfg, Box::new(reducer), reps, raws)
        });
        drop(engine.map_err(|e| err("Engine::from_parts", e))?);
        let per_series_us = |d: Duration| d.as_secs_f64() * 1e6 / series as f64;
        self.report.set("core.reduce_us_per_series", per_series_us(reduce), series);
        self.report.set("index.tree_build_us_per_series", per_series_us(insert), series);
        let raws = self.data.db.clone();
        let (built, two_threads) = self.tracer.timed("index.build_t2", 0, || {
            Engine::build(cfg, Box::new(SaplaReducer::new()), raws, 2)
        });
        drop(built.map_err(|e| err("Engine::build", e))?);
        let speedup = (reduce + insert).as_secs_f64() / two_threads.as_secs_f64();
        self.report.set("parallel.build_speedup", speedup, 1);
        Ok(())
    }

    /// `dist_par_sq` and `euclidean_sq` on [`PROBE_QUERIES`] queries
    /// against [`PROBE_ENTRIES`] evenly spaced database entries: mean
    /// nanoseconds per evaluation of each.
    fn distance_probes(&mut self, engine: &Engine) -> Result<(), String> {
        let queries = &self.data.queries[..PROBE_QUERIES.min(self.data.queries.len())];
        let prepared = engine.prepare(queries, 1).map_err(|e| err("Engine::prepare", e))?;
        let reps = engine.reps();
        let step = (reps.len() / PROBE_ENTRIES).max(1);
        let ids: Vec<usize> = (0..reps.len()).step_by(step).take(PROBE_ENTRIES).collect();
        let evals = prepared.len() * ids.len();
        let db = &self.data.db;

        let (par_sum, par) = self.tracer.timed("distance.dist_par_sq", 0, || {
            let mut sum = 0.0f64;
            for q in &prepared {
                let q = q.rep.as_linear().ok_or("SAPLA query representation is not linear")?;
                for &id in &ids {
                    let c = reps[id].as_linear().ok_or("SAPLA representation is not linear")?;
                    sum += dist_par_sq(q, c).map_err(|e| err("dist_par_sq", e))?;
                }
            }
            Ok::<f64, String>(sum)
        });
        let (euclid_sum, euclid) = self.tracer.timed("distance.euclidean_sq", 0, || {
            let mut sum = 0.0f64;
            for q in queries {
                for &id in &ids {
                    sum += euclidean_sq(q, &db[id]).map_err(|e| err("euclidean_sq", e))?;
                }
            }
            Ok::<f64, String>(sum)
        });
        std::hint::black_box(par_sum? + euclid_sum?);
        let per_eval_ns = |d: Duration| d.as_secs_f64() * 1e9 / evals as f64;
        self.report.set("distance.par_ns_per_eval", per_eval_ns(par), evals);
        self.report.set("distance.euclid_ns_per_eval", per_eval_ns(euclid), evals);
        Ok(())
    }

    /// The lifecycle's batch, prepared once, at one thread and at two.
    fn batch_probe(&mut self, engine: &Engine, share: &Range<usize>) -> Result<(), String> {
        let batch = &self.data.queries[leading(share, BATCH_QUERIES)];
        let prepared =
            engine.prepare(batch, self.w.threads).map_err(|e| err("Engine::prepare", e))?;
        let mut batch_s = [0.0f64; 2];
        for (took, (name, threads)) in
            batch_s.iter_mut().zip([("index.knn_batch_t1", 1), ("index.knn_batch_t2", 2)])
        {
            let (found, elapsed) = self.tracer.timed(name, 0, || engine.knn(&prepared, K, threads));
            found.map_err(|e| err("Engine::knn", e))?;
            *took = elapsed.as_secs_f64();
        }
        let per_query_us = batch_s[0] * 1e6 / batch.len() as f64;
        self.report.set("index.batch_us_per_query_t1", per_query_us, batch.len());
        self.report.set("parallel.batch_speedup", batch_s[0] / batch_s[1], 1);
        Ok(())
    }

    /// Snapshot: encode, then read + parse and adopt the lifecycle's
    /// file [`SNAPSHOT_READS`] times.
    fn snapshot_probe(&mut self, engine: &Engine, path: &Path) -> Result<(), String> {
        let (image, encode) =
            self.tracer.timed("index.snapshot_image", 0, || engine.snapshot_image(None));
        let image = image.map_err(|e| err("snapshot_image", e))?;
        self.report.set("index.snapshot_encode_ms", ms(encode), 1);
        let raw_bytes = (self.w.series * self.w.len * std::mem::size_of::<f64>()) as f64;
        self.report.set("store.bytes_per_raw_byte", image.len() as f64 / raw_bytes, 1);
        drop(image);
        let (mut read_ms, mut adopt_ms) = (Vec::new(), Vec::new());
        for rep in 0..SNAPSHOT_READS {
            let (owned, read) = self.tracer.timed("store.read_parse", rep, || {
                let owned = SnapshotBytes::read_file(path)?;
                SnapshotView::parse(owned.bytes())?;
                Ok::<_, sapla_core::Error>(owned)
            });
            let owned =
                owned.map_err(|e| err("SnapshotBytes::read_file + SnapshotView::parse", e))?;
            read_ms.push(ms(read));
            let (adopted, adopt) = self.tracer.timed("index.from_snapshot_image", rep, || {
                Engine::from_snapshot_image(owned.bytes())
            });
            adopt_ms.push(ms(adopt));
            drop(adopted.map_err(|e| err("from_snapshot_image", e))?);
        }
        self.report.set("store.read_parse_ms", median(&read_ms), SNAPSHOT_READS);
        self.report.set("index.snapshot_adopt_ms", median(&adopt_ms), SNAPSHOT_READS);
        Ok(())
    }

    /// Against the lifecycle's server: the wire + socket + admission
    /// overhead of one query, idle reloads, then the open loop at the
    /// workload's fixed rate.
    pub(super) fn serve_probes(
        &mut self,
        acc: &Rounds,
        server: &Server,
        share: &Range<usize>,
    ) -> Result<(), String> {
        let addr = server.addr();
        let single = self.requests(acc, share, 1);
        let closed = loadgen::closed_loop(
            addr,
            1,
            self.closed_loop_duration(),
            0,
            &single,
            &mut self.tally,
            &mut self.tracer,
        )?;
        let overhead_us = median(&closed.latency_ms) * 1e3 - Self::knn_p50_us(acc, share);
        self.report.set("serve.overhead_p50_us", overhead_us, closed.latency_ms.len());

        let mut control = Client::connect(addr).map_err(|e| err("connect", e))?;
        let records = self.w.series as u64;
        for op in 0..IDLE_RELOADS {
            loadgen::reload_once(&mut control, records, op, &mut self.tally, &mut self.tracer);
        }

        // Open loop on a seeded Poisson schedule, with the workload's
        // reloads beside it.
        let rate = self.w.serve_rate;
        let count = MIN_P99_REQUESTS.max((rate * OPEN_SHARE * self.seconds).round() as usize);
        let schedule = poisson_schedule(self.seed, rate, count);
        let grouped = self.requests(acc, share, self.w.serve_batch);
        let mut open = self.with_reloads(server, |tally, tracer| {
            loadgen::open_loop(addr, CONNECTIONS, &schedule, &grouped, tally, tracer)
        })?;
        let (p50, p99) = median_and_tail(&mut open.latency_ms, 99.0, "open loop")?;
        self.report.set("serve.open_p50_ms", p50, count);
        self.report.set("serve.open_p99_ms", p99, count);
        let (_, late_p99) = median_and_tail(&mut open.late_ms, 99.0, "generator lateness")?;
        self.report.set("serve.gen_late_p99_ms", late_p99, count);

        let stats = control.stats().map_err(|e| err("stats", e))?;
        let stats = json::parse(&stats).map_err(|e| err("stats document", e))?;
        let counter = |name: &str| {
            stats
                .get("server")
                .and_then(|s| s.get(name))
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("stats document has no server.{name}"))
        };
        let batches = counter("batches")?;
        let mean_batch = counter("batched_queries")? / batches;
        self.report.set("serve.mean_batch_queries", mean_batch, batches as usize);
        self.report.set("serve.max_batch_queries", counter("max_batch_queries")?, batches as usize);
        Ok(())
    }

    /// The per-layer metrics read from the lifecycle's spans and
    /// answers.
    pub(super) fn report_layers(&mut self, acc: &mut Rounds) -> Result<(), String> {
        let (prepare_us, prepares) = self.span_mean_us("core.prepare");
        self.report.set("core.query_prepare_us", prepare_us, prepares);
        let (knn_us, knns) = self.span_mean_us("index.knn");
        self.report.set("index.knn_us_per_query", knn_us, knns);
        // The tails a user sees (`prepare` + `knn`; two connections):
        // one round has the samples for a p95, not for a p99.
        let mut pass_p95_us = Vec::with_capacity(acc.knn_us.len());
        for pass_us in &mut acc.knn_us {
            pass_p95_us.push(median_and_tail(pass_us, 95.0, "single-query kNN")?.1);
        }
        self.report.set("index.knn_p95_us", median(&pass_p95_us), acc.answers.len());
        let (_, served_p95) = median_and_tail(&mut acc.served_ms, 95.0, "closed loop")?;
        self.report.set("serve.closed_p95_ms", served_p95, acc.served_ms.len());
        self.report.set("serve.sat_qps", acc.sat_qps[0], acc.served_ms.len());
        let (scan_us, scans) = self.span_mean_us("index.linear_scan_knn");
        self.report.set("index.scan_us_per_query", scan_us, scans);
        self.report.set("index.knn_vs_scan", scan_us / knn_us, knns);

        let per_query = |found: &[sapla_index::SearchStats]| {
            found.iter().map(|a| a.measured).sum::<usize>() as f64 / found.len() as f64
        };
        let refined = per_query(&acc.answers);
        self.report.set("index.refined_per_query", refined, acc.answers.len());
        self.report.set("index.pruning_power", refined / self.w.series as f64, acc.answers.len());
        let euclid_ns = self
            .report
            .get("distance.euclid_ns_per_eval")
            .ok_or("the distance probes did not run")?
            .value;
        let refine_share = refined * euclid_ns / (knn_us * 1e3);
        self.report.set("index.refine_share", refine_share, acc.answers.len());
        let (range_us, ranges) = self.span_mean_us("index.range");
        self.report.set("index.range_us_per_query", range_us, ranges);
        self.report.set("index.range_refined_per_query", per_query(&acc.ranged), ranges);

        let (write_us, _) = self.span_mean_us("index.write_snapshot_file");
        self.report.set("store.write_mb_per_s", acc.snapshot_bytes as f64 / write_us, 1);
        let reload_ms: Vec<f64> =
            self.tracer.durations("serve.reload").iter().map(|ns| ns / 1e6).collect();
        self.report.set("serve.reload_ms_p50", median(&reload_ms), reload_ms.len());
        self.report.set("serve.reloads_done", reload_ms.len() as f64, reload_ms.len());
        Ok(())
    }
}
