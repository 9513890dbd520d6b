//! `sapla` — command-line front end for the SAPLA workspace.
//!
//! ```text
//! sapla reduce <file|-> [files...] [--method SAPLA] [--coeffs 12] [--threads 0]
//! sapla knn <dataset> [--k 4] [--method SAPLA] [--tree dbch|rtree] [--threads 0]
//! sapla build-index <dataset> --index-file PATH          persist a snapshot
//! sapla catalogue                                        list the 117 synthetic datasets
//! sapla demo                                             the paper's Fig. 1 walkthrough
//! ```
//!
//! `build-index` builds the index once and writes it as a `sapla-store`
//! snapshot; `knn --index-file PATH` and `serve --index-file PATH` then
//! cold-start by loading that file (O(file size) I/O, no rebuild). When
//! the file does not exist yet they build from the dataset flags and
//! write it, so the second invocation is the fast one. A daemon started
//! with `--index-file` also re-reads the file on an empty-blob reload,
//! letting an operator republish the index out-of-band.
//!
//! `--threads 0` (the default) uses every hardware thread; any other value
//! pins the worker count. When `--threads` is absent the `SAPLA_THREADS`
//! environment variable is consulted (same semantics; non-numeric values
//! are an error, never a silent fallback). Results are identical at every
//! thread count.
//!
//! Every subcommand also accepts `--profile` (print the observability
//! snapshot as a table after the run) and `--profile-json PATH` (write it
//! as JSON). Both need the binary built with `--features obs` (the
//! default build) to report non-empty numbers.
//!
//! `--no-simd` forces the portable scalar kernels; otherwise dispatch is
//! auto-detected, overridable with `SAPLA_SIMD=off|sse2|avx2|neon`
//! (validated up front — a garbage value is an error, never a silent
//! fallback). Answers are bit-identical at every level.

use std::io::Read as _;
use std::process::ExitCode;

use sapla_baselines::{all_reducers, reduce_batch, reduce_batch_parallel, Reducer};
use sapla_core::TimeSeries;
use sapla_data::{catalogue, Dataset, Protocol};
use sapla_index::{Engine, EngineConfig, TreeKind};
use sapla_serve::{Client, MetricsFormat, Server, ServerConfig};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Profiling flags are global and must be stripped before dispatch:
    // `positionals` assumes every `--flag` carries a value, so a bare
    // `--profile` left in place would swallow the next positional.
    let profile = take_flag(&mut args, "--profile");
    let profile_json = match take_value_flag(&mut args, "--profile-json") {
        Ok(path) => path,
        Err(e) => {
            eprintln!("sapla: {e}");
            return ExitCode::from(2);
        }
    };
    // Resolve SIMD dispatch before any kernel runs: `--no-simd` forces
    // scalar, otherwise `SAPLA_SIMD` is validated eagerly so a garbage
    // value errors out up front (same contract as `SAPLA_THREADS`).
    let simd_result = if take_flag(&mut args, "--no-simd") {
        sapla_core::simd::force(sapla_core::simd::SimdLevel::Scalar)
    } else {
        sapla_core::simd::init().map(|_| ())
    };
    if let Err(e) = simd_result {
        eprintln!("sapla: {e}");
        return ExitCode::from(2);
    }
    let result = match args.first().map(String::as_str) {
        Some("reduce") => cmd_reduce(&args[1..]),
        Some("knn") => cmd_knn(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("build-index") => cmd_build_index(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("catalogue") => cmd_catalogue(),
        Some("demo") => cmd_demo(),
        Some("mine") => cmd_mine(&args[1..]),
        _ => {
            eprintln!(
                "usage: sapla <reduce|knn|serve|build-index|mine|catalogue|demo> [options]\n\
                 \n\
                 reduce <file|-> [files...] [--method NAME] [--coeffs M] [--threads T]\n\
                 knn <dataset>    [--k K] [--method NAME] [--tree dbch|rtree] [--coeffs M] [--shards S] [--threads T] [--index-file PATH]\n\
                 serve <dataset>  [--addr HOST:PORT] [--method NAME] [--tree dbch|rtree] [--coeffs M] [--shards S] [--threads T] [--slow-ms N] [--index-file PATH]\n\
                 build-index <dataset> --index-file PATH [--method NAME] [--tree dbch|rtree] [--coeffs M] [--shards S] [--threads T]\n\
                 stats            [--addr HOST:PORT] [--metrics | --metrics-json]\n\
                 mine <discord|motif|segment|forecast|cluster> <dataset> [--k K] [--coeffs M] [--horizon H] [--changes C]\n\
                 catalogue\n\
                 demo\n\
                 \n\
                 global: --profile (print metrics table), --profile-json PATH (write metrics JSON),\n\
                 \x20       --no-simd (force scalar kernels)"
            );
            return ExitCode::from(2);
        }
    };
    let result = result.and_then(|()| {
        let snapshot = sapla_obs::Snapshot::capture();
        if profile {
            print!("{}", snapshot.render_table());
        }
        if let Some(path) = profile_json {
            std::fs::write(&path, snapshot.to_json()).map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(())
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sapla: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Remove a bare `--flag` from `args`, reporting whether it was present.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Remove a `--flag VALUE` pair from `args`, returning the value.
fn take_value_flag(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => {
            if i + 1 >= args.len() {
                return Err(format!("{name}: missing value"));
            }
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
        None => Ok(None),
    }
}

fn flag(args: &[String], name: &str, default: &str) -> String {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// Arguments that are not `--flag value` pairs, in order.
fn positionals(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += 2;
        } else {
            out.push(args[i].clone());
            i += 1;
        }
    }
    out
}

/// Worker-thread count: an explicit `--threads` wins, otherwise the
/// `SAPLA_THREADS` environment variable is consulted. Either source must
/// parse as a non-negative integer (`0` = all hardware threads) — a
/// garbage value is an error, not a silent fall-back to the default.
fn threads_flag(args: &[String]) -> Result<usize, String> {
    if args.iter().any(|a| a == "--threads") {
        return flag(args, "--threads", "0").parse().map_err(|_| "bad --threads".to_string());
    }
    match std::env::var("SAPLA_THREADS") {
        Ok(raw) => raw.trim().parse().map_err(|_| {
            format!("SAPLA_THREADS: {}", sapla_core::Error::InvalidThreads { value: raw.clone() })
        }),
        Err(_) => Ok(0),
    }
}

fn reducer_by_name(name: &str) -> Result<Box<dyn Reducer>, String> {
    all_reducers().into_iter().find(|r| r.name().eq_ignore_ascii_case(name)).ok_or_else(|| {
        format!("unknown method {name:?} (try SAPLA, APLA, APCA, PLA, PAA, PAALM, CHEBY, SAX)")
    })
}

fn read_series(path: &str) -> Result<TimeSeries, String> {
    let mut text = String::new();
    if path == "-" {
        std::io::stdin().read_to_string(&mut text).map_err(|e| e.to_string())?;
    } else {
        text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    }
    let values: Result<Vec<f64>, _> = text
        .split([',', '\n', '\t', ' '])
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(str::parse::<f64>)
        .collect();
    let values = values.map_err(|e| format!("parse error: {e}"))?;
    TimeSeries::new(values).map_err(|e| e.to_string())
}

fn cmd_reduce(args: &[String]) -> Result<(), String> {
    let paths = positionals(args);
    if paths.is_empty() {
        return Err("reduce: missing input file (or '-')".to_string());
    }
    let method = flag(args, "--method", "SAPLA");
    let m: usize = flag(args, "--coeffs", "12").parse().map_err(|_| "bad --coeffs".to_string())?;
    let threads = threads_flag(args)?;
    let reducer = reducer_by_name(&method)?;
    let series: Result<Vec<_>, _> = paths.iter().map(|p| read_series(p)).collect();
    let series = series?;
    let reps =
        reduce_batch_parallel(reducer.as_ref(), &series, m, threads).map_err(|e| e.to_string())?;
    for ((path, series), rep) in paths.iter().zip(&series).zip(&reps) {
        if paths.len() > 1 {
            println!("== {path} ==");
        }
        println!("method: {}", reducer.name());
        println!("series length: {}", series.len());
        println!("segments: {}", rep.num_segments());
        match rep {
            sapla_core::Representation::Linear(l) => {
                for (i, s) in l.segments().iter().enumerate() {
                    println!("  seg {i}: a = {:.6}, b = {:.6}, r = {}", s.a, s.b, s.r);
                }
            }
            sapla_core::Representation::Constant(c) => {
                for (i, s) in c.segments().iter().enumerate() {
                    println!("  seg {i}: v = {:.6}, r = {}", s.v, s.r);
                }
            }
            sapla_core::Representation::Polynomial(p) => {
                println!("  coefficients: {:?}", p.coeffs);
            }
            sapla_core::Representation::Symbolic(w) => {
                println!("  word: {:?} (alphabet {})", w.symbols, w.alphabet_size);
            }
        }
        let dev = reducer.max_deviation(series, rep).map_err(|e| e.to_string())?;
        println!("max deviation: {dev:.6}");
    }
    Ok(())
}

fn load_dataset(name: &str) -> Result<Dataset, String> {
    let spec = catalogue()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown dataset {name:?}"))?;
    Ok(spec.load(&Protocol::quick()))
}

/// Shared by `knn` and `serve`: load the dataset and build the engine
/// the flags describe. Returns the dataset alongside the engine (the
/// engine clones the series it indexes).
fn engine_from_flags(name: &str, args: &[String]) -> Result<(Dataset, Engine), String> {
    let m: usize = flag(args, "--coeffs", "12").parse().map_err(|_| "bad --coeffs".to_string())?;
    let method = flag(args, "--method", "SAPLA");
    let tree = TreeKind::parse(&flag(args, "--tree", "dbch"))
        .map_err(|_| "bad --tree (expected dbch or rtree)".to_string())?;
    let shards: usize =
        flag(args, "--shards", "1").parse().map_err(|_| "bad --shards".to_string())?;
    if shards == 0 {
        return Err("bad --shards (must be at least 1)".to_string());
    }
    let threads = threads_flag(args)?;
    let reducer = reducer_by_name(&method)?;
    let ds = load_dataset(name)?;
    let cfg = EngineConfig { tree, m, shards, ..EngineConfig::default() };
    let engine =
        Engine::build(cfg, reducer, ds.series.clone(), threads).map_err(|e| e.to_string())?;
    Ok((ds, engine))
}

/// `--index-file PATH` handling shared by `knn` and `serve`: when the
/// snapshot exists, cold-start from it (O(file size) load, the build
/// flags are ignored — the file is authoritative); otherwise build from
/// the dataset flags and persist the snapshot so the *next* start is
/// the fast one. Returns the path alongside the pair so `serve` can
/// hand it to the daemon for reload-from-file.
fn engine_via_index_file(
    name: &str,
    args: &[String],
) -> Result<(Dataset, Engine, Option<std::path::PathBuf>), String> {
    let Some(raw) = take_path(args) else {
        let (ds, engine) = engine_from_flags(name, args)?;
        return Ok((ds, engine, None));
    };
    let path = std::path::PathBuf::from(raw);
    if path.exists() {
        let ds = load_dataset(name)?;
        let engine = Engine::from_snapshot_file(&path).map_err(|e| e.to_string())?;
        println!("loaded index snapshot {} ({} series)", path.display(), engine.len());
        Ok((ds, engine, Some(path)))
    } else {
        let (ds, engine) = engine_from_flags(name, args)?;
        let bytes = engine.write_snapshot_file(&path, None).map_err(|e| e.to_string())?;
        println!("wrote index snapshot {} ({bytes} bytes)", path.display());
        Ok((ds, engine, Some(path)))
    }
}

fn take_path(args: &[String]) -> Option<String> {
    args.iter().position(|a| a == "--index-file").and_then(|i| args.get(i + 1)).cloned()
}

fn cmd_build_index(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("build-index: missing dataset name (see `sapla catalogue`)")?;
    let path = take_path(args)
        .ok_or("build-index: missing --index-file PATH (where to write the snapshot)")?;
    let (ds, engine) = engine_from_flags(name, &args[1..])?;
    let started = std::time::Instant::now();
    let bytes =
        engine.write_snapshot_file(std::path::Path::new(&path), None).map_err(|e| e.to_string())?;
    println!(
        "indexed {}: {} series, method {} / {}, {} shard(s)",
        ds.name,
        engine.len(),
        engine.method(),
        engine.config().tree.name(),
        engine.shard_count()
    );
    println!("wrote {path}: {bytes} bytes in {:.1} ms", started.elapsed().as_secs_f64() * 1e3);
    Ok(())
}

fn cmd_knn(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("knn: missing dataset name (see `sapla catalogue`)")?;
    let k: usize = flag(args, "--k", "4").parse().map_err(|_| "bad --k".to_string())?;
    let threads = threads_flag(args)?;
    let (ds, engine, _) = engine_via_index_file(name, &args[1..])?;
    // Both tree kinds answer the whole query set through the engine;
    // `--threads` governs reduction, query preparation, and search.
    let queries = engine.prepare(&ds.queries, threads).map_err(|e| e.to_string())?;
    let (mut per_query, batch) = engine.knn(&queries, k, threads).map_err(|e| e.to_string())?;
    let stats = per_query.swap_remove(0);
    let truth = ds.exact_knn(&ds.queries[0], k);
    println!("dataset: {} ({} series)", ds.name, ds.series.len());
    println!("method: {} / {}", engine.method(), engine.config().tree.name());
    if engine.shard_count() > 1 {
        println!("shards: {}", engine.shard_count());
    }
    println!("retrieved: {:?}", stats.retrieved);
    println!("exact kNN: {truth:?}");
    println!("pruning power: {:.3}", stats.pruning_power());
    println!("accuracy: {:.3}", stats.accuracy(&truth));
    if batch.queries > 1 {
        println!(
            "batch: {} queries answered, pruning power {:.3}",
            batch.queries,
            batch.pruning_power()
        );
    }
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("serve: missing dataset name (see `sapla catalogue`)")?;
    let addr = flag(args, "--addr", "127.0.0.1:7878");
    let threads = threads_flag(args)?;
    // `--slow-ms N`: copy the stage trace of any request slower than N
    // milliseconds into the slow-query log (served back by OP_METRICS).
    let slow_ms = if args.iter().any(|a| a == "--slow-ms") {
        Some(flag(args, "--slow-ms", "0").parse().map_err(|_| "bad --slow-ms".to_string())?)
    } else {
        None
    };
    let (ds, engine, index_file) = engine_via_index_file(name, &args[1..])?;
    println!(
        "serving {}: {} series of length {}, tree {}, {} shard(s)",
        ds.name,
        engine.len(),
        ds.series_len(),
        engine.config().tree.name(),
        engine.shard_count()
    );
    let cfg = ServerConfig { threads, slow_ms, index_file, ..ServerConfig::default() };
    let server = Server::start(engine, addr.as_str(), cfg).map_err(|e| e.to_string())?;
    // Tests (and scripts) bind --addr 127.0.0.1:0 and read the real
    // port from this line.
    println!("listening on {}", server.addr());
    server.join();
    println!("shut down");
    Ok(())
}

/// Query a running daemon for its stats document (default), its
/// Prometheus-style text exposition (`--metrics`), or the extended
/// metrics JSON with `latency` and `trace` sections (`--metrics-json`).
fn cmd_stats(args: &[String]) -> Result<(), String> {
    let addr = flag(args, "--addr", "127.0.0.1:7878");
    let want_text = args.iter().any(|a| a == "--metrics");
    let want_json = args.iter().any(|a| a == "--metrics-json");
    if want_text && want_json {
        return Err("stats: pass at most one of --metrics / --metrics-json".to_string());
    }
    let mut client = Client::connect(addr.as_str()).map_err(|e| format!("{addr}: {e}"))?;
    let doc = if want_text {
        client.metrics(MetricsFormat::Text)
    } else if want_json {
        client.metrics(MetricsFormat::Json)
    } else {
        client.stats()
    }
    .map_err(|e| e.to_string())?;
    print!("{doc}");
    if !doc.ends_with('\n') {
        println!();
    }
    Ok(())
}

fn cmd_mine(args: &[String]) -> Result<(), String> {
    let task = args.first().ok_or("mine: missing task (discord|motif|segment|forecast|cluster)")?;
    let name = args.get(1).ok_or("mine: missing dataset name (see `sapla catalogue`)")?;
    let m: usize = flag(args, "--coeffs", "12").parse().map_err(|_| "bad --coeffs".to_string())?;
    let k: usize = flag(args, "--k", "3").parse().map_err(|_| "bad --k".to_string())?;
    let spec = catalogue()
        .into_iter()
        .find(|d| d.name.eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown dataset {name:?}"))?;
    let ds = spec.load(&Protocol::quick());
    let reducer = sapla_baselines::SaplaReducer::new();
    let reps = reduce_batch(&reducer, &ds.series, m).map_err(|e| e.to_string())?;

    match task.as_str() {
        "discord" => {
            let top = sapla_mining::top_discords(&reps, k).map_err(|e| e.to_string())?;
            let scores = sapla_mining::discord_scores(&reps).map_err(|e| e.to_string())?;
            println!("top-{k} discords of {} ({} series):", ds.name, ds.series.len());
            for id in top {
                println!("  series {id:3}  1-NN Dist_PAR = {:.4}", scores[id]);
            }
        }
        "motif" => {
            let motif =
                sapla_mining::find_motif(&ds.series, &reps, 1.0).map_err(|e| e.to_string())?;
            println!(
                "closest pair in {}: series {} and {} at Euclidean distance {:.4}",
                ds.name, motif.a, motif.b, motif.distance
            );
            println!(
                "({} of {} pairs needed exact refinement)",
                motif.refined_pairs,
                ds.series.len() * (ds.series.len() - 1) / 2
            );
        }
        "segment" => {
            let changes: usize =
                flag(args, "--changes", "3").parse().map_err(|_| "bad --changes".to_string())?;
            let cps =
                sapla_mining::change_points(&ds.series[0], changes).map_err(|e| e.to_string())?;
            println!("change points of {}[0] (n = {}): {cps:?}", ds.name, ds.series_len());
        }
        "forecast" => {
            let horizon: usize =
                flag(args, "--horizon", "10").parse().map_err(|_| "bad --horizon".to_string())?;
            let lin = reps[0].as_linear().ok_or("forecast requires a linear representation")?;
            let fc = sapla_mining::extrapolate(lin, horizon).map_err(|e| e.to_string())?;
            println!("{horizon}-step trend forecast of {}[0]:", ds.name);
            println!("  {fc:?}");
        }
        "cluster" => {
            let c = sapla_mining::k_medoids(&reps, k, 10).map_err(|e| e.to_string())?;
            println!("k-medoids (k = {k}) over {}:", ds.name);
            for (ci, &medoid) in c.medoids.iter().enumerate() {
                println!("  cluster {ci}: medoid series {medoid}, members {:?}", c.members(ci));
            }
        }
        other => return Err(format!("unknown mine task {other:?}")),
    }
    Ok(())
}

fn cmd_catalogue() -> Result<(), String> {
    for spec in catalogue() {
        println!("{}", spec.name);
    }
    Ok(())
}

fn cmd_demo() -> Result<(), String> {
    let fig1 = TimeSeries::new(vec![
        7.0, 8.0, 20.0, 15.0, 18.0, 8.0, 8.0, 15.0, 10.0, 1.0, 4.0, 3.0, 3.0, 5.0, 4.0, 9.0, 2.0,
        9.0, 10.0, 10.0,
    ])
    .map_err(|e| e.to_string())?;
    println!("The paper's Fig. 1 example series (n = 20, M = 12):\n");
    for reducer in all_reducers() {
        if reducer.name() == "SAX" {
            continue;
        }
        let rep = reducer.reduce(&fig1, 12).map_err(|e| e.to_string())?;
        let dev = reducer.max_deviation(&fig1, &rep).map_err(|e| e.to_string())?;
        println!(
            "  {:6}  N = {:2}   max deviation = {:.4}",
            reducer.name(),
            rep.num_segments(),
            dev
        );
    }
    Ok(())
}
