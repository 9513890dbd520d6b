//! The daemon: accept loop, per-connection threads, the admission
//! queue, and the executor threads that drain it into the engine (crate
//! docs have the picture).

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use sapla_core::TimeSeries;
use sapla_index::{BatchStats, Engine, Query, SearchStats};
use sapla_obs::recorder::{self, Meta, Stage, TraceDump, TraceId};

use crate::wire::{self, MetricsFormat, Request};
use crate::{metrics, Result};

/// Most traces the slow-query log retains (oldest evicted first).
const SLOW_LOG_CAP: usize = 32;

/// Per-instance knobs (everything index-shaped lives in
/// [`sapla_index::EngineConfig`] instead).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads per engine call (`0` = all available cores). The
    /// server runs `max(1, cores / threads)` executors on its admission
    /// queue, so concurrent engine calls × `threads` never exceeds the
    /// hardware: `1` serves one cohort per core, `0` (or any value
    /// above half the cores) one cohort at a time across all of them.
    pub threads: usize,
    /// Per-frame byte cap (defaults to [`wire::MAX_FRAME`]): a larger
    /// request ends the connection, a larger response is replaced by an
    /// error response.
    pub max_frame: usize,
    /// Copy any request slower than this many milliseconds end-to-end
    /// into the slow-query log served by `OP_METRICS` (`None` = off).
    /// Needs the `obs` feature; without it the log stays empty.
    pub slow_ms: Option<u64>,
    /// On-disk `sapla-store` snapshot backing this instance: the file
    /// an empty-blob `reload` request re-reads (an O(file size)
    /// cold-start-style load — membership may change between
    /// generations). Without it an empty-blob `reload` is refused.
    pub index_file: Option<std::path::PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { threads: 0, max_frame: wire::MAX_FRAME, slow_ms: None, index_file: None }
    }
}

/// One enqueued kNN request: prepared queries plus the channel its
/// connection thread is blocked on.
struct Job {
    queries: Vec<Query>,
    k: usize,
    reply: mpsc::Sender<std::result::Result<(Vec<SearchStats>, BatchStats), String>>,
    /// Flight-recorder handle of the originating request.
    trace: TraceId,
    /// Obs-clock enqueue timestamp: the queue-wait stage's start.
    enqueued_ns: u64,
}

/// Plain atomic counters mirrored into the `stats` response. These are
/// always live (unlike the `sapla-obs` registry, which compiles away
/// without `--features obs`).
#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    batches: AtomicU64,
    batched_queries: AtomicU64,
    max_batch_queries: AtomicU64,
    reloads: AtomicU64,
    generation: AtomicU64,
}

struct Shared {
    /// The serving engine. Readers clone the inner `Arc` and release
    /// the lock immediately, so a reload (write lock + swap) never
    /// waits on, or interrupts, in-flight queries.
    engine: RwLock<Arc<Engine>>,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    /// Clones of every accepted connection's stream; shutdown closes
    /// them so connection threads blocked in a read wake up and exit.
    streams: Mutex<Vec<TcpStream>>,
    counters: Counters,
    threads: usize,
    /// Executor threads draining `queue` (see [`executors_for`]).
    executors: usize,
    max_frame: usize,
    /// `--slow-ms` converted to nanoseconds (`None` = slow log off).
    slow_ns: Option<u64>,
    /// Bounded log of completed stage traces that overran `slow_ns`.
    /// Locked alone, never nested with `queue` or `streams`.
    slow_log: Mutex<VecDeque<TraceDump>>,
    /// Snapshot file an empty-blob `reload` re-reads (see
    /// [`ServerConfig::index_file`]).
    index_file: Option<std::path::PathBuf>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn current_engine(&self) -> Arc<Engine> {
        Arc::clone(&self.engine.read().unwrap_or_else(PoisonError::into_inner))
    }
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`Server::stop`] (or send a `shutdown` request and then
/// [`Server::join`]).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind `addr` (use port `0` for an ephemeral port) and start the
    /// accept and executor threads around `engine`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the listener cannot bind.
    pub fn start(engine: Engine, addr: impl ToSocketAddrs, cfg: ServerConfig) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        preregister_metrics();
        let shared = Arc::new(Shared {
            engine: RwLock::new(Arc::new(engine)),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            streams: Mutex::new(Vec::new()),
            counters: Counters::default(),
            threads: cfg.threads,
            executors: executors_for(sapla_index::max_threads(), cfg.threads),
            max_frame: cfg.max_frame,
            slow_ns: cfg.slow_ms.map(|ms| ms.saturating_mul(1_000_000)),
            slow_log: Mutex::new(VecDeque::new()),
            index_file: cfg.index_file,
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let executors = (0..shared.executors)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || batch_loop(&shared, lane))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(&listener, &shared, &conns))
        };
        Ok(Server { shared, addr: local, accept: Some(accept), executors, conns })
    }

    /// The bound address (resolves port `0` to the real port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `true` once a shutdown has been requested (via [`Server::stop`]
    /// or a client `shutdown` command).
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Request shutdown and wait for every thread to finish. The
    /// executors drain already-queued work; open connections are closed
    /// (clients mid-request see the socket drop).
    pub fn stop(mut self) {
        initiate_shutdown(&self.shared, self.addr);
        self.join_threads();
    }

    /// Wait for the server to stop on its own (i.e. for a client's
    /// `shutdown` command). Queued queries are drained first.
    pub fn join(mut self) {
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Connection threads exit once their peer closes or the
        // shutdown flag is up and their reads drain; the accept loop
        // has already stopped admitting new ones.
        loop {
            let handle = lock(&self.conns).pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

/// Executors for a host with `cores` hardware threads when every engine
/// call fans out over `threads` workers (`0` = all cores): as many as
/// fit, so `executors × threads ≤ cores`, and never fewer than one.
fn executors_for(cores: usize, threads: usize) -> usize {
    match threads {
        0 => 1,
        t => (cores / t).max(1),
    }
}

/// Raise the shutdown flag *while holding the queue lock*, then wake
/// every executor. Holding the lock for the store is what makes the
/// wakeup reliable: an executor checks the flag and enters its wait
/// under the same lock, so a store made outside it could land between
/// that check and the wait — the notify would find no waiter and that
/// executor would sleep forever (`Server::stop` hang). The admission
/// queue model (`crates/audit/tests/model_serve.rs`) reproduces that
/// lost wakeup against the unlocked variant and verifies this one.
fn raise_shutdown_flag(shared: &Shared) {
    {
        let _queue = lock(&shared.queue);
        shared.shutdown.store(true, Ordering::Release);
    }
    shared.available.notify_all();
}

/// Flip the flag, wake the executors, close every open connection (so
/// threads blocked in a read exit), and poke the listener so its
/// blocking `accept` returns.
fn initiate_shutdown(shared: &Shared, addr: SocketAddr) {
    raise_shutdown_flag(shared);
    for stream in lock(&shared.streams).drain(..) {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    // A throwaway connection unblocks `TcpListener::incoming`; the
    // accept loop re-checks the flag before handling it.
    drop(TcpStream::connect(addr));
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, conns: &Mutex<Vec<JoinHandle<()>>>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        register_stream(shared, &stream);
        let local = listener.local_addr().ok();
        let shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || connection_loop(stream, &shared, local));
        lock(conns).push(handle);
    }
}

/// Track a clone of the accepted stream for shutdown. The flag is
/// re-checked under the registry lock: `initiate_shutdown` sets it
/// before draining, so a racing registration either lands in the drain
/// or closes itself here.
fn register_stream(shared: &Shared, stream: &TcpStream) {
    if let Ok(clone) = stream.try_clone() {
        let mut registry = lock(&shared.streams);
        if shared.shutdown.load(Ordering::Acquire) {
            let _ = clone.shutdown(std::net::Shutdown::Both);
        } else {
            registry.push(clone);
        }
    }
}

/// Register every serve metric before the first request, so `stats` /
/// `OP_METRICS` surface zero rows for idle stages instead of omitting
/// them. Call sites merge by name, so these zero-touch registrations
/// alias the hot-path statics in every snapshot.
fn preregister_metrics() {
    sapla_obs::counter!("serve.requests", 0);
    sapla_obs::counter!("serve.reloads", 0);
    sapla_obs::gauge_max!("serve.queue.depth.hwm", 0);
    sapla_obs::register_hist!("serve.request.ns");
    sapla_obs::register_hist!("serve.batch.jobs");
    sapla_obs::register_hist!("serve.batch.queries");
    sapla_obs::lane_counter!("serve.batch.queries.executor", 0, 0);
    sapla_obs::register_windowed!("serve.request");
    sapla_obs::register_windowed!("serve.stage.decode");
    sapla_obs::register_windowed!("serve.stage.prepare");
    sapla_obs::register_windowed!("serve.stage.queue");
    sapla_obs::register_windowed!("serve.stage.batch");
    sapla_obs::register_windowed!("serve.stage.execute");
    sapla_obs::register_windowed!("serve.stage.merge");
    sapla_obs::register_windowed!("serve.stage.reply");
    sapla_obs::register_windowed!("engine.shard.knn.ns");
}

/// Record one stage interval into the flight recorder *and* that
/// stage's windowed percentile sketch (macro names must be literals, so
/// the stage → sketch fanout is spelled out). `lane` is the executor
/// that ran the cohort for `execute`, 0 for every other stage.
fn record_stage(lane: usize, trace: TraceId, stage: Stage, start_ns: u64, end_ns: u64) {
    recorder::stage(trace, stage, start_ns, end_ns);
    let dur = end_ns.saturating_sub(start_ns);
    match stage {
        Stage::Decode => sapla_obs::windowed!("serve.stage.decode", lane, dur),
        Stage::Prepare => sapla_obs::windowed!("serve.stage.prepare", lane, dur),
        Stage::Queue => sapla_obs::windowed!("serve.stage.queue", lane, dur),
        Stage::Batch => sapla_obs::windowed!("serve.stage.batch", lane, dur),
        Stage::Execute => sapla_obs::windowed!("serve.stage.execute", lane, dur),
        Stage::Merge => sapla_obs::windowed!("serve.stage.merge", lane, dur),
        Stage::Reply => sapla_obs::windowed!("serve.stage.reply", lane, dur),
    }
    let _ = (dur, lane);
}

/// Record request latency; consumes `started` even when obs is off so
/// the disabled macro (which drops its arguments unevaluated) leaves no
/// unused binding behind.
fn record_latency(started: Instant) {
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    sapla_obs::hist!("serve.request.ns", ns);
    sapla_obs::windowed!("serve.request", 0, ns);
    let _ = ns;
}

/// Copy a finished over-threshold trace into the bounded slow-query
/// log. The log lock is taken alone (never nested with `queue` or
/// `streams`), so it cannot participate in a lock cycle.
fn note_slow(shared: &Shared, trace: TraceId, elapsed_ns: u64) {
    let Some(threshold) = shared.slow_ns else { return };
    if elapsed_ns < threshold {
        return;
    }
    if let Some(dump) = recorder::fetch(trace) {
        let mut log = lock(&shared.slow_log);
        if log.len() == SLOW_LOG_CAP {
            log.pop_front();
        }
        log.push_back(dump);
    }
}

fn connection_loop(mut stream: TcpStream, shared: &Arc<Shared>, local: Option<SocketAddr>) {
    let _ = stream.set_nodelay(true);
    // A clean close, socket death, or an oversized frame all end the
    // conversation; only a well-formed frame keeps the loop alive.
    while let Ok(Some(payload)) = wire::read_frame(&mut stream, shared.max_frame) {
        let started = Instant::now();
        let trace = recorder::begin();
        let decode_start = sapla_obs::clock::now_ns();
        shared.counters.requests.fetch_add(1, Ordering::Relaxed);
        sapla_obs::counter!("serve.requests");
        let decoded = wire::decode_request(&payload);
        record_stage(0, trace, Stage::Decode, decode_start, sapla_obs::clock::now_ns());
        let (response, shutdown_after) = match decoded {
            Ok(req) => {
                let is_shutdown = matches!(req, Request::Shutdown);
                (handle_request(shared, req, trace), is_shutdown)
            }
            Err(msg) => (wire::err_response(&msg), false),
        };
        // A response over the cap (a snapshot of a large index) becomes
        // an error the client can read; `write_frame` refusing it would
        // drop the connection without a word.
        let cap = shared.max_frame.min(wire::MAX_FRAME);
        let response = if response.len() > cap {
            wire::err_response(&format!(
                "response of {} bytes exceeds the {cap}-byte frame cap",
                response.len()
            ))
        } else {
            response
        };
        let reply_start = sapla_obs::clock::now_ns();
        let write_ok = wire::write_frame(&mut stream, &response).is_ok();
        record_stage(0, trace, Stage::Reply, reply_start, sapla_obs::clock::now_ns());
        let elapsed_ns = recorder::end(trace);
        record_latency(started);
        note_slow(shared, trace, elapsed_ns);
        if !write_ok {
            break;
        }
        if shutdown_after {
            if let Some(addr) = local {
                initiate_shutdown(shared, addr);
            } else {
                raise_shutdown_flag(shared);
            }
            break;
        }
    }
}

/// Serve one decoded request; every failure becomes an error response.
fn handle_request(shared: &Arc<Shared>, req: Request, trace: TraceId) -> Vec<u8> {
    match req {
        Request::Knn { k, queries } => handle_knn(shared, k, queries, trace),
        Request::Range { epsilon, query } => handle_range(shared, epsilon, query),
        Request::Stats => wire::ok_text_response(&stats_json(shared)),
        Request::Snapshot => match shared.current_engine().snapshot_image(None) {
            Ok(image) => wire::ok_blob_response(&image),
            Err(e) => wire::err_response(&e.to_string()),
        },
        Request::Reload { blob } => handle_reload(shared, blob),
        Request::Shutdown => wire::ok_empty_response(),
        Request::Metrics { format } => {
            let text = match format {
                MetricsFormat::Json => metrics::metrics_json(
                    &server_section(shared),
                    shared.slow_ns,
                    &slow_log_copy(shared),
                ),
                MetricsFormat::Text => metrics::metrics_text(
                    &server_samples(shared),
                    shared.slow_ns,
                    &slow_log_copy(shared),
                ),
            };
            wire::ok_text_response(&text)
        }
    }
}

/// Clone the slow log for exposition (held briefly, lock taken alone).
fn slow_log_copy(shared: &Shared) -> Vec<TraceDump> {
    lock(&shared.slow_log).iter().cloned().collect()
}

fn handle_knn(shared: &Arc<Shared>, k: usize, queries: Vec<Vec<f64>>, trace: TraceId) -> Vec<u8> {
    if k == 0 {
        return wire::err_response("k must be at least 1");
    }
    if queries.is_empty() {
        return wire::err_response("a kNN request needs at least one query");
    }
    let prepare_start = sapla_obs::clock::now_ns();
    recorder::set_meta(trace, Meta::K, k as u64);
    let engine = shared.current_engine();
    // Reduced right here, on one thread: connection threads already
    // are the parallelism of decode + prepare, and a helper spawned for
    // a two-query request would only queue behind the cohort workers.
    let raws: sapla_core::Result<Vec<TimeSeries>> =
        queries.into_iter().map(TimeSeries::new).collect();
    let prepared = match raws.and_then(|r| engine.prepare(&r, 1)) {
        Ok(p) => p,
        Err(e) => return wire::err_response(&e.to_string()),
    };
    record_stage(0, trace, Stage::Prepare, prepare_start, sapla_obs::clock::now_ns());
    // Hand the prepared queries to an executor and block on the reply.
    // Queries only depend on the reducer and `m`, both invariant across
    // reloads, so they stay valid whichever engine generation answers.
    let (tx, rx) = mpsc::channel();
    let enqueued_ns = sapla_obs::clock::now_ns();
    {
        // The flag is checked under the queue lock: an executor only
        // exits once the flag is up *and* the queue is empty (also
        // under the lock), so a job admitted here is guaranteed an
        // answer — no request can strand in `recv` below.
        let mut queue = lock(&shared.queue);
        if shared.shutdown.load(Ordering::Acquire) {
            return wire::err_response("server is shutting down");
        }
        queue.push_back(Job { queries: prepared, k, reply: tx, trace, enqueued_ns });
        sapla_obs::gauge_max!("serve.queue.depth.hwm", queue.len() as u64);
    }
    shared.available.notify_one();
    match rx.recv() {
        Ok(Ok((per_query, batch))) => {
            wire::ok_knn_response(&per_query, batch.measured as u64, batch.candidates as u64)
        }
        Ok(Err(msg)) => wire::err_response(&msg),
        Err(_) => wire::err_response("server is shutting down"),
    }
}

fn handle_range(shared: &Arc<Shared>, epsilon: f64, query: Vec<f64>) -> Vec<u8> {
    if !(epsilon.is_finite() && epsilon >= 0.0) {
        return wire::err_response("epsilon must be finite and non-negative");
    }
    let engine = shared.current_engine();
    let answer = TimeSeries::new(query)
        .and_then(|raw| engine.prepare(std::slice::from_ref(&raw), 1))
        .and_then(|qs| match qs.first() {
            Some(q) => engine.range(q, epsilon),
            None => Err(sapla_core::Error::EmptySeries),
        });
    match answer {
        Ok(stats) => wire::ok_range_response(&stats),
        Err(e) => wire::err_response(&e.to_string()),
    }
}

fn swap_engine(shared: &Arc<Shared>, fresh: Engine) -> Vec<u8> {
    let records = fresh.len() as u64;
    *shared.engine.write().unwrap_or_else(PoisonError::into_inner) = Arc::new(fresh);
    shared.counters.reloads.fetch_add(1, Ordering::Relaxed);
    shared.counters.generation.fetch_add(1, Ordering::Relaxed);
    sapla_obs::counter!("serve.reloads");
    wire::ok_records_response(records)
}

/// Swap in the engine a `sapla-store` image holds: the request's blob,
/// or — for an empty blob — the configured index file. Either is the
/// cold-start load (O(image size), raws, reps and fully-built trees
/// adopted verbatim), self-contained, so the new generation's membership
/// may differ from the old one's. A refused image leaves the serving
/// engine in place.
fn handle_reload(shared: &Arc<Shared>, blob: Vec<u8>) -> Vec<u8> {
    let fresh = match (blob.is_empty(), &shared.index_file) {
        (false, _) => Engine::from_snapshot_image(&blob),
        (true, Some(path)) => Engine::from_snapshot_file(path),
        (true, None) => {
            return wire::err_response("an empty reload blob needs a server with an index file");
        }
    };
    match fresh {
        Ok(fresh) => swap_engine(shared, fresh),
        Err(e) => wire::err_response(&e.to_string()),
    }
}

/// Name/value pairs for the text exposition.
fn server_samples(shared: &Shared) -> Vec<(&'static str, u64)> {
    let c = &shared.counters;
    vec![
        ("executors", shared.executors as u64),
        ("requests", c.requests.load(Ordering::Relaxed)),
        ("batches", c.batches.load(Ordering::Relaxed)),
        ("batched_queries", c.batched_queries.load(Ordering::Relaxed)),
        ("max_batch_queries", c.max_batch_queries.load(Ordering::Relaxed)),
        ("reloads", c.reloads.load(Ordering::Relaxed)),
        ("generation", c.generation.load(Ordering::Relaxed)),
    ]
}

/// The `"server"` JSON object shared by `stats` and `OP_METRICS`.
fn server_section(shared: &Shared) -> String {
    let engine = shared.current_engine();
    let c = &shared.counters;
    format!(
        concat!(
            "{{\"tree\": \"{}\", \"method\": \"{}\", \"indexed\": {}, ",
            "\"shards\": {}, \"executors\": {}, \"generation\": {}, \"requests\": {}, ",
            "\"batches\": {}, \"batched_queries\": {}, \"max_batch_queries\": {}, ",
            "\"reloads\": {}}}"
        ),
        engine.config().tree.name(),
        engine.method(),
        engine.len(),
        engine.shard_count(),
        shared.executors,
        c.generation.load(Ordering::Relaxed),
        c.requests.load(Ordering::Relaxed),
        c.batches.load(Ordering::Relaxed),
        c.batched_queries.load(Ordering::Relaxed),
        c.max_batch_queries.load(Ordering::Relaxed),
        c.reloads.load(Ordering::Relaxed),
    )
}

fn stats_json(shared: &Shared) -> String {
    format!(
        "{{\n  \"server\": {},\n  \"obs\": {}\n}}\n",
        server_section(shared),
        sapla_obs::Snapshot::capture().to_json().trim_end(),
    )
}

/// One executor: take a fair share of the waiting jobs — `⌈len / E⌉`,
/// FIFO — and answer them with one engine call per `k`. A lone request
/// starts at once on whichever executor is idle; under a backlog every
/// executor leaves with a cohort (admission batching). An executor that
/// leaves jobs behind passes the baton with a `notify_one`, so they
/// never sit queued while another executor sleeps on the strength of a
/// connection thread's notify that has yet to run. Exits when the
/// shutdown flag is up *and* the queue is empty, so queries accepted
/// before shutdown still get answers.
fn batch_loop(shared: &Arc<Shared>, lane: usize) {
    loop {
        let (jobs, left_some): (Vec<Job>, bool) = {
            let mut queue = lock(&shared.queue);
            loop {
                if !queue.is_empty() {
                    let share = queue.len().div_ceil(shared.executors);
                    let jobs = queue.drain(..share).collect();
                    break (jobs, !queue.is_empty());
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.available.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        if left_some {
            shared.available.notify_one();
        }
        run_batch(shared, jobs, lane);
    }
}

fn run_batch(shared: &Arc<Shared>, mut jobs: Vec<Job>, lane: usize) {
    let total_queries: usize = jobs.iter().map(|j| j.queries.len()).sum();
    let c = &shared.counters;
    c.batches.fetch_add(1, Ordering::Relaxed);
    c.batched_queries.fetch_add(total_queries as u64, Ordering::Relaxed);
    c.max_batch_queries.fetch_max(total_queries as u64, Ordering::Relaxed);
    sapla_obs::hist!("serve.batch.jobs", jobs.len() as u64);
    sapla_obs::hist!("serve.batch.queries", total_queries as u64);
    sapla_obs::lane_counter!("serve.batch.queries.executor", lane, total_queries as u64);
    let engine = shared.current_engine();

    // Queue wait ends for every drained job at this moment.
    let drained_ns = sapla_obs::clock::now_ns();
    for job in &jobs {
        record_stage(0, job.trace, Stage::Queue, job.enqueued_ns, drained_ns);
        recorder::set_meta(job.trace, Meta::BatchJobs, jobs.len() as u64);
        recorder::set_meta(job.trace, Meta::BatchQueries, total_queries as u64);
    }

    // Group coalesced jobs by k (BTreeMap: deterministic order), keep
    // FIFO order within each group.
    let mut by_k: BTreeMap<usize, Vec<Job>> = BTreeMap::new();
    for job in jobs.drain(..) {
        by_k.entry(job.k).or_default().push(job);
    }
    for (k, group) in by_k {
        let mut all: Vec<Query> = Vec::new();
        let mut counts = Vec::with_capacity(group.len());
        let mut traces = Vec::with_capacity(group.len());
        let mut replies = Vec::with_capacity(group.len());
        for mut job in group {
            counts.push(job.queries.len());
            traces.push(job.trace);
            all.append(&mut job.queries);
            replies.push(job.reply);
        }
        // Batch formation ends (and the cohort's execute begins) here;
        // every rider shares the cohort's execute interval.
        let exec_start = sapla_obs::clock::now_ns();
        for &trace in &traces {
            record_stage(0, trace, Stage::Batch, drained_ns, exec_start);
            recorder::set_meta(trace, Meta::CohortQueries, all.len() as u64);
        }
        let answer = engine.knn(&all, k, shared.threads);
        let exec_end = sapla_obs::clock::now_ns();
        for &trace in &traces {
            record_stage(lane, trace, Stage::Execute, exec_start, exec_end);
        }
        match answer {
            Ok((mut per_query, batch)) => {
                // Split the flat result vector back into per-job slices
                // (front to back, same order we concatenated).
                let mut rest = per_query.drain(..);
                for ((count, reply), trace) in counts.iter().zip(replies).zip(traces) {
                    let chunk: Vec<SearchStats> = rest.by_ref().take(*count).collect();
                    // Stamp the merge before the send: the connection
                    // thread wakes on the send and starts its reply
                    // stage, which must not overlap this one.
                    record_stage(0, trace, Stage::Merge, exec_end, sapla_obs::clock::now_ns());
                    // A dead receiver just means the client hung up.
                    let _ = reply.send(Ok((chunk, batch)));
                }
            }
            Err(e) => {
                let msg = e.to_string();
                for reply in replies {
                    let _ = reply.send(Err(msg.clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::executors_for;

    #[test]
    fn executors_fill_the_cores_without_oversubscribing_them() {
        for (cores, threads, want) in [
            (1, 1, 1),
            (2, 1, 2),
            (2, 2, 1),
            (2, 0, 1),
            (8, 3, 2),
            (4, 16, 1),
            (8, 1, 8),
            (1, 0, 1),
        ] {
            let e = executors_for(cores, threads);
            assert_eq!(e, want, "executors_for({cores}, {threads})");
            let per_call = if threads == 0 { cores } else { threads };
            assert!(
                e == 1 || e * per_call <= cores,
                "{e} executors × {per_call} threads > {cores}"
            );
        }
    }
}
