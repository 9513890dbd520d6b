//! Load generators for the serve phase: a closed loop (each connection
//! sends its next request when the previous reply arrives) and an open
//! loop (requests are due on a seeded Poisson schedule whatever the
//! server does, and each is timed from its due time).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use sapla_index::SearchStats;
use sapla_serve::{Client, KnnResponse};

use crate::tally::Tally;
use crate::trace::Tracer;
use crate::workload::K;

/// A served request slower than this (from its due time) counts as
/// failed, like a refused or erroring one. Not the 250 ms first chosen:
/// this sandbox stalls for 0.2–0.4 s every few minutes, and with the
/// connections a third busy such a stall put requests at 252–413 ms in
/// three of some forty traced runs. The limit sits above what the
/// sandbox does on its own, so that a failure is the program's.
pub const LATENCY_LIMIT: Duration = Duration::from_secs(1);

/// The distinct requests of a serve phase: `queries` cut into
/// consecutive groups of `batch`, with the in-process answers every
/// reply must equal.
#[derive(Debug)]
pub struct Requests {
    payloads: Vec<Vec<Vec<f64>>>,
    expected: Vec<Vec<SearchStats>>,
}

impl Requests {
    /// # Panics
    ///
    /// When `batch` is zero or does not divide the query count.
    pub fn new(queries: &[sapla_core::TimeSeries], answers: &[SearchStats], batch: usize) -> Self {
        assert!(batch > 0 && queries.len().is_multiple_of(batch) && queries.len() == answers.len());
        Requests {
            payloads: queries
                .chunks(batch)
                .map(|c| c.iter().map(|q| q.values().to_vec()).collect())
                .collect(),
            expected: answers.chunks(batch).map(<[SearchStats]>::to_vec).collect(),
        }
    }

    pub fn batch(&self) -> usize {
        self.payloads[0].len()
    }

    fn len(&self) -> usize {
        self.payloads.len()
    }
}

/// Whether a reply carries, bit for bit, the in-process answers.
fn reply_matches(reply: &KnnResponse, expected: &[SearchStats]) -> bool {
    reply.per_query.len() == expected.len()
        && reply.per_query.iter().zip(expected).all(|(got, want)| {
            got.hits.len() == want.retrieved.len()
                && got
                    .hits
                    .iter()
                    .zip(want.retrieved.iter().zip(&want.distances))
                    .all(|(&(id, d), (&wid, &wd))| id == wid as u64 && d.to_bits() == wd.to_bits())
        })
}

/// What one generator (all its connections together) observed.
#[derive(Debug, Default)]
pub struct LoadResult {
    /// Per request, milliseconds: reply time minus send time (closed
    /// loop) or minus due time (open loop).
    pub latency_ms: Vec<f64>,
    /// Open loop only: how long after its due time each request was
    /// sent, milliseconds.
    pub late_ms: Vec<f64>,
    pub queries_answered: usize,
    pub elapsed_s: f64,
}

/// One client connection of a generator, with what it has observed.
struct Conn<'r> {
    client: Client,
    requests: &'r Requests,
    out: LoadResult,
    tally: Tally,
    tracer: Tracer,
}

impl Conn<'_> {
    /// Send request `i`, wait for the reply and check it. `from` is the
    /// instant its latency counts from.
    fn request(&mut self, i: usize, from: Instant) {
        let slot = i % self.requests.len();
        let span = self.tracer.begin("serve.request", i);
        let reply = self.client.knn(&self.requests.payloads[slot], K);
        self.tracer.end(span);
        let latency = from.elapsed();
        match reply {
            Err(e) => self.tally.failed(format!("served request {i}: {e}")),
            Ok(reply) if !reply_matches(&reply, &self.requests.expected[slot]) => {
                self.tally.wrong(format!("served request {i} differs from the in-process answer"));
            }
            Ok(_) if latency > LATENCY_LIMIT => {
                self.tally.failed(format!("served request {i} took {latency:?}, over the limit"));
            }
            Ok(_) => {
                self.tally.ok();
                self.out.queries_answered += self.requests.batch();
            }
        }
        self.out.latency_ms.push(latency.as_secs_f64() * 1e3);
    }
}

/// Open `conns` connections, run `body(c, connection c, start)` on a
/// thread each, and merge what they observed.
fn drive(
    addr: SocketAddr,
    conns: usize,
    requests: &Requests,
    tally: &mut Tally,
    tracer: &mut Tracer,
    body: impl Fn(usize, &mut Conn, Instant) + Sync,
) -> Result<LoadResult, String> {
    let mut connections = Vec::with_capacity(conns);
    for _ in 0..conns {
        connections.push(Conn {
            client: Client::connect(addr).map_err(|e| format!("connect: {e}"))?,
            requests,
            out: LoadResult::default(),
            tally: Tally::default(),
            tracer: tracer.fork(),
        });
    }
    let start = Instant::now();
    let body = &body;
    let done: Vec<Conn> = std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                scope.spawn(move || {
                    body(c, &mut conn, start);
                    conn
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("load thread panicked")).collect()
    });
    let mut all = LoadResult { elapsed_s: start.elapsed().as_secs_f64(), ..LoadResult::default() };
    for conn in done {
        all.latency_ms.extend(conn.out.latency_ms);
        all.late_ms.extend(conn.out.late_ms);
        all.queries_answered += conn.out.queries_answered;
        tally.absorb(conn.tally);
        tracer.absorb(conn.tracer);
    }
    Ok(all)
}

/// Closed loop on `conns` connections for `duration`, and until they
/// have sent `min_requests` between them: connection `c` walks requests
/// `c`, `c + conns`, …, so the connections never send the same request
/// at once.
///
/// # Errors
///
/// When a connection cannot be opened.
pub fn closed_loop(
    addr: SocketAddr,
    conns: usize,
    duration: Duration,
    min_requests: usize,
    requests: &Requests,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<LoadResult, String> {
    drive(addr, conns, requests, tally, tracer, |c, conn, start| {
        let mut i = c;
        while start.elapsed() < duration || i < min_requests {
            conn.request(i, Instant::now());
            i += conns;
        }
    })
}

/// Open loop: request `i` is due `schedule[i]` seconds after the start
/// and goes out on connection `i % conns`. A connection sends a request
/// that is already due as soon as its previous reply is in, so a stall
/// delays later requests and their latency, counted from the due time,
/// shows it.
///
/// # Errors
///
/// When a connection cannot be opened.
pub fn open_loop(
    addr: SocketAddr,
    conns: usize,
    schedule: &[f64],
    requests: &Requests,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<LoadResult, String> {
    drive(addr, conns, requests, tally, tracer, |c, conn, start| {
        for i in (c..schedule.len()).step_by(conns) {
            let due = start + Duration::from_secs_f64(schedule[i]);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            conn.out.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            conn.request(i, due);
        }
    })
}

/// Issue an empty-blob `reload` (re-read `ServerConfig::index_file`)
/// every `every` until `stop` is raised. A reload that takes longer than
/// `every` is followed by the next one at once, not by a burst of the
/// ones that fell due meanwhile.
///
/// # Errors
///
/// When the control connection cannot be opened.
pub fn reload_loop(
    addr: SocketAddr,
    every: Duration,
    expect_records: u64,
    stop: &AtomicBool,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut control = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let mut next = Instant::now() + every;
    let mut op = 0;
    // `stop` is read before every sleep step and every reload, so the
    // loop ends within one step or one reload of the load's end.
    while !stop.load(Ordering::Acquire) {
        let wait = next.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait.min(Duration::from_millis(5)));
            continue;
        }
        reload_once(&mut control, expect_records, op, tally, tracer);
        op += 1;
        next = (next + every).max(Instant::now());
    }
    Ok(())
}

/// One empty-blob `reload`, checked: the server must report the
/// database's size.
pub fn reload_once(
    control: &mut Client,
    expect_records: u64,
    op: usize,
    tally: &mut Tally,
    tracer: &mut Tracer,
) {
    let (reply, _) = tracer.timed("serve.reload", op, || control.reload(&[]));
    match reply {
        Ok(records) if records == expect_records => tally.ok(),
        Ok(records) => tally.wrong(format!("reload {op} reports {records} records")),
        Err(e) => tally.failed(format!("reload {op}: {e}")),
    }
}
