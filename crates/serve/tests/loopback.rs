//! Loopback integration tests for the daemon: a real `TcpListener` on
//! `127.0.0.1:0`, real client connections, concurrent load.
//!
//! The load-bearing property is pinned in
//! [`concurrent_clients_get_bit_identical_answers`] and
//! [`every_executor_serves_bit_identical_answers`]: whatever cohorts the
//! server happens to form under concurrency, on however many executors
//! the host gives it, every query's answer is bit-identical to the
//! single-process `Engine::knn` path.

mod common;

use std::sync::Arc;

use common::{build_engine, dataset, query_samples, samples, LEN};
use sapla_core::TimeSeries;
use sapla_index::{Engine, SearchStats, TreeKind};
use sapla_serve::{Client, MetricsFormat, Server, ServerConfig};

/// Local ground truth through the same engine code path the server
/// batches into.
fn local_answers(reference: &Engine, queries: &[Vec<f64>], k: usize) -> Vec<SearchStats> {
    let raws: Vec<TimeSeries> =
        queries.iter().map(|q| TimeSeries::new(q.clone()).unwrap()).collect();
    let prepared = reference.prepare(&raws, 2).unwrap();
    reference.knn(&prepared, k, 2).unwrap().0
}

fn assert_matches_local(got: &sapla_serve::KnnResponse, want: &[SearchStats], context: &str) {
    assert_eq!(got.per_query.len(), want.len(), "{context}: query count");
    for (qi, (g, w)) in got.per_query.iter().zip(want).enumerate() {
        let want_hits: Vec<(u64, u64)> = w
            .retrieved
            .iter()
            .zip(&w.distances)
            .map(|(&id, &d)| (id as u64, d.to_bits()))
            .collect();
        let got_hits: Vec<(u64, u64)> = g.hits.iter().map(|&(id, d)| (id, d.to_bits())).collect();
        assert_eq!(got_hits, want_hits, "{context}: query {qi} differs from the local engine");
        assert_eq!(g.measured, w.measured as u64, "{context}: query {qi} measured");
    }
}

/// One engine call per core: `threads = 1` makes the server start as
/// many executors as the host has hardware threads (`threads = 0`, the
/// default the other tests use, always means one executor).
fn one_thread_per_call() -> ServerConfig {
    ServerConfig { threads: 1, ..ServerConfig::default() }
}

/// A numeric field of the `"server"` object of a stats document.
fn server_field(stats: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let rest = stats.split(&key).nth(1).unwrap_or_else(|| panic!("no server.{name} in {stats}"));
    rest.chars().take_while(char::is_ascii_digit).collect::<String>().parse().unwrap()
}

#[test]
fn serves_knn_bit_identical_to_the_local_batch_path() {
    let raws = dataset(48);
    let queries = query_samples(10);
    let reference = build_engine(&raws, 1, TreeKind::Dbch);
    let want = local_answers(&reference, &queries, 5);

    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let got = client.knn(&queries, 5).unwrap();
    assert_matches_local(&got, &want, "sequential");
    // A lone request is its own admission batch, so the batch counters
    // must equal this very batch's.
    let want_measured: usize = want.iter().map(|s| s.measured).sum();
    assert_eq!(got.batch_measured, want_measured as u64);
    assert_eq!(got.batch_candidates, (queries.len() * raws.len()) as u64);
    server.stop();
}

#[test]
fn sharded_server_agrees_with_a_local_sharded_engine() {
    let raws = dataset(60);
    let queries = query_samples(6);
    let reference = build_engine(&raws, 3, TreeKind::Dbch);
    let want = local_answers(&reference, &queries, 4);

    let server = Server::start(
        build_engine(&raws, 3, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let got = client.knn(&queries, 4).unwrap();
    assert_matches_local(&got, &want, "sharded");
    server.stop();
}

/// ≥2 concurrent connections hammer the daemon; coalesced or not, every
/// reply must be bit-identical to the local engine. Mixed `k` values
/// exercise the group-by-k splitting of a cohort.
#[test]
fn concurrent_clients_get_bit_identical_answers() {
    let raws = dataset(64);
    let reference = Arc::new(build_engine(&raws, 1, TreeKind::Dbch));
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 5;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|ci| {
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let k = 3 + ci % 3; // three distinct k values across clients
                for round in 0..ROUNDS {
                    let queries: Vec<Vec<f64>> =
                        (0..3).map(|j| samples(100 + ci * 31 + round * 7 + j)).collect();
                    let want = local_answers(&reference, &queries, k);
                    let got = client.knn(&queries, k).unwrap();
                    let ctx = format!("client {ci} round {round}");
                    assert_matches_local(&got, &want, &ctx);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let total_queries = CLIENTS * ROUNDS * 3;
    assert!(stats.contains("\"server\""), "stats is a JSON document: {stats}");
    assert!(
        stats.contains(&format!("\"batched_queries\": {total_queries}")),
        "every query must ride an admission batch: {stats}"
    );
    assert!(!stats.contains("\"batches\": 0"), "at least one batch ran: {stats}");
    if sapla_obs::enabled() {
        // The obs registry must carry the serve-layer metrics and the
        // engine's pruning counters (non-zero by construction: the
        // queries above all measured candidates).
        for name in
            ["serve.requests", "serve.batch.queries", "serve.request.ns", "index.knn.queries"]
        {
            assert!(stats.contains(name), "obs snapshot should name {name}: {stats}");
        }
    }
    server.stop();
}

/// The server at full width: `threads = 1`, so it runs one executor per
/// core of whatever host this is (one under `taskset -c 0`, which CI
/// also runs). Four connections × many small requests keep every
/// executor busy with cohorts of varying size; every reply must equal
/// the local engine's, and the cohort counters must add up to exactly
/// the queries answered.
#[test]
fn every_executor_serves_bit_identical_answers() {
    let raws = dataset(96);
    let reference = Arc::new(build_engine(&raws, 1, TreeKind::Dbch));
    let server =
        Server::start(build_engine(&raws, 1, TreeKind::Dbch), "127.0.0.1:0", one_thread_per_call())
            .unwrap();
    let addr = server.addr();

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 40;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|ci| {
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut sent = 0;
                for round in 0..ROUNDS {
                    let k = 2 + (ci + round) % 3;
                    let queries: Vec<Vec<f64>> = (0..1 + (ci + round) % 2)
                        .map(|j| samples(200 + ci * 53 + round * 11 + j))
                        .collect();
                    let want = local_answers(&reference, &queries, k);
                    let got = client.knn(&queries, k).unwrap();
                    assert_matches_local(&got, &want, &format!("client {ci} round {round}"));
                    sent += queries.len();
                }
                sent
            })
        })
        .collect();
    let total_queries: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let executors = server_field(&stats, "executors");
    // CI greps this line: an unrestricted run on a multi-core runner
    // must not fall back to one executor.
    eprintln!("executors: {executors}");
    assert_eq!(executors, cores as u64, "threads = 1 ⇒ one executor per core: {stats}");
    let (batches, batched, largest) = (
        server_field(&stats, "batches"),
        server_field(&stats, "batched_queries"),
        server_field(&stats, "max_batch_queries"),
    );
    assert_eq!(batched, total_queries as u64, "Σ cohort queries = queries answered: {stats}");
    assert!(
        (1..=(CLIENTS * ROUNDS) as u64).contains(&batches),
        "a batch holds at least one request: {stats}"
    );
    assert!(
        largest * batches >= batched && largest <= batched,
        "the largest batch bounds the mean: {stats}"
    );
    if sapla_obs::enabled() {
        // The registry is process-wide (other tests add to it), so the
        // per-executor lanes can only be bounded from below.
        let snap = sapla_obs::Snapshot::capture();
        let lanes = snap.lanes.iter().find(|(n, _)| n == "serve.batch.queries.executor");
        let per_executor = &lanes.expect("per-executor cohort lanes are registered").1;
        assert!(per_executor.iter().sum::<u64>() >= batched, "{per_executor:?} vs {stats}");
        let executed: u64 =
            snap.windows.iter().filter(|w| w.name == "serve.stage.execute").map(|w| w.count).sum();
        assert!(executed >= (CLIENTS * ROUNDS) as u64, "every request has an execute stage");
    }
    server.stop();
}

/// A reload swapped in while the executors are mid-cohort: every reply
/// comes from one generation as a whole — the one its cohort started
/// on — and a connection that has seen the new generation never sees
/// the old one again. Both generations are loaded from the index file,
/// so each reads its raw series out of the file image it retains: the
/// old generation's image has to outlive the file being replaced and
/// the swap, until the last cohort holding that engine is done.
#[test]
fn a_reload_under_load_leaves_every_cohort_on_one_generation() {
    let raws = dataset(160);
    let old = &raws[..90];
    let snapshot = sapla_core::temp::TempPath::new("sapla-serve-midcohort", ".snap");
    let path = snapshot.path().to_path_buf();
    build_engine(old, 1, TreeKind::Dbch).write_snapshot_file(&path, None).unwrap();
    let first_generation = Engine::from_snapshot_file(&path).unwrap();
    build_engine(&raws, 1, TreeKind::Dbch).write_snapshot_file(&path, None).unwrap();
    let cfg = ServerConfig { index_file: Some(path), ..one_thread_per_call() };
    let server = Server::start(first_generation, "127.0.0.1:0", cfg).unwrap();
    let addr = server.addr();

    // Sixteen queries a request: long enough to be in flight when the
    // swap lands. The two memberships answer them differently.
    let queries: Vec<Vec<f64>> = (0..16).map(|j| samples(300 + j * 7)).collect();
    let want_old = local_answers(&build_engine(old, 1, TreeKind::Dbch), &queries, 4);
    let want_new = local_answers(&build_engine(&raws, 1, TreeKind::Dbch), &queries, 4);
    let as_served = |want: &[SearchStats]| -> Vec<sapla_serve::KnnResult> {
        want.iter()
            .map(|w| sapla_serve::KnnResult {
                hits: w.retrieved.iter().map(|&id| id as u64).zip(w.distances.clone()).collect(),
                measured: w.measured as u64,
            })
            .collect()
    };
    let (want_old, want_new) = (as_served(&want_old), as_served(&want_new));
    assert_ne!(want_old, want_new, "the generations must be distinguishable");

    let (first_reply_tx, first_reply_rx) = std::sync::mpsc::channel();
    let clients: Vec<_> = (0..2)
        .map(|ci| {
            let (queries, want_old, want_new) =
                (queries.clone(), want_old.clone(), want_new.clone());
            let first_reply = first_reply_tx.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Keep asking until the new generation answers, then a
                // few rounds more (it must not flip back).
                let mut rounds_on_new = 0;
                for round in 0..100_000 {
                    let got = client.knn(&queries, 4).unwrap().per_query;
                    if round == 0 {
                        first_reply.send(()).unwrap();
                    }
                    if got == want_new {
                        rounds_on_new += 1;
                        if rounds_on_new == 8 {
                            break;
                        }
                    } else {
                        assert_eq!(got, want_old, "client {ci} round {round}: a mixed reply");
                        assert_eq!(rounds_on_new, 0, "client {ci} round {round}: old generation");
                    }
                }
                rounds_on_new
            })
        })
        .collect();
    // Swap once both connections are in their request loops: from their
    // first replies on there is always a cohort queued or in flight.
    let mut control = Client::connect(addr).unwrap();
    first_reply_rx.recv().unwrap();
    first_reply_rx.recv().unwrap();
    assert_eq!(control.reload(&[]).unwrap(), raws.len() as u64);
    // Whatever was in flight, a request sent after the reload returned
    // is answered by the new generation.
    assert_eq!(control.knn(&queries, 4).unwrap().per_query, want_new);
    for c in clients {
        assert_eq!(c.join().unwrap(), 8, "both connections end on the new generation");
    }
    server.stop();
}

#[test]
fn range_queries_roundtrip() {
    let raws = dataset(35);
    let queries = query_samples(3);
    let reference = build_engine(&raws, 1, TreeKind::Dbch);
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for q in &queries {
        let raw = TimeSeries::new(q.clone()).unwrap();
        let prepared = reference.prepare(std::slice::from_ref(&raw), 1).unwrap();
        let want = reference.range(&prepared[0], 4.0).unwrap();
        let got = client.range(q, 4.0).unwrap();
        let want_hits: Vec<(u64, u64)> = want
            .retrieved
            .iter()
            .zip(&want.distances)
            .map(|(&id, &d)| (id as u64, d.to_bits()))
            .collect();
        let got_hits: Vec<(u64, u64)> = got.hits.iter().map(|&(id, d)| (id, d.to_bits())).collect();
        assert_eq!(got_hits, want_hits);
        assert!(!got.hits.is_empty(), "the query itself is within epsilon");
    }
    assert!(client.range(&queries[0], -1.0).is_err(), "negative epsilon is rejected");
    server.stop();
}

#[test]
fn snapshot_reload_cycle_preserves_answers_and_survives_garbage() {
    let raws = dataset(40);
    let queries = query_samples(5);
    let server = Server::start(
        build_engine(&raws, 2, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let before = client.knn(&queries, 4).unwrap();

    // The snapshot is the whole engine: loaded here, it answers as the
    // server does; sent back, it changes nothing.
    let image = client.snapshot().unwrap();
    let local = Engine::from_snapshot_image(&image).unwrap();
    assert_eq!((local.len(), local.shard_count()), (raws.len(), 2));
    assert_matches_local(&before, &local_answers(&local, &queries, 4), "snapshot, loaded locally");
    assert_eq!(client.reload(&image).unwrap(), raws.len() as u64);
    assert_eq!(client.knn(&queries, 4).unwrap().per_query, before.per_query);

    // An image is self-contained: one of another membership (and shard
    // count) is adopted as it is.
    let smaller = build_engine(&raws[..10], 1, TreeKind::Dbch);
    assert_eq!(client.reload(&smaller.snapshot_image(None).unwrap()).unwrap(), 10);
    let on_smaller = client.knn(&queries, 4).unwrap();
    assert_matches_local(&on_smaller, &local_answers(&smaller, &queries, 4), "smaller membership");

    // Everything else is refused with an error reply, and the server
    // keeps serving the generation it has.
    let mut flipped = image.clone();
    flipped[image.len() / 2] ^= 0x10;
    for (bad, what) in [
        (&b"not a snapshot"[..], "garbage"),
        (&image[..image.len() - 7], "a truncated image"),
        (&flipped[..], "a flipped bit"),
        (&[][..], "an empty blob without an index file"),
    ] {
        assert!(client.reload(bad).is_err(), "{what} must be refused");
        let still = client.knn(&queries, 4).unwrap();
        assert_eq!(still.per_query, on_smaller.per_query, "after {what}");
    }
    let stats = client.stats().unwrap();
    assert_eq!(server_field(&stats, "reloads"), 2, "two successful reloads: {stats}");
    assert_eq!(server_field(&stats, "generation"), 2, "generation tracks reloads: {stats}");
    server.stop();
}

/// A reply over `max_frame` — a snapshot is the one that grows with the
/// index — is an error reply naming both sizes, not a dropped
/// connection.
#[test]
fn oversize_replies_become_error_replies() {
    let raws = dataset(40);
    let queries = query_samples(2);
    let engine = build_engine(&raws, 1, TreeKind::Dbch);
    let image_len = engine.snapshot_image(None).unwrap().len();
    let cfg = ServerConfig { max_frame: 4096, ..ServerConfig::default() };
    assert!(image_len > cfg.max_frame);
    let server = Server::start(engine, "127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let want = client.knn(&queries, 3).unwrap();

    let refused = client.snapshot().unwrap_err().to_string();
    // status byte + length prefix + image
    assert!(refused.contains(&format!("{} bytes", image_len + 5)), "{refused}");
    assert!(refused.contains("4096-byte"), "{refused}");
    assert_eq!(client.knn(&queries, 3).unwrap().per_query, want.per_query);
    server.stop();
}

#[test]
fn empty_reload_rereads_the_configured_snapshot_file() {
    let raws = dataset(30);
    let queries = query_samples(4);
    let snapshot = sapla_core::temp::TempPath::new("sapla-serve-reload", ".snap");
    let path = snapshot.path().to_path_buf();
    let server = Server::start(
        build_engine(&raws[..10], 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig { index_file: Some(path.clone()), ..ServerConfig::default() },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Publish a *larger* index to the snapshot file, then reload with an
    // empty blob: the file is authoritative, so membership may change.
    build_engine(&raws, 2, TreeKind::Dbch).write_snapshot_file(&path, None).unwrap();
    assert_eq!(client.reload(&[]).unwrap(), raws.len() as u64);
    let got = client.knn(&queries, 3).unwrap();
    let want = local_answers(&build_engine(&raws, 2, TreeKind::Dbch), &queries, 3);
    assert_matches_local(&got, &want, "reload-from-file");

    // A non-empty blob is served in place of the file; the next empty
    // one goes back to the file.
    let ten = build_engine(&raws[..10], 1, TreeKind::Dbch).snapshot_image(None).unwrap();
    assert_eq!(client.reload(&ten).unwrap(), 10);
    assert_eq!(client.reload(&[]).unwrap(), raws.len() as u64);
    assert_eq!(client.knn(&queries, 3).unwrap().per_query, got.per_query);

    // A vanished file is an error response, not a crash, and the server
    // keeps answering on the generation it already has.
    std::fs::remove_file(&path).unwrap();
    assert!(client.reload(&[]).is_err(), "missing index file is a clean error");
    let still = client.knn(&queries, 3).unwrap();
    assert_eq!(still.per_query, got.per_query);
    server.stop();
}

/// The index file is replaced over and over while a client keeps asking
/// the daemon to re-read it: a snapshot write is a rename of a complete
/// sibling file, so every reload finds a whole file — never a torn one
/// that fails its checksum — and every answer stays bit-identical.
#[test]
fn reloads_racing_index_file_rewrites_never_read_a_torn_file() {
    let raws = dataset(400);
    let queries = query_samples(4);
    let engine = build_engine(&raws, 2, TreeKind::Dbch);
    let want = local_answers(&engine, &queries, 3);
    let dir = sapla_core::temp::TempPath::new("sapla-serve-rewrite", "");
    std::fs::create_dir(&dir).unwrap();
    let path = dir.path().join("index.snap");
    engine.write_snapshot_file(&path, None).unwrap();
    let cfg = ServerConfig { index_file: Some(path.clone()), ..ServerConfig::default() };
    let loaded = Engine::from_snapshot_file(&path).unwrap();
    let server = Server::start(loaded, "127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let (rewritten_tx, rewritten_rx) = std::sync::mpsc::channel();
    let rewrites = std::thread::scope(|scope| {
        // Rewrites until nobody listens any more — which is also what a
        // failed assertion below leaves behind, so it cannot hang here.
        let writer = scope.spawn(|| {
            let mut rewrites = 0u32;
            loop {
                engine.write_snapshot_file(&path, None).unwrap();
                rewrites += 1;
                if rewritten_tx.send(()).is_err() {
                    return rewrites;
                }
            }
        });
        let rewritten = rewritten_rx;
        // Every reload starts with a rewrite behind it and the next one
        // already under way.
        for round in 0..40 {
            rewritten.recv().unwrap();
            let records = client.reload(&[]).unwrap_or_else(|e| panic!("reload {round}: {e}"));
            assert_eq!(records, raws.len() as u64, "reload {round}");
            let got = client.knn(&queries, 3).unwrap();
            assert_matches_local(&got, &want, &format!("after reload {round}"));
        }
        drop(rewritten);
        writer.join().unwrap()
    });
    assert!(rewrites >= 40, "the file was rewritten beside every reload: {rewrites}");
    let left: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
    assert_eq!(left, ["index.snap"], "no temporary file is left behind");
    server.stop();
}

#[test]
fn rtree_backed_server_answers_batches() {
    let raws = dataset(40);
    let queries = query_samples(6);
    let reference = build_engine(&raws, 1, TreeKind::Rtree);
    let want = local_answers(&reference, &queries, 3);
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Rtree),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let got = client.knn(&queries, 3).unwrap();
    assert_matches_local(&got, &want, "rtree");
    server.stop();
}

#[test]
fn malformed_requests_get_error_responses_not_disconnects() {
    let raws = dataset(20);
    let queries = query_samples(2);
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    assert!(client.knn(&queries, 0).is_err(), "k = 0");
    assert!(client.knn(&[], 3).is_err(), "no queries");
    let bad = vec![vec![f64::NAN; LEN]];
    assert!(client.knn(&bad, 3).is_err(), "non-finite samples");
    let empty = vec![Vec::new()];
    assert!(client.knn(&empty, 3).is_err(), "empty series");

    // The same connection still works after every rejected request.
    let ok = client.knn(&queries, 3).unwrap();
    assert_eq!(ok.per_query.len(), 2);
    server.stop();
}

#[test]
fn wire_shutdown_drains_and_stops_the_server() {
    let raws = dataset(20);
    let queries = query_samples(2);
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    client.knn(&queries, 2).unwrap();
    client.shutdown().unwrap();
    // join() returns only once the accept loop, connection threads, and
    // executors have all wound down.
    server.join();
    assert!(
        Client::connect(addr).is_err() || {
            // The OS may hand the port to a fresh connect() briefly; a
            // request on it must fail either way.
            let mut c = Client::connect(addr).unwrap();
            c.knn(&queries, 1).is_err()
        }
    );
}

fn assert_balanced(json: &str, context: &str) {
    let opens = json.matches(['{', '[']).count();
    let closes = json.matches(['}', ']']).count();
    assert_eq!(opens, closes, "{context}: unbalanced JSON:\n{json}");
}

#[test]
fn metrics_exposition_parses_in_both_formats() {
    let raws = dataset(30);
    let queries = query_samples(4);
    let server = Server::start(
        build_engine(&raws, 2, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.knn(&queries, 3).unwrap();

    let json = client.metrics(MetricsFormat::Json).unwrap();
    assert_balanced(&json, "metrics json");
    for key in ["\"server\"", "\"obs\"", "\"latency\"", "\"trace\"", "\"armed\"", "\"recent\""] {
        assert!(json.contains(key), "metrics JSON missing {key}:\n{json}");
    }

    let text = client.metrics(MetricsFormat::Text).unwrap();
    assert!(text.contains("# TYPE sapla_server counter"), "text exposition header:\n{text}");
    assert!(
        text.lines().any(|l| l.starts_with("sapla_server{name=\"requests\"} ")),
        "server counters as samples:\n{text}"
    );
    assert!(text.contains("sapla_slow_log_size 0"), "slow log off => empty:\n{text}");
    // `threads = 0` ⇒ one executor, in both formats.
    assert!(json.contains("\"executors\": 1"), "executor count in the server section:\n{json}");
    assert!(text.contains("sapla_server{name=\"executors\"} 1"), "and as a sample:\n{text}");

    if sapla_obs::enabled() {
        // Stage rows surface over the wire (pre-registered, and the kNN
        // above exercised them), with self-describing buckets.
        for name in ["serve.stage.queue", "serve.stage.execute", "serve.request"] {
            assert!(json.contains(name), "metrics JSON missing stage row {name}:\n{json}");
            assert!(text.contains(name), "metrics text missing stage row {name}:\n{text}");
        }
        assert!(
            text.lines().any(|l| l.starts_with("sapla_hist_bucket{name=\"serve.request.ns\"")),
            "histogram buckets carry bounds:\n{text}"
        );
        // In-process view of the same registry: every percentile row the
        // exposition reports must be monotone and clamped to its max.
        let snap = sapla_obs::Snapshot::capture();
        assert!(!snap.windows.is_empty());
        for w in &snap.windows {
            assert!(
                w.p50 <= w.p95 && w.p95 <= w.p99 && w.p99 <= w.max,
                "percentiles must be monotone: {w:?}"
            );
        }
    }
    server.stop();
}

#[test]
fn metrics_surface_preregistered_stage_rows_before_traffic() {
    let raws = dataset(12);
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // No kNN traffic on this server: idle stages must still be listed
    // (zeros rather than omissions), per the pre-registration pattern.
    let json = client.metrics(MetricsFormat::Json).unwrap();
    assert_balanced(&json, "idle metrics json");
    if sapla_obs::enabled() {
        for stage in ["decode", "prepare", "queue", "batch", "execute", "merge", "reply"] {
            let name = format!("serve.stage.{stage}");
            assert!(json.contains(&name), "idle metrics must name {name}:\n{json}");
        }
        for name in [
            "serve.request.ns",
            "serve.batch.jobs",
            "serve.batch.queries.executor",
            "engine.shard.knn.ns",
        ] {
            assert!(json.contains(name), "idle metrics must name {name}:\n{json}");
        }
    }
    server.stop();
}

#[test]
fn slow_query_log_captures_over_threshold_requests() {
    let raws = dataset(30);
    let queries = query_samples(2);
    // Threshold 0 ms: every completed request is deliberately "slow",
    // which keeps the test deterministic without real delays.
    let cfg = ServerConfig { slow_ms: Some(0), ..ServerConfig::default() };
    let server = Server::start(build_engine(&raws, 1, TreeKind::Dbch), "127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.knn(&queries, 5).unwrap();

    let json = client.metrics(MetricsFormat::Json).unwrap();
    assert_balanced(&json, "slow-log metrics json");
    assert!(json.contains("\"slow_threshold_ns\": 0"), "threshold surfaces:\n{json}");
    let text = client.metrics(MetricsFormat::Text).unwrap();
    assert!(text.contains("sapla_slow_threshold_ns 0"), "threshold in text:\n{text}");
    if sapla_obs::enabled() {
        let slow = json.split("\"slow\": ").nth(1).unwrap_or("");
        assert!(
            slow.contains("\"stages\""),
            "the slow log must carry complete stage traces:\n{json}"
        );
        assert!(
            !text.contains("sapla_slow_log_size 0"),
            "at least one request overran the 0ms threshold:\n{text}"
        );
    } else {
        assert!(json.contains("\"slow\": []"), "recorder off => empty slow log:\n{json}");
    }
    server.stop();
}

/// Hand-rolled frames (the wire module is private): malformed
/// `OP_METRICS` bodies must produce error *responses*, never a panic or
/// a dropped connection.
#[test]
fn malformed_metrics_frames_get_error_responses() {
    use std::io::{Read, Write};

    fn roundtrip_raw(stream: &mut std::net::TcpStream, payload: &[u8]) -> Vec<u8> {
        let len = u32::try_from(payload.len()).unwrap();
        stream.write_all(&len.to_le_bytes()).unwrap();
        stream.write_all(payload).unwrap();
        stream.flush().unwrap();
        let mut len4 = [0u8; 4];
        stream.read_exact(&mut len4).unwrap();
        let mut response = vec![0u8; u32::from_le_bytes(len4) as usize];
        stream.read_exact(&mut response).unwrap();
        response
    }

    let raws = dataset(12);
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();

    // Truncated (no format byte), unknown format, trailing garbage.
    for bad in [&[0x07u8][..], &[0x07, 0x09], &[0x07, 0x00, 0x00]] {
        let response = roundtrip_raw(&mut stream, bad);
        assert_eq!(response.first(), Some(&1u8), "status ERR for {bad:?}: {response:?}");
    }
    // The connection survives and a well-formed request still answers.
    let response = roundtrip_raw(&mut stream, &[0x07, 0x00]);
    assert_eq!(response.first(), Some(&0u8), "valid OP_METRICS after errors");
    server.stop();
}

/// Regression: `Server::stop` must terminate even when shutdown races
/// an executor's check-then-wait entry. The pre-fix `initiate_shutdown`
/// stored the shutdown flag *outside* the queue lock, so its notify
/// could land between an executor's flag check and its wait — nobody
/// was waiting yet, the wakeup was lost, and `stop()` hung joining it.
/// The admission-queue model in `crates/audit/tests/model_serve.rs`
/// reproduces that lost wakeup deterministically; this test guards the
/// wiring under real threads, on every executor the host gives: half
/// the iterations stop at once (close to the executors' wait entry),
/// the other half stop with three connections in their request loops,
/// so jobs are queued and in flight on more than one executor when the
/// flag goes up. `stop()` joins the connection threads, and a connection thread
/// returns only once its accepted job was answered — so `stop()`
/// returning is every accepted job answered. A reply that does arrive
/// must be the right one.
#[test]
fn stop_terminates_promptly_even_when_racing_the_executors() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let raws = dataset(48);
        let queries: Vec<Vec<f64>> = (0..4).map(|j| samples(400 + j)).collect();
        let want = local_answers(&build_engine(&raws, 1, TreeKind::Dbch), &queries, 3);
        let mut answered = 0usize;
        for i in 0..50 {
            let server = Server::start(
                build_engine(&raws, 1, TreeKind::Dbch),
                "127.0.0.1:0",
                one_thread_per_call(),
            )
            .unwrap();
            let addr = server.addr();
            // Odd iterations: three connections, each past its first
            // reply and asking again, when the flag goes up.
            let (first_reply_tx, first_reply_rx) = std::sync::mpsc::channel();
            let clients: Vec<_> = (0..if i % 2 == 0 { 0 } else { 3 })
                .map(|_| {
                    let (queries, want) = (queries.clone(), want.clone());
                    let first_reply = first_reply_tx.clone();
                    std::thread::spawn(move || {
                        let mut client = Client::connect(addr).unwrap();
                        let mut answered = 0;
                        // Until the server refuses or the socket drops.
                        while let Ok(got) = client.knn(&queries, 3) {
                            assert_matches_local(&got, &want, "reply racing shutdown");
                            if answered == 0 {
                                first_reply.send(()).unwrap();
                            }
                            answered += 1;
                        }
                        answered
                    })
                })
                .collect();
            for _ in &clients {
                first_reply_rx.recv().unwrap();
            }
            server.stop();
            answered += clients.into_iter().map(|c| c.join().unwrap()).sum::<usize>();
        }
        let _ = done_tx.send(answered);
    });
    let answered = done_rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("Server::stop hung: a shutdown wakeup was lost or a job was stranded");
    assert!(answered >= 25 * 3, "every connection was answered before its shutdown");
}
