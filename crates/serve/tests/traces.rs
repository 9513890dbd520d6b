//! The flight-recorder test, in a test binary (so a process, so a
//! recorder ring) of its own: the ring is process-wide and 128 slots
//! deep, and the loopback suite's concurrent load wraps it faster than
//! a test can read its own trace back.

mod common;

use common::{build_engine, dataset, query_samples};
use sapla_index::TreeKind;
use sapla_serve::{Client, MetricsFormat, Server, ServerConfig};

#[test]
fn traces_decompose_end_to_end_latency_into_stages() {
    if !sapla_obs::enabled() {
        return; // the recorder compiles away without obs
    }
    let raws = dataset(40);
    let queries = query_samples(3);
    let server = Server::start(
        build_engine(&raws, 2, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.knn(&queries, 6).unwrap();

    let k_idx = sapla_obs::recorder::Meta::K as usize;
    let traces: Vec<_> = sapla_obs::recorder::recent(sapla_obs::recorder::TRACE_CAPACITY)
        .into_iter()
        .filter(|d| d.meta[k_idx] == 6)
        .collect();
    assert!(!traces.is_empty(), "the k=6 request must have left a trace");
    for d in &traces {
        let names: Vec<&str> = d.stages.iter().map(|&(n, _, _)| n).collect();
        for stage in ["decode", "prepare", "queue", "batch", "execute", "merge", "reply"] {
            assert!(names.contains(&stage), "trace {d:?} is missing stage {stage}");
        }
        assert!(d.total_ns > 0, "completed trace has an end stamp: {d:?}");
        assert!(
            d.stage_sum_ns() <= d.total_ns,
            "stages are disjoint sub-intervals, so their sum is bounded by \
             the end-to-end latency: {d:?}"
        );
        let nq = d.meta[sapla_obs::recorder::Meta::BatchQueries as usize];
        assert!(nq >= queries.len() as u64, "the batch carried at least our queries: {d:?}");
    }

    // The same decomposition is retrievable over the wire.
    let json = client.metrics(MetricsFormat::Json).unwrap();
    for stage in ["\"decode\"", "\"queue\"", "\"execute\"", "\"reply\""] {
        assert!(json.contains(stage), "wire metrics must carry stage names:\n{json}");
    }
    server.stop();
}
