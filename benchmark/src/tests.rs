//! Whole-harness tests: the declarations agree with `BENCHMARK.json`,
//! and a tiny workload runs the whole lifecycle, untraced and traced.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use sapla_baselines::SaplaReducer;
use sapla_index::{Engine, EngineConfig};
use sapla_serve::{Server, ServerConfig};

use crate::json::{self, Value};
use crate::loadgen::reload_loop;
use crate::metrics::{Report, END_TO_END, PER_LAYER};
use crate::run::{run, Options, Outcome};
use crate::tally::Tally;
use crate::trace::Tracer;
use crate::workload::tests::TINY;
use crate::workload::{generate_data, is_name, M, WORKLOADS};
use crate::{rundir, DEFAULT_SECONDS};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or_else(|| panic!("{key} is not a string in {v:?}"))
}

#[test]
fn benchmark_json_declares_what_run_prints() {
    let doc = benchmark_json();
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    assert_eq!(doc.get("run_seconds").unwrap().as_f64(), Some(DEFAULT_SECONDS));
    let paths: Vec<&str> =
        doc.get("paths").unwrap().as_arr().unwrap().iter().map(|p| p.as_str().unwrap()).collect();
    assert_eq!(paths, ["benchmark"]);

    // `run` prints a metric table in declaration order and refuses to
    // print anything else (`Report::in_order`), so equal declarations
    // mean equal printed names.
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let declared = doc.get(key).unwrap().as_arr().unwrap();
        assert_eq!(declared.len(), table.len(), "{key}");
        for (json, decl) in declared.iter().zip(table) {
            assert!(is_name(decl.name));
            assert_eq!(str_of(json, "name"), decl.name);
            assert_eq!(str_of(json, "unit"), decl.unit, "{}", decl.name);
            assert_eq!(str_of(json, "better"), decl.better.name(), "{}", decl.name);
            assert_eq!(json.get("bound").and_then(Value::as_f64), decl.bound, "{}", decl.name);
        }
    }
    let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (json, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(str_of(json, "name"), w.name);
        assert_eq!(str_of(json, "why"), w.why);
    }
}

fn tiny(seed: u64, trace: bool) -> Outcome {
    let opts = Options {
        workload: &TINY,
        seed,
        seconds: 2.0,
        trace,
        tmp_base: rundir::default_base().unwrap(),
    };
    run(&opts).unwrap()
}

fn exact_counts(report: &Report) -> Vec<u64> {
    ["recall_at_k", "range_recall", "reduce_max_dev", "snapshot_bytes_per_series"]
        .iter()
        .map(|name| report.get(name).unwrap().value.to_bits())
        .collect()
}

#[test]
fn untraced_run_measures_every_end_to_end_metric() {
    let a = tiny(3, false);
    let values = a.report.in_order(END_TO_END).unwrap();
    let printed: BTreeSet<&str> = values.iter().map(|(d, _)| d.name).collect();
    let declared: BTreeSet<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(printed, declared);
    assert!(values.iter().all(|(_, m)| m.value > 0.0 && m.samples > 0));
    assert_eq!(a.tally.wrong, 0, "{:?}", a.tally.notes());
    // Every first-pass answer and every open-loop request is one operation.
    assert!(a.tally.attempted > 2000);
    assert!(a.tracer.spans().is_empty());
    for name in ["knn_p50_us", "serve_p50_ms"] {
        assert!(a.report.get(name).unwrap().samples >= 1000, "{name}");
    }
    let recall = a.report.get("recall_at_k").unwrap().value;
    assert!(recall > 0.3 && recall <= 1.0, "{recall}");

    // Counts made by the program repeat exactly for one seed and move
    // with another.
    let again = tiny(3, false);
    let other = tiny(4, false);
    assert_eq!(exact_counts(&a.report), exact_counts(&again.report));
    assert_ne!(exact_counts(&a.report), exact_counts(&other.report));
}

#[test]
fn traced_run_measures_every_per_layer_metric() {
    let a = tiny(3, true);
    let values = a.report.in_order(PER_LAYER).unwrap();
    assert_eq!(values.len(), PER_LAYER.len());
    assert_eq!(a.tally.wrong, 0, "{:?}", a.tally.notes());
    let refined = a.report.get("index.refined_per_query").unwrap().value;
    assert_eq!(
        refined.to_bits(),
        tiny(3, true).report.get("index.refined_per_query").unwrap().value.to_bits()
    );
    assert!(a.report.get("serve.reloads_done").unwrap().value >= 3.0);

    // Spans nest: a child lies inside its parent, and the children of
    // one parent never add up to more than it.
    let spans = a.tracer.spans();
    assert!(spans.len() > 1000);
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        assert!(s.start_ns <= s.end_ns);
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            assert!(
                parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns,
                "{} in {}",
                s.name,
                parent.name
            );
            children[p as usize] += s.dur_ns();
        }
    }
    for (s, c) in spans.iter().zip(children) {
        assert!(c <= s.dur_ns(), "children of {} exceed it", s.name);
    }
    let names: BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
    for layer in ["core.", "distance.", "index.", "store.", "serve."] {
        assert!(names.iter().any(|n| n.starts_with(layer)), "no span of layer {layer}");
    }
}

/// A reload that takes longer than the interval between reloads leaves
/// the loop with a reload always due. It must still see `stop`: the
/// serve phase joins this thread.
#[test]
fn reload_loop_stops_when_every_reload_is_overdue() {
    let dir = rundir::RunDir::create(&rundir::default_base().unwrap()).unwrap();
    let path = dir.file("index.snap");
    let cfg = EngineConfig { m: M, ..EngineConfig::default() };
    let db = generate_data(&TINY, 1).db;
    let engine = Engine::build(cfg, Box::new(SaplaReducer::new()), db, 1).unwrap();
    engine.write_snapshot_file(&path, None).unwrap();
    let serving = ServerConfig { index_file: Some(path), ..ServerConfig::default() };
    let server = Server::start(engine, "127.0.0.1:0", serving).unwrap();
    let addr = server.addr();

    let stop = Arc::new(AtomicBool::new(false));
    let (done, finished) = mpsc::channel();
    let raised = Arc::clone(&stop);
    std::thread::spawn(move || {
        let (mut tally, mut tracer) = (Tally::default(), Tracer::new(true, Instant::now()));
        let every = Duration::from_nanos(1);
        let outcome =
            reload_loop(addr, every, TINY.series as u64, &raised, &mut tally, &mut tracer);
        let _ = done.send((outcome, tally, tracer));
    });
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Ordering::Release);
    let (outcome, tally, tracer) = finished
        .recv_timeout(Duration::from_secs(20))
        .expect("the reload loop did not stop after `stop` was raised");
    server.stop();
    outcome.unwrap();
    assert!(tally.attempted >= 2, "{} reloads", tally.attempted);
    assert_eq!(tally.failed, 0, "{:?}", tally.notes());
    assert_eq!(tracer.durations("serve.reload").len() as u64, tally.attempted);
}
