//! End-to-end tests of the `sapla` binary (spawned as a subprocess).

use std::io::{BufRead as _, BufReader, Write as _};
use std::process::{Command, Stdio};

fn sapla() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sapla"))
}

fn run(args: &[&str]) -> (bool, String, String) {
    let out = sapla().args(args).output().expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
    )
}

#[test]
fn no_args_prints_usage_and_fails() {
    let (ok, _, err) = run(&[]);
    assert!(!ok);
    assert!(err.contains("usage"));
}

#[test]
fn demo_prints_all_methods() {
    let (ok, out, _) = run(&["demo"]);
    assert!(ok);
    for m in ["SAPLA", "APLA", "APCA", "PLA", "PAA", "PAALM", "CHEBY"] {
        assert!(out.contains(m), "missing {m} in demo output");
    }
}

#[test]
fn catalogue_lists_117_datasets() {
    let (ok, out, _) = run(&["catalogue"]);
    assert!(ok);
    assert_eq!(out.lines().count(), 117);
    assert!(out.contains("Burst_00"));
}

#[test]
fn reduce_from_stdin() {
    let mut child = sapla()
        .args(["reduce", "-", "--coeffs", "3"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn");
    child.stdin.as_mut().unwrap().write_all(b"1\n2\n3\n4\n5\n6\n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("segments: 1"));
    assert!(text.contains("max deviation: 0.000000"), "line fits exactly:\n{text}");
}

#[test]
fn reduce_rejects_garbage_input() {
    let mut child = sapla()
        .args(["reduce", "-"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    child.stdin.as_mut().unwrap().write_all(b"not a number\n").unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn knn_reports_metrics() {
    let (ok, out, err) = run(&["knn", "Burst_00", "--k", "3"]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("pruning power"));
    assert!(out.contains("accuracy"));
}

#[test]
fn knn_unknown_dataset_fails_cleanly() {
    let (ok, _, err) = run(&["knn", "NoSuchDataset"]);
    assert!(!ok);
    assert!(err.contains("unknown dataset"));
}

#[test]
fn mine_subcommands_run() {
    for task in ["discord", "motif", "segment", "cluster"] {
        let (ok, out, err) = run(&["mine", task, "SmoothPeriodic_00", "--k", "2"]);
        assert!(ok, "mine {task} failed: {err}");
        assert!(!out.is_empty());
    }
}

#[test]
fn mine_unknown_task_fails() {
    let (ok, _, err) = run(&["mine", "teleport", "Burst_00"]);
    assert!(!ok);
    assert!(err.contains("unknown mine task") || err.contains("unknown dataset"));
}

#[test]
fn sapla_threads_zero_means_all_hardware_threads() {
    let out = sapla()
        .args(["knn", "Burst_00", "--k", "2"])
        .env("SAPLA_THREADS", "0")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn sapla_threads_garbage_is_an_error_not_a_silent_fallback() {
    for garbage in ["lots", "-1", "2.5", ""] {
        let out = sapla()
            .args(["knn", "Burst_00", "--k", "2"])
            .env("SAPLA_THREADS", garbage)
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "SAPLA_THREADS={garbage:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("SAPLA_THREADS"), "SAPLA_THREADS={garbage:?}: stderr: {err}");
        assert!(err.contains("invalid thread count"), "SAPLA_THREADS={garbage:?}: stderr: {err}");
    }
}

#[test]
fn explicit_threads_flag_beats_garbage_env() {
    let out = sapla()
        .args(["knn", "Burst_00", "--k", "2", "--threads", "2"])
        .env("SAPLA_THREADS", "garbage")
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn profile_prints_pipeline_counters() {
    let (ok, out, err) = run(&["knn", "Burst_00", "--k", "3", "--profile"]);
    assert!(ok, "stderr: {err}");
    // The normal report must survive the extra flag.
    assert!(out.contains("pruning power"), "missing report:\n{out}");
    if !cfg!(feature = "obs") {
        assert!(out.contains("observability disabled"), "missing hint:\n{out}");
        return;
    }
    for key in [
        "sapla.refine",
        "sapla.reduce.calls",
        "dist.par.evals",
        "index.knn.nodes_visited",
        "index.knn.entries_pruned",
        "parallel.tasks",
    ] {
        assert!(out.contains(key), "missing {key} in profile:\n{out}");
    }
}

/// Minimal JSON sanity checker (the CI `obs` job runs it on `sapla profile`):
/// balanced braces/brackets outside strings and no trailing garbage.
/// Not a full parser — just enough to catch broken hand-rolled output.
fn assert_balanced_json(text: &str) {
    let mut depth = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in text.chars() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
        } else {
            match c {
                '"' => in_string = true,
                '{' | '[' => depth += 1,
                '}' | ']' => {
                    depth -= 1;
                    assert!(depth >= 0, "unbalanced close in:\n{text}");
                }
                _ => {}
            }
        }
    }
    assert!(!in_string, "unterminated string in:\n{text}");
    assert_eq!(depth, 0, "unbalanced JSON:\n{text}");
}

#[test]
fn profile_json_writes_a_valid_snapshot() {
    let dir = sapla_core::temp::TempPath::new("sapla-profile", "");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.path().join("profile.json");
    let out = sapla()
        .args(["knn", "Burst_00", "--k", "3", "--profile-json"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&path).expect("profile written");
    assert_balanced_json(&text);
    for section in ["\"enabled\"", "\"counters\"", "\"gauges\"", "\"lanes\"", "\"histograms\""] {
        assert!(text.contains(section), "missing {section} in:\n{text}");
    }
    if cfg!(feature = "obs") {
        assert!(text.contains("\"enabled\": true"), "wrong enabled flag:\n{text}");
        for key in ["sapla.reduce.calls", "dist.par.evals", "index.knn.queries", "parallel.tasks"] {
            assert!(text.contains(&format!("\"{key}\"")), "missing {key} in:\n{text}");
        }
    } else {
        assert!(text.contains("\"enabled\": false"), "wrong enabled flag:\n{text}");
    }
}

#[test]
fn profile_json_without_path_fails_with_usage_error() {
    let (ok, _, err) = run(&["knn", "Burst_00", "--profile-json"]);
    assert!(!ok);
    assert!(err.contains("--profile-json"), "stderr: {err}");
}

#[test]
fn knn_rtree_answers_the_whole_query_set_with_threads() {
    // The R-tree path goes through the same Engine as the DBCH path
    // now: it must honour --threads and report batch statistics for
    // the full query set (Protocol::quick() ships 3 queries).
    let (ok, out, err) = run(&["knn", "Burst_00", "--k", "3", "--tree", "rtree", "--threads", "2"]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("SAPLA / rtree"), "tree name in report:\n{out}");
    assert!(out.contains("batch: 3 queries answered"), "whole query set:\n{out}");
    assert!(out.contains("pruning power"));
}

#[test]
fn knn_rejects_unknown_tree_kind() {
    let (ok, _, err) = run(&["knn", "Burst_00", "--tree", "btree"]);
    assert!(!ok);
    assert!(err.contains("--tree"), "stderr: {err}");
}

#[test]
fn knn_sharded_engine_runs() {
    let (ok, out, err) = run(&["knn", "Burst_00", "--k", "3", "--shards", "3"]);
    assert!(ok, "stderr: {err}");
    assert!(out.contains("shards: 3"), "shard count in report:\n{out}");
    assert!(out.contains("accuracy"));
}

/// End-to-end daemon test: spawn `sapla serve` on an ephemeral port,
/// talk to it over the wire, and check its answers against `sapla knn`
/// ground truth semantics (hits sorted by distance, self-match first).
#[test]
fn serve_answers_wire_queries_and_shuts_down() {
    let mut child = sapla()
        .args(["serve", "Burst_00", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines.next().expect("banner line").expect("utf8");
    assert!(banner.contains("serving Burst_00"), "banner: {banner}");
    assert!(banner.contains("length 256"), "banner: {banner}");
    let listen = lines.next().expect("listen line").expect("utf8");
    let addr = listen.strip_prefix("listening on ").unwrap_or_default().to_string();
    assert!(!addr.is_empty(), "listen line: {listen}");

    let mut client = sapla_serve::Client::connect(&addr).expect("connect");
    // Two easy queries of the advertised length; hits must come back
    // sorted by distance with k entries each.
    let queries: Vec<Vec<f64>> =
        (0..2).map(|q| (0..256).map(|t| ((t + q * 31) as f64 * 0.1).sin()).collect()).collect();
    let got = client.knn(&queries, 3).expect("knn over the wire");
    assert_eq!(got.per_query.len(), 2);
    for r in &got.per_query {
        assert_eq!(r.hits.len(), 3);
        assert!(r.hits.windows(2).all(|w| w[0].1 <= w[1].1), "sorted by distance");
        assert!(r.measured >= 3, "at least k exact refinements");
    }
    // A wrong-length query is an error response, not a hang or a crash.
    assert!(client.knn(&[vec![1.0, 2.0, 3.0]], 2).is_err());

    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"tree\": \"dbch\""), "stats: {stats}");
    assert!(stats.contains("\"indexed\": 24"), "stats: {stats}");

    client.shutdown().expect("shutdown");
    // The banner reader still owns stdout; drain it for the farewell
    // line, then reap the process.
    let tail: Vec<String> = lines.map_while(Result::ok).collect();
    let status = child.wait().expect("exit");
    assert!(status.success(), "serve exited with {status}");
    assert!(tail.iter().any(|l| l.contains("shut down")), "tail: {tail:?}");
}

#[test]
fn stats_subcommand_fetches_metrics_from_a_running_server() {
    let mut child = sapla()
        .args(["serve", "Burst_00", "--addr", "127.0.0.1:0", "--threads", "2", "--slow-ms", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let _banner = lines.next().expect("banner line").expect("utf8");
    let listen = lines.next().expect("listen line").expect("utf8");
    let addr = listen.strip_prefix("listening on ").unwrap_or_default().to_string();
    assert!(!addr.is_empty(), "listen line: {listen}");

    // Give the metrics something to report.
    let mut client = sapla_serve::Client::connect(&addr).expect("connect");
    let queries: Vec<Vec<f64>> =
        (0..2).map(|q| (0..256).map(|t| ((t + q * 17) as f64 * 0.1).cos()).collect()).collect();
    client.knn(&queries, 3).expect("knn over the wire");

    // Plain stats document.
    let (ok, out, err) = run(&["stats", "--addr", &addr]);
    assert!(ok, "stats failed: {err}");
    assert!(out.contains("\"server\""), "stats: {out}");

    // Prometheus-style text exposition.
    let (ok, out, err) = run(&["stats", "--addr", &addr, "--metrics"]);
    assert!(ok, "stats --metrics failed: {err}");
    assert!(out.contains("# TYPE sapla_server counter"), "text exposition: {out}");
    assert!(out.contains("sapla_server{name=\"requests\"}"), "text exposition: {out}");
    assert!(out.contains("sapla_slow_threshold_ns 0"), "slow threshold: {out}");

    // Extended JSON with latency and trace sections.
    let (ok, out, err) = run(&["stats", "--addr", &addr, "--metrics-json"]);
    assert!(ok, "stats --metrics-json failed: {err}");
    for key in ["\"latency\"", "\"trace\"", "\"slow_threshold_ns\": 0"] {
        assert!(out.contains(key), "metrics json missing {key}: {out}");
    }

    // Asking for both formats at once is rejected client-side.
    let (ok, _, err) = run(&["stats", "--addr", &addr, "--metrics", "--metrics-json"]);
    assert!(!ok);
    assert!(err.contains("at most one"), "stderr: {err}");

    client.shutdown().expect("shutdown");
    let _ = lines.map_while(Result::ok).count();
    assert!(child.wait().expect("exit").success());
}

#[test]
fn reduce_with_unknown_method_fails() {
    let mut child = sapla()
        .args(["reduce", "-", "--method", "FFT"])
        .stdin(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn");
    // The child rejects the method before reading stdin, so it may
    // already have exited and closed the pipe — a BrokenPipe here is
    // expected, not a failure.
    let _ = child.stdin.as_mut().unwrap().write_all(b"1\n2\n");
    let out = child.wait_with_output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown method"));
}
