# Local CI entry points. `just ci` is the gate a PR must pass.

# Tier-1: the seed suite must build in release and every test must pass.
tier1:
    cargo build --release
    cargo test -q

# Lints: warnings are errors, formatting is canonical.
lint:
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --all --check

# Static analysis + model checking: the custom lint pass over every
# crate (all seven lints workspace-blocking), the audit crate's own
# fixture/explorer tests, and the strict-invariants runtime layer.
audit:
    cargo run -q -p sapla-audit
    cargo test -q -p sapla-audit
    cargo test -q -p sapla-core --features strict-invariants
    cargo test -q -p sapla-distance --features strict-invariants
    cargo test -q -p sapla-index --features strict-invariants

# Condvar-aware model check of the sapla-serve admission queue at one
# and two executors: exhaustive enumeration with pinned schedule counts,
# the lost-wakeup, wake-one-shutdown, no-baton and if-wait canaries, and
# the seeded randomized long-run (tune with SAPLA_AUDIT_RANDOM_RUNS /
# SAPLA_AUDIT_SEED without recompiling).
audit-model-serve:
    cargo test -q -p sapla-audit --test model_serve

# Observability: the instrumented feature matrix must stay green, the
# uninstrumented state must too (the CLI is excluded from the second run:
# its default build turns `obs` on for the whole graph), and the CLI
# profile surface must emit valid JSON (checked by a Rust test, no jq).
# The parallel engine's suite also runs pinned to one CPU: its watchdog
# tests must make progress when every worker shares one core.
obs:
    cargo test -q -p sapla-obs --features obs
    cargo test -q -p sapla-core --features obs
    cargo test -q -p sapla-distance --features obs
    cargo test -q -p sapla-parallel --features obs
    cargo test -q -p sapla-parallel --no-run
    taskset -c 0 cargo test -q -p sapla-parallel
    cargo test -q -p sapla-baselines --features obs
    cargo test -q -p sapla-index --features obs
    cargo test -q -p sapla-obs -p sapla-core -p sapla-distance -p sapla-parallel -p sapla-baselines -p sapla-index -p sapla-integration
    cargo test -q -p sapla-cli --test cli profile_json

# Daemon smoke: the wire/loopback suite of sapla-serve in every feature
# state (stock, instrumented, strict), plus the end-to-end `sapla serve`
# subprocess test. The obs run is what checks the `stats` wire command
# reports non-zero batching and pruning counters. The stock suite runs
# twice: pinned to one CPU (one executor — the path every 1-CPU host
# takes) and unrestricted, where a host with two or more cores must
# report two or more executors.
serve-smoke:
    cargo test -q -p sapla-serve --no-run
    taskset -c 0 cargo test -q -p sapla-serve
    cargo test -q -p sapla-serve
    test "$(nproc)" -lt 2 || cargo test -q -p sapla-serve --test loopback every_executor -- --nocapture 2>&1 | grep -Eq '^executors: ([2-9]|[1-9][0-9]+)$'
    cargo test -q -p sapla-serve --features obs
    cargo test -q -p sapla-serve --features strict-invariants
    cargo test -q -p sapla-cli --test cli serve

# Request tracing & metrics exposition: the OP_METRICS / flight
# recorder / slow-log loopback tests under the instrumented build and
# the `sapla stats --metrics` subprocess round-trip.
metrics:
    cargo test -q -p sapla-serve --features obs metrics
    cargo test -q -p sapla-serve --features obs traces_decompose
    cargo test -q -p sapla-serve --features obs slow_query_log
    cargo test -q -p sapla-cli --test cli stats_subcommand

# Zero-copy snapshot persistence. The sapla-store container suite:
# checksum specification / lane-swap / alignment properties, version 1
# refusal, atomic write, then the fuzz tests (truncation / bit-flip /
# misalignment — every failure an Err, never a panic). The engine
# snapshot tests (`--lib snapshot`: more shards than series, re-sealed
# NaN / version 1 / META-step / rep-vs-raw-length / empty-span /
# stuck-endpoint / span-total images, and — over both kinds of
# tree — every leg of the one adoption walk (root / child / entry id
# out of range, shared child, detached slot, childless internal node,
# repeated entry, unknown kind tag, record count), bad hulls, inverted
# / non-finite rectangles and the rectangle-arity refusal, all refused
# by both loaders; the golden image checksums; an engine outliving its
# file; `--lib topology`: the node arena both trees share — id
# assignment through splits, condenses, a root collapse and a drain,
# export → adopt the identity, the structural refusals; `--lib arena`:
# the representation store — every reducer's reps returned bitwise
# whether built, appended or adopted from snapshot arrays, the adoption
# pass's refusals — and owned vs borrowed raw arenas), the bit-identity
# / load-save fixpoint property tests, and `--test retired_images`
# (images of the retired quantized format refused by both loaders),
# stock and under strict-invariants (which re-proves `Dist_LB ≤ exact`
# inside every refinement the snapshot-loaded trees perform). The node
# envelopes (`--lib envelope`, `--test envelope_props`): every node's
# envelope bounds every member, and built and loaded engines answer as
# their shards do without envelopes, over both trees, shards
# {1, 2, 3, 7} and threads {1, 2, 4};
# stock and strict (which re-checks the leaf envelope against every
# refinement). The instrumented load (phase spans,
# `raw_bytes_copied` 0 from a file). The daemon's reload tests (reloads
# racing index-file rewrites, a generation outliving its file
# mid-cohort). And one `long-narrow` lifecycle run — the workload whose
# load is raw-dominated — whose loaded engine and served replies must
# equal the built engine's; `--locked`, like every build of
# `benchmark/`, so a dependency-list change that would rewrite
# `benchmark/Cargo.lock` fails here instead of passing silently.
persist:
    cargo test -q -p sapla-store
    cargo test -q -p sapla-index --lib snapshot
    cargo test -q -p sapla-index --lib topology
    cargo test -q -p sapla-index --lib arena
    cargo test -q -p sapla-index --test snapshot_props
    cargo test -q -p sapla-index --test retired_images
    cargo test -q -p sapla-index --lib envelope
    cargo test -q -p sapla-index --test envelope_props
    cargo test -q -p sapla-index --features strict-invariants --lib snapshot
    cargo test -q -p sapla-index --features strict-invariants --lib topology
    cargo test -q -p sapla-index --features strict-invariants --lib arena
    cargo test -q -p sapla-index --features strict-invariants --test snapshot_props
    cargo test -q -p sapla-index --features strict-invariants --test retired_images
    cargo test -q -p sapla-index --features strict-invariants --lib envelope
    cargo test -q -p sapla-index --features strict-invariants --test envelope_props
    cargo test -q -p sapla-index --features obs --test obs_counters
    cargo test -q -p sapla-serve --test loopback reload
    cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- run --workload long-narrow --seed 1 | tail -n 1 | grep '"correct": true, .*"failed": 0,'

# SIMD dispatch safety net: the whole suite pinned to the scalar
# kernels through the env override (the bit-identity contract means no
# result may change).
simd-off:
    SAPLA_SIMD=off cargo test -q

# Lifecycle benchmark smoke (benchmark/, a workspace of its own): its
# unit tests, then one whole run — build → kNN/range → snapshot → serve
# on `short-wide` — whose last stdout line must report every output
# check passed and no operation failed. Numbers are not judged here;
# `benchmark/run.sh` + `compare` do that.
bench-smoke-lifecycle:
    cargo test --offline --locked --manifest-path benchmark/Cargo.toml
    cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- run --workload short-wide --seed 1 | tail -n 1 | grep '"correct": true, .*"failed": 0,'
    cargo run --release --offline --locked --quiet --manifest-path benchmark/Cargo.toml -- run --workload sharded-batch --seed 1 | tail -n 1 | grep '"correct": true, .*"failed": 0,'

# The full pre-merge gate.
ci: tier1 lint audit audit-model-serve obs serve-smoke metrics persist simd-off bench-smoke-lifecycle

# Regenerate every paper table/figure (slow; see EXPERIMENTS.md).
bench:
    cargo bench -p sapla-bench

# Quick thread-sweep of the parallel engine on the catalogue profile.
sweep:
    cargo bench -p sapla-bench --bench catalogue_profile
