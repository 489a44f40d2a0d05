#!/usr/bin/env bash
# Continuous-integration gate for the minskew workspace. Steps, in order:
#
#   1. formatting is canonical;
#   2. clippy is clean at -D warnings across every target and feature (the
#      library crates core/engine/data also deny `unwrap()` outside tests
#      via #![cfg_attr(not(test), deny(clippy::unwrap_used))]);
#   3. the root-package test suite (tier 1);
#   4. the full workspace suite with every feature (proptest suites and
#      the exhaustive matrices included);
#   5. the differential suites, wire protocol and lock-free stress suites
#      under `--features exhaustive` on one test thread: every suite runs
#      the shared corpus in tests/common (datasets × the seven bucket
#      techniques × extension rules × adversarial queries, pinned bit for
#      bit to the reference fold) plus its own exhaustive axis, and
#      scheduler interleaving cannot mask ordering bugs;
#   6. the kernel and serving differential suites again under
#      `--features simd`, so the runtime-dispatched pruned vector scan is
#      pinned to the same oracle, with a fresh scratch per call and with
#      one scratch reused across the whole corpus;
#   7. the observability suites with minskew-obs compiled to no-ops, proving
#      the compiled-out configuration serves the same bytes;
#   8. clippy over minskew-obs denying `unwrap()` everywhere;
#   9. clippy over the serving crates denying needless_collect and
#      redundant_clone (the serving path is allocation-free by design);
#  10. clippy over minskew-core with `simd` on (the pruned vector scan,
#      the workspace's only `unsafe`);
#  11. a CLI serve smoke: `minskew serve` on an ephemeral port, a catalog
#      client round trip (MAINTAIN, trace-id echo, EXPLAIN/FLIGHT/METRICS,
#      a raw malformed-TID probe, a bounded `minskew top` scrape), wire
#      shutdown, a clean exit and an emitted metrics dump;
#  12. a CLI maintain smoke: every maintenance mode runs, unknown ones fail;
#  13. a CLI explain smoke: offline EXPLAIN certifies bit-identity;
#  14. quick smoke runs of the six artifact benches (parallel speedup,
#      serving throughput with `simd` on, obs overhead, snapshot
#      persistence, serve loadgen, refine churn). Each re-checks its
#      differential contract inline and must write its artifact under
#      target/bench-smoke/, with the qps_kernel and recorder_overhead_pct
#      columns present; the committed full-scale artifacts at the root
#      are never touched;
#  15. the wire benchmark's self-test (perfbench, its own workspace, which
#      links the kernel and the engine API): every workload at reduced
#      scale, with its bit-for-bit reply checks.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "==> cargo test (tier 1)"
cargo test -q

echo "==> cargo test --workspace --all-features"
cargo test -q --workspace --all-features

echo "==> differential, wire and stress suites (exhaustive, single test thread)"
RUST_TEST_THREADS=1 cargo test -q --features exhaustive \
    --test parallel_differential --test serving_differential \
    --test obs_differential --test snapshot_recovery --test serve_stress \
    --test serve_protocol --test kernel_differential \
    --test refine_differential --test trace_differential

echo "==> kernel and serving differential suites under --features simd"
RUST_TEST_THREADS=1 cargo test -q --test kernel_differential --test serving_differential \
    --features exhaustive,simd

echo "==> observability suites with minskew-obs compiled to no-ops"
cargo test -q --test obs_differential --test golden_metrics --test trace_differential \
    --features minskew-obs/noop

echo "==> clippy (minskew-obs, unwrap denied everywhere)"
cargo clippy -p minskew-obs --all-targets -- -D warnings -D clippy::unwrap_used

echo "==> clippy (serving crates, allocation lints denied)"
cargo clippy -p minskew-core -p minskew-engine --all-targets -- \
    -D warnings -D clippy::needless_collect -D clippy::redundant_clone

echo "==> clippy (minskew-core, simd feature)"
cargo clippy -p minskew-core --all-targets --features simd -- -D warnings

echo "==> CLI serve smoke (ephemeral port, wire shutdown, metrics dump)"
cargo build -q -p minskew-cli
SERVE_TMP="$(mktemp -d)"
trap 'rm -rf "$SERVE_TMP"' EXIT
./target/debug/minskew generate --kind charminar --n 2000 --out "$SERVE_TMP/data.csv" >/dev/null
./target/debug/minskew serve --addr 127.0.0.1:0 --port-file "$SERVE_TMP/port" \
    --input "$SERVE_TMP/data.csv" --table roads --buckets 50 \
    > "$SERVE_TMP/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 100); do [[ -s "$SERVE_TMP/port" ]] && break; sleep 0.1; done
if [[ ! -s "$SERVE_TMP/port" ]]; then
    echo "ERROR: serve did not write its port file" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
fi
SERVE_ADDR="$(tr -d '\n' < "$SERVE_TMP/port")"
./target/debug/minskew catalog ping --addr "$SERVE_ADDR" >/dev/null
./target/debug/minskew catalog estimate --addr "$SERVE_ADDR" --name roads \
    --query 60,25,65,30 >/dev/null
# The maintenance surface: switch the table to online refine, run a
# maintenance pass, and require STATS to report the mode and staleness.
./target/debug/minskew catalog maintain --addr "$SERVE_ADDR" --name roads \
    --mode refine >/dev/null
./target/debug/minskew catalog maintain --addr "$SERVE_ADDR" --name roads >/dev/null
if ! ./target/debug/minskew catalog stats --addr "$SERVE_ADDR" --name roads \
    | grep -q '"maintenance":"refine"'; then
    echo "ERROR: STATS does not report the maintenance mode" >&2
    exit 1
fi
# A bogus mode must be a usage error (exit code 2) before any round trip.
if ./target/debug/minskew catalog maintain --addr "$SERVE_ADDR" --name roads \
    --mode bogus 2>/dev/null; then
    echo "ERROR: catalog client did not reject an unknown maintenance mode" >&2
    exit 1
fi
# An unknown table must surface the server's usage error as exit code 2.
if ./target/debug/minskew catalog estimate --addr "$SERVE_ADDR" --name ghost \
    --query 0,0,1,1 2>/dev/null; then
    echo "ERROR: catalog client did not fail on an unknown table" >&2
    exit 1
fi
# Trace ids: a tagged request round-trips (the client verifies and strips
# the TID= echo), and a locally-invalid token is a usage error before any
# bytes hit the wire.
./target/debug/minskew catalog estimate --addr "$SERVE_ADDR" --name roads \
    --query 60,25,65,30 --tid ci-smoke-1 >/dev/null
if ./target/debug/minskew catalog ping --addr "$SERVE_ADDR" \
    --tid 'bad!token' 2>/dev/null; then
    echo "ERROR: catalog client accepted an invalid trace id" >&2
    exit 1
fi
# The observability verbs: EXPLAIN carries the estimate headline, FLIGHT
# drains pinned JSONL, METRICS scrapes both registries in both formats.
EXPLAIN_OUT=$(./target/debug/minskew catalog explain --addr "$SERVE_ADDR" \
    --name roads --query 60,25,65,30)
if [[ "$EXPLAIN_OUT" != *'"estimate":'* ]]; then
    echo "ERROR: catalog explain did not return an estimate trace" >&2
    exit 1
fi
./target/debug/minskew catalog flight --addr "$SERVE_ADDR" >/dev/null
./target/debug/minskew catalog flight --addr "$SERVE_ADDR" --name roads \
    --limit 5 >/dev/null
METRICS_OUT=$(./target/debug/minskew catalog metrics --addr "$SERVE_ADDR")
if [[ "$METRICS_OUT" != *'minskew-obs/v1'* ]]; then
    echo "ERROR: catalog metrics did not return a schema-tagged scrape" >&2
    exit 1
fi
./target/debug/minskew catalog metrics --addr "$SERVE_ADDR" --name roads \
    --format text >/dev/null
# Malformed-TID fuzz straight over the wire: the reply must be a typed
# usage error with no TID= echo, and the connection must stay usable.
exec 3<>"/dev/tcp/${SERVE_ADDR%:*}/${SERVE_ADDR##*:}"
printf 'TID=bad!token PING\nPING\n' >&3
IFS= read -r TID_REPLY <&3
IFS= read -r PING_REPLY <&3
exec 3>&- 3<&-
case "$TID_REPLY" in
    "ERR 2 "*) ;;
    *)
        echo "ERROR: malformed TID got \"$TID_REPLY\" (want un-echoed ERR 2)" >&2
        exit 1
        ;;
esac
if [[ "$PING_REPLY" != "OK pong" ]]; then
    echo "ERROR: connection wedged after malformed TID: \"$PING_REPLY\"" >&2
    exit 1
fi
# The live dashboard: a bounded scrape against the running server.
./target/debug/minskew top --addr "$SERVE_ADDR" --name roads \
    --interval 0.2 --iterations 2 >/dev/null
./target/debug/minskew catalog shutdown --addr "$SERVE_ADDR" >/dev/null
if ! wait "$SERVE_PID"; then
    echo "ERROR: serve did not exit cleanly after wire shutdown" >&2
    exit 1
fi
if ! grep -q "serve.requests" "$SERVE_TMP/serve.log"; then
    echo "ERROR: serve did not emit its metrics registry on shutdown" >&2
    exit 1
fi

echo "==> CLI maintain smoke (every maintenance mode, bad mode rejected)"
for MODE in off reanalyze refine; do
    ./target/debug/minskew maintain --input "$SERVE_TMP/data.csv" \
        --mode "$MODE" --rounds 2 --queries 100 >/dev/null
done
if ./target/debug/minskew maintain --input "$SERVE_TMP/data.csv" \
    --mode bogus 2>/dev/null; then
    echo "ERROR: minskew maintain did not reject an unknown mode" >&2
    exit 1
fi

echo "==> CLI explain smoke (offline EXPLAIN against a built stats file)"
./target/debug/minskew build --input "$SERVE_TMP/data.csv" \
    --technique min-skew --buckets 50 --out "$SERVE_TMP/stats.bin" >/dev/null
EXPLAIN_CLI_OUT=$(./target/debug/minskew explain --stats "$SERVE_TMP/stats.bin" \
    --query 60,25,65,30 --terms 3)
if [[ "$EXPLAIN_CLI_OUT" != *'bit-identical'* ]]; then
    echo "ERROR: minskew explain did not certify bit-identity" >&2
    exit 1
fi

echo "==> bench smokes (MINSKEW_QUICK=1, artifacts under target/bench-smoke/)"
SMOKE=target/bench-smoke
rm -rf "$SMOKE"
smoke() { # <bench> <artifact> [cargo args...]
    MINSKEW_QUICK=1 cargo bench -q -p minskew-bench --bench "$1" "${@:3}" >/dev/null
    if [[ ! -f "$SMOKE/$2" ]]; then
        echo "ERROR: bench $1 did not write $SMOKE/$2" >&2
        exit 1
    fi
}
smoke parallel_speedup BENCH_parallel.json
smoke serving_throughput BENCH_estimate.json --features simd
smoke obs_overhead BENCH_obs.json
smoke snapshot_persistence BENCH_snapshot.json
smoke serve_loadgen BENCH_serve.json
smoke refine_churn BENCH_refine.json
if ! grep -q '"qps_kernel"' "$SMOKE/BENCH_estimate.json"; then
    echo "ERROR: BENCH_estimate.json is missing the qps_kernel column" >&2
    exit 1
fi
if ! grep -q '"recorder_overhead_pct"' "$SMOKE/BENCH_obs.json"; then
    echo "ERROR: BENCH_obs.json is missing the flight-recorder column" >&2
    exit 1
fi

echo "==> perfbench self-test (reduced scale)"
cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- --self-test

echo "CI OK"
