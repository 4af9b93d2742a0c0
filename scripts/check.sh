#!/usr/bin/env bash
# Full local gate: release build, every test, lint-clean clippy, and the
# benchmark-regression smoke gate.
#
#   ./scripts/check.sh                   # the gate
#   ./scripts/check.sh --update-baseline # regenerate committed baselines
#                                        # (telemetry + bench) then re-gate
set -euo pipefail
cd "$(dirname "$0")/.."

UPDATE=0
if [[ "${1:-}" == "--update-baseline" ]]; then
  UPDATE=1
fi

# A source file the build needs but .gitignore hides builds here and
# fails on a fresh clone; refuse any ignored file under the source
# trees other than build output.
echo "==> no ignored files under the source trees"
IGNORED=$(git ls-files --others --ignored --exclude-standard -- \
  crates src tests examples vendor | grep -v '\(^\|/\)target/' || true)
if [[ -n "$IGNORED" ]]; then
  echo "ignored files under source trees (a fresh clone would lack them):" >&2
  echo "$IGNORED" >&2
  exit 1
fi

# One remote-read path: every engine read goes through `post` (the only
# choice between one doorbell and one read per request) and the
# retrying `read_stable`; the health probe keeps its own doorbell. The
# v1 layout and the hand-written read loops stay deleted.
echo "==> single remote-read path in the engine"
ENGINE=crates/core/src/engine.rs
N_READS=$(grep -c 'self\.qp\.read_with_cause(' "$ENGINE" || true)
N_DOORBELLS=$(grep -c 'self\.qp\.read_doorbell(' "$ENGINE" || true)
if (( N_READS > 1 || N_DOORBELLS > 2 )); then
  echo "$ENGINE: $N_READS read_with_cause and $N_DOORBELLS read_doorbell calls;" \
    "at most 1 and 2 (post and the health probe)" >&2
  exit 1
fi
if grep -rnE 'has_version_slots|parse_overflow_legacy|read_naive_with_retry' crates/; then
  echo "a deleted v1-layout or read-loop helper reappeared under crates/" >&2
  exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace

if [[ "$UPDATE" == 1 ]]; then
  echo "==> regenerating results/telemetry_baseline.{prom,json}"
  DHNSW_SIFT_N=4000 DHNSW_QUERIES=100 \
    target/release/repro fig6a --metrics-out results/telemetry_baseline
  echo "==> regenerating results/BENCH_baseline.json"
  target/release/bench_regress --profile smoke --label baseline --write-baseline
fi

echo "==> cargo test --workspace"
cargo test --workspace -q

# The benchmark is its own workspace and calls the SQ8 kernel and scan
# directly; build and test it so an API change cannot break it silently.
echo "==> cargo test (perfbench)"
cargo test --offline --manifest-path perfbench/Cargo.toml -q

# The search-thread and pipeline-depth knobs must not change any
# observable result: the whole suite runs across the matrix (the
# baseline run above already covered threads=auto x depth=1).
for threads in 1 4; do
  for depth in 1 2; do
    echo "==> cargo test --workspace --release (DHNSW_SEARCH_THREADS=$threads DHNSW_PIPELINE_DEPTH=$depth)"
    DHNSW_SEARCH_THREADS=$threads DHNSW_PIPELINE_DEPTH=$depth \
      cargo test --workspace --release -q
  done
done

# Concurrency stress gate: 100 seeded iterations of readers + writer
# under fault injection (plain `cargo test` runs a 4-iteration smoke).
echo "==> stress gate (DHNSW_STRESS_ITERS=100)"
DHNSW_STRESS_ITERS=100 cargo test --release -q --test stress

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Bench-regression smoke gate: latency tolerances are already generous,
# and the 4x scale keeps a loaded CI box from tripping the gate; the
# deterministic byte/doorbell/recall bands stay meaningfully tight.
# The run itself also hard-gates the sq8_* scenarios: compressed cold
# bytes < 0.30x of single_cold, recall@10 after rerank within 0.005,
# and nonzero rerank-cause bytes.
echo "==> bench_regress --profile smoke (vs results/BENCH_baseline.json)"
target/release/bench_regress --profile smoke --label check \
  --tolerance-scale 4.0

# Fault-injection smoke gate: the seeded sweep must keep recall
# identical to the clean run under the default retransmission budget
# (it exits non-zero if any faulted row degrades or errors).
echo "==> repro faults (fault-injection smoke gate)"
DHNSW_ABLATION_N=4000 DHNSW_ABLATION_Q=100 target/release/repro faults

# Same sweep over the compressed wire format: SQ8 stage loads, the
# overflow follow-up reads, and the exact-rerank doorbells must survive
# seeded verb drops just like the full-precision path does.
echo "==> repro faults with DHNSW_QUANTIZE_MODE=sq8 (quantized fault smoke)"
DHNSW_QUANTIZE_MODE=sq8 DHNSW_ABLATION_N=4000 DHNSW_ABLATION_Q=100 \
  target/release/repro faults

# Serving-plane smoke gate: build a tiny store, serve it on an
# ephemeral port, scrape the live endpoints over bash's /dev/tcp (no
# curl dependency in CI), and shut the server down gracefully. Gates
# that /metrics carries the per-cause byte provenance and /health the
# windowed SLO fields end to end.
echo "==> dhnsw_cli serve (metrics serving-plane smoke gate)"
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
target/release/dhnsw_cli build --synthetic sift:3000 \
  --out "$SMOKE_DIR/store.dhnsw" 2>/dev/null
target/release/dhnsw_cli serve --store "$SMOKE_DIR/store.dhnsw" \
  > "$SMOKE_DIR/serve.out" 2>/dev/null &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [[ -s "$SMOKE_DIR/serve.out" ]] && break
  sleep 0.1
done
URL=$(head -n1 "$SMOKE_DIR/serve.out")   # first stdout line is the URL
HOSTPORT=${URL#http://}
HOST=${HOSTPORT%:*}
PORT=${HOSTPORT##*:}
scrape() {
  exec 3<>"/dev/tcp/$HOST/$PORT"
  printf 'GET %s HTTP/1.1\r\nHost: smoke\r\n\r\n' "$1" >&3
  cat <&3
  exec 3<&-
}
scrape /metrics > "$SMOKE_DIR/metrics.prom"
grep -q '^# TYPE dhnsw_rdma_read_bytes_by_cause_total counter' "$SMOKE_DIR/metrics.prom"
grep -q '^dhnsw_rdma_read_bytes_by_cause_total{cause="stage_load"} [1-9]' "$SMOKE_DIR/metrics.prom"
scrape /health | grep -q '"window_p99_us"'
scrape /explain/last | grep -q 'stage_load'
# Tail-anatomy plane: the folded profile must carry at least one batch
# root frame and the exemplar store must report its occupancy.
scrape /profile/folded | grep -q '^query_batch'
scrape /exemplars | grep -q '"occupancy"'
# Time-series plane: every response is marked no-store, the ring serves
# (window, step)-thinned points, the anomaly log answers, and the live
# `top` dashboard renders a frame against the node. Give the background
# sampler a bit over two ticks so at least one derived window exists.
scrape /metrics | grep -q 'Cache-Control: no-store'
sleep 2.5
scrape '/timeseries?window=60&step=1' | grep -q '"points"'
# Explicitly-zero parameters are client errors, not empty results.
scrape '/timeseries?step=0' | grep -q '400 Bad Request'
scrape /anomalies | grep -q '"records"'
target/release/dhnsw_cli top --once --url "$URL" > "$SMOKE_DIR/top.out"
grep -q 'dhnsw top' "$SMOKE_DIR/top.out"
scrape /shutdown > /dev/null
wait "$SERVE_PID"

echo "OK: build, tests, clippy, bench, fault, and serve smoke gates all green."
