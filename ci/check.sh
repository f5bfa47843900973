#!/usr/bin/env bash
# Repository quality gate: formatting, lints, build, the full test suite
# (including the orchestration determinism/resume tests, which run as part
# of the default `cargo test`), and the perf-regression gate (`bvsim bench
# --quick` against the committed BENCH.json baseline).
#
# Usage: ci/check.sh [--quick]
#   --quick   skip workspace tests and the smoke runs, but still build
#             release and perfbench and run the bench gate, so a hot-path
#             layout regression or an API change that breaks the
#             benchmark fails fast on every run
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (workspace, all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

# One retry for the perf gate: on a shared host a background burst can
# swallow an entire timing window and read as a regression. A real
# regression reproduces on the immediate rerun; a burst almost never does.
bench_gate() {
    ./target/release/bvsim bench --quick \
        --out target/BENCH.quick.json --baseline BENCH.json --max-regress 20 \
        || ./target/release/bvsim bench --quick \
            --out target/BENCH.quick.json --baseline BENCH.json --max-regress 20
}

# perfbench is its own package outside the workspace, so no workspace
# build compiles it; an API change that breaks it must fail here.
perfbench_build() {
    echo "== perfbench build (the benchmark compiles against the current APIs) =="
    CARGO_TARGET_DIR=.bench_build cargo build --release --offline \
        --manifest-path perfbench/Cargo.toml
}

if [[ "${1:-}" == "--quick" ]]; then
    echo "quick mode: skipping doc/tests/smokes, keeping the builds and the bench gate"
    echo "== cargo build --release =="
    cargo build --release
    perfbench_build
    echo "== bvsim bench --quick (perf gate vs committed BENCH.json) =="
    bench_gate
    exit 0
fi

echo "== cargo doc (no deps, warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo build --release =="
cargo build --release

perfbench_build

echo "== cargo test (workspace) =="
cargo test --workspace -q

# The goldens again in release: the debug run above checks the program's
# logic, but the benchmark measures the release build, whose
# target-cpu=native vector code (the tag match, the BDI kernels) must
# produce the same counters.
echo "== golden snapshots (release) =="
cargo test --release --test golden_snapshot -q

# Once more on one test thread. The parallel runs above fill the cores,
# so their drive loops mostly decode inline; alone, every golden's run
# decodes and trains the prefetcher on a helper thread.
echo "== golden snapshots (release, one test thread) =="
cargo test --release --test golden_snapshot -q -- --test-threads=1

# The LLC event streams in release too: the same vector code produces
# the compressed sizes and encoder classes the events carry.
echo "== LLC event digests (release) =="
cargo test --release --test llc_event_digests -q

# Construction cost in release too: whether `vec![x; n]` takes the
# zeroed-allocation path must not depend on the optimization level.
echo "== LLC construction pages (release) =="
cargo test --release --test construction_pages -q

echo "== bvsim bench --quick (perf gate vs committed BENCH.json) =="
bench_gate

echo "== organization label (a Base-Victim variant reports its own name) =="
# Capture before grep -q: an early pipe close would SIGPIPE bvsim.
LABEL=$(./target/release/bvsim --trace specint.mcf.07 --llc base-victim-ni \
    --warmup 1000 --insts 2000)
grep -qx "=== base-victim-ni ===" <<<"$LABEL" \
    || { echo "label check: base-victim-ni run not labeled base-victim-ni" >&2; exit 1; }

echo "== telemetry smoke (run --telemetry, then report) =="
./target/release/bvsim --trace specint.mcf.07 --llc base-victim \
    --warmup 50000 --insts 200000 \
    --telemetry target/telemetry-smoke.jsonl --epoch 50000 >/dev/null
./target/release/bvsim report target/telemetry-smoke.jsonl >/dev/null

echo "== events smoke (trace capture, then the divergence auditor) =="
./target/release/bvsim trace --trace specint.mcf.07 --llc-mb 1 --ways 8 \
    --warmup 100000 --budget 200000 --kinds eviction,victim-hit \
    --capacity 4096 --out target/events-smoke.jsonl >/dev/null
# A clean audit must pass; an injected fault must be caught (both exit 0).
./target/release/bvsim trace --audit --ops 5000 >/dev/null
./target/release/bvsim trace --audit --ops 5000 --inject 800 >/dev/null

echo "== kv smoke (org sweep, then the baseline-mirror auditor) =="
./target/release/bvsim kv --sweep --warmup 10000 --requests 40000 \
    --budget-kib 256 >/dev/null
# Same convention as the LLC auditor: clean run and self-test both exit 0.
./target/release/bvsim kv --lockstep --requests 20000 --budget-kib 256 >/dev/null
./target/release/bvsim kv --lockstep --requests 20000 --budget-kib 256 \
    --inject 5000 >/dev/null
# The other two profiles: social rotates its hot set through phases,
# analytics draws large values.
for dist in social analytics; do
    ./target/release/bvsim kv --lockstep --dist "$dist" --requests 20000 \
        --budget-kib 256 >/dev/null
done

echo "== fuzz smoke (fixed-seed campaign, inject self-test, corpus replay) =="
# A fixed seed keeps CI deterministic; any failure exits nonzero with a
# minimized reproducer on stdout.
./target/release/bvsim fuzz --cases 25 --seed 1 >/dev/null
# Self-test: plant a fault in each domain's auditor and require the
# campaign machinery to detect it and shrink the witness. An undetected
# injected fault exits nonzero — the fuzzer finding nothing must mean
# there is nothing, not that it cannot see.
./target/release/bvsim fuzz --inject >/dev/null
# Every committed reproducer must replay green (fixed bugs stay fixed,
# injected faults stay detected).
for repro in tests/corpus/*.bvfuzz.json; do
    ./target/release/bvsim fuzz --replay "$repro" >/dev/null
done

echo "== argv-rejection smoke (bad input exits nonzero with an error, no panic) =="
cargo build --release -q -p bv-bench --bin experiments
reject() {
    local err
    if err=$("$@" 2>&1 >/dev/null); then
        echo "argv smoke: '$*' exited 0" >&2
        exit 1
    fi
    if grep -q panicked <<<"$err" || ! grep -q "^error:" <<<"$err"; then
        echo "argv smoke: '$*' did not fail with a clean error:" >&2
        echo "$err" >&2
        exit 1
    fi
}
# An LLC geometry no set engine can build, an --inject that never fires,
# a kv budget whose byte count overflows (it used to wrap to 0 bytes),
# kv capture flags the run would drop (it used to exit 0 without
# writing them), and an unknown experiment name.
reject ./target/release/bvsim --trace specint.mcf.07 --ways 0
reject ./target/release/bvsim trace --audit --ops 10 --inject 100
reject ./target/release/bvsim kv --budget-kib 18014398509481984
reject ./target/release/bvsim kv --telemetry a --events b
reject ./target/release/bvsim kv --compare --events b
reject ./target/release/experiments nosuchfigure
# Corrupted reproducers (a non-ASCII op token, an unbuildable geometry)
# are rejected at load. They live in a temp dir: every file under
# tests/corpus/ must replay green.
CORRUPT_DIR=$(mktemp -d)
sed 's/"ops":"r0 /"ops":"é0 /' tests/corpus/clean.llc.bvfuzz.json \
    >"$CORRUPT_DIR/non-ascii-op.bvfuzz.json"
sed 's/"ways":2/"ways":0/' tests/corpus/clean.llc.bvfuzz.json \
    >"$CORRUPT_DIR/zero-ways.bvfuzz.json"
for corrupt in "$CORRUPT_DIR"/*.bvfuzz.json; do
    cmp -s "$corrupt" tests/corpus/clean.llc.bvfuzz.json \
        && { echo "argv smoke: corrupting $corrupt changed nothing" >&2; exit 1; }
    reject ./target/release/bvsim fuzz --replay "$corrupt"
done
# 200,000 nested arrays: a one-line parse error, not a stack overflow
# (which aborts with exit 134).
printf '%*s' 200000 '' | tr ' ' '[' >"$CORRUPT_DIR/deep.jsonl"
reject ./target/release/bvsim report "$CORRUPT_DIR/deep.jsonl"
DEEP_STATUS=0
./target/release/bvsim report "$CORRUPT_DIR/deep.jsonl" >/dev/null 2>&1 || DEEP_STATUS=$?
if [[ "$DEEP_STATUS" == 134 ]]; then
    echo "argv smoke: bvsim report aborted (exit 134) on deep nesting" >&2
    exit 1
fi
rm -rf "$CORRUPT_DIR"

echo "== sweep smoke (journaled sweep, resume, SIGINT drill) =="
# The whole suite at tiny budgets through the job engine: a resumed
# sweep must re-simulate none of the 1980 journaled configs, and Ctrl-C
# must leave a journal without duplicates that a resume completes.
SWEEP_DIR=$(mktemp -d)
sweep() {
    BV_WARMUP=2000 BV_INSTS=4000 ./target/release/bvsim sweep --jobs 2 \
        --journal "$SWEEP_DIR/$1" "${@:2}" 2>/dev/null
}
sweep full >/dev/null
grep -q "1980 from journal, 0 simulated" <<<"$(sweep full --resume)" \
    || { echo "sweep smoke: resume re-simulated journaled work" >&2; exit 1; }
# Started directly, not through the function, so $! is bvsim itself.
BV_WARMUP=2000 BV_INSTS=4000 ./target/release/bvsim sweep --jobs 2 \
    --journal "$SWEEP_DIR/drill" >/dev/null 2>&1 &
SWEEP_PID=$!
for _ in $(seq 1 1000); do
    [[ -s "$SWEEP_DIR/drill/runs.jsonl" ]] && break
    sleep 0.01
done
kill -INT "$SWEEP_PID"
SWEEP_STATUS=0
wait "$SWEEP_PID" || SWEEP_STATUS=$?
if [[ "$SWEEP_STATUS" != 130 ]]; then
    echo "sweep smoke: SIGINT drill exited $SWEEP_STATUS, expected 130" >&2
    exit 1
fi
if grep -o '"hash":"[0-9a-f]*"' "$SWEEP_DIR/drill/runs.jsonl" | sort | uniq -d | grep -q .; then
    echo "sweep smoke: the interrupted sweep journaled a job twice" >&2
    exit 1
fi
grep -q "sweep: 1980 checkpoints" <<<"$(sweep drill --resume)" \
    || { echo "sweep smoke: resume after SIGINT did not complete the sweep" >&2; exit 1; }
rm -rf "$SWEEP_DIR"

echo "== serve smoke (daemon, worker kill, dedup, metrics, restart recovery) =="
# A live bvsim-serve-v1 daemon on an ephemeral port: arm a worker crash,
# submit a tiny sweep, and require completion with zero lost and zero
# duplicate simulations. Scrape the live /metrics endpoint and require the
# counters to agree with what just happened. Then restart the daemon
# against the same journal and require the identical grid to re-simulate
# nothing.
SERVE_DIR=$(mktemp -d)
trap 'rm -rf "$SERVE_DIR"' EXIT
serve_grid() {
    ./target/release/bvsim submit --addr "$1" \
        --traces specint.mcf.07,client.octane.00 \
        --llcs uncompressed,base-victim \
        --warmup 1000 --insts 2000 --out "$2"
}
./target/release/bvsim serve --addr 127.0.0.1:0 --workers 2 \
    --metrics-port 0 \
    --journal "$SERVE_DIR/journal" --port-file "$SERVE_DIR/serve.addr" \
    >"$SERVE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [[ -f "$SERVE_DIR/serve.addr.metrics" ]] && break
    sleep 0.1
done
ADDR=$(cat "$SERVE_DIR/serve.addr")
METRICS_ADDR=$(cat "$SERVE_DIR/serve.addr.metrics")
# Kill a worker mid-sweep: the monitor must re-queue its job and spawn a
# replacement, and the sweep must still complete.
./target/release/bvsim ctl --addr "$ADDR" --kill-worker 0 >/dev/null
serve_grid "$ADDR" "$SERVE_DIR/rows.jsonl" >/dev/null
ROWS=$(wc -l <"$SERVE_DIR/rows.jsonl")
JOURNALED=$(wc -l <"$SERVE_DIR/journal/runs.jsonl")
if [[ "$ROWS" != 4 || "$JOURNALED" != 4 ]]; then
    echo "serve smoke: expected 4 rows + 4 journal lines after worker kill," \
         "got $ROWS rows, $JOURNALED journal lines" >&2
    exit 1
fi
# Capture before grep -q: an early pipe close would SIGPIPE the client.
STATUS=$(./target/release/bvsim ctl --addr "$ADDR" --status)
grep -q "1 worker crash(es)" <<<"$STATUS" \
    || { echo "serve smoke: worker crash not recorded in status" >&2; exit 1; }
# Scrape the Prometheus endpoint on the live daemon over plain HTTP
# (bash /dev/tcp, so CI needs no curl): the sweep that just ran must
# show up as completed jobs, and the kill-worker drill as a crash.
exec 3<>"/dev/tcp/${METRICS_ADDR%:*}/${METRICS_ADDR##*:}"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&3
SCRAPE=$(cat <&3)
exec 3<&- 3>&-
grep -q '^jobs_completed_total{source="simulated"} [1-9]' <<<"$SCRAPE" \
    || { echo "serve smoke: /metrics shows no completed jobs" >&2; exit 1; }
grep -q '^worker_crashes_total [1-9]' <<<"$SCRAPE" \
    || { echo "serve smoke: /metrics missed the worker crash" >&2; exit 1; }
# The live dashboard renders one frame from the same daemon.
TOP=$(./target/release/bvsim top --addr "$ADDR" --once)
grep -q "1 crash(es)" <<<"$TOP" \
    || { echo "serve smoke: bvsim top missed the worker crash" >&2; exit 1; }
./target/release/bvsim ctl --addr "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"
# Restart on the same journal: the grid must be served entirely from disk.
./target/release/bvsim serve --addr 127.0.0.1:0 --workers 2 \
    --journal "$SERVE_DIR/journal" --port-file "$SERVE_DIR/serve2.addr" \
    >>"$SERVE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [[ -f "$SERVE_DIR/serve2.addr" ]] && break
    sleep 0.1
done
ADDR=$(cat "$SERVE_DIR/serve2.addr")
RESUBMIT=$(serve_grid "$ADDR" "$SERVE_DIR/rows2.jsonl")
grep -q "4 job(s): 0 fresh, 4 journaled" <<<"$RESUBMIT" \
    || { echo "serve smoke: restart re-simulated journaled work" >&2; exit 1; }
./target/release/bvsim ctl --addr "$ADDR" --shutdown >/dev/null
wait "$SERVE_PID"
if [[ "$(wc -l <"$SERVE_DIR/journal/runs.jsonl")" != 4 ]]; then
    echo "serve smoke: restart appended duplicate journal lines" >&2
    exit 1
fi

echo "All checks passed."
