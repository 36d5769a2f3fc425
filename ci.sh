#!/usr/bin/env bash
# Local CI: formatting, lints, the test suite, and end-to-end smoke checks.
#
# Usage: ./ci.sh
#
# Everything runs offline against the vendored dependency stubs; no network
# access is required.

set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

# A must-fail check: the command has to exit with exactly the code the
# failure under test produces, so a bad argument (exit 2) cannot pass for
# it.
expect_exit() {
    local want="$1" code=0
    shift
    "$@" >/dev/null 2>&1 || code=$?
    if [ "$code" != "$want" ]; then
        echo "ERROR: expected exit $want, got $code from: $*" >&2
        exit 1
    fi
}

run cargo fmt --all --check

run cargo clippy --offline --workspace --all-targets -- -D warnings
run cargo test --offline --workspace -q

# Criterion benches in check mode: every bench body must still execute
# (one iteration, no timing) so `cargo bench` stays runnable without
# paying for a measurement run.
run cargo bench --offline -q -p aqua-bench -- --test

# Benchmark output gate: perfbench's own tests, then one short seed-42 run
# of every perfbench workload. Each run checks every cell's report against
# the one recorded in perfbench/expected/<workload>.tsv, so a change that
# moves any simulated output byte fails here. `--locked` makes a workspace
# manifest change that would rewrite perfbench/Cargo.lock fail here instead
# of editing the benchmark's lock file.
run cargo test --offline --locked --release --manifest-path perfbench/Cargo.toml
for workload in spec-hot suite-quiet attack-flood; do
    echo
    echo "==> perfbench output gate: $workload"
    result=$(bash perfbench/run.sh --workload "$workload" --seed 42 --seconds 1 --trace 0 | tail -n 1)
    echo "$result"
    if ! grep -q '"correct":true' <<<"$result" || ! grep -q '"failed":0' <<<"$result"; then
        echo "ERROR: perfbench $workload outputs differ from perfbench/expected" >&2
        exit 1
    fi
done

# Parallel-runner determinism smoke test: one figure binary on a two-workload
# subset, serial vs two workers, must emit byte-identical CSVs.
smoke() {
    local jobs="$1" out="$2"
    echo
    echo "==> smoke: fig06_migrations with AQUA_BENCH_JOBS=$jobs"
    AQUA_BENCH_WORKLOADS=povray,xz AQUA_BENCH_EPOCHS=1 AQUA_BENCH_JOBS="$jobs" \
        cargo run --offline -q -p aqua-bench --bin fig06_migrations >/dev/null
    cp target/experiments/fig06_migrations.csv "$out"
}
smoke 1 target/experiments/fig06_smoke_serial.csv
smoke 2 target/experiments/fig06_smoke_parallel.csv
run diff target/experiments/fig06_smoke_serial.csv target/experiments/fig06_smoke_parallel.csv

# Sharded multi-channel determinism smoke: figures on a 4-channel topology
# with 1 vs 4 shard workers must emit byte-identical CSVs — the cross-shard
# merge must not leak thread scheduling into results. fig06 reads the
# merged reports, fig10 the per-channel engines handed back after the run.
shard_smoke() {
    local bin="$1" workers="$2"
    echo
    echo "==> smoke: $bin with AQUA_BENCH_CHANNELS=4 AQUA_BENCH_SHARD_WORKERS=$workers"
    AQUA_BENCH_WORKLOADS=povray,xz AQUA_BENCH_EPOCHS=1 AQUA_BENCH_CHANNELS=4 \
        AQUA_BENCH_SHARD_WORKERS="$workers" \
        cargo run --offline -q --release -p aqua-bench --bin "$bin" >/dev/null
    cp "target/experiments/$bin.csv" "target/experiments/${bin}_shard_$workers.csv"
}
for bin in fig06_migrations fig10_fpt_breakdown; do
    shard_smoke "$bin" 1
    shard_smoke "$bin" 4
    run diff "target/experiments/${bin}_shard_1.csv" "target/experiments/${bin}_shard_4.csv"
done

# Seeded fault-injection smoke test: two campaigns with the same seed must
# emit byte-identical CSVs (and exit zero, i.e. no unaccounted corruptions).
fault_smoke() {
    local out="$1"
    echo
    echo "==> smoke: fault_campaign --seed 7 -> $out"
    AQUA_BENCH_WORKLOADS=mcf cargo run --offline -q --release -p aqua-bench \
        --bin fault_campaign -- --seed 7 --epochs 1 --rates 0,8 --out "$out" >/dev/null
}
fault_smoke fault_smoke_first
fault_smoke fault_smoke_replay
run diff target/experiments/fault_smoke_first.csv target/experiments/fault_smoke_replay.csv

# Checkpoint/resume smoke: interrupt a fault campaign halfway (the journal's
# AQUA_BENCH_DIE_AFTER test hook exits 3 once 4 of the 8 cells are durable),
# resume it with the same journal, and require the final CSV to be
# byte-identical to the uninterrupted reference (DESIGN.md section 14).
resume_args=(--seed 7 --epochs 1 --rates 0,8)
resume_journal=target/experiments/ci_resume_journal.jsonl
rm -f "$resume_journal"
echo
echo "==> smoke: fault_campaign uninterrupted reference"
AQUA_BENCH_WORKLOADS=mcf cargo run --offline -q --release -p aqua-bench \
    --bin fault_campaign -- "${resume_args[@]}" --out ci_resume_ref >/dev/null
# The must-fail checks below run the built binaries directly, so the exit
# code they check is the binary's own.
cargo build --offline -q --release -p aqua-bench --bin fault_campaign --bin monitor \
    --bin regression_gate
echo
echo "==> smoke: fault_campaign killed after 4 durable cells (expect exit 3)"
expect_exit 3 env AQUA_BENCH_WORKLOADS=mcf AQUA_BENCH_DIE_AFTER=4 \
    target/release/fault_campaign "${resume_args[@]}" --out ci_resume_out \
    --resume "$resume_journal"
echo "campaign died mid-run as instructed"
echo
echo "==> smoke: resumed campaign must replay and finish byte-identical"
AQUA_BENCH_WORKLOADS=mcf cargo run --offline -q --release -p aqua-bench \
    --bin fault_campaign -- "${resume_args[@]}" --out ci_resume_out \
    --resume "$resume_journal" >/dev/null
run diff target/experiments/ci_resume_ref.csv target/experiments/ci_resume_out.csv

# Quarantine must-fail: a chaos-sabotaged cell (panics on its first attempt,
# then completes — the determinism probe cannot reproduce the failure) is
# quarantined as nondeterministic. That is a warning with exit 0 by default
# and a hard failure under --strict; both behaviours are load-bearing.
echo
echo "==> smoke: quarantined cell warns by default, fails under --strict"
AQUA_BENCH_WORKLOADS=mcf cargo run --offline -q --release -p aqua-bench \
    --bin fault_campaign -- --seed 7 --epochs 1 --rates 0 --out ci_chaos \
    --chaos-cell aqua-sram/mcf >/dev/null
expect_exit 1 env AQUA_BENCH_WORKLOADS=mcf target/release/fault_campaign \
    --seed 7 --epochs 1 --rates 0 --out ci_chaos --chaos-cell aqua-sram/mcf --strict
echo "quarantine is a warning by default and fatal under --strict"

# Live metrics plane smoke: the same seeded campaign served over
# --metrics-addr must be scrapeable mid-run — a well-formed Prometheus
# exposition on /metrics with live sim.requests samples and a parseable
# /healthz — and still emit a CSV byte-identical to the plane-less
# fault_smoke reference above (the plane is an observer, never a
# participant; DESIGN.md section 16).
echo
echo "==> metrics plane smoke: scrape /metrics and /healthz mid-sweep"
metrics_addr_file=target/experiments/ci_metrics_addr.txt
metrics_scrape=target/experiments/ci_metrics_scrape.txt
rm -f "$metrics_addr_file"
AQUA_BENCH_WORKLOADS=mcf AQUA_METRICS_PORT_FILE="$metrics_addr_file" \
AQUA_METRICS_LINGER_MS=4000 \
    target/release/fault_campaign \
    --seed 7 --epochs 1 --rates 0,8 --out ci_metrics_smoke \
    --metrics-addr 127.0.0.1:0 >/dev/null 2>&1 &
metrics_pid=$!
for _ in $(seq 1 300); do [ -s "$metrics_addr_file" ] && break; sleep 0.1; done
if [ ! -s "$metrics_addr_file" ]; then
    echo "ERROR: metrics plane never published its address" >&2
    exit 1
fi
metrics_addr=$(cat "$metrics_addr_file")
scraped=0
for _ in $(seq 1 600); do
    if target/release/monitor --addr "$metrics_addr" --once --raw \
        >"$metrics_scrape" 2>/dev/null \
        && grep -q '^aqua_sim_requests_total{' "$metrics_scrape"; then
        scraped=1
        break
    fi
    sleep 0.2
done
if [ "$scraped" != 1 ]; then
    echo "ERROR: no live sim.requests sample scraped from /metrics" >&2
    kill "$metrics_pid" 2>/dev/null || true
    exit 1
fi
grep -q '^# TYPE aqua_up gauge' "$metrics_scrape"
grep -q '^aqua_up 1' "$metrics_scrape"
target/release/monitor --addr "$metrics_addr" --once | grep -q 'aqua monitor'
wait "$metrics_pid"
run diff target/experiments/fault_smoke_first.csv target/experiments/ci_metrics_smoke.csv
echo "metrics plane served mid-run and changed nothing"

# Alert-engine must-fail: under seeded faults the built-in
# integrity_escape rule has to trip and --fail-on-alert has to turn it
# into a non-zero exit; a clean rate-0 sweep must stay quiet. An alert
# rule that cannot fire alerts nothing.
echo
echo "==> fault_campaign --fail-on-alert must FAIL under seeded escapes"
expect_exit 1 env AQUA_BENCH_WORKLOADS=mcf target/release/fault_campaign \
    --seed 7 --epochs 1 --rates 8 --out ci_alert_fail --fail-on-alert
echo "alert engine tripped on the seeded escape as required"
echo
echo "==> fault_campaign --fail-on-alert stays quiet at fault rate 0"
AQUA_BENCH_WORKLOADS=mcf target/release/fault_campaign \
    --seed 7 --epochs 1 --rates 0 --out ci_alert_quiet \
    --fail-on-alert >/dev/null
echo "no alert fired on a clean sweep"

# Host-time profiler smoke: the folded-stacks output must be non-empty and
# contain the sim.run root (flamegraph.pl-consumable).
echo
echo "==> profile smoke"
cargo run --offline -q --release -p aqua-bench --bin profile -- \
    --folded target/experiments/profile_smoke.folded \
    --jsonl target/experiments/profile_smoke.jsonl >/dev/null
run grep -q '^sim\.run' target/experiments/profile_smoke.folded
echo
echo "==> profile smoke (sharded: per-shard phases and imbalance summary)"
profile_shard_out=$(cargo run --offline -q --release -p aqua-bench --bin profile -- \
    --channels 2 \
    --folded target/experiments/profile_shard_smoke.folded \
    --jsonl target/experiments/profile_shard_smoke.jsonl)
run grep -q '^sim\.sharded;shard1;sim\.run' target/experiments/profile_shard_smoke.folded
grep -q 'shard imbalance (2 shards)' <<<"$profile_shard_out"

# Performance-regression gate: the deterministic canary matrix must stay
# within tolerance of the committed BENCH_8.json baseline — behavioral
# metrics exactly-reproducible, the throughput canary within its tightened
# 2x floor, the 4-channel scaling canary shard-deterministic (and above the
# 2.5x speedup floor on hosts with enough cores), span-phase latencies and
# the attribution residual included. Exit nonzero = regression.
echo
echo "==> regression gate"
cargo run --offline -q --release -p aqua-bench --bin regression_gate

# The gate itself must detect a synthetic regression: +10 pp of slowdown
# (and residual) has to fail. A gate that cannot fail gates nothing.
echo
echo "==> regression gate must FAIL on injected +10pp slowdown"
expect_exit 1 target/release/regression_gate --inject-slowdown 10
echo "gate correctly rejected the injected regression"

# The throughput floor must also be a must-fail check: a synthetic 3x
# collapse of the throughput canary (beyond the 2x tolerance factor) has
# to exit nonzero, proving the hot-loop floor actually gates.
echo
echo "==> regression gate must FAIL on injected 3x throughput collapse"
expect_exit 1 target/release/regression_gate --inject-throttle 3
echo "gate correctly rejected the throttled throughput canary"

echo
echo "ci.sh: all checks passed"
