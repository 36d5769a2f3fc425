#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root with the benchmark's own arguments, for example
#
#   bash perfbench/run.sh --workload attack-flood --seed 42 --seconds 45 --trace 0
#
# glibc keeps freed memory in the process here (no mmap below 32 MiB, no
# trimming). Every cell allocates and frees arrays over all 2M rows; with
# the default settings they go back to the kernel and the next cell faults
# them in again, and on a 2-vCPU VM that fault time swung from 5 % to 48 %
# of the CPU between runs, spreading suite-quiet's accesses_per_s over
# 2.1M-4.2M/s. Kept in the process, they are reused and zeroed by calloc
# instead, a cost that swings far less. `perfbench/README.md` gives the
# figures with and without these settings.
set -euo pipefail
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
export GLIBC_TUNABLES=glibc.malloc.mmap_threshold=33554432:glibc.malloc.trim_threshold=68719476736
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/aqua-perfbench" "$@"
