#!/usr/bin/env bash
# The cpx host-performance benchmark (perf/README.md). Run from the
# root of the repository:
#
#   perf/run.sh [--sets=N] [--quick] [--seed=N] [--trace]
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Configures build-perf/ on first use, builds only the cpxperf and
# cpxbench targets, then hands every argument to perf/run.py. Build
# output goes to build-perf/build.log, so stdout carries only results.
set -euo pipefail

cd "$(dirname "$0")/.."
mkdir -p build-perf
if [[ ! -f build-perf/CMakeCache.txt ]]; then
    if ! cmake -S perf -B build-perf >build-perf/build.log 2>&1; then
        tail -n 30 build-perf/build.log >&2
        rm -f build-perf/CMakeCache.txt
        exit 1
    fi
fi
if ! cmake --build build-perf --target cpxperf cpxbench --parallel 4 \
        >>build-perf/build.log 2>&1; then
    tail -n 30 build-perf/build.log >&2
    exit 1
fi
exec python3 perf/run.py "$@"
