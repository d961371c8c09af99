#!/usr/bin/env bash
# Builds the benchmark and the upmem-serve binary it drives from the
# checkout's sources, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload yolo-rows --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh steady -runs 5 yolo-rows serve-mix
#
# Everything the build and the runs write stays under .bench_build/ at the
# repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -C perfbench -o "$out/bin/perfbench" .
go build -C perfbench -o "$out/bin/upmem-serve" pimdnn/cmd/upmem-serve
exec "$out/bin/perfbench" "$@"
