#!/usr/bin/env bash
# The command BENCHMARK.json names. It builds the benchmark from source
# and runs it with the arguments it was given, e.g.
#
#   bash benchmark/run.sh --workload topk-warm --seed 1 --seconds 12 --trace 0
#
# Everything it writes (build cache, binaries, temporary files, span
# files) goes under .bench_build in the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if ! grep -qx 'module distjoin' "$root/go.mod" 2>/dev/null; then
	echo "benchmark/run.sh: $root is not the distjoin repository (no go.mod for module distjoin); nothing to measure" >&2
	exit 1
fi
cd "$root"

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"

go build -C benchmark -o "$build/bin/distjoin-benchmark" .
exec "$build/bin/distjoin-benchmark" -root "$root" "$@"
