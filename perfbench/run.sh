#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload oneshot-schur2 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes
# (build cache, binary, temporary files) stays under .bench_build/.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOTELEMETRY=off GOPROXY=off GOWORK=off
if [ -z "${PERFBENCH_COMMIT:-}" ]; then
	PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi
go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
