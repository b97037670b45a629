#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload forward --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, the binary,
# Chrome traces, per-run result records) stays under .bench_build/.
set -euo pipefail

root=$PWD
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

# The commit, when this checkout is a git work tree of its own.
PERFBENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || true)
export PERFBENCH_COMMIT

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
