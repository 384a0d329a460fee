#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload campaign-traces --seed 1 --seconds 20 --trace 0
#
# Every file the build and the run write stays inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build): the binary, the Go build
# cache and the run's scratch traces.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd e2ebench && go build -buildvcs=false -o "$out/e2ebench" .)

# The result names the commit when the checkout is a git work tree of its
# own; otherwise e2ebench names a digest of the Go sources.
if top="$(git rev-parse --show-toplevel 2>/dev/null)" && [ "$top" = "$root" ]; then
	E2EBENCH_COMMIT="$(git rev-parse HEAD)"
	git diff --quiet HEAD -- || E2EBENCH_COMMIT="$E2EBENCH_COMMIT-dirty"
	export E2EBENCH_COMMIT
fi
exec "$out/e2ebench" "$@"
