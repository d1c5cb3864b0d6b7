#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload cold|fleet|market|all --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything the build and the run write —
# the binary, the Go build cache, temporary stores and tables — stays under
# the build directory ($CARGO_TARGET_DIR, default .bench_build), so the
# checkout is the only directory read or written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config" "$out/cache"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/cache/go-build"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export TMPDIR="$out/tmp"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -build-dir "$out" "$@"
