#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark. Run it from the repository
# root:
#
#   bash e2ebench/run.sh --workload linkflap --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temporary
# files, the binary, span dumps) stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$here/go.mod" ]; then
	echo "e2ebench: run from the repository root (go.mod not found)" >&2
	exit 2
fi
build="$root/.bench_build/e2ebench"
mkdir -p "$build/gocache" "$build/tmp" "$build/home" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	HOME="$build/home" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS= \
	GOTELEMETRY=off CGO_ENABLED=0
(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" --out "$root/.bench_build" "$@"
