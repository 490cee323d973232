#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload cold-predict --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout: the Go build cache, the binary, the
# scratch stores and the span dumps of traced runs.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/service" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (the ESTIMA sources are not here)" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/perfbench"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off

# Rebuild only when a source is newer than the binary: later runs in the
# same checkout skip the link step.
bin="$build/perfbench/perfbench"
if [[ ! -x "$bin" || -n "$(find "$root/go.mod" "$root/internal" "$root/perfbench" -newer "$bin" -print -quit)" ]]; then
	(cd "$root/perfbench" && go build -o "$bin.tmp" . && mv "$bin.tmp" "$bin")
fi
exec "$bin" "$@"
