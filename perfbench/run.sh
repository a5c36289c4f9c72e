#!/usr/bin/env bash
# Builds the mdesd daemon and the benchmark from source, then runs one
# benchmark workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-batch --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# repository root: binaries, the Go build cache, the daemon's description
# caches and the machine-stamped result files.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/mdesd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/mdesd and perfbench/go.mod must exist)" >&2
	exit 2
fi

root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/config"
export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export TMPDIR=$build/tmp
export GOMODCACHE=$build/gomod
export XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

go build -o "$build/bin/mdesd" ./cmd/mdesd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" "$@" --mdesd "$build/bin/mdesd" --root "$root"
