#!/usr/bin/env bash
# Builds the wall-clock benchmark from the checkout it sits in and runs
# it with the given arguments (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload sim-mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root.  Everything it builds or writes stays
# under .bench_build/ in that directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi

out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache"
export GOTMPDIR="$PWD/$out/tmp"
export GOMODCACHE="$PWD/$out/gomod"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
mkdir -p "$GOTMPDIR"

(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" "$@"
