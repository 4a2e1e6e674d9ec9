#!/usr/bin/env bash
# Builds cald, calcheck, calexplore and the benchmark from the calgo checkout in the current
# directory, then runs one workload. Every build product, cache and
# scratch file stays under .bench_build/ in the checkout.
#
#   bash perfbench/run.sh --workload check-ca --seed 1 --seconds 12 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/cald ] || [ ! -d internal ]; then
	echo "perfbench: run from the root of a calgo checkout" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off

commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
go build -o "$out/bin/" ./cmd/cald ./cmd/calcheck ./cmd/calexplore
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -workdir "$out" -commit "$commit" "$@"
