#!/usr/bin/env bash
# Builds scbench from the checkout it is run in and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload serve-long --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the
# compiler's temporary files and the go command's own configuration and
# telemetry stay in .bench_build/ under that root; no network is used.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -o "$out/scbench" .
exec "$out/scbench" "$@"
