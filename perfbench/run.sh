#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload feed --seed 1 --seconds 25 --trace 0
#
# Every build product, the Go build cache, the go command's own config and
# telemetry files, and the span dumps stay under .bench_build/ in the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
