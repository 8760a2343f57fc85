#!/usr/bin/env bash
# Builds geacc-server and the benchmark program from the checkout in the
# current directory, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
# With telemetry on, every go command starts a detached upload process that
# can outlive this script; turning it off (in the config dir above) stops that.
go telemetry off
go build -o "$out/geacc-server" ./cmd/geacc-server
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -server "$out/geacc-server" -work "$out" "$@"
