#!/usr/bin/env bash
# Builds drserverd and drbench from this checkout and runs the benchmark.
#
#   bench/run.sh                       every workload, timed then traced; prints every metric
#   bench/run.sh -selfcheck            two complete sets, compared against BENCHMARK.json's bounds
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                      one run; last line of stdout is the result as JSON
#
# Everything it writes stays inside the checkout: build cache, binaries and
# the daemons' data directories under .bench_build/, traces under bench/out/.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
build="$root/.bench_build"

# The daemon under test is built from this checkout; without its source there
# is nothing to measure, and nothing is started.
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/drserverd" ]]; then
    echo "bench/run.sh: $root holds no drserverd source (go.mod, cmd/drserverd)" >&2
    exit 2
fi
mkdir -p "$build/tmp" "$build/work" "$build/home/.config/go/telemetry"

# The go command keeps its caches and its configuration directory inside the
# checkout too. Telemetry is off there: in any other mode the go command forks
# a detached "telemetry" sidecar that can outlive this script.
echo off >"$build/home/.config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOENV=off GOWORK=off
go() { HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" command go "$@"; }

# Builds go to stderr-only: stdout belongs to the benchmark's result line.
(cd "$root" && go build -o "$build/drserverd" ./cmd/drserverd) >&2
(cd "$bench" && go build -o "$build/drbench" ./cmd/drbench) >&2

exec "$build/drbench" -drserverd "$build/drserverd" -work "$build/work" -out "$bench/out" \
    -benchmark-json "$root/BENCHMARK.json" "$@"
