#!/usr/bin/env bash
# Builds the mbistperf workload benchmark from the source tree around
# this directory and runs it with the given arguments, e.g.
#
#   bash mbistperf/run.sh -workload grade-fleet -seed 1 -seconds 20 -trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every temporary file (the service workload's journal included) stay
# under .bench_build/ in the current directory.
set -euo pipefail

src=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$PWD/.bench_build/mbistperf
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off

(cd "$src" && go build -o "$out/mbistperf" .)
exec "$out/mbistperf" "$@"
