#!/bin/bash
# Builds the benchmark with the checkout's own sources and runs it from the
# checkout root. A run may write nowhere but in its checkout, so what the go
# command writes goes under .bench_build/ with the rest: its build cache, its
# temporary files and its user configuration directory.
#
# A run may also leave no process behind. The first go command to see a fresh
# configuration directory starts a detached telemetry sidecar (`go
# "** telemetry **"`) that outlives it, whether the build succeeds or not; the
# mode file written here is what `go telemetry off` writes, and with it the go
# command opens no counter file and starts no sidecar.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/tmp .bench_build/config/go/telemetry
export GOCACHE="$PWD/.bench_build/gocache" GOTMPDIR="$PWD/.bench_build/tmp" XDG_CONFIG_HOME="$PWD/.bench_build/config"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o .bench_build/saga-e2e ./bench
exec .bench_build/saga-e2e "$@"
