#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload <point-read|point-churn|query> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every file the Go toolchain writes (build
# cache, module cache, telemetry) and the trace output stay under
# .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" \
    GOPATH="$out/gopath" \
    GOMODCACHE="$out/gopath/pkg/mod" \
    XDG_CONFIG_HOME="$out/config" \
    GOTOOLCHAIN=local \
    GOPROXY=off \
    GOFLAGS= \
    GOTELEMETRY=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
