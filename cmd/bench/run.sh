#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the root of the checkout and runs it with the arguments
# given. Compiler cache, temporary files, binary and generated data all stay
# inside the checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."

build=.bench_build
mkdir -p "$build/tmp"
# Everything the go command writes (build cache, temporary files, module
# cache, its config and telemetry directory) is pointed into $build.
export GOCACHE="$PWD/$build/gocache" GOTMPDIR="$PWD/$build/tmp" GOPATH="$PWD/$build/gopath" \
	XDG_CONFIG_HOME="$PWD/$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

# With telemetry in its default mode the go command starts a detached child of
# itself (go "** telemetry **") that outlives a short go command, such as the
# failing build in a checkout without the program. The mode file is the only
# switch: GOTELEMETRY cannot be set through the environment.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/bench" ./cmd/bench
exec "$build/bench" "$@"
