#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root; build outputs and span files go under
# .bench_build/ there:
#
#   bash benchmark/run.sh --workload des-mlp --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh steady --runs 10
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
# Keep the Go build cache, module path and telemetry counters inside the
# checkout, and never reach for a network toolchain or module proxy.
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd benchmark && go build -o "$build/stellaris-bench" .)
exec "$build/stellaris-bench" "$@"
