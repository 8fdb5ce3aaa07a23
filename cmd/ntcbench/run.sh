#!/usr/bin/env bash
# run.sh — build and run ntcbench from the repository root.
#
#   bash cmd/ntcbench/run.sh --workload fig2-scaleout --seed 24301 --seconds 20 --trace 0
#   bash cmd/ntcbench/run.sh -seed 24301 -out run.jsonl      # every workload, untraced then traced
#   bash cmd/ntcbench/run.sh compare A.jsonl B.jsonl
#
# Everything the Go toolchain writes (build cache, module path, telemetry)
# stays under .bench_build in the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C cmd/ntcbench build -o "$build/bin/ntcbench" .
exec "$build/bin/ntcbench" "$@"
