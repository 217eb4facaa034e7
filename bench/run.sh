#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash bench/run.sh [flags]. The Go build cache, the binary and any
# Go tool state live under .bench_build/ in the working directory, so the
# benchmark reads and writes nothing outside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/sspbench" .
exec "$out/sspbench" "$@"
