#!/usr/bin/env bash
# Builds cmd/pimentod and the benchmark from the tree into .bench_build/
# and runs the benchmark from the repository root. Arguments are passed
# through: see bench/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# Without the program's source there is nothing to measure; say so before
# the toolchain is started at all.
if [[ ! -f go.mod || ! -d cmd/pimentod ]]; then
  echo "bench/run.sh: $root holds no go.mod and cmd/pimentod: nothing to build" >&2
  exit 1
fi
build="$root/.bench_build"
# Everything the toolchain writes stays inside the checkout; nothing is
# fetched.
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
# With telemetry in its default "local" mode the first go command over a
# fresh config directory detaches a child of its own (the weekly report
# roll-up) that can outlive this script. Mode "off" starts none; it can
# only be set through the mode file.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/pimentod" ./cmd/pimentod
go build -C bench -o "$build/pimento-bench" .
exec "$build/pimento-bench" -pimentod "$build/pimentod" "$@"
