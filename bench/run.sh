#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root with the given
# flags (see bench/README.md). The binary, the Go build cache, the Go
# command's own state and every temporary file stay under .bench_build/ at
# the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off GOENV=off
(cd "$root/bench" && go build -o "$out/asapbench" .)
cd "$root"
exec "$out/asapbench" "$@"
