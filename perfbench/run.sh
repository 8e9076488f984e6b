#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments (see perfbench/README.md). Run it from the checkout's
# root. Every build and run artifact stays under .bench_build there.
set -euo pipefail
root="$PWD"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out"
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out" "$@"
