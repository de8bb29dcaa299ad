#!/usr/bin/env bash
# Builds perfbench and hinriskd from this checkout's sources into
# $CARGO_TARGET_DIR (default .bench_build), then runs perfbench with the
# given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-read --seed 1 --seconds 10 --trace 0
#
# Every build and scratch file stays under the build directory: the Go
# build cache included, and no module is ever downloaded.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(
	cd "$here"
	go build -o "$out/perfbench" .
	go build -o "$out/hinriskd" github.com/hinpriv/dehin/cmd/hinriskd
) >&2
exec "$out/perfbench" -bin "$out/hinriskd" -work "$out/work" "$@"
