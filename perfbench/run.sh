#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is
# passed through (see main.go). Run it from the root of a checkout:
#
#   bash perfbench/run.sh --workload ott-session --seed 1 --seconds 10 --trace 0
#
# The build writes only under .bench_build/ in the checkout (or
# $CARGO_TARGET_DIR when set): the Go build cache, temporary files and
# the binary all live there, and the module proxy is off.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
out="$build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOPATH="$out/gopath" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$bench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
