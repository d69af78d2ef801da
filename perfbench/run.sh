#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload solve-large --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and span files stay under .bench_build/
# in the repository root.
set -euo pipefail
# Fall back to the Go distribution's default install location when go is
# not on PATH.
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
(
	cd "$root/perfbench"
	env GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
		HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
