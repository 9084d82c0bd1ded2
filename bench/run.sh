#!/usr/bin/env bash
# Builds aggbench and the aggrate CLI from this checkout, then runs aggbench
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload mean-1m --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binaries, Go build cache, Go's config and
# telemetry, temporary files) goes under $CARGO_TARGET_DIR, default
# .bench_build, relative to the repository root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/bench" && go build -o "$build/bin/" ./aggbench aggrate/cmd/aggrate) >&2
cd "$root"
exec "$build/bin/aggbench" --aggrate "$build/bin/aggrate" --out "$root/bench/out" "$@"
