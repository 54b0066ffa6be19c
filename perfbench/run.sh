#!/usr/bin/env bash
# Builds perfbench from the checkout's own sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload lib-large --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, temporary files) stays
# in .bench_build/ at the root of the checkout. Outside a full checkout the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
