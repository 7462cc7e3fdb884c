#!/usr/bin/env bash
# Builds the sudc benchmark from this checkout's sources and runs it.
#
#   bash sudcbench/run.sh --workload <paper|sweeps|walker-1k|mission> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and the span files go under
# .bench_build/ at the repository root, so a run reads and writes
# nothing outside the checkout. The build fails, and so does the run,
# when the program's sources are not beside this directory.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/sudcbench" && go build -o "$out/sudcbench" .)
cd "$root"
exec "$out/sudcbench" "$@"
