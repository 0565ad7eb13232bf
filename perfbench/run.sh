#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# arguments given, e.g.
#
#   bash perfbench/run.sh --workload gnmf-tcp --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and the span
# files of traced runs. The build fails, and the script exits non-zero
# without printing a result, when the engine's sources are not next to it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --spans-dir "$out/spans" "$@"
