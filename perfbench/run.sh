#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, with the benchmark's flags:
#
#   bash perfbench/run.sh --workload paper-report --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, binary) and
# every file a run creates stays under .bench_build/perfbench in the
# current directory.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/bin" . >&2
exec "$out/bin" --scratch "$out/tmp" "$@"
