#!/usr/bin/env bash
# Builds the benchmark and ciaoserve from source into .bench_build/ and
# runs the benchmark with the given arguments, for example:
#
#   bash bench/run.sh --workload fig8 --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. Every file the build and the run
# write (Go build cache, binaries, temporary stores, traces) stays under
# .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (go.mod and bench/go.mod needed)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/home/go"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local GOWORK=off

(cd bench && go build -o "$out/bench" . && go build -o "$out/ciaoserve" repro/cmd/ciaoserve)
exec "$out/bench" --workdir "$out" "$@"
