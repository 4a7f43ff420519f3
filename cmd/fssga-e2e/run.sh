#!/bin/sh
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash cmd/fssga-e2e/run.sh --workload election-grid --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# the go command's local telemetry) goes under .bench_build in the
# current directory, and the build never touches the network: the module
# needs only the standard library and the repository itself.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/cmd/fssga-e2e" && go build -o "$out/fssga-e2e" .)
exec "$out/fssga-e2e" "$@"
