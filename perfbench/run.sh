#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it runs in, then runs it
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload twolevel --seed 1 --seconds 56 --trace 0
#
# The Go build cache, the binary and the Chrome traces go to .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root; the program's sources are not here" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out"
# Keep every file the Go toolchain writes inside the checkout, and never
# reach for the network.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd perfbench && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
