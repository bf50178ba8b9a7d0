#!/usr/bin/env bash
# Builds hayatbench from the checkout it is started in, then runs it with
# the given arguments. Start it from the repository root:
#
#	bash cmd/hayatbench/run.sh --workload all --seed 1
#
# Build products, the Go build cache, the go command's own configuration
# and telemetry, and temporary files all stay under .bench_build/ in the
# repository root; nothing is downloaded.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f cmd/hayatd/main.go ] || [ ! -f cmd/hayatbench/go.mod ]; then
	echo "hayatbench: run from the root of a hayat checkout (go.mod and cmd/hayatd are missing here)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOENV=off
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C cmd/hayatbench build -o "$out/hayatbench" .
exec "$out/hayatbench" "$@"
