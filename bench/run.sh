#!/usr/bin/env bash
# Builds radiobench from this checkout and runs it with the given flags.
# Run it from the root of the repository:
#
#   bash bench/run.sh --workload batch-lanes --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the benchmark's scratch files stay
# under $CARGO_TARGET_DIR (default .bench_build), so a run reads and
# writes only inside the checkout. The bench module builds against the
# repository's module one directory up; without it the build fails and
# nothing runs.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd bench && go build -o "$out/radiobench" ./radiobench)
exec "$out/radiobench" -workdir "$out/radiobench-work" "$@"
