#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, with the benchmark's arguments:
#
#   bash perfbench/run.sh --workload fleet-mixed --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's temporary files all live under
# $CARGO_TARGET_DIR (default .bench_build), inside the checkout. The build
# needs the repository's own go.mod one level up; without it the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config"

# XDG_CONFIG_HOME keeps the toolchain's config and telemetry files in the
# checkout too. The build needs no module downloads: GOPROXY=off.
(cd "$root/perfbench" &&
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off \
		go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
