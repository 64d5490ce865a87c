#!/usr/bin/env bash
# Builds the serving benchmark from the sources of the checkout it is
# run from, then runs it with the given arguments. Run from the root of
# the checkout:
#
#   bash fwbench/run.sh --workload serve-bulk --seed 1 --seconds 10 --trace 0
#
# Every build product, Go cache and scratch file stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/fwbench/go.mod" ]]; then
	echo "fwbench: run from the root of a fadewich checkout (module sources not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/xdg"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/xdg" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
(cd "$root/fwbench" && go build -trimpath -o "$out/fwbench" .) >&2
exec "$out/fwbench" -workdir "$out" "$@"
