#!/usr/bin/env bash
# Builds the benchmark and the authd server from this checkout, then
# runs one benchmark workload:
#
#   bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binaries, Go build cache, temp files)
# stays under .bench_build at the root of the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root holds no ritw source tree to build" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$out/ritwbench" . && go build -o "$out/authd" ritw/cmd/authd) >&2
cd "$root"
# Not exec: the benchmark reads the peak RSS of the children it reaps,
# and an exec'd process would inherit this shell's, the build's among
# them.
"$out/ritwbench" -authd "$out/authd" -outdir "$out" "$@"
