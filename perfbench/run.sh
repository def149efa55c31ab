#!/usr/bin/env bash
# Builds the bigdansing CLI and the benchmark driver from source, then runs
# one benchmark run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload taxa-fd-clean --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build) inside the repository.
set -euo pipefail

root=$(pwd)
if [[ ! -f go.mod || ! -d cmd/bigdansing || ! -d internal ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/bigdansing and internal/ not found)" >&2
	exit 2
fi

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/config" "$out/tmp" "$out/work"

# Keep the toolchain's caches, telemetry and temp files inside the checkout
# and off the network.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off

go build -o "$out/bin/bigdansing" ./cmd/bigdansing >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -bin "$out/bin/bigdansing" -work "$out/work" "$@"
