#!/usr/bin/env bash
# Builds imtd, imtgw and perfbench from the checkout this
# script lives in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under <checkout>/.perfbench.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="$root/.perfbench"
mkdir -p "$work/gocache" "$work/gotmp" "$work/bin"
export GOCACHE="$work/gocache" GOTMPDIR="$work/gotmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
cd "$root"
go build -o "$work/bin/imtd" ./cmd/imtd >&2
go build -o "$work/bin/imtgw" ./cmd/imtgw >&2
(cd "$root/perfbench" && go build -o "$work/bin/perfbench" .) >&2
exec "$work/bin/perfbench" -root "$root" -bin "$work/bin" "$@"
