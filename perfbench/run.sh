#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; all arguments are passed on, e.g.
#
#   bash perfbench/run.sh --workload warm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache and
# temporary files, the binary and the traced runs' span files.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache
export GOTMPDIR=$build/tmp
export GOPATH=$build/gopath
export XDG_CONFIG_HOME=$build/config
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export CARGO_TARGET_DIR=$build

(cd "$(dirname "$0")" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
