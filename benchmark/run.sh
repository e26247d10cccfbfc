#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the driver (this directory's
# module) with every go tool directory kept inside the checkout, then hands
# over to it. The driver builds ./cmd/axmlserved from the same checkout.
# Run from anywhere; arguments go to the driver (see README.md).
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/work" "$build/tmp"

# Nothing is read or written outside the checkout: build cache, module
# cache, go's temporary and telemetry directories all live under .bench_build.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$here" build -o "$build/work/driver" .
exec "$build/work/driver" -root "$root" "$@"
