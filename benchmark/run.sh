#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it with the
# given arguments. Everything the build writes (binary, Go build cache)
# stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/lhmm-benchmark" .
exec "$build/lhmm-benchmark" "$@"
