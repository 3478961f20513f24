#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it, passing its
# arguments through. Everything the build writes — the binary and Go's build
# cache — goes under .bench_build/ at the root of the checkout, so a run
# reads and writes nothing outside it. The build needs the whole repository
# (the benchmark's go.mod replaces the module "fraz" with ".."); in a
# directory that holds only the benchmark it fails, and so does this script.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$build/fraz-benchmark" .) >&2
cd "$root"
exec "$build/fraz-benchmark" "$@"
