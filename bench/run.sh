#!/bin/bash
# Entry point of the benchmark (BENCHMARK.json's command): builds the harness
# from this checkout and runs it. Everything it writes — build cache, build
# temp files, binaries, data directories — stays under the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOWORK=off
# The go command keeps telemetry counters under the user's config directory.
export XDG_CONFIG_HOME="$build/config"

(cd "$here" && go build -o "$build/bin/bench" .)

# The durable workloads keep their data on a tmpfs mounted INSIDE the
# checkout; a private mount namespace makes that possible without touching
# the host's mounts. Where unshare is not permitted the harness falls back
# to a plain directory and says so (env.tmpfs=false).
cd "$root"
if unshare --mount true 2>/dev/null; then
	LIGHTOR_BENCH_PRIVATE_NS=1 exec unshare --mount "$build/bin/bench" "$@"
fi
exec "$build/bin/bench" "$@"
