#!/usr/bin/env bash
# Builds the end-to-end fleet benchmark from source and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from
# the repository root. Build outputs, the Go build cache and run
# scratch files stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
