#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ and runs it with the
# given arguments (see perfbench/README.md). Run from the repository root:
#
#	bash perfbench/run.sh --workload exact-dense --seed 1 --seconds 16 --trace 0
#
# The Go build cache, GOPATH and the toolchain's config directory all live
# under .bench_build/, so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The stamp's commit: git's HEAD in a git checkout; elsewhere a hash of the
# Go sources, so runs of the same code still carry the same stamp.
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null) || commit=unknown
else
	commit="tree-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)" || commit=unknown
fi
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --commit "$commit" --trace_dir "$build/traces" "$@"
