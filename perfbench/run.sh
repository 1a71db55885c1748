#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments,
# e.g. from the repository root:
#
#   bash perfbench/run.sh --workload casestudy-miss --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the go command's temporary and
# config files all live under .bench_build in the working directory,
# so a run writes nothing outside it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
(
	cd "$(dirname "$0")"
	# Stamp the commit only when this directory's parent is the git
	# work tree's root, not some enclosing repository.
	commit=""
	if [ "$(git rev-parse --show-toplevel 2>/dev/null || true)" = "$(cd .. && pwd -P)" ]; then
		commit="$(git rev-parse HEAD)"
		if [ -n "$(git status --porcelain -- ..)" ]; then
			commit="$commit+dirty"
		fi
	fi
	go build -buildvcs=false -ldflags "-X main.buildCommit=$commit" -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
