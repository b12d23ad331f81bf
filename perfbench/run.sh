#!/bin/sh
# Entry point of the repository benchmark.  Builds perfbench/bench.exe
# from source with dune (build output goes to stderr), then runs it from
# the repository root with the given arguments, e.g.
#
#   sh perfbench/run.sh --workload long-run --seed 1 --seconds 20 --trace 0
#
# Exits non-zero without a result when the build fails.
set -e
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/bench.exe >&2
exec ./_build/default/perfbench/bench.exe "$@"
