#!/bin/sh
# Build the benchmark from source, then run it with the given arguments:
#
#   sh benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
#
# Run from the root of a checkout. Build output goes to stderr, so the
# last line of stdout is the benchmark's JSON result. The dune cache is
# disabled and temporary files go to .benchmark-tmp/, so that nothing is
# written outside the checkout.
set -e
cd "$(dirname "$0")/.."
TMPDIR="$PWD/.benchmark-tmp"
export TMPDIR
mkdir -p "$TMPDIR"
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)"
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
