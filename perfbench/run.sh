#!/bin/sh
# Build the system under test (bin/rvu.exe) and the benchmark driver from
# source, then run one measurement:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last line of stdout is the result.
set -e
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled bin/rvu.exe perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe --rvu ./_build/default/bin/rvu.exe "$@"
