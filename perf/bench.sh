#!/bin/sh
# Build perf/main.exe from the sources of this checkout and run it with the
# given arguments, e.g.
#   bash perf/bench.sh --workload gauss800 --seed 42 --seconds 12 --trace 0
# The build goes to _build/ inside the checkout; dune's shared cache is off
# so that nothing is written outside it.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perf/bench.sh: no simulator sources next to perf/ (need dune-project and lib/)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet perf/main.exe >&2
exec ./_build/default/perf/main.exe "$@"
