#!/bin/sh
# Build the benchmark from source, then run one workload:
#
#   sh rtasbench/run.sh --workload W --seed S --seconds T --trace 0|1
#
# Run it from the root of a checkout. The build keeps every file it
# writes inside the checkout's _build: the dune cache is off and the
# compiler's temporary files go to _build/rtasbench/tmp. The last line
# of standard output is the JSON result; build output goes to standard
# error.
set -eu

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "rtasbench/run.sh: not at the root of a checkout of the repository" >&2
  exit 2
fi

mkdir -p _build/rtasbench/tmp
TMPDIR="$PWD/_build/rtasbench/tmp"
export TMPDIR

dune build --root . --cache=disabled ./rtasbench/rtas_bench.exe 1>&2
exec ./_build/default/rtasbench/rtas_bench.exe run "$@"
