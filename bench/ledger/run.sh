#!/bin/sh
# Build the ledger and the farm worker from source, then run the ledger
# with these arguments, e.g.
#   sh bench/ledger/run.sh --workload detect --seed 1 --seconds 25 --trace 0
#   sh bench/ledger/run.sh compare DIR_A DIR_B
# Build output goes to stderr; the ledger's result is the last stdout line.
set -eu
root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib/upec ] || [ ! -d bin ]; then
  echo "run.sh: $root is not a checkout of the repository" >&2
  exit 2
fi
mkdir -p bench/ledger/_work/tmp
TMPDIR="$root/bench/ledger/_work/tmp"
export TMPDIR
dune build --root . --cache=disabled bench/ledger/ledger.exe bin/upec_farm.exe 1>&2
exec ./_build/default/bench/ledger/ledger.exe "$@"
