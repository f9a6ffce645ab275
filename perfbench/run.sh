#!/usr/bin/env bash
# Build the benchmark from the sources of the checkout it runs in, then
# run it. Run from the repository root:
#
#   bash perfbench/run.sh --workload df-paper --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays inside the checkout (_build/ and,
# while daemon-mix runs, .perfbench_run/).
set -euo pipefail

if [[ ! -f dune-project || ! -f lib/api/api.mli || ! -f perfbench/dune ]]; then
  echo "perfbench: run from the root of an oshil checkout (dune-project, lib/ and perfbench/ needed)" >&2
  exit 2
fi
if ! command -v dune >/dev/null 2>&1; then
  echo "perfbench: dune not found on PATH" >&2
  exit 2
fi

# the shared dune cache lives outside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
