#!/usr/bin/env bash
# Build the host-time benchmark from this checkout's sources, then run it.
#
#   bash perfbench/run.sh --workload adhoc_compile|serve_storm \
#     --seed N --seconds S --trace 0|1
#
# Run from the root of the repository. The build stays inside the
# checkout (_build/, no shared dune cache); the benchmark itself keeps its
# determinism record under .perfbench/. The last line of standard output
# is the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib/weaver ]; then
  echo "perfbench: run from the repository root (dune-project and lib/ not found)" >&2
  exit 2
fi

profile=dev
export DUNE_CACHE=disabled
dune build --root . --profile "$profile" --display quiet ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe --profile "$profile" "$@"
